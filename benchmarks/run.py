"""duccvqe benchmark: time to a checked answer, per workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``. Workloads, their reasons and the metric list are in
``BENCHMARK.json``; the passes are in ``workloads.py``.

Each run is a closed loop with one client: items one after another, whole
passes (at least two) until ``--seconds`` have passed, every answer
checked. The workload runs in a fresh interpreter (``worker.py``) with BLAS
and OpenMP pinned to one thread. With ``--trace 0`` the last line reports
the end-to-end metrics:

- ``setup_s``: interpreter start to the first timed step (imports, input
  generation, FCIDUMP writing), scaled; the median of ``SETUP_SAMPLES``
  fresh interpreters, sampled before and after the timed passes.
- ``solve_s``: the time to take every item to a checked answer: the sum
  over the steps of a pass (each command or library call) of the step's
  median scaled time over the run's passes.
- ``peak_rss_mb``: the workload process's peak resident memory.

A scaled time is a wall time at a fixed speed of the machine: other
tenants of a shared machine make it run up to twice as slow in spells of a
second to minutes, so ``hostspeed.Sampler`` times a fixed calibration loop
every 20 ms while a step runs and scales the step's wall time to the speed
at which that loop takes ``hostspeed.NOMINAL_S``. The line before the
result also gives the unscaled wall times of the set-ups and passes.

With ``--trace 1`` the worker runs half its time untraced and half with
spans around every public function of each module (``tracing.py``); the
last line reports the per-layer metrics instead (times scaled like
``solve_s``), plus ``trace.overhead_s``, and the spans are written to
``.bench_work/``.
Failed commands or checks are counted in ``failed`` out of ``attempted``;
``correct`` is true only when none failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("vqe_3orb", "downfold_5orb", "sector_ci_6orb")
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
RUN_BUDGET_S = 170.0


def _spawn(args, workdir, deadline, setup_only):
    """Run one worker in a fresh interpreter; its parsed last line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"worker exited {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "duccvqe")):
        raise SystemExit(f"no duccvqe sources under {ROOT}/src")

    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(ROOT, ".bench_work")
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    setups, setup_walls = [], []

    def sample_setup(k):
        sample = _spawn(args, os.path.join(work, f"{tag}-setup{k}"), deadline,
                        setup_only=True)
        setups.append(sample["setup_s"])
        setup_walls.append(sample["setup_wall_s"])

    # set-up samples before and after the timed run, so one slow spell of
    # the machine does not set the median
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    for k in range(extra // 2):
        sample_setup(k)
    res = _spawn(args, os.path.join(work, tag), deadline, setup_only=False)
    setups.append(res["setup_s"])
    setup_walls.append(res["setup_wall_s"])
    for k in range(extra // 2, extra):
        sample_setup(k)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "inputs": res["inputs"], "env": res["env"]}))
    print(json.dumps({"setup_s_samples": setups,
                      "setup_wall_s_samples": setup_walls,
                      "pass_wall_s": res["pass_s"],
                      "traced_pass_wall_s": res.get("traced_pass_s")}))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": res["solve_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
