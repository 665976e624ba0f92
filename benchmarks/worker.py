"""One workload process: set up the inputs, then time passes over them.

``run.py`` starts this script in a fresh interpreter, so set-up time
includes the imports and the peak memory belongs to one workload. It prints
one JSON object as its last line of standard output.

    python3 benchmarks/worker.py --workload W --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_PASSES = 2


def _measure(run_pass, seconds, tally, wrap=contextlib.nullcontext):
    """Whole passes: at least two, then more while the next should end
    within ``seconds``. Returns the solve time (the sum over the steps of a
    pass of each step's median scaled time) and, for each pass, its wall
    time, its scaled time and the context value ``wrap`` gave it (the root
    span in a traced run).
    """
    walls, scaled, contexts = [], [], []
    tally.take_times()
    start = time.perf_counter()
    while (len(walls) < MIN_PASSES
           or time.perf_counter() - start + walls[-1] <= seconds):
        before = tally.scaled_s
        with wrap() as ctx:
            t = time.perf_counter()
            run_pass()
            walls.append(time.perf_counter() - t)
        scaled.append(tally.scaled_s - before)
        contexts.append(ctx)
    solve_s = sum(statistics.median(times)
                  for times in tally.take_times().values())
    return solve_s, walls, scaled, contexts


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import hostspeed
    with hostspeed.Sampler(since=args.t0) as sampler:
        sys.path.insert(0, SRC)
        import duccvqe
        if not os.path.abspath(duccvqe.__file__).startswith(SRC + os.sep):
            raise SystemExit(
                f"duccvqe came from {duccvqe.__file__}, not {SRC}")
        import numpy
        import scipy

        import tracing
        import workloads

        setup, run_pass = workloads.WORKLOADS[args.workload]
        os.makedirs(args.workdir, exist_ok=True)
        items = setup(args.workdir, args.seed)
    out = {"setup_s": sampler.scaled_s(), "setup_wall_s": sampler.wall_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out["inputs"] = [{k: v for k, v in item.items() if k != "path"}
                     for item in items]
    out["env"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    tally = workloads.Tally()

    def one_pass():
        run_pass(items, args.workdir, tally)

    if not args.trace:
        out["solve_s"], out["pass_s"], _, _ = _measure(
            one_pass, args.seconds, tally)
    else:
        # half the run untraced, half traced: the difference is the overhead
        out["solve_s"], out["pass_s"], _, _ = _measure(
            one_pass, args.seconds / 2, tally)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out["traced_s"], out["traced_pass_s"], scaled, roots = _measure(
                one_pass, args.seconds / 2, tally,
                lambda: tracer.span("bench.pass"))
        finally:
            tracer.uninstall()
        spans = f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(os.path.join(os.path.dirname(args.workdir), spans))
        per_pass = [tracing.layer_metrics(tracer.spans, root[0])
                    for root in roots]
        for name in tracing.EXACT_COUNTS if len(per_pass) > 1 else ():
            values = {m[name][0] for m in per_pass}
            tally.check(len(values) == 1,
                        f"exact count {name} differs between passes: {values}")
        # span times are wall times with the calibration ticks inside; a
        # pass's scaled time over its wall time puts them at the nominal
        # speed too. Times vary between passes, so take their median;
        # counts and ratios repeat exactly (checked above), so take the
        # first pass's.
        factors = [s / w for s, w in zip(scaled, out["traced_pass_s"])]
        layers = {name: (statistics.median(m[name][0] * f for m, f
                                           in zip(per_pass, factors))
                         if unit == "s" else value, unit)
                  for name, (value, unit) in per_pass[0].items()}
        layers["trace.overhead_s"] = (out["traced_s"] - out["solve_s"], "s")
        out["layers"] = layers
    # ru_maxrss is in KiB on Linux
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = rss_kib / 1024
    out["attempted"] = tally.attempted
    out["failed"] = tally.failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
