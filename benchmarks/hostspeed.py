"""Wall times scaled to a fixed speed of the machine.

On a shared virtual machine the same code runs up to twice as slow in
spells of a second to minutes, while other tenants load the host's cores.
CPU time then equals wall time: the core itself is slower, so no statistic
over one run removes a spell that covers it. ``Sampler`` measures the speed
while a step runs: every ``INTERVAL_S`` of wall time a timer signal runs a
short calibration loop and times it. The loop uses only Python and NumPy,
never the package, so a change to the package never changes it; it does the
kind of work the package does, dictionary bookkeeping on tuple keys and
small array operations. While the same inputs were solved again and again
for four minutes, the step times varied by 15-18% (coefficient of
variation) and followed the loop's mean time during the step with a
correlation of 0.95-0.97; scaled, they varied by 5-9%.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
ROUNDS = 800
# The unit of a scaled time: seconds on a machine that runs the loop in
# NOMINAL_S. A quiet 2-vCPU x86-64 virtual machine (Python 3.11, NumPy 2.4)
# runs it in 0.8-1.0 ms.
NOMINAL_S = 0.001

_VEC = np.arange(64, dtype=complex)


def _loop():
    table, acc = {}, 0.0
    for i in range(ROUNDS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        if i % 4 == 0:
            acc += float((_VEC * 1.0001).real[key[0]])
    return acc


class Sampler:
    """Context manager: times the calibration loop every ``INTERVAL_S``
    while active, from a ``SIGALRM`` handler in the main thread.

    ``since`` backdates the start (a ``time.monotonic`` value), so that work
    done before the sampler could start is counted at the speed sampled.
    """

    def __init__(self, since=None):
        self.since = since
        self.loop_s = []
        self._spent = 0.0

    def _tick(self, signum=None, frame=None):
        t = time.monotonic()
        _loop()
        took = time.monotonic() - t
        self.loop_s.append(took)
        self._spent += took

    def __enter__(self):
        if self.since is None:
            self.since = time.monotonic()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # the time the loops took is not the step's
        self.wall_s = time.monotonic() - self.since - self._spent
        if not self.loop_s:
            self._tick()
        return False

    def scaled_s(self):
        """The step's wall time at the loop's nominal speed."""
        return self.wall_s * NOMINAL_S / statistics.fmean(self.loop_s)
