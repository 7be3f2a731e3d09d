"""Host-speed reference for the end-to-end times.

The benchmark runs on two vCPUs of a shared host whose speed drifts: the
same finite-crossed pass took from 2.2 s to 4.6 s in runs a few minutes
apart, in stretches of tens of seconds, far more than any run can average
out.  So the benchmark times a fixed floating-point loop around each
in-process pass and between set-up processes, and scales each of those
times by ``REF_S / median(loop times around it)``: seconds at a reference
host speed, the speed at which the loop takes ``REF_S``.  run.py prints the
raw medians beside them.  cli-cold's passes stay raw: their work runs in
child processes, which a loop timed in the parent did not follow.

Across 16 fresh processes on this host, a fixed slice of finite-crossed
varied by 0.27 (IQR/median) in raw time and by 0.06 once divided by this
loop's time.  A loop of dict updates tracked the host worse (0.15): its own
time depends on each process's memory layout.  This loop allocates nothing
but floats, which come from a free list.

The loop never runs inside a timed region.  A change to the program moves
the scaled times by the same share as the raw ones.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.03
LOOP_N = 300_000
# loop timings taken before and after each scaled unit of work
SAMPLES = 3


def loop_time():
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(LOOP_N):
        x = x * 0.999 + (i & 7) * 0.5
    return time.perf_counter() - t0


def sample():
    return [loop_time() for _ in range(SAMPLES)]


def factor(times):
    """Scale that brings a time measured among ``times`` to the reference speed."""
    return REF_S / statistics.median(times)
