"""Machine-speed reference that the end-to-end times are scaled by.

On a shared virtual machine the speed of one core drifts: on the 2-vCPU
KVM guest (Intel Xeon, model 207) the benchmark was written on, the same
corpus run took anywhere from 6.7 to 12.9 s within a few minutes, every
stage slowing together.  Process CPU time drifts with wall time and the
guest sees no steal time, so no clock removes the drift, and medians over
a run do not either, because the drift outlasts a run.

So passes of a fixed reference kernel that does not touch ``topodist``
(interpreter work on small dicts and tuples, then 200 x 200 matrix
products each followed by ``tanh``) follow every timed call, for a tenth
of its time, so that they sample the host's speed as evenly over the run
as the calls do.  A run's median wall times are multiplied by
``REFERENCE_S`` over the run's mean pass time, ``REFERENCE_S`` being the
pass time on that machine when it is quiet, so the results read as
seconds on that machine.  The mean, not the median: a pass is short
enough to fall wholly in a fast or a slow stretch of the host, a corpus
run is not, so the mean of the passes is what matches a call's time.
A change to ``topodist`` moves the scaled times as it moves wall time;
a slower or faster host moves the calls and the kernel the same way,
though not always by the same factor.  The kernel mixes both kinds of
work because neither alone tracked corpus time in every state of the
host.  Alternated with corpus runs, log corpus time against log kernel
time had a slope of 0.5 to 0.6 for the dict work alone; the matrix
products alone gave 0.9 to 1.1 in some stretches, and in another made
the run-to-run spread wider than unscaled wall time.  The raw wall and
kernel times are recorded with every run.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_after", "reference_s"]

# one pass of the kernel below on the machine described above, when quiet
REFERENCE_S = 0.23
# passes sample the host's speed for this share of the timed time
REFERENCE_SHARE = 0.1

_MATRIX = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)


def reference_s() -> float:
    """Wall time of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    for _ in range(160):
        table: dict[tuple[int, int, int], float] = {}
        for i in range(2000):
            key = (i % 97, i % 89, i % 83)
            table[key] = table.get(key, 0.0) + i * 0.5
        sorted(table.items(), key=lambda kv: kv[1])
    b = _MATRIX
    for _ in range(200):
        b = np.tanh(b @ b / 200.0)
    return time.perf_counter() - t0


def reference_after(wall_s: float, passes: list[float]) -> None:
    """After a call of ``wall_s`` seconds, run passes for about
    ``REFERENCE_SHARE`` of that time, at least one, appending their times."""
    spent = 0.0
    while spent == 0.0 or spent < REFERENCE_SHARE * wall_s:
        passes.append(reference_s())
        spent += passes[-1]
