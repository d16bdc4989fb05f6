#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Runs tiny versions of all three workloads, untraced and traced, and
expects every metric BENCHMARK.json declares and no failed operation.
Then it corrupts the library's output twice, once by nudging every
triangle weight up by one part in 1e9 and once by adding an infinite
point to each degree-1 diagram, and expects the harness to count failed
operations.  Takes a few seconds.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager

import run


@contextmanager
def patched(module, name, corrupt):
    original = getattr(module, name)
    setattr(module, name, corrupt(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def main() -> int:
    run.bootstrap()
    import numpy as np

    import topodist as td
    import topodist.pipeline
    from perfbench.harness import measure
    from perfbench.workloads import TINY

    def nudge_triangles(assign_weights):
        def corrupted(*args, **kwargs):
            cx = assign_weights(*args, **kwargs)
            weights = np.array(cx.weights)
            weights[[i for i, s in enumerate(cx.simplexes) if s.dimension == 2]] *= 1 + 1e-9
            return td.WeightedComplex(cx.simplexes, weights)
        return corrupted

    def add_essential_h1(persistence_diagrams):
        def corrupted(*args, **kwargs):
            diagrams = persistence_diagrams(*args, **kwargs)
            extra = td.PersistencePair(1, 0.0, math.inf, birth_simplex=0)
            diagrams[1] = td.PersistenceDiagram(1, diagrams[1].pairs + (extra,))
            return diagrams
        return corrupted

    declared = {k: {d["name"] for d in v} for k, v in run.declared_metrics().items()}
    work = run.OUT / "selftest"
    failures = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    for name, workload in TINY.items():
        for trace in (False, True):
            m = measure(workload, seed=1, seconds=0.5, trace=trace, work_dir=work)
            expect(m.failed == 0 and m.attempted > 0,
                   f"{name} trace {int(trace)}: {m.failed}/{m.attempted} failed")
            expect(set(m.values) == declared[trace],
                   f"{name} trace {int(trace)}: reports every declared metric")

    corruptions = (
        ("assign_weights", nudge_triangles, "torus-sweep", "triangle weights nudged"),
        ("persistence_diagrams", add_essential_h1, "cube-corpus", "infinite degree-1 point"),
    )
    for attribute, corrupt, name, what in corruptions:
        for trace in (False, True):
            with patched(topodist.pipeline, attribute, corrupt):
                m = measure(TINY[name], seed=1, seconds=0.5, trace=trace, work_dir=work)
            expect(m.failed > 0,
                   f"{name} trace {int(trace)} with {what}: {m.failed}/{m.attempted} failed")
    print("self-test " + ("passed" if failures == 0 else f"failed {failures} check(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
