#!/usr/bin/env python3
"""Corpus-to-distance-matrix benchmark for topodist.

Run from the repository root:

    python3 perfbench/run.py --workload torus-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 1

One run sets up the workload's corpus, times corpus runs for about
``--seconds`` seconds, checks every output, and prints each metric by
name with its unit, then a provenance line, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` its per-layer metrics.  A record of the run, spans
included, is written under ``.perfbench_out/``.  ``--workload all`` runs
every workload, each in its own process, and ends with a JSON object
keyed by workload.

BLAS is pinned to one thread before NumPy loads, so the numbers are the
single-threaded baseline and do not depend on the machine's other load
as much.  The end-to-end times are scaled to a fixed machine speed (see
``perfbench/reference.py``); the raw wall times are printed too.  The
program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads and import topodist from this checkout's ``src/``."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import topodist
    except ImportError as exc:
        print(f"error: cannot import topodist from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(topodist.__file__).resolve().is_relative_to(src):
        print(f"error: topodist resolved to {topodist.__file__}, not under {src}",
              file=sys.stderr)
        sys.exit(2)


def declared_metrics() -> dict[bool, list[dict]]:
    """BENCHMARK.json's metrics, keyed by whether the run is traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {False: spec["end_to_end"], True: spec["per_layer"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.harness import measure, provenance
    from perfbench.workloads import WORKLOADS

    declared = declared_metrics()[trace]
    workload = WORKLOADS[name]
    m = measure(workload, seed, seconds, trace, OUT / f"work-{os.getpid()}")
    if set(m.values) != {d["name"] for d in declared}:
        raise RuntimeError(
            f"measured {sorted(m.values)} but BENCHMARK.json declares "
            f"{sorted(d['name'] for d in declared)}"
        )
    metrics = {d["name"]: {"value": m.values[d["name"]], "unit": d["unit"]} for d in declared}
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    prov = provenance(ROOT, workload, seed, seconds, trace)

    record = OUT / "records" / f"{name}-seed{seed}-trace{int(trace)}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(
        {"provenance": prov, "result": result, "samples": m.samples,
         "problems": m.problems, "spans": m.spans}, indent=1) + "\n")

    for p in m.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          + ", ".join(f"{len(v)} {k} samples" for k, v in m.samples.items() if v))
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    print(f"fail_ratio = {m.failed}/{m.attempted} = {m.failed / m.attempted!r}")
    for key in ("corpus_wall_s", "setup_wall_s"):
        print(f"{key} median = {statistics.median(m.samples[key])!r} s (unscaled)")
    print(f"reference_s mean = {statistics.mean(m.samples['reference_s'])!r} s")
    print(f"record {record.relative_to(ROOT)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with status {done.returncode}", flush=True)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    bootstrap()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
