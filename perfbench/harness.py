"""Measurement loop of the benchmark: set-up, timed corpus runs, checks.

With tracing off, each repeat is one ``run_pipeline(corpus, config,
out_dir=<fresh dir>)`` plus ``diffusion_maps`` of its matrix, and only
that call is timed.  Passes of the reference kernel follow every timed
call, set-up included, and the end-to-end times are median wall times
scaled by the run's mean reference pass (see ``reference``).

With tracing on, untraced and traced repeats alternate: the untraced
ones give the expected artifacts and the baseline for the tracing
overhead, the traced ones the per-layer numbers.  Every repeat is
checked (see ``checks``) and counted as one operation per dataset plus
one for the matrix and its embedding.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import topodist as td

from perfbench.checks import ArtifactChecker
from perfbench.reference import REFERENCE_S, reference_after, reference_s
from perfbench.staged import traced_pipeline
from perfbench.workloads import WARMUP_SEED, Workload

__all__ = ["Measurement", "measure", "provenance"]

# set-up is short and noisy, so it is repeated and its median reported
SETUP_REPEATS = 7
# byte-identity across repeats needs at least two; three give a median
MIN_UNTRACED_REPEATS = 3


@dataclasses.dataclass
class Measurement:
    values: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    samples: dict[str, list[float]]
    spans: list[dict]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _warm_up(workload: Workload, work_dir: Path) -> None:
    datasets, labels = workload.warmup.generate(WARMUP_SEED)
    matrix, _ = td.run_pipeline(
        datasets, workload.config, out_dir=_fresh(work_dir / "warmup"), labels=labels
    )
    td.diffusion_maps(matrix)


def _set_up(workload: Workload, seed: int, work_dir: Path, samples: dict[str, list[float]]):
    """Generate the corpus and warm up, ``SETUP_REPEATS`` times; time each."""
    reference_s()  # the kernel's own first call is not a sample
    for _ in range(SETUP_REPEATS):
        corpus = None  # keep one corpus alive at a time, for peak RSS
        gc.collect()
        t0 = time.perf_counter()
        corpus, labels = workload.corpus.generate(seed)
        _warm_up(workload, work_dir)
        samples["setup_wall_s"].append(time.perf_counter() - t0)
        reference_after(samples["setup_wall_s"][-1], samples["reference_s"])
    return corpus, labels


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path
) -> Measurement:
    """One benchmark run of ``workload``; ``work_dir`` is scratch space it owns."""
    samples: dict[str, list[float]] = {
        k: [] for k in ("corpus_wall_s", "traced_pipeline_s", "setup_wall_s", "reference_s")
    }
    corpus_s, traced_s = samples["corpus_wall_s"], samples["traced_pipeline_s"]
    corpus, labels = _set_up(workload, seed, work_dir, samples)
    checker = ArtifactChecker(corpus, labels, workload.config, seed)
    workers = len(os.sched_getaffinity(0))
    attempted = failed = 0
    problems: list[str] = []
    traced_values: list[dict[str, float]] = []
    spans: list[dict] = []
    cycles: list[float] = []

    def tally(found: dict[str, list[str]], repeat: str) -> None:
        nonlocal attempted, failed
        attempted += len(checker.ops)
        for op in checker.ops:
            if found.get(op):
                failed += 1
                problems.extend(f"{repeat} {op}: {p}" for p in found[op])

    def raised(repeat: str) -> None:
        tally({op: [traceback.format_exc(limit=3).strip()] for op in checker.ops}, repeat)

    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        repeat = f"repeat {len(cycles)}"
        out = _fresh(work_dir / "run")
        gc.collect()
        try:
            t0 = time.perf_counter()
            matrix, _ = td.run_pipeline(corpus, workload.config, out_dir=out, labels=labels)
            embedding = td.diffusion_maps(matrix)
            corpus_s.append(time.perf_counter() - t0)
            reference_after(corpus_s[-1], samples["reference_s"])
        except Exception:  # a failed repeat is counted, and the run goes on
            raised(repeat)
        else:
            tally(checker.check(out, matrix, embedding), repeat)

        if trace:
            repeat += " traced"
            out = _fresh(work_dir / "run")
            gc.collect()
            try:
                run = traced_pipeline(corpus, labels, workload.config, out, workers)
            except Exception:
                raised(repeat)
            else:
                found = checker.check(out, run.matrix, run.embedding)
                for op, extra in run.problems.items():
                    found[op] += extra
                tally(found, repeat)
                traced_s.append(run.pipeline_s)
                traced_values.append(run.values)
                spans += [
                    {**dataclasses.asdict(s), "start": s.start - start, "end": s.end - start,
                     "repeat": len(cycles)}
                    for s in run.spans
                ]

        cycles.append(time.perf_counter() - cycle_start)
        enough = len(cycles) >= (1 if trace else MIN_UNTRACED_REPEATS)
        if enough and time.perf_counter() - start + statistics.median(cycles) > seconds:
            break
    shutil.rmtree(work_dir, ignore_errors=True)

    if not corpus_s or (trace and not traced_values):
        raise RuntimeError("every repeat raised; nothing was measured:\n" + "\n".join(problems))
    # one factor per run: how much slower than quiet the host ran the reference
    scale = REFERENCE_S / statistics.mean(samples["reference_s"])
    values = {
        "corpus_s": statistics.median(corpus_s) * scale,
        "setup_s": statistics.median(samples["setup_wall_s"]) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        # median_low keeps counts whole; they repeat exactly across repeats
        values = {
            k: statistics.median_low(v[k] for v in traced_values) for k in traced_values[0]
        }
        values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(corpus_s)
    return Measurement(
        values=values,
        attempted=attempted,
        failed=failed,
        problems=problems,
        samples=samples,
        spans=spans,
    )


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": str(blas.get("name")), "version": str(blas.get("version"))}


def provenance(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Where a result came from: code, machine, libraries and inputs."""
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": _blas(),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "corpus": {"kind": type(workload.corpus).__name__, **dataclasses.asdict(workload.corpus)},
        "config": dataclasses.asdict(workload.config),
    }
