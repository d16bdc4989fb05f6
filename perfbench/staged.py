"""Traced composition of ``run_pipeline`` from the library's public stages.

``run_pipeline`` is one call, so the benchmark rebuilds it from the public
functions of each ``topodist`` module, in the same order, and times every
call from outside the library in a span.  The caller checks that the
composed run writes the same bytes and returns the same matrix as
``run_pipeline``; if the two ever drift apart, the per-layer numbers no
longer describe the end-to-end one, and the run fails.

Two probe calls are not part of the pipeline and run after it, under
their own root span: ``raw_weights`` on the 1-skeleton alone (edge weights,
which the triangle time is the remainder of) and ``raw_weights`` with a
thread pool of one worker per available CPU.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

import topodist as td

__all__ = ["LAYERS", "Span", "Tracer", "TracedRun", "traced_pipeline"]

# layer names are the topodist modules; "io" covers the CSV/JSON writers
LAYERS = ("diffusion", "complexes", "homology", "wasserstein", "embedding", "io")


@dataclass
class Span:
    name: str
    dataset: str | None
    parent: int | None
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, dataset: str | None = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        record = Span(name, dataset, parent, time.perf_counter())
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its (sequential) children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)


@dataclass
class TracedRun:
    matrix: td.DatasetDistanceMatrix
    embedding: td.Embedding
    pipeline_s: float
    values: dict[str, float]
    spans: list[Span]
    problems: dict[str, list[str]] = field(default_factory=dict)


def _skeleton(dataset: td.Dataset, config: td.PipelineConfig) -> list[td.Simplex]:
    if config.skeleton == "grid":
        return td.grid_skeleton(int(dataset.metadata["grid_rows"]),
                                int(dataset.metadata["grid_cols"]))
    return td.complete_skeleton(len(dataset.samples))


def _operators(dataset: td.Dataset, config: td.PipelineConfig) -> list[td.DiffusionOperator]:
    return [
        td.sample_diffusion_operator(s, median_factor=config.kernel_epsilon_factor)
        for s in dataset.samples
    ]


def traced_pipeline(
    corpus: Sequence[td.Dataset],
    labels: Sequence[str],
    config: td.PipelineConfig,
    out: Path,
    workers: int,
) -> TracedRun:
    """Run the pipeline stage by stage under spans, then the two probes."""
    if config.normalize or config.weight_scheme != "alternating":
        raise ValueError("the composition mirrors run_pipeline's default weighting only")
    tracer = Tracer()
    kept = []
    with tracer.span("pipeline") as root:
        with tracer.span("io.write"):
            (out / "complexes").mkdir(parents=True, exist_ok=True)
            (out / "diagrams").mkdir(parents=True, exist_ok=True)
            config.to_json(out / "config.json")
        per_degree = []
        for dataset, label in zip(corpus, labels):
            with tracer.span("diffusion.operators", label):
                operators = _operators(dataset, config)
            with tracer.span("complexes.skeleton", label):
                skeleton = _skeleton(dataset, config)
            with tracer.span("complexes.raw_weights", label):
                raw = td.raw_weights(skeleton, operators)
            with tracer.span("complexes.monotone", label):
                cx = td.enforce_monotone(td.WeightedComplex(tuple(skeleton), raw))
            with tracer.span("complexes.filtration", label):
                order = td.filtration_order(cx)
            with tracer.span("homology.boundary", label):
                boundary = td.boundary_matrix(cx, order)
            with tracer.span("homology.reduce", label):
                reduction = td.reduce_matrix(boundary)
            with tracer.span("homology.extract", label):
                diagrams = {k: td.extract_diagram(reduction, cx, k) for k in (0, 1)}
            per_degree.append(diagrams[config.degree])
            with tracer.span("io.write", label):
                td.write_complex_csv(cx, out / "complexes" / f"{label}.csv")
                td.write_diagrams_csv(diagrams.values(), out / "diagrams" / f"{label}.csv")
            kept.append((raw, cx, reduction))
        with tracer.span("wasserstein.matrix"):
            matrix = td.distance_matrix(per_degree, config.metric_spec(), labels=labels)
        with tracer.span("io.write"):
            td.write_distance_csv(matrix, out / "distances.csv")
        with tracer.span("embedding.diffusion_maps"):
            embedding = td.diffusion_maps(matrix)

    problems: dict[str, list[str]] = {}
    with tracer.span("probe"):
        for dataset, label, (raw, _, _) in zip(corpus, labels, kept):
            operators = _operators(dataset, config)
            skeleton = _skeleton(dataset, config)
            edges_only = [s for s in skeleton if s.dimension <= 1]
            with tracer.span("complexes.edge_weights", label):
                td.raw_weights(edges_only, operators)
            with tracer.span("complexes.raw_weights_threaded", label):
                threaded = td.raw_weights(skeleton, operators, workers=workers)
            if not np.array_equal(threaded, raw):
                problems[label] = [f"raw_weights with {workers} workers differs from serial"]

    values = _counts(kept, per_degree, config)
    values["diffusion.operators"] = sum(len(d.samples) for d in corpus)
    values.update(_times(tracer, root, values["complexes.triangles"]))
    values["io.bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return TracedRun(matrix, embedding, root.duration, values, tracer.spans, problems)


def _times(tracer: Tracer, root: Span, triangles: float) -> dict[str, float]:
    edge_s = tracer.total("complexes.edge_weights")
    triangle_s = tracer.total("complexes.raw_weights") - edge_s
    values = {
        "diffusion.operators_s": tracer.total("diffusion.operators"),
        "complexes.skeleton_s": tracer.total("complexes.skeleton"),
        "complexes.edge_weights_s": edge_s,
        "complexes.triangle_weights_s": triangle_s,
        "complexes.triangles_per_s": triangles / triangle_s if triangle_s > 0.0 else 0.0,
        "complexes.raw_weights_threaded_s": tracer.total("complexes.raw_weights_threaded"),
        "complexes.monotone_s": tracer.total("complexes.monotone"),
        "complexes.filtration_s": tracer.total("complexes.filtration"),
        "homology.boundary_s": tracer.total("homology.boundary"),
        "homology.reduce_s": tracer.total("homology.reduce"),
        "homology.extract_s": tracer.total("homology.extract"),
        "wasserstein.matrix_s": tracer.total("wasserstein.matrix"),
        "embedding.diffusion_maps_s": tracer.total("embedding.diffusion_maps"),
        "io.write_s": tracer.total("io.write"),
    }
    # self time per layer, over the pipeline tree only (probes excluded)
    own = tracer.self_times()
    root_index = tracer.spans.index(root)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(tracer.spans, own):
        if span.parent == root_index:
            layer_self[span.name.split(".")[0]] += t
    values.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    values["pipeline.self_s"] = own[root_index]
    return values


def _counts(kept, per_degree, config: td.PipelineConfig) -> dict[str, float]:
    edges = triangles = raised = pairs_h0 = pairs_h1 = zero_length = essential = 0
    for raw, cx, reduction in kept:
        dims = np.array([s.dimension for s in cx.simplexes])
        edges += int((dims == 1).sum())
        triangles += int((dims == 2).sum())
        raised += int((cx.weights > raw).sum())
        for birth, death in reduction.pairs:
            pairs_h0 += dims[birth] == 0
            pairs_h1 += dims[birth] == 1
            zero_length += cx.weights[birth] == cx.weights[death]
        essential += sum(1 for s in reduction.essential if dims[s] <= 1)
    # what distance_matrix hands linear_sum_assignment: the points left
    # after the infinite policy, and no solve when both diagrams are empty
    sizes = [
        sum(1 for p in dg.pairs if config.infinite_policy == "cap" or not math.isinf(p.death))
        for dg in per_degree
    ]
    solves = [a + b for i, a in enumerate(sizes) for b in sizes[i + 1 :] if a + b > 0]
    return {
        "complexes.edges": edges,
        "complexes.triangles": triangles,
        "complexes.monotone_raised": raised,
        "homology.pairs_h0": int(pairs_h0),
        "homology.pairs_h1": int(pairs_h1),
        "homology.zero_length": int(zero_length),
        "homology.essential": essential,
        "wasserstein.solves": len(solves),
        "wasserstein.assignment_max": max(solves, default=0),
    }
