"""End-to-end pipeline: datasets in, distance matrix and artifacts out.

Chains the library stages (per-sample diffusion operators, alternating
weights on a simplicial complex, persistence diagrams, Wasserstein
distances) behind a single config object, writes every intermediate to
disk so later stages can be rerun from the saved files, and provides the
two simulation studies (weight profiles against shared-circle counts,
and a sweep over the number of latent circles) plus two deliberately
simpler weighting schemes used as baselines in tests.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from topodist.complexes import (
    Simplex,
    Skeleton,
    WeightedComplex,
    _facet_table,
    _monotone,
    assign_weights,
    complete_skeleton,
    grid_skeleton,
    raw_weights,
    write_complex_csv,
)
from topodist.dataset import (
    Dataset, TorusSpec, _integer, _read_json, _write_csv, generate_torus_dataset,
)
from topodist.diffusion import _affinity_stack, _centered_stack, _scale_factor
from topodist.homology import (
    PersistenceDiagram,
    persistence_diagrams,
    write_diagrams_csv,
)
from topodist.wasserstein import (
    DatasetDistanceMatrix,
    DiagramDistanceSpec,
    _labels,
    distance_matrix,
    write_distance_csv,
)

__all__ = [
    "PipelineConfig",
    "PipelineError",
    "build_weighted_complex",
    "cross_correlation_complex",
    "dimension_sweep",
    "graph_spectral_distances",
    "run_pipeline",
    "weight_profile",
    "write_weight_profile_csv",
]

_SKELETONS = ("complete", "grid")
_SCHEMES = ("alternating", "cross-correlation")


class PipelineError(RuntimeError):
    """A stage failed; the message names the dataset and the stage."""


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the end-to-end run, JSON round-trippable.

    ``degree``/``p``/``infinite_policy``/``cap_value`` configure the
    diagram metric; their defaults are those of :class:`DiagramDistanceSpec`,
    and the spec that :meth:`metric_spec` builds validates them, and
    ``skeleton`` selects the complex built over each dataset's samples.
    With ``normalize`` the pipeline divides each complex's weights, of
    either ``weight_scheme``, by the median of its monotone
    positive-dimension weights, the values the filtration sees, making
    weight scales comparable across datasets with different observation
    counts; the order within one filtration is unchanged.
    """

    kernel_epsilon_factor: float = 1.0
    skeleton: str = "complete"
    degree: int = DiagramDistanceSpec.degree
    p: float = DiagramDistanceSpec.p
    infinite_policy: str = DiagramDistanceSpec.infinite_policy
    cap_value: float | None = DiagramDistanceSpec.cap_value
    normalize: bool = False
    weight_scheme: str = "alternating"

    def __post_init__(self) -> None:
        # JSON config files can carry any type; a string "false" is truthy
        if not isinstance(self.normalize, bool):
            raise ValueError(f"normalize must be true or false, got {self.normalize!r}")
        _scale_factor(self.kernel_epsilon_factor, "kernel_epsilon_factor")
        if self.skeleton not in _SKELETONS:
            raise ValueError(f"skeleton must be one of {_SKELETONS}, got {self.skeleton!r}")
        # the spec checks the four metric fields and takes a NumPy integer degree as an int
        object.__setattr__(self, "degree", self.metric_spec().degree)
        if self.weight_scheme not in _SCHEMES:
            raise ValueError(
                f"weight_scheme must be one of {_SCHEMES}, got {self.weight_scheme!r}"
            )

    def metric_spec(self) -> DiagramDistanceSpec:
        return DiagramDistanceSpec(
            p=self.p,
            degree=self.degree,
            infinite_policy=self.infinite_policy,
            cap_value=self.cap_value,
        )

    def to_json(self, path: str | Path) -> None:
        text = json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"
        Path(path).write_text(text, encoding="utf-8")

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        raw = _read_json(path, "config file")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"config file {path} has unknown keys: {unknown}")
        return cls(**raw)


def _grid_shape(dataset: Dataset) -> tuple[int, int]:
    meta = dataset.metadata
    if "grid_rows" not in meta or "grid_cols" not in meta:
        raise ValueError(
            "grid skeleton needs 'grid_rows' and 'grid_cols' in the dataset metadata"
        )
    rows, cols = (_integer(meta[key], key) for key in ("grid_rows", "grid_cols"))
    if rows * cols != len(dataset.samples):
        raise ValueError(f"grid {rows}x{cols} does not match {len(dataset.samples)} samples")
    return rows, cols


def _skeleton(
    dataset: Dataset, config: PipelineConfig, built: dict[tuple, Skeleton]
) -> Skeleton:
    """The configured skeleton over ``dataset``'s samples, built once per
    kind and shape in ``built``, which the caller keeps for one call."""
    if config.skeleton == "grid":
        key = ("grid", *_grid_shape(dataset))
    else:
        key = ("complete", len(dataset.samples))
    if key not in built:
        build = grid_skeleton if key[0] == "grid" else complete_skeleton
        built[key] = build(*key[1:])
    return built[key]


def build_weighted_complex(
    dataset: Dataset,
    config: PipelineConfig,
) -> WeightedComplex:
    """Build the weighted complex for one dataset per the configured scheme.

    With ``config.normalize`` the pipeline divides the weights of either
    scheme by their median over positive dimensions here, after monotone
    repair; the weighting functions themselves never normalize.

    The alternating scheme weighs the centered operators that
    :func:`~topodist.diffusion._centered_stack` fills a block of samples
    at a time, so the operators are checked once, block by block, and no
    full stack of affinities or operators is held beside the centered one.
    """
    return _weighted_complex(dataset, config, _skeleton(dataset, config, {}))


def _weighted_complex(
    dataset: Dataset, config: PipelineConfig, skeleton: Skeleton
) -> WeightedComplex:
    """:func:`build_weighted_complex` over a skeleton already built."""
    if config.weight_scheme == "cross-correlation":
        cx = cross_correlation_complex(skeleton, dataset, config.kernel_epsilon_factor)
    else:
        centered = _centered_stack(dataset.samples, config.kernel_epsilon_factor)
        cx = assign_weights(skeleton, centered)
    return _median_normalized(cx) if config.normalize else cx


def _median_normalized(cx: WeightedComplex) -> WeightedComplex:
    """``cx`` with weights divided by their median over positive dimensions."""
    positive = cx.weights[cx.dims > 0]
    if not positive.size:
        raise ValueError("no positive-dimension weight to normalize by (no edge or triangle)")
    # the median is positive, as every weight here is: an inverse norm or
    # correlation, or a facet's weight copied by repair
    return WeightedComplex(cx.simplexes, cx.weights / float(np.median(positive)))


def cross_correlation_complex(
    skeleton: Sequence[Simplex], dataset: Dataset, epsilon_factor: float = 1.0
) -> WeightedComplex:
    """Baseline weights from plain affinity correlations, no diffusion.

    Each sample is summarized by its flattened affinity matrix; an edge
    weighs the inverse absolute Pearson correlation of the two summaries
    and a triangle the inverse root-sum-square over its three edges'
    correlations.  Deliberately ignores the operator normalization, so
    tests can ask whether the diffusion machinery earns its keep.
    """
    w, _ = _affinity_stack(dataset.samples, epsilon_factor)
    rho = np.corrcoef(w.reshape(len(w), -1)) if len(w) > 1 else np.ones((1, 1))
    skeleton = _facet_table(skeleton)
    # the edges (a, b), (b, c) and (a, c) of each simplex, where it has them
    ends = skeleton.vertices[:, [[0, 1], [1, 2], [0, 2]]]
    has = (ends >= 0).all(axis=2)
    r = np.where(has, rho[ends[..., 0], ends[..., 1]], 0.0)
    bad = np.argwhere(has & (~np.isfinite(r) | (r == 0.0)))
    if bad.size:
        a, b = ends[tuple(bad[0])].tolist()
        raise ValueError(f"correlation between samples {a} and {b} is degenerate")
    weights = np.zeros(len(r))
    edges, triangles = skeleton.dims == 1, skeleton.dims == 2
    weights[edges] = 1.0 / np.abs(r[edges, 0])
    weights[triangles] = 1.0 / np.sqrt((r[triangles] ** 2).sum(axis=1))
    return WeightedComplex(skeleton, _monotone(skeleton, weights))


def _labeled(
    datasets: Sequence[Dataset], labels: Sequence[str] | None
) -> tuple[list[Dataset], tuple[str, ...]]:
    """The datasets as a list, at least two, and their labels by
    :func:`~topodist.wasserstein._labels`, none holding a path separator,
    since each names a file."""
    datasets = list(datasets)
    if len(datasets) < 2:
        raise ValueError(f"need at least 2 datasets, got {len(datasets)}")
    labels = _labels(labels, len(datasets))
    for label in labels:
        if "/" in label or "\\" in label:
            raise ValueError(f"dataset label {label!r} contains a path separator")
    return datasets, labels


def run_pipeline(
    datasets: Sequence[Dataset],
    config: PipelineConfig,
    out_dir: str | Path | None = None,
    labels: Sequence[str] | None = None,
) -> tuple[DatasetDistanceMatrix, dict[str, dict[int, PersistenceDiagram]]]:
    """Run every stage on each dataset and return the distance matrix.

    Per dataset: diffusion operators, weighted complex, persistence
    diagrams in degrees 0 and 1; then one Wasserstein distance matrix in
    the configured degree.  With ``out_dir`` set, writes
    ``complexes/<label>.csv``, ``diagrams/<label>.csv``,
    ``distances.csv`` and the effective ``config.json`` so any later
    stage can be rerun from the saved files.  Deterministic: the same
    datasets and config produce byte-identical artifacts.

    Datasets of one shape (sample count, or grid) share one skeleton, built
    once per call, and with it the tables that depend on the skeleton alone:
    the filtration's tie order and the ``dim,v0,v1,v2,`` text of each
    complex-CSV row.  Each artifact is the one the per-dataset functions
    (:func:`build_weighted_complex`, :func:`~topodist.homology.persistence_diagrams`
    and the writers) give for that dataset alone.
    """
    datasets, labels = _labeled(datasets, labels)

    out = None
    if out_dir is not None:
        out = Path(out_dir)
        (out / "complexes").mkdir(parents=True, exist_ok=True)
        (out / "diagrams").mkdir(parents=True, exist_ok=True)
        config.to_json(out / "config.json")

    built: dict[tuple, Skeleton] = {}
    diagrams: dict[str, dict[int, PersistenceDiagram]] = {}
    per_degree: list[PersistenceDiagram] = []
    for dataset, label in zip(datasets, labels):
        try:
            cx = _weighted_complex(dataset, config, _skeleton(dataset, config, built))
        except ValueError as exc:
            raise PipelineError(f"dataset {label!r}, stage weights: {exc}") from exc
        try:
            pds = persistence_diagrams(cx)
        except ValueError as exc:
            raise PipelineError(f"dataset {label!r}, stage homology: {exc}") from exc
        diagrams[label] = pds
        per_degree.append(pds[config.degree])
        if out is not None:
            write_complex_csv(cx, out / "complexes" / f"{label}.csv")
            write_diagrams_csv(pds.values(), out / "diagrams" / f"{label}.csv")

    try:
        matrix = distance_matrix(per_degree, config.metric_spec(), labels=labels)
    except ValueError as exc:
        raise PipelineError(f"stage distance: {exc}") from exc
    if out is not None:
        write_distance_csv(matrix, out / "distances.csv")
    return matrix, diagrams


def graph_spectral_distances(
    datasets: Sequence[Dataset],
    config: PipelineConfig,
    labels: Sequence[str] | None = None,
) -> DatasetDistanceMatrix:
    """Baseline that skips homology: compare edge-weight spectra directly.

    Each dataset becomes the symmetric matrix of the weights of the
    configured skeleton's edges, zero between samples that share no edge;
    the distance between two datasets is the Euclidean distance between
    their sorted eigenvalue vectors.  All datasets must have the same
    number of samples for the spectra to be comparable.
    """
    datasets, labels = _labeled(datasets, labels)
    sizes = {len(d.samples) for d in datasets}
    if len(sizes) != 1:
        raise ValueError(f"spectral baseline needs equal sample counts, got {sorted(sizes)}")

    built: dict[tuple, Skeleton] = {}
    spectra = []
    for dataset, label in zip(datasets, labels):
        try:
            n = len(dataset.samples)
            cx = _weighted_complex(dataset, config, _skeleton(dataset, config, built))
            edges = cx.dims == 1
            a, b = cx.vertices[edges, 0], cx.vertices[edges, 1]
            w = np.zeros((n, n))
            w[a, b] = w[b, a] = cx.weights[edges]
            spectra.append(np.sort(np.linalg.eigvalsh(w)))
        except ValueError as exc:
            raise PipelineError(f"dataset {label!r}, stage spectrum: {exc}") from exc

    n = len(datasets)
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(spectra[i] - spectra[j]))
            entries[i, j] = entries[j, i] = d
    return DatasetDistanceMatrix(entries, labels)


def weight_profile(
    spec: TorusSpec, n_seeds: int
) -> list[tuple[str, int, float, float, int]]:
    """Group simplex weights by how much latent structure they share.

    Draws ``n_seeds`` datasets from ``spec`` (seeds ``spec.seed``,
    ``spec.seed + 1``, ...).  Every edge is bucketed by the number of
    circles its two samples share, every triangle by the three-way
    intersection size, using the raw alternating weights (no monotone
    enforcement, which would mix edge values into triangle buckets).
    Returns rows ``(simplex, common_count, mean, std, count)`` sorted by
    kind then count; buckets that never occur are omitted.
    """
    if _integer(n_seeds, "n_seeds") < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    skeleton = complete_skeleton(spec.n_samples)
    buckets: dict[tuple[int, int], list[np.ndarray]] = {}
    for offset in range(n_seeds):
        ds = generate_torus_dataset(dataclasses.replace(spec, seed=spec.seed + offset))
        member = np.zeros((len(ds.samples), spec.m), dtype=bool)
        for i, circles in enumerate(ds.metadata["index_tuples"]):
            member[i, circles] = True
        raw = raw_weights(skeleton, _centered_stack(ds.samples))
        for dim in (1, 2):
            of_dim = skeleton.dims == dim
            # circles shared by all of a simplex's samples
            common = member[skeleton.vertices[of_dim, : dim + 1]].all(axis=1).sum(axis=1)
            weights = raw[of_dim]
            for count in np.unique(common).tolist():
                buckets.setdefault((dim, count), []).append(weights[common == count])

    rows: list[tuple[str, int, float, float, int]] = []
    for dim, count in sorted(buckets):
        vals = np.concatenate(buckets[dim, count])
        kind = "edge" if dim == 1 else "triangle"
        rows.append((kind, count, float(vals.mean()), float(vals.std()), len(vals)))
    return rows


def write_weight_profile_csv(
    rows: Sequence[tuple[str, int, float, float, int]], path: str | Path
) -> None:
    header = ["simplex", "common_count", "mean_weight", "std_weight", "count"]
    _write_csv(path, header, ((k, c, repr(float(m)), repr(float(s)), n) for k, c, m, s, n in rows))


def dimension_sweep(
    m_values: Sequence[int],
    per_m: int,
    template: TorusSpec,
    out_dir: str | Path | None = None,
) -> tuple[DatasetDistanceMatrix, dict[str, int]]:
    """Distance matrix across datasets generated with different circle counts.

    For each value in ``m_values`` draws ``per_m`` torus datasets from
    ``template`` (with ``m`` swapped in and a fresh seed per dataset),
    labels them ``m<M>_r<rep>``, and runs the full pipeline with the
    degree-1 diagrams under the 2-Wasserstein metric.  Returns the
    matrix plus a label-to-M map so callers can split within/between
    groups.
    """
    m_values = [_integer(m, "m") for m in m_values]
    if len(set(m_values)) < 2:
        raise ValueError(f"need at least 2 distinct m values, got {m_values}")
    if _integer(per_m, "per_m") < 1:
        raise ValueError(f"per_m must be >= 1, got {per_m}")

    datasets: list[Dataset] = []
    labels: list[str] = []
    m_of: dict[str, int] = {}
    seed = template.seed
    for m in m_values:
        for rep in range(per_m):
            spec = dataclasses.replace(template, m=m, seed=seed)
            seed += 1
            datasets.append(generate_torus_dataset(spec))
            label = f"m{m}_r{rep}"
            labels.append(label)
            m_of[label] = m

    config = PipelineConfig(degree=1, p=2.0)
    matrix, _ = run_pipeline(datasets, config, out_dir=out_dir, labels=labels)
    return matrix, m_of
