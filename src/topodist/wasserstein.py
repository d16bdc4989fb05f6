"""Wasserstein distances between persistence diagrams.

Each point of one diagram may match a point of the other diagram or slide to
its own projection on the diagonal x = y; the distance is the p-th root of
the minimal total p-th-power movement.  The matching is solved exactly as one
square assignment of size max(n1, n2), filled from the points as (n, 2)
arrays.  The smaller diagram goes on the rows and is padded with dummy rows:
a real cell costs ``min(d(a, b)^p, gap(a)^p + gap(b)^p)`` and a dummy row
costs ``gap(b)^p`` against each column b.  ``d(a, b)^p`` is taken as
``(dx^2 + dy^2)^(p/2)``, which needs no ``hypot``.

The optimum equals that of the (n1 + n2) formulation of Kerber, Morozov &
Nigmetov ("Geometry helps to compare persistence diagrams"), where every
point owns one diagonal slot.  Any partial matching becomes a bijection that
costs no more: unmatched points are paired arbitrarily, each such pair
costing at most its gap sum, and the columns left over take the dummy rows.
Any bijection reads back as a partial matching of the same cost: a pair whose
``min`` took the gap sum sends both points to the diagonal.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence, get_args

import numpy as np
from scipy.optimize import linear_sum_assignment

from topodist.dataset import _readonly, _real
from topodist.homology import PersistenceDiagram, _degree

__all__ = [
    "DiagramDistanceSpec",
    "DatasetDistanceMatrix",
    "diagonal_gap",
    "wasserstein",
    "distance_matrix",
    "write_distance_csv",
    "read_distance_csv",
]

InfinitePolicy = Literal["drop", "cap"]


@dataclass(frozen=True)
class DiagramDistanceSpec:
    """How to compare diagrams: order p, homology degree, handling of ``inf``.

    ``infinite_policy`` is either ``drop`` (remove essential classes before
    matching) or ``cap`` (replace infinite deaths with ``cap_value``).
    Defaults follow the experimental setup: degree 1, p = 2, drop.
    """

    p: float = 2.0
    degree: int = 1
    infinite_policy: InfinitePolicy = "drop"
    cap_value: float | None = None

    def __post_init__(self) -> None:
        if not 1.0 <= _real(self.p, "p") < math.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        object.__setattr__(self, "degree", _degree(self.degree))
        if self.infinite_policy not in get_args(InfinitePolicy):
            raise ValueError(f"unknown infinite policy {self.infinite_policy!r}")
        if self.cap_value is not None:
            _real(self.cap_value, "cap_value")
        if self.infinite_policy == "cap":
            if self.cap_value is None or not math.isfinite(self.cap_value):
                raise ValueError("cap policy requires a finite cap_value")


@dataclass(frozen=True)
class DatasetDistanceMatrix:
    """Symmetric nonnegative distance matrix with a zero diagonal."""

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        m = _readonly(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"distance matrix must be square, got {m.shape}")
        object.__setattr__(self, "labels", _labels(self.labels, m.shape[0]))
        # before symmetry: nan != nan, so a nan would read as an asymmetry
        if (m < 0.0).any() or not np.isfinite(m).all():
            raise ValueError("distances must be finite and nonnegative")
        if not np.array_equal(m, m.T):
            raise ValueError("distance matrix must be exactly symmetric")
        if not np.array_equal(np.diag(m), np.zeros(m.shape[0])):
            raise ValueError("distance matrix diagonal must be exactly zero")
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def diagonal_gap(point: tuple[float, float]) -> float:
    """Euclidean distance from a finite (birth, death) point to the diagonal."""
    b, d = point
    if math.isinf(d):
        raise ValueError("infinite death; resolve it with an infinite policy first")
    if not b <= d:
        raise ValueError(f"birth {b} exceeds death {d}")
    return _gap(b, d)


def _gap(birth, death):
    """The diagonal-gap formula, unchecked; floats and arrays alike."""
    return (death - birth) / math.sqrt(2.0)


def _resolved_points(
    diagram: PersistenceDiagram, spec: DiagramDistanceSpec
) -> np.ndarray:
    """(n, 2) finite (birth, death) rows in the diagram's order, after the infinite
    policy: the one place an essential class (death ``inf``) is dropped or
    capped."""
    if diagram.degree != spec.degree:
        raise ValueError(
            f"diagram degree {diagram.degree} does not match spec degree {spec.degree}"
        )
    pts = np.array([(p.birth, p.death) for p in diagram.pairs], dtype=np.float64)
    pts = pts.reshape(-1, 2)
    infinite = np.isinf(pts[:, 1])
    if spec.infinite_policy == "drop":
        return pts[~infinite]
    births = pts[infinite, 0]
    if (births > spec.cap_value).any():
        raise ValueError(
            f"cap_value {spec.cap_value} is below a birth {births.max()}; cannot cap"
        )
    pts[infinite, 1] = spec.cap_value
    return pts


def wasserstein(
    pd1: PersistenceDiagram, pd2: PersistenceDiagram, spec: DiagramDistanceSpec
) -> float:
    """Exact p-Wasserstein distance between two diagrams of ``spec.degree``.

    The smaller diagram, padded with dummy rows, is matched to the larger in
    one max(n1, n2) square assignment: a real cell costs
    ``min(d(a, b)^p, gap(a)^p + gap(b)^p)`` and a dummy row ``gap(b)^p``.
    A partial matching becomes a bijection of no greater cost by pairing its
    unmatched points, and a bijection reads back as a partial matching of the
    same cost (a cell that took the gap sum sends both points to the
    diagonal), so the two optima are equal.

    Stability holds for 1 <= p <= 2: for monotone weights ``f`` and ``g`` on
    one complex, the distance between their diagrams of one degree is at
    most ``(sum |f - g|^p)^(1/p)``, under ``drop`` or under ``cap`` at a
    value at or above both maximum weights.  Skraba & Turner
    (arXiv:2006.16824) prove it for the l_p ground cost, under which a
    point lies ``2^(1/p - 1) (d - b)`` from the diagonal; for p <= 2 the
    Euclidean distance and the ``(d - b) / sqrt(2)`` gap used here are at
    most the l_p ones, and at p = 2 they are equal.
    """
    return _distance(_resolved_points(pd1, spec), _resolved_points(pd2, spec), spec.p)


def _distance(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """p-Wasserstein distance between (n, 2) arrays of finite points."""
    if len(a) > len(b):
        a, b = b, a
    n1, n2 = len(a), len(b)
    if n2 == 0:
        return 0.0
    gap_a = _gap(a[:, 0], a[:, 1]) ** p
    gap_b = _gap(b[:, 0], b[:, 1]) ** p
    dx = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    cost = np.empty((n2, n2))
    np.minimum((dx * dx + dy * dy) ** (p / 2), np.add.outer(gap_a, gap_b), out=cost[:n1])
    cost[n1:] = gap_b
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) ** (1.0 / p)


def distance_matrix(
    diagrams: Sequence[PersistenceDiagram],
    spec: DiagramDistanceSpec,
    labels: Sequence[str] | None = None,
) -> DatasetDistanceMatrix:
    """All pairwise Wasserstein distances; each unordered pair solved once."""
    n = len(diagrams)
    labels = _labels(labels, n)
    points = [_resolved_points(dg, spec) for dg in diagrams]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = _distance(points[i], points[j], spec.p)
    return DatasetDistanceMatrix(out, labels)


def _labels(labels: Sequence[str] | None, n: int) -> tuple[str, ...]:
    """The labels of ``n`` datasets: ``dataset_0``, ``dataset_1``, ... given
    none, else the given ones as strings, exactly ``n`` of them and each used
    once.  The one label rule of every labelled result; an error names the
    first label that comes again."""
    if labels is None:
        return tuple(f"dataset_{i}" for i in range(n))
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise ValueError(f"need {n} labels, got {len(labels)}")
    if len(set(labels)) < n:
        again = next(x for i, x in enumerate(labels) if x in labels[:i])
        raise ValueError(f"dataset labels must be unique; {again!r} is used more than once")
    return labels


def write_distance_csv(m: DatasetDistanceMatrix, path: str | Path) -> None:
    """CSV with labels as first row and first column, 12 significant digits."""
    _write_table(path, ["", *m.labels], m.labels, m.entries)


def read_distance_csv(path: str | Path) -> DatasetDistanceMatrix:
    """Read a matrix written by :func:`write_distance_csv`."""
    header, labels, entries = _read_table(path, "distance", corner="")
    if len(labels) != len(header) - 1:
        raise ValueError(f"expected {len(header) - 1} data rows, found {len(labels)}")
    for row, column in zip(labels, header[1:]):
        if row != column:
            raise ValueError(f"row label {row!r} does not match column label {column!r}")
    return DatasetDistanceMatrix(entries, labels)


def _write_table(
    path: str | Path, header: Sequence[str], labels: Sequence[str], rows: np.ndarray
) -> None:
    """The table format of distances and embeddings: a header row, then per
    label a row of the label and its values to 12 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for label, row in zip(labels, rows):
            writer.writerow([label, *(format(v, ".12g") for v in row)])


def _read_table(
    path: str | Path, kind: str, corner: str
) -> tuple[list[str], tuple[str, ...], np.ndarray]:
    """Header, row labels and values of a :func:`_write_table` file whose
    header starts with ``corner``.  Every row holds one finite value per
    header column after the first; an error names the ``kind`` CSV row
    that does not."""
    with open(path, newline="") as fh:
        header, *rows = [r for r in csv.reader(fh) if r] or [[]]
    if header[:1] != [corner]:
        raise ValueError(f"{kind} CSV must start with a header whose corner is {corner!r}: {path}")
    width = len(header) - 1
    values = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width + 1:
            raise ValueError(f"{kind} CSV row {row[0]!r} has {len(row) - 1} values, not {width}")
        try:
            values[i] = [float(v) for v in row[1:]]
        except ValueError:
            raise ValueError(f"malformed {kind} CSV row: {row}") from None
        if not np.isfinite(values[i]).all():
            raise ValueError(f"malformed {kind} CSV row: {row}: values must be finite")
    return header, tuple(row[0] for row in rows), values
