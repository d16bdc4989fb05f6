"""Persistent homology of weighted complexes over Z2.

The sublevel filtration of a monotone weighted complex feeds a boundary
matrix in filtration order, and :func:`reduce_matrix` pairs each death
simplex with the birth it kills.  The pairing is the one a standard
left-to-right column reduction gives, but it is found in three cheaper
steps (Bauer 2021, "Ripser"; de Silva, Morozov & Vejdemo-Johansson 2011,
"Dualities in persistent (co)homology"):

- degree 0 by union-find over the edges in filtration order, with the
  elder rule;
- apparent pairs, a triangle and its youngest edge when the triangle is
  that edge's oldest cofacet, found with array operations;
- a cohomology reduction of only the edges left: those that neither merge
  components nor sit in an apparent pair.

Degrees 0 and 1 are supported (the complexes stop at triangles).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from topodist.complexes import WeightedComplex, filtration_order

__all__ = [
    "BoundaryMatrix",
    "Reduction",
    "PersistencePair",
    "PersistenceDiagram",
    "boundary_matrix",
    "reduce_matrix",
    "extract_diagram",
    "persistence_diagrams",
    "write_diagrams_csv",
    "read_diagrams_csv",
]

EssentialPolicy = Literal["infinite", "cap"]


class BoundaryMatrix:
    """Z2 boundary matrix in filtration order, one sparse column per simplex.

    ``order[j]`` is the id in the originating complex of the j-th simplex in
    the filtration, and its column lists the filtration positions of that
    simplex's facets.  Each column must be strictly increasing and name only
    rows before its own position.

    The columns are given and held flattened, as read-only copies:
    ``lengths`` (rows per column) and ``rows`` (all columns' rows,
    concatenated).  ``columns`` builds one tuple per column from them when
    first read.
    """

    def __init__(self, lengths: Sequence[int], rows: Sequence[int], order: Sequence[int]) -> None:
        lengths = np.array(lengths, dtype=np.int64).reshape(-1)
        rows = np.array(rows, dtype=np.int64).reshape(-1)
        self.lengths, self.rows, self.order = lengths, rows, tuple(order)
        n = len(lengths)
        if n != len(self.order):
            raise ValueError("columns and order must be parallel")
        if (lengths < 0).any() or lengths.sum() != len(rows):
            raise ValueError("column lengths must be nonnegative and sum to the number of rows")
        owner = np.repeat(np.arange(n), lengths)
        # a row at or below its predecessor in the same column
        unsorted = owner[1:][(owner[1:] == owner[:-1]) & (rows[1:] <= rows[:-1])]
        late = owner[rows >= owner]
        if unsorted.size and not (late.size and late[0] < unsorted[0]):
            j = int(unsorted[0])
            raise ValueError(f"column {j} is not strictly increasing: {self.columns[j]}")
        if late.size:
            raise ValueError(f"column {late[0]} references a row at or after itself")
        lengths.setflags(write=False)
        rows.setflags(write=False)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        rows, ends = self.rows.tolist(), np.cumsum(self.lengths).tolist()
        return tuple(tuple(rows[end - k : end]) for k, end in zip(self.lengths.tolist(), ends))


@dataclass(frozen=True)
class Reduction:
    """Persistence pairing of a boundary matrix, in complex ids.

    ``pairs`` holds (birth simplex id, death simplex id), ordered by the
    death simplex's filtration position; ``essential`` holds the ids of
    simplexes whose classes never die, by ascending filtration position.
    This is the order a left-to-right column reduction emits them in.
    Diagrams keep it, and the Wasserstein cost sums follow it, so the bytes
    of a distance matrix depend on it.
    """

    pairs: tuple[tuple[int, int], ...]
    essential: tuple[int, ...]


@dataclass(frozen=True)
class PersistencePair:
    degree: int
    birth: float
    death: float
    birth_simplex: int
    death_simplex: int | None = None

    def __post_init__(self) -> None:
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree}")
        if not math.isfinite(self.birth):
            raise ValueError(f"birth must be finite, got {self.birth}")
        if not self.birth <= self.death:
            raise ValueError(f"birth {self.birth} exceeds death {self.death}")

    @property
    def is_essential(self) -> bool:
        return self.death_simplex is None


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs of one homology degree."""

    degree: int
    pairs: tuple[PersistencePair, ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        for p in pairs:
            if p.degree != self.degree:
                raise ValueError(
                    f"diagram of degree {self.degree} contains a degree-{p.degree} pair"
                )
        object.__setattr__(self, "pairs", pairs)

    def points(self) -> list[tuple[float, float]]:
        """(birth, death) tuples, sorted; death may be ``inf``."""
        return sorted((p.birth, p.death) for p in self.pairs)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def boundary_matrix(cx: WeightedComplex, order: Sequence[int]) -> BoundaryMatrix:
    """Combined Z2 boundary matrix of all simplexes in filtration order,
    filled from the complex's ``facets`` table without a tuple per column."""
    order = tuple(map(int, order))
    ids = np.array(order, dtype=np.intp)
    n = len(cx.dims)
    if len(ids) != n or not np.array_equal(np.sort(ids), np.arange(n)):
        raise ValueError("order must be a permutation of all simplex ids")
    position = np.empty(n, dtype=np.intp)
    position[ids] = np.arange(n)
    facets = cx.facets[ids]
    # unused slots stay -1 and so sort to the front of each row
    rows = np.sort(np.where(facets >= 0, position[facets], -1), axis=1)
    used = rows >= 0
    return BoundaryMatrix(used.sum(axis=1), rows[used], order)


def _check_simplicial(m: BoundaryMatrix, starts: np.ndarray) -> None:
    """Raise unless every column is a vertex, an edge over two vertex
    columns, or a triangle over the three edge columns of its boundary."""
    lengths, rows = m.lengths, m.rows
    owner = np.repeat(np.arange(len(lengths)), lengths)
    # the row count each column's rows must have; -1 for a bad column
    facet_len = np.select([lengths == 0, lengths == 2, lengths == 3], [0, 0, 2], -1)
    row_ok = (rows >= 0) & (lengths[np.maximum(rows, 0)] == facet_len[owner])
    bad = np.concatenate([np.flatnonzero(facet_len < 0)[:1], owner[~row_ok][:1]])
    if not bad.size:
        # a triangle's three edges bound it: each corner is on two of them
        triangles = np.flatnonzero(lengths == 3)
        edges = rows[starts[triangles, None] + [0, 1, 2]]
        corners = np.sort(rows[starts[edges, None] + [0, 1]].reshape(-1, 6), axis=1)
        bad = triangles[(corners[:, ::2] != corners[:, 1::2]).any(axis=1)][:1]
    if bad.size:
        j = int(bad.min())
        raise ValueError(
            f"column {j} {m.columns[j]} is not a vertex, an edge over two vertices "
            "or a triangle over the three edges of its boundary"
        )


def reduce_matrix(m: BoundaryMatrix) -> Reduction:
    """Persistence pairs of a filtration of dimension at most 2.

    The input contract: every column has 0, 2 or 3 rows (a vertex, an edge
    or a triangle), an edge's rows are vertex columns, and a triangle's rows
    are the edge columns of its boundary.  :func:`boundary_matrix` always
    meets it.  Otherwise a ``ValueError`` names the first column with a bad
    row count or facet, or failing that the first triangle whose edges do
    not close up.

    The result equals a standard left-to-right column reduction's,
    pair order included, and is found in three steps:

    - Degree 0: union-find over the edges in filtration order.  A vertex
      tree's root is its oldest vertex; an edge joining two trees kills the
      younger root (the elder rule), and an edge within one tree is a
      degree-1 birth.
    - Apparent pairs: a triangle pairs with its youngest edge when it is
      that edge's oldest cofacet.
    - Cohomology: the coboundaries (Python-int bitsets over triangles) of
      the remaining degree-1 births are reduced from the youngest edge to
      the oldest, with the oldest cofacet as pivot.  An apparent edge owns
      its triangle as pivot, and its coboundary is built only when a column
      has to add it.  An edge whose coboundary reduces to zero is essential.

    Every simplex left unpaired is essential, triangles included.
    """
    lengths, rows = m.lengths, m.rows
    starts = np.cumsum(lengths) - lengths
    _check_simplicial(m, starts)

    # degree 0: union-find, each root the oldest vertex of its tree
    parent = {v: v for v in np.flatnonzero(lengths == 0).tolist()}
    births: list[int] = []
    deaths: list[int] = []
    cycles: list[int] = []
    edges = np.flatnonzero(lengths == 2)
    for e, (a, b) in zip(edges.tolist(), rows[starts[edges, None] + [0, 1]].tolist()):
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a == b:
            cycles.append(e)
        else:
            elder, younger = min(a, b), max(a, b)
            parent[younger] = elder
            births.append(younger)
            deaths.append(e)

    # cofacets of each edge, oldest first, as triangle ranks
    triangles = np.flatnonzero(lengths == 3)
    facets = rows[starts[triangles, None] + [0, 1, 2]]
    by_edge = np.argsort(facets, axis=None, kind="stable")
    first = np.searchsorted(facets.ravel()[by_edge], np.arange(len(lengths) + 1))
    cofacets = (by_edge // 3).astype(np.int32)
    del by_edge  # the temporaries go before the reduction, to keep peak memory low

    # apparent pairs: the triangle is the oldest cofacet of its youngest edge
    youngest = facets[:, 2]
    apparent = np.flatnonzero(cofacets[first[youngest]] == np.arange(len(triangles)))
    apparent_edge = dict(zip(apparent.tolist(), youngest[apparent].tolist()))
    births += youngest[apparent].tolist()
    deaths += triangles[apparent].tolist()
    left = np.setdiff1d(cycles, youngest[apparent])
    del facets, youngest, apparent

    def coboundary(e: int) -> int:
        bits = np.zeros(len(triangles), dtype=bool)
        bits[cofacets[first[e] : first[e + 1]]] = True
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    # cohomology of the degree-1 births left, youngest edge first
    pivots: dict[int, int] = {}  # oldest cofacet -> reduced coboundary owning it
    for e in left[::-1].tolist():
        col = coboundary(e)
        while col:
            low = (col & -col).bit_length() - 1
            owner = pivots.get(low)
            if owner is None and low in apparent_edge:
                owner = pivots[low] = coboundary(apparent_edge[low])
            if owner is None:
                pivots[low] = col
                births.append(e)
                deaths.append(int(triangles[low]))
                break
            col ^= owner

    by_death = np.argsort(deaths)
    unpaired = np.ones(len(lengths), dtype=bool)
    unpaired[births] = unpaired[deaths] = False
    ids = m.order.__getitem__  # the order's own ints, not fresh copies
    return Reduction(
        pairs=tuple((ids(births[i]), ids(deaths[i])) for i in by_death.tolist()),
        essential=tuple(itertools.compress(m.order, unpaired.tolist())),
    )


def extract_diagram(
    reduction: Reduction,
    cx: WeightedComplex,
    degree: int,
    essential_policy: EssentialPolicy = "infinite",
) -> PersistenceDiagram:
    """Persistence diagram of one degree from a reduction.

    Pairs with equal birth and death weight are dropped.  Essential classes
    get death ``inf``, or the complex's maximum weight under the ``cap``
    policy (kept even when that equals the birth, so the class stays
    visible).
    """
    if degree not in (0, 1):
        raise ValueError(f"degree must be 0 or 1, got {degree}")
    if essential_policy not in ("infinite", "cap"):
        raise ValueError(f"unknown essential policy {essential_policy!r}")

    weights, dims = cx.weights.tolist(), cx.dims.tolist()
    out = [
        PersistencePair(degree, weights[b], weights[d], b, d)
        for b, d in reduction.pairs
        if dims[b] == degree and weights[b] != weights[d]
    ]
    death = math.inf if essential_policy == "infinite" else cx.max_weight
    out += [
        PersistencePair(degree, weights[s], death, s, None)
        for s in reduction.essential
        if dims[s] == degree
    ]
    return PersistenceDiagram(degree, tuple(out))


def persistence_diagrams(
    cx: WeightedComplex,
    degrees: Iterable[int] = (0, 1),
    essential_policy: EssentialPolicy = "infinite",
) -> dict[int, PersistenceDiagram]:
    """Filtration order, boundary matrix, reduction, and diagram extraction."""
    order = filtration_order(cx)
    reduction = reduce_matrix(boundary_matrix(cx, order))
    return {k: extract_diagram(reduction, cx, k, essential_policy) for k in degrees}


def write_diagrams_csv(
    diagrams: Iterable[PersistenceDiagram], path: str | Path
) -> None:
    """Write ``degree,birth,death`` rows; essential deaths become ``inf``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["degree", "birth", "death"])
        for dg in diagrams:
            for birth, death in dg.points():
                death_text = "inf" if math.isinf(death) else repr(death)
                writer.writerow([dg.degree, repr(birth), death_text])


def read_diagrams_csv(
    path: str | Path, degrees: Iterable[int] = (0, 1)
) -> dict[int, PersistenceDiagram]:
    """Read diagrams written by :func:`write_diagrams_csv`, keyed by degree.

    Degrees listed in ``degrees`` are always present in the result, as empty
    diagrams when the file has no such rows.  Simplex ids are not stored on
    disk; loaded pairs carry placeholder ids.
    """
    by_degree: dict[int, list[PersistencePair]] = {k: [] for k in degrees}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["degree", "birth", "death"]:
            raise ValueError(f"unexpected diagram CSV header: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"malformed diagram CSV row: {row}")
            try:
                degree = int(row[0])
                birth = float(row[1])
                death = math.inf if row[2] == "inf" else float(row[2])
            except ValueError:
                raise ValueError(f"malformed diagram CSV row: {row}") from None
            try:
                pair = PersistencePair(
                    degree, birth, death, birth_simplex=-1,
                    death_simplex=None if math.isinf(death) else -1,
                )
            except ValueError as exc:
                raise ValueError(f"malformed diagram CSV row: {row}: {exc}") from None
            by_degree.setdefault(degree, []).append(pair)
    return {k: PersistenceDiagram(k, tuple(v)) for k, v in by_degree.items()}
