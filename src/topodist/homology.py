"""Persistent homology of weighted complexes over Z2.

The sublevel filtration of a monotone weighted complex is paired, each
death simplex with the birth it kills: by :func:`persistence_diagrams`
straight from the complex's tables, or by :func:`reduce_matrix` from a
boundary matrix in filtration order.  Both run one pairing on arrays of
filtration positions.  It is the one a standard left-to-right column
reduction gives, but it is found in three cheaper steps (Bauer 2021,
"Ripser"; de Silva, Morozov & Vejdemo-Johansson 2011, "Dualities in
persistent (co)homology"):

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
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from topodist.complexes import WeightedComplex, _cofacet_index, _filtration_order

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
    rows from 0 up to, not including, its own position.

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
        faults = (
            ("is not strictly increasing", unsorted),
            ("references a negative row", owner[rows < 0]),
            ("references a row at or after itself", owner[rows >= owner]),
        )
        # the first offending column is named, with the first check it breaks
        found = [(int(cols[0]), i) for i, (_, cols) in enumerate(faults) if cols.size]
        if found:
            j, i = min(found)
            raise ValueError(f"column {j} {faults[i][0]}: {self.columns[j]}")
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
    filled from the complex's ``facets`` table without a tuple per column.

    ``order`` holds Python or NumPy integers; a bool or a float is
    rejected, not truncated."""
    order = tuple(order)
    # operator.index takes Python and NumPy integers; a bool is not an id
    bad = {t for t in set(map(type, order)) if issubclass(t, bool) or not hasattr(t, "__index__")}
    if bad:
        first = next(x for x in order if type(x) in bad)
        raise ValueError(f"order must hold integer simplex ids, got {first!r}")
    order = tuple(map(operator.index, order))
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
    row_ok = lengths[rows] == facet_len[owner]
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


def _pairing(
    n: int,
    edges: np.ndarray,
    ends: np.ndarray,
    triangles: np.ndarray,
    youngest: np.ndarray,
    index: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The persistence pairing of a filtration of ``n`` simplexes of
    dimension at most 2, in filtration positions.

    ``edges`` and ``triangles`` are the positions of the edges and of the
    triangles, ascending; ``ends[i]`` holds the positions of the two
    vertices of edge ``i``, and ``youngest[t]`` the position of the
    youngest edge of triangle ``t``, its rank among the triangles.  The
    cofacet index ``(offsets, ranks, key)`` lists the ranks of the
    triangles on the edge at position ``e``, in any order, as
    ``ranks[offsets[key[e]] : offsets[key[e] + 1]]``.

    Returns the births and the deaths, by ascending death, and the
    unpaired positions, ascending; :func:`reduce_matrix` says how.
    """
    offsets, ranks, key = index
    # degree 0: union-find, each root the oldest vertex of its tree
    parent = {v: v for v in np.unique(ends).tolist()}
    births: list[int] = []
    deaths: list[int] = []
    cycles: list[int] = []
    for e, (a, b) in zip(edges.tolist(), ends.tolist()):
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

    # apparent pairs: the triangle is the oldest cofacet of its youngest edge
    oldest = np.full(len(offsets) - 1, -1)
    cofaced = np.flatnonzero(np.diff(offsets))
    if cofaced.size:
        oldest[cofaced] = np.minimum.reduceat(ranks, offsets[cofaced])
    apparent = np.flatnonzero(oldest[key[youngest]] == np.arange(len(triangles)))
    apparent_edge = dict(zip(apparent.tolist(), youngest[apparent].tolist()))
    births += youngest[apparent].tolist()
    deaths += triangles[apparent].tolist()
    left = np.setdiff1d(cycles, youngest[apparent])

    def coboundary(e: int) -> int:
        bits = np.zeros(len(triangles), dtype=bool)
        bits[ranks[offsets[key[e]] : offsets[key[e] + 1]]] = True
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

    born, died = np.array(births, dtype=np.intp), np.array(deaths, dtype=np.intp)
    by_death = np.argsort(died)
    unpaired = np.ones(n, dtype=bool)
    unpaired[born] = unpaired[died] = False
    return born[by_death], died[by_death], np.flatnonzero(unpaired)


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

    The steps run in one private pairing core on arrays of filtration
    positions, which :func:`persistence_diagrams` feeds from a complex's
    tables and this function from the matrix's rows.  Here the cofacet
    index, each edge's triangles, comes from one sort of the triangle
    columns' rows; the oldest cofacets and the apparent pairs are array
    operations, and only union-find and the cohomology columns loop in
    Python.
    """
    lengths, rows = m.lengths, m.rows
    starts = np.cumsum(lengths) - lengths
    _check_simplicial(m, starts)
    n = len(lengths)
    edges, triangles = np.flatnonzero(lengths == 2), np.flatnonzero(lengths == 3)
    facets = rows[starts[triangles, None] + [0, 1, 2]]
    offsets, ranks = _cofacet_index(facets, n)
    births, deaths, essential = _pairing(
        n, edges, rows[starts[edges, None] + [0, 1]], triangles, facets[:, 2],
        (offsets, ranks, np.arange(n)),
    )
    ids = m.order.__getitem__  # the order's own ints, not fresh copies
    return Reduction(
        pairs=tuple(zip(map(ids, births.tolist()), map(ids, deaths.tolist()))),
        essential=tuple(map(ids, essential.tolist())),
    )


def _diagram(
    cx: WeightedComplex,
    degree: int,
    births: np.ndarray,
    deaths: np.ndarray,
    essential: np.ndarray,
    essential_policy: EssentialPolicy,
) -> PersistenceDiagram:
    """The diagram of one degree from the pairs ``births[i], deaths[i]`` and
    the ``essential`` simplexes, as complex ids; :func:`extract_diagram`
    says how.  Only the pairs and classes of ``degree`` become objects."""
    if degree not in (0, 1):
        raise ValueError(f"degree must be 0 or 1, got {degree}")
    if essential_policy not in ("infinite", "cap"):
        raise ValueError(f"unknown essential policy {essential_policy!r}")
    weights, dims = cx.weights, cx.dims
    keep = (dims[births] == degree) & (weights[births] != weights[deaths])
    births, deaths = births[keep], deaths[keep]
    essential = essential[dims[essential] == degree]
    death = math.inf if essential_policy == "infinite" else cx.max_weight
    finite = map(
        PersistencePair, repeat(degree), weights[births].tolist(), weights[deaths].tolist(),
        births.tolist(), deaths.tolist(),
    )
    classes = map(
        PersistencePair, repeat(degree), weights[essential].tolist(), repeat(death),
        essential.tolist(),
    )
    return PersistenceDiagram(degree, (*finite, *classes))


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
    pairs = np.array(reduction.pairs, dtype=np.intp).reshape(-1, 2)
    essential = np.array(reduction.essential, dtype=np.intp)
    return _diagram(cx, degree, pairs[:, 0], pairs[:, 1], essential, essential_policy)


def persistence_diagrams(
    cx: WeightedComplex,
    degrees: Iterable[int] = (0, 1),
    essential_policy: EssentialPolicy = "infinite",
) -> dict[int, PersistenceDiagram]:
    """Diagrams of ``cx`` in each of ``degrees``.

    The result equals composing :func:`filtration_order`,
    :func:`boundary_matrix`, :func:`reduce_matrix` and
    :func:`extract_diagram`, pair for pair, but it runs on arrays from
    filtration to diagram: the filtration order, the edges' vertices and
    the triangles' youngest edges are read from the complex's tables as
    filtration positions, the oldest cofacets and apparent pairs are array
    operations, and births, deaths and essential classes stay arrays until
    they are filtered by degree.  No boundary matrix is built; a complex
    is closed, so none needs checking.  Coboundaries come from the
    skeleton's cofacet index, which is built on first use and shared by
    every complex over that skeleton.  Only union-find over the edges, the
    cohomology columns and the pairs of the diagrams are Python objects.
    """
    order = _filtration_order(cx)
    n = len(order)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    dims = cx.dims[order]
    edges, triangles = np.flatnonzero(dims == 1), np.flatnonzero(dims == 2)
    # facets, not vertex ids: an id is a row only in a canonical skeleton
    ends = position[cx.facets[order[edges], :2]]
    # column by column: a max along rows of three is many times slower
    a, b, c = position[cx.facets[order[triangles]]].T
    youngest = np.maximum(np.maximum(a, b), c)
    rank = np.empty(n, dtype=np.intp)
    rank[order[triangles]] = np.arange(len(triangles))
    offsets, cofacets = cx.simplexes._cofacets
    births, deaths, essential = _pairing(
        n, edges, ends, triangles, youngest, (offsets, rank[cofacets], order)
    )
    births, deaths, essential = order[births], order[deaths], order[essential]
    return {k: _diagram(cx, k, births, deaths, essential, essential_policy) for k in degrees}


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
