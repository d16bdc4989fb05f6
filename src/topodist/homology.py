"""Persistent homology of weighted complexes over Z2.

:func:`persistence_diagrams` is three stages, each public: the boundary
of a filtration as arrays of filtration positions
(:func:`boundary_matrix`), its persistence pairing
(:func:`reduce_matrix`) and one diagram per degree
(:func:`extract_diagram`).  The pairing is the one a standard
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

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from topodist.complexes import WeightedComplex, filtration_order
from topodist.dataset import _FLOAT, _INTEGER, _integer, _integers, _matching, _read_csv, _write_csv

__all__ = [
    "PersistencePair",
    "PersistenceDiagram",
    "boundary_matrix",
    "reduce_matrix",
    "extract_diagram",
    "persistence_diagrams",
    "write_diagrams_csv",
    "read_diagrams_csv",
]

_DEGREES = (0, 1)  # the complexes stop at triangles
_DIAGRAM_HEADER = ["degree", "birth", "death"]
_DIAGRAM_ROW = f"{_INTEGER},{_FLOAT},{_FLOAT}"


def _degree(degree: int) -> int:
    """``degree`` as a Python int by :func:`~topodist.dataset._integer`,
    checked to be one of the supported homology degrees."""
    degree = _integer(degree, "degree")
    if degree not in _DEGREES:
        raise ValueError(f"degree must be 0 or 1, got {degree}")
    return degree


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """The Z2 boundary of a filtration of dimension at most 2, as arrays
    of filtration positions.

    ``order[j]`` is the complex id of the j-th simplex in the filtration.
    ``edges`` and ``triangles`` are the positions of the edges and of the
    triangles, ascending; ``ends[i]`` holds the positions of the two
    vertices of edge ``i``, and ``facets[t]`` those of the three edges of
    triangle ``t``.  The skeleton's cofacet index lists the triangles on
    the simplex with id ``s`` as ``ranks[offsets[s] : offsets[s + 1]]``,
    each by its rank among the triangles, in any order.
    """

    order: np.ndarray
    edges: np.ndarray
    ends: np.ndarray
    triangles: np.ndarray
    facets: np.ndarray
    offsets: np.ndarray
    ranks: np.ndarray


@dataclass(frozen=True, eq=False)
class Reduction:
    """Persistence pairing of a boundary matrix, in complex ids.

    ``pairs`` holds rows (birth simplex id, death simplex id), ordered by
    the death simplex's filtration position; ``essential`` holds the ids of
    simplexes whose classes never die, by ascending filtration position.
    This is the order a left-to-right column reduction emits them in; a
    diagram does not keep it, but stores its pairs in its own order.
    """

    pairs: np.ndarray
    essential: np.ndarray


@dataclass(frozen=True)
class PersistencePair:
    degree: int
    birth: float
    death: float
    birth_simplex: int
    death_simplex: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _degree(self.degree))
        if not math.isfinite(self.birth):
            raise ValueError(f"birth must be finite, got {self.birth}")
        if not self.birth <= self.death:
            raise ValueError(f"birth {self.birth} exceeds death {self.death}")

    @property
    def is_essential(self) -> bool:
        return self.death_simplex is None


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs of one homology degree, 0 or 1.

    The pairs are stored in one total order, by birth, death, birth and
    death simplex id, then the signs of birth and death, so that ``-0.0``
    and ``0.0`` have their place: diagrams equal as multisets are equal,
    and a diagram written by :func:`write_diagrams_csv` and read back holds
    its points in the same order, so it gives the same distances.
    """

    degree: int
    pairs: tuple[PersistencePair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _degree(self.degree))
        pairs = tuple(sorted(self.pairs, key=_pair_key))
        for p in pairs:
            if p.degree != self.degree:
                raise ValueError(
                    f"diagram of degree {self.degree} contains a degree-{p.degree} pair"
                )
        object.__setattr__(self, "pairs", pairs)

    def points(self) -> list[tuple[float, float]]:
        """(birth, death) tuples in the stored order; death may be ``inf``."""
        return [(p.birth, p.death) for p in self.pairs]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def _pair_key(p: PersistencePair) -> tuple:
    death_simplex = math.inf if p.death_simplex is None else p.death_simplex
    signs = math.copysign(1.0, p.birth), math.copysign(1.0, p.death)
    return p.birth, p.death, p.birth_simplex, death_simplex, *signs


def boundary_matrix(cx: WeightedComplex, order: Sequence[int]) -> BoundaryMatrix:
    """The boundary of ``cx`` in the filtration ``order``, a permutation of
    its simplex ids that puts every face before its cofaces.

    ``order`` is an integer array or a sequence of Python or NumPy
    integers; a bool, float or string is rejected, not truncated."""
    ids = _integers(order, "simplex id")
    n = len(cx.dims)
    if len(ids) != n or not np.array_equal(np.sort(ids), np.arange(n)):
        raise ValueError("order must be a permutation of all simplex ids")
    m = _boundary(cx, ids)
    if (m.ends >= m.edges[:, None]).any() or (m.facets >= m.triangles[:, None]).any():
        raise ValueError("order must put every face before its cofaces")
    return m


def _boundary(cx: WeightedComplex, order: np.ndarray) -> BoundaryMatrix:
    """:func:`boundary_matrix` of a valid filtration ``order`` array,
    read from the complex's tables and its skeleton's cofacet index."""
    n = len(order)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    dims = cx.dims[order]
    edges, triangles = np.flatnonzero(dims == 1), np.flatnonzero(dims == 2)
    rank = np.empty(n, dtype=np.intp)
    rank[order[triangles]] = np.arange(len(triangles))
    offsets, cofacets = cx.simplexes._cofacets
    # facets, not vertex ids: an id is a row only in a canonical skeleton
    return BoundaryMatrix(
        order, edges, position[cx.facets[order[edges], :2]],
        triangles, position[cx.facets[order[triangles]]], offsets, rank[cofacets],
    )


def reduce_matrix(m: BoundaryMatrix) -> Reduction:
    """Persistence pairs of a filtration of dimension at most 2.

    The result equals a standard left-to-right column reduction's,
    pair order included, and is found in three steps:

    - Degree 0: union-find over the edges in filtration order.  A vertex
      tree's root is its oldest vertex; an edge joining two trees kills the
      younger root (the elder rule), and an edge within one tree is a
      degree-1 birth.
    - Apparent pairs: a triangle pairs with its youngest edge when it is
      that edge's oldest cofacet.  The oldest cofacets are one
      ``np.minimum.reduceat`` over the cofacet index.
    - Cohomology: the coboundaries (Python-int bitsets over triangles, read
      from the cofacet index) of the remaining degree-1 births are reduced
      from the youngest edge to the oldest, with the oldest cofacet as
      pivot.  An apparent edge owns its triangle as pivot, and its
      coboundary is built only when a column has to add it.  An edge whose
      coboundary reduces to zero is essential.

    Every simplex left unpaired is essential, triangles included.  Only
    union-find and the cohomology columns loop in Python.
    """
    order, triangles, offsets, ranks = m.order, m.triangles, m.offsets, m.ranks
    # degree 0: union-find, each root the oldest vertex of its tree
    parent = {v: v for v in np.unique(m.ends).tolist()}
    births: list[int] = []
    deaths: list[int] = []
    cycles: list[int] = []
    for e, (a, b) in zip(m.edges.tolist(), m.ends.tolist()):
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
    # (column by column: a max along rows of three is many times slower)
    a, b, c = m.facets.T
    youngest = np.maximum(np.maximum(a, b), c)
    oldest = np.full(len(offsets) - 1, -1)
    cofaced = np.flatnonzero(np.diff(offsets))
    if cofaced.size:
        oldest[cofaced] = np.minimum.reduceat(ranks, offsets[cofaced])
    apparent = np.flatnonzero(oldest[order[youngest]] == np.arange(len(triangles)))
    apparent_edge = dict(zip(apparent.tolist(), youngest[apparent].tolist()))
    births += youngest[apparent].tolist()
    deaths += triangles[apparent].tolist()
    left = np.setdiff1d(cycles, youngest[apparent])

    def coboundary(e: int) -> int:
        s = order[e]
        bits = np.zeros(len(triangles), dtype=bool)
        bits[ranks[offsets[s] : offsets[s + 1]]] = True
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
    unpaired = np.ones(len(order), dtype=bool)
    unpaired[born] = unpaired[died] = False
    pairs = np.stack((order[born[by_death]], order[died[by_death]]), axis=1)
    return Reduction(pairs, order[unpaired])


def extract_diagram(
    reduction: Reduction, cx: WeightedComplex, degree: int
) -> PersistenceDiagram:
    """Persistence diagram of one degree from a reduction.

    Pairs with equal birth and death weight are dropped.  Essential classes
    always get death ``inf``: only the metric's infinite policy
    (:class:`~topodist.wasserstein.DiagramDistanceSpec`) drops or caps
    them.  Births, deaths and essential classes are filtered by degree as
    arrays; only the pairs of the diagram become objects.
    """
    weights, dims = cx.weights, cx.dims
    births, deaths = reduction.pairs.T
    keep = (dims[births] == degree) & (weights[births] != weights[deaths])
    births, deaths = births[keep], deaths[keep]
    essential = reduction.essential[dims[reduction.essential] == degree]
    finite = map(
        PersistencePair, repeat(degree), weights[births].tolist(), weights[deaths].tolist(),
        births.tolist(), deaths.tolist(),
    )
    classes = map(
        PersistencePair, repeat(degree), weights[essential].tolist(), repeat(math.inf),
        essential.tolist(),
    )
    return PersistenceDiagram(degree, (*finite, *classes))


def persistence_diagrams(cx: WeightedComplex) -> dict[int, PersistenceDiagram]:
    """Diagrams of ``cx`` in degrees 0 and 1: its filtration order, then
    :func:`boundary_matrix`, :func:`reduce_matrix` and
    :func:`extract_diagram`.

    The order comes from the complex as an array, and is not re-checked as
    a caller's order is.  The boundary reads coboundaries from the
    skeleton's cofacet index, which is built on first use and shared by
    every complex over that skeleton.
    """
    reduction = reduce_matrix(_boundary(cx, filtration_order(cx)))
    return {k: extract_diagram(reduction, cx, k) for k in _DEGREES}


def write_diagrams_csv(
    diagrams: Iterable[PersistenceDiagram], path: str | Path
) -> None:
    """Write ``degree,birth,death`` rows, each value its ``repr``, in each
    diagram's stored order; an essential class's death is written ``inf``."""
    rows = ((dg.degree, repr(b), repr(d)) for dg in diagrams for b, d in dg.points())
    _write_csv(path, _DIAGRAM_HEADER, rows)


def read_diagrams_csv(
    path: str | Path, degrees: Iterable[int] = _DEGREES
) -> dict[int, PersistenceDiagram]:
    """Read diagrams written by :func:`write_diagrams_csv`, keyed by degree.

    Degrees listed in ``degrees`` are always present in the result, as empty
    diagrams when the file has no such rows.  Simplex ids are not stored on
    disk; loaded pairs carry placeholder ids.  The error for a malformed
    row names the first one not as wide as the header, or failing that the
    first row, in file order, that the cell grammar does not take, whose
    death is infinite though its text is not ``inf`` (as ``1e400`` is), or
    that makes no persistence pair, with the pair's reason.
    """
    by_degree: dict[int, list[PersistencePair]] = {_degree(k): [] for k in degrees}
    _, rows = _read_csv(path, "diagram", _DIAGRAM_HEADER)
    n = _matching(map(",".join, rows), _DIAGRAM_ROW)
    for row in rows[:n]:
        degree, birth, death = int(row[0]), float(row[1]), float(row[2])
        # a death reads as infinite only when its text says so, not as 1e400
        if math.isinf(death) and row[2] != "inf":
            raise ValueError(f"malformed diagram CSV row: {row}")
        try:
            pair = PersistencePair(degree, birth, death, -1, None if row[2] == "inf" else -1)
        except ValueError as exc:
            raise ValueError(f"malformed diagram CSV row: {row}: {exc}") from None
        by_degree.setdefault(degree, []).append(pair)
    if n < len(rows):
        raise ValueError(f"malformed diagram CSV row: {rows[n]}")
    return {k: PersistenceDiagram(k, tuple(v)) for k, v in by_degree.items()}
