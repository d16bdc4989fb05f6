"""Weighted simplicial complexes over the samples of a dataset.

Vertices are samples, edges and triangles carry alternating-diffusion
weights, and the whole complex is ordered into a sublevel-set filtration:
simplexes with more shared structure (lower weight) enter first.  Weights
are made monotone (face weight never exceeds coface weight) by an explicit
max-propagation pass, since a filtration requires it and the raw weights do
not satisfy it: on simulated torus datasets half or more of the raw triangle
weights lie below the largest weight of their edges.

A complex is held as the tables of a :class:`Skeleton`, one row per
simplex, from the skeleton builders to the CSV file; :class:`Simplex`
objects are built only when an element is read.
"""

from __future__ import annotations

import csv
import math
from itertools import chain, compress, repeat
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from topodist.dataset import _integer, _integers, _readonly
from topodist.diffusion import (
    _ZERO,
    DiffusionOperator,
    _Centered,
    _centered,
    _is_noise,
    _norms,
    _per_chunk,
)

__all__ = [
    "Simplex",
    "Skeleton",
    "WeightedComplex",
    "complete_skeleton",
    "grid_skeleton",
    "assign_weights",
    "raw_weights",
    "enforce_monotone",
    "filtration_order",
    "write_complex_csv",
    "read_complex_csv",
]


@dataclass(frozen=True)
class Simplex:
    """A vertex, edge, or triangle given by strictly increasing vertex ids,
    Python or NumPy integers: a bool, float or string id is refused, not cast."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        v = tuple(_integer(x, "vertex id") for x in self.vertices)
        if not 1 <= len(v) <= 3:
            raise ValueError(f"simplex must have 1 to 3 vertices, got {len(v)}")
        if any(a >= b for a, b in zip(v, v[1:])):
            raise ValueError(f"vertex ids must be strictly increasing, got {v}")
        if v[0] < 0:
            raise ValueError(f"vertex ids must be nonnegative, got {v}")
        object.__setattr__(self, "vertices", v)

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def facets(self) -> list["Simplex"]:
        """Codimension-1 faces (empty for a vertex)."""
        if len(self.vertices) == 1:
            return []
        return [
            Simplex(self.vertices[:i] + self.vertices[i + 1 :])
            for i in range(len(self.vertices))
        ]


class _MissingFacet(ValueError):
    """A simplex whose facet is not in the table being resolved."""


def _row(vertices: np.ndarray, i: int) -> tuple[int, ...]:
    """The vertex ids of row ``i`` of a vertex table, as its
    :class:`Simplex` holds them, read without building the simplexes."""
    return tuple(x for x in vertices[i].tolist() if x >= 0)


class Skeleton(Sequence[Simplex]):
    """Vertices, edges and triangles as read-only tables, one row each:
    ``vertices`` (N x 3 ids padded with -1), ``dims`` (N) and ``facets``
    (N x 3 facet positions, slot j dropping vertex j as in
    :meth:`Simplex.facets`, -1 in unused slots).  Its elements are
    :class:`Simplex` objects, built on first access.

    Construction validates the vertex table and resolves facets once.  The
    table is an integer array, or a nested sequence of Python or NumPy
    integers (a bool, float or string entry is refused, not cast), in N
    rows of 3, or is empty.  Ids are replaced by their ranks (the padding
    -1 ranks 0), so each row encodes as one int64 in base (max rank + 1),
    for up to 2**21 - 1 distinct ids, and facets are found by binary
    search in the sorted codes.  Another table, a malformed row, a
    duplicate or a missing facet raises ``ValueError``.

    What depends on the rows alone is computed once, on first use, and
    shared by every complex over the skeleton: the tie order
    :func:`filtration_order` sorts weights in, the cofacet index that
    :func:`~topodist.homology.persistence_diagrams` reads coboundaries
    from, and the ``dim,v0,v1,v2,`` text that :func:`write_complex_csv`
    starts each row with.  The cofacet index lists, for each row, the rows
    of the triangles it is a facet of: ``N + 1`` offsets and ``3 T``
    triangle rows for ``T`` triangles, built with one sort.  It lives as
    long as the skeleton, so the pipeline builds it once per skeleton per
    call.
    """

    def __init__(self, vertices: np.ndarray | Sequence[Sequence[int]]) -> None:
        v = _integers(vertices, "vertex id")
        if v.size and (v.ndim != 2 or v.shape[1] != 3):
            raise ValueError(f"vertex table must be N x 3, got shape {v.shape}")
        v = v.reshape(-1, 3)  # an empty table of any shape has no rows
        bad = np.flatnonzero(
            (v[:, 0] < 0) | ((v[:, 1] < 0) & (v[:, 2] != -1))
            | ((v[:, 1:] <= v[:, :-1]) & (v[:, 1:] != -1)).any(axis=1)
        )
        if bad.size:
            row = v[bad[0]].tolist()
            raise ValueError(f"simplex row {row} is not increasing ids >= 0 padded with -1")
        used = v >= 0
        dims = used.sum(axis=1) - 1
        ranks = np.searchsorted(np.union1d(v, -1), v)
        base = ranks.max(initial=0) + 1
        if base > 2**21:
            raise ValueError(f"{base - 1} distinct vertex ids overflow the int64 simplex codes")
        codes = ranks @ [base**2, base, 1]
        order = np.argsort(codes)
        ordered = codes[order]
        if (np.diff(ordered) == 0).any():
            raise ValueError("duplicate simplexes")
        faces = ranks[:, [[1, 2], [0, 2], [0, 1]]] @ [base**2, base]
        # in sorted order each binary search starts where the last one ended
        by_face = np.argsort(faces, axis=None)
        at = np.empty(faces.size, dtype=np.intp)
        at[by_face] = np.searchsorted(ordered, faces.flat[by_face])
        at = order[np.minimum(at, len(codes) - 1)].reshape(faces.shape)
        has_facet = used & (dims[:, None] > 0)
        missing = np.argwhere(has_facet & (codes[at] != faces))
        if missing.size:
            i, j = missing[0]
            simplex = _row(v, i)
            face, kinds = simplex[:j] + simplex[j + 1 :], ("vertex", "edge", "triangle")
            raise _MissingFacet(
                f"{kinds[len(simplex) - 1]} {simplex} lacks {kinds[len(face) - 1]} {face}"
            )
        self.vertices, self.dims, self.facets = v, dims, np.where(has_facet, at, -1)
        for arr in (self.vertices, self.dims, self.facets):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, index):
        return self._simplexes[index]

    def __iter__(self):
        return iter(self._simplexes)

    @cached_property
    def _simplexes(self) -> tuple[Simplex, ...]:
        return tuple(Simplex(tuple(v for v in row if v >= 0)) for row in self.vertices.tolist())

    @cached_property
    def _tie_order(self) -> np.ndarray:
        """Positions sorted by dimension, then by vertex ids: the order of
        the rows that a filtration gives equal weights."""
        v = self.vertices
        return np.lexsort((v[:, 2], v[:, 1], v[:, 0], self.dims))

    @cached_property
    def _cofacets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, triangles)``: row ``r`` is a facet of the triangle
        rows ``triangles[offsets[r] : offsets[r + 1]]``, in skeleton order."""
        triangles = np.flatnonzero(self.dims == 2)
        facets = self.facets[triangles]
        by_row = np.argsort(facets, axis=None, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(facets.ravel(), minlength=len(self)))))
        return offsets, triangles[by_row // 3]

    @cached_property
    def _row_prefixes(self) -> np.ndarray:
        """Per row, the ``dim,v0,v1,v2,`` text that starts its complex-CSV
        line, blank cells for unused vertex slots, as an object array."""
        ids = np.union1d(self.vertices, -1)  # the padding -1 sorts first: a blank cell
        names = np.array(["", *map(str, ids[1:].tolist())], dtype=object)
        cells = names[np.searchsorted(ids, self.vertices)].T.tolist()
        rows = zip(map(str, self.dims.tolist()), *cells, repeat(""))
        return np.array(list(map(",".join, rows)), dtype=object)


def _facet_table(simplexes: Sequence[Simplex]) -> Skeleton:
    """``simplexes`` as a :class:`Skeleton`, resolved unless it is one."""
    if isinstance(simplexes, Skeleton):
        return simplexes
    return Skeleton([s.vertices + (-1,) * (3 - len(s.vertices)) for s in simplexes])


@dataclass(frozen=True)
class WeightedComplex:
    """Simplexes with parallel weights, closed under inclusion.

    ``simplexes`` is stored as a :class:`Skeleton` (a skeleton as given, so
    a complex over another's skeleton reuses its tables), and its
    ``vertices``, ``dims`` and ``facets`` tables are the representation.

    Vertices always weigh 0.  Monotonicity of the weights is not a
    construction requirement (raw alternating-diffusion weights may violate
    it); :func:`enforce_monotone` restores it and :func:`filtration_order`
    demands it.  :meth:`is_monotone` asks whether monotone repair, the
    one rule :func:`enforce_monotone` applies, would move no weight, so
    the rule and its check cannot disagree.
    """

    simplexes: Skeleton
    weights: np.ndarray
    vertices: np.ndarray = field(init=False, repr=False, compare=False)
    dims: np.ndarray = field(init=False, repr=False, compare=False)
    facets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            skeleton = _facet_table(self.simplexes)
        except _MissingFacet as exc:
            raise ValueError(f"complex not closed: {exc}") from None
        weights = _readonly(self.weights)
        if weights.ndim != 1 or len(weights) != len(skeleton):
            raise ValueError(f"{len(skeleton)} simplexes but {weights.shape} weights")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        weighted = np.flatnonzero((skeleton.dims == 0) & (weights != 0.0))
        if weighted.size:
            raise ValueError(f"vertex {_row(skeleton.vertices, weighted[0])} must have weight 0")
        for name in ("vertices", "dims", "facets"):
            object.__setattr__(self, name, getattr(skeleton, name))
        object.__setattr__(self, "simplexes", skeleton)
        object.__setattr__(self, "weights", weights)

    @property
    def n_simplexes(self) -> int:
        return len(self.simplexes)

    @property
    def max_weight(self) -> float:
        # exact: a nonempty closed complex holds a vertex, and vertices weigh 0
        return float(self.weights.max(initial=0.0))

    def count(self, dimension: int) -> int:
        return int((self.dims == dimension).sum())

    def is_monotone(self) -> bool:
        """Whether monotone repair would move no weight."""
        return np.array_equal(_monotone(self.simplexes, self.weights), self.weights)


def _monotone(skeleton: Skeleton, weights: np.ndarray) -> np.ndarray:
    """``weights`` with each edge, then each triangle, raised to the largest
    weight of its facets, read one facet column of the table at a time.

    A weight moves only when a facet weighs strictly more, and then takes
    the bits of the first facet, in facet order, of the largest weight: a
    tie keeps its own bits, where ``np.maximum`` picks between ``-0.0``
    and ``0.0`` by platform."""
    # edges read their two facet slots first, so triangles read repaired
    # edges: one pass suffices
    for dim, slot in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
        f = weights[skeleton.facets[:, slot]]
        weights = np.where((skeleton.dims == dim) & (f > weights), f, weights)
    return weights


def _padded(table: np.ndarray) -> np.ndarray:
    """Rows of k vertex ids as vertex table rows, padded with -1."""
    return np.pad(table, ((0, 0), (0, 3 - table.shape[1])), constant_values=-1)


def complete_skeleton(n_vertices: int) -> Skeleton:
    """All vertices, edges, and triangles over ``n_vertices`` ids, each kind
    in lexicographic order, as a table built by index arithmetic."""
    n_vertices = _integer(n_vertices, "n_vertices")
    if n_vertices < 2:
        raise ValueError(f"need at least 2 vertices, got {n_vertices}")
    a, b = np.triu_indices(n_vertices, 1)
    # edge e = (a, b) is the first edge of the triangles (a, b, c), c > b
    runs = n_vertices - 1 - b
    e = np.repeat(np.arange(len(a)), runs)
    c = np.arange(len(e)) - (np.cumsum(runs) - runs)[e] + b[e] + 1
    return Skeleton(np.concatenate([
        _padded(np.arange(n_vertices)[:, None]),
        _padded(np.stack([a, b], axis=1)),
        np.stack([a[e], b[e], c], axis=1),
    ]))


def grid_skeleton(rows: int, cols: int) -> Skeleton:
    """Triangulated grid: row-major vertex ids, one diagonal per unit square.

    Each unit square [a b; c d] gets the diagonal a-d (top-left to
    bottom-right) and the two triangles (a, b, d) and (a, c, d).  Each kind
    is in lexicographic order, in a table built by index arithmetic.
    """
    rows, cols = _integer(rows, "rows"), _integer(cols, "cols")
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"degenerate grid {rows}x{cols}")
    ids = np.arange(rows * cols).reshape(rows, cols)
    a, b, c, d = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
    horizontal, vertical = (ids[:, :-1], ids[:, 1:]), (ids[:-1], ids[1:])
    tables = [ids.reshape(-1, 1)]
    for corners in ([horizontal, vertical, (a, d)], [(a, b, d), (a, c, d)]):
        table = np.concatenate([np.stack(v, axis=-1).reshape(-1, len(v)) for v in corners])
        tables.append(table[np.lexsort(table.T[::-1])])
    return Skeleton(np.concatenate([_padded(t) for t in tables]))


def _triangle_groups(corners: np.ndarray, sides: np.ndarray, chunk: int) -> Iterator[tuple]:
    """Groups of the triangles with vertices ``corners[t] = (a, b, c)`` and
    edge ranks ``sides[t] = (bc, ac, ab)``, listed in skeleton order, each
    to be weighed in one stacked product.

    Returns one ``(at, a, b, ab, c, bc, ac)`` per group, where ``at`` picks
    the group's triangles and the rest their vertices and edge ranks.  A
    run ``lo:hi`` of at least ``chunk`` triangles sharing a first edge is a
    group of its own, ``at = slice(lo, hi)``: vertices ``a``, ``b`` and the
    rank ``ab`` of that edge among the edges are fixed, while the run's
    vertices ``c`` and edge ranks ``bc`` and ``ac`` come as a slice where
    each is one more than the one before it, as in a complete skeleton, and
    as an array of them elsewhere.  The triangles of shorter runs are
    pooled in order and cut into groups of ``chunk``, the last one shorter,
    whose fields are all arrays, gathered only when the group is reached.
    """
    a, b, c = corners.T
    bc, ac, ab = sides.T
    bounds = np.flatnonzero(np.diff(ab, prepend=-1, append=-1))
    long = np.diff(bounds) >= chunk
    starts, ends = bounds[:-1][long].tolist(), bounds[1:][long].tolist()

    def stacked(ids: np.ndarray) -> list[slice | np.ndarray]:
        # steps[i] counts the places before i where an id is not one more
        # than the one before it; a run without such a place is a slice
        steps = np.concatenate(([0], np.cumsum(np.diff(ids) != 1))).tolist()
        return [
            slice(first, first + hi - lo) if steps[hi - 1] == steps[lo] else ids[lo:hi]
            for first, lo, hi in zip(ids[starts].tolist(), starts, ends)
        ]

    runs = zip(
        map(slice, starts, ends),
        *(x[starts].tolist() for x in (a, b, ab)),
        *(stacked(x) for x in (c, bc, ac)),
    )
    pool = np.flatnonzero(np.repeat(~long, np.diff(bounds)))
    chunks = (pool[lo : lo + chunk] for lo in range(0, len(pool), chunk))
    return chain(runs, ((t, a[t], b[t], ab[t], c[t], bc[t], ac[t]) for t in chunks))


# a triangle is certified when its bound clears the level that matters by
# this relative margin, far above the rounding of the bound and of the weight
_MARGIN = 1e-10


def _subspace(g: np.ndarray) -> np.ndarray:
    """An ``L x k`` matrix with orthonormal columns, ``k = ceil(sqrt(L))``,
    near the dominant column space of the sum of the centered stack ``g``.

    A fixed-seed Gaussian range finder with two power steps (Halko,
    Martinsson & Tropp 2011) costs ``O(n L^2 + L^2 k)``.  The columns decide
    only which triangles :func:`_certified` can skip, never a weight.
    """
    size = g.shape[1]
    s = g.sum(axis=0)
    y = s @ np.random.default_rng(0).standard_normal((size, math.isqrt(size - 1) + 1))
    for _ in range(2):
        y = s @ (s.T @ np.linalg.qr(y)[0])
    return np.linalg.qr(y)[0]


def _symmetrized_squares(z: np.ndarray) -> np.ndarray:
    """``||Z + Z^T||_F^2`` of each matrix ``Z`` of a stack, in one order whatever its length."""
    k = len(z)
    if k == 1:
        # einsum sums a one-matrix stack in another order (from L = 91),
        # so a lone matrix is summed as in a longer stack
        z = np.concatenate((z, z))
    return 2.0 * (np.einsum("kij,kij->k", z, z) + np.einsum("kij,kji->k", z, z))[:k]


def _certified(
    g: np.ndarray, pairs: np.ndarray, corners: np.ndarray, sides: np.ndarray, need: np.ndarray
) -> np.ndarray:
    """Mask of the triangles whose centered triple operator ``M = Z + Z^T``
    provably has a Frobenius norm of at least ``need``.

    Triangle ``t`` has vertices ``corners[t] = (a, b, c)`` and edge ranks
    ``sides[t] = (bc, ac, ab)`` into ``pairs``.  For ``Q`` from
    :func:`_subspace`, ``||Q^T M Q|| <= ||M||``, and
    ``Q^T Z Q = H_c D_ab + H_a D_bc + H_b D_ac`` with ``H = Q^T G`` per
    sample and ``D = C Q`` per edge costs ``3 L k^2`` per triangle instead
    of ``3 L^3``.  The bound must clear ``need`` by :data:`_MARGIN`.
    """
    q = _subspace(g)
    h = np.matmul(q.T, g)
    d = np.matmul(pairs, q)
    squared = np.empty(len(need))
    chunk = _per_chunk(3 * h[0].nbytes)
    for lo in range(0, len(need), chunk):
        t = slice(lo, lo + chunk)
        # facet slot j drops vertex j: the products H_a D_bc, H_b D_ac, H_c D_ab
        squared[t] = _symmetrized_squares(np.matmul(h[corners[t]], d[sides[t]]).sum(axis=1))
    return squared >= ((1.0 + _MARGIN) * need) ** 2


def raw_weights(
    skeleton: Sequence[Simplex],
    operators: Sequence[DiffusionOperator] | _Centered,
    workers: int | None = None,
) -> np.ndarray:
    """Alternating-diffusion weights per simplex, before monotone enforcement.

    ``operators`` holds one diffusion operator per sample in one of two
    forms: :class:`~topodist.diffusion.DiffusionOperator` objects, or the
    centered stack :func:`~topodist.diffusion._centered_stack` builds from
    the samples.  Anything else, an array of operators too, is a ``TypeError``.

    Vertices get 0, edges and triangles the weights of
    :func:`~topodist.alternating.edge_weight` and
    :func:`~topodist.alternating.triangle_weight`, which stay the
    independent oracle for this function.  Here they come from pre-centered
    operators ``G = P K P``, one per sample: ``K 1 = 1`` and ``P 1 = 0``
    give ``P S_ab P = C_ab = G_a G_b^T + G_b G_a^T`` for an edge and
    ``P S_abc P = Z + Z^T`` with ``Z = G_c C_ab + G_a C_bc + G_b C_ac`` for
    a triangle, whose squared norm is ``2 ||Z||^2 + 2 <Z, Z^T>``.  So a
    triangle costs three L x L products and no simplex is centered.  Every
    triangle finds its edges in the facet table of the skeleton, so the
    skeleton must be closed.  This is the exact function, every triangle
    weighed, for weight statistics; building a filtration should go
    through :func:`assign_weights`, which skips the triangles whose weight
    monotone repair overwrites.

    Triangles are weighed in three stacked matrix products per group, and
    a group is chosen by operand size.  A chunk is as many triangles as
    fit three operand stacks into ``diffusion._CHUNK_BYTES`` (256 KiB): 27 at
    ``L = 20``, one from ``L = 74`` on.  A run of triangles that are listed
    one after another, share a first edge ``ab`` and fill a chunk is
    weighed on its own: their ``G_c``, ``C_bc`` and ``C_ac`` are stacked
    against the fixed ``C_ab``, ``G_a`` and ``G_b``.  Those stacks are
    views where their ids run consecutively, which holds for every run of
    a skeleton in canonical (lexicographic vertex) order, as
    :func:`complete_skeleton` and :func:`grid_skeleton` give it, and
    gathered copies elsewhere.  The triangles of shorter runs are pooled
    in skeleton order and weighed a chunk at a time, all six operands
    gathered, so many short runs cost a few calls instead of one each.  A
    stack of one triangle is summed as two copies of itself, since einsum
    sums a one-matrix stack in another order from ``L = 91`` on.  So a
    triangle's weight does not depend on the group it lands in, nor on the
    order of the skeleton: permuting the skeleton permutes the weights bit
    for bit.  Memory held, beside the operators as given: their ``n L^2``
    centered stack, the ``E L^2`` pair stack for ``E`` edges, and ``3 k
    L^2`` temporaries for a run of ``k`` triangles, or ``6 k L^2`` when its
    three operand stacks are gathered; a pooled chunk holds at most four
    stacks of its matrices at once, about 4/3 of ``_CHUNK_BYTES``.  When
    several simplexes have a zero centered operator, the error names the
    first of them in skeleton order.

    ``workers`` > 1 weighs the groups, runs and pooled chunks alike, on
    that many threads; the result does not depend on it.  No library
    function passes it: it exists for the benchmark's threading probe,
    which has not shown it faster than serial on two cores.
    """
    return _weights(skeleton, *_centered_operators(operators), workers)


def _centered_operators(
    operators: Sequence[DiffusionOperator] | _Centered,
) -> tuple[np.ndarray, np.ndarray]:
    """The centered stack ``G`` of ``operators`` and its norms: as given when
    already centered (the pipeline builds them from the samples a block at
    a time, checking each block), else stacked and centered."""
    if isinstance(operators, _Centered):
        return operators.g, operators.norms
    if not isinstance(operators, Sequence) or not all(
        isinstance(op, DiffusionOperator) for op in operators
    ):
        raise TypeError(
            "operators must be a sequence of DiffusionOperator or the centered stack "
            f"of topodist.diffusion._centered_stack, got {type(operators).__name__}"
        )
    sizes = {op.size for op in operators}
    if len(sizes) > 1:
        raise ValueError(f"operators disagree on size: {sorted(sizes)}")
    k = np.array([op.entries for op in operators]) if len(operators) else np.empty((0, 0, 0))
    return _centered(k)


def _weights(
    skeleton: Sequence[Simplex],
    g: np.ndarray,
    norms: np.ndarray,
    workers: int | None = None,
    certify: bool = False,
) -> np.ndarray:
    """:func:`raw_weights` from the centered operators ``g`` and their
    norms; with ``certify``, triangles that monotone repair provably lifts
    to their largest edge weight are left at 0 unweighed."""
    n = len(g)
    skeleton = _facet_table(skeleton)
    vertices, dims, facets = skeleton.vertices, skeleton.dims, skeleton.facets
    if vertices.max(initial=-1) >= n:
        v = _row(vertices, np.flatnonzero(vertices.max(axis=1) >= n)[0])
        raise ValueError(f"simplex {v} references vertex >= {n} (one operator per vertex)")

    size = g.shape[1]
    weights = np.zeros(len(skeleton))

    def guard(ids: np.ndarray, zero: np.ndarray, kind: str, operator: str) -> None:
        if zero.any():
            first = _row(vertices, ids[zero].min())
            raise ValueError(f"{kind} {first}: {operator} operator {_ZERO}")

    edges = np.flatnonzero(dims == 1)
    triangles = np.flatnonzero(dims == 2)
    pairs = np.empty((len(edges), size, size))
    a, b = vertices[edges, :2].T
    step = _per_chunk(8 * size * size)
    for lo in range(0, len(edges), step):
        e = slice(lo, lo + step)
        m = np.matmul(g[a[e]], g[b[e]].transpose(0, 2, 1))
        np.add(m, m.transpose(0, 2, 1), out=pairs[e])
    # a centered product is noise at the rounding level of its factors' norms
    edge_norms = _norms(pairs)
    guard(edges, _is_noise(edge_norms, norms[a] * norms[b], size), "edge", "pair")
    weights[edges] = 1.0 / edge_norms

    rank = np.empty(len(dims), dtype=np.intp)
    rank[edges] = np.arange(len(edges))
    corners, sides = vertices[triangles], rank[facets[triangles]]
    if certify and len(triangles):
        # repair lifts a triangle weighing 0 to top, its largest edge weight;
        # one whose norm reaches 1 / top has a raw weight below top, so
        # repair gives it top as well
        top = _monotone(skeleton, weights)[triangles]
        keep = ~_certified(g, pairs, corners, sides, 1.0 / top)
        triangles, corners, sides = triangles[keep], corners[keep], sides[keep]
    # triangles whose three operand stacks fill one gathered chunk
    groups = _triangle_groups(corners, sides, _per_chunk(3 * 8 * size * size))
    squared = np.empty(len(triangles))

    def weigh(at, a, b, ab, c, bc, ac) -> None:
        # each face's C multiplies the opposite vertex's G
        z = np.matmul(g[c], pairs[ab])
        z += np.matmul(g[a], pairs[bc])
        z += np.matmul(g[b], pairs[ac])
        squared[at] = _symmetrized_squares(z)

    if workers is not None and workers > 1:
        # matrix products release the GIL, so threads buy real parallelism;
        # each group writes its own triangles, keeping the output order-independent
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda group: weigh(*group), groups))
    else:
        for group in groups:
            weigh(*group)
    a, b, c = vertices[triangles].T
    triangle_norms = np.sqrt(squared)
    zero = _is_noise(triangle_norms, norms[a] * norms[b] * norms[c], size)
    guard(triangles, zero, "triangle", "triple")
    weights[triangles] = 1.0 / triangle_norms
    return weights


def assign_weights(
    skeleton: Sequence[Simplex], operators: Sequence[DiffusionOperator] | _Centered
) -> WeightedComplex:
    """Attach alternating-diffusion weights to a skeleton.

    Vertices weigh 0, edges and triangles get the centered inverse-Frobenius
    weights of :func:`raw_weights`, and monotone repair, the rule of
    :func:`enforce_monotone`, is applied before the one complex is built.
    The result equals
    ``enforce_monotone(WeightedComplex(skeleton, raw_weights(...)))`` bit
    for bit, but a triangle is weighed only when a cheap lower bound on its
    operator's norm (:func:`_certified`) cannot show that its raw weight
    lies below the value repair gives it while it weighs 0, its largest
    edge weight: repair gives a certified triangle that value.  A
    zero-matrix triangle has bound 0 and so meets the same error as in
    :func:`raw_weights`.  Memory held is that of :func:`raw_weights`, and
    the bound holds ``(n + E) L k`` more values, for ``E`` edges and
    ``k = ceil(sqrt(L))``.  ``operators`` takes either form of
    :func:`raw_weights`; the pipeline passes the centered stack, filled a
    block of samples at a time, so it holds no stack of operators ``K``.
    """
    skeleton = _facet_table(skeleton)
    weights = _weights(skeleton, *_centered_operators(operators), certify=True)
    return WeightedComplex(skeleton, _monotone(skeleton, weights))


def enforce_monotone(cx: WeightedComplex) -> WeightedComplex:
    """Monotone repair: raise each edge, then each triangle, to the largest
    weight of its facets.

    Processing by increasing dimension makes one pass sufficient; applying
    the function twice gives the same result as applying it once.  A
    weight moves only when a facet weighs strictly more, and then takes
    the bits of the first facet, in facet order, of the largest weight, so
    a tie keeps its own bits (``-0.0`` over vertices of ``0.0`` stays
    ``-0.0``).  This is the one
    repair rule: :func:`assign_weights`, the cross-correlation baseline
    and :meth:`WeightedComplex.is_monotone` apply it too.
    """
    return WeightedComplex(cx.simplexes, _monotone(cx.simplexes, cx.weights))


def filtration_order(cx: WeightedComplex) -> list[int]:
    """Sublevel filtration order of a monotone complex.

    Simplexes sorted by weight ascending, breaking ties by dimension then by
    vertex tuple, which guarantees every face precedes its cofaces.  The tie
    order depends on the skeleton alone, so its :class:`Skeleton` sorts it
    once, and each complex over that skeleton sorts its weights stably in it.
    """
    return _filtration_order(cx).tolist()


def _filtration_order(cx: WeightedComplex) -> np.ndarray:
    """:func:`filtration_order` as an array."""
    if not cx.is_monotone():
        raise ValueError("complex weights are not monotone; run enforce_monotone first")
    tie = cx.simplexes._tie_order
    return tie[np.argsort(cx.weights[tie], kind="stable")]


def write_complex_csv(cx: WeightedComplex, path: str | Path) -> None:
    """Write ``dim,v0,v1,v2,weight`` rows, blank cells for unused vertex slots.

    Weights are written with ``repr`` so the round trip is bit-exact, and
    the bytes are those :mod:`csv`'s writer gives, ``\\r\\n`` line ends included.
    Each row is its skeleton's cached ``dim,v0,v1,v2,`` text followed by
    its weight's text, which is formed once per distinct bit pattern (so
    ``-0.0`` keeps its sign): monotone repair copies most triangle weights
    from their edges.
    """
    _, first, inverse = np.unique(
        cx.weights.view(np.int64), return_index=True, return_inverse=True
    )
    texts = np.array([f"{w!r}\r\n" for w in cx.weights[first].tolist()], dtype=object)
    rows = np.column_stack((cx.simplexes._row_prefixes, texts[inverse]))
    with open(path, "w", newline="") as fh:
        fh.write("dim,v0,v1,v2,weight\r\n")
        fh.write("".join(rows.ravel().tolist()))


def read_complex_csv(path: str | Path) -> WeightedComplex:
    """Read a complex written by :func:`write_complex_csv` into its table.

    The rows are checked and parsed column by column.  The error for a
    malformed row names the first one whose cells are misplaced, or
    failing that the first whose id or weight does not parse, or failing
    that the first with a negative id or a weight that is not finite.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["dim", "v0", "v1", "v2", "weight"]:
            raise ValueError(f"unexpected complex CSV header: {header}")
        rows = [row for row in reader if row]
    n = len(rows)
    # a row of the wrong length reads as blanks, so it is malformed
    cells = [r if len(r) == 5 else [""] * 5 for r in rows] if set(map(len, rows)) - {5} else rows
    dim, *ids, weight = zip(*cells) if n else [()] * 5
    dims = np.fromiter(map({"0": 0, "1": 1, "2": 2}.get, dim, [-1] * n), np.intp, n)
    used = np.arange(3) <= dims[:, None]
    filled = np.array([np.fromiter(map(bool, c), bool, n) for c in ids]).T
    malformed = (dims < 0) | (used & ~filled).any(axis=1)
    bad = np.flatnonzero(malformed | (filled & ~used).any(axis=1))
    if bad.size:
        i = bad[0]
        if malformed[i]:
            raise ValueError(f"malformed complex CSV row: {rows[i]}")
        raise ValueError(f"row declares dim={dims[i]} but has extra vertices: {rows[i]}")
    table = np.full((n, 3), -1, dtype=np.intp)
    try:
        for j, column in enumerate(ids):
            present = compress(column, used[:, j].tolist())
            table[used[:, j], j] = np.fromiter(map(int, present), np.intp)
        weights = np.fromiter(map(float, weight), np.float64, n)
    except ValueError:
        for row in rows:
            try:
                [int(x) for x in row[1:4] if x]
                float(row[4])
            except ValueError:
                raise ValueError(f"malformed complex CSV row: {row}") from None
        raise
    bad = np.flatnonzero((used & (table < 0)).any(axis=1) | ~np.isfinite(weights))
    if bad.size:
        raise ValueError(f"malformed complex CSV row: {rows[bad[0]]}")
    return WeightedComplex(Skeleton(table), weights)
