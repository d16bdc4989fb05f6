"""Weighted simplicial complexes over the samples of a dataset.

Vertices are samples, edges and triangles carry alternating-diffusion
weights, and the whole complex is ordered into a sublevel-set filtration:
simplexes with more shared structure (lower weight) enter first.  Weights
are made monotone (face weight never exceeds coface weight) by an explicit
max-propagation pass, since a filtration requires it and the raw weights do
not satisfy it: on simulated torus datasets half or more of the raw triangle
weights lie below the largest weight of their edges.

Facets are resolved once, by the closure check of :class:`WeightedComplex`,
into the flat table that every later stage reads.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from topodist.alternating import _inverse_centered_frobenius, _pair_entries, _triple_entries
from topodist.diffusion import DiffusionOperator

__all__ = [
    "Simplex",
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
    """A vertex, edge, or triangle given by strictly increasing vertex ids."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        v = tuple(int(x) for x in self.vertices)
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


@dataclass(frozen=True)
class WeightedComplex:
    """Simplexes with parallel weights, closed under inclusion.

    Vertices always weigh 0.  Monotonicity of the weights is not a
    construction requirement (raw alternating-diffusion weights may violate
    it); :func:`enforce_monotone` restores it and :func:`filtration_order`
    demands it.

    Construction also stores read-only arrays, one row per simplex:
    ``vertices`` (N x 3 ids padded with -1), ``dims`` (N) and ``facets``
    (N x 3 facet positions, slot j dropping vertex j as in
    :meth:`Simplex.facets`, -1 in unused slots).
    """

    simplexes: tuple[Simplex, ...]
    weights: np.ndarray
    vertices: np.ndarray = field(init=False, repr=False, compare=False)
    dims: np.ndarray = field(init=False, repr=False, compare=False)
    facets: np.ndarray = field(init=False, repr=False, compare=False)
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        simplexes = tuple(self.simplexes)
        weights = np.array(self.weights, dtype=np.float64, copy=True)
        weights.setflags(write=False)
        if weights.ndim != 1 or len(weights) != len(simplexes):
            raise ValueError(
                f"{len(simplexes)} simplexes but {weights.shape} weights"
            )
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        index = {s.vertices: i for i, s in enumerate(simplexes)}
        if len(index) != len(simplexes):
            raise ValueError("duplicate simplexes")
        vertices = np.full((len(simplexes), 3), -1, dtype=np.intp)
        facets = vertices.copy()
        for i, v in enumerate(index):
            vertices[i, : len(v)] = v
            if len(v) == 1 and weights[i] != 0.0:
                raise ValueError(f"vertex {v} must have weight 0")
            for j in range(len(v) if len(v) > 1 else 0):
                face = v[:j] + v[j + 1 :]
                if face not in index:
                    raise ValueError(f"complex not closed: {v} lacks face {face}")
                facets[i, j] = index[face]
        dims = (vertices >= 0).sum(axis=1) - 1
        for name, arr in (("vertices", vertices), ("dims", dims), ("facets", facets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "simplexes", simplexes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_index", index)

    def position(self, vertices: tuple[int, ...]) -> int:
        return self._index[tuple(vertices)]

    def weight_of(self, vertices: tuple[int, ...]) -> float:
        return float(self.weights[self.position(vertices)])

    @property
    def n_simplexes(self) -> int:
        return len(self.simplexes)

    @property
    def max_weight(self) -> float:
        return float(self.weights.max())

    def count(self, dimension: int) -> int:
        return int((self.dims == dimension).sum())

    def is_monotone(self) -> bool:
        return bool((_facet_max(self, self.weights) <= self.weights).all())


def _facet_max(cx: WeightedComplex, weights: np.ndarray) -> np.ndarray:
    """Per simplex, the largest of ``weights`` over its facets (-inf for none)."""
    return np.where(cx.facets >= 0, weights[cx.facets], -np.inf).max(axis=1)


def complete_skeleton(n_vertices: int) -> list[Simplex]:
    """All vertices, edges, and triangles over ``n_vertices`` ids."""
    if n_vertices < 2:
        raise ValueError(f"need at least 2 vertices, got {n_vertices}")
    out = [Simplex((i,)) for i in range(n_vertices)]
    out += [Simplex((a, b)) for a in range(n_vertices) for b in range(a + 1, n_vertices)]
    out += [
        Simplex((a, b, c))
        for a in range(n_vertices)
        for b in range(a + 1, n_vertices)
        for c in range(b + 1, n_vertices)
    ]
    return out


def grid_skeleton(rows: int, cols: int) -> list[Simplex]:
    """Triangulated grid: row-major vertex ids, one diagonal per unit square.

    Each unit square [a b; c d] gets the diagonal a-d (top-left to
    bottom-right) and the two triangles (a, b, d) and (a, c, d).
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"degenerate grid {rows}x{cols}")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    out: list[Simplex] = [Simplex((vid(r, c),)) for r in range(rows) for c in range(cols)]
    edges: list[tuple[int, int]] = []
    triangles: list[tuple[int, int, int]] = []
    for r in range(rows):
        for c in range(cols):
            a = vid(r, c)
            if c + 1 < cols:
                edges.append((a, vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((a, vid(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                b, cc, d = vid(r, c + 1), vid(r + 1, c), vid(r + 1, c + 1)
                edges.append((a, d))
                triangles.append((a, b, d))
                triangles.append((a, cc, d))
    out += [Simplex(e) for e in sorted(edges)]
    out += [Simplex(t) for t in sorted(triangles)]
    return out


def raw_weights(
    skeleton: Sequence[Simplex],
    operators: Sequence[DiffusionOperator],
    workers: int | None = None,
) -> np.ndarray:
    """Alternating-diffusion weights per simplex, before monotone enforcement.

    Vertices get 0, edges and triangles the weights of
    :func:`~topodist.alternating.edge_weight` and
    :func:`~topodist.alternating.triangle_weight`, computed from the same
    formulas on plain arrays: each pair operator is formed once and reused by
    every triangle on that edge.  Every edge of a triangle must be in the
    skeleton.  Useful on its own for weight statistics; building a
    filtration should go through :func:`assign_weights` instead.

    ``workers`` > 1 evaluates the triangles on that many threads; the result
    does not depend on it.  No library function passes it: it exists for the
    benchmark's threading probe, which has not shown it faster than the
    serial loop.
    """
    n = len(operators)
    sizes = {k.size for k in operators}
    if len(sizes) != 1:
        raise ValueError(f"operators disagree on size: {sorted(sizes)}")
    for s in skeleton:
        if s.vertices[-1] >= n:
            raise ValueError(
                f"simplex {s.vertices} references vertex >= {n} (one operator per vertex)"
            )

    k = [op.entries for op in operators]
    weights = np.zeros(len(skeleton))
    pair_cache: dict[tuple[int, int], np.ndarray] = {}
    for i, s in enumerate(skeleton):
        if s.dimension == 1:
            a, b = s.vertices
            pair_cache[(a, b)] = _pair_entries(k[a], k[b])
            try:
                weights[i] = _inverse_centered_frobenius(pair_cache[(a, b)], "pair operator")
            except ValueError as exc:
                raise ValueError(f"edge {s.vertices}: {exc}") from exc

    triangle_ids = [i for i, s in enumerate(skeleton) if s.dimension == 2]
    for i in triangle_ids:
        a, b, c = skeleton[i].vertices
        for edge in ((a, b), (a, c), (b, c)):
            if edge not in pair_cache:
                raise ValueError(f"triangle {skeleton[i].vertices} lacks edge {edge}")

    def triangle(s: Simplex) -> float:
        a, b, c = s.vertices
        entries = _triple_entries(
            k[a], k[b], k[c], pair_cache[(a, b)], pair_cache[(b, c)], pair_cache[(a, c)]
        )
        try:
            return _inverse_centered_frobenius(entries, "triple operator")
        except ValueError as exc:
            raise ValueError(f"triangle {s.vertices}: {exc}") from exc

    if workers is not None and workers > 1 and triangle_ids:
        # matrix products release the GIL, so threads buy real parallelism;
        # results land by index, keeping the output order-independent
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i, w in zip(
                triangle_ids, pool.map(lambda i: triangle(skeleton[i]), triangle_ids)
            ):
                weights[i] = w
    else:
        for i in triangle_ids:
            weights[i] = triangle(skeleton[i])
    return weights


def assign_weights(
    skeleton: Sequence[Simplex],
    operators: Sequence[DiffusionOperator],
    normalize: bool = False,
) -> WeightedComplex:
    """Attach alternating-diffusion weights to a skeleton.

    Vertices weigh 0, edges and triangles get the centered inverse-Frobenius
    weights of :func:`raw_weights`, and the result is passed through
    :func:`enforce_monotone`.  With ``normalize=True`` all weights are
    divided by the median raw weight of the positive-dimension simplexes,
    making weight scales comparable across datasets with different
    observation counts (the order within one filtration is unchanged).
    """
    skeleton = list(skeleton)
    weights = raw_weights(skeleton, operators)
    if normalize:
        weights = _median_normalized(skeleton, weights)
    return enforce_monotone(WeightedComplex(tuple(skeleton), weights))


def _median_normalized(skeleton: Sequence[Simplex], weights: np.ndarray) -> np.ndarray:
    """``weights`` divided by their median over the positive-dimension simplexes."""
    positive_dim = np.array([s.dimension > 0 for s in skeleton])
    med = float(np.median(weights[positive_dim]))
    if med <= 0.0:
        raise ValueError("median weight is not positive; cannot normalize")
    return weights / med


def enforce_monotone(cx: WeightedComplex) -> WeightedComplex:
    """Raise each simplex's weight to at least the max of its facets' weights.

    Processing by increasing dimension makes one pass sufficient; applying
    the function twice gives the same result as applying it once.
    """
    weights = np.array(cx.weights, copy=True)
    for dim in (1, 2):
        rows = cx.dims == dim
        weights[rows] = np.maximum(weights[rows], _facet_max(cx, weights)[rows])
    return WeightedComplex(cx.simplexes, weights)


def filtration_order(cx: WeightedComplex) -> list[int]:
    """Sublevel filtration order of a monotone complex.

    Simplexes sorted by weight ascending, breaking ties by dimension then by
    vertex tuple, which guarantees every face precedes its cofaces.
    """
    if not cx.is_monotone():
        raise ValueError("complex weights are not monotone; run enforce_monotone first")
    v = cx.vertices
    return np.lexsort((v[:, 2], v[:, 1], v[:, 0], cx.dims, cx.weights)).tolist()


def write_complex_csv(cx: WeightedComplex, path: str | Path) -> None:
    """Write ``dim,v0,v1,v2,weight`` rows, blank cells for unused vertex slots.

    Weights are written with ``repr`` so the round trip is bit-exact.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim", "v0", "v1", "v2", "weight"])
        for s, w in zip(cx.simplexes, cx.weights):
            v = list(s.vertices) + [""] * (3 - len(s.vertices))
            writer.writerow([s.dimension, *v, repr(float(w))])


def read_complex_csv(path: str | Path) -> WeightedComplex:
    """Read a complex written by :func:`write_complex_csv`."""
    simplexes: list[Simplex] = []
    weights: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["dim", "v0", "v1", "v2", "weight"]:
            raise ValueError(f"unexpected complex CSV header: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"malformed complex CSV row: {row}")
            dim = int(row[0])
            verts = tuple(int(x) for x in row[1 : 2 + dim])
            if any(cell != "" for cell in row[2 + dim : 4]):
                raise ValueError(f"row declares dim={dim} but has extra vertices: {row}")
            simplexes.append(Simplex(verts))
            weights.append(float(row[4]))
    return WeightedComplex(tuple(simplexes), np.array(weights))
