"""GF(2) linear-algebra oracles for persistence tests.

:func:`standard_reduction` is the textbook left-to-right column reduction,
over boundary columns it builds from :meth:`Simplex.facets`: the reference
that ``reduce_matrix`` and ``persistence_diagrams`` must equal exactly.

Persistent Betti numbers are computed from matrix ranks alone (kernel of the
degree-k boundary map intersected with the image of the degree-(k+1) map),
then converted to diagram multiplicities by inclusion-exclusion over critical
values.  Shares no code with the reduction under test.
"""

import math
from typing import Sequence

import numpy as np

from topodist.complexes import WeightedComplex
from topodist.homology import Reduction


def gf2_rank(m: np.ndarray) -> int:
    """Rank over GF(2) by Gaussian elimination."""
    a = np.array(m, dtype=np.uint8, copy=True) & 1
    if a.size == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        hits = np.nonzero(a[rank:, c])[0]
        if len(hits) == 0:
            continue
        p = rank + hits[0]
        a[[rank, p]] = a[[p, rank]]
        mask = a[:, c].astype(bool)
        mask[rank] = False
        a[mask] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def gf2_nullspace(m: np.ndarray) -> np.ndarray:
    """Kernel basis over GF(2); returns shape (n_cols, nullity)."""
    a = np.array(m, dtype=np.uint8, copy=True) & 1
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    pivot_cols = []
    rank = 0
    for c in range(cols):
        hits = np.nonzero(a[rank:, c])[0] if rank < rows else []
        if len(hits) == 0:
            continue
        p = rank + hits[0]
        a[[rank, p]] = a[[p, rank]]
        mask = a[:, c].astype(bool)
        mask[rank] = False
        a[mask] ^= a[rank]
        pivot_cols.append(c)
        rank += 1
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.zeros((cols, len(free_cols)), dtype=np.uint8)
    for idx, f in enumerate(free_cols):
        basis[f, idx] = 1
        for r, p in enumerate(pivot_cols):
            basis[p, idx] = a[r, f]
    return basis


def _simplex_ids_at(cx: WeightedComplex, dim: int, value: float) -> list[int]:
    return [
        i
        for i, s in enumerate(cx.simplexes)
        if s.dimension == dim and cx.weights[i] <= value
    ]


def _boundary_of(cx: WeightedComplex, col_ids: list[int], row_ids: list[int]) -> np.ndarray:
    row_pos = {cx.simplexes[i].vertices: r for r, i in enumerate(row_ids)}
    m = np.zeros((len(row_ids), len(col_ids)), dtype=np.uint8)
    for c, sid in enumerate(col_ids):
        for f in cx.simplexes[sid].facets():
            m[row_pos[f.vertices], c] = 1
    return m


def persistent_betti(cx: WeightedComplex, k: int, s_val: float, t_val: float) -> int:
    """Rank of the map H_k(X_s) -> H_k(X_t) over GF(2).

    Computed as rank([kernel basis of d_k at s, embedded | d_{k+1} at t])
    minus rank(d_{k+1} at t).
    """
    assert s_val <= t_val
    k_at_s = _simplex_ids_at(cx, k, s_val)
    k_at_t = _simplex_ids_at(cx, k, t_val)
    kp1_at_t = _simplex_ids_at(cx, k + 1, t_val)

    if k == 0:
        kernel = np.eye(len(k_at_s), dtype=np.uint8)  # the vertex map is zero
    else:
        km1_at_s = _simplex_ids_at(cx, k - 1, s_val)
        kernel = gf2_nullspace(_boundary_of(cx, k_at_s, km1_at_s))

    # embed kernel vectors into the chain space over k-simplexes at t
    pos_at_t = {sid: r for r, sid in enumerate(k_at_t)}
    embedded = np.zeros((len(k_at_t), kernel.shape[1]), dtype=np.uint8)
    for r_s, sid in enumerate(k_at_s):
        embedded[pos_at_t[sid]] = kernel[r_s]

    boundary_t = _boundary_of(cx, kp1_at_t, k_at_t)
    return gf2_rank(np.hstack([embedded, boundary_t])) - gf2_rank(boundary_t)


def betti(cx: WeightedComplex, k: int, value: float) -> int:
    """Plain Betti number of the sublevel complex at ``value``."""
    return persistent_betti(cx, k, value, value)


def diagram_oracle(cx: WeightedComplex, k: int) -> list[tuple[float, float]]:
    """Multiset of (birth, death) points by rank inclusion-exclusion.

    Deaths of classes alive in the full complex are ``inf``.  Zero-persistence
    points cannot occur (births and deaths are distinct critical values).
    """
    values = sorted({float(w) for w in cx.weights})
    last = values[-1]
    n = len(values)

    def pb(i: int, j: int) -> int:
        if i < 0:
            return 0
        return persistent_betti(cx, k, values[i], values[j])

    points: list[tuple[float, float]] = []
    for i in range(n):
        for j in range(i + 1, n):
            mult = pb(i, j - 1) - pb(i, j) - pb(i - 1, j - 1) + pb(i - 1, j)
            assert mult >= 0, "negative multiplicity: oracle inconsistency"
            points.extend([(values[i], values[j])] * mult)
        mult_inf = pb(i, n - 1) - pb(i - 1, n - 1)
        assert mult_inf >= 0
        points.extend([(values[i], math.inf)] * mult_inf)
    return sorted(points)


def boundary_columns(cx: WeightedComplex, order: Sequence[int]) -> list[tuple[int, ...]]:
    """Per filtration position, the sorted positions of the simplex's facets,
    from :meth:`Simplex.facets` and a dict of vertex tuples, not the tables."""
    simplexes = [cx.simplexes[int(i)] for i in order]
    position = {s.vertices: j for j, s in enumerate(simplexes)}
    return [tuple(sorted(position[f.vertices] for f in s.facets())) for s in simplexes]


def standard_reduction(cx: WeightedComplex, order: Sequence[int]) -> Reduction:
    """Left-to-right Z2 column reduction with lowest-one pairing of the
    filtration ``order`` of ``cx``, over :func:`boundary_columns`.

    Each column becomes a Python-int bitset (bit r set for row r) only when
    the sweep reaches it, so its lowest row is ``bit_length() - 1`` and
    column addition is XOR.  While that lowest row is owned by an earlier
    reduced column, the owner is XORed in.  A column that ends up nonzero
    pairs its lowest row (birth) with itself (death) and becomes that row's
    owner.  Columns that reduce to zero and are never a lowest row are
    essential births.
    """
    order = [int(i) for i in order]
    pivots: dict[int, int] = {}  # lowest row -> reduced column owning it
    pairs_pos: list[tuple[int, int]] = []
    cleared: list[int] = []
    for j, rows in enumerate(boundary_columns(cx, order)):
        col = sum(1 << r for r in rows)
        while col:
            low = col.bit_length() - 1
            owner = pivots.get(low)
            if owner is None:
                pivots[low] = col
                pairs_pos.append((low, j))
                break
            col ^= owner
        else:  # reduced to zero
            cleared.append(j)

    pairs = [(order[b], order[d]) for b, d in pairs_pos]
    essential = [order[j] for j in cleared if j not in pivots]
    return Reduction(
        np.array(pairs, dtype=np.intp).reshape(-1, 2), np.array(essential, dtype=np.intp)
    )
