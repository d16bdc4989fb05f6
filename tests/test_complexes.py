"""Tests for skeleton builders, weight assignment, and filtration ordering."""

import itertools
import re
import tempfile
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gf2 import boundary_columns
from reference_complexes import (
    complete_skeleton_reference,
    grid_skeleton_reference,
    position,
    weight_of,
    write_complex_csv_reference,
)
from test_homology import matrix_columns
import topodist.complexes as complexes
import topodist.diffusion as diffusion
from topodist.alternating import edge_weight, pair_operator, triangle_weight, triple_operator
from topodist.complexes import (
    Simplex,
    Skeleton,
    WeightedComplex,
    _triangle_groups,
    assign_weights,
    complete_skeleton,
    enforce_monotone,
    filtration_order,
    grid_skeleton,
    raw_weights,
    read_complex_csv,
    write_complex_csv,
)
from topodist.dataset import Sample, TorusSpec, generate_torus_dataset
from topodist.diffusion import DiffusionOperator, _centered_stack, sample_diffusion_operator
from topodist.homology import boundary_matrix
from topodist.pipeline import PipelineConfig, build_weighted_complex


# ---------------------------------------------------------------------------
# oracles


def enforce_oracle(cx: WeightedComplex) -> np.ndarray:
    """Fixed-point iteration: bump any violating coface until stable."""
    w = np.array(cx.weights, copy=True)
    changed = True
    while changed:
        changed = False
        for i, s in enumerate(cx.simplexes):
            for f in s.facets():
                fw = w[position(cx, f.vertices)]
                if fw > w[i]:
                    w[i] = fw
                    changed = True
    return w


def closed_under_inclusion(skeleton: list[Simplex]) -> bool:
    present = {s.vertices for s in skeleton}
    return all(f.vertices in present for s in skeleton for f in s.facets())


def grid_edge_count(r: int, c: int) -> int:
    return (r - 1) * c + r * (c - 1) + (r - 1) * (c - 1)


def identity_ops(n: int, size: int = 2) -> list[DiffusionOperator]:
    return [DiffusionOperator(np.eye(size)) for _ in range(n)]


# ---------------------------------------------------------------------------
# simplex type


def test_simplex_validation():
    assert Simplex((0, 2, 5)).dimension == 2
    with pytest.raises(ValueError, match="strictly increasing"):
        Simplex((2, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        Simplex((1, 1))
    with pytest.raises(ValueError, match="1 to 3"):
        Simplex((0, 1, 2, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        Simplex((-1, 2))


def test_simplex_facets():
    assert [f.vertices for f in Simplex((4,)).facets()] == []
    assert [f.vertices for f in Simplex((1, 3)).facets()] == [(3,), (1,)]
    assert sorted(f.vertices for f in Simplex((0, 1, 2)).facets()) == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# skeletons


def test_complete_skeleton_small_counts():
    by_dim = lambda sk, d: sum(1 for s in sk if s.dimension == d)
    sk3 = complete_skeleton(3)
    assert (by_dim(sk3, 0), by_dim(sk3, 1), by_dim(sk3, 2)) == (3, 3, 1)
    sk2 = complete_skeleton(2)
    assert (by_dim(sk2, 0), by_dim(sk2, 1), by_dim(sk2, 2)) == (2, 1, 0)
    sk40 = complete_skeleton(40)
    assert by_dim(sk40, 1) == 780
    assert by_dim(sk40, 2) == 9880
    assert closed_under_inclusion(sk40)


def test_complete_skeleton_rejects_tiny():
    with pytest.raises(ValueError, match="at least 2"):
        complete_skeleton(1)


def test_grid_two_by_two():
    sk = grid_skeleton(2, 2)
    edges = sorted(s.vertices for s in sk if s.dimension == 1)
    triangles = sorted(s.vertices for s in sk if s.dimension == 2)
    assert edges == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    assert triangles == [(0, 1, 3), (0, 2, 3)]


def test_grid_path():
    sk = grid_skeleton(1, 3)
    assert sum(1 for s in sk if s.dimension == 0) == 3
    assert sorted(s.vertices for s in sk if s.dimension == 1) == [(0, 1), (1, 2)]
    assert sum(1 for s in sk if s.dimension == 2) == 0


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("c", range(1, 7))
def test_grid_counts_match_closed_form(r, c):
    if r * c < 2:
        pytest.skip("degenerate grid")
    sk = grid_skeleton(r, c)
    assert sum(1 for s in sk if s.dimension == 0) == r * c
    assert sum(1 for s in sk if s.dimension == 1) == grid_edge_count(r, c)
    assert sum(1 for s in sk if s.dimension == 2) == 2 * (r - 1) * (c - 1)
    assert closed_under_inclusion(sk)


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        grid_skeleton(1, 1)
    with pytest.raises(ValueError, match="degenerate"):
        grid_skeleton(0, 5)


# ---------------------------------------------------------------------------
# weight assignment


def test_assign_weights_identity_operators():
    # raw values from ||P (cI_2) P||_F = c sqrt(2 - 1): edges 1/2, triangle
    # 1/12; the triangle sits BELOW its edges, so enforcement lifts it up to
    # the edge level
    cx = assign_weights(complete_skeleton(3), identity_ops(3))
    for s in cx.simplexes:
        if s.dimension == 0:
            assert weight_of(cx, s.vertices) == 0.0
        elif s.dimension == 1:
            assert weight_of(cx, s.vertices) == pytest.approx(0.5, abs=1e-15)
        else:
            assert weight_of(cx, s.vertices) == pytest.approx(0.5, abs=1e-15)
    assert cx.is_monotone()


def test_assign_weights_matches_scratch_recomputation():
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=5, n_observations=30, r_max=3.0, sigma=0.1, seed=19)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    cx = assign_weights(complete_skeleton(5), ops)

    raw = {}
    pair_ops = {}
    for a in range(5):
        for b in range(a + 1, 5):
            pair_ops[(a, b)] = pair_operator(ops[a], ops[b], pair=(a, b))
            raw[(a, b)] = edge_weight(pair_ops[(a, b)])
    for a in range(5):
        for b in range(a + 1, 5):
            for c in range(b + 1, 5):
                tri = triple_operator(
                    ops[a], ops[b], ops[c],
                    pair_ops[(a, b)], pair_ops[(b, c)], pair_ops[(a, c)],
                    triple=(a, b, c),
                )
                raw[(a, b, c)] = triangle_weight(tri)

    for s in cx.simplexes:
        if s.dimension == 1:
            assert weight_of(cx, s.vertices) == pytest.approx(raw[s.vertices], rel=1e-13)
        elif s.dimension == 2:
            expected = max(raw[s.vertices], *(raw[f.vertices] for f in s.facets()))
            assert weight_of(cx, s.vertices) == pytest.approx(expected, rel=1e-13)

    again = assign_weights(complete_skeleton(5), ops)
    assert np.array_equal(cx.weights, again.weights)


def test_assign_weights_monotone_post_condition():
    data = generate_torus_dataset(
        TorusSpec(m=6, n_samples=6, n_observations=40, r_max=4.0, sigma=0.2, seed=23)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    cx = assign_weights(complete_skeleton(6), ops)
    assert cx.is_monotone()
    for i, s in enumerate(cx.simplexes):
        for f in s.facets():
            assert weight_of(cx, f.vertices) <= cx.weights[i]


def test_assign_weights_normalization_preserves_order():
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=5, n_observations=25, r_max=2.0, sigma=0.1, seed=29)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    raw = assign_weights(complete_skeleton(5), ops)
    norm = build_weighted_complex(data, PipelineConfig(normalize=True))
    assert np.array_equal(filtration_order(raw), filtration_order(norm))
    pos = [i for i, s in enumerate(raw.simplexes) if s.dimension > 0]
    ratio = raw.weights[pos] / norm.weights[pos]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_assign_weights_operator_count_mismatch():
    with pytest.raises(ValueError, match="one operator per vertex"):
        assign_weights(complete_skeleton(3), identity_ops(2))


def test_raw_weights_refuses_operators_of_two_sizes():
    ops = [*identity_ops(2, size=3), DiffusionOperator(np.eye(4))]
    with pytest.raises(ValueError, match=r"^operators disagree on size: \[3, 4\]$"):
        raw_weights(complete_skeleton(3), ops)


def test_raw_weights_takes_the_operator_stack():
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=5, n_observations=20, r_max=3.0, sigma=0.1, seed=29)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    skeleton = complete_skeleton(5)
    centered = _centered_stack(data.samples)
    assert np.array_equal(raw_weights(skeleton, centered), raw_weights(skeleton, ops))


def test_an_array_of_operators_is_rejected():
    # only DiffusionOperator objects and the centered stack are weighed
    ops = identity_ops(3)
    message = r"^operators must be a sequence of DiffusionOperator or the centered stack"
    for given in (np.array([op.entries for op in ops]), [op.entries for op in ops], iter(ops)):
        with pytest.raises(TypeError, match=message):
            raw_weights(complete_skeleton(3), given)
        with pytest.raises(TypeError, match=message):
            assign_weights(complete_skeleton(3), given)


@pytest.mark.parametrize("size", [20, 100])
def test_raw_weights_threads_match_serial(size):
    # L = 20 pools the runs into gathered chunks, L = 100 weighs each on its own
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=8, n_observations=size, r_max=3.0, sigma=0.1, seed=31)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    skeleton = complete_skeleton(8)
    assert np.array_equal(raw_weights(skeleton, ops, workers=2), raw_weights(skeleton, ops))


@pytest.mark.parametrize("stationary", ["uniform", "random"])
def test_constant_operator_gives_the_edge_error(stationary):
    # every row equal to the stationary distribution pi: P K P = P 1 pi^T P
    # = 0, so every edge on vertex 1 has a zero centered pair operator
    size = 7
    ops = [sample_diffusion_operator(Sample(np.random.default_rng(v).normal(size=(size, 2))))
           for v in range(3)]
    pi = np.full(size, 1.0 / size)
    if stationary == "random":
        pi = np.random.default_rng(41).random(size)
        pi /= pi.sum()
    ops[1] = DiffusionOperator(np.tile(pi, (size, 1)))
    with pytest.raises(ValueError, match=r"^edge \(0, 1\): .*zero matrix"):
        raw_weights(complete_skeleton(3), ops)


def test_independent_duplicate_groups_give_the_edge_error():
    # groups {0,1,2,3},{4,5} and {0,1,4},{2,3,5} meet in proportion to their
    # sizes, so the centered pair operator is zero; rounding leaves ~1e-18
    rng = np.random.default_rng(43)
    samples = [Sample(rng.normal(size=(2, 2))[rows])
               for rows in ([0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1])]
    ops = [sample_diffusion_operator(s) for s in samples]
    with pytest.raises(ValueError, match=r"^edge \(0, 1\): .*zero matrix"):
        raw_weights(complete_skeleton(3), ops)


def test_cyclic_permutations_give_the_triangle_error():
    # on the centered plane the identity and the two 3-cycles act as I, R
    # and R^-1 with I + R + R^-1 = 0: every C is -P, so Z = -(R^-1 + I + R) P
    # vanishes up to rounding while no edge does
    ops = [DiffusionOperator(np.eye(3)[list(p)]) for p in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    with pytest.raises(ValueError, match=r"^triangle \(0, 1, 2\): .*zero matrix"):
        raw_weights(complete_skeleton(3), ops)
    edges = raw_weights(complete_skeleton(3)[:6], ops)
    assert edges[3:] == pytest.approx([1.0 / np.sqrt(2.0)] * 3, rel=1e-15)


def extended_precision_weights(ops: list[DiffusionOperator], skeleton: list[Simplex]) -> np.ndarray:
    """``1 / ||P S P||_F`` per simplex from the operator formulas in ``np.longdouble``."""
    k = [op.entries.astype(np.longdouble) for op in ops]
    size = k[0].shape[0]
    p = np.eye(size, dtype=np.longdouble) - 1 / np.longdouble(size)

    def pair(a: int, b: int) -> np.ndarray:
        return k[a] @ k[b].T + k[b] @ k[a].T

    out = np.zeros(len(skeleton), dtype=np.longdouble)
    for i, s in enumerate(skeleton):
        if s.dimension == 1:
            entries = pair(*s.vertices)
        elif s.dimension == 2:
            a, b, c = s.vertices
            faces = ((pair(a, b), c), (pair(b, c), a), (pair(a, c), b))
            entries = sum(f @ k[v].T + k[v] @ f for f, v in faces)
        else:
            continue
        centered = p @ entries @ p
        out[i] = 1 / np.sqrt(np.sum(centered * centered))
    return out


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is no wider than float64 on this platform",
)
def test_raw_weights_against_extended_precision():
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=5, n_observations=40, r_max=3.0, sigma=0.1, seed=37)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    skeleton = complete_skeleton(5)
    want = extended_precision_weights(ops, skeleton)
    operator_path = np.zeros(len(skeleton))
    for i, s in enumerate(skeleton):
        pairs = {f: pair_operator(ops[f[0]], ops[f[1]], pair=f)
                 for f in itertools.combinations(s.vertices, 2)}
        if s.dimension == 1:
            operator_path[i] = edge_weight(pairs[s.vertices])
        elif s.dimension == 2:
            a, b, c = s.vertices
            triple = triple_operator(ops[a], ops[b], ops[c],
                                     pairs[(a, b)], pairs[(b, c)], pairs[(a, c)], triple=(a, b, c))
            operator_path[i] = triangle_weight(triple)
    positive = [s.dimension > 0 for s in skeleton]

    def error(weights: np.ndarray) -> float:
        return float(np.max(np.abs(weights[positive] - want[positive]) / want[positive]))

    kernel_error = error(raw_weights(skeleton, ops))
    assert kernel_error <= 1e-13
    assert kernel_error <= error(operator_path)


def test_triangle_without_an_edge_is_rejected():
    skeleton = [Simplex((v,)) for v in range(3)]
    skeleton += [Simplex((0, 1)), Simplex((1, 2)), Simplex((0, 1, 2))]
    message = r"^triangle \(0, 1, 2\) lacks edge \(0, 2\)$"
    with pytest.raises(ValueError, match=message):
        raw_weights(skeleton, identity_ops(3))
    with pytest.raises(ValueError, match=message):
        assign_weights(skeleton, identity_ops(3))


# ---------------------------------------------------------------------------
# monotonicity enforcement


def _tiny_complex(edge_w, tri_w):
    simplexes = [Simplex((v,)) for v in range(3)]
    simplexes += [Simplex(e) for e in [(0, 1), (0, 2), (1, 2)]]
    simplexes.append(Simplex((0, 1, 2)))
    return WeightedComplex(tuple(simplexes), np.array([0.0, 0.0, 0.0, *edge_w, tri_w]))


def test_enforce_lifts_low_triangle():
    cx = enforce_monotone(_tiny_complex([0.2, 0.05, 0.05], 0.1))
    assert weight_of(cx, (0, 1, 2)) == 0.2
    assert weight_of(cx, (0, 1)) == 0.2
    assert weight_of(cx, (0, 2)) == 0.05


def test_enforce_keeps_monotone_complex():
    cx = _tiny_complex([0.1, 0.2, 0.3], 0.5)
    out = enforce_monotone(cx)
    assert np.array_equal(out.weights, cx.weights)


def test_enforce_idempotent_and_matches_oracle():
    rng = np.random.default_rng(47)
    skeleton = complete_skeleton(6)
    weights = np.array([0.0 if s.dimension == 0 else rng.uniform(0, 1) for s in skeleton])
    cx = WeightedComplex(tuple(skeleton), weights)
    once = enforce_monotone(cx)
    twice = enforce_monotone(once)
    assert np.array_equal(once.weights, twice.weights)
    np.testing.assert_array_equal(once.weights, enforce_oracle(cx))
    assert once.is_monotone()


# ---------------------------------------------------------------------------
# filtration order


def test_filtration_dimension_tiebreak():
    simplexes = (Simplex((0,)), Simplex((1,)), Simplex((0, 1)))
    cx = WeightedComplex(simplexes, np.array([0.0, 0.0, 0.0]))
    order = filtration_order(cx)
    assert [cx.simplexes[i].vertices for i in order] == [(0,), (1,), (0, 1)]


def test_filtration_lexicographic_tiebreak():
    simplexes = (
        Simplex((0,)), Simplex((1,)), Simplex((2,)),
        Simplex((1, 2)), Simplex((0, 1)),
    )
    cx = WeightedComplex(simplexes, np.array([0.0, 0.0, 0.0, 0.5, 0.5]))
    order = filtration_order(cx)
    assert [cx.simplexes[i].vertices for i in order] == [
        (0,), (1,), (2,), (0, 1), (1, 2),
    ]


def test_filtration_faces_precede_cofaces():
    data = generate_torus_dataset(
        TorusSpec(m=5, n_samples=6, n_observations=30, r_max=3.0, sigma=0.15, seed=53)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    cx = assign_weights(complete_skeleton(6), ops)
    order = filtration_order(cx)
    rank = {cx.simplexes[i].vertices: pos for pos, i in enumerate(order)}
    for s in cx.simplexes:
        for f in s.facets():
            assert rank[f.vertices] < rank[s.vertices]


def test_filtration_requires_monotone():
    cx = _tiny_complex([0.2, 0.05, 0.05], 0.1)
    with pytest.raises(ValueError, match="monotone"):
        filtration_order(cx)


# ---------------------------------------------------------------------------
# validation and round trip


def test_weighted_complex_validation():
    with pytest.raises(ValueError, match="not closed"):
        WeightedComplex((Simplex((0, 1)),), np.array([0.5]))
    vs = (Simplex((0,)), Simplex((1,)))
    with pytest.raises(ValueError, match="weight 0"):
        WeightedComplex(vs, np.array([0.0, 0.3]))
    with pytest.raises(ValueError, match="weights"):
        WeightedComplex(vs, np.array([0.0]))
    with pytest.raises(ValueError, match="duplicate"):
        WeightedComplex((Simplex((0,)), Simplex((0,))), np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        WeightedComplex(vs, np.array([0.0, np.nan]))


def test_messages_name_a_row_without_building_the_simplexes():
    # naming one row used to build every Simplex of the skeleton
    with pytest.raises(ValueError, match=r"^edge \(5, 9\) lacks vertex \(9,\)$"):
        Skeleton([[5, -1, -1], [5, 9, -1]])
    sparse = Skeleton([[5, -1, -1], [9, -1, -1]])
    with pytest.raises(ValueError, match=r"^vertex \(9,\) must have weight 0$"):
        WeightedComplex(sparse, np.array([0.0, 0.3]))
    skeleton = complete_skeleton(4)
    ops = [sample_diffusion_operator(Sample(np.random.default_rng(v).normal(size=(7, 2))))
           for v in range(4)]
    message = r"^simplex \(3,\) references vertex >= 3 \(one operator per vertex\)$"
    with pytest.raises(ValueError, match=message):
        raw_weights(skeleton, ops[:3])
    zero = re.escape(diffusion._ZERO)
    ops[1] = DiffusionOperator(np.full((7, 7), 1.0 / 7))
    with pytest.raises(ValueError, match=rf"^edge \(0, 1\): pair operator {zero}$"):
        raw_weights(skeleton, ops)
    cycles = [DiffusionOperator(np.eye(3)[list(p)]) for p in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    triangle = complete_skeleton(3)
    with pytest.raises(ValueError, match=rf"^triangle \(0, 1, 2\): triple operator {zero}$"):
        assign_weights(triangle, cycles)
    for table in (sparse, skeleton, triangle):
        assert "_simplexes" not in vars(table)


def test_complex_csv_round_trip(tmp_path):
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=4, n_observations=20, r_max=2.0, sigma=0.1, seed=61)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    cx = assign_weights(complete_skeleton(4), ops)
    path = tmp_path / "complex.csv"
    write_complex_csv(cx, path)
    back = read_complex_csv(path)
    assert [s.vertices for s in back.simplexes] == [s.vertices for s in cx.simplexes]
    assert np.array_equal(back.weights, cx.weights)


def test_complex_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dim,v0,v1,weight\n")
    with pytest.raises(ValueError, match="header"):
        read_complex_csv(p)
    p.write_text("dim,v0,v1,v2,weight\n1,0,1,9,0.5\n")
    # an edge row with a third vertex used to have its own message
    message = r"^malformed complex CSV row: \['1', '0', '1', '9', '0.5'\]$"
    with pytest.raises(ValueError, match=message):
        read_complex_csv(p)


# ---------------------------------------------------------------------------
# facet table against per-simplex Simplex.facets() references


TIES = (0.1, 0.2, 0.3, 0.4, 0.5)


@st.composite
def closed_complexes(draw) -> WeightedComplex:
    """Closed 2-complex on sparse vertex ids, shuffled, with tie-rich weights."""
    ids = sorted(draw(st.sets(st.integers(0, 50), min_size=1, max_size=7)))
    pairs = list(itertools.combinations(ids, 2))
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    spanned = [
        t for t in itertools.combinations(ids, 3)
        if all(e in edges for e in itertools.combinations(t, 2))
    ]
    triangles = draw(st.lists(st.sampled_from(spanned), unique=True)) if spanned else []
    simplexes = draw(st.permutations(
        [Simplex((v,)) for v in ids] + [Simplex(e) for e in edges]
        + [Simplex(t) for t in triangles]
    ))
    weights = [0.0 if s.dimension == 0 else draw(st.sampled_from(TIES)) for s in simplexes]
    return WeightedComplex(tuple(simplexes), np.array(weights))


@settings(max_examples=200, deadline=None)
@given(closed_complexes())
def test_facet_table_matches_simplex_facets(cx):
    for i, s in enumerate(cx.simplexes):
        k = len(s.vertices)
        assert cx.vertices[i].tolist() == list(s.vertices) + [-1] * (3 - k)
        assert cx.dims[i] == s.dimension
        expected = [position(cx, f.vertices) for f in s.facets()]
        assert cx.facets[i].tolist() == expected + [-1] * (3 - len(expected))


@settings(max_examples=200, deadline=None)
@given(closed_complexes())
def test_enforce_monotone_matches_oracle_on_random_complexes(cx):
    np.testing.assert_array_equal(enforce_monotone(cx).weights, enforce_oracle(cx))


REPAIR_LEVELS = (-0.0, 0.0, -0.25, 0.25, 0.5)


@st.composite
def signed_zero_repair_complexes(draw) -> WeightedComplex:
    """A drawn closed complex, listed by dimension, whose vertices weigh
    ``0.0`` or ``-0.0`` and whose edges and triangles draw from a few
    levels: zeros of both signs, ties, and negative edges that repair
    raises to a vertex's zero, so triangles must read repaired edges.

    Within each dimension the order stays drawn.  By dimension, the
    oracle's first pass repairs every edge before any triangle, so its
    fixed point does not depend on the list order even where equal zeros
    of opposite sign meet."""
    cx = draw(closed_complexes())
    simplexes = sorted(cx.simplexes, key=lambda s: s.dimension)
    return WeightedComplex(tuple(simplexes), np.array([
        draw(st.sampled_from(REPAIR_LEVELS[:2] if s.dimension == 0 else REPAIR_LEVELS))
        for s in simplexes
    ]))


@settings(max_examples=300, deadline=None)
@given(signed_zero_repair_complexes())
def test_enforce_monotone_keeps_the_oracle_bits(cx):
    # a tie keeps its own bits and a raise copies the first strictly larger
    # facet, so the signs of equal zeros match the oracle's too
    repaired = enforce_monotone(cx)
    assert repaired.weights.view(np.int64).tolist() == enforce_oracle(cx).view(np.int64).tolist()
    assert repaired.is_monotone()


@settings(max_examples=300, deadline=None)
@given(signed_zero_repair_complexes() | closed_complexes())
def test_is_monotone_is_the_largest_facet_weight_rule(cx):
    largest = [
        max((cx.weights[position(cx, f.vertices)] for f in s.facets()), default=-np.inf)
        for s in cx.simplexes
    ]
    assert cx.is_monotone() == bool((np.array(largest) <= cx.weights).all())


@settings(max_examples=200, deadline=None)
@given(closed_complexes())
def test_filtration_order_matches_sorted_key(cx):
    cx = enforce_monotone(cx)
    key = lambda i: (cx.weights[i], cx.simplexes[i].dimension, cx.simplexes[i].vertices)
    assert filtration_order(cx).tolist() == sorted(range(cx.n_simplexes), key=key)


@settings(max_examples=200, deadline=None)
@given(closed_complexes())
def test_boundary_columns_match_simplex_facets(cx):
    # closed_complexes lists its rows shuffled: vertex ids are not row positions
    cx = enforce_monotone(cx)
    order = filtration_order(cx)
    assert matrix_columns(boundary_matrix(cx, order)) == boundary_columns(cx, order)


# ---------------------------------------------------------------------------
# one facet resolver behind WeightedComplex and raw_weights

KINDS = ("vertex", "edge", "triangle")

# one operator per possible vertex id of closed_complexes (0..50)
RANDOM_OPS = [
    sample_diffusion_operator(Sample(np.random.default_rng(i).normal(size=(5, 2))))
    for i in range(51)
]


@settings(max_examples=100, deadline=None)
@given(closed_complexes(), st.data())
def test_dropping_a_facet_names_the_first_coface(cx, data):
    faces = sorted({f.vertices for s in cx.simplexes for f in s.facets()})
    if not faces:
        return
    face = data.draw(st.sampled_from(faces))
    kept = [s for s in cx.simplexes if s.vertices != face]
    coface = next(s.vertices for s in kept if Simplex(face) in s.facets())
    message = f"{KINDS[len(coface) - 1]} {coface} lacks {KINDS[len(face) - 1]} {face}"
    with pytest.raises(ValueError) as raised:
        WeightedComplex(tuple(kept), np.zeros(len(kept)))
    assert str(raised.value) == f"complex not closed: {message}"
    with pytest.raises(ValueError) as raised:
        raw_weights(kept, RANDOM_OPS)
    assert str(raised.value) == message


@settings(max_examples=100, deadline=None)
@given(closed_complexes(), st.data())
def test_duplicated_simplex_is_rejected(cx, data):
    twin = data.draw(st.sampled_from(cx.simplexes))
    doubled = (*cx.simplexes, twin)
    with pytest.raises(ValueError, match="^duplicate simplexes$"):
        WeightedComplex(doubled, np.append(cx.weights, 0.0 if twin.dimension == 0 else 0.1))
    with pytest.raises(ValueError, match="^duplicate simplexes$"):
        raw_weights(doubled, RANDOM_OPS)


@settings(max_examples=50, deadline=None)
@given(closed_complexes(), st.data())
def test_permuting_the_skeleton_permutes_raw_weights(cx, data):
    perm = data.draw(st.permutations(range(cx.n_simplexes)))
    weights = raw_weights(cx.simplexes, RANDOM_OPS)
    permuted = raw_weights([cx.simplexes[i] for i in perm], RANDOM_OPS)
    assert np.array_equal(permuted, weights[perm])


@settings(max_examples=50, deadline=None)
@given(closed_complexes())
def test_csv_round_trip_resolves_ids_near_a_billion(cx):
    # ids this large would overflow an int64 code of the raw ids
    shift = 10**9
    big = WeightedComplex(
        tuple(Simplex(tuple(v + shift for v in s.vertices)) for s in cx.simplexes),
        cx.weights,
    )
    with tempfile.TemporaryDirectory() as tmp:
        write_complex_csv(big, Path(tmp) / "complex.csv")
        back = read_complex_csv(Path(tmp) / "complex.csv")
    assert np.array_equal(back.vertices, np.where(cx.vertices >= 0, cx.vertices + shift, -1))
    assert np.array_equal(back.dims, cx.dims)
    assert np.array_equal(back.facets, cx.facets)
    assert np.array_equal(back.weights, cx.weights)


# ---------------------------------------------------------------------------
# stacked triangle kernel against the per-simplex operator oracle


def operator_oracle(skeleton, ops) -> np.ndarray:
    """Per simplex ``edge_weight`` / ``triangle_weight`` from the operator objects."""
    pairs = {}

    def pair(a: int, b: int):
        if (a, b) not in pairs:
            pairs[(a, b)] = pair_operator(ops[a], ops[b], pair=(a, b))
        return pairs[(a, b)]

    out = np.zeros(len(skeleton))
    for i, s in enumerate(skeleton):
        if s.dimension == 1:
            out[i] = edge_weight(pair(*s.vertices))
        elif s.dimension == 2:
            a, b, c = s.vertices
            out[i] = triangle_weight(triple_operator(
                ops[a], ops[b], ops[c], pair(a, b), pair(b, c), pair(a, c), triple=(a, b, c),
            ))
    return out


@settings(max_examples=100, deadline=None)
@given(closed_complexes())
def test_raw_weights_match_the_operator_oracle(cx):
    # sparse ids, shuffled, partial skeletons: stacks are gathered and slots
    # land away from their canonical positions
    want = operator_oracle(cx.simplexes, RANDOM_OPS)
    got = raw_weights(cx.simplexes, RANDOM_OPS)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert got == pytest.approx(want, rel=1e-13)


def test_raw_weights_in_full_groups_with_an_odd_operator_size():
    # nine vertices: runs of up to seven triangles, pooled into gathered
    # chunks; L = 25 leaves the stacked matrices off 64-byte boundaries
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=9, n_observations=25, r_max=3.0, sigma=0.1, seed=67)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    skeleton = complete_skeleton(9)
    weights = raw_weights(skeleton, ops)
    assert weights == pytest.approx(operator_oracle(skeleton, ops), rel=1e-13)
    perm = np.random.default_rng(71).permutation(len(skeleton))
    permuted = raw_weights([skeleton[i] for i in perm], ops)
    assert np.array_equal(permuted, weights[perm])


def triangle_groups_of(cx: WeightedComplex, chunk: int = 1):
    """The positions of the edges and triangles of ``cx`` and the groups of
    its triangles, from the tables ``_weights`` passes."""
    edges, triangles = np.flatnonzero(cx.dims == 1), np.flatnonzero(cx.dims == 2)
    rank = np.cumsum(cx.dims == 1) - 1
    groups = _triangle_groups(cx.vertices[triangles], rank[cx.facets[triangles]], chunk)
    return edges, triangles, list(groups)


def test_a_complete_skeleton_gives_one_view_per_first_edge():
    # canonical order makes every stack of a complete skeleton a view
    n = 8
    skeleton = complete_skeleton(n)
    cx = WeightedComplex(tuple(skeleton), np.zeros(len(skeleton)))
    edges, triangles, groups = triangle_groups_of(cx)
    edge_list = list(itertools.combinations(range(n), 2))
    assert [skeleton[i].vertices for i in edges] == edge_list
    assert [skeleton[i].vertices for i in triangles] == list(itertools.combinations(range(n), 3))
    assert [(a, b) for _, a, b, *_ in groups] == list(itertools.combinations(range(n - 1), 2))
    for at, a, b, ab, c, bc, ac in groups:
        assert all(isinstance(run, slice) for run in (at, c, bc, ac))
        assert [skeleton[i].vertices for i in triangles[at]] == [(a, b, v) for v in range(n)[c]]
        assert edge_list[ab] == (a, b)
        assert edge_list[bc] == [(b, v) for v in range(b + 1, n)]
        assert edge_list[ac] == [(a, v) for v in range(b + 1, n)]


def test_runs_shorter_than_a_chunk_are_pooled_in_order():
    # n = 7 has runs of 5, 4, 3, 2 and 1 triangles: with chunk 3 the runs of
    # at least 3 stay views, and the rest is cut into gathered chunks of 3
    n = 7
    skeleton = complete_skeleton(n)
    cx = WeightedComplex(tuple(skeleton), np.zeros(len(skeleton)))
    _, triangles, groups = triangle_groups_of(cx, chunk=3)
    runs = [g for g in groups if isinstance(g[0], slice)]
    chunks = [g for g in groups if not isinstance(g[0], slice)]
    assert all(g[0].stop - g[0].start >= 3 for g in runs)
    assert {len(g[0]) for g in chunks[:-1]} == {3} and len(chunks[-1][0]) < 3
    pooled = np.concatenate([g[0] for g in chunks])
    assert np.array_equal(pooled, np.sort(pooled))
    covered = np.concatenate([np.arange(len(triangles))[g[0]] for g in groups])
    assert np.array_equal(np.sort(covered), np.arange(len(triangles)))
    for at, a, b, ab, c, bc, ac in chunks:
        corners = np.stack([a, b, c], axis=1)
        assert [tuple(v) for v in corners.tolist()] == [skeleton[i].vertices for i in triangles[at]]


def test_a_run_out_of_order_is_gathered():
    # the triangles on (0, 1) listed with c = 2, 4, 3, 5: the ends of the run
    # are as far apart as in a consecutive one, but its middle is not
    n = 6
    skeleton = complete_skeleton(n)
    first_edge = {v: s for s in skeleton if s.dimension == 2 and s.vertices[:2] == (0, 1)
                  for v in s.vertices[2:]}
    rest = [s for s in skeleton if s.dimension < 2 or s.vertices[:2] != (0, 1)]
    shuffled = rest[:-1] + [first_edge[v] for v in (2, 4, 3, 5)] + rest[-1:]
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=n, n_observations=12, r_max=3.0, sigma=0.1, seed=79)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    weights = raw_weights(shuffled, ops)
    assert weights == pytest.approx(operator_oracle(shuffled, ops), rel=1e-13)
    by_simplex = dict(zip(skeleton, raw_weights(skeleton, ops)))
    assert np.array_equal(weights, [by_simplex[s] for s in shuffled])
    cx = WeightedComplex(tuple(shuffled), np.zeros(len(shuffled)))
    _, _, groups = triangle_groups_of(cx)
    (_, _, _, _, c, bc, ac), = [g for g in groups if g[1:3] == (0, 1)]
    assert c.tolist() == [2, 4, 3, 5]
    assert not any(isinstance(run, slice) for run in (bc, ac))


def test_the_edge_error_names_the_first_zero_edge_in_skeleton_order():
    size = 7
    ops = [sample_diffusion_operator(Sample(np.random.default_rng(v).normal(size=(size, 2))))
           for v in range(3)]
    ops[1] = DiffusionOperator(np.full((size, size), 1.0 / size))
    # (0, 1) and (1, 2) are both zero; (1, 2) is listed first
    skeleton = [Simplex((v,)) for v in range(3)]
    skeleton += [Simplex((1, 2)), Simplex((0, 2)), Simplex((0, 1))]
    with pytest.raises(ValueError, match=r"^edge \(1, 2\): .*zero matrix"):
        raw_weights(skeleton, ops)


def test_the_triangle_error_names_the_first_zero_triangle_in_skeleton_order():
    # I, R, R^-1 twice: (0, 1, 2) and (3, 4, 5) both vanish, as in
    # test_cyclic_permutations_give_the_triangle_error; (3, 4, 5) is listed first
    cycles = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ops = [DiffusionOperator(np.eye(3)[list(p)]) for p in cycles * 2]
    skeleton = [s for s in complete_skeleton(6) if s.dimension < 2]
    skeleton += [Simplex((3, 4, 5)), Simplex((0, 1, 2))]
    with pytest.raises(ValueError, match=r"^triangle \(3, 4, 5\): .*zero matrix"):
        raw_weights(skeleton, ops)


def test_no_operators():
    assert raw_weights([], []).shape == (0,)
    assert assign_weights([], []).n_simplexes == 0
    message = r"^simplex \(0,\) references vertex >= 0 \(one operator per vertex\)$"
    with pytest.raises(ValueError, match=message):
        raw_weights([Simplex((0,))], [])
    with pytest.raises(ValueError, match=message):
        assign_weights([Simplex((0,))], [])


# ---------------------------------------------------------------------------
# assign_weights skips the triangles that monotone repair provably overwrites


def monotone_raw(skeleton, ops) -> np.ndarray:
    """What assign_weights must return: repair over every exact raw weight."""
    return enforce_monotone(WeightedComplex(skeleton, raw_weights(skeleton, ops))).weights


def rank_one_operator(size: int, scale: float) -> np.ndarray:
    """``11^T / L + scale u u^T`` for the alternating unit vector ``u``: its
    centered operator is ``scale u u^T``, shared up to scale by every such
    operator of one size.  Row-stochastic for an even size and ``|scale| <= 1``.

    For three of them with scales ``|x| <= |y| <= |z|`` the triangle weighs
    ``1 / (12 |x y z|)`` and its largest edge ``1 / (2 |x y|)``: a scale of
    1/6 on the third vertex ties them, a larger one puts the triangle below.
    """
    u = np.resize([1.0, -1.0], size) / np.sqrt(size)
    return np.full((size, size), 1.0 / size) + scale * np.outer(u, u)


SCALES = (1 / 8, 1 / 6, -1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2, 0.9)


@st.composite
def weighed_skeletons(draw):
    """A complete or grid skeleton and one operator per vertex, each either a
    rank-one operator of :func:`rank_one_operator` (ties included) or a
    random row-stochastic one."""
    if draw(st.booleans()):
        skeleton = complete_skeleton(draw(st.integers(3, 7)))
    else:
        skeleton = grid_skeleton(draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    n = int(skeleton.vertices.max()) + 1
    size = draw(st.sampled_from((2, 4, 6, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ops = []
    for _ in range(n):
        if draw(st.booleans()):
            ops.append(rank_one_operator(size, draw(st.sampled_from(SCALES))))
        else:
            k = rng.random((size, size)) ** draw(st.sampled_from((1, 8)))
            ops.append(k / k.sum(axis=1, keepdims=True))
    return skeleton, [DiffusionOperator(k) for k in ops]


@settings(max_examples=150, deadline=None)
@given(weighed_skeletons())
def test_assign_weights_equals_repair_over_the_exact_raw_weights(case):
    skeleton, ops = case
    try:
        want = monotone_raw(skeleton, ops)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            assign_weights(skeleton, ops)
        return
    assert np.array_equal(assign_weights(skeleton, ops).weights, want)


def spy_certified(monkeypatch) -> list[np.ndarray]:
    """Record each mask the certification returns."""
    masks, certified = [], complexes._certified

    def spy(*args):
        masks.append(certified(*args))
        return masks[-1]

    monkeypatch.setattr(complexes, "_certified", spy)
    return masks


@pytest.mark.parametrize("size", [2, 4, 10, 16])
def test_a_tie_with_the_largest_edge_weight_is_weighed(monkeypatch, size):
    # the shared direction u is in the subspace, so the bound is the norm up
    # to rounding; within the margin the triangle must reach the exact kernel
    scales = (1 / 8, 1 / 7, 1 / 6, 1 / 5, -1 / 6, 1 / 6, 1 / 4, 1 / 6, -1 / 8)
    ops = [DiffusionOperator(rank_one_operator(size, x)) for x in scales]
    skeleton = complete_skeleton(len(scales))
    masks = spy_certified(monkeypatch)
    got = assign_weights(skeleton, ops).weights
    assert np.array_equal(got, monotone_raw(skeleton, ops))
    a, b, c = skeleton.vertices[skeleton.dims == 2].T
    x, y, z = np.sort(np.abs(np.array(scales)[[a, b, c]]), axis=0)
    ties, below = z == 1 / 6, z > 1 / 6
    assert ties.any() and below.any()
    (mask,) = masks
    assert not mask[ties].any()
    assert mask[below].all()


def full_basis(size: int):
    """A random orthogonal ``L x L`` basis, for which the bound is the norm."""
    q = np.linalg.qr(np.random.default_rng(size).normal(size=(size, size)))[0]
    return lambda g: q


def test_with_a_full_basis_every_triangle_clearly_below_its_edges_is_skipped(monkeypatch):
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=8, n_observations=24, r_max=15.0, sigma=0.1, seed=83)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    skeleton = complete_skeleton(8)
    monkeypatch.setattr(complexes, "_subspace", full_basis(24))
    masks = spy_certified(monkeypatch)
    got = assign_weights(skeleton, ops).weights
    assert np.array_equal(got, monotone_raw(skeleton, ops))
    cx = WeightedComplex(skeleton, raw_weights(skeleton, ops))
    triangles = cx.dims == 2
    raw, top = cx.weights[triangles], cx.weights[cx.facets[triangles]].max(axis=1)
    low = raw < top * (1 - 1e-9)
    # a spread of edge weights: the largest, not the smallest, decides
    assert (low & (raw > cx.weights[cx.facets[triangles]].min(axis=1))).any()
    (mask,) = masks
    assert mask[low].all()
    assert not mask[raw > top * (1 - 1e-11)].any()


def test_the_bound_never_exceeds_the_exact_norm():
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=7, n_observations=16, r_max=15.0, sigma=0.1, seed=89)
    )
    torus = [sample_diffusion_operator(s) for s in data.samples]
    # rank-one operators put every triple operator in the subspace: tight
    scales = (1 / 8, 1 / 6, 1 / 5, 1 / 3, 1 / 2, 0.9, -0.4)
    rank_one = [DiffusionOperator(rank_one_operator(16, x)) for x in scales]
    skeleton = complete_skeleton(7)
    for ops, tight in ((torus, False), (rank_one, True)):
        cx = WeightedComplex(skeleton, raw_weights(skeleton, ops))
        triangles = cx.dims == 2
        g, _ = complexes._centered_operators(ops)
        a, b = cx.vertices[cx.dims == 1, :2].T
        pairs = np.matmul(g[a], g[b].transpose(0, 2, 1))
        pairs += pairs.transpose(0, 2, 1).copy()
        rank = np.cumsum(cx.dims == 1) - 1
        args = (g, pairs, cx.vertices[triangles], rank[cx.facets[triangles]])
        norm = 1.0 / cx.weights[triangles]
        assert not complexes._certified(*args, norm * (1 + 1e-6)).any()
        assert complexes._certified(*args, norm * (1 - 1e-3)).all() == tight


@pytest.mark.parametrize("size", [2, 3, 16, 17, 100])
def test_the_subspace_has_ceil_sqrt_l_orthonormal_columns(size):
    k = np.random.default_rng(size).random((3, size, size))
    for ops in (k / k.sum(axis=2, keepdims=True), [rank_one_operator(2 * size, 0.3)] * 2):
        q = complexes._subspace(complexes._centered(np.asarray(ops))[0])
        side = q.shape[0]
        assert q.shape == (side, int(np.ceil(np.sqrt(side))))
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)


@pytest.mark.parametrize("chunk", [1, 3, 100])
def test_weight_bits_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # L = 100 makes every run fill a chunk, and einsum sums a one-matrix
    # stack in another order there; chunks of 3 triangles leave the run on
    # (0, 1) a view and pool the other 7 into chunks of 3, 3 and 1, and
    # chunks of 100 pool all 10 into one
    data = generate_torus_dataset(
        TorusSpec(m=8, n_samples=5, n_observations=100, r_max=15.0, sigma=0.1, seed=8)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    skeleton = complete_skeleton(5)
    want, want_monotone = raw_weights(skeleton, ops), monotone_raw(skeleton, ops)
    groups, triangle_groups = [], complexes._triangle_groups

    def spy(*args):
        groups.append(list(triangle_groups(*args)))
        return groups[-1]

    monkeypatch.setattr(diffusion, "_CHUNK_BYTES", chunk * 3 * 8 * 100**2)
    monkeypatch.setattr(complexes, "_triangle_groups", spy)
    assert np.array_equal(raw_weights(skeleton, ops), want)
    sizes = [np.arange(10)[at].size for at, *_ in groups[-1]]
    viewed = [isinstance(at, slice) for at, *_ in groups[-1]]
    assert (sizes, viewed) == {
        1: ([3, 2, 1, 2, 1, 1], [True] * 6),
        3: ([3, 3, 3, 1], [True, False, False, False]),
        100: ([10], [False]),
    }[chunk]
    assert np.array_equal(assign_weights(skeleton, ops).weights, want_monotone)


@pytest.mark.parametrize("size", [20, 100])
def test_permuting_a_skeleton_permutes_its_weights(size):
    # most triangles of a shuffled skeleton are alone in their run; at
    # L = 100 each is summed as in a longer stack
    data = generate_torus_dataset(
        TorusSpec(m=8, n_samples=6, n_observations=size, r_max=15.0, sigma=0.1, seed=8)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    skeleton = complete_skeleton(6)
    perm = np.random.default_rng(3).permutation(len(skeleton))
    permuted = [skeleton[i] for i in perm]
    assert np.array_equal(raw_weights(permuted, ops), raw_weights(skeleton, ops)[perm])
    want = assign_weights(skeleton, ops).weights[perm]
    assert np.array_equal(assign_weights(permuted, ops).weights, want)


def test_assign_weights_names_the_first_zero_triangle_in_skeleton_order():
    # as test_the_triangle_error_names_the_first_zero_triangle_in_skeleton_order:
    # a zero triangle has bound 0, so it is never skipped past its guard
    cycles = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ops = [DiffusionOperator(np.eye(3)[list(p)]) for p in cycles * 2]
    skeleton = [s for s in complete_skeleton(6) if s.dimension < 2]
    skeleton += [Simplex((3, 4, 5)), Simplex((0, 1, 2))]
    with pytest.raises(ValueError, match=r"^triangle \(3, 4, 5\): .*zero matrix"):
        assign_weights(skeleton, ops)


def test_normalize_divides_by_the_median_of_the_monotone_weights():
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=6, n_observations=20, r_max=2.0, sigma=0.1, seed=97)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    skeleton = complete_skeleton(6)
    monotone = assign_weights(skeleton, ops).weights
    median = np.median(monotone[skeleton.dims > 0])
    assert np.median(raw_weights(skeleton, ops)[skeleton.dims > 0]) != median
    normalized = build_weighted_complex(data, PipelineConfig(normalize=True))
    assert np.array_equal(normalized.weights, monotone / median)


# ---------------------------------------------------------------------------
# table-built skeletons and CSV writer against the per-simplex references


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_skeleton_matches_the_simplex_list(n):
    assert list(complete_skeleton(n)) == complete_skeleton_reference(n)


def test_grid_skeleton_matches_the_simplex_list():
    for rows, cols in itertools.product(range(1, 9), repeat=2):
        if rows * cols >= 2:
            assert list(grid_skeleton(rows, cols)) == grid_skeleton_reference(rows, cols)


def test_skeleton_is_a_sequence_of_simplexes():
    sk, listed = complete_skeleton(5), complete_skeleton_reference(5)
    assert isinstance(sk, Sequence)
    assert len(sk) == len(listed) == 25
    assert sk[0] == Simplex((0,)) and sk[-1] == listed[-1] == Simplex((2, 3, 4))
    assert sk[-11] == listed[-11]
    assert sk[4:9] == tuple(listed[4:9]) and sk[::-7] == tuple(listed[::-7])
    assert list(sk) == listed and tuple(sk) == tuple(listed)
    assert Simplex((1, 3)) in sk and sk.index(Simplex((1, 3))) == listed.index(Simplex((1, 3)))
    with pytest.raises(IndexError):
        sk[25]
    with pytest.raises(ValueError, match="read-only"):
        sk.vertices[0, 0] = 1
    weights = np.where(sk.dims == 0, 0.0, np.linspace(1.0, 2.0, len(sk)))
    shared, resolved = WeightedComplex(sk, weights), WeightedComplex(tuple(sk), weights)
    assert shared.simplexes is sk
    for name in ("vertices", "dims", "facets"):
        assert np.array_equal(getattr(shared, name), getattr(resolved, name))


@pytest.mark.parametrize(
    "row", [[1, 0, -1], [0, 0, -1], [-2, -1, -1], [-1, -1, -1], [0, -1, 3], [0, 2, -5]]
)
def test_skeleton_rejects_malformed_rows(row):
    with pytest.raises(ValueError, match=rf"^simplex row \[{row[0]}, .* padded with -1$"):
        Skeleton([[0, -1, -1], row])


@pytest.mark.parametrize(
    "table, message",
    [
        # truncating these would give the rows 0, 1 and (0, 1)
        ([[0.7, -1, -1], [1.2, -1, -1], [0.9, 1.9, -1]],
         "vertex id must be an integer, got 0.7"),
        (np.array([[True, False, False]]), "vertex id must be an integer, got True"),
        ([0, -1, -1, 1, -1, -1, 0, 1, -1], r"vertex table must be N x 3, got shape \(9,\)"),
        ([[[0, -1, -1], [1, -1, -1]]], r"vertex table must be N x 3, got shape \(1, 2, 3\)"),
        ([[0, -1], [1, -1]], r"vertex table must be N x 3, got shape \(2, 2\)"),
        # these used to raise OverflowError, and the uint64 table to build vertices 0 and 1
        ([[2**70, -1, -1]], "vertex id must fit in 64 bits, got 1180591620717411303424"),
        (np.array([[0, 2**64 - 1, 2**64 - 1], [1, 2**64 - 1, 2**64 - 1]], dtype=np.uint64),
         "vertex id must fit in 64 bits, got 18446744073709551615"),
    ],
)
def test_skeleton_takes_only_an_integer_n_by_3_table(table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Skeleton(table)


@pytest.mark.parametrize(
    "table, named",
    [
        # NumPy reads these lists as int64 tables, so a dtype check passes them
        ([[0, -1, -1], [True, -1, -1]], "True"),
        ([[0, -1, -1], [1, -1, -1], [0, np.True_, -1]], "np.True_"),
    ],
)
def test_skeleton_refuses_a_bool_in_an_integer_list_table(table, named):
    # [[0, -1, -1], [True, -1, -1]] used to build vertex 1
    with pytest.raises(ValueError, match=f"^vertex id must be an integer, got {re.escape(named)}$"):
        Skeleton(table)


@pytest.mark.parametrize(
    "vertices, named",
    [
        ((0, 1.7), "1.7"), ((True, 2), "True"), (("1", 2), "'1'"),
        ((0, 1, np.float64(2)), "np.float64(2.0)"),
    ],
)
def test_simplex_refuses_ids_that_are_not_integers(vertices, named):
    # Simplex((0, 1.7)) used to hold the edge (0, 1)
    with pytest.raises(ValueError, match=f"^vertex id must be an integer, got {re.escape(named)}$"):
        Simplex(vertices)


def test_simplex_takes_numpy_integer_ids_as_python_ints():
    v = Simplex((np.int64(0), np.int32(2))).vertices
    assert v == (0, 2) and {type(x) for x in v} == {int}


def test_skeleton_takes_python_and_numpy_integers_and_the_empty_table():
    rows = [[0, -1, -1], [1, -1, -1], [0, 1, -1]]
    for table in (rows, np.array(rows, dtype=np.int32), [list(map(np.int64, r)) for r in rows]):
        assert Skeleton(table).vertices.tolist() == rows
    for empty in ([], np.empty((0, 3)), np.empty((0, 3), dtype=np.int64)):
        assert Skeleton(empty).vertices.shape == (0, 3)


@pytest.mark.parametrize(
    "build, args, name, value",
    [
        (complete_skeleton, (3.0,), "n_vertices", 3.0),
        (complete_skeleton, (True,), "n_vertices", True),
        (grid_skeleton, (2.0, 3), "rows", 2.0),
        (grid_skeleton, (2, np.float64(3)), "cols", np.float64(3)),
        (grid_skeleton, (2, True), "cols", True),
    ],
)
def test_skeleton_builders_take_only_integer_counts(build, args, name, value):
    message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_skeleton_builders_take_numpy_integer_counts():
    assert np.array_equal(complete_skeleton(np.int64(4)).vertices, complete_skeleton(4).vertices)
    grid = grid_skeleton(np.int32(2), np.int64(3))
    assert np.array_equal(grid.vertices, grid_skeleton(2, 3).vertices)


WIDE = st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def wide_complexes(draw) -> WeightedComplex:
    """A drawn closed complex, its ids shifted to 10 or more, its positive-
    dimension weights drawn from the smallest subnormal to 1e300."""
    cx = draw(closed_complexes())
    shift = draw(st.integers(10, 10**12))
    return WeightedComplex(
        tuple(Simplex(tuple(v + shift for v in s.vertices)) for s in cx.simplexes),
        np.array([0.0 if d == 0 else draw(WIDE) for d in cx.dims.tolist()]),
    )


def assert_csv_matches_the_csv_writer_and_round_trips(cx: WeightedComplex) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        write_complex_csv(cx, ours)
        write_complex_csv_reference(cx, reference)
        assert ours.read_bytes() == reference.read_bytes()
        back = read_complex_csv(ours)
    assert np.array_equal(back.vertices, cx.vertices)
    assert back.weights.tobytes() == cx.weights.tobytes()


@settings(max_examples=200, deadline=None)
@given(wide_complexes())
def test_complex_csv_bytes_match_the_csv_writer_and_round_trip(cx):
    assert_csv_matches_the_csv_writer_and_round_trips(cx)


@st.composite
def signed_zero_complexes(draw) -> WeightedComplex:
    """A drawn closed complex whose vertices weigh 0.0 or -0.0 and whose
    edges and triangles draw from a few weights, so most weights repeat."""
    cx = draw(closed_complexes())
    pool = (-0.0, 0.0, 5e-324, 0.5, 1e300)
    return WeightedComplex(cx.simplexes, np.array([
        draw(st.sampled_from(pool[:2] if d == 0 else pool)) for d in cx.dims.tolist()
    ]))


@settings(max_examples=200, deadline=None)
@given(signed_zero_complexes())
def test_complex_csv_writes_each_signed_zero_and_repeat_as_the_csv_writer(cx):
    # the writer forms one text per distinct weight: -0.0 and 0.0 compare
    # equal but are distinct bit patterns, each written as repr gives it
    assert_csv_matches_the_csv_writer_and_round_trips(cx)


def test_empty_complex_csv_is_the_header_alone(tmp_path):
    write_complex_csv(assign_weights([], []), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == b"dim,v0,v1,v2,weight\r\n"
    assert read_complex_csv(tmp_path / "empty.csv").n_simplexes == 0


def test_complex_csv_rejects_a_dim_outside_0_to_2(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dim,v0,v1,v2,weight\n0,0,,,0.0\n3,0,1,2,0.5\n")
    message = r"^malformed complex CSV row: \['3', '0', '1', '2', '0.5'\]$"
    with pytest.raises(ValueError, match=message):
        read_complex_csv(p)


@pytest.mark.parametrize(
    "row",
    [
        "1,0,x,,0.5", "1,0,1,,heavy", "1,0,1,0.5", "2,0,1,2,0.5,7", "1,0,-,,0.5",
        # an id beyond int64 used to escape as an OverflowError
        "0,99999999999999999999,,,0.0", "1,0,-99999999999999999999,,0.5",
    ],
)
def test_complex_csv_names_the_row_that_does_not_parse(tmp_path, row):
    p = tmp_path / "bad.csv"
    p.write_text(f"dim,v0,v1,v2,weight\n0,0,,,0.0\n0,1,,,0.0\n{row}\n2,0,1,2,x\n")
    message = re.escape(f"malformed complex CSV row: {row.split(',')}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_complex_csv(p)


@pytest.mark.parametrize("row", ["1,0,-1,,0.5", "1,-3,1,,0.5", "2,0,1,-2,0.5"])
def test_complex_csv_names_a_row_with_a_negative_id(tmp_path, row):
    # 1,0,-1,,0.5 used to read as the vertex 0 and fail as "duplicate simplexes"
    p = tmp_path / "bad.csv"
    p.write_text(f"dim,v0,v1,v2,weight\n0,0,,,0.0\n0,1,,,0.0\n1,0,1,,0.5\n{row}\n")
    message = re.escape(f"malformed complex CSV row: {row.split(',')}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_complex_csv(p)


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_complex_csv_names_a_row_whose_weight_is_not_finite(tmp_path, weight):
    # such a row used to fail as "weights must be finite", naming no row
    p = tmp_path / "bad.csv"
    p.write_text(f"dim,v0,v1,v2,weight\n0,0,,,0.0\n0,1,,,0.0\n1,0,1,,{weight}\n")
    message = re.escape(f"malformed complex CSV row: {['1', '0', '1', '', weight]}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_complex_csv(p)


def test_complex_csv_rejects_a_blank_vertex_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dim,v0,v1,v2,weight\n0,0,,,0.0\n1,0,,,0.5\n")
    message = r"^malformed complex CSV row: \['1', '0', '', '', '0.5'\]$"
    with pytest.raises(ValueError, match=message):
        read_complex_csv(p)
