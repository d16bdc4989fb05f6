"""Tests for pair/triple alternating-diffusion operators and their weights."""

import re

import numpy as np
import pytest

from topodist.alternating import (
    PairOperator,
    TripleOperator,
    edge_weight,
    pair_operator,
    triangle_weight,
    triple_operator,
)
from topodist.diffusion import DiffusionOperator


# ---------------------------------------------------------------------------
# oracles


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for c in range(n):
                out[i, j] += a[i, c] * b[c, j]
    return out


def naive_pair(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    return naive_matmul(k1, k2.T) + naive_matmul(k2, k1.T)


def naive_triple(
    k1: np.ndarray, k2: np.ndarray, k3: np.ndarray,
    s12: np.ndarray, s23: np.ndarray, s13: np.ndarray,
) -> np.ndarray:
    return (
        naive_matmul(s12, k3.T) + naive_matmul(k3, s12)
        + naive_matmul(s23, k1.T) + naive_matmul(k1, s23)
        + naive_matmul(s13, k2.T) + naive_matmul(k2, s13)
    )


def random_stochastic(rng: np.random.Generator, n: int) -> DiffusionOperator:
    m = rng.uniform(0.1, 1.0, size=(n, n))
    return DiffusionOperator(m / m.sum(axis=1)[:, np.newaxis])


def identity_operator(n: int) -> DiffusionOperator:
    return DiffusionOperator(np.eye(n))


# ---------------------------------------------------------------------------
# pair operator


def test_pair_of_identities_is_twice_identity():
    s = pair_operator(identity_operator(4), identity_operator(4))
    assert np.array_equal(s.entries, 2.0 * np.eye(4))
    assert s.pair == (0, 1)


def test_pair_with_one_identity_absorbs():
    rng = np.random.default_rng(3)
    k = random_stochastic(rng, 5)
    s = pair_operator(identity_operator(5), k)
    np.testing.assert_allclose(s.entries, k.entries + k.entries.T, rtol=0.0, atol=1e-15)


def test_pair_matches_naive_oracle():
    rng = np.random.default_rng(11)
    k1 = random_stochastic(rng, 5)
    k2 = random_stochastic(rng, 5)
    s = pair_operator(k1, k2, pair=(3, 7))
    np.testing.assert_allclose(
        s.entries, naive_pair(k1.entries, k2.entries), rtol=0.0, atol=1e-12
    )
    assert np.abs(s.entries - s.entries.T).max() <= 1e-12
    assert s.pair == (3, 7)


def test_pair_argument_order_irrelevant():
    rng = np.random.default_rng(13)
    k1 = random_stochastic(rng, 6)
    k2 = random_stochastic(rng, 6)
    a = pair_operator(k1, k2).entries
    b = pair_operator(k2, k1).entries
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15)


def test_pair_dimension_mismatch():
    with pytest.raises(ValueError, match="sizes differ"):
        pair_operator(identity_operator(3), identity_operator(4))


def test_pair_operator_validation():
    with pytest.raises(ValueError, match="symmetric"):
        PairOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (0, 1))
    with pytest.raises(ValueError, match="distinct"):
        PairOperator(np.zeros((2, 2)), (1, 1))
    assert PairOperator(np.zeros((2, 2)), (5, 2)).pair == (2, 5)


@pytest.mark.parametrize("pair, named", [((0, 1.5), "1.5"), ((True, 2), "True"), (("0", 1), "'0'")])
def test_pair_tag_refuses_ids_that_are_not_integers(pair, named):
    # pair=(0, 1.5) used to tag the operator (0, 1)
    message = f"^vertex id must be an integer, got {re.escape(named)}$"
    with pytest.raises(ValueError, match=message):
        pair_operator(identity_operator(3), identity_operator(3), pair=pair)
    with pytest.raises(ValueError, match=message):
        PairOperator(np.zeros((2, 2)), pair)


def test_tags_take_numpy_integers_as_python_ints():
    ks = [identity_operator(2) for _ in range(3)]
    s = pair_operator(ks[0], ks[1], pair=(np.int64(4), np.int32(1)))
    assert s.pair == (1, 4) and {type(v) for v in s.pair} == {int}
    t = triple_operator(*ks, *_faces(*ks), triple=(np.int64(0), 1, np.int32(2)))
    assert t.triple == (0, 1, 2) and {type(v) for v in t.triple} == {int}


# ---------------------------------------------------------------------------
# triple operator


def _faces(k1, k2, k3, ids=(0, 1, 2)):
    i1, i2, i3 = ids
    return (
        pair_operator(k1, k2, pair=(i1, i2)),
        pair_operator(k2, k3, pair=(i2, i3)),
        pair_operator(k1, k3, pair=(i1, i3)),
    )


def test_triple_of_identities_is_twelve_identity():
    ks = [identity_operator(2) for _ in range(3)]
    s = triple_operator(*ks, *_faces(*ks))
    np.testing.assert_allclose(s.entries, 12.0 * np.eye(2), rtol=0.0, atol=1e-15)


def test_triple_matches_naive_oracle():
    rng = np.random.default_rng(29)
    k1, k2, k3 = (random_stochastic(rng, 4) for _ in range(3))
    s12, s23, s13 = _faces(k1, k2, k3)
    s = triple_operator(k1, k2, k3, s12, s23, s13)
    expected = naive_triple(
        k1.entries, k2.entries, k3.entries, s12.entries, s23.entries, s13.entries
    )
    np.testing.assert_allclose(s.entries, expected, rtol=0.0, atol=1e-12)
    assert np.abs(s.entries - s.entries.T).max() <= 1e-12


def test_triple_permutation_invariant():
    rng = np.random.default_rng(31)
    k = {0: random_stochastic(rng, 5), 1: random_stochastic(rng, 5), 2: random_stochastic(rng, 5)}
    s = {
        (0, 1): pair_operator(k[0], k[1], pair=(0, 1)),
        (1, 2): pair_operator(k[1], k[2], pair=(1, 2)),
        (0, 2): pair_operator(k[0], k[2], pair=(0, 2)),
    }
    base = triple_operator(k[0], k[1], k[2], s[(0, 1)], s[(1, 2)], s[(0, 2)]).entries
    for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
        a, b, c = perm
        got = triple_operator(
            k[a], k[b], k[c],
            s[tuple(sorted((a, b)))], s[tuple(sorted((b, c)))], s[tuple(sorted((a, c)))],
            triple=perm,
        )
        np.testing.assert_allclose(got.entries, base, rtol=0.0, atol=1e-13)
        assert got.triple == (0, 1, 2)


def test_triple_rejects_mismatched_face_tags():
    ks = [identity_operator(3) for _ in range(3)]
    s12, s23, s13 = _faces(*ks)
    with pytest.raises(ValueError, match="face"):
        triple_operator(*ks, s23, s12, s13)


def test_triple_dimension_mismatch():
    k_small = identity_operator(3)
    ks = [identity_operator(4) for _ in range(3)]
    s12, s23, s13 = _faces(*ks)
    with pytest.raises(ValueError, match="sizes"):
        triple_operator(k_small, ks[1], ks[2], s12, s23, s13)


def test_triple_operator_validation():
    with pytest.raises(ValueError, match="distinct"):
        TripleOperator(np.zeros((2, 2)), (0, 1, 1))
    with pytest.raises(ValueError, match="symmetric"):
        TripleOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (0, 1, 2))


@pytest.mark.parametrize(
    "triple, named",
    [((0, 1, 2.5), "2.5"), ((0, True, 2), "True"), ((0, 1, np.float64(2)), "np.float64(2.0)")],
)
def test_triple_tag_refuses_ids_that_are_not_integers(triple, named):
    # triple=(0, 1, 2.5) used to tag the operator (0, 1, 2)
    ks = [identity_operator(2) for _ in range(3)]
    message = f"^vertex id must be an integer, got {re.escape(named)}$"
    with pytest.raises(ValueError, match=message):
        triple_operator(*ks, *_faces(*ks), triple=triple)
    with pytest.raises(ValueError, match=message):
        TripleOperator(np.zeros((2, 2)), triple)


# ---------------------------------------------------------------------------
# weights


def test_edge_weight_hand_values():
    # P (cI) P = cP and P is a rank-(L-1) projector, so ||P (cI) P||_F = c sqrt(L-1)
    s2 = PairOperator(2.0 * np.eye(2), (0, 1))
    assert edge_weight(s2) == pytest.approx(1.0 / (2.0 * np.sqrt(1.0)), abs=1e-15)
    assert edge_weight(s2) == pytest.approx(0.5, abs=1e-15)
    s200 = PairOperator(2.0 * np.eye(200), (0, 1))
    assert edge_weight(s200) == pytest.approx(0.03544406025041679, abs=1e-15)


def test_edge_weight_scaling():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(5, 5))
    m = m + m.T
    base = edge_weight(PairOperator(m, (0, 1)))
    scaled = edge_weight(PairOperator(3.0 * m, (0, 1)))
    assert scaled == pytest.approx(base / 3.0, rel=1e-14)


def test_triangle_weight_hand_value():
    # ||P (12 I_2) P||_F = 12 sqrt(2 - 1)
    s = TripleOperator(12.0 * np.eye(2), (0, 1, 2))
    assert triangle_weight(s) == pytest.approx(1.0 / (12.0 * np.sqrt(1.0)), abs=1e-15)
    assert triangle_weight(s) == pytest.approx(0.08333333333333333, abs=1e-15)


def test_identity_triangle_weight_below_edge_weight():
    # raw triangle weights sit below edge weights here; the filtration layer
    # is what restores monotone ordering
    ks = [identity_operator(2) for _ in range(3)]
    faces = _faces(*ks)
    tri = triple_operator(*ks, *faces)
    assert triangle_weight(tri) < edge_weight(faces[0])


def test_zero_matrix_weight_errors():
    with pytest.raises(ValueError, match="zero matrix"):
        edge_weight(PairOperator(np.zeros((3, 3)), (0, 1)))
    with pytest.raises(ValueError, match="zero matrix"):
        triangle_weight(TripleOperator(np.zeros((3, 3)), (0, 1, 2)))


# ---------------------------------------------------------------------------
# centered weights against an explicit projector


def centered_norm_oracle(entries: np.ndarray) -> float:
    n = entries.shape[0]
    p = np.eye(n) - np.ones((n, n)) / n
    return float(np.linalg.norm(p @ entries @ p, "fro"))


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return m + m.T


def test_weights_match_explicit_projector_oracle():
    rng = np.random.default_rng(53)
    for n in (2, 3, 7, 40):
        m = random_symmetric(rng, n)
        want = 1.0 / centered_norm_oracle(m)
        assert edge_weight(PairOperator(m, (0, 1))) == pytest.approx(want, rel=1e-12)
        assert triangle_weight(TripleOperator(m, (0, 1, 2))) == pytest.approx(want, rel=1e-12)
    for n in (3, 5, 30):
        ks = [random_stochastic(rng, n) for _ in range(3)]
        faces = _faces(*ks)
        tri = triple_operator(*ks, *faces)
        for s in faces:
            assert edge_weight(s) == pytest.approx(
                1.0 / centered_norm_oracle(s.entries), rel=1e-12
            )
        assert triangle_weight(tri) == pytest.approx(
            1.0 / centered_norm_oracle(tri.entries), rel=1e-12
        )


def test_weights_ignore_constant_part():
    rng = np.random.default_rng(59)
    ks = [random_stochastic(rng, 6) for _ in range(3)]
    faces = _faces(*ks)
    s = faces[0].entries
    t = triple_operator(*ks, *faces).entries
    ones = np.ones((6, 6))
    for c in (-3.0, 0.5, 7.0):
        assert edge_weight(PairOperator(s + c * ones, (0, 1))) == pytest.approx(
            edge_weight(faces[0]), rel=1e-12
        )
        assert triangle_weight(TripleOperator(t + c * ones, (0, 1, 2))) == pytest.approx(
            triangle_weight(TripleOperator(t, (0, 1, 2))), rel=1e-12
        )


def test_constant_matrix_weight_errors():
    for n, c in ((2, 1.0), (3, 0.1), (5, 1.0 / 3.0), (100, 0.01)):
        with pytest.raises(ValueError, match="zero matrix"):
            edge_weight(PairOperator(c * np.ones((n, n)), (0, 1)))
        with pytest.raises(ValueError, match="zero matrix"):
            triangle_weight(TripleOperator(c * np.ones((n, n)), (0, 1, 2)))
