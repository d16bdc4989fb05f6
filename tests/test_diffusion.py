"""Tests for affinities and the two-step normalized diffusion operator."""

import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from topodist.complexes import assign_weights, complete_skeleton, raw_weights
from topodist import diffusion
from topodist.dataset import Sample, TorusSpec, generate_torus_dataset
from topodist.diffusion import (
    AffinityMatrix,
    DiffusionOperator,
    _affinity_stack,
    _centered,
    _centered_stack,
    affinity,
    diffusion_operator,
    median_scale,
    pairwise_distances,
    sample_diffusion_operator,
)


# ---------------------------------------------------------------------------
# oracles


def distance_oracle(obs: np.ndarray) -> np.ndarray:
    """Naive double-loop Euclidean distances."""
    n = obs.shape[0]
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            out[a, b] = np.sqrt(np.sum((obs[a] - obs[b]) ** 2))
    return out


def operator_oracle(w: np.ndarray) -> np.ndarray:
    """Two-step normalization spelled out with explicit diagonal matrices."""
    q_inv = np.diag(1.0 / w.sum(axis=1))
    w_tilde = q_inv @ w @ q_inv
    qt_inv = np.diag(1.0 / w_tilde.sum(axis=1))
    return qt_inv @ w_tilde


def one_step_operator(w: np.ndarray) -> np.ndarray:
    """Plain row normalization, no density correction; comparison baseline."""
    return w / w.sum(axis=1)[:, np.newaxis]


def gaussian_affinity_of(points: np.ndarray, factor: float = 1.0) -> AffinityMatrix:
    d = distance_oracle(points)
    return affinity(d, median_scale(d, factor))


# ---------------------------------------------------------------------------
# distances


def test_pairwise_identical_points_give_zero():
    s = Sample(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    d = pairwise_distances(s)
    assert d[0, 1] == 0.0
    assert np.array_equal(np.diag(d), np.zeros(3))


def test_pairwise_three_four_five():
    s = Sample(np.array([[0.0, 0.0], [3.0, 4.0]]))
    d = pairwise_distances(s)
    assert d[0, 1] == pytest.approx(5.0, abs=1e-15)
    assert np.array_equal(d, d.T)


def test_pairwise_matches_naive_loop():
    rng = np.random.default_rng(5)
    obs = rng.normal(size=(5, 3))
    d = pairwise_distances(Sample(obs))
    np.testing.assert_allclose(d, distance_oracle(obs), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# median scale


def test_median_scale_constant_distances():
    d = np.full((4, 4), 3.0)
    np.fill_diagonal(d, 0.0)
    assert median_scale(d, 1.0) == pytest.approx(9.0)


def test_median_scale_of_three_squared_values():
    # upper triangle distances 1, 2, 3 -> squared {1, 4, 9}, median 4
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert median_scale(d, 1.0) == pytest.approx(4.0)
    assert median_scale(d, 2.0) == pytest.approx(8.0)


def test_median_scale_linear_in_factor():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 2))
    d = distance_oracle(x)
    assert median_scale(d, 2.0) == pytest.approx(2.0 * median_scale(d, 1.0))


def test_median_scale_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        median_scale(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="factor"):
        median_scale(np.ones((3, 3)), 0.0)


def test_median_scale_skips_coincident_observations():
    # upper triangle distances 0, 0, 2 -> positive squared {4}
    d = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    assert median_scale(d, 1.0) == 4.0


def test_mostly_duplicate_sample_gives_valid_operator():
    # 8 of 10 observations coincide: 28 of the 45 distances are zero, 17 are not
    obs = np.random.default_rng(3).normal(size=(10, 3))
    obs[2:] = obs[2]
    d = pairwise_distances(Sample(obs))
    assert (d[np.triu_indices(10, k=1)] > 0.0).sum() == 17
    k = sample_diffusion_operator(Sample(obs)).entries
    assert (k >= 0.0).all()
    np.testing.assert_allclose(k.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# affinity


def test_affinity_fixed_points():
    d = np.array([[0.0, 1.0, np.sqrt(2.0)], [1.0, 0.0, 1.0], [np.sqrt(2.0), 1.0, 0.0]])
    w = affinity(d, 1.0)
    assert w.entries[0, 0] == 1.0
    assert w.entries[0, 1] == pytest.approx(0.36787944117144233, abs=1e-15)
    assert w.entries[0, 2] == pytest.approx(0.1353352832366127, abs=1e-15)
    assert w.epsilon == 1.0


def test_affinity_rejects_bad_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        affinity(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        affinity(np.zeros((2, 2)), -1.0)


def test_affinity_underflow_detected():
    # exp(-2500) underflows to exactly 0; the unit diagonal keeps every row
    # sum >= 1, so the operator is still well defined
    d = np.array([[0.0, 50.0], [50.0, 0.0]])
    w = affinity(d, 1.0)
    assert w.entries[0, 1] == 0.0
    k = diffusion_operator(w).entries
    assert (k >= 0.0).all()
    np.testing.assert_array_equal(k.sum(axis=1), np.ones(2))


@pytest.mark.parametrize("entry", [1.5, -0.25, np.nan, np.inf])
def test_affinity_matrix_rejects_entries_outside_unit_interval(entry):
    with pytest.raises(ValueError):
        AffinityMatrix(np.array([[1.0, entry], [entry, 1.0]]), 1.0)


def test_far_outlier_keeps_sample_operator_valid():
    rng = np.random.default_rng(5)
    obs = rng.normal(size=(50, 2))
    obs[0] = (60.0, 0.0)
    k = sample_diffusion_operator(Sample(obs)).entries
    assert (k[0, 1:] == 0.0).all()
    np.testing.assert_allclose(k.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_affinity_scale_monotonicity():
    rng = np.random.default_rng(17)
    d = distance_oracle(rng.normal(size=(7, 3)))
    lo = affinity(d, 0.5).entries
    hi = affinity(d, 2.0).entries
    mask = ~np.eye(7, dtype=bool)
    assert (hi[mask] > lo[mask]).all()


def test_affinity_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        AffinityMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]), 1.0)
    with pytest.raises(ValueError, match="diagonal"):
        AffinityMatrix(np.array([[0.9, 0.5], [0.5, 0.9]]), 1.0)
    with pytest.raises(ValueError, match="square"):
        AffinityMatrix(np.ones((2, 3)), 1.0)


# ---------------------------------------------------------------------------
# diffusion operator


def test_operator_two_by_two_hand_algebra():
    # W = [[1, a], [a, 1]]: Q = (1+a) I, so the two normalizations cancel to
    # K = W / (1+a)
    a = np.exp(-1.0)
    w = AffinityMatrix(np.array([[1.0, a], [a, 1.0]]), 1.0)
    k = diffusion_operator(w).entries
    assert k[0, 0] == pytest.approx(1.0 / (1.0 + a), abs=1e-15)
    assert k[0, 0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert k[0, 1] == pytest.approx(a / (1.0 + a), abs=1e-15)
    np.testing.assert_allclose(k, k.T, rtol=0.0, atol=1e-15)


def test_operator_uniform_affinity():
    w = AffinityMatrix(np.ones((4, 4)), 1.0)
    k = diffusion_operator(w).entries
    np.testing.assert_allclose(k, np.full((4, 4), 0.25), rtol=0.0, atol=1e-15)


def test_operator_matches_naive_oracle():
    rng = np.random.default_rng(23)
    w = gaussian_affinity_of(rng.normal(size=(6, 3)))
    k = diffusion_operator(w).entries
    np.testing.assert_allclose(k, operator_oracle(w.entries), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(k.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_operator_row_stochastic_on_torus_samples():
    d = generate_torus_dataset(
        TorusSpec(m=6, n_samples=4, n_observations=60, r_max=3.0, sigma=0.1, seed=31)
    )
    for s in d.samples:
        k = sample_diffusion_operator(s).entries
        assert (k >= 0.0).all()
        np.testing.assert_allclose(k.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_operator_similar_to_symmetric():
    # Q~^(1/2) K Q~^(-1/2) is symmetric, so K has a real spectrum
    d = generate_torus_dataset(
        TorusSpec(m=5, n_samples=3, n_observations=50, r_max=2.0, sigma=0.2, seed=37)
    )
    for s in d.samples:
        dist = pairwise_distances(s)
        w = affinity(dist, median_scale(dist)).entries
        q = w.sum(axis=1)
        w_tilde = w / np.outer(q, q)
        q_tilde = w_tilde.sum(axis=1)
        k = diffusion_operator(AffinityMatrix(w, 1.0)).entries
        conj = np.sqrt(q_tilde)[:, np.newaxis] * k / np.sqrt(q_tilde)[np.newaxis, :]
        assert np.abs(conj - conj.T).max() < 1e-10
        assert np.abs(np.linalg.eigvals(k).imag).max() < 1e-10


def test_density_correction_dampens_duplication():
    # fixed-seed regression: duplicating a point perturbs the operator among
    # the untouched points less with the density correction than without it
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 3))
    d = distance_oracle(x)
    eps = median_scale(d)
    w = affinity(d, eps).entries
    x_dup = np.vstack([x, x[0]])
    w_dup = affinity(distance_oracle(x_dup), eps).entries

    keep = np.ix_(np.arange(1, 12), np.arange(1, 12))
    off = ~np.eye(11, dtype=bool)
    delta_two = np.abs(operator_oracle(w_dup)[keep] - operator_oracle(w)[keep])[off].max()
    delta_one = np.abs(one_step_operator(w_dup)[keep] - one_step_operator(w)[keep])[off].max()
    assert delta_two < delta_one


def test_operator_type_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        DiffusionOperator(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="sum to 1"):
        DiffusionOperator(np.array([[0.6, 0.6], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(3, 20),
    dim=st.integers(1, 4),
    c=st.floats(1e-3, 1e3),
)
def test_operator_invariant_under_rescaling(seed, n, dim, c):
    # the median heuristic scales epsilon with the squared distances
    x = np.random.default_rng(seed).normal(size=(n, dim))
    base = sample_diffusion_operator(Sample(x)).entries
    scaled = sample_diffusion_operator(Sample(c * x)).entries
    assert np.abs(scaled - base).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(3, 20),
    dim=st.integers(1, 4),
    mantissa=st.floats(1.0, 10.0),
    power=st.integers(-300, 299),
)
def test_operators_hold_over_the_whole_float_range(seed, n, dim, mantissa, power):
    # scaled by c in [1e-300, 1e300]: squared distances of c * x leave the
    # float range, those of the power-of-two prescaled sample never do
    x = np.random.default_rng(seed).normal(size=(n, dim))
    scaled = Sample(mantissa * 10.0**power * x)
    base = sample_diffusion_operator(Sample(x)).entries
    assert np.abs(sample_diffusion_operator(scaled).entries - base).max() <= 1e-12
    g = _centered_stack([scaled]).g
    assert np.abs(g[0] - _centered(base[np.newaxis])[0][0]).max() <= 1e-12


def test_a_kernel_scale_beyond_the_float_range_is_inf_without_a_warning():
    x = np.random.default_rng(5).normal(size=(12, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = _centered_stack([Sample(np.ldexp(x, 1000))])
        base = _centered_stack([Sample(x)])
    assert huge.epsilon[0] == np.inf
    assert np.array_equal(huge.g, base.g)
    # in range, the scale is the median of the sample's own squared distances
    scaled = _centered_stack([Sample(np.ldexp(x, 100))])
    assert scaled.epsilon[0] == np.ldexp(base.epsilon[0], 200)


# ---------------------------------------------------------------------------
# motions the kernel ignores: it reads only the distances within a sample


def torus_samples(seed: int) -> list[Sample]:
    spec = TorusSpec(m=3, n_samples=6, n_observations=30, seed=seed)
    return list(generate_torus_dataset(spec).samples)


def weights_of(samples: list[Sample]) -> np.ndarray:
    return assign_weights(complete_skeleton(len(samples)), _centered_stack(samples)).weights


def relative_change(moved: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Per-weight relative change; the vertices weigh 0 and must stay 0."""
    return np.abs(moved - base) / np.where(base == 0.0, 1.0, np.abs(base))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**10), st.lists(st.integers(-1000, 1000), min_size=6, max_size=6))
def test_scaling_each_sample_by_a_power_of_two_keeps_every_weight(seed, exponents):
    samples = torus_samples(seed)
    moved = [Sample(np.ldexp(s.observations, e)) for s, e in zip(samples, exponents)]
    assert np.array_equal(_centered_stack(moved).g, _centered_stack(samples).g)
    assert np.array_equal(weights_of(moved), weights_of(samples))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**10), st.integers(0, 2**16))
def test_rotating_each_sample_keeps_every_weight_within_1e_13(seed, rotation_seed):
    # measured on such draws: at most 1.7e-15 relative
    samples = torus_samples(seed)
    rng = np.random.default_rng(rotation_seed)
    moved = []
    for s in samples:
        q, _ = np.linalg.qr(rng.normal(size=(s.observation_dim, s.observation_dim)))
        moved.append(Sample(s.observations @ q))
    assert relative_change(weights_of(moved), weights_of(samples)).max() <= 1e-13


# a translation by t rounds each coordinate at the scale of |t|, so the
# distances keep about log2(spread / |t|) fewer bits; measured on such draws,
# the weights moved by at most 5 eps max(1, |t| / spread)
TRANSLATION_C = 64


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**10), st.integers(0, 2**16), st.floats(0.0, 6.0))
def test_translating_each_sample_moves_weights_by_the_digits_it_costs(
    seed, shift_seed, log_shift
):
    # |t| / spread from 0 to 1e6, where spread is the largest distance from
    # an observation to its sample's mean
    samples = torus_samples(seed)
    rng = np.random.default_rng(shift_seed)
    moved, ratio = [], 1.0
    for s in samples:
        x = s.observations
        spread = np.linalg.norm(x - x.mean(axis=0), axis=1).max()
        t = rng.normal(size=s.observation_dim)
        t *= 10.0**log_shift * spread / np.linalg.norm(t)
        ratio = max(ratio, np.linalg.norm(t) / spread)
        moved.append(Sample(x + t))
    bound = TRANSLATION_C * diffusion._EPS * ratio
    assert relative_change(weights_of(moved), weights_of(samples)).max() <= bound


@st.composite
def duplicated_samples(draw) -> list[Sample]:
    """Three samples of one size whose rows repeat a few distinct points."""
    size = draw(st.integers(2, 12))
    out = []
    for _ in range(3):
        rows = draw(
            st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(
                lambda r: len(set(r)) > 1
            )
        )
        base = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(4, 2))
        out.append(Sample(base[rows]))
    return out


def independent_duplicates(a: Sample, b: Sample) -> bool:
    """Whether the duplicate groups of two samples are statistically independent.

    Then every group of one sample meets the groups of the other in
    proportion to their sizes, and the centered pair operator is exactly 0.
    """
    ga = np.unique(a.observations, axis=0, return_inverse=True)[1].ravel()
    gb = np.unique(b.observations, axis=0, return_inverse=True)[1].ravel()
    counts = np.zeros((ga.max() + 1, gb.max() + 1))
    np.add.at(counts, (ga, gb), 1.0)
    return np.array_equal(counts * len(ga), np.outer(counts.sum(1), counts.sum(0)))


@settings(max_examples=60, deadline=None)
@given(duplicated_samples())
def test_duplicate_observations_give_valid_operators_and_weights(samples):
    ops = [sample_diffusion_operator(s) for s in samples]
    for k in ops:
        assert (k.entries >= 0.0).all()
        np.testing.assert_allclose(k.entries.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    if any(independent_duplicates(a, b) for a, b in itertools.combinations(samples, 2)):
        with pytest.raises(ValueError, match="zero matrix"):
            assign_weights(complete_skeleton(3), ops)
    else:
        cx = assign_weights(complete_skeleton(3), ops)
        assert np.isfinite(cx.weights).all()


# ---------------------------------------------------------------------------
# the operator stack of a dataset


@st.composite
def sample_sets(draw, max_samples: int = 4) -> list[Sample]:
    """Samples of one observation count, each of its own dimension and
    scale, with planted duplicate rows and sometimes a far outlier."""
    size = draw(st.integers(2, 12))
    rows = st.integers(0, size - 1)
    samples = []
    for _ in range(draw(st.integers(1, max_samples))):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        x = rng.normal(size=(size, draw(st.integers(1, 4))))
        x *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
        for src, dst in draw(st.lists(st.tuples(rows, rows), max_size=size)):
            x[dst] = x[src]
        if draw(st.booleans()):
            x[draw(rows), 0] = 60.0 * np.abs(x).max()
        assume((x != x[0]).any())
        samples.append(Sample(x))
    return samples


def distinct_points(points: int) -> list[Sample]:
    """One sample of ``points`` distinct observations: C(points, 2) distances."""
    return [Sample(np.arange(2.0 * points).reshape(points, 2) ** 2)]


def blocks_of(per_block: int, size: int):
    """Shrink the block constant so blocks hold ``per_block`` samples of
    ``size`` observations."""
    return mock.patch.object(diffusion, "_CHUNK_BYTES", per_block * 8 * size * size)


def chain_oracle(samples: list[Sample], factor: float) -> tuple[np.ndarray, np.ndarray, list]:
    """The centered stack, its norms and the scales from the per-sample chain."""
    ops = [sample_diffusion_operator(s, factor).entries for s in samples]
    g, norms = _centered(np.stack(ops))
    return g, norms, [median_scale(pairwise_distances(s), factor) for s in samples]


@settings(max_examples=150, deadline=None)
@given(sample_sets(), st.floats(0.1, 10.0))
@example(distinct_points(3), 1.0)  # 3 positive distances: the middle one is the median
@example(distinct_points(4), 2.5)  # 6 positive distances: the mean of the middle two
def test_centered_stack_equals_the_per_sample_chain(samples, factor):
    g, norms, epsilon = _centered_stack(samples, factor)
    want_g, want_norms, scales = chain_oracle(samples, factor)
    assert np.array_equal(g, want_g)
    assert np.array_equal(norms, want_norms)
    assert epsilon.tolist() == scales
    w, _ = _affinity_stack(samples, factor)
    affinities = [affinity(pairwise_distances(s), e).entries for s, e in zip(samples, scales)]
    assert np.array_equal(w, np.stack(affinities))


def test_centered_stack_names_the_first_sample_whose_observations_coincide():
    spread, flat = Sample(np.arange(6.0).reshape(3, 2)), Sample(np.ones((3, 2)))
    wide = Sample(np.arange(8.0).reshape(4, 2))
    with pytest.raises(ValueError, match=r"^sample 1: no pairwise distance is positive"):
        _centered_stack([spread, flat, spread, flat])
    with pytest.raises(ValueError, match=r"observation count: \[3, 4\]"):
        _centered_stack([spread, wide])
    with pytest.raises(ValueError, match="factor"):
        _centered_stack([spread], 0.0)
    with blocks_of(2, 3):
        # sample 5 is the second of the third block
        with pytest.raises(ValueError, match=r"^sample 5: no pairwise distance is positive"):
            _centered_stack([spread] * 5 + [flat])
        # the count is checked across all samples before the first block
        with pytest.raises(ValueError, match=r"observation count: \[3, 4\]"):
            _centered_stack([spread] * 5 + [wide])


def test_no_samples_give_an_empty_stack_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        centered = _centered_stack([])
        g, norms, scales = centered
        assert g.shape == (0, 0, 0) and norms.shape == scales.shape == (0,)
        assert raw_weights([], centered).shape == (0,)
        assert raw_weights([], []).shape == (0,)


# ---------------------------------------------------------------------------
# the chain in blocks of samples


def assert_blocked_chain(samples: list[Sample], factor: float) -> None:
    """The blocked centered stack, its norms and scales equal the centered
    per-sample chain bit for bit."""
    g, norms, epsilon = _centered_stack(samples, factor)
    want_g, want_norms, scales = chain_oracle(samples, factor)
    assert np.array_equal(g, want_g)
    assert np.array_equal(norms, want_norms)
    assert epsilon.tolist() == scales


@settings(max_examples=100, deadline=None)
@given(sample_sets(max_samples=9), st.integers(1, 4), st.floats(0.1, 10.0))
def test_blocked_chain_equals_the_whole_stack(samples, per_block, factor):
    with blocks_of(per_block, samples[0].n_observations):
        assert_blocked_chain(samples, factor)


def test_blocked_chain_at_one_sample_per_block():
    samples = [Sample(np.random.default_rng(i).normal(size=(200, 3))) for i in range(3)]
    assert diffusion._CHUNK_BYTES // (8 * 200 * 200) == 0  # each block holds one sample
    assert_blocked_chain(samples, 1.0)
    skeleton = complete_skeleton(3)
    centered = _centered_stack(samples)
    ops = [sample_diffusion_operator(s) for s in samples]
    assert np.array_equal(raw_weights(skeleton, centered), raw_weights(skeleton, ops))
    cx, want = assign_weights(skeleton, centered), assign_weights(skeleton, ops)
    assert np.array_equal(cx.weights, want.weights)


def test_each_block_is_checked_and_names_the_sample_in_the_dataset():
    spread = Sample(np.arange(6.0).reshape(3, 2))
    two_step = diffusion._two_step

    def in_third_block(fault):
        calls = []

        def faulty(w):
            k, w_tilde, q_tilde = two_step(w)
            calls.append(len(k))
            if len(calls) == 3:
                fault(k[1])
            return k, w_tilde, q_tilde

        return mock.patch.object(diffusion, "_two_step", faulty)

    def negate(k):
        k[0, 0] = -k[0, 0]

    def double(k):
        k[1] *= 2.0

    faults = ((negate, "entries must be nonnegative"), (double, "rows must sum to 1"))
    for fault, message in faults:
        with blocks_of(2, 3), in_third_block(fault):
            with pytest.raises(ValueError, match=rf"^sample 5: operator {message}"):
                _centered_stack([spread] * 8)
