"""Tests for diagram Wasserstein distances and distance matrices."""

import importlib
import math
import re
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from test_homology import COMPLEXES, shuffled
from topodist.complexes import WeightedComplex, enforce_monotone
from topodist.homology import PersistenceDiagram, PersistencePair, persistence_diagrams
from topodist.wasserstein import (
    DatasetDistanceMatrix,
    DiagramDistanceSpec,
    diagonal_gap,
    distance_matrix,
    read_distance_csv,
    wasserstein,
    write_distance_csv,
)


# ---------------------------------------------------------------------------
# oracles and helpers


def exhaustive_wasserstein(pts1, pts2, p: float) -> float:
    """Minimum over every injective partial matching, brute force."""

    def gap(pt):
        return (pt[1] - pt[0]) / math.sqrt(2.0)

    def dist(u, v):
        return math.hypot(u[0] - v[0], u[1] - v[1])

    n1, n2 = len(pts1), len(pts2)
    best = math.inf
    for k in range(min(n1, n2) + 1):
        for chosen1 in combinations(range(n1), k):
            for chosen2 in permutations(range(n2), k):
                cost = sum(dist(pts1[i], pts2[j]) ** p for i, j in zip(chosen1, chosen2))
                cost += sum(gap(pts1[i]) ** p for i in range(n1) if i not in chosen1)
                cost += sum(gap(pts2[j]) ** p for j in range(n2) if j not in chosen2)
                best = min(best, cost)
    return best ** (1.0 / p)


def kmn_wasserstein(pts1, pts2, p: float) -> float:
    """The (n1 + n2) assignment of Kerber, Morozov & Nigmetov, the reference formulation.

    Every real point owns one diagonal slot, foreign slots are forbidden and
    diagonal-to-diagonal cells cost 0.
    """
    a = np.array(pts1, dtype=np.float64).reshape(-1, 2)
    b = np.array(pts2, dtype=np.float64).reshape(-1, 2)
    n1, n2 = len(a), len(b)
    if n1 == 0 and n2 == 0:
        return 0.0
    cost = np.zeros((n1 + n2, n1 + n2))
    diff = a[:, np.newaxis, :] - b[np.newaxis, :, :]
    cost[:n1, :n2] = np.hypot(diff[..., 0], diff[..., 1]) ** p
    cost[:n1, n2:] = np.inf
    cost[n1:, :n2] = np.inf
    cost[np.arange(n1), n2 + np.arange(n1)] = ((a[:, 1] - a[:, 0]) / math.sqrt(2.0)) ** p
    cost[n1 + np.arange(n2), np.arange(n2)] = ((b[:, 1] - b[:, 0]) / math.sqrt(2.0)) ** p
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) ** (1.0 / p)


def diagram(points, degree: int = 1) -> PersistenceDiagram:
    pairs = tuple(
        PersistencePair(
            degree, float(b), float(d), birth_simplex=-1,
            death_simplex=None if math.isinf(d) else -1,
        )
        for b, d in points
    )
    return PersistenceDiagram(degree, pairs)


def random_points(rng: np.random.Generator, max_points: int) -> list:
    n = int(rng.integers(0, max_points + 1))
    out = []
    for _ in range(n):
        b = float(rng.uniform(0.0, 2.0))
        out.append((b, b + float(rng.uniform(0.05, 2.0))))
    return out


SPEC2 = DiagramDistanceSpec(p=2.0, degree=1)
# the package re-exports the function ``wasserstein`` under the module's name
WASSERSTEIN_MODULE = importlib.import_module("topodist.wasserstein")


# ---------------------------------------------------------------------------
# diagonal gap


def test_diagonal_gap_values():
    assert diagonal_gap((1.0, 3.0)) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert diagonal_gap((0.7, 0.7)) == 0.0
    assert diagonal_gap((0.0, 4.0)) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)


def test_diagonal_gap_rejects_bad_points():
    with pytest.raises(ValueError, match="infinite"):
        diagonal_gap((1.0, math.inf))
    with pytest.raises(ValueError, match="exceeds"):
        diagonal_gap((2.0, 1.0))


# ---------------------------------------------------------------------------
# wasserstein


def test_identical_diagrams_distance_zero():
    dg = diagram([(0.0, 1.0), (0.5, 2.0)])
    assert wasserstein(dg, dg, SPEC2) == 0.0


def test_single_point_versus_empty():
    d = wasserstein(diagram([(1.0, 3.0)]), diagram([]), SPEC2)
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_two_matchings_enumerated():
    # direct match costs 2; both-to-diagonal costs sqrt(10); direct wins
    a, b = diagram([(0.0, 2.0)]), diagram([(0.0, 4.0)])
    assert wasserstein(a, b, SPEC2) == pytest.approx(2.0, abs=1e-12)
    both_diagonal = (diagonal_gap((0.0, 2.0)) ** 2 + diagonal_gap((0.0, 4.0)) ** 2) ** 0.5
    assert both_diagonal == pytest.approx(math.sqrt(10.0), abs=1e-12)
    assert 2.0 < both_diagonal


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_matches_exhaustive_enumeration(p):
    rng = np.random.default_rng(211)
    spec = DiagramDistanceSpec(p=p, degree=1)
    for _ in range(40):
        pts1 = random_points(rng, 4)
        pts2 = random_points(rng, 4)
        got = wasserstein(diagram(pts1), diagram(pts2), spec)
        want = exhaustive_wasserstein(pts1, pts2, p)
        assert got == pytest.approx(want, abs=1e-9)


# a few fixed values make ties and zero-persistence points likely
_BIRTHS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)
_LIFETIMES = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0)
_POINTS = st.lists(
    st.tuples(_BIRTHS, _LIFETIMES).map(lambda t: (t[0], t[0] + t[1])), max_size=4
)


@settings(max_examples=150, deadline=None)
@given(pts1=_POINTS, pts2=_POINTS, p=st.sampled_from([1.0, 2.0, 3.5]))
def test_matches_exhaustive_on_drawn_diagrams(pts1, pts2, p):
    spec = DiagramDistanceSpec(p=p, degree=1)
    got = wasserstein(diagram(pts1), diagram(pts2), spec)
    assert got == pytest.approx(exhaustive_wasserstein(pts1, pts2, p), abs=1e-9)


_CAP = 5.0
# an infinite death is drawn as lifetime inf; drop removes it, cap moves it to _CAP
_POINTS_WITH_ESSENTIAL = st.lists(
    st.tuples(_BIRTHS, _LIFETIMES | st.just(math.inf)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=9,
)


@settings(max_examples=300, deadline=None)
@given(
    pts1=_POINTS_WITH_ESSENTIAL,
    pts2=_POINTS_WITH_ESSENTIAL,
    p=st.sampled_from([1.0, 2.0, 3.5]),
    policy=st.sampled_from(["drop", "cap"]),
)
def test_matches_the_n1_plus_n2_assignment(pts1, pts2, p, policy):
    spec = DiagramDistanceSpec(p=p, degree=1, infinite_policy=policy, cap_value=_CAP)

    def resolved(pts):
        if policy == "drop":
            return [pt for pt in pts if math.isfinite(pt[1])]
        return [(b, min(d, _CAP)) for b, d in pts]

    want = kmn_wasserstein(resolved(pts1), resolved(pts2), p)
    assert wasserstein(diagram(pts1), diagram(pts2), spec) == pytest.approx(want, rel=1e-12)


def test_each_solve_is_one_square_of_the_larger_size(monkeypatch):
    shapes = []

    def spy(cost):
        shapes.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(WASSERSTEIN_MODULE, "linear_sum_assignment", spy)
    small = diagram([(0.0, 1.0), (0.5, 0.6)])
    large = diagram([(0.1, 0.9), (0.2, 2.0), (1.0, 1.5), (0.0, 0.3), (0.4, 0.4)])
    wasserstein(small, large, SPEC2)
    wasserstein(large, small, SPEC2)
    wasserstein(diagram([]), diagram([]), SPEC2)
    distance_matrix([small, large, diagram([])], SPEC2)
    assert shapes == [(5, 5), (5, 5), (5, 5), (2, 2), (5, 5)]


REPEATED = "dataset labels must be unique; '{}' is used more than once"


def test_distance_matrix_checks_labels_before_solving(monkeypatch):
    def refuse(cost):
        raise AssertionError("solved before the labels were checked")

    monkeypatch.setattr(WASSERSTEIN_MODULE, "linear_sum_assignment", refuse)
    dgs = [diagram([(0.0, 1.0)]), diagram([(0.5, 2.0)]), diagram([(0.2, 0.4)])]
    with pytest.raises(ValueError, match="^need 3 labels, got 2$"):
        distance_matrix(dgs, SPEC2, labels=["a", "b"])
    with pytest.raises(ValueError, match=f"^{REPEATED.format('b')}$"):
        distance_matrix(dgs, SPEC2, labels=["b", "a", "b"])


def test_a_repeated_label_is_refused_by_name(tmp_path):
    # one rule for every labelled result: labels compare as strings, and the
    # error names the first label that comes again
    entries = np.ones((4, 4)) - np.eye(4)
    with pytest.raises(ValueError, match=f"^{REPEATED.format('b')}$"):
        DatasetDistanceMatrix(entries, ("a", "b", "b", "a"))
    with pytest.raises(ValueError, match=f"^{REPEATED.format('1')}$"):
        DatasetDistanceMatrix(entries[:2, :2], (1, "1"))
    p = tmp_path / "d.csv"
    p.write_text(",a,a\na,0,1\na,1,0\n")
    with pytest.raises(ValueError, match=f"^{REPEATED.format('a')}$"):
        read_distance_csv(p)


def test_exhaustive_equivalence_six_points():
    rng = np.random.default_rng(223)
    for _ in range(8):
        pts1 = [(b, b + g) for b, g in rng.uniform(0.1, 2.0, size=(6, 2))]
        pts2 = [(b, b + g) for b, g in rng.uniform(0.1, 2.0, size=(6, 2))]
        got = wasserstein(diagram(pts1), diagram(pts2), SPEC2)
        want = exhaustive_wasserstein(pts1, pts2, 2.0)
        assert got == pytest.approx(want, abs=1e-9)


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(227)
    for _ in range(15):
        dgs = [diagram(random_points(rng, 10)) for _ in range(3)]
        d01 = wasserstein(dgs[0], dgs[1], SPEC2)
        d10 = wasserstein(dgs[1], dgs[0], SPEC2)
        d02 = wasserstein(dgs[0], dgs[2], SPEC2)
        d12 = wasserstein(dgs[1], dgs[2], SPEC2)
        assert d01 >= 0.0
        assert abs(d01 - d10) <= 1e-12
        assert d02 <= d01 + d12 + 1e-9
        for dg in dgs:
            assert wasserstein(dg, dg, SPEC2) == 0.0


@settings(max_examples=100, deadline=None)
@given(pts=st.lists(_POINTS, min_size=3, max_size=3), p=st.sampled_from([1.0, 2.0, 3.5]))
def test_metric_axioms_on_drawn_diagrams(pts, p):
    spec = DiagramDistanceSpec(p=p, degree=1)
    a, b, c = (diagram(x) for x in pts)
    ab = wasserstein(a, b, spec)
    assert ab >= 0.0
    assert abs(ab - wasserstein(b, a, spec)) <= 1e-9
    assert wasserstein(a, a, spec) == 0.0
    assert wasserstein(a, c, spec) <= ab + wasserstein(b, c, spec) + 1e-9


def test_zero_iff_equal_multisets():
    # diagrams restricted to positive-persistence points
    a = diagram([(0.0, 1.0), (0.5, 1.5)])
    b = diagram([(0.5, 1.5), (0.0, 1.0)])  # same multiset, reordered
    assert wasserstein(a, b, SPEC2) == 0.0
    c = diagram([(0.0, 1.0), (0.5, 1.6)])
    assert wasserstein(a, c, SPEC2) > 0.0


def test_zero_persistence_point_is_free():
    rng = np.random.default_rng(229)
    for _ in range(10):
        pts1, pts2 = random_points(rng, 5), random_points(rng, 5)
        base = wasserstein(diagram(pts1), diagram(pts2), SPEC2)
        padded = wasserstein(diagram(pts1 + [(0.8, 0.8)]), diagram(pts2), SPEC2)
        assert padded == pytest.approx(base, abs=1e-12)


def test_infinite_policy_drop_and_cap():
    with_inf = diagram([(0.0, 1.0), (0.5, math.inf)])
    other = diagram([(0.0, 1.0)])
    dropped = wasserstein(with_inf, other, DiagramDistanceSpec(p=2.0, degree=1))
    assert dropped == 0.0
    capped_spec = DiagramDistanceSpec(p=2.0, degree=1, infinite_policy="cap", cap_value=2.0)
    capped = wasserstein(with_inf, other, capped_spec)
    assert capped == pytest.approx(diagonal_gap((0.5, 2.0)), abs=1e-12)


def test_cap_below_birth_rejected():
    with_inf = diagram([(3.0, math.inf)])
    spec = DiagramDistanceSpec(p=2.0, degree=1, infinite_policy="cap", cap_value=1.0)
    with pytest.raises(ValueError, match="below a birth"):
        wasserstein(with_inf, diagram([]), spec)


def test_spec_validation():
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="p must be"):
            DiagramDistanceSpec(p=p)
    with pytest.raises(ValueError, match="degree"):
        DiagramDistanceSpec(degree=2)
    with pytest.raises(ValueError, match="policy"):
        DiagramDistanceSpec(infinite_policy="ignore")
    for cap in (None, math.inf, math.nan):
        with pytest.raises(ValueError, match="cap_value"):
            DiagramDistanceSpec(infinite_policy="cap", cap_value=cap)


@pytest.mark.parametrize("degree", [True, 1.0, np.float64(0)])
def test_spec_degree_must_be_an_integer(degree):
    message = f"^degree must be an integer, got {re.escape(repr(degree))}$"
    with pytest.raises(ValueError, match=message):
        DiagramDistanceSpec(degree=degree)
    assert type(DiagramDistanceSpec(degree=np.int64(0)).degree) is int


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree"):
        wasserstein(diagram([(0.0, 1.0)], degree=0), diagram([]), SPEC2)


# ---------------------------------------------------------------------------
# distance matrix


def test_repeated_diagram_gives_zero_matrix():
    dg = diagram([(0.0, 1.0), (0.2, 0.9)])
    m = distance_matrix([dg, dg, dg], SPEC2)
    assert np.array_equal(m.entries, np.zeros((3, 3)))


def test_matrix_matches_single_calls_and_triangle():
    rng = np.random.default_rng(233)
    dgs = [diagram(random_points(rng, 6)) for _ in range(3)]
    m = distance_matrix(dgs, SPEC2, labels=["a", "b", "c"])
    for i in range(3):
        for j in range(3):
            if i != j:
                assert m.entries[i, j] == wasserstein(dgs[i], dgs[j], SPEC2)
    assert m.entries[0, 2] <= m.entries[0, 1] + m.entries[1, 2] + 1e-9
    assert np.array_equal(m.entries, m.entries.T)
    assert m.labels == ("a", "b", "c")


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(_POINTS, min_size=1, max_size=5),
    order=st.randoms(use_true_random=False),
    p=st.sampled_from([1.0, 2.0, 3.5]),
)
def test_permuting_the_diagrams_permutes_the_matrix(pts, order, p):
    spec = DiagramDistanceSpec(p=p, degree=1)
    perm = list(range(len(pts)))
    order.shuffle(perm)
    dgs = [diagram(x) for x in pts]
    m = distance_matrix(dgs, spec).entries
    permuted = distance_matrix([dgs[k] for k in perm], spec).entries
    np.testing.assert_allclose(permuted, m[np.ix_(perm, perm)], rtol=1e-12, atol=0.0)


def test_distance_matrix_type_validation():
    with pytest.raises(ValueError, match="symmetric"):
        DatasetDistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), ("a", "b"))
    with pytest.raises(ValueError, match="diagonal"):
        DatasetDistanceMatrix(np.array([[0.5]]), ("a",))
    with pytest.raises(ValueError, match="labels"):
        DatasetDistanceMatrix(np.zeros((2, 2)), ("a",))
    with pytest.raises(ValueError, match="nonnegative"):
        DatasetDistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]), ("a", "b"))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_distance_is_named_as_such(tmp_path, value):
    # nan != nan, so a nan matrix used to be reported as asymmetric
    entries = np.array([[0.0, value], [value, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        DatasetDistanceMatrix(entries, ("a", "b"))
    p = tmp_path / "d.csv"
    p.write_text(f",a,b\na,0,{value}\nb,{value},0\n")
    row = re.escape(str(["a", "0", str(value)]))
    with pytest.raises(ValueError, match=f"^malformed distance CSV row: {row}: .*finite"):
        read_distance_csv(p)


def test_distance_csv_round_trip(tmp_path):
    rng = np.random.default_rng(239)
    dgs = [diagram(random_points(rng, 5)) for _ in range(4)]
    m = distance_matrix(dgs, SPEC2, labels=[f"ds{i}" for i in range(4)])
    path = tmp_path / "dist.csv"
    write_distance_csv(m, path)
    back = read_distance_csv(path)
    assert back.labels == m.labels
    # 12 significant digits survive the round trip
    np.testing.assert_allclose(back.entries, m.entries, rtol=1e-11, atol=0.0)


def test_distance_csv_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n")
    with pytest.raises(ValueError, match="corner"):
        read_distance_csv(p)
    p.write_text(",a,b\na,0,1\n")
    with pytest.raises(ValueError, match="data rows"):
        read_distance_csv(p)
    p.write_text(",a,b\nx,0,1\nb,1,0\n")
    with pytest.raises(ValueError, match="label"):
        read_distance_csv(p)
    p.write_text(",a,b\na,0,1\nb,x,0\n")
    with pytest.raises(ValueError, match=r"^malformed distance CSV row: \['b', 'x', '0'\]$"):
        read_distance_csv(p)


# ---------------------------------------------------------------------------
# stability: Skraba & Turner, "Wasserstein Stability for Persistence Diagrams"
# (arXiv:2006.16824), W_p(Dgm_k f, Dgm_k g) <= ||f - g||_p for monotone f, g
# on one complex and the l_p ground cost; for p <= 2 the Euclidean ground cost
# and (d - b) / sqrt(2) gap used here are at most the l_p ones


@st.composite
def perturbed_complexes(draw) -> tuple[WeightedComplex, WeightedComplex]:
    """A monotone complex ``f`` and a monotone ``g`` over its skeleton, one of:

    - ``f`` with the birth and death simplexes of one finite degree-1 pair
      moved to the pair's midpoint, which makes the bound an equality at
      p = 2 when that point is all that changes;
    - ``f`` with an interval of its values collapsed to its midpoint, a
      monotone map of the values;
    - ``f`` with noise on some of its simplexes;

    each made monotone again.
    """
    f = draw(st.one_of(*COMPLEXES, *map(shuffled, COMPLEXES)))
    values = np.unique(f.weights).tolist()
    finite = [q for q in persistence_diagrams(f)[1].pairs if not q.is_essential]
    mode = draw(st.sampled_from(["kill", "collapse", "noise"]))
    if mode == "kill" and finite:
        q = draw(st.sampled_from(finite))
        weights = f.weights.copy()
        weights[[q.birth_simplex, q.death_simplex]] = (q.birth + q.death) / 2
    elif mode != "noise" and len(values) > 1:
        ends = st.lists(st.sampled_from(values), min_size=2, max_size=2, unique=True)
        lo, hi = sorted(draw(ends))
        inside = (f.dims > 0) & (f.weights >= lo) & (f.weights <= hi)
        weights = np.where(inside, (lo + hi) / 2, f.weights)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([1e-3, 1e-1, 1.0]))
        moved = (f.dims > 0) & (rng.random(f.n_simplexes) < draw(st.sampled_from([0.1, 0.5, 1.0])))
        weights = np.where(moved, f.weights + scale * rng.standard_normal(f.n_simplexes), f.weights)
    return f, enforce_monotone(WeightedComplex(f.simplexes, weights))


@settings(max_examples=300, deadline=None)
@given(perturbed_complexes(), st.floats(1.0, 2.0), st.sampled_from([0.0, 0.5]))
def test_wasserstein_is_stable_under_weight_perturbation(fg, p, above):
    f, g = fg
    norm = float(np.sum(np.abs(f.weights - g.weights) ** p) ** (1.0 / p))
    cap = max(f.max_weight, g.max_weight) + above
    dgm_f, dgm_g = persistence_diagrams(f), persistence_diagrams(g)
    for k in (0, 1):
        for spec in (
            DiagramDistanceSpec(p=p, degree=k),
            DiagramDistanceSpec(p=p, degree=k, infinite_policy="cap", cap_value=cap),
        ):
            # a few ulp for the rounding of the two sums
            assert wasserstein(dgm_f[k], dgm_g[k], spec) <= norm * (1.0 + 8 * np.finfo(float).eps)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(perturbed_complexes(), min_size=3, max_size=3),
    st.floats(1.0, 2.0),
    st.sampled_from([0.0, 0.5]),
)
def test_distance_matrix_moves_by_at_most_the_weight_changes_of_its_two_complexes(fgs, p, above):
    # the corollary for a whole matrix: by the triangle inequality
    # |W(f_i, f_j) - W(g_i, g_j)| <= W(f_i, g_i) + W(f_j, g_j), and the
    # bound above holds for each term, under one cap at or above every weight
    norms = [float(np.sum(np.abs(f.weights - g.weights) ** p) ** (1.0 / p)) for f, g in fgs]
    cap = max(cx.max_weight for fg in fgs for cx in fg) + above
    runs = [[persistence_diagrams(cx) for cx in run] for run in zip(*fgs)]
    for k in (0, 1):
        for spec in (
            DiagramDistanceSpec(p=p, degree=k),
            DiagramDistanceSpec(p=p, degree=k, infinite_policy="cap", cap_value=cap),
        ):
            d_f, d_g = (distance_matrix([dgm[k] for dgm in run], spec).entries for run in runs)
            for i, j in combinations(range(3), 2):
                bound = norms[i] + norms[j]
                # a few ulp for the rounding of the distances and the norms
                slack = 8 * np.finfo(float).eps * (bound + d_f[i, j] + d_g[i, j])
                assert abs(d_f[i, j] - d_g[i, j]) <= bound + slack
