"""Tests for boundary matrices, Z2 reduction, and persistence diagrams."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gf2 import betti, boundary_columns, diagram_oracle, standard_reduction
from reference_complexes import position
from topodist.complexes import (
    Simplex,
    Skeleton,
    WeightedComplex,
    assign_weights,
    complete_skeleton,
    enforce_monotone,
    filtration_order,
    grid_skeleton,
)
from topodist.dataset import TorusSpec, generate_torus_dataset
from topodist.diffusion import sample_diffusion_operator
from topodist.homology import (
    PersistenceDiagram,
    PersistencePair,
    boundary_matrix,
    extract_diagram,
    persistence_diagrams,
    read_diagrams_csv,
    reduce_matrix,
    write_diagrams_csv,
)


# ---------------------------------------------------------------------------
# fixtures and helpers


def make_complex(edges: dict, triangles: dict, n_vertices: int) -> WeightedComplex:
    simplexes = [Simplex((v,)) for v in range(n_vertices)]
    weights = [0.0] * n_vertices
    for e, w in sorted(edges.items()):
        simplexes.append(Simplex(e))
        weights.append(w)
    for t, w in sorted(triangles.items()):
        simplexes.append(Simplex(t))
        weights.append(w)
    return WeightedComplex(tuple(simplexes), np.array(weights))


def hollow_triangle() -> WeightedComplex:
    return make_complex({(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}, {}, 3)


def filled_triangle() -> WeightedComplex:
    return make_complex({(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}, {(0, 1, 2): 4.0}, 3)


def square_with_diagonal() -> WeightedComplex:
    """A square 0-1-2-3 with diagonal 0-2, filled by (0,2,3) before (0,1,2)."""
    return make_complex(
        {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 3.0, (0, 3): 4.0, (0, 2): 5.0},
        {(0, 2, 3): 6.0, (0, 1, 2): 7.0},
        4,
    )


def random_monotone_complex(rng: np.random.Generator) -> WeightedComplex:
    """Random closed 2-complex on 3..7 vertices, tie-rich weights."""
    n = int(rng.integers(3, 8))
    edges = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.6:
                edges[(a, b)] = None
    triangles = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if (a, b) in edges and (b, c) in edges and (a, c) in edges:
                    if rng.random() < 0.5:
                        triangles[(a, b, c)] = None
    if rng.random() < 0.5:
        draw = lambda: float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))  # forces ties
    else:
        draw = lambda: float(rng.uniform(0.0, 1.0))
    cx = make_complex(
        {e: draw() for e in edges}, {t: draw() for t in triangles}, n
    )
    return enforce_monotone(cx)


def torus_complex(seed: int = 71, n: int = 5) -> WeightedComplex:
    data = generate_torus_dataset(
        TorusSpec(m=4, n_samples=n, n_observations=25, r_max=3.0, sigma=0.1, seed=seed)
    )
    ops = [sample_diffusion_operator(s) for s in data.samples]
    return assign_weights(complete_skeleton(n), ops)


# ---------------------------------------------------------------------------
# boundary matrix


def matrix_columns(m) -> list[tuple[int, ...]]:
    """Per filtration position, the sorted positions of its facets, as the
    boundary matrix's arrays give them."""
    columns = [()] * len(m.order)
    for at, rows in ((m.edges, m.ends), (m.triangles, m.facets)):
        for j, column in zip(at.tolist(), rows.tolist()):
            columns[j] = tuple(sorted(column))
    return columns


def reduction_lists(red) -> tuple[list[list[int]], list[int]]:
    # lists, not arrays: ``in`` and ``==`` on an array are elementwise
    return red.pairs.tolist(), red.essential.tolist()


def test_boundary_single_edge():
    cx = make_complex({(0, 1): 1.0}, {}, 2)
    order = filtration_order(cx)
    m = boundary_matrix(cx, order)
    assert matrix_columns(m) == boundary_columns(cx, order) == [(), (), (0, 1)]


def test_boundary_filled_triangle_column():
    cx = filled_triangle()
    order = filtration_order(cx)
    m = boundary_matrix(cx, order)
    pos = {cx.simplexes[sid].vertices: p for p, sid in enumerate(m.order.tolist())}
    tri_col = matrix_columns(m)[pos[(0, 1, 2)]]
    assert set(tri_col) == {pos[(0, 1)], pos[(0, 2)], pos[(1, 2)]}
    assert matrix_columns(m) == boundary_columns(cx, order)


def test_boundary_column_arity():
    cx = torus_complex()
    m = boundary_matrix(cx, filtration_order(cx))
    for col, sid in zip(matrix_columns(m), m.order.tolist()):
        assert len(col) == {0: 0, 1: 2, 2: 3}[cx.simplexes[sid].dimension]


def test_boundary_squares_to_zero():
    rng = np.random.default_rng(101)
    for _ in range(25):
        cx = random_monotone_complex(rng)
        m = boundary_matrix(cx, filtration_order(cx))
        columns = matrix_columns(m)
        for col, sid in zip(columns, m.order.tolist()):
            if cx.simplexes[sid].dimension != 2:
                continue
            acc: set = set()
            for edge_pos in col:
                acc ^= set(columns[edge_pos])
            assert acc == set()


def test_boundary_rejects_non_permutation():
    cx = hollow_triangle()
    with pytest.raises(ValueError, match="permutation"):
        boundary_matrix(cx, [0, 1, 2])
    with pytest.raises(ValueError, match="permutation"):
        boundary_matrix(cx, [0, 0, 1, 2, 3, 4])


@pytest.mark.parametrize(
    "order", [[3, 0, 1, 2, 4, 5], [0, 1, 4, 2, 3, 5, 6], [0, 1, 2, 6, 3, 4, 5]]
)
def test_boundary_rejects_an_order_with_a_face_after_a_coface(order):
    # the edge (0, 1) before its vertices, the edge (0, 2) before vertex 2,
    # the triangle before its edges
    cx = hollow_triangle() if len(order) == 6 else filled_triangle()
    with pytest.raises(ValueError, match="^order must put every face before its cofaces$"):
        boundary_matrix(cx, order)


@pytest.mark.parametrize(
    "order, named",
    [
        ([0.0, 1.9, 2.5, 3, 4, 5, 6], "0.0"),
        ([True, False, 2, 3, 4, 5, 6], "True"),
        ([0, 1, 2, 3, 4, 5, np.float64(6.0)], repr(np.float64(6.0))),
        ([np.True_, 0, 2, 3, 4, 5, 6], repr(np.True_)),
    ],
)
def test_boundary_rejects_positions_that_are_not_integers(order, named):
    # such ids used to be truncated: 1.9 read as 1 and True as 1
    cx = WeightedComplex(complete_skeleton(3), np.array([0.0] * 3 + [1.0] * 4))
    message = f"^simplex id must be an integer, got {re.escape(named)}$"
    with pytest.raises(ValueError, match=message):
        boundary_matrix(cx, order)


def test_boundary_takes_numpy_integer_positions():
    cx = filled_triangle()
    order = filtration_order(cx)
    expected = boundary_matrix(cx, order)
    for ids in (order.tolist(), np.array(order, dtype=np.int32), list(map(np.uint8, order))):
        m = boundary_matrix(cx, ids)
        assert matrix_columns(m) == matrix_columns(expected)
        assert m.order.dtype == np.intp and m.order.tolist() == order.tolist()


# ---------------------------------------------------------------------------
# reduction and extraction on hand-checked complexes


def test_hollow_triangle_diagrams():
    dgs = persistence_diagrams(hollow_triangle())
    assert dgs[0].points() == [(0.0, 1.0), (0.0, 2.0), (0.0, math.inf)]
    assert dgs[1].points() == [(3.0, math.inf)]


def test_filled_triangle_diagrams():
    dgs = persistence_diagrams(filled_triangle())
    assert dgs[0].points() == [(0.0, 1.0), (0.0, 2.0), (0.0, math.inf)]
    assert dgs[1].points() == [(3.0, 4.0)]


def test_two_disjoint_edges():
    cx = make_complex({(0, 1): 1.0, (2, 3): 2.0}, {}, 4)
    dgs = persistence_diagrams(cx)
    assert dgs[0].points() == [
        (0.0, 1.0), (0.0, 2.0), (0.0, math.inf), (0.0, math.inf),
    ]
    assert dgs[1].points() == []


def test_equal_weight_cycle_and_fill_cancel():
    # triangle arrives with its edges: the degree-1 class has zero persistence
    # and is dropped
    cx = make_complex(
        {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}, {(0, 1, 2): 0.5}, 3
    )
    dgs = persistence_diagrams(cx)
    assert dgs[1].points() == []
    assert dgs[0].points() == [(0.0, 0.5), (0.0, 0.5), (0.0, math.inf)]


def test_connected_complete_complex_one_essential_component():
    cx = torus_complex()
    dg0 = persistence_diagrams(cx)[0]
    essentials = [p for p in dg0.pairs if p.is_essential]
    assert len(essentials) == 1
    assert essentials[0].birth == 0.0


def test_vertex_count_bookkeeping():
    # every vertex is a birth: finite pairs + essential classes + dropped
    # zero-persistence pairs add up to the vertex count; with vertex weight 0
    # and positive edge weights nothing is dropped
    rng = np.random.default_rng(113)
    for _ in range(20):
        cx = random_monotone_complex(rng)
        n_vertices = cx.count(0)
        dg0 = persistence_diagrams(cx)[0]
        assert dg0.n_pairs == n_vertices


def test_extract_rejects_bad_inputs():
    cx = hollow_triangle()
    red = reduce_matrix(boundary_matrix(cx, filtration_order(cx)))
    with pytest.raises(ValueError, match="degree"):
        extract_diagram(red, cx, 2)


def test_reduction_deterministic():
    cx = torus_complex(seed=73)
    a = persistence_diagrams(cx)
    b = persistence_diagrams(cx)
    assert a[0].points() == b[0].points()
    assert a[1].points() == b[1].points()


# ---------------------------------------------------------------------------
# rank oracle equivalence


def test_diagrams_match_rank_oracle():
    rng = np.random.default_rng(127)
    for _ in range(60):
        cx = random_monotone_complex(rng)
        dgs = persistence_diagrams(cx)
        for k in (0, 1):
            assert dgs[k].points() == diagram_oracle(cx, k)


@st.composite
def tied_complete_complexes(draw) -> WeightedComplex:
    """Complete 2-skeleton on 6-9 vertices, edge/triangle weights from 3 values."""
    skeleton = complete_skeleton(draw(st.integers(6, 9)))
    level = st.sampled_from([0.25, 0.5, 0.75])
    weights = [0.0 if s.dimension == 0 else draw(level) for s in skeleton]
    return enforce_monotone(WeightedComplex(tuple(skeleton), np.array(weights)))


@settings(max_examples=30, deadline=None)
@given(tied_complete_complexes())
def test_tied_complete_complexes_match_rank_oracle(cx):
    # ties put many cycles at one filtration value: long XOR chains
    dgs = persistence_diagrams(cx)
    for k in (0, 1):
        assert dgs[k].points() == diagram_oracle(cx, k)


@st.composite
def partial_complexes(draw) -> WeightedComplex:
    """Random closed 2-complex on 1-7 vertices, often disconnected.

    When there are at least four vertices a hollow tetrahedron on 0..3 may
    be included, which leaves an essential triangle.
    """
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    hollow = n >= 4 and draw(st.booleans())
    if hollow:
        edges |= {(a, b) for a in range(4) for b in range(a + 1, 4)}
    closed = [
        (a, b, c)
        for a, b in edges
        for c in range(b + 1, n)
        if (a, c) in edges and (b, c) in edges
    ]
    triangles = set(draw(st.lists(st.sampled_from(closed), unique=True))) if closed else set()
    if hollow:
        triangles |= {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
    level = st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.0, 1.0)
    cx = make_complex(
        {e: draw(level) for e in sorted(edges)}, {t: draw(level) for t in sorted(triangles)}, n
    )
    return enforce_monotone(cx)


@st.composite
def tied_grid_complexes(draw) -> WeightedComplex:
    """Triangulated grid up to 4 x 5, edge/triangle weights from 3 values."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    skeleton = grid_skeleton(rows, cols)
    level = st.sampled_from([0.25, 0.5, 0.75])
    weights = [0.0 if s.dimension == 0 else draw(level) for s in skeleton]
    return enforce_monotone(WeightedComplex(tuple(skeleton), np.array(weights)))


@st.composite
def shuffled(draw, complexes: st.SearchStrategy) -> WeightedComplex:
    """A complex of ``complexes`` over a skeleton of its rows in a drawn
    order, so vertex ids are no longer row positions."""
    cx = draw(complexes)
    perm = np.array(draw(st.permutations(range(cx.n_simplexes))), dtype=np.intp)
    return WeightedComplex(Skeleton(cx.vertices[perm]), cx.weights[perm])


COMPLEXES = (tied_complete_complexes(), partial_complexes(), tied_grid_complexes())


@settings(max_examples=300, deadline=None)
@given(st.one_of(*COMPLEXES, *map(shuffled, COMPLEXES)))
def test_reduce_matrix_equals_standard_reduction(cx):
    # exact, pair order included: the reduction's order is the standard one
    order = filtration_order(cx)
    red = reduce_matrix(boundary_matrix(cx, order))
    assert reduction_lists(red) == reduction_lists(standard_reduction(cx, order))


@settings(max_examples=300, deadline=None)
@given(st.one_of(*COMPLEXES, *map(shuffled, COMPLEXES)))
def test_persistence_diagrams_equal_the_standard_reduction(cx):
    # as sorted multisets, pair for pair: simplex ids, births and deaths; a
    # diagram stores its pairs in its own order, not the reduction's
    reduction = standard_reduction(cx, filtration_order(cx))
    expected = {k: extract_diagram(reduction, cx, k) for k in (0, 1)}
    assert persistence_diagrams(cx) == expected


def test_persistence_diagrams_need_a_monotone_complex():
    cx = make_complex({(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}, {(0, 1, 2): 2.5}, 3)
    message = "^complex weights are not monotone; run enforce_monotone first$"
    with pytest.raises(ValueError, match=message):
        persistence_diagrams(cx)


def test_reduction_needs_cohomology_column_additions():
    # (0,2) pairs apparently with (0,2,3), the oldest cofacet of (0,3) too,
    # so the column of (0,3) must add the coboundary of (0,2) before it
    # finds its own death (0,1,2)
    cx = square_with_diagonal()
    order = filtration_order(cx)
    red = reduce_matrix(boundary_matrix(cx, order))
    assert reduction_lists(red) == reduction_lists(standard_reduction(cx, order))
    edge, triangle = position(cx, (0, 3)), position(cx, (0, 1, 2))
    assert [edge, triangle] in red.pairs.tolist()
    assert persistence_diagrams(cx)[1].points() == [(4.0, 7.0), (5.0, 6.0)]


def test_betti_against_reduction_counts():
    # beta_k at the full complex equals the number of essential classes
    rng = np.random.default_rng(131)
    for _ in range(15):
        cx = random_monotone_complex(rng)
        dgs = persistence_diagrams(cx)
        vmax = cx.max_weight
        for k in (0, 1):
            essentials = sum(1 for p in dgs[k].pairs if p.is_essential)
            assert essentials == betti(cx, k, vmax)


def test_euler_consistency_along_filtration():
    # at every prefix, vertices - edges + triangles = b0 - b1 + (unpaired
    # triangles so far), with classes tracked in filtration positions
    rng = np.random.default_rng(137)
    for _ in range(10):
        cx = random_monotone_complex(rng)
        order = filtration_order(cx)
        pairs, essential = reduction_lists(reduce_matrix(boundary_matrix(cx, order)))
        pos_of = {sid: p for p, sid in enumerate(order)}
        pair_pos = [(pos_of[b], pos_of[d]) for b, d in pairs]
        ess_pos = [pos_of[s] for s in essential]

        v = e = t = 0
        for prefix in range(len(order)):
            dim = cx.simplexes[order[prefix]].dimension
            v, e, t = v + (dim == 0), e + (dim == 1), t + (dim == 2)
            alive = [0, 0, 0]
            for b, d in pair_pos:
                if b <= prefix < d:
                    alive[cx.simplexes[order[b]].dimension] += 1
            for b in ess_pos:
                if b <= prefix:
                    alive[cx.simplexes[order[b]].dimension] += 1
            assert v - e + t == alive[0] - alive[1] + alive[2]


def test_empty_complex_has_empty_diagrams():
    cx = assign_weights([], [])
    assert cx.max_weight == 0.0
    diagrams = persistence_diagrams(cx)
    assert {k: d.pairs for k, d in diagrams.items()} == {0: (), 1: ()}


# ---------------------------------------------------------------------------
# types and serialization


def test_pair_validation():
    with pytest.raises(ValueError, match="degree"):
        PersistencePair(2, 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="exceeds"):
        PersistencePair(0, 2.0, 1.0, 0)
    with pytest.raises(ValueError, match="degree-1"):
        PersistenceDiagram(0, (PersistencePair(1, 0.0, 1.0, 0, 1),))


@pytest.mark.parametrize("degree", [-1, 2, 5])
def test_a_diagram_of_another_degree_is_rejected_even_when_empty(tmp_path, degree):
    # PersistenceDiagram(5, ()) used to be accepted, and so was reading a CSV into one
    message = f"^degree must be 0 or 1, got {degree}$"
    with pytest.raises(ValueError, match=message):
        PersistenceDiagram(degree, ())
    p = tmp_path / "d.csv"
    p.write_text("degree,birth,death\n0,0.0,inf\n")
    with pytest.raises(ValueError, match=message):
        read_diagrams_csv(p, degrees=(degree,))


@pytest.mark.parametrize("degree", [1.0, True, np.float64(0), np.True_, "1"])
def test_a_degree_that_is_not_an_integer_is_refused_by_name(tmp_path, degree):
    # PersistencePair(1.0, ...) and PersistenceDiagram(True, ()) used to be
    # taken, and read_diagrams_csv(degrees=(1.0,)) gave a diagram keyed 1.0
    # whose rows were written 1.0,... and then refused as malformed
    message = f"^degree must be an integer, got {re.escape(repr(degree))}$"
    with pytest.raises(ValueError, match=message):
        PersistencePair(degree, 0.0, 1.0, 0, 1)
    with pytest.raises(ValueError, match=message):
        PersistenceDiagram(degree, ())
    p = tmp_path / "d.csv"
    p.write_text("degree,birth,death\n1,0.0,1.0\n")
    with pytest.raises(ValueError, match=message):
        read_diagrams_csv(p, degrees=(degree,))


def test_a_numpy_integer_degree_is_held_as_a_python_int(tmp_path):
    pair = PersistencePair(np.int64(1), 0.0, 1.0, 0, 1)
    assert type(pair.degree) is int
    assert type(PersistenceDiagram(np.int32(1), (pair,)).degree) is int
    p = tmp_path / "d.csv"
    p.write_text("degree,birth,death\n1,0.0,1.0\n")
    assert [type(k) for k in read_diagrams_csv(p, degrees=(np.int64(1),))] == [int]


@pytest.mark.parametrize("birth, death", [("-inf", "2.0"), ("nan", "2.0"), ("inf", "inf")])
def test_non_finite_birth_rejected_by_name(tmp_path, birth, death):
    # such a row used to reach the Wasserstein solver as an infeasible cost matrix
    p = tmp_path / "d.csv"
    p.write_text(f"degree,birth,death\n1,{birth},{death}\n")
    row = re.escape(f"malformed diagram CSV row: {['1', birth, death]}")
    with pytest.raises(ValueError, match=f"^{row}: birth must be finite, got {birth}$"):
        read_diagrams_csv(p)


MALFORMED_DIAGRAM_ROWS = [
    ("x,0.0,1.0", ""),
    ("1,zero,1.0", ""),
    ("1,0.0,never", ""),
    # rows that parse but make no persistence pair keep the pair's reason
    ("2,0.0,1.0", ": degree must be 0 or 1, got 2"),
    ("1,2.0,1.0", ": birth 2.0 exceeds death 1.0"),
    ("1,nan,1.0", ": birth must be finite, got nan"),
]


@pytest.mark.parametrize(
    "row, reason", MALFORMED_DIAGRAM_ROWS, ids=[row for row, _ in MALFORMED_DIAGRAM_ROWS]
)
def test_diagram_csv_names_the_malformed_row(tmp_path, row, reason):
    p = tmp_path / "d.csv"
    p.write_text(f"degree,birth,death\n0,0.0,inf\n{row}\n")
    message = re.escape(f"malformed diagram CSV row: {row.split(',')}{reason}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_diagrams_csv(p)


def test_diagram_csv_round_trip(tmp_path):
    for cx in (torus_complex(seed=79), filled_triangle()):
        dgs = persistence_diagrams(cx)
        path = tmp_path / "diagrams.csv"
        write_diagrams_csv(dgs.values(), path)
        assert ",inf" in path.read_text()
        back = read_diagrams_csv(path)
        for k in (0, 1):
            assert back[k].points() == dgs[k].points()


_VALUES = st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(-10.0, 10.0)


@st.composite
def pair_lists(draw, degree: int) -> list[PersistencePair]:
    """Pairs of one degree, tie-rich, with signed zeros, essential classes
    and simplex ids that a CSV read would give as well as real ones."""
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        birth = draw(_VALUES)
        death = draw(st.just(math.inf) | st.just(birth) | _VALUES.filter(lambda d: d >= birth))
        ids = st.sampled_from([-1, 0])
        pairs.append(PersistencePair(degree, birth, death, draw(ids), draw(st.none() | ids)))
    return pairs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 1]).flatmap(pair_lists), st.randoms(use_true_random=False))
def test_any_pair_order_gives_the_same_diagram_and_bytes(pairs, order):
    # the diagram stores one total order, so the reduction's pair order
    # reaches neither an equality nor a CSV file
    shuffled_pairs = order.sample(pairs, len(pairs))
    degree = pairs[0].degree if pairs else 0
    a, b = PersistenceDiagram(degree, pairs), PersistenceDiagram(degree, shuffled_pairs)
    assert a == b
    with tempfile.TemporaryDirectory() as tmp:
        write_diagrams_csv([a], Path(tmp) / "a.csv")
        write_diagrams_csv([b], Path(tmp) / "b.csv")
        assert (Path(tmp) / "a.csv").read_bytes() == (Path(tmp) / "b.csv").read_bytes()


def test_a_diagram_holds_its_pairs_in_the_order_it_is_written(tmp_path):
    # the reduction gives the pair (5, 6) before (4, 7), by death; the
    # diagram holds them by birth, as its CSV rows are written
    cx = square_with_diagonal()
    reduction = reduce_matrix(boundary_matrix(cx, filtration_order(cx)))
    assert cx.weights[reduction.pairs[-2:]].tolist() == [[5.0, 6.0], [4.0, 7.0]]
    dg = persistence_diagrams(cx)[1]
    assert [(p.birth, p.death) for p in dg.pairs] == [(4.0, 7.0), (5.0, 6.0)]
    write_diagrams_csv([dg], tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_text().splitlines()[1:] == ["1,4.0,7.0", "1,5.0,6.0"]
    assert read_diagrams_csv(tmp_path / "d.csv")[1].points() == dg.points()


def test_diagram_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("birth,death\n")
    with pytest.raises(ValueError, match="header"):
        read_diagrams_csv(p)
