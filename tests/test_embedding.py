"""Tests for the diffusion-maps embedding of dataset distance matrices."""

import re

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from topodist.embedding import (
    Embedding,
    diffusion_maps,
    export_embedding,
    read_embedding_csv,
)
from topodist.wasserstein import DatasetDistanceMatrix


# ---------------------------------------------------------------------------
# oracles and helpers


def random_distance_matrix(rng: np.random.Generator, n: int) -> DatasetDistanceMatrix:
    points = rng.normal(size=(n, 3))
    return DatasetDistanceMatrix(
        squareform(pdist(points)), tuple(f"ds{i}" for i in range(n))
    )


def embedding_oracle(dm: DatasetDistanceMatrix, factor: float, d: int):
    """Same pipeline via the plain nonsymmetric eigenproblem of K.

    Returns (eigenvalues l_1..l_d, unit-normalized sign-fixed eigenvectors)
    plus the leading pair for the trivial-pair checks.
    """
    dist = dm.entries
    n = dm.n
    eps = factor * float(np.median(dist[np.triu_indices(n, 1)] ** 2))
    w = np.exp(-(dist**2) / eps)
    q_inv = np.diag(1.0 / w.sum(axis=1))
    w_tilde = q_inv @ w @ q_inv
    k = np.diag(1.0 / w_tilde.sum(axis=1)) @ w_tilde

    vals, vecs = np.linalg.eig(k)
    assert np.abs(vals.imag).max() < 1e-10
    assert np.abs(vecs.imag).max() < 1e-8
    vals, vecs = vals.real, vecs.real
    order = np.argsort(vals)[::-1][: d + 1]
    vals, vecs = vals[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        lead = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[lead, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs


def unit_columns(m: np.ndarray) -> np.ndarray:
    out = np.array(m, copy=True)
    for j in range(out.shape[1]):
        norm = np.linalg.norm(out[:, j])
        out[:, j] /= norm
        lead = int(np.argmax(np.abs(out[:, j])))
        if out[lead, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


# ---------------------------------------------------------------------------
# behavior


def test_matches_nonsymmetric_eigen_oracle():
    rng = np.random.default_rng(307)
    dm = random_distance_matrix(rng, 9)
    emb = diffusion_maps(dm, epsilon_factor=1.0, d=4)

    vals, vecs = embedding_oracle(dm, 1.0, 4)
    # trivial pair: eigenvalue 1 with a constant eigenvector
    assert vals[0] == pytest.approx(1.0, abs=1e-10)
    lead = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    assert lead.max() - lead.min() < 1e-8

    np.testing.assert_allclose(emb.eigenvalues, vals[1:], rtol=0.0, atol=1e-10)
    # coordinates agree with oracle eigenvectors up to per-column scale
    np.testing.assert_allclose(
        unit_columns(emb.coordinates), unit_columns(vecs[:, 1:]), rtol=0.0, atol=1e-8
    )


def test_three_equidistant_datasets():
    c = 1.5
    dist = np.full((3, 3), c)
    np.fill_diagonal(dist, 0.0)
    dm = DatasetDistanceMatrix(dist, ("a", "b", "c"))
    emb = diffusion_maps(dm, epsilon_factor=1.0, d=2)

    # all-equal off-diagonals: eps = c^2, affinity a = exp(-1), and the two
    # nontrivial eigenvalues coincide at (1 - a) / (1 + 2a)
    a = np.exp(-1.0)
    expected = (1.0 - a) / (1.0 + 2.0 * a)
    np.testing.assert_allclose(emb.eigenvalues, [expected, expected], atol=1e-12)

    gaps = [
        np.linalg.norm(emb.coordinates[i] - emb.coordinates[j])
        for i, j in [(0, 1), (0, 2), (1, 2)]
    ]
    assert max(gaps) - min(gaps) < 1e-10
    assert min(gaps) > 0.0


def test_default_dimension_clamped():
    rng = np.random.default_rng(311)
    assert diffusion_maps(random_distance_matrix(rng, 30)).dimension == 20
    assert diffusion_maps(random_distance_matrix(rng, 10)).dimension == 9


def test_dimension_bounds_enforced():
    rng = np.random.default_rng(313)
    dm = random_distance_matrix(rng, 6)
    with pytest.raises(ValueError, match="1 <= d"):
        diffusion_maps(dm, d=0)
    with pytest.raises(ValueError, match="1 <= d"):
        diffusion_maps(dm, d=6)


@pytest.mark.parametrize("d", [True, 1.5, 2.0])
def test_dimension_must_be_an_integer(d):
    dm = random_distance_matrix(np.random.default_rng(313), 6)
    with pytest.raises(ValueError, match=rf"^embedding dimension d must be an integer, got {d!r}$"):
        diffusion_maps(dm, d=d)
    assert diffusion_maps(dm, d=np.int64(2)).dimension == 2


@pytest.mark.parametrize("factor", [float("inf"), float("nan")])
def test_epsilon_factor_must_be_positive_and_finite(factor):
    dm = random_distance_matrix(np.random.default_rng(313), 6)
    with pytest.raises(ValueError, match="factor must be positive and finite"):
        diffusion_maps(dm, epsilon_factor=factor)


def test_zero_matrix_rejected():
    # datasets whose diagrams are all empty are 0 apart; the error is about
    # datasets, not about the observations of a sample
    dm = DatasetDistanceMatrix(np.zeros((4, 4)), tuple("abcd"))
    with pytest.raises(ValueError, match=r"^every distance between datasets is 0; .*degenerate"):
        diffusion_maps(dm, d=2)


def test_one_dataset_is_too_few_to_embed():
    # its one distance is the zero diagonal; the error is about the count
    dm = DatasetDistanceMatrix(np.zeros((1, 1)), ("a",))
    for d in (None, 1):
        with pytest.raises(ValueError, match="^need at least 2 datasets to embed, got 1$"):
            diffusion_maps(dm, d=d)


def test_distances_of_any_finite_magnitude_embed():
    # squared, distances of 1e200 overflow; the kernel sees them at unit scale
    dm = random_distance_matrix(np.random.default_rng(347), 6)
    base = diffusion_maps(dm, d=3)
    for scale in (2.0**700, 2.0**-700):
        emb = diffusion_maps(DatasetDistanceMatrix(dm.entries * scale, dm.labels), d=3)
        assert np.array_equal(emb.coordinates, base.coordinates)
    for scale in (1e200, 1e-200):
        emb = diffusion_maps(DatasetDistanceMatrix(dm.entries * scale, dm.labels), d=3)
        np.testing.assert_allclose(emb.coordinates, base.coordinates, rtol=0.0, atol=1e-12)


def test_eigenvalue_invariants_on_random_inputs():
    rng = np.random.default_rng(317)
    for n in (5, 8, 12):
        emb = diffusion_maps(random_distance_matrix(rng, n), d=n - 1)
        assert (np.diff(emb.eigenvalues) <= 0.0).all()
        assert np.abs(emb.eigenvalues).max() <= 1.0 + 1e-10


def test_permutation_equivariance():
    rng = np.random.default_rng(331)
    dm = random_distance_matrix(rng, 8)
    emb = diffusion_maps(dm, d=4)

    perm = rng.permutation(8)
    permuted = DatasetDistanceMatrix(
        dm.entries[np.ix_(perm, perm)], tuple(dm.labels[i] for i in perm)
    )
    emb_p = diffusion_maps(permuted, d=4)

    np.testing.assert_allclose(emb_p.eigenvalues, emb.eigenvalues, atol=1e-12)
    np.testing.assert_allclose(
        emb_p.coordinates, emb.coordinates[perm], rtol=0.0, atol=1e-10
    )
    assert emb_p.labels == tuple(emb.labels[i] for i in perm)


# ---------------------------------------------------------------------------
# type validation and export


def test_embedding_validation():
    with pytest.raises(ValueError, match="descending"):
        Embedding(np.zeros((3, 2)), np.array([0.1, 0.2]), ("a", "b", "c"))
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        Embedding(np.zeros((3, 2)), np.array([1.5, 0.2]), ("a", "b", "c"))
    with pytest.raises(ValueError, match="below the dataset count"):
        Embedding(np.zeros((2, 2)), np.array([0.2, 0.1]), ("a", "b"))
    with pytest.raises(ValueError, match="labels"):
        Embedding(np.zeros((3, 1)), np.array([0.2]), ("a",))


def test_a_repeated_label_is_refused_by_name(tmp_path):
    # the label rule of distance matrices, so no embedding file has two rows
    # of one label
    repeated = "^dataset labels must be unique; 'a' is used more than once$"
    with pytest.raises(ValueError, match=repeated):
        Embedding(np.zeros((3, 1)), np.array([0.2]), ("a", "b", "a"))
    p = tmp_path / "e.csv"
    p.write_text("label,coord_1\na,1\nb,2\na,3\n")
    with pytest.raises(ValueError, match=repeated):
        read_embedding_csv(p)


def test_export_round_trip(tmp_path):
    rng = np.random.default_rng(337)
    emb = diffusion_maps(random_distance_matrix(rng, 7), d=3)
    path = tmp_path / "embedding.csv"
    export_embedding(emb, path)

    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,coord_1,coord_2,coord_3"
    assert len(lines) == 8

    labels, coords = read_embedding_csv(path)
    assert labels == emb.labels
    np.testing.assert_allclose(coords, emb.coordinates, rtol=1e-11, atol=1e-15)


def test_read_embedding_rejects_bad_header(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("name,x\nfoo,1\n")
    with pytest.raises(ValueError, match="header"):
        read_embedding_csv(p)
    p.write_text("label,x\nfoo,1\n")
    with pytest.raises(ValueError, match="coordinate columns"):
        read_embedding_csv(p)


def test_read_embedding_names_the_malformed_row(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("label,coord_1\nfoo,1\nbar,x\n")
    with pytest.raises(ValueError, match=r"^malformed embedding CSV row: \['bar', 'x'\]$"):
        read_embedding_csv(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_embedding_names_a_non_finite_row(tmp_path, value):
    # such a coordinate used to be read back as a number
    p = tmp_path / "e.csv"
    p.write_text(f"label,coord_1,coord_2\nfoo,1,2\nbar,0.5,{value}\n")
    row = re.escape(str(["bar", "0.5", value]))
    with pytest.raises(ValueError, match=f"^malformed embedding CSV row: {row}: .*finite"):
        read_embedding_csv(p)
