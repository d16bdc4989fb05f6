"""Tests for the data containers, the torus generator, and the cube ingester."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from topodist.dataset import (
    Dataset,
    Sample,
    TorusSpec,
    generate_torus_dataset,
    load_dataset,
    patch_cube,
    save_dataset,
)


# ---------------------------------------------------------------------------
# oracles


def patch_oracle(cube: np.ndarray, n: int) -> list[np.ndarray]:
    """Naive double-loop patch extraction; ground truth for patch_cube."""
    rows, cols, bands = cube.shape
    out = []
    for gr in range(rows // n):
        for gc in range(cols // n):
            obs = np.empty((bands, n * n))
            for b in range(bands):
                k = 0
                for r in range(n):
                    for c in range(n):
                        obs[b, k] = cube[gr * n + r, gc * n + c, b]
                        k += 1
            out.append(obs)
    return out


def recovered_angle(sample: Sample, pair: int) -> np.ndarray:
    """Angle on circle `pair` recovered from a noise-free sample, in [0, 2pi)."""
    x = sample.observations[:, 2 * pair]
    y = sample.observations[:, 2 * pair + 1]
    return np.mod(np.arctan2(y, x), 2.0 * np.pi)


# ---------------------------------------------------------------------------
# containers


def test_sample_basic():
    s = Sample(np.arange(6.0).reshape(3, 2), label="a")
    assert s.n_observations == 3
    assert s.observation_dim == 2
    assert not s.observations.flags.writeable


def test_sample_rejects_nan_and_inf():
    with pytest.raises(ValueError, match="non-finite"):
        Sample(np.array([[0.0, np.nan], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        Sample(np.array([[0.0, np.inf], [1.0, 2.0]]))


def test_sample_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2-d"):
        Sample(np.zeros(4))
    with pytest.raises(ValueError, match="at least 2 observations"):
        Sample(np.zeros((1, 3)))


def test_dataset_requires_two_samples_and_equal_length():
    s = Sample(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="at least 2 samples"):
        Dataset((s,))
    with pytest.raises(ValueError, match="observation count"):
        Dataset((s, Sample(np.zeros((4, 2)))))


def test_dataset_allows_varying_observation_dim():
    d = Dataset((Sample(np.zeros((3, 2))), Sample(np.zeros((3, 5)))))
    assert d.n_samples == 2
    assert d.n_observations == 3


# ---------------------------------------------------------------------------
# torus generator


def test_torus_spec_validation():
    with pytest.raises(ValueError, match="tuple_size"):
        TorusSpec(m=3, n_samples=4, n_observations=10, tuple_size=4)
    with pytest.raises(ValueError, match="r_max"):
        TorusSpec(m=3, n_samples=4, n_observations=10, r_max=0.5)
    with pytest.raises(ValueError, match="sigma"):
        TorusSpec(m=3, n_samples=4, n_observations=10, sigma=-0.1)
    with pytest.raises(ValueError, match="m must be"):
        TorusSpec(m=0, n_samples=4, n_observations=10, tuple_size=0)


@pytest.mark.parametrize(
    "field, value",
    [("m", 3.0), ("n_samples", 4.5), ("n_observations", True), ("tuple_size", np.float64(2))],
)
def test_torus_spec_counts_must_be_integers(field, value):
    counts = {"m": 3, "n_samples": 4, "n_observations": 10, "tuple_size": 2, field: value}
    message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        TorusSpec(**counts)


def test_torus_spec_takes_numpy_integer_counts_as_ints():
    spec = TorusSpec(m=np.int64(3), n_samples=np.int32(4), n_observations=np.int64(10))
    assert spec == TorusSpec(m=3, n_samples=4, n_observations=10)
    assert all(type(x) is int for x in (spec.m, spec.n_samples, spec.n_observations))
    json.dumps(generate_torus_dataset(spec).metadata)


@pytest.mark.parametrize("field", ["r_max", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_torus_spec_reals_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TorusSpec(m=3, n_samples=4, n_observations=10, **{field: value})


def test_torus_deterministic():
    spec = TorusSpec(m=5, n_samples=6, n_observations=30, r_max=3.0, sigma=0.2, seed=11)
    a = generate_torus_dataset(spec)
    b = generate_torus_dataset(spec)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.observations, sb.observations)
    assert a.metadata == b.metadata


def test_torus_m3_forces_full_index_tuple():
    # only one 3-subset of a 3-set
    d = generate_torus_dataset(TorusSpec(m=3, n_samples=5, n_observations=10, seed=0))
    assert all(t == [0, 1, 2] for t in d.metadata["index_tuples"])


def test_torus_reference_shape():
    spec = TorusSpec(m=10, n_samples=40, n_observations=200, r_max=15.0, sigma=0.1, seed=7)
    d = generate_torus_dataset(spec)
    assert d.n_samples == 40
    assert d.n_observations == 200
    assert all(s.observation_dim == 6 for s in d.samples)


def test_torus_product_of_circles():
    # noise-free coordinate pairs satisfy x^2 + y^2 = R^2 to 1e-12
    spec = TorusSpec(m=6, n_samples=8, n_observations=50, r_max=4.0, sigma=0.0, seed=3)
    d = generate_torus_dataset(spec)
    for sample, radii in zip(d.samples, d.metadata["radii"]):
        for k, r in enumerate(radii):
            assert 1.0 <= r <= 4.0
            sq = sample.observations[:, 2 * k] ** 2 + sample.observations[:, 2 * k + 1] ** 2
            np.testing.assert_allclose(sq, r**2, rtol=0.0, atol=1e-12)


def test_torus_unit_radii_makes_equal_tuples_identical():
    # r_max=1 pins every radius at exactly 1, so two samples with equal index
    # tuples observe identical coordinate sequences
    spec = TorusSpec(m=3, n_samples=6, n_observations=25, r_max=1.0, sigma=0.0, seed=2)
    d = generate_torus_dataset(spec)
    assert all(r == [1.0, 1.0, 1.0] for r in d.metadata["radii"])
    first = d.samples[0].observations
    for s in d.samples[1:]:
        assert np.array_equal(s.observations, first)


def test_torus_shared_circle_shares_angles():
    # correspondence: observation j sees the same latent angle in every sample
    spec = TorusSpec(m=4, n_samples=10, n_observations=40, tuple_size=2, r_max=5.0, seed=9)
    d = generate_torus_dataset(spec)
    tuples = d.metadata["index_tuples"]
    checked = 0
    for i in range(d.n_samples):
        for j in range(i + 1, d.n_samples):
            shared = set(tuples[i]) & set(tuples[j])
            for circle in shared:
                ai = recovered_angle(d.samples[i], tuples[i].index(circle))
                aj = recovered_angle(d.samples[j], tuples[j].index(circle))
                np.testing.assert_allclose(ai, aj, rtol=0.0, atol=1e-12)
                checked += 1
    assert checked > 0


def test_torus_noise_does_not_shift_latent_draws():
    # sigma only adds noise: index tuples, radii, and the underlying clean
    # coordinates are unchanged for the same seed
    clean = generate_torus_dataset(
        TorusSpec(m=5, n_samples=6, n_observations=30, r_max=3.0, sigma=0.0, seed=13)
    )
    noisy = generate_torus_dataset(
        TorusSpec(m=5, n_samples=6, n_observations=30, r_max=3.0, sigma=0.05, seed=13)
    )
    assert clean.metadata["index_tuples"] == noisy.metadata["index_tuples"]
    assert clean.metadata["radii"] == noisy.metadata["radii"]
    for sc, sn in zip(clean.samples, noisy.samples):
        diff = np.abs(sn.observations - sc.observations)
        assert 0.0 < diff.max() < 0.05 * 6.0


# ---------------------------------------------------------------------------
# cube ingester


def test_patch_cube_against_naive_loop():
    rng = np.random.default_rng(42)
    cube = rng.normal(size=(10, 10, 4))
    d, grid = patch_cube(cube, 5)
    assert grid == (2, 2)
    assert d.n_samples == 4
    assert d.n_observations == 4
    assert all(s.observation_dim == 25 for s in d.samples)
    expected = patch_oracle(cube, 5)
    for s, e in zip(d.samples, expected):
        assert np.array_equal(s.observations, e)
    assert d.samples[0].label == "patch_0_0"
    assert d.samples[1].label == "patch_0_1"


def test_patch_cube_reference_shape():
    cube = np.zeros((300, 300, 224))
    d, grid = patch_cube(cube, 5)
    assert d.n_samples == 3600
    assert d.n_observations == 224
    assert grid == (60, 60)
    assert all(s.observation_dim == 25 for s in d.samples)


def test_patch_cube_samples_are_c_contiguous():
    # patches are cut as transposed views; the distances read rows in place
    d, _ = patch_cube(np.random.default_rng(3).normal(size=(10, 10, 6)), 5)
    assert all(s.observations.flags.c_contiguous for s in d.samples)


def test_patch_cube_preserves_content():
    rng = np.random.default_rng(7)
    cube = rng.normal(size=(6, 9, 3))
    d, _ = patch_cube(cube, 3)
    total = sum(s.observations.sum() for s in d.samples)
    assert total == pytest.approx(cube.sum(), abs=1e-12)


def test_patch_cube_truncates_remainder():
    rng = np.random.default_rng(8)
    cube = rng.normal(size=(7, 8, 3))
    d, grid = patch_cube(cube, 3)
    assert grid == (2, 2)
    total = sum(s.observations.sum() for s in d.samples)
    assert total == pytest.approx(cube[:6, :6, :].sum(), abs=1e-12)


def test_patch_cube_errors():
    with pytest.raises(ValueError, match="at least 2"):
        patch_cube(np.zeros((5, 5, 3)), 5)  # a single patch
    with pytest.raises(ValueError, match="bands"):
        patch_cube(np.zeros((10, 10, 1)), 5)
    with pytest.raises(ValueError, match="3 axes"):
        patch_cube(np.zeros((10, 10)), 5)


@pytest.mark.parametrize("size", [2.5, 2.0, True, np.float64(2)])
def test_patch_size_must_be_an_integer(size):
    message = f"^patch_size must be an integer, got {re.escape(repr(size))}$"
    with pytest.raises(ValueError, match=message):
        patch_cube(np.zeros((4, 4, 3)), size)


def test_patch_size_takes_a_numpy_integer_as_an_int():
    cube = np.random.default_rng(0).normal(size=(4, 6, 3))
    dataset, grid = patch_cube(cube, np.int64(2))
    assert grid == (2, 3) and type(dataset.metadata["patch_size"]) is int
    json.dumps(dataset.metadata)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path: Path):
    spec = TorusSpec(m=4, n_samples=5, n_observations=20, r_max=2.0, sigma=0.3, seed=21)
    d = generate_torus_dataset(spec)
    save_dataset(d, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.n_samples == d.n_samples
    assert back.labels() == d.labels()
    assert back.metadata == d.metadata
    for sa, sb in zip(d.samples, back.samples):
        assert sa.observations.tobytes() == sb.observations.tobytes()


def test_load_rejects_size_mismatch(tmp_path: Path):
    d = generate_torus_dataset(TorusSpec(m=3, n_samples=3, n_observations=10, seed=1))
    save_dataset(d, tmp_path / "ds")
    blob = (tmp_path / "ds" / "sample_0.f64").read_bytes()
    (tmp_path / "ds" / "sample_0.f64").write_bytes(blob[: len(blob) - 8 * 6])
    with pytest.raises(ValueError, match="expected"):
        load_dataset(tmp_path / "ds")


def test_load_rejects_nan_payload(tmp_path: Path):
    d = generate_torus_dataset(TorusSpec(m=3, n_samples=3, n_observations=10, seed=1))
    save_dataset(d, tmp_path / "ds")
    bad = np.full((10, 6), np.nan, dtype="<f8")
    (tmp_path / "ds" / "sample_0.f64").write_bytes(bad.tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        load_dataset(tmp_path / "ds")


def test_load_rejects_missing_or_bad_manifest(tmp_path: Path):
    with pytest.raises(ValueError, match="manifest"):
        load_dataset(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_dataset(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"n_samples": 2}))
    with pytest.raises(ValueError, match="missing"):
        load_dataset(tmp_path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n_samples", 3.7, "n_samples must be an integer, got 3.7"),
        ("n_samples", True, "n_samples must be an integer, got True"),
        ("n_observations", "10", "n_observations must be an integer, got '10'"),
        ("d_obs", [6.9, 6, 6], "d_obs[0] must be an integer, got 6.9"),
        ("d_obs", 6, "manifest d_obs must be a JSON array, got 6"),
        ("labels", "abc", "manifest labels must be a JSON array, got 'abc'"),
        ("metadata", [1, 2], "manifest metadata must be a JSON object, got [1, 2]"),
        (None, 7, "must be a JSON object"),
    ],
)
def test_load_checks_the_manifest_by_name(tmp_path: Path, key, value, message):
    # no count is truncated, and no wrong JSON type escapes as a TypeError
    save_dataset(generate_torus_dataset(TorusSpec(m=3, n_samples=3, n_observations=10)), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    if key is None:
        manifest = value
    else:
        manifest[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dataset(tmp_path)
