"""End-to-end pipeline and CLI behavior.

Checks the full chain against its own staged artifacts: a pipeline run
must be reproducible byte for byte, and rerunning any later stage from
the saved intermediates must give the same files.
"""

import dataclasses
import itertools
import json
import os
import math
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topodist
import topodist.cli as cli
import topodist.pipeline as pipeline
from reference_complexes import weight_of
from topodist.cli import main
from topodist.dataset import (
    Dataset, Sample, TorusSpec, generate_torus_dataset, load_dataset, patch_cube,
)
from topodist.pipeline import (
    PipelineConfig,
    PipelineError,
    build_weighted_complex,
    cross_correlation_complex,
    dimension_sweep,
    graph_spectral_distances,
    run_pipeline,
    weight_profile,
    write_weight_profile_csv,
)
from topodist.complexes import (
    Simplex,
    Skeleton,
    WeightedComplex,
    assign_weights,
    complete_skeleton,
    grid_skeleton,
    read_complex_csv,
    write_complex_csv,
)
from topodist.diffusion import DiffusionOperator
from topodist.homology import (
    PersistenceDiagram,
    PersistencePair,
    persistence_diagrams,
    read_diagrams_csv,
    write_diagrams_csv,
)
from topodist.embedding import Embedding, export_embedding, read_embedding_csv
from topodist.wasserstein import (
    DatasetDistanceMatrix,
    DiagramDistanceSpec,
    distance_matrix,
    read_distance_csv,
    wasserstein,
    write_distance_csv,
)


SPEC = TorusSpec(
    m=4, n_samples=6, n_observations=40, tuple_size=2, r_max=3.0, sigma=0.05, seed=1
)


def torus_datasets(seeds):
    return [
        generate_torus_dataset(dataclasses.replace(SPEC, seed=s)) for s in seeds
    ]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestPipelineConfig:
    def test_defaults_round_trip_json(self, tmp_path):
        config = PipelineConfig(degree=0, p=1.5, normalize=True)
        config.to_json(tmp_path / "config.json")
        assert PipelineConfig.from_json(tmp_path / "config.json") == config

    def test_unknown_keys_rejected(self, tmp_path):
        (tmp_path / "config.json").write_text('{"bogus": 1}')
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_json(tmp_path / "config.json")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel_epsilon_factor": 0.0},
            {"skeleton": "full"},
            {"degree": 2},
            {"p": 0.5},
            {"p": float("inf")},
            {"infinite_policy": "keep"},
            {"infinite_policy": "cap"},
            {"infinite_policy": "cap", "cap_value": float("inf")},
            {"infinite_policy": "cap", "cap_value": float("nan")},
            {"weight_scheme": "magic"},
            {"normalize": "false"},
            {"normalize": 1},
            {"degree": True},
            {"degree": 1.0},
            {"kernel_epsilon_factor": "2"},
            {"kernel_epsilon_factor": float("inf")},
            {"kernel_epsilon_factor": float("nan")},
            {"p": "2"},
            {"p": True},
            {"infinite_policy": "cap", "cap_value": "2"},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_numpy_integer_degree_is_taken_as_an_int(self, tmp_path):
        config = PipelineConfig(degree=np.int64(0))
        assert config == PipelineConfig(degree=0) and type(config.degree) is int
        config.to_json(tmp_path / "config.json")
        assert PipelineConfig.from_json(tmp_path / "config.json") == config

    def test_cap_with_value_accepted(self):
        config = PipelineConfig(infinite_policy="cap", cap_value=2.0)
        assert config.metric_spec().cap_value == 2.0

    def test_metric_defaults_are_the_spec_defaults(self):
        assert PipelineConfig().metric_spec() == DiagramDistanceSpec()


_COUNTS = {"m": 3, "n_samples": 4, "n_observations": 10}


@pytest.mark.parametrize(
    "spec, field, value, rest",
    [
        (TorusSpec, "seed", 1.5, _COUNTS),
        (TorusSpec, "seed", -1, _COUNTS),
        (TorusSpec, "seed", True, _COUNTS),
        (TorusSpec, "r_max", "2", _COUNTS),
        (TorusSpec, "sigma", True, _COUNTS),
        (DiagramDistanceSpec, "p", "2", {}),
        (DiagramDistanceSpec, "p", True, {}),
        (DiagramDistanceSpec, "cap_value", "2", {}),
        (DiagramDistanceSpec, "cap_value", True, {"infinite_policy": "cap"}),
        # an int beyond the float range used to be taken, or to raise OverflowError
        *(
            pytest.param(spec, field, 10**400, rest, id=f"{field}-beyond-the-float-range")
            for spec, field, rest in [
                (TorusSpec, "r_max", _COUNTS),
                (TorusSpec, "sigma", _COUNTS),
                (PipelineConfig, "kernel_epsilon_factor", {}),
                (DiagramDistanceSpec, "p", {}),
                (DiagramDistanceSpec, "cap_value", {"infinite_policy": "cap"}),
            ]
        ),
    ],
)
def test_spec_rejects_a_bad_setting_by_name(spec, field, value, rest):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        spec(**rest, **{field: value})


# one run per BLAS thread count: matrix products may sum in another order
_BLAS_RUN = """
import dataclasses, sys
import numpy as np
import topodist as td
spec = td.TorusSpec(m=8, n_samples=10, n_observations=100, r_max=15, sigma=0.1)
datasets = [td.generate_torus_dataset(dataclasses.replace(spec, seed=s)) for s in (1, 2, 3)]
config = td.PipelineConfig()
weights = [td.build_weighted_complex(ds, config).weights for ds in datasets]
matrix, _ = td.run_pipeline(datasets, config)
np.savez(sys.argv[1], matrix.entries, *weights)
"""


class TestRunPipeline:
    def test_distances_move_by_at_most_the_weight_changes_across_blas_thread_counts(
        self, tmp_path
    ):
        # the stability corollary of the distance-matrix test in
        # test_wasserstein.py at p = 2: |D_ij(1) - D_ij(2)| is at most
        # ||w_i(1) - w_i(2)||_2 + ||w_j(1) - w_j(2)||_2, whether or not this
        # machine's BLAS sums in another order on two threads
        src = str(Path(topodist.__file__).parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", _BLAS_RUN, out], env=env, check=True)
            with np.load(out) as arrays:
                runs.append([arrays[f"arr_{k}"] for k in range(4)])
        (d_1, *w_1), (d_2, *w_2) = runs
        moved = [float(np.linalg.norm(a - b)) for a, b in zip(w_1, w_2)]
        for i, j in itertools.combinations(range(3), 2):
            bound = moved[i] + moved[j]
            # a few ulp for the rounding of the distances and the norms
            slack = 8 * np.finfo(float).eps * (bound + d_1[i, j] + d_2[i, j])
            assert abs(d_1[i, j] - d_2[i, j]) <= bound + slack

    def test_identical_datasets_have_zero_distance(self):
        ds = torus_datasets([3])[0]
        matrix, _ = run_pipeline([ds, ds], PipelineConfig())
        assert matrix.entries[0, 1] == 0.0

    def test_mixed_observation_counts_across_datasets(self):
        small = generate_torus_dataset(
            dataclasses.replace(SPEC, n_observations=9, seed=5)
        )
        large = generate_torus_dataset(
            dataclasses.replace(SPEC, n_observations=200, seed=6)
        )
        matrix, diagrams = run_pipeline([small, large], PipelineConfig())
        assert matrix.n == 2
        assert np.isfinite(matrix.entries).all()
        assert set(diagrams) == {"dataset_0", "dataset_1"}

    def test_artifacts_are_deterministic(self, tmp_path):
        datasets = torus_datasets([1, 2])
        config = PipelineConfig()
        run_pipeline(datasets, config, out_dir=tmp_path / "a")
        run_pipeline(datasets, config, out_dir=tmp_path / "b")
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] for k in a)

    def test_matrix_equals_the_one_from_its_saved_diagrams(self, tmp_path):
        # L = 100: many degree-1 pairs, whose cost sums once followed the
        # reduction's order in memory and the sorted order on disk, and so
        # differed in the last bit; a diagram now holds the order it is written in
        spec = TorusSpec(m=8, n_samples=10, n_observations=100, r_max=15, sigma=0.1)
        datasets = [generate_torus_dataset(dataclasses.replace(spec, seed=s)) for s in (70, 71, 72)]
        config = PipelineConfig()
        matrix, _ = run_pipeline(datasets, config, out_dir=tmp_path)
        saved = [
            read_diagrams_csv(tmp_path / "diagrams" / f"{label}.csv")[config.degree]
            for label in matrix.labels
        ]
        again = distance_matrix(saved, config.metric_spec(), labels=matrix.labels)
        assert np.array_equal(again.entries, matrix.entries)

    def test_artifact_layout(self, tmp_path):
        datasets = torus_datasets([1, 2])
        run_pipeline(datasets, PipelineConfig(), out_dir=tmp_path, labels=["x", "y"])
        names = set(tree_bytes(tmp_path))
        assert names == {
            "config.json",
            "complexes/x.csv",
            "complexes/y.csv",
            "diagrams/x.csv",
            "diagrams/y.csv",
            "distances.csv",
        }

    def test_staged_rerun_reproduces_artifacts(self, tmp_path):
        datasets = torus_datasets([1, 2])
        out = tmp_path / "run"
        run_pipeline(datasets, PipelineConfig(), out_dir=out, labels=["ds1", "ds2"])

        assert main(["ph", "--complex", str(out / "complexes/ds1.csv"),
                     "--out", str(tmp_path / "pd1.csv")]) == 0
        assert (tmp_path / "pd1.csv").read_bytes() == (out / "diagrams/ds1.csv").read_bytes()

        assert main([
            "distance", str(out / "diagrams/ds1.csv"), str(out / "diagrams/ds2.csv"),
            "--out", str(tmp_path / "dist.csv"),
        ]) == 0
        assert (tmp_path / "dist.csv").read_bytes() == (out / "distances.csv").read_bytes()

    def test_grid_skeleton_from_patch_metadata(self):
        rng = np.random.default_rng(0)
        cube = rng.normal(size=(6, 9, 5))
        dataset, grid = patch_cube(cube, 3)
        assert (grid.rows, grid.cols) == (2, 3)
        cx = build_weighted_complex(dataset, PipelineConfig(skeleton="grid"))
        assert cx.count(0) == 6
        assert cx.count(2) == 2 * (grid.rows - 1) * (grid.cols - 1)

    @pytest.mark.parametrize(
        "key, value",
        [("grid_rows", 2.9), ("grid_rows", "2"), ("grid_rows", True),
         ("grid_cols", 3.0), ("grid_cols", np.float64(3.0))],
    )
    def test_grid_metadata_must_hold_integers(self, key, value):
        # a 2 x 3 patch grid; int() would read 2.9 and "2" as 2 rows
        dataset, _ = patch_cube(np.random.default_rng(0).normal(size=(6, 9, 5)), 3)
        config = PipelineConfig(skeleton="grid")
        bad = Dataset(dataset.samples, {**dataset.metadata, key: value})
        message = f"^{key} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            build_weighted_complex(bad, config)
        numpy_ints = {**dataset.metadata, "grid_rows": np.int64(2), "grid_cols": np.int32(3)}
        cx = build_weighted_complex(Dataset(dataset.samples, numpy_ints), config)
        assert cx.count(2) == 4

    def test_weights_hold_no_operator_stack_beside_the_centered_one(self):
        # 8 x 8 patches of 64 bands: the pair stack of the grid's edges and
        # the centered stack G, plus one block's temporaries; a full stack
        # of operators K or affinities beside G would pass the bound
        cube = np.random.default_rng(4).normal(size=(40, 40, 64))
        dataset, _ = patch_cube(cube, 5)
        config = PipelineConfig(skeleton="grid", degree=0)
        tracemalloc.start()
        try:
            cx = build_weighted_complex(dataset, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = 8 * 64 * 64
        assert peak < cx.count(1) * matrix + 2 * len(dataset.samples) * matrix

    def test_error_names_dataset_and_stage(self):
        datasets = torus_datasets([1, 2])
        with pytest.raises(PipelineError, match=r"dataset 'dataset_0', stage weights"):
            run_pipeline(datasets, PipelineConfig(skeleton="grid"))

    def test_a_grid_that_does_not_cover_the_patches_names_the_dataset(self):
        # a 2 x 2 patch grid whose metadata claims 1 x 3
        dataset, _ = patch_cube(np.random.default_rng(0).normal(size=(6, 6, 5)), 3)
        bad = Dataset(dataset.samples, {**dataset.metadata, "grid_rows": 1, "grid_cols": 3})
        message = r"^dataset 'dataset_0', stage weights: grid 1x3 does not match 4 samples$"
        with pytest.raises(PipelineError, match=message):
            run_pipeline([bad, dataset], PipelineConfig(skeleton="grid"))

    def test_a_cap_below_a_birth_stops_at_the_distance_stage(self, tmp_path):
        # every degree-0 class is born at 0.0, so a cap of -1.0 cannot hold it
        config = PipelineConfig(degree=0, infinite_policy="cap", cap_value=-1.0)
        message = r"^stage distance: cap_value -1.0 is below a birth 0.0; cannot cap$"
        with pytest.raises(PipelineError, match=message):
            run_pipeline(torus_datasets([1, 2]), config, out_dir=tmp_path)
        assert (tmp_path / "diagrams").is_dir() and not (tmp_path / "distances.csv").exists()

    def test_duplicate_labels_rejected(self):
        datasets = torus_datasets([1, 2])
        repeated = "^dataset labels must be unique; 'same' is used more than once$"
        for entry in (run_pipeline, graph_spectral_distances):
            with pytest.raises(ValueError, match=repeated):
                entry(datasets, PipelineConfig(), labels=["same", "same"])
            with pytest.raises(ValueError, match="^need 2 labels, got 3$"):
                entry(datasets, PipelineConfig(), labels=["a", "b", "c"])

    def test_labels_that_name_a_path_are_rejected(self, tmp_path):
        # a label becomes a file name under complexes/ and diagrams/
        datasets = torus_datasets([1, 2])
        for entry in (run_pipeline, graph_spectral_distances):
            out = {"out_dir": tmp_path / "run"} if entry is run_pipeline else {}
            for label in ("../escaped", "a/b", "a\\b"):
                message = f"^dataset label {re.escape(repr(label))} contains a path separator$"
                with pytest.raises(ValueError, match=message):
                    entry(datasets, PipelineConfig(), labels=[label, "c"], **out)
        assert not any(tmp_path.iterdir())

    def test_single_dataset_rejected(self):
        for entry in (run_pipeline, graph_spectral_distances):
            with pytest.raises(ValueError, match="^need at least 2 datasets, got 1$"):
                entry(torus_datasets([1]), PipelineConfig())

    @pytest.mark.parametrize("power", [520, -520])
    def test_a_dataset_scaled_by_a_power_of_two_writes_the_unscaled_bytes(self, tmp_path, power):
        # squared distances overflow beyond 2**511 and turn subnormal below
        # 2**-511; each kernel sees its sample scaled to unit size instead
        spec = TorusSpec(m=3, n_samples=5, n_observations=12, seed=1)
        datasets = [generate_torus_dataset(dataclasses.replace(spec, seed=s)) for s in (1, 2)]
        scaled = [
            Dataset(tuple(Sample(np.ldexp(s.observations, power)) for s in d.samples), d.metadata)
            for d in datasets
        ]
        run_pipeline(datasets, PipelineConfig(), out_dir=tmp_path / "base")
        run_pipeline(scaled, PipelineConfig(), out_dir=tmp_path / "scaled")
        assert tree_bytes(tmp_path / "scaled") == tree_bytes(tmp_path / "base")

    def test_far_outliers_do_not_stop_the_run(self):
        # one observation per sample so far away that its Gaussian affinity
        # to every other observation underflows to exactly 0
        def dataset(seed):
            rng = np.random.default_rng(seed)
            samples = []
            for i in range(6):
                obs = rng.normal(size=(50, 2))
                obs[i] = (60.0, 0.0)
                samples.append(Sample(obs))
            return Dataset(tuple(samples))

        matrix, diagrams = run_pipeline([dataset(s) for s in (1, 2, 3)], PipelineConfig())
        assert np.isfinite(matrix.entries).all()
        assert all(len(pds[0].pairs) == 6 for pds in diagrams.values())

    def test_duplicate_observations_do_not_stop_the_run(self):
        # 8 of one sample's 10 observations coincide: most of its pairwise
        # distances are zero, but not all of them
        datasets = torus_datasets([1, 2])
        obs = np.array(datasets[0].samples[0].observations[:10])
        obs[2:] = obs[2]
        samples = [Sample(s.observations[:10]) for s in datasets[0].samples[1:]]
        dataset = Dataset((Sample(obs), *samples))
        matrix, diagrams = run_pipeline([dataset, datasets[1]], PipelineConfig())
        assert np.isfinite(matrix.entries).all()
        assert len(diagrams["dataset_0"][0].pairs) == 6

    def test_mixed_feature_scales_within_a_sample(self, tmp_path):
        # features six orders of magnitude apart inside every observation:
        # the median kernel scale is set by the large ones alone
        scale = np.array([1e3, 1e3, 1e-3, 1e-3, 1.0, 1.0])
        datasets = []
        for seed in (1, 2):
            ds = generate_torus_dataset(dataclasses.replace(SPEC, tuple_size=3, seed=seed))
            samples = tuple(Sample(s.observations * scale) for s in ds.samples)
            datasets.append(Dataset(samples, ds.metadata))
        matrix, _ = run_pipeline(datasets, PipelineConfig(), out_dir=tmp_path)
        assert np.isfinite(matrix.entries).all()
        for label in ("dataset_0", "dataset_1"):
            cx = read_complex_csv(tmp_path / "complexes" / f"{label}.csv")
            assert np.isfinite(cx.weights).all()
            assert (cx.weights[cx.dims > 0] > 0.0).all()

    @staticmethod
    def assert_same_diagrams(dataset, relabeled):
        _, diagrams = run_pipeline([dataset, relabeled], PipelineConfig())
        for degree in (0, 1):
            a, b = (d[degree] for d in diagrams.values())
            assert wasserstein(a, b, DiagramDistanceSpec(p=2.0, degree=degree)) <= 1e-9
            essential = [sorted(p.birth for p in d.pairs if p.is_essential) for d in (a, b)]
            np.testing.assert_allclose(essential[0], essential[1], rtol=0.0, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), perm=st.permutations(range(8)))
    def test_sample_permutation_leaves_diagrams_unchanged(self, seed, perm):
        dataset = generate_torus_dataset(dataclasses.replace(SPEC, n_samples=8, seed=seed))
        permuted = Dataset(tuple(dataset.samples[i] for i in perm), dataset.metadata)
        self.assert_same_diagrams(dataset, permuted)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), perm=st.permutations(range(SPEC.n_observations)))
    def test_observation_relabeling_leaves_diagrams_unchanged(self, seed, perm):
        # the j-th observations correspond across samples, so one relabeling
        # of j applied to every sample must not change the diagrams
        dataset = generate_torus_dataset(dataclasses.replace(SPEC, n_samples=8, seed=seed))
        relabeled = Dataset(
            tuple(Sample(s.observations[list(perm)], s.label) for s in dataset.samples),
            dataset.metadata,
        )
        self.assert_same_diagrams(dataset, relabeled)


class TestSharedSkeleton:
    """One skeleton per shape per call, and artifacts as if built alone."""

    def spy(self, monkeypatch, name):
        """The arguments of each call to ``topodist.pipeline.<name>``."""
        calls, original = [], getattr(pipeline, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, recorded)
        return calls

    def assert_shared_and_per_dataset(self, monkeypatch, tmp_path, datasets, config, build):
        builds = self.spy(monkeypatch, build)
        homology = self.spy(monkeypatch, "persistence_diagrams")
        labels = [f"d{i}" for i in range(len(datasets))]
        shapes = [len(d.samples) for d in datasets]
        run_pipeline(datasets, config, out_dir=tmp_path / "run", labels=labels)
        assert len(builds) == len(set(shapes))
        skeletons = [cx.simplexes for cx, in homology]
        for i, j in itertools.combinations(range(len(datasets)), 2):
            assert (skeletons[i] is skeletons[j]) == (shapes[i] == shapes[j])
        # no cache outlives a call
        run_pipeline(datasets, config, labels=labels)
        assert len(builds) == 2 * len(set(shapes))

        out = tmp_path / "run"
        for dataset, label in zip(datasets, labels):
            cx = build_weighted_complex(dataset, config)
            write_complex_csv(cx, tmp_path / "cx.csv")
            write_diagrams_csv(persistence_diagrams(cx).values(), tmp_path / "pd.csv")
            assert (tmp_path / "cx.csv").read_bytes() == (
                out / "complexes" / f"{label}.csv"
            ).read_bytes()
            assert (tmp_path / "pd.csv").read_bytes() == (
                out / "diagrams" / f"{label}.csv"
            ).read_bytes()

    def test_complete_skeleton_is_built_once_per_sample_count(self, monkeypatch, tmp_path):
        datasets = [
            generate_torus_dataset(dataclasses.replace(SPEC, n_samples=n, seed=seed))
            for seed, n in ((1, 4), (2, 4), (3, 5))
        ]
        self.assert_shared_and_per_dataset(
            monkeypatch, tmp_path, datasets, PipelineConfig(), "complete_skeleton"
        )

    def test_cofacet_index_is_built_once_per_skeleton_per_call(self, monkeypatch):
        built, index = [], Skeleton._cofacets

        def recorded(skeleton):
            built.append(index.func(skeleton))
            return built[-1]

        spy = cached_property(recorded)
        spy.__set_name__(Skeleton, "_cofacets")
        monkeypatch.setattr(Skeleton, "_cofacets", spy)
        datasets = [
            generate_torus_dataset(dataclasses.replace(SPEC, n_samples=5, seed=seed))
            for seed in (1, 2)
        ]
        run_pipeline(datasets, PipelineConfig())
        assert len(built) == 1
        run_pipeline(datasets, PipelineConfig())
        assert len(built) == 2
        # built afresh, not handed out again from a cache that outlives a call
        first, second = built
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    def test_grid_skeleton_is_built_once_per_grid(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(2)
        datasets = [patch_cube(rng.normal(size=(6, 9, 5)), 3)[0] for _ in range(3)]
        config = PipelineConfig(skeleton="grid", degree=0)
        self.assert_shared_and_per_dataset(
            monkeypatch, tmp_path, datasets, config, "grid_skeleton"
        )


class TestBaselines:
    def test_cross_correlation_complex_is_monotone_and_positive(self):
        ds = torus_datasets([4])[0]
        cx = cross_correlation_complex(complete_skeleton(len(ds.samples)), ds)
        assert cx.is_monotone()
        weights = np.array([weight_of(cx, s.vertices) for s in cx.simplexes])
        dims = np.array([s.dimension for s in cx.simplexes])
        assert (weights[dims == 0] == 0.0).all()
        assert (weights[dims > 0] >= 1.0).all()

    def test_cross_correlation_names_the_first_degenerate_pair(self, monkeypatch):
        ds = torus_datasets([4])[0]
        corrcoef = np.corrcoef

        def degenerate(x):
            rho = corrcoef(x)
            rho[1, 3] = rho[3, 1] = np.nan
            rho[2, 3] = rho[3, 2] = 0.0
            return rho

        monkeypatch.setattr(np, "corrcoef", degenerate)
        skeleton = complete_skeleton(len(ds.samples))
        message = r"^correlation between samples {} and 3 is degenerate$"
        with pytest.raises(ValueError, match=message.format(1)):
            cross_correlation_complex(skeleton, ds)
        without = [s for s in skeleton if not {1, 3} <= set(s.vertices)]
        with pytest.raises(ValueError, match=message.format(2)):
            cross_correlation_complex(without, ds)

    def test_normalizing_without_an_edge_or_triangle_names_the_cause(self):
        # nothing of positive dimension to take the median of
        ds = torus_datasets([4])[0]
        vertices = [Simplex((0,)), Simplex((1,))]
        ops = [DiffusionOperator(np.full((3, 3), 1 / 3))] * 2
        message = r"^no positive-dimension weight to normalize by"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                pipeline._median_normalized(assign_weights(vertices, ops))
            with pytest.raises(ValueError, match=message):
                pipeline._median_normalized(cross_correlation_complex(vertices, ds))

    @pytest.mark.parametrize("scheme", ["alternating", "cross-correlation"])
    def test_normalize_divides_by_the_median_positive_weight(self, scheme):
        ds = torus_datasets([4])[0]
        plain = build_weighted_complex(ds, PipelineConfig(weight_scheme=scheme))
        config = PipelineConfig(weight_scheme=scheme, normalize=True)
        median = np.median(plain.weights[plain.dims > 0])
        assert np.array_equal(build_weighted_complex(ds, config).weights, plain.weights / median)

    def test_cross_correlation_scheme_runs_in_pipeline(self):
        datasets = torus_datasets([1, 2])
        matrix, _ = run_pipeline(
            datasets, PipelineConfig(weight_scheme="cross-correlation")
        )
        assert np.isfinite(matrix.entries).all()

    def test_graph_spectral_matrix_shape(self):
        datasets = torus_datasets([1, 2, 3])
        matrix = graph_spectral_distances(datasets, PipelineConfig())
        assert matrix.n == 3
        assert np.array_equal(matrix.entries, matrix.entries.T)
        assert matrix.entries[0, 0] == 0.0
        assert matrix.entries[0, 1] > 0.0

    def test_graph_spectral_uses_the_configured_skeleton(self):
        rng = np.random.default_rng(5)
        datasets = [patch_cube(rng.normal(size=(6, 9, 5)), 3)[0] for _ in range(3)]
        config = PipelineConfig(skeleton="grid", degree=0)
        spectra = []
        for dataset in datasets:
            cx = build_weighted_complex(dataset, config)
            assert cx.simplexes.vertices.tolist() == grid_skeleton(2, 3).vertices.tolist()
            edges = cx.dims == 1
            a, b = cx.vertices[edges, :2].T
            w = np.zeros((6, 6))
            w[a, b] = w[b, a] = cx.weights[edges]
            spectra.append(np.sort(np.linalg.eigvalsh(w)))
        want = [[np.linalg.norm(x - y) for y in spectra] for x in spectra]
        assert np.array_equal(graph_spectral_distances(datasets, config).entries, want)

    def test_graph_spectral_needs_equal_sample_counts(self):
        a = torus_datasets([1])[0]
        b = generate_torus_dataset(dataclasses.replace(SPEC, n_samples=7, seed=2))
        with pytest.raises(ValueError, match="equal sample counts"):
            graph_spectral_distances([a, b], PipelineConfig())


class TestWeightProfile:
    def test_rows_cover_observed_buckets(self):
        rows = weight_profile(SPEC, 2)
        kinds = {kind for kind, *_ in rows}
        assert kinds == {"edge", "triangle"}
        n_pairs = 2 * (6 * 5 // 2)
        assert sum(count for kind, _, _, _, count in rows if kind == "edge") == n_pairs

    def test_deterministic(self):
        assert weight_profile(SPEC, 2) == weight_profile(SPEC, 2)

    def test_full_overlap_when_tuple_is_everything(self):
        spec = dataclasses.replace(SPEC, m=2, tuple_size=2)
        rows = weight_profile(spec, 1)
        assert all(common == 2 for _, common, _, _, _ in rows)

    def test_csv_output(self, tmp_path):
        rows = weight_profile(SPEC, 1)
        write_weight_profile_csv(rows, tmp_path / "profile.csv")
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0] == "simplex,common_count,mean_weight,std_weight,count"
        assert len(lines) == len(rows) + 1

    def test_seed_count_validated(self):
        with pytest.raises(ValueError, match="n_seeds"):
            weight_profile(SPEC, 0)

    @pytest.mark.parametrize("n_seeds", [True, 1.5, np.float64(1)])
    def test_seed_count_must_be_an_integer(self, n_seeds):
        message = f"^n_seeds must be an integer, got {re.escape(repr(n_seeds))}$"
        with pytest.raises(ValueError, match=message):
            weight_profile(SPEC, n_seeds)


class TestDimensionSweep:
    def test_labels_and_groups(self, tmp_path):
        template = dataclasses.replace(SPEC, tuple_size=3, m=6, sigma=0.1)
        matrix, m_of = dimension_sweep([3, 6], 2, template, out_dir=tmp_path)
        assert matrix.labels == ("m3_r0", "m3_r1", "m6_r0", "m6_r1")
        assert m_of == {"m3_r0": 3, "m3_r1": 3, "m6_r0": 6, "m6_r1": 6}
        config = json.loads((tmp_path / "config.json").read_text())
        assert (config["degree"], config["p"]) == (1, 2.0)

    def test_single_m_value_rejected(self):
        with pytest.raises(ValueError, match="distinct m values"):
            dimension_sweep([5], 1, SPEC)

    def test_per_m_validated(self):
        with pytest.raises(ValueError, match="per_m"):
            dimension_sweep([3, 6], 0, SPEC)

    @pytest.mark.parametrize("m", [3.5, 3.0, True])
    def test_m_values_must_be_integers(self, m):
        # no float is a circle count, not even 3.0: none is truncated
        with pytest.raises(ValueError, match=f"^m must be an integer, got {re.escape(repr(m))}$"):
            dimension_sweep([m, 6], 1, SPEC)

    @pytest.mark.parametrize("per_m", [True, 1.5, np.float64(1)])
    def test_per_m_must_be_an_integer(self, per_m):
        message = f"^per_m must be an integer, got {re.escape(repr(per_m))}$"
        with pytest.raises(ValueError, match=message):
            dimension_sweep([3, 6], per_m, SPEC)


# ---------------------------------------------------------------------------
# saved files: one reading rule for complexes, diagrams, distances and embeddings

# per kind: the reader, a header, its rows, a row one cell too short or too
# long, and the result as plain values
SAVED_FILES = {
    "complex": (
        read_complex_csv, "dim,v0,v1,v2,weight", ["0,0,,,0.0", "0,1,,,0.0", "1,0,1,,0.5"],
        "1,0,1,0.5", lambda cx: ([s.vertices for s in cx.simplexes], cx.weights.tolist()),
    ),
    "diagram": (
        read_diagrams_csv, "degree,birth,death", ["0,0.0,inf", "1,0.5,1.0"],
        "1,0.5", lambda dgs: {k: dg.points() for k, dg in dgs.items()},
    ),
    "distance": (
        read_distance_csv, ",a,b", ["a,0,1", "b,1,0"],
        "b,1,0,0", lambda m: (m.labels, m.entries.tolist()),
    ),
    "embedding": (
        read_embedding_csv, "label,coord_1", ["a,0.5", "b,-0.5"],
        "b", lambda e: (e[0], e[1].tolist()),
    ),
}


@pytest.mark.parametrize("kind", SAVED_FILES)
def test_each_reader_skips_blank_rows_and_names_a_ragged_row(tmp_path, kind):
    read, header, rows, ragged, plain = SAVED_FILES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join([header, *rows, ""]))
    expected = plain(read(path))
    path.write_text("\n".join(["", header, "", *rows, "", "", ""]))
    assert plain(read(path)) == expected
    path.write_text("\n".join([header, rows[0], ragged, *rows[1:], ""]))
    message = re.escape(f"malformed {kind} CSV row: {ragged.split(',')}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read(path)


@pytest.mark.parametrize("kind", SAVED_FILES)
@pytest.mark.parametrize(
    "fault, reason",
    [(b"x" * 131_073, "field larger than field limit"), (b"\xff", "'utf-8' codec can't decode")],
    ids=["field over the csv limit", "not utf-8"],
)
def test_a_file_csv_cannot_read_is_named(tmp_path, kind, fault, reason):
    # these used to escape as _csv.Error and UnicodeDecodeError, naming no file
    read, header, rows, _, _ = SAVED_FILES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes("\n".join([header, *rows, ""]).encode() + fault + b"\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"malformed {kind} CSV {path}: {reason}")):
        read(path)


# the whole float range, and with it -0.0, subnormals and the largest floats
_FINITE = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


@st.composite
def full_complexes(draw) -> WeightedComplex:
    """Every simplex on up to 4 ids of the int64 range, vertices weighing
    0.0 or -0.0 and the others any finite float."""
    ids = sorted(draw(st.sets(st.just(2**63 - 1) | st.integers(0, 2**63 - 1), max_size=4)))
    rows = [[*s, *[-1] * (3 - k)] for k in (1, 2, 3) for s in itertools.combinations(ids, k)]
    weights = [draw(st.sampled_from([0.0, -0.0]) if row[1] < 0 else _FINITE) for row in rows]
    return WeightedComplex(Skeleton(rows), weights)


@settings(max_examples=200, deadline=None)
@given(full_complexes())
def test_a_complex_file_reads_back_bit_for_bit(cx):
    # ids up to the int64 maximum, whose 19 digits the cell grammar takes
    with tempfile.TemporaryDirectory() as tmp:
        write_complex_csv(cx, Path(tmp) / "cx.csv")
        back = read_complex_csv(Path(tmp) / "cx.csv")
    assert back.vertices.tolist() == cx.vertices.tolist()
    assert _bits(back.weights) == _bits(cx.weights)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0, 1]), _FINITE, _FINITE | st.just(math.inf))))
def test_a_diagram_file_reads_back_bit_for_bit(points):
    pairs = [
        PersistencePair(k, min(b, d), max(b, d), 0, None if math.isinf(d) else 1)
        for k, b, d in points
    ]
    diagrams = [PersistenceDiagram(k, [p for p in pairs if p.degree == k]) for k in (0, 1)]
    with tempfile.TemporaryDirectory() as tmp:
        write_diagrams_csv(diagrams, Path(tmp) / "pd.csv")
        back = read_diagrams_csv(Path(tmp) / "pd.csv")
    for dg in diagrams:
        assert list(map(_bits, back[dg.degree].points())) == list(map(_bits, dg.points()))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_FINITE.map(abs)] * 3), st.tuples(*[_FINITE] * 6))
def test_a_table_file_reads_back_as_its_12_digit_text(distances, coordinates):
    # write_distance_csv and export_embedding keep 12 significant digits
    a, b, c = distances
    labels = ("x", "y", "z")
    matrix = DatasetDistanceMatrix(np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]]), labels)
    embedding = Embedding(np.reshape(coordinates, (3, 2)), np.array([0.5, 0.25]), labels)
    with tempfile.TemporaryDirectory() as tmp:
        write_distance_csv(matrix, Path(tmp) / "d.csv")
        export_embedding(embedding, Path(tmp) / "e.csv")
        tables = [
            (read_distance_csv(Path(tmp) / "d.csv").entries, matrix.entries),
            (read_embedding_csv(Path(tmp) / "e.csv")[1], embedding.coordinates),
        ]
    for back, written in tables:
        expected = [float(format(x, ".12g")) for x in written.flat]
        assert _bits(back.flat) == _bits(expected)


# text that int() or float() takes but no writer writes: each used to be read
# as a value (١ as 1, 1_0 as 10, Infinity and 1e400 deaths as essential classes)
_LENIENT_IDS = ["1_0", "+2", " 2", "١"]
_LENIENT_FLOATS = ["2e1_0", "０.５"]


@pytest.mark.parametrize(
    "row",
    [f"0,{v},,,0.0" for v in _LENIENT_IDS] + [f"0,1,,,{w}" for w in _LENIENT_FLOATS],
)
def test_a_complex_file_refuses_text_no_writer_writes(tmp_path, row):
    path = tmp_path / "cx.csv"
    path.write_text(f"dim,v0,v1,v2,weight\n0,0,,,0.0\n{row}\n", encoding="utf-8")
    message = re.escape(f"malformed complex CSV row: {row.split(',')}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_complex_csv(path)


@pytest.mark.parametrize(
    "row",
    ["١,0.5,1.0"]
    + [f"1,0.5,{w}" for w in [*_LENIENT_FLOATS, "Infinity", "1e400"]]
    + [f"1,{w},2.0" for w in _LENIENT_FLOATS],
)
def test_a_diagram_file_refuses_text_no_writer_writes(tmp_path, row):
    path = tmp_path / "pd.csv"
    path.write_text(f"degree,birth,death\n0,0.0,inf\n{row}\n", encoding="utf-8")
    message = re.escape(f"malformed diagram CSV row: {row.split(',')}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_diagrams_csv(path)


@pytest.mark.parametrize("cell", _LENIENT_IDS + _LENIENT_FLOATS)
def test_a_distance_file_refuses_text_no_writer_writes(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f",a,b\na,0,{cell}\nb,{cell},0\n", encoding="utf-8")
    message = re.escape(f"malformed distance CSV row: {['a', '0', cell]}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_distance_csv(path)


@pytest.mark.parametrize("cell", _LENIENT_IDS + _LENIENT_FLOATS)
def test_an_embedding_file_refuses_text_no_writer_writes(tmp_path, cell):
    path = tmp_path / "e.csv"
    path.write_text(f"label,coord_1\na,0.5\nb,{cell}\nc,0\n", encoding="utf-8")
    message = re.escape(f"malformed embedding CSV row: {['b', cell]}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_embedding_csv(path)


# write a table with a non-ASCII label, then read it back
_LOCALE_RUN = r"""
import sys
import topodist as td
matrix = td.DatasetDistanceMatrix([[0.0, 0.5], [0.5, 0.0]], ("caf\u00e9", "b"))
td.write_distance_csv(matrix, sys.argv[1])
assert td.read_distance_csv(sys.argv[1]).labels == ("caf\u00e9", "b")
"""


def test_a_file_is_utf_8_whatever_the_locale(tmp_path):
    # under the C locale write_distance_csv used to raise UnicodeEncodeError
    src = str(Path(topodist.__file__).parents[1])
    for name, mode in [("utf8", {"PYTHONUTF8": "1"}),
                       ("c", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})]:
        env = {**os.environ, **mode}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", _LOCALE_RUN, tmp_path / name], env=env, check=True)
    assert (tmp_path / "c").read_bytes() == (tmp_path / "utf8").read_bytes()
    assert "café".encode() in (tmp_path / "c").read_bytes()


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

    @pytest.mark.parametrize(
        "flags, spec",
        [
            ([], DiagramDistanceSpec()),
            (["--degree", 0, "--p", 1], DiagramDistanceSpec(p=1.0, degree=0)),
        ],
    )
    def test_distance_flags_reach_the_spec(self, tmp_path, monkeypatch, flags, spec):
        seen = []

        def recording(diagrams, spec, labels):
            seen.append(spec)
            return distance_matrix(diagrams, spec, labels=labels)

        monkeypatch.setattr(cli, "distance_matrix", recording)
        for name, death in (("a", 1.0), ("b", 2.0)):
            rows = f"degree,birth,death\n0,0.0,{death}\n1,0.5,{death}\n"
            (tmp_path / f"{name}.csv").write_text(rows)
        assert self.run(
            "distance", tmp_path / "a.csv", tmp_path / "b.csv", "--out", tmp_path / "d.csv",
            *flags,
        ) == 0
        assert seen == [spec]

    @pytest.mark.parametrize(
        "metric",
        [[], ["--degree", 0, "--infinite-policy", "cap", "--cap-value", 100]],
        ids=["drop", "cap"],
    )
    def test_staged_chain_matches_pipeline(self, tmp_path, metric):
        # diagrams always carry inf: only the metric's policy drops or caps
        # essential classes, so ph -> distance equals pipeline under both
        for seed, name in ((1, "ds1"), (2, "ds2")):
            assert self.run(
                "generate-sim", "--m", 4, "--n-samples", 6, "--n-observations", 40,
                "--tuple-size", 2, "--r-max", 3, "--sigma", 0.05, "--seed", seed,
                "--out", tmp_path / name,
            ) == 0
        for name in ("ds1", "ds2"):
            assert self.run(
                "build-complex", "--dataset", tmp_path / name,
                "--out", tmp_path / f"{name}.cx.csv",
            ) == 0
            assert self.run(
                "ph", "--complex", tmp_path / f"{name}.cx.csv",
                "--out", tmp_path / f"{name}.csv",
            ) == 0
        assert self.run(
            "distance", tmp_path / "ds1.csv", tmp_path / "ds2.csv",
            "--out", tmp_path / "dist.csv", *metric,
        ) == 0
        assert self.run(
            "pipeline", tmp_path / "ds1", tmp_path / "ds2", "--out", tmp_path / "run", *metric,
        ) == 0
        assert (tmp_path / "dist.csv").read_bytes() == (
            tmp_path / "run" / "distances.csv"
        ).read_bytes()
        assert self.run(
            "embed", "--distances", tmp_path / "run" / "distances.csv",
            "--out", tmp_path / "embedding.csv",
        ) == 0
        assert (tmp_path / "embedding.csv").read_text().startswith("label,coord_1")

    def test_embed_errors_name_the_row_and_the_zero_distances(self, tmp_path, capsys):
        path = tmp_path / "distances.csv"
        path.write_text(",a,b\na,0,x\nb,x,0\n")
        assert self.run("embed", "--distances", path, "--out", tmp_path / "e.csv") == 2
        assert "error: malformed distance CSV row: ['a', '0', 'x']" in capsys.readouterr().err
        path.write_text(",a,b\na,0.0,0.0\nb,0.0,0.0\n")
        assert self.run("embed", "--distances", path, "--out", tmp_path / "e.csv") == 2
        assert "error: every distance between datasets is 0" in capsys.readouterr().err

    def test_patch_cube_command(self, tmp_path):
        rng = np.random.default_rng(3)
        np.save(tmp_path / "cube.npy", rng.normal(size=(6, 6, 4)))
        assert self.run(
            "patch-cube", "--cube", tmp_path / "cube.npy", "--patch-size", 3,
            "--out", tmp_path / "patches",
        ) == 0
        assert self.run(
            "build-complex", "--dataset", tmp_path / "patches",
            "--out", tmp_path / "grid.csv", "--skeleton", "grid",
        ) == 0
        assert (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize(
        "flag", [["--degree", 0], ["--p", 1], ["--infinite-policy", "cap"], ["--cap-value", 5]]
    )
    def test_build_complex_takes_no_metric_flag(self, tmp_path, capsys, flag):
        # a complex does not depend on the diagram metric
        with pytest.raises(SystemExit) as exited:
            self.run("build-complex", "--dataset", tmp_path, "--out", tmp_path / "cx.csv", *flag)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(map(str, flag))}" in capsys.readouterr().err

    def test_build_complex_loads_a_config_file_holding_metric_fields(self, tmp_path):
        self.run(
            "generate-sim", "--m", 3, "--n-samples", 4, "--n-observations", 12,
            "--seed", 1, "--out", tmp_path / "ds",
        )
        config = {"degree": 0, "p": 1.0, "infinite_policy": "cap", "cap_value": 5.0}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert self.run(
            "build-complex", "--dataset", tmp_path / "ds", "--out", tmp_path / "a.csv"
        ) == 0
        assert self.run(
            "build-complex", "--dataset", tmp_path / "ds", "--out", tmp_path / "b.csv",
            "--config", tmp_path / "config.json",
        ) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_weight_profile_command_writes_the_library_profile(self, tmp_path):
        assert self.run(
            "weight-profile", "--m", 4, "--n-samples", 5, "--n-observations", 12,
            "--seeds", 2, "--out", tmp_path / "wp.csv",
        ) == 0
        spec = TorusSpec(m=4, n_samples=5, n_observations=12)
        write_weight_profile_csv(weight_profile(spec, 2), tmp_path / "lib.csv")
        assert (tmp_path / "wp.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_dimension_sweep_command_writes_the_library_sweep(self, tmp_path):
        assert self.run(
            "dimension-sweep", "--m-values", 3, 4, "--per-m", 1, "--n-samples", 4,
            "--n-observations", 12, "--seed", 3, "--out", tmp_path / "sweep",
        ) == 0
        template = TorusSpec(m=4, n_samples=4, n_observations=12, seed=3)
        dimension_sweep([3, 4], 1, template, out_dir=tmp_path / "lib")
        assert tree_bytes(tmp_path / "sweep") == tree_bytes(tmp_path / "lib")
        assert (tmp_path / "sweep" / "distances.csv").read_text().startswith(",m3_r0,m4_r0")

    def test_config_file_with_flag_override(self, tmp_path):
        (tmp_path / "config.json").write_text('{"degree": 0, "p": 1.0}')
        for seed, name in ((1, "a"), (2, "b")):
            self.run(
                "generate-sim", "--m", 4, "--n-samples", 5, "--n-observations", 20,
                "--tuple-size", 2, "--r-max", 3, "--seed", seed, "--out", tmp_path / name,
            )
        assert self.run(
            "pipeline", tmp_path / "a", tmp_path / "b", "--out", tmp_path / "run",
            "--config", tmp_path / "config.json", "--p", 3.0,
        ) == 0
        effective = json.loads((tmp_path / "run" / "config.json").read_text())
        assert (effective["degree"], effective["p"]) == (0, 3.0)

    @pytest.mark.parametrize(
        "config, flags, field",
        [
            ('{"normalize": "false"}', [], "normalize"),
            ('{"kernel_epsilon_factor": "2"}', [], "kernel_epsilon_factor"),
            ('{"p": "2"}', [], "p must"),
            ("{}", ["--epsilon-factor", "inf"], "kernel_epsilon_factor"),
            # a malformed file used to be an error that named no file
            ("{not json", [], "config.json: Expecting property name"),
            ("[1]", [], "config.json must be a JSON object"),
            # this p used to run every dataset, then exit 1 with an OverflowError
            pytest.param(
                '{"p": 1' + "0" * 400 + "}", [], "p must be finite as a float",
                id="p-beyond-the-float-range",
            ),
        ],
    )
    def test_badly_typed_config_exits_2(self, tmp_path, capsys, config, flags, field):
        (tmp_path / "config.json").write_text(config)
        for seed, name in ((1, "a"), (2, "b")):
            self.run(
                "generate-sim", "--m", 3, "--n-samples", 4, "--n-observations", 12,
                "--seed", seed, "--out", tmp_path / name,
            )
        capsys.readouterr()
        assert self.run(
            "pipeline", tmp_path / "a", tmp_path / "b", "--out", tmp_path / "run",
            "--config", tmp_path / "config.json", *flags,
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "run").exists()

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        assert self.run("ph", "--complex", tmp_path / "missing.csv",
                        "--out", tmp_path / "x.csv") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, kind, flag",
        [("ph", "complex", "--complex"), ("distance", "diagram", None),
         ("embed", "distance", "--distances")],
    )
    def test_a_field_over_the_csv_limit_exits_2(self, tmp_path, capsys, command, kind, flag):
        # these commands used to exit 1 with a _csv.Error traceback
        _, header, rows, _, _ = SAVED_FILES[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join([header, *rows, "x" * 200_000, ""]))
        given = [flag, path] if flag else [path]
        assert self.run(command, *given, "--out", tmp_path / "out.csv") == 2
        assert capsys.readouterr().err.startswith(f"error: malformed {kind} CSV {path}: ")

    def test_an_id_beyond_int64_exits_2_naming_the_row(self, tmp_path, capsys):
        # this row used to exit 1 with an OverflowError traceback
        path = tmp_path / "cx.csv"
        path.write_text("dim,v0,v1,v2,weight\n0,99999999999999999999,,,0.0\n")
        assert self.run("ph", "--complex", path, "--out", tmp_path / "pd.csv") == 2
        row = ["0", "99999999999999999999", "", "", "0.0"]
        assert capsys.readouterr().err == f"error: malformed complex CSV row: {row}\n"

    def test_graph_spectral_command_writes_the_library_matrix(self, tmp_path):
        for seed, name in ((1, "a"), (2, "b")):
            self.run(
                "generate-sim", "--m", 3, "--n-samples", 4, "--n-observations", 12,
                "--seed", seed, "--out", tmp_path / name,
            )
        assert self.run(
            "pipeline", tmp_path / "a", tmp_path / "b", "--graph-spectral",
            "--degree", 0, "--out", tmp_path / "run",
        ) == 0
        config = PipelineConfig(degree=0)
        datasets = [load_dataset(tmp_path / name) for name in ("a", "b")]
        matrix = graph_spectral_distances(datasets, config, labels=["a", "b"])
        config.to_json(tmp_path / "config.json")
        write_distance_csv(matrix, tmp_path / "distances.csv")
        for name in ("config.json", "distances.csv"):
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_duplicate_diagram_stems_rejected(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for d in ("a", "b"):
            (tmp_path / d / "pd.csv").write_text("degree,birth,death\n")
        assert self.run(
            "distance", tmp_path / "a" / "pd.csv", tmp_path / "b" / "pd.csv",
            "--out", tmp_path / "dist.csv",
        ) == 2
        assert capsys.readouterr().err == (
            "error: dataset labels must be unique; 'pd' is used more than once\n"
        )

    def test_duplicate_dataset_directory_names_rejected(self, tmp_path, capsys):
        # the command leaves the label rule to the library: its one message, exit 2
        for d in ("x", "y"):
            self.run(
                "generate-sim", "--m", 3, "--n-samples", 4, "--n-observations", 12,
                "--seed", 1, "--out", tmp_path / d / "ds",
            )
        capsys.readouterr()
        for flags in ([], ["--graph-spectral"]):
            assert self.run(
                "pipeline", tmp_path / "x" / "ds", tmp_path / "y" / "ds",
                "--out", tmp_path / "run", *flags,
            ) == 2
            assert capsys.readouterr().err == (
                "error: dataset labels must be unique; 'ds' is used more than once\n"
            )
        assert not (tmp_path / "run").exists()
