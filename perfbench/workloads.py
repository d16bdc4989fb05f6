"""Benchmark workloads: a seeded corpus generator plus a pipeline config.

Each workload is a closed loop from one process: the harness starts the
next corpus run only after the previous one has finished.  The corpus is
a deterministic function of the workload seed, and the program under test
only ever sees the generated datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import topodist as td

__all__ = ["CubeCorpus", "TorusCorpus", "Workload", "WORKLOADS", "TINY"]

# the warm-up pair is fixed, never the workload corpus, so set-up time
# does not grow with the corpus being measured
WARMUP_SEED = 12345


@dataclass(frozen=True)
class TorusCorpus:
    """One torus dataset per entry of ``m_values``, seeds drawn from the workload seed."""

    m_values: tuple[int, ...]
    n_samples: int
    n_observations: int
    tuple_size: int = 3
    r_max: float = 15.0
    sigma: float = 0.1

    def generate(self, seed: int) -> tuple[list[td.Dataset], tuple[str, ...]]:
        rng = np.random.default_rng(seed)
        datasets, labels = [], []
        for i, m in enumerate(self.m_values):
            spec = td.TorusSpec(
                m=m,
                n_samples=self.n_samples,
                n_observations=self.n_observations,
                tuple_size=self.tuple_size,
                r_max=self.r_max,
                sigma=self.sigma,
                seed=int(rng.integers(2**32)),
            )
            datasets.append(td.generate_torus_dataset(spec))
            labels.append(f"m{m}_{i}")
        return datasets, tuple(labels)


@dataclass(frozen=True)
class CubeCorpus:
    """Synthetic ``rows x cols x bands`` cubes cut into ``patch_size`` patches.

    Every pixel of a cube is a random convex mix (Dirichlet weights) of
    ``n_signatures`` band-periodic sinusoids drawn per cube, plus Gaussian
    noise of standard deviation ``sigma``.
    """

    n_cubes: int
    rows: int
    cols: int
    bands: int
    patch_size: int = 5
    n_signatures: int = 3
    sigma: float = 0.1

    def generate(self, seed: int) -> tuple[list[td.Dataset], tuple[str, ...]]:
        rng = np.random.default_rng(seed)
        band = np.arange(self.bands)
        datasets, labels = [], []
        for i in range(self.n_cubes):
            cycles = rng.choice(
                np.arange(1, self.bands // 4 + 1), size=self.n_signatures, replace=False
            )
            phases = rng.uniform(0.0, 2.0 * np.pi, size=self.n_signatures)
            signatures = np.sin(
                2.0 * np.pi * cycles[:, None] * band[None, :] / self.bands + phases[:, None]
            )
            mix = rng.dirichlet(np.ones(self.n_signatures), size=(self.rows, self.cols))
            cube = mix @ signatures + rng.normal(
                0.0, self.sigma, size=(self.rows, self.cols, self.bands)
            )
            dataset, _ = td.patch_cube(cube, self.patch_size)
            datasets.append(dataset)
            labels.append(f"cube_{i:02d}")
        return datasets, tuple(labels)


@dataclass(frozen=True)
class Workload:
    """A named corpus, the config it runs under, and the fixed warm-up pair."""

    name: str
    corpus: TorusCorpus | CubeCorpus
    config: td.PipelineConfig
    warmup: TorusCorpus | CubeCorpus


_TORUS_CONFIG = td.PipelineConfig(degree=1, p=2.0)
_CUBE_CONFIG = td.PipelineConfig(skeleton="grid", degree=0, p=2.0)
_TORUS_WARMUP = TorusCorpus(m_values=(8, 8), n_samples=10, n_observations=16)
_CUBE_WARMUP = CubeCorpus(n_cubes=2, rows=10, cols=10, bands=16)

# Why each workload exists is stated in BENCHMARK.json and in
# predictions.json, which also name the layers each one stresses.
WORKLOADS = {
    w.name: w
    for w in (
        # A5 / dimension_sweep scale: the dense L x L triangle kernel dominates
        Workload(
            "torus-sweep",
            TorusCorpus(m_values=(3, 3, 8, 8, 20, 20), n_samples=20, n_observations=100),
            _TORUS_CONFIG,
            _TORUS_WARMUP,
        ),
        # 34,220 triangles per dataset over tiny operators: per-simplex Python work
        Workload(
            "torus-many-samples",
            TorusCorpus(m_values=(8, 8), n_samples=60, n_observations=20),
            _TORUS_CONFIG,
            _TORUS_WARMUP,
        ),
        # real-data path: sparse grid complex, 1,920 operators, 435 Wasserstein solves
        Workload(
            "cube-corpus",
            CubeCorpus(n_cubes=30, rows=40, cols=40, bands=64),
            _CUBE_CONFIG,
            _CUBE_WARMUP,
        ),
    )
}

# Same code paths at a size that finishes in well under a second; the
# harness self-test runs these.
TINY = {
    "torus-sweep": Workload(
        "torus-sweep",
        TorusCorpus(m_values=(3, 8, 20), n_samples=10, n_observations=16),
        _TORUS_CONFIG,
        _TORUS_WARMUP,
    ),
    "torus-many-samples": Workload(
        "torus-many-samples",
        TorusCorpus(m_values=(8, 8), n_samples=12, n_observations=10),
        _TORUS_CONFIG,
        _TORUS_WARMUP,
    ),
    "cube-corpus": Workload(
        "cube-corpus",
        CubeCorpus(n_cubes=4, rows=10, cols=10, bands=16),
        _CUBE_CONFIG,
        _CUBE_WARMUP,
    ),
}
