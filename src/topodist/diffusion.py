"""Per-sample diffusion operators.

The chain is: pairwise distances within a sample, a Gaussian affinity
``W(a, b) = exp(-d(a, b)^2 / epsilon)`` with the scale picked by a median
heuristic, then a two-step normalization that first divides out the local
density (``Q^-1 W Q^-1``) and then row-normalizes, yielding a row-stochastic
operator whose spectrum is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from topodist.dataset import Sample, _readonly

__all__ = [
    "AffinityMatrix",
    "DiffusionOperator",
    "pairwise_distances",
    "median_scale",
    "affinity",
    "diffusion_operator",
    "sample_diffusion_operator",
]


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric Gaussian affinity matrix with unit diagonal.

    Entries lie in [0, 1]; exact zeros from far outliers are harmless, as the
    unit diagonal keeps row sums >= 1.  ``epsilon`` is the kernel scale.
    """

    entries: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        w = _readonly(self.entries)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"affinity matrix must be square, got shape {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("affinity matrix must be exactly symmetric")
        if not np.array_equal(np.diag(w), np.ones(w.shape[0])):
            raise ValueError("affinity diagonal must be all ones")
        if not ((w >= 0.0) & (w <= 1.0)).all():
            raise ValueError(
                "affinity entries must lie in [0, 1]; an entry exceeded 1 or is "
                "not finite (negative squared distance or non-finite input)"
            )
        object.__setattr__(self, "entries", w)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DiffusionOperator:
    """Row-stochastic operator: nonnegative entries, rows summing to 1."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        k = _readonly(self.entries)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"operator must be square, got shape {k.shape}")
        if (k < 0.0).any():
            raise ValueError("operator entries must be nonnegative")
        row_sums = k.sum(axis=1)
        if not np.allclose(row_sums, 1.0, rtol=0.0, atol=1e-12):
            worst = float(np.abs(row_sums - 1.0).max())
            raise ValueError(f"operator rows must sum to 1 within 1e-12 (off by {worst:.3e})")
        object.__setattr__(self, "entries", k)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def pairwise_distances(sample: Sample) -> np.ndarray:
    """Euclidean distance matrix between the observations of one sample.

    The result is exactly symmetric with an exactly zero diagonal (each pair
    is computed once).
    """
    return squareform(pdist(sample.observations, metric="euclidean"))


def median_scale(distances: np.ndarray, factor: float = 1.0) -> float:
    """Kernel scale: ``factor`` times the median positive squared distance.

    The median runs over the strictly-upper-triangle entries that are
    positive, squared so that ``factor=1`` puts the bulk of the Gaussian
    exponents near 1.  Zero distances between coincident observations do
    not enter it, so duplicates cannot pull the scale to zero; only a sample
    whose observations all coincide is rejected.
    """
    if not 0.0 < factor < np.inf:
        raise ValueError(f"factor must be positive and finite, got {factor}")
    d = np.asarray(distances, dtype=np.float64)
    squared = d[np.triu_indices(d.shape[0], k=1)] ** 2
    positive = squared[squared > 0.0]
    if positive.size == 0:
        raise ValueError(
            "no pairwise distance is positive (all observations coincide); "
            "kernel scale is degenerate"
        )
    return factor * float(np.median(positive))


def affinity(distances: np.ndarray, epsilon: float) -> AffinityMatrix:
    """Gaussian affinity ``exp(-d^2 / epsilon)`` of a distance matrix."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    d = np.asarray(distances, dtype=np.float64)
    return AffinityMatrix(np.exp(-(d**2) / epsilon), epsilon)


def diffusion_operator(w: AffinityMatrix) -> DiffusionOperator:
    """Two-step normalization of an affinity matrix.

    First the density correction ``W~ = Q^-1 W Q^-1`` with ``Q = diag(W 1)``,
    then row normalization ``K = Q~^-1 W~`` with ``Q~ = diag(W~ 1)``.  The
    result is row-stochastic and similar to a symmetric matrix via
    ``Q~^(1/2) K Q~^(-1/2)``.
    """
    return _two_step(w.entries)[0]


def _two_step(mat: np.ndarray) -> tuple[DiffusionOperator, np.ndarray, np.ndarray]:
    """``K``, ``W~`` and the row sums ``q~`` of :func:`diffusion_operator`."""
    q = mat.sum(axis=1)
    if (q <= 0.0).any():
        raise ValueError("affinity matrix has a nonpositive row sum")
    w_tilde = mat / np.outer(q, q)
    q_tilde = w_tilde.sum(axis=1)
    if (q_tilde <= 0.0).any():
        raise ValueError("density-normalized matrix has a nonpositive row sum")
    # float row sums land within ~1e-15 of 1; the type re-checks the 1e-12 bound
    return DiffusionOperator(w_tilde / q_tilde[:, np.newaxis]), w_tilde, q_tilde


def sample_diffusion_operator(sample: Sample, median_factor: float = 1.0) -> DiffusionOperator:
    """Full chain from a sample to its diffusion operator.

    The kernel scale is the median heuristic applied to this sample's own
    distances.
    """
    d = pairwise_distances(sample)
    eps = median_scale(d, median_factor)
    return diffusion_operator(affinity(d, eps))
