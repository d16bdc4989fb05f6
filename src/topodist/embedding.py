"""Diffusion-maps embedding of datasets from their distance matrix.

The dataset-level distances feed the same Gaussian-affinity and two-step
normalization chain used within samples; the resulting row-stochastic kernel
is diagonalized through its symmetric conjugate (guaranteeing real
eigenpairs), the trivial leading pair is dropped, and each dataset i is
embedded as (l_1 phi_1(i), ..., l_d phi_d(i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from topodist.dataset import _integer, _readonly
from topodist.diffusion import _prescaled, _two_step, affinity, median_scale
from topodist.wasserstein import DatasetDistanceMatrix, _labels, _read_table, _write_table

__all__ = [
    "Embedding",
    "diffusion_maps",
    "export_embedding",
    "read_embedding_csv",
]


@dataclass(frozen=True)
class Embedding:
    """Per-dataset coordinates with the eigenvalues that scaled them."""

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        coords = _readonly(self.coordinates)
        lam = _readonly(self.eigenvalues)
        if coords.ndim != 2:
            raise ValueError(f"coordinates must be 2-d, got shape {coords.shape}")
        n, d = coords.shape
        object.__setattr__(self, "labels", _labels(self.labels, n))
        if lam.shape != (d,):
            raise ValueError(f"{d} coordinate columns but {lam.shape} eigenvalues")
        if not d < n:
            raise ValueError(f"embedding dimension {d} must be below the dataset count {n}")
        if not np.isfinite(coords).all() or not np.isfinite(lam).all():
            raise ValueError("embedding contains non-finite values")
        if (np.diff(lam) > 0.0).any():
            raise ValueError("eigenvalues must be sorted descending")
        if (np.abs(lam) > 1.0 + 1e-10).any():
            raise ValueError("eigenvalues must lie in [-1, 1] up to 1e-10")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def n_datasets(self) -> int:
        return self.coordinates.shape[0]

    @property
    def dimension(self) -> int:
        return self.coordinates.shape[1]


def diffusion_maps(
    distances: DatasetDistanceMatrix,
    epsilon_factor: float = 1.0,
    d: int | None = None,
) -> Embedding:
    """Diffusion-maps coordinates from a dataset distance matrix.

    The kernel scale is ``epsilon_factor`` times the median squared
    off-diagonal distance, taken once the distances are brought to unit
    scale by a power of two, so finite distances of any magnitude embed.
    ``d`` defaults to 20, clamped to one below the dataset count; an
    explicit ``d`` must satisfy ``1 <= d < n``.  The eigenproblem is solved
    on the symmetric conjugate of the row-stochastic kernel; eigenvector
    signs are fixed by making each vector's largest-magnitude entry
    positive.
    """
    n = distances.n
    if n < 2:
        raise ValueError(f"need at least 2 datasets to embed, got {n}")
    if d is None:
        d = min(20, n - 1)
    elif not 1 <= _integer(d, "embedding dimension d") < n:
        raise ValueError(f"embedding dimension must satisfy 1 <= d < {n}, got {d}")

    if not distances.entries.any():
        raise ValueError("every distance between datasets is 0; the embedding scale is degenerate")
    entries = _prescaled(distances.entries)[0]
    eps = median_scale(entries, epsilon_factor)
    _, w_tilde, q_tilde = _two_step(affinity(entries, eps).entries)

    inv_sqrt = 1.0 / np.sqrt(q_tilde)
    conjugate = w_tilde * np.outer(inv_sqrt, inv_sqrt)
    vals, vecs = np.linalg.eigh(conjugate)
    top = np.argsort(vals)[::-1][: d + 1]
    lam = vals[top]
    phi = inv_sqrt[:, np.newaxis] * vecs[:, top]
    for j in range(phi.shape[1]):
        lead = int(np.argmax(np.abs(phi[:, j])))
        if phi[lead, j] < 0.0:
            phi[:, j] = -phi[:, j]

    if abs(lam[0] - 1.0) > 1e-10:
        raise ValueError(f"leading eigenvalue is {lam[0]}, expected 1")
    coords = phi[:, 1:] * lam[1:][np.newaxis, :]
    return Embedding(coords, lam[1:], distances.labels)


def export_embedding(e: Embedding, path: str | Path) -> None:
    """CSV with a label column and one column per coordinate, 12 digits."""
    _write_table(path, _embedding_header(e.dimension), e.labels, e.coordinates)


def read_embedding_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and coordinates back from :func:`export_embedding` output.

    Eigenvalues are not stored in the CSV, so the result is not a full
    :class:`Embedding`.
    """
    header, labels, coords = _read_table(path, "embedding", corner="label")
    if header != _embedding_header(coords.shape[1]):
        raise ValueError(f"unexpected coordinate columns in {path}")
    return _labels(labels, len(coords)), coords


def _embedding_header(d: int) -> list[str]:
    return ["label", *(f"coord_{j + 1}" for j in range(d))]
