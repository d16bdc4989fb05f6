"""Symmetric alternating diffusion across two or three samples.

Composing one sample's diffusion operator with another's transpose walks
through the shared latent variable; adding the two orders makes the result
symmetric.  Every row-stochastic operator splits as ``K = 1 pi^T + R`` with
``R 1 = 0``: the rank-one stationary part is the same whatever the data, so
it carries no information (as the trivial leading pair in
:mod:`topodist.embedding`) and would add about 2 to every pair operator's
norm and about 12 to every triple operator's.  Weights therefore measure the
combined operator ``S`` after double centering, ``P S P`` with
``P = I - 1 1^T / L``, which removes exactly that part.  Its Frobenius norm
is large when the samples share structure and small when they do not, so its
inverse serves as a simplex weight: low weight = strong common structure.

The functions here form ``S`` and center it, exactly as defined; they are
the oracle for :func:`topodist.complexes.raw_weights`, which gets the same
norms without forming ``S``.  Since ``K 1 = 1`` and ``P 1 = 0``, the
pre-centered operator ``G = P K P`` of each sample factors every centered
operator: ``P S_ab P = C_ab = G_a G_b^T + G_b G_a^T`` for a pair and
``P S_abc P = Z + Z^T`` with ``Z = G_c C_ab + G_a C_bc + G_b C_ac`` for a
triple, so ``||P S_abc P||_F^2 = 2 ||Z||_F^2 + 2 <Z, Z^T>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from topodist.dataset import _integer, _readonly
from topodist.diffusion import _EPS, _ZERO, DiffusionOperator

__all__ = [
    "PairOperator",
    "TripleOperator",
    "pair_operator",
    "triple_operator",
    "edge_weight",
    "triangle_weight",
]

_SYMMETRY_TOL = 1e-12


def _check_symmetric(entries: np.ndarray, what: str) -> None:
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"{what} must be square, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise ValueError(f"{what} contains non-finite values")
    gap = float(np.abs(entries - entries.T).max())
    if gap > _SYMMETRY_TOL:
        raise ValueError(f"{what} must be symmetric within 1e-12 (off by {gap:.3e})")


def _tag(ids: tuple[int, ...], what: str, size: int) -> tuple[int, ...]:
    """``ids`` in their order, checked to be ``size`` distinct vertex ids,
    each a Python or NumPy integer (:func:`~topodist.dataset._integer`)."""
    tag = tuple(_integer(v, "vertex id") for v in ids)
    if len(set(tag)) != size or len(tag) != size:
        raise ValueError(f"{what} must be {size} distinct vertex ids, got {ids}")
    return tag


@dataclass(frozen=True)
class PairOperator:
    """Alternating-diffusion operator of two samples, tagged by vertex pair."""

    entries: np.ndarray
    pair: tuple[int, int]

    def __post_init__(self) -> None:
        entries = _readonly(self.entries)
        _check_symmetric(entries, "pair operator")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "pair", tuple(sorted(_tag(self.pair, "pair", 2))))


@dataclass(frozen=True)
class TripleOperator:
    """Three-way alternating-diffusion operator, tagged by vertex triple."""

    entries: np.ndarray
    triple: tuple[int, int, int]

    def __post_init__(self) -> None:
        entries = _readonly(self.entries)
        _check_symmetric(entries, "triple operator")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "triple", tuple(sorted(_tag(self.triple, "triple", 3))))


def pair_operator(
    k1: DiffusionOperator, k2: DiffusionOperator, pair: tuple[int, int] = (0, 1)
) -> PairOperator:
    """``S = K1 K2^T + K2 K1^T``, symmetric by construction.

    The result does not depend on the argument order.  ``pair`` tags the
    operator with the vertex ids of the two samples.
    """
    if k1.size != k2.size:
        raise ValueError(f"operator sizes differ: {k1.size} vs {k2.size}")
    return PairOperator(_pair_entries(k1.entries, k2.entries), pair)


def triple_operator(
    k1: DiffusionOperator,
    k2: DiffusionOperator,
    k3: DiffusionOperator,
    s12: PairOperator,
    s23: PairOperator,
    s13: PairOperator,
    triple: tuple[int, int, int] = (0, 1, 2),
) -> TripleOperator:
    """Three-way operator assembled from the three face pair operators.

    ``S = S12 K3^T + K3 S12 + S23 K1^T + K1 S23 + S13 K2^T + K2 S13``.
    Each pair operator's tag must name the matching face of ``triple``.
    """
    sizes = {k1.size, k2.size, k3.size, s12.entries.shape[0], s23.entries.shape[0], s13.entries.shape[0]}
    if len(sizes) != 1:
        raise ValueError(f"inconsistent operator sizes: {sorted(sizes)}")
    i1, i2, i3 = _tag(triple, "triple", 3)
    faces = (tuple(sorted((i1, i2))), tuple(sorted((i2, i3))), tuple(sorted((i1, i3))))
    for s, face in zip((s12, s23, s13), faces):
        if s.pair != face:
            raise ValueError(f"pair operator tagged {s.pair} passed for face {face}")

    entries = _triple_entries(
        k1.entries, k2.entries, k3.entries, s12.entries, s23.entries, s13.entries
    )
    return TripleOperator(entries, (i1, i2, i3))


def _pair_entries(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entries of the pair operator of diffusion matrices ``a`` and ``b``."""
    return a @ b.T + b @ a.T


def _triple_entries(
    k1: np.ndarray, k2: np.ndarray, k3: np.ndarray,
    s12: np.ndarray, s23: np.ndarray, s13: np.ndarray,
) -> np.ndarray:
    """Entries of the triple operator from diffusion and face pair matrices."""
    out = np.zeros(k1.shape)
    # each face operator multiplies the opposite vertex's diffusion operator
    for s, k in ((s12, k3), (s23, k1), (s13, k2)):
        out += s @ k.T + k @ s
    return out


def _inverse_centered_frobenius(entries: np.ndarray, what: str) -> float:
    # P S P entrywise: subtract the row means, then the column means of the
    # result.  Centering the entries, rather than expanding ||P S P||^2 into
    # ||S||^2 minus correction terms, avoids cancelling the large constant
    # part in floating point.
    n = entries.shape[0]
    mean = np.full(n, 1.0 / n)
    centered = entries - (entries @ mean)[:, np.newaxis]
    centered -= mean @ centered
    norm = math.sqrt(np.vdot(centered, centered))
    # below the rounding level of the entries the centered part is noise
    if norm <= n * _EPS * math.sqrt(np.vdot(entries, entries)):
        raise ValueError(f"{what} {_ZERO}")
    return 1.0 / norm


def edge_weight(s: PairOperator) -> float:
    """Edge weight: ``1 / ||P S P||_F`` for the pair operator ``S``.

    ``P = I - 1 1^T / L`` annihilates constant vectors, so with
    ``K = 1 pi^T + R`` the centered operator is
    ``P S P = P (R_a R_b^T + R_b R_a^T) P``: only the non-constant parts of
    the two diffusion operators enter.  Adding ``c 1 1^T`` to ``S`` leaves
    the weight unchanged; a pair operator that is constant up to rounding
    raises ``ValueError``.
    """
    return _inverse_centered_frobenius(s.entries, "pair operator")


def triangle_weight(s: TripleOperator) -> float:
    """Triangle weight: ``1 / ||P S P||_F`` for the triple operator ``S``.

    Centered as in :func:`edge_weight`; ``P S P`` depends only on the
    non-constant parts ``R`` of the three diffusion operators.
    """
    return _inverse_centered_frobenius(s.entries, "triple operator")
