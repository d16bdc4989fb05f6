"""Per-sample diffusion operators.

The chain is: pairwise distances within a sample, a Gaussian affinity
``W(a, b) = exp(-d(a, b)^2 / epsilon)`` with the scale picked by a median
heuristic, then a two-step normalization that first divides out the local
density (``Q^-1 W Q^-1``) and then row-normalizes, yielding a row-stochastic
operator whose spectrum is real.

The pipeline runs the chain for all samples of a dataset in blocks of
consecutive samples whose temporaries stay small, each block straight into
the centered operators ``G = P K P`` that the simplex weights are built
from.
:func:`sample_diffusion_operator` and the validated :class:`AffinityMatrix`
and :class:`DiffusionOperator` types run the chain for one sample and are
the oracle it is tested against, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

from topodist.dataset import Sample, _readonly, _real

__all__ = [
    "AffinityMatrix",
    "DiffusionOperator",
    "pairwise_distances",
    "median_scale",
    "affinity",
    "diffusion_operator",
    "sample_diffusion_operator",
]

# bytes of operators in one block of samples, and of each gathered operand
# stack of the edge products, triangle chunks and bound in ``complexes``
_CHUNK_BYTES = 1 << 18
_EPS = float(np.finfo(np.float64).eps)
_ZERO = "is the zero matrix once its constant part is removed; its weight is infinite"


def _per_chunk(nbytes: int) -> int:
    """How many operands of ``nbytes`` bytes fit one :data:`_CHUNK_BYTES` chunk, at least one."""
    return max(1, _CHUNK_BYTES // max(1, nbytes))


def _norms(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of ``stack``."""
    return np.array([math.sqrt(np.vdot(x, x)) for x in stack])


def _scale_factor(value: float, name: str = "factor") -> None:
    """Raise unless ``value`` is a number with ``0 < value < inf``: the rule
    for every kernel-scale factor of the median heuristic."""
    if not 0.0 < _real(value, name) < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _prescaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``x`` times ``2**-e``, and ``e``, the :func:`math.frexp` exponent of
    its largest magnitude.  The product is exact and its largest magnitude
    lies in [0.5, 1), so no squared distance overflows and none that the
    kernel can tell from 0 underflows; a Gaussian kernel at the median
    scale reads only their ratios, so it gives the same bits at every
    power-of-two scale of its input."""
    e = math.frexp(np.abs(x).max(initial=0.0))[1]
    return np.ldexp(x, -e), e


def _is_noise(norms: np.ndarray, scale: np.ndarray, size: int) -> np.ndarray:
    """Mask of the ``norms`` at most ``size * eps * scale``, the rounding noise of ``scale``."""
    return norms <= size * _EPS * scale


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
        _check_stochastic(k)
        object.__setattr__(self, "entries", k)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _check_stochastic(k: np.ndarray, start: int = 0) -> None:
    """Raise unless ``k``, one operator or an ``(n, L, L)`` stack of them,
    has nonnegative entries and rows summing to 1 within 1e-12.  For a
    stack the error names the first sample at fault, counting from
    ``start``."""
    stack, name = (k, "sample {}: operator") if k.ndim == 3 else (k[np.newaxis], "operator")
    negative = np.flatnonzero((stack < 0.0).any(axis=(1, 2)))
    if negative.size:
        raise ValueError(f"{name.format(start + negative[0])} entries must be nonnegative")
    off = np.abs(stack.sum(axis=2) - 1.0).max(axis=1, initial=0.0)
    bad = np.flatnonzero(~(off <= 1e-12))  # a NaN sum is off too
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"{name.format(start + i)} rows must sum to 1 within 1e-12 (off by {off[i]:.3e})"
        )


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
    _scale_factor(factor)
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
    return DiffusionOperator(_two_step(w.entries)[0])


def _two_step(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``K``, ``W~`` and the row sums ``q~`` of :func:`diffusion_operator`,
    for one affinity matrix or for each of an ``(n, L, L)`` stack.

    Every row is summed along the contiguous last axis and every entry
    divided on its own, so a matrix gets the same bits alone or stacked.
    ``K`` is not checked here: its float row sums land within ~1e-15 of 1,
    and the callers check the 1e-12 bound.  Every caller passes unit
    diagonals and entries in [0, 1], so ``q >= 1`` and
    ``q~_i >= 1 / q_i^2 > 0``: no row sum is checked either.
    """
    q = mat.sum(axis=-1)
    w_tilde = mat / (q[..., :, np.newaxis] * q[..., np.newaxis, :])
    q_tilde = w_tilde.sum(axis=-1)
    return w_tilde / q_tilde[..., np.newaxis], w_tilde, q_tilde


def sample_diffusion_operator(sample: Sample, median_factor: float = 1.0) -> DiffusionOperator:
    """Full chain from a sample to its diffusion operator.

    The kernel scale is the median heuristic applied to this sample's own
    distances, after :func:`_prescaled` brings its observations to unit
    scale.
    """
    d = pairwise_distances(Sample(_prescaled(sample.observations)[0]))
    eps = median_scale(d, median_factor)
    return diffusion_operator(affinity(d, eps))


def _observation_count(samples: Sequence[Sample], median_factor: float) -> int:
    """The observation count ``L`` that ``samples`` share, 0 for no samples,
    once the kernel scale factor and the count are checked."""
    _scale_factor(median_factor)
    sizes = sorted({s.n_observations for s in samples})
    if len(sizes) > 1:
        raise ValueError(f"samples disagree on observation count: {sizes}")
    return sizes[0] if sizes else 0


def _pair_index(size: int) -> np.ndarray:
    """The ``(L, L)`` table of each pair's position in the condensed order of
    :func:`~scipy.spatial.distance.pdist`, and ``L (L - 1) / 2``, one past
    the last pair, on the diagonal."""
    a, b = np.triu_indices(size, k=1)
    index = np.full((size, size), len(a))
    index[a, b] = index[b, a] = np.arange(len(a))
    return index


def _affinities(
    samples: Sequence[Sample], median_factor: float, index: np.ndarray, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, L, L)`` Gaussian affinities of ``samples`` and their scales,
    for samples of ``L`` observations and ``index = _pair_index(L)``.

    Bit for bit what :func:`pairwise_distances`, :func:`median_scale` and
    :func:`affinity` give one sample at a time: distances come from
    :func:`~scipy.spatial.distance.pdist` per sample (from differences, so
    coincident observations are exactly 0 apart), and each median is read
    from that sample's sorted positive squared distances, the mean of the
    two middle ones when their count is even, as :func:`numpy.median` takes
    it.  Each sample is :func:`_prescaled` first and its scale taken back
    with :func:`numpy.ldexp` after, so a scale beyond the float range is
    ``inf``.  A sample whose observations all coincide raises, naming the
    first by its position plus ``start``.
    """
    count = len(index) * (len(index) - 1) // 2
    scaled = [_prescaled(s.observations) for s in samples]
    squared = np.array([pdist(x, metric="euclidean") for x, _ in scaled])
    squared = squared.reshape(len(samples), count) ** 2
    ordered = np.sort(squared, axis=1)
    zeros = (ordered == 0.0).sum(axis=1)
    positive = ordered.shape[1] - zeros
    degenerate = np.flatnonzero(positive == 0)
    if degenerate.size:
        raise ValueError(
            f"sample {start + degenerate[0]}: no pairwise distance is positive (all "
            "observations coincide); kernel scale is degenerate"
        )
    rows = np.arange(len(ordered))
    lo = ordered[rows, zeros + (positive - 1) // 2]
    hi = ordered[rows, zeros + positive // 2]
    epsilon = median_factor * np.where(positive % 2 == 1, lo, (lo + hi) / 2)
    # each matrix gathers its upper triangle and, from one past it, its unit diagonal
    upper = np.empty((len(samples), count + 1))
    np.exp(-squared / epsilon[:, np.newaxis], out=upper[:, :count])
    upper[:, count] = 1.0
    exponents = np.array([e for _, e in scaled], dtype=int)
    with np.errstate(over="ignore"):
        return upper.take(index, axis=1), np.ldexp(epsilon, 2 * exponents)


def _affinity_stack(
    samples: Sequence[Sample], median_factor: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_affinities` of all ``samples`` at once, once they are checked."""
    size = _observation_count(samples, median_factor)
    return _affinities(samples, median_factor, _pair_index(size))


def _centered(k: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``P K P`` for each operator of an ``(n, L, L)`` stack, in ``out`` when
    given, and its Frobenius norm: each ``K`` less its column means, then
    less its row means.

    A result below the rounding level of its ``K`` is noise and comes back
    as exact zeros, so every simplex on a sample whose rows are all equal
    meets the zero-matrix check of :func:`~topodist.complexes.raw_weights`.
    """
    if not k.size:  # no means to take, and numpy warns on an empty mean
        return k.copy(), np.zeros(len(k))
    g = np.subtract(k, k.mean(axis=1, keepdims=True), out=out)
    g -= g.mean(axis=2, keepdims=True)
    norms = _norms(g)
    noise = _is_noise(norms, _norms(k), k.shape[1])
    g[noise] = 0.0
    norms[noise] = 0.0
    return g, norms


class _Centered(NamedTuple):
    """A dataset's centered operators ``G = P K P``, their Frobenius norms
    and the kernel scale of each sample, as :func:`_centered_stack` builds
    them."""

    g: np.ndarray
    norms: np.ndarray
    epsilon: np.ndarray


def _centered_stack(samples: Sequence[Sample], median_factor: float = 1.0) -> _Centered:
    """:func:`_centered` of the stacked ``sample_diffusion_operator(s,
    median_factor).entries`` of ``samples``, and each sample's kernel
    scale, bit for bit.  The samples share their observation count, not
    their dimension.  The chain runs over blocks of as many samples as fit
    :data:`_CHUNK_BYTES` of operators, at least one, and checks each
    block's operators row-stochastic before centering them into ``g``: no
    stack of operators ``K`` is held.  Errors name a sample by its position.
    """
    size = _observation_count(samples, median_factor)
    index = _pair_index(size)
    step = _per_chunk(8 * size * size)
    n = len(samples)
    out = _Centered(np.empty((n, size, size)), np.empty(n), np.empty(n))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        w, out.epsilon[rows] = _affinities(samples[rows], median_factor, index, start)
        k = _two_step(w)[0]
        _check_stochastic(k, start)
        out.norms[rows] = _centered(k, out.g[rows])[1]
    return out
