"""Hierarchical data containers and generators.

A :class:`Dataset` is a collection of samples, and each :class:`Sample` is a
collection of observations living in a common metric space.  Observations are
stored as the rows of a single ``(L, d_obs)`` float64 array, so the dimension
is uniform within a sample by construction.  Observation index ``j`` is
assumed to refer to the same latent realization in every sample of a dataset.

Two data sources are provided: a synthetic generator whose latent space is a
product of circles (a flat torus), and a generic ingester that splits a 3-axis
data cube into square patches (one sample per patch, one observation per
band).
"""

from __future__ import annotations

import csv
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Sample",
    "Dataset",
    "TorusSpec",
    "GridShape",
    "generate_torus_dataset",
    "patch_cube",
    "save_dataset",
    "load_dataset",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True, order="C")
    out.setflags(write=False)
    return out


def _is_integer(kind: type) -> bool:
    """Whether values of type ``kind`` are integers: Python and NumPy
    integers are, and a bool, a float or a NumPy bool is not."""
    # the types operator.index takes, less bool: an int subclass, not a count
    return not issubclass(kind, bool) and hasattr(kind, "__index__")


def _integer(value: Any, name: str) -> int:
    """``value`` as a Python int, or a ``ValueError`` that names it."""
    if not _is_integer(type(value)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _integers(values: Any, name: str) -> np.ndarray:
    """``values``, an array or a nested sequence, as an ``intp`` array of
    the same shape, or the ``ValueError`` of :func:`_integer` for its first
    refused entry.  An integer-dtype array is taken as it is; anything else
    is checked by the types of its entries, so no bool, float or string is
    cast to an id.  An entry outside int64 is refused by name, not wrapped;
    an integer array costs one dtype check (a ``uint64`` one also a
    vectorized comparison), never a loop over its entries."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = np.asarray(values, dtype=object)
        if not all(map(_is_integer, set(map(type, values.flat)))):
            for value in values.flat:
                _integer(value, name)
    elif values.dtype == np.uint64 and (values > np.iinfo(np.int64).max).any():
        values = values.astype(object)  # as Python ints, which overflow below
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        value = next(v for v in map(operator.index, values.flat) if not -(2**63) <= v < 2**63)
        raise ValueError(f"{name} must fit in 64 bits, got {value}") from None


def _read_csv(
    path: str | Path, kind: str, expected: list[str] | None = None
) -> tuple[list[str], list[list[str]]]:
    """The header and the nonblank rows of the ``kind`` CSV file ``path``.

    The header is the first nonblank row (``[]`` in a file without one).
    A ``ValueError`` names the file if :mod:`csv` cannot read it as UTF-8,
    and otherwise the first row not as wide as the header, and then a
    header other than ``expected``, if given."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = [row for row in csv.reader(fh) if row] or [[]]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed {kind} CSV {path}: {exc}") from None
    if set(map(len, rows)) - {len(header)}:
        row = next(row for row in rows if len(row) != len(header))
        raise ValueError(f"malformed {kind} CSV row: {row}")
    if expected is not None and header != expected:
        raise ValueError(f"unexpected {kind} CSV header: {header}")
    return header, rows


# The cell grammar: a cell holds only text its writer writes.  An integer
# is ASCII digits without a leading zero, at most 19 of them, so that it
# fits in 64 unsigned bits; a float is a form repr or format(x, ".12g")
# writes.  int() and float() take more: "1_0", " 2", "+2", "١", "Infinity".
_INTEGER = "(?:0|[1-9][0-9]{0,18})"
_FLOAT = r"(?:nan|-?inf|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:e[-+][0-9]+)?)"


def _matching(texts: Iterable[str], pattern: str) -> int:
    """How many of ``texts``, from the first, the regular expression
    ``pattern`` matches in full.

    A reader matches each row's cells joined by commas: the rows are as
    wide as the header, and no cell pattern takes a comma, so a cell that
    holds one fails."""
    return len(list(takewhile(re.compile(pattern).fullmatch, texts)))


def _check_rows(kind: str, rows: list, good: int, bad: np.ndarray, reason: str = "") -> None:
    """Name the first row of a ``kind`` CSV file, in file order, that
    breaks a cell rule: the first ``good`` rows match the grammar, and
    ``bad`` marks those of them whose values are out of range, which the
    error gives the ``reason`` for."""
    first = np.append(np.flatnonzero(bad), good)[0]
    if first < len(rows):
        raise ValueError(f"malformed {kind} CSV row: {rows[first]}{reason if first < good else ''}")


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write ``header`` and then ``rows`` as :mod:`csv`'s writer does."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_json(path: str | Path, kind: str) -> dict[str, Any]:
    """The JSON object in the ``kind`` file ``path``, or a ``ValueError``
    that names the file."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"malformed {kind} {path}: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{kind} {path} must be a JSON object")
    return value


def _real(value: Any, name: str) -> float:
    """``value`` unchanged if it is a Python int or float, a NumPy float64
    included, or a ``ValueError`` that names it: a bool, a string or a
    NumPy integer is not taken, so a stored number stays JSON-serializable,
    and neither is an int beyond the float range, which no float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must be finite as a float, got {value}")
    return value


@dataclass(frozen=True)
class Sample:
    """One sample: ``L`` observations of dimension ``d_obs`` plus a label.

    ``observations[j]`` is the j-th observation.  All entries must be finite
    and there must be at least two observations.
    """

    observations: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        # no other type is cast: a saved label must load as the same string
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        obs = _readonly(self.observations)
        if obs.ndim != 2:
            raise ValueError(f"observations must be a 2-d array, got shape {obs.shape}")
        if obs.shape[0] < 2:
            raise ValueError(f"a sample needs at least 2 observations, got {obs.shape[0]}")
        if not np.isfinite(obs).all():
            raise ValueError(f"sample {self.label!r} contains non-finite values")
        object.__setattr__(self, "observations", obs)

    @property
    def n_observations(self) -> int:
        return self.observations.shape[0]

    @property
    def observation_dim(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True)
class Dataset:
    """A collection of samples sharing one observation count ``L``.

    ``metadata`` is a free-form JSON-serializable table (generator seed,
    source path, grid shape, ...).  The observation dimension may vary
    between samples; the observation count may not.
    """

    samples: tuple[Sample, ...]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        samples = tuple(self.samples)
        if len(samples) < 2:
            raise ValueError(f"a dataset needs at least 2 samples, got {len(samples)}")
        counts = {s.n_observations for s in samples}
        if len(counts) != 1:
            raise ValueError(f"samples disagree on observation count: {sorted(counts)}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def n_observations(self) -> int:
        return self.samples[0].n_observations

    def labels(self) -> list[str]:
        return [s.label for s in self.samples]


class GridShape(NamedTuple):
    rows: int
    cols: int


@dataclass(frozen=True)
class TorusSpec:
    """Parameters of the synthetic torus generator.

    Attributes
    ----------
    m:
        Number of latent circles; the latent space is their product.
    n_samples:
        Number of samples per dataset.
    n_observations:
        Number of observations per sample (shared latent realizations).
    tuple_size:
        How many circles each sample observes (size of its index tuple).
    r_max:
        Radii are drawn uniformly from ``[1, r_max]``, once per sample.
    sigma:
        Standard deviation of the additive Gaussian observation noise,
        drawn independently per observation and coordinate.
    seed:
        Nonnegative integer seed for the generator; output is a
        deterministic function of the full spec.
    """

    m: int
    n_samples: int
    n_observations: int
    tuple_size: int = 3
    r_max: float = 1.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("m", "n_samples", "n_observations", "tuple_size", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.n_observations < 2:
            raise ValueError(f"n_observations must be >= 2, got {self.n_observations}")
        if not 1 <= self.tuple_size <= self.m:
            raise ValueError(
                f"tuple_size must be in [1, m={self.m}], got {self.tuple_size}"
            )
        if not 1 <= _real(self.r_max, "r_max") < math.inf:
            raise ValueError(f"r_max must be finite and >= 1, got {self.r_max}")
        if not 0 <= _real(self.sigma, "sigma") < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def generate_torus_dataset(spec: TorusSpec) -> Dataset:
    """Generate a synthetic dataset whose latent space is a product of circles.

    A single set of ``n_observations`` latent points is drawn, each point an
    ``m``-tuple of angles uniform on ``[0, 2*pi)``.  Every sample then picks
    ``tuple_size`` circles uniformly at random (without replacement, recorded
    sorted), draws one radius per chosen circle uniformly from ``[1, r_max]``,
    and observes the points as ``(R_1 cos t_1, R_1 sin t_1, R_2 cos t_2, ...)``
    plus i.i.d. Gaussian noise with standard deviation ``sigma`` on every
    coordinate.

    The chosen index tuples and radii of every sample are recorded in the
    dataset metadata.  Output is deterministic given the spec.
    """
    rng = np.random.default_rng(spec.seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(spec.n_observations, spec.m))

    samples = []
    index_tuples: list[list[int]] = []
    radii_table: list[list[float]] = []
    for i in range(spec.n_samples):
        idx = np.sort(rng.choice(spec.m, size=spec.tuple_size, replace=False))
        radii = rng.uniform(1.0, spec.r_max, size=spec.tuple_size)
        theta = angles[:, idx]
        obs = np.empty((spec.n_observations, 2 * spec.tuple_size))
        obs[:, 0::2] = radii * np.cos(theta)
        obs[:, 1::2] = radii * np.sin(theta)
        # scale=0 is a valid draw and keeps the stream position independent
        # of sigma, so noisy and noise-free runs share latent realizations
        obs = obs + rng.normal(0.0, spec.sigma, size=obs.shape)
        samples.append(Sample(obs, label=f"sample_{i}"))
        index_tuples.append([int(v) for v in idx])
        radii_table.append([float(r) for r in radii])

    metadata = {
        "source": "torus",
        "m": spec.m,
        "n_samples": spec.n_samples,
        "n_observations": spec.n_observations,
        "tuple_size": spec.tuple_size,
        "r_max": spec.r_max,
        "sigma": spec.sigma,
        "seed": spec.seed,
        "index_tuples": index_tuples,
        "radii": radii_table,
    }
    return Dataset(tuple(samples), metadata)


def patch_cube(cube: np.ndarray, patch_size: int) -> tuple[Dataset, GridShape]:
    """Split a ``(rows, cols, bands)`` cube into non-overlapping square patches.

    Each ``patch_size x patch_size`` patch becomes one sample; observation
    ``b`` of that sample is the row-major flattening of the patch content in
    band ``b``, so ``L`` equals the number of bands and ``d_obs`` equals
    ``patch_size**2``.  Trailing rows/columns not filling a whole patch are
    discarded.  Samples are ordered row-major over the patch grid, and the
    grid shape is returned for building a grid-triangulated complex.
    """
    cube = np.asarray(cube, dtype=np.float64)
    if cube.ndim != 3:
        raise ValueError(f"cube must have 3 axes (rows, cols, bands), got {cube.ndim}")
    patch_size = _integer(patch_size, "patch_size")
    if patch_size < 1:
        raise ValueError(f"patch_size must be >= 1, got {patch_size}")
    rows, cols, bands = cube.shape
    grid = GridShape(rows // patch_size, cols // patch_size)
    if grid.rows * grid.cols < 2:
        raise ValueError(
            f"cube of shape {cube.shape} yields {grid.rows * grid.cols} patch(es) "
            f"at patch_size={patch_size}; need at least 2"
        )
    if bands < 2:
        raise ValueError(f"need at least 2 bands, got {bands}")

    samples = []
    for gr in range(grid.rows):
        for gc in range(grid.cols):
            block = cube[
                gr * patch_size : (gr + 1) * patch_size,
                gc * patch_size : (gc + 1) * patch_size,
                :,
            ]
            # (n, n, bands) -> (bands, n*n), band b flattened row-major
            obs = block.reshape(patch_size * patch_size, bands).T
            samples.append(Sample(obs, label=f"patch_{gr}_{gc}"))

    metadata = {
        "source": "cube",
        "patch_size": patch_size,
        "grid_rows": grid.rows,
        "grid_cols": grid.cols,
        "cube_shape": list(cube.shape),
    }
    return Dataset(tuple(samples), metadata), grid


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset directory: ``manifest.json`` plus one binary per sample.

    Each ``sample_<i>.f64`` file holds the observation matrix as row-major
    little-endian 64-bit floats (one row per observation).  The round trip
    through :func:`load_dataset` is bit-exact.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "n_samples": dataset.n_samples,
        "n_observations": dataset.n_observations,
        "d_obs": [s.observation_dim for s in dataset.samples],
        "labels": dataset.labels(),
        "metadata": dict(dataset.metadata),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)
    (root / "manifest.json").write_text(text, encoding="utf-8")
    for i, sample in enumerate(dataset.samples):
        data = np.ascontiguousarray(sample.observations, dtype="<f8")
        (root / f"sample_{i}.f64").write_bytes(data.tobytes())


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset directory written by :func:`save_dataset`.

    The manifest is checked key by key: counts must be JSON integers (no
    float or string is truncated), ``d_obs`` and ``labels`` arrays,
    ``labels`` of strings (none is cast) and ``metadata`` an object, else a
    ``ValueError`` names the key."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"no manifest.json under {root}")
    manifest = _read_json(manifest_path, "manifest")
    for key in ("n_samples", "n_observations", "d_obs", "labels"):
        if key not in manifest:
            raise ValueError(f"manifest {manifest_path} is missing {key!r}")
    for key, kind, name in (
        ("d_obs", list, "array"), ("labels", list, "array"), ("metadata", dict, "object")
    ):
        if not isinstance(manifest.get(key, {}), kind):
            raise ValueError(f"manifest {key} must be a JSON {name}, got {manifest[key]!r}")
    n = _integer(manifest["n_samples"], "n_samples")
    n_obs = _integer(manifest["n_observations"], "n_observations")
    dims = [_integer(d, f"d_obs[{i}]") for i, d in enumerate(manifest["d_obs"])]
    labels = manifest["labels"]
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise ValueError(f"manifest labels[{i}] must be a JSON string, got {label!r}")
    if len(dims) != n or len(labels) != n:
        raise ValueError(
            f"manifest declares {n} samples but lists {len(dims)} dims / {len(labels)} labels"
        )

    samples = []
    for i, (d, label) in enumerate(zip(dims, labels)):
        blob = (root / f"sample_{i}.f64").read_bytes()
        expected = n_obs * d * 8
        if len(blob) != expected:
            raise ValueError(
                f"sample_{i}.f64 holds {len(blob)} bytes, expected {expected} "
                f"({n_obs} observations x {d} dims)"
            )
        obs = np.frombuffer(blob, dtype="<f8").reshape(n_obs, d)
        if not np.isfinite(obs).all():
            raise ValueError(f"sample_{i}.f64 contains non-finite values")
        samples.append(Sample(obs, label=label))
    return Dataset(tuple(samples), manifest.get("metadata", {}))
