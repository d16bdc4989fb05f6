"""Persistent homology of weighted complexes over Z2.

The sublevel filtration of a monotone weighted complex feeds a boundary
matrix in filtration order; standard left-to-right column reduction pairs
each death simplex with the birth it kills.  The working column is a
Python-int bitset, and only reduced columns that own a lowest row are kept
(the bit-column representation of PHAT).  Degrees 0 and 1 are supported
(the complexes stop at triangles).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from topodist.complexes import WeightedComplex, filtration_order

__all__ = [
    "BoundaryMatrix",
    "Reduction",
    "PersistencePair",
    "PersistenceDiagram",
    "boundary_matrix",
    "reduce_matrix",
    "extract_diagram",
    "persistence_diagrams",
    "write_diagrams_csv",
    "read_diagrams_csv",
]

EssentialPolicy = Literal["infinite", "cap"]


@dataclass(frozen=True)
class BoundaryMatrix:
    """Z2 boundary matrix in filtration order, one sparse column per simplex.

    ``columns[j]`` lists the filtration positions of the facets of the j-th
    simplex in the filtration; ``order[j]`` is that simplex's id in the
    originating complex.
    """

    columns: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.order):
            raise ValueError("columns and order must be parallel")
        for j, col in enumerate(self.columns):
            if list(col) != sorted(set(col)):
                raise ValueError(f"column {j} is not strictly increasing: {col}")
            if any(r >= j for r in col):
                raise ValueError(f"column {j} references a row at or after itself")


@dataclass(frozen=True)
class Reduction:
    """Outcome of the column reduction.

    ``pairs`` holds (birth simplex id, death simplex id) in complex ids;
    ``essential`` holds simplex ids of classes that never die.
    """

    pairs: tuple[tuple[int, int], ...]
    essential: tuple[int, ...]


@dataclass(frozen=True)
class PersistencePair:
    degree: int
    birth: float
    death: float
    birth_simplex: int
    death_simplex: int | None = None

    def __post_init__(self) -> None:
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree}")
        if not self.birth <= self.death:
            raise ValueError(f"birth {self.birth} exceeds death {self.death}")

    @property
    def is_essential(self) -> bool:
        return self.death_simplex is None


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs of one homology degree."""

    degree: int
    pairs: tuple[PersistencePair, ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        for p in pairs:
            if p.degree != self.degree:
                raise ValueError(
                    f"diagram of degree {self.degree} contains a degree-{p.degree} pair"
                )
        object.__setattr__(self, "pairs", pairs)

    def points(self) -> list[tuple[float, float]]:
        """(birth, death) tuples, sorted; death may be ``inf``."""
        return sorted((p.birth, p.death) for p in self.pairs)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def boundary_matrix(cx: WeightedComplex, order: Sequence[int]) -> BoundaryMatrix:
    """Combined Z2 boundary matrix of all simplexes in filtration order."""
    order = [int(i) for i in order]
    if sorted(order) != list(range(len(cx.simplexes))):
        raise ValueError("order must be a permutation of all simplex ids")
    position = np.argsort(order)
    facets = cx.facets[order]
    # unused slots stay -1 and so sort to the front of each row
    rows = np.sort(np.where(facets >= 0, position[facets], -1), axis=1).tolist()
    columns = tuple(tuple(row[row.count(-1) :]) for row in rows)
    return BoundaryMatrix(columns, tuple(order))


def reduce_matrix(m: BoundaryMatrix) -> Reduction:
    """Left-to-right Z2 column reduction with lowest-one pairing.

    Each column becomes a Python-int bitset (bit r set for row r) only when
    the sweep reaches it, so its lowest row is ``bit_length() - 1`` and
    column addition is XOR.  While that lowest row is owned by an earlier
    reduced column, the owner is XORed in.  A column that ends up nonzero
    pairs its lowest row (birth) with itself (death) and becomes that row's
    owner; only these pivot columns are kept.  Columns that reduce to zero
    and are never a lowest row are essential births.
    """
    pivots: dict[int, int] = {}  # lowest row -> reduced column owning it
    pairs_pos: list[tuple[int, int]] = []
    cleared: list[int] = []
    for j, rows in enumerate(m.columns):
        col = sum(1 << r for r in rows)
        while col:
            low = col.bit_length() - 1
            owner = pivots.get(low)
            if owner is None:
                pivots[low] = col
                pairs_pos.append((low, j))
                break
            col ^= owner
        else:  # reduced to zero
            cleared.append(j)

    return Reduction(
        pairs=tuple((m.order[b], m.order[d]) for b, d in pairs_pos),
        essential=tuple(m.order[j] for j in cleared if j not in pivots),
    )


def extract_diagram(
    reduction: Reduction,
    cx: WeightedComplex,
    degree: int,
    essential_policy: EssentialPolicy = "infinite",
) -> PersistenceDiagram:
    """Persistence diagram of one degree from a reduction.

    Pairs with equal birth and death weight are dropped.  Essential classes
    get death ``inf``, or the complex's maximum weight under the ``cap``
    policy (kept even when that equals the birth, so the class stays
    visible).
    """
    if degree not in (0, 1):
        raise ValueError(f"degree must be 0 or 1, got {degree}")
    if essential_policy not in ("infinite", "cap"):
        raise ValueError(f"unknown essential policy {essential_policy!r}")

    weights = cx.weights.tolist()
    out = [
        PersistencePair(degree, weights[b], weights[d], b, d)
        for b, d in reduction.pairs
        if cx.dims[b] == degree and weights[b] != weights[d]
    ]
    death = math.inf if essential_policy == "infinite" else cx.max_weight
    out += [
        PersistencePair(degree, weights[s], death, s, None)
        for s in reduction.essential
        if cx.dims[s] == degree
    ]
    return PersistenceDiagram(degree, tuple(out))


def persistence_diagrams(
    cx: WeightedComplex,
    degrees: Iterable[int] = (0, 1),
    essential_policy: EssentialPolicy = "infinite",
) -> dict[int, PersistenceDiagram]:
    """Filtration order, boundary matrix, reduction, and diagram extraction."""
    order = filtration_order(cx)
    reduction = reduce_matrix(boundary_matrix(cx, order))
    return {k: extract_diagram(reduction, cx, k, essential_policy) for k in degrees}


def write_diagrams_csv(
    diagrams: Iterable[PersistenceDiagram], path: str | Path
) -> None:
    """Write ``degree,birth,death`` rows; essential deaths become ``inf``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["degree", "birth", "death"])
        for dg in diagrams:
            for birth, death in dg.points():
                death_text = "inf" if math.isinf(death) else repr(death)
                writer.writerow([dg.degree, repr(birth), death_text])


def read_diagrams_csv(
    path: str | Path, degrees: Iterable[int] = (0, 1)
) -> dict[int, PersistenceDiagram]:
    """Read diagrams written by :func:`write_diagrams_csv`, keyed by degree.

    Degrees listed in ``degrees`` are always present in the result, as empty
    diagrams when the file has no such rows.  Simplex ids are not stored on
    disk; loaded pairs carry placeholder ids.
    """
    by_degree: dict[int, list[PersistencePair]] = {k: [] for k in degrees}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["degree", "birth", "death"]:
            raise ValueError(f"unexpected diagram CSV header: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"malformed diagram CSV row: {row}")
            degree = int(row[0])
            birth = float(row[1])
            death = math.inf if row[2] == "inf" else float(row[2])
            pair = PersistencePair(
                degree, birth, death, birth_simplex=-1,
                death_simplex=None if math.isinf(death) else -1,
            )
            by_degree.setdefault(degree, []).append(pair)
    return {k: PersistenceDiagram(k, tuple(v)) for k, v in by_degree.items()}
