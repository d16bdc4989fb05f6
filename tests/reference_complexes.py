"""Per-simplex references for the table-built skeletons and the CSV writer.

These are the builders and the writer the library used while it held a
complex as a list of :class:`Simplex` objects: one object per simplex, and
one ``csv.writer`` row per simplex.  The table-built versions must list the
same simplexes in the same order and write the same bytes.  Shares no code
with the tables under test; :func:`position` and :func:`weight_of` look a
simplex up among the :class:`Simplex` elements of a complex, not in its
tables.
"""

import csv
import itertools
from pathlib import Path
from typing import Sequence

import numpy as np

from topodist.complexes import Simplex, WeightedComplex


def complete_skeleton_reference(n_vertices: int) -> list[Simplex]:
    """All vertices, edges, and triangles over ``n_vertices`` ids."""
    ids = range(n_vertices)
    return [Simplex(v) for k in (1, 2, 3) for v in itertools.combinations(ids, k)]


def grid_skeleton_reference(rows: int, cols: int) -> list[Simplex]:
    """Triangulated grid: row-major vertex ids, one diagonal per unit square.

    Each unit square [a b; c d] gets the diagonal a-d and the two triangles
    (a, b, d) and (a, c, d); edges and triangles are sorted as tuples.
    """
    ids = np.arange(rows * cols).reshape(rows, cols)
    a, b, c, d = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
    horizontal, vertical = (ids[:, :-1], ids[:, 1:]), (ids[:-1], ids[1:])
    out = [Simplex((v,)) for v in range(rows * cols)]
    for corners in ([horizontal, vertical, (a, d)], [(a, b, d), (a, c, d)]):
        table = np.concatenate([np.stack(v, axis=-1).reshape(-1, len(v)) for v in corners])
        out += [Simplex(tuple(v)) for v in sorted(table.tolist())]
    return out


def write_complex_csv_reference(cx: WeightedComplex, path: str | Path) -> None:
    """``dim,v0,v1,v2,weight`` rows through ``csv.writer``, one per simplex."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim", "v0", "v1", "v2", "weight"])
        for s, w in zip(cx.simplexes, cx.weights):
            v = list(s.vertices) + [""] * (3 - len(s.vertices))
            writer.writerow([s.dimension, *v, repr(float(w))])


def position(cx: WeightedComplex, vertices: Sequence[int]) -> int:
    """Position in ``cx`` of the simplex with these vertex ids."""
    return [s.vertices for s in cx.simplexes].index(tuple(vertices))


def weight_of(cx: WeightedComplex, vertices: Sequence[int]) -> float:
    """Weight in ``cx`` of the simplex with these vertex ids."""
    return float(cx.weights[position(cx, vertices)])
