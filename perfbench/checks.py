"""Correctness checks applied to every pipeline repeat of a benchmark run.

An operation is one dataset (its complex and diagram artifacts) or the
corpus-level distance matrix with its embedding.  An operation fails when
its artifacts differ by a single byte from the first repeat of the run,
when a degree-0 diagram does not hold exactly one infinite point or a
degree-1 diagram holds any, or when a sampled triangle's written weight
disagrees with the alternating-diffusion oracle.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Sequence

import numpy as np

import topodist as td

__all__ = ["MATRIX_OP", "ArtifactChecker"]

MATRIX_OP = "matrix"
ORACLE_TRIANGLES = 16
ORACLE_RTOL = 1e-12


class ArtifactChecker:
    """Checks the repeats of one run against the first and against oracles.

    The first repeat checked becomes the reference.  Content checks run
    once per distinct file content, so later repeats that match the
    reference byte for byte cost one hash per file.
    """

    def __init__(
        self,
        corpus: Sequence[td.Dataset],
        labels: Sequence[str],
        config: td.PipelineConfig,
        seed: int,
    ) -> None:
        if config.normalize or config.weight_scheme != "alternating":
            raise ValueError("the triangle oracle assumes raw alternating weights")
        self.ops = (*labels, MATRIX_OP)
        self._files = {
            label: (f"complexes/{label}.csv", f"diagrams/{label}.csv") for label in labels
        }
        self._files[MATRIX_OP] = ("config.json", "distances.csv")
        self._datasets = dict(zip(labels, corpus))
        self._index = {label: i for i, label in enumerate(labels)}
        self._config = config
        self._seed = seed
        self._reference: dict[tuple[str, str], bytes] | None = None
        self._content_problems: dict[tuple[str, bytes], list[str]] = {}

    def check(
        self, out_dir: Path, matrix: td.DatasetDistanceMatrix, embedding: td.Embedding
    ) -> dict[str, list[str]]:
        """Problems per operation for one repeat written under ``out_dir``."""
        current = {
            (MATRIX_OP, "matrix entries"): matrix.entries.tobytes(),
            (MATRIX_OP, "embedding coordinates"): embedding.coordinates.tobytes(),
        }
        problems: dict[str, list[str]] = {op: [] for op in self.ops}
        for op, names in self._files.items():
            for name in names:
                path = out_dir / name
                if not path.is_file():
                    problems[op].append(f"{name} was not written")
                    continue
                digest = hashlib.sha256(path.read_bytes()).digest()
                current[op, name] = digest
                problems[op] += self._content(op, name, digest, path)
        if self._reference is None:
            self._reference = current
        for (op, name), digest in current.items():
            if digest != self._reference.get((op, name)):
                problems[op].append(f"{name} differs from the first repeat of the run")
        return problems

    def _content(self, op: str, name: str, digest: bytes, path: Path) -> list[str]:
        key = (name, digest)
        if key not in self._content_problems:
            if name.startswith("diagrams/"):
                found = _diagram_problems(path)
            elif name.startswith("complexes/"):
                found = self._oracle_problems(op, path)
            else:
                found = []
            self._content_problems[key] = [f"{name}: {p}" for p in found]
        return self._content_problems[key]

    def _oracle_problems(self, label: str, path: Path) -> list[str]:
        """Compare seed-chosen triangle weights with the pair/triple oracle.

        After monotone repair a triangle weighs the max of its own raw
        weight and its three edges' raw weights (vertices weigh 0).
        """
        triangles = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if row[0] == "2":
                    triangles.append((int(row[1]), int(row[2]), int(row[3]), float(row[4])))
        rng = np.random.default_rng([self._seed, self._index[label]])
        picked = rng.choice(len(triangles), size=min(ORACLE_TRIANGLES, len(triangles)),
                            replace=False)
        samples = self._datasets[label].samples
        operators: dict[int, td.DiffusionOperator] = {}

        def op(v: int) -> td.DiffusionOperator:
            if v not in operators:
                operators[v] = td.sample_diffusion_operator(
                    samples[v], median_factor=self._config.kernel_epsilon_factor
                )
            return operators[v]

        problems = []
        for i in sorted(picked):
            a, b, c, written = triangles[i]
            s_ab = td.pair_operator(op(a), op(b), pair=(a, b))
            s_bc = td.pair_operator(op(b), op(c), pair=(b, c))
            s_ac = td.pair_operator(op(a), op(c), pair=(a, c))
            triple = td.triple_operator(op(a), op(b), op(c), s_ab, s_bc, s_ac, triple=(a, b, c))
            expected = max(
                td.triangle_weight(triple),
                td.edge_weight(s_ab),
                td.edge_weight(s_bc),
                td.edge_weight(s_ac),
            )
            if abs(written - expected) > ORACLE_RTOL * abs(expected):
                problems.append(
                    f"triangle {(a, b, c)} weighs {written!r}, oracle {expected!r}"
                )
        return problems


def _diagram_problems(path: Path) -> list[str]:
    diagrams = td.read_diagrams_csv(path, degrees=(0, 1))
    infinite = {
        k: sum(1 for p in dg.pairs if math.isinf(p.death)) for k, dg in diagrams.items()
    }
    problems = []
    if infinite[0] != 1:
        problems.append(f"degree 0 has {infinite[0]} infinite points, expected 1")
    if infinite[1] != 0:
        problems.append(f"degree 1 has {infinite[1]} infinite points, expected 0")
    return problems
