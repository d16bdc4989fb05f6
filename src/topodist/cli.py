"""Command line front end.

One subcommand per stage (generate or patch datasets, build the weighted
complex, compute diagrams, distances, the embedding) plus ``pipeline``
for the whole chain and the two simulation studies.  Stages read the CSV
artifacts earlier stages wrote, so a pipeline run can be reproduced or
resumed piecewise from its output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Sequence, get_args

import numpy as np

from topodist.complexes import read_complex_csv, write_complex_csv
from topodist.dataset import (
    TorusSpec,
    generate_torus_dataset,
    load_dataset,
    patch_cube,
    save_dataset,
)
from topodist.embedding import diffusion_maps, export_embedding
from topodist.homology import _DEGREES, persistence_diagrams, read_diagrams_csv, write_diagrams_csv
from topodist.pipeline import (
    _SCHEMES,
    _SKELETONS,
    PipelineConfig,
    PipelineError,
    build_weighted_complex,
    dimension_sweep,
    graph_spectral_distances,
    run_pipeline,
    weight_profile,
    write_weight_profile_csv,
)
from topodist.wasserstein import (
    DiagramDistanceSpec,
    InfinitePolicy,
    distance_matrix,
    read_distance_csv,
    write_distance_csv,
)

__all__ = ["main"]


def _add_torus_args(p: argparse.ArgumentParser, with_m: bool = True) -> None:
    if with_m:
        p.add_argument("--m", type=int, required=True, help="number of latent circles")
    p.add_argument("--n-samples", type=int, required=True, help="samples per dataset")
    p.add_argument(
        "--n-observations", type=int, required=True, help="observations per sample"
    )
    p.add_argument("--tuple-size", type=int, help="circles per sample")
    p.add_argument("--r-max", type=float, help="upper radius bound")
    p.add_argument("--sigma", type=float, help="noise standard deviation")
    p.add_argument("--seed", type=int, help="generator seed")


def _given(cls: type, args: argparse.Namespace) -> dict[str, Any]:
    """The flags of ``args`` that were given, keyed by the field of the
    dataclass ``cls`` each one sets; a flag left out keeps the field's default."""
    fields = (f.name for f in dataclasses.fields(cls))
    return {name: getattr(args, name) for name in fields if getattr(args, name, None) is not None}


def _add_metric_args(p: argparse.ArgumentParser) -> None:
    """The :class:`DiagramDistanceSpec` fields, each defaulting to the spec's own."""
    p.add_argument("--degree", type=int, choices=_DEGREES)
    p.add_argument("--p", type=float, help="Wasserstein order")
    p.add_argument("--infinite-policy", choices=get_args(InfinitePolicy))
    p.add_argument("--cap-value", type=float)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    """Pipeline config: a JSON file plus flag overrides (flags win).  The
    metric flags are added only where diagrams are compared, since a
    complex does not depend on them."""
    p.add_argument("--config", help="JSON file with pipeline settings")
    p.add_argument("--epsilon-factor", type=float, dest="kernel_epsilon_factor")
    p.add_argument("--skeleton", choices=_SKELETONS)
    p.add_argument(
        "--normalize", action=argparse.BooleanOptionalAction, default=None,
        help="divide weights by the median of the monotone weights before filtering",
    )
    p.add_argument(
        "--weights", choices=_SCHEMES, dest="weight_scheme",
        help="weighting scheme (cross-correlation is a baseline)",
    )


def _effective_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    return dataclasses.replace(config, **_given(PipelineConfig, args))


def _cmd_generate_sim(args: argparse.Namespace) -> int:
    dataset = generate_torus_dataset(TorusSpec(**_given(TorusSpec, args)))
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.samples)} samples to {args.out}")
    return 0


def _cmd_patch_cube(args: argparse.Namespace) -> int:
    cube = np.load(args.cube)
    dataset, grid = patch_cube(cube, args.patch_size)
    save_dataset(dataset, args.out)
    print(f"wrote {grid.rows}x{grid.cols} patch grid to {args.out}")
    return 0


def _cmd_build_complex(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    config = _effective_config(args)
    cx = build_weighted_complex(dataset, config)
    write_complex_csv(cx, args.out)
    print(f"wrote {cx.n_simplexes} simplexes to {args.out}")
    return 0


def _cmd_ph(args: argparse.Namespace) -> int:
    cx = read_complex_csv(args.complex)
    diagrams = persistence_diagrams(cx)
    write_diagrams_csv(diagrams.values(), args.out)
    counts = {k: d.n_pairs for k, d in diagrams.items()}
    print(f"wrote diagrams with pair counts {counts} to {args.out}")
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    labels = [Path(p).stem for p in args.diagrams]
    spec = DiagramDistanceSpec(**_given(DiagramDistanceSpec, args))
    diagrams = [
        read_diagrams_csv(p, degrees=(spec.degree,))[spec.degree] for p in args.diagrams
    ]
    matrix = distance_matrix(diagrams, spec, labels=labels)
    write_distance_csv(matrix, args.out)
    print(f"wrote {matrix.n}x{matrix.n} distance matrix to {args.out}")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    matrix = read_distance_csv(args.distances)
    embedding = diffusion_maps(matrix, epsilon_factor=args.epsilon_factor, d=args.dim)
    export_embedding(embedding, args.out)
    print(f"wrote {embedding.n_datasets}x{embedding.dimension} embedding to {args.out}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    datasets = [load_dataset(p) for p in args.datasets]
    labels = [Path(p).name for p in args.datasets]
    out = Path(args.out)
    if args.graph_spectral:
        matrix = graph_spectral_distances(datasets, config, labels=labels)
        out.mkdir(parents=True, exist_ok=True)
        config.to_json(out / "config.json")
        write_distance_csv(matrix, out / "distances.csv")
    else:
        matrix, _ = run_pipeline(datasets, config, out_dir=out, labels=labels)
    print(f"wrote {matrix.n}x{matrix.n} distance matrix under {out}")
    return 0


def _cmd_weight_profile(args: argparse.Namespace) -> int:
    rows = weight_profile(TorusSpec(**_given(TorusSpec, args)), args.seeds)
    write_weight_profile_csv(rows, args.out)
    print(f"wrote {len(rows)} weight groups to {args.out}")
    return 0


def _cmd_dimension_sweep(args: argparse.Namespace) -> int:
    template = TorusSpec(m=max(args.m_values), **_given(TorusSpec, args))
    matrix, m_of = dimension_sweep(args.m_values, args.per_m, template, out_dir=args.out)
    print(f"wrote {matrix.n}x{matrix.n} distance matrix under {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topodist",
        description="Geometric-topological distances between hierarchical datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-sim", help="generate a product-of-circles dataset")
    _add_torus_args(p)
    p.add_argument("--out", required=True, help="dataset output directory")
    p.set_defaults(handler=_cmd_generate_sim)

    p = sub.add_parser("patch-cube", help="split a data cube (.npy) into patch samples")
    p.add_argument("--cube", required=True, help="rows x cols x bands .npy file")
    p.add_argument("--patch-size", type=int, required=True)
    p.add_argument("--out", required=True, help="dataset output directory")
    p.set_defaults(handler=_cmd_patch_cube)

    p = sub.add_parser("build-complex", help="weighted complex for one dataset")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="complex CSV path")
    _add_config_args(p)
    p.set_defaults(handler=_cmd_build_complex)

    p = sub.add_parser("ph", help="persistence diagrams of a weighted complex")
    p.add_argument("--complex", required=True, help="complex CSV path")
    p.add_argument("--out", required=True, help="diagrams CSV path")
    p.set_defaults(handler=_cmd_ph)

    p = sub.add_parser("distance", help="Wasserstein distance matrix of diagram files")
    p.add_argument("diagrams", nargs="+", help="diagram CSV paths (stems become labels)")
    p.add_argument("--out", required=True, help="distance CSV path")
    _add_metric_args(p)
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("embed", help="diffusion-maps embedding of a distance matrix")
    p.add_argument("--distances", required=True, help="distance CSV path")
    p.add_argument("--out", required=True, help="embedding CSV path")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--epsilon-factor", type=float, default=1.0)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("pipeline", help="full chain: datasets to distance matrix")
    p.add_argument("datasets", nargs="+", help="dataset directories")
    p.add_argument("--out", required=True, help="artifact output directory")
    p.add_argument(
        "--graph-spectral", action="store_true",
        help="baseline: compare edge-weight spectra instead of diagrams",
    )
    _add_config_args(p)
    _add_metric_args(p)
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser(
        "weight-profile", help="simplex weights grouped by shared-circle count"
    )
    _add_torus_args(p)
    p.add_argument("--seeds", type=int, required=True, help="number of realizations")
    p.add_argument("--out", required=True, help="profile CSV path")
    p.set_defaults(handler=_cmd_weight_profile)

    p = sub.add_parser(
        "dimension-sweep", help="distance matrix across circle counts"
    )
    p.add_argument("--m-values", type=int, nargs="+", required=True)
    p.add_argument("--per-m", type=int, required=True, help="datasets per circle count")
    _add_torus_args(p, with_m=False)
    p.add_argument("--out", required=True, help="artifact output directory")
    p.set_defaults(handler=_cmd_dimension_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, PipelineError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
