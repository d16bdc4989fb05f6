"""Geometric-topological distances between hierarchical datasets.

A hierarchical dataset is a collection of samples, each a set of
corresponding observations.  The library turns every sample into a
diffusion operator, weighs the simplexes over the samples by how much
structure their operators share, reads off the persistent homology of
the resulting filtration, and compares datasets by the Wasserstein
distance between their persistence diagrams.  A diffusion-maps
embedding of the final distance matrix and a simulation harness round
out the pipeline.
"""

from topodist.alternating import (
    PairOperator,
    TripleOperator,
    edge_weight,
    pair_operator,
    triangle_weight,
    triple_operator,
)
from topodist.complexes import (
    Simplex,
    Skeleton,
    WeightedComplex,
    assign_weights,
    complete_skeleton,
    enforce_monotone,
    filtration_order,
    grid_skeleton,
    raw_weights,
    read_complex_csv,
    write_complex_csv,
)
from topodist.dataset import (
    Dataset,
    GridShape,
    Sample,
    TorusSpec,
    generate_torus_dataset,
    load_dataset,
    patch_cube,
    save_dataset,
)
from topodist.diffusion import (
    AffinityMatrix,
    DiffusionOperator,
    affinity,
    diffusion_operator,
    median_scale,
    pairwise_distances,
    sample_diffusion_operator,
)
from topodist.embedding import (
    Embedding,
    diffusion_maps,
    export_embedding,
    read_embedding_csv,
)
from topodist.homology import (
    BoundaryMatrix,
    PersistenceDiagram,
    PersistencePair,
    Reduction,
    boundary_matrix,
    extract_diagram,
    persistence_diagrams,
    read_diagrams_csv,
    reduce_matrix,
    write_diagrams_csv,
)
from topodist.pipeline import (
    PipelineConfig,
    PipelineError,
    build_weighted_complex,
    cross_correlation_complex,
    dimension_sweep,
    graph_spectral_distances,
    run_pipeline,
    weight_profile,
    write_weight_profile_csv,
)
from topodist.wasserstein import (
    DatasetDistanceMatrix,
    DiagramDistanceSpec,
    diagonal_gap,
    distance_matrix,
    read_distance_csv,
    wasserstein,
    write_distance_csv,
)

__all__ = [
    "AffinityMatrix",
    "BoundaryMatrix",
    "Dataset",
    "DatasetDistanceMatrix",
    "DiagramDistanceSpec",
    "DiffusionOperator",
    "Embedding",
    "GridShape",
    "PairOperator",
    "PersistenceDiagram",
    "PersistencePair",
    "PipelineConfig",
    "PipelineError",
    "Reduction",
    "Sample",
    "Simplex",
    "Skeleton",
    "TorusSpec",
    "TripleOperator",
    "WeightedComplex",
    "affinity",
    "assign_weights",
    "boundary_matrix",
    "build_weighted_complex",
    "complete_skeleton",
    "cross_correlation_complex",
    "diagonal_gap",
    "diffusion_maps",
    "diffusion_operator",
    "dimension_sweep",
    "distance_matrix",
    "edge_weight",
    "enforce_monotone",
    "export_embedding",
    "extract_diagram",
    "filtration_order",
    "generate_torus_dataset",
    "graph_spectral_distances",
    "grid_skeleton",
    "load_dataset",
    "median_scale",
    "pair_operator",
    "pairwise_distances",
    "patch_cube",
    "persistence_diagrams",
    "raw_weights",
    "read_complex_csv",
    "read_diagrams_csv",
    "read_distance_csv",
    "read_embedding_csv",
    "reduce_matrix",
    "run_pipeline",
    "sample_diffusion_operator",
    "save_dataset",
    "triangle_weight",
    "triple_operator",
    "wasserstein",
    "weight_profile",
    "write_complex_csv",
    "write_diagrams_csv",
    "write_distance_csv",
    "write_weight_profile_csv",
]

__version__ = "0.1.0"
