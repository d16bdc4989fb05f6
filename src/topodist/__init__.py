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

from topodist import (
    alternating,
    complexes,
    dataset,
    diffusion,
    embedding,
    homology,
    pipeline,
    wasserstein,
)

# each module's __all__ is the one list of its public names; read them
# before the star imports, which rebind ``wasserstein`` to the function
__all__: list[str] = []
__all__ += alternating.__all__
__all__ += complexes.__all__
__all__ += dataset.__all__
__all__ += diffusion.__all__
__all__ += embedding.__all__
__all__ += homology.__all__
__all__ += pipeline.__all__
__all__ += wasserstein.__all__

from topodist.alternating import *
from topodist.complexes import *
from topodist.dataset import *
from topodist.diffusion import *
from topodist.embedding import *
from topodist.homology import *
from topodist.pipeline import *
from topodist.wasserstein import *

__version__ = "0.1.0"
