"""tubecat: exact combinatorics of cluster tubes.

Enumerates maximal rigid objects, builds their endomorphism presentations,
classifies string modules, and verifies the structural results by
independent brute-force oracles at desk scale.
"""

from tubecat.tube import (
    HomDims,
    Indec,
    ext1_cluster,
    has_D_endomorphism,
    hom_cluster,
    hom_tube,
    hom_tube_oracle,
    is_compatible,
    tau,
)

__version__ = "0.1.0"

__all__ = [
    "HomDims",
    "Indec",
    "ext1_cluster",
    "has_D_endomorphism",
    "hom_cluster",
    "hom_tube",
    "hom_tube_oracle",
    "is_compatible",
    "tau",
    "__version__",
]
