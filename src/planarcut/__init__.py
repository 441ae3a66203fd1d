"""Minimum-cut oracles for weighted planar graphs.

The package preprocesses an undirected planar graph with non-negative edge
weights into a Gomory-Hu tree by computing a minimum cycle basis of the dual,
then answers minimum st-cut weight queries in constant time and reports cut
edge sets output-sensitively.
"""

from .errors import (Disconnected, InputError, InternalAssertion,
                     NegativeWeight, NonPlanarEmbedding, PlanarCutError)
from .planar_core import (PlanarEmbedding, TransformTrace, add_bounding_cycle,
                          build_embedding, cut_cycle_duality_check,
                          degree_three_transform, dual, subdivide_to_simple,
                          triangulate)
from .weights import TieBreakWeight

__version__ = "0.1.0"

__all__ = [
    "PlanarEmbedding",
    "TieBreakWeight",
    "TransformTrace",
    "add_bounding_cycle",
    "build_embedding",
    "build_oracle",
    "cut_cycle_duality_check",
    "degree_three_transform",
    "dual",
    "load_oracle",
    "subdivide_to_simple",
    "triangulate",
    "Disconnected",
    "InputError",
    "InternalAssertion",
    "NegativeWeight",
    "NonPlanarEmbedding",
    "PlanarCutError",
]


def build_oracle(g, mode="cut", **kwargs):
    """Preprocess an embedded planar graph into a min-cut oracle.

    Deferred import keeps the light structural API importable on its own.
    """
    from .oracle import build_oracle as _impl
    return _impl(g, mode=mode, **kwargs)


def load_oracle(path):
    """Load an oracle previously written with MinCutOracle.save."""
    from .oracle import MinCutOracle
    return MinCutOracle.load(path)
