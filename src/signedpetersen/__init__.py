"""Signed-graph analysis centered on the Petersen graph: balance,
switching, frustration, switching automorphisms, signed coloring,
clusterability, and an exhaustive census of all 2^15 signatures."""

from .graphs import Graph, petersen
from .signed import SignedGraph, SixType, classify_six

__all__ = [
    "Graph",
    "SignedGraph",
    "SixType",
    "classify_six",
    "petersen",
]
