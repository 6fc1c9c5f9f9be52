"""Signed-graph analysis centered on the Petersen graph: balance,
switching, frustration, switching automorphisms, signed coloring,
clusterability, and an exhaustive census of all 2^15 signatures."""

from .graphs import Graph, petersen
from .signed import SignedGraph, classify_six

__all__ = [
    "Graph",
    "SignedGraph",
    "classify_six",
    "petersen",
]
