"""Reaction-network generation by graph rewriting plus pathway queries
answered as integer hyperflow optimization problems."""

__version__ = "0.1.0"

from .molgraph import (
    Atom,
    Bond,
    MgfError,
    MolecularGraph,
    canonical_form,
    connected_components,
    element_counts,
    make_graph,
    parse_molecule,
    parse_molecules,
    serialize_molecule,
)
from .netcore import Hyperedge, Hypergraph, Vertex

__all__ = [
    "Atom",
    "Bond",
    "MgfError",
    "MolecularGraph",
    "canonical_form",
    "connected_components",
    "element_counts",
    "make_graph",
    "parse_molecule",
    "parse_molecules",
    "serialize_molecule",
    "Hyperedge",
    "Hypergraph",
    "Vertex",
    "__version__",
]
