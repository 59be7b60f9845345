"""Directed multi-hypergraph of molecules and reactions.

Vertices are isomorphism classes of molecular graphs (deduplicated by their
canonical key); hyperedges are reactions holding stoichiometric multiplicities
on both sides.  The module also provides exact integer conservation checks
for hyperflows, JSON round-tripping, and DOT export.  A network file holds
only the molecules and the reactions' bags; canonical keys stay in memory.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .molgraph import MolecularGraph, canonical_form, element_counts, parse_molecule, serialize_molecule
from .molgraph import read_integer

#: the largest stoichiometric multiplicity a network file may give; ``to_dot``
#: draws one arrow per unit
MAX_MULTIPLICITY = 1000


def is_json_integer(raw, limit: int = 2**53) -> bool:
    """Whether a value read from JSON is an integer, not a bool, of at most
    ``limit`` in magnitude; 2**53 keeps it exact as a float."""
    return isinstance(raw, int) and not isinstance(raw, bool) and abs(raw) <= limit


def is_json_id(key) -> bool:
    """Whether a JSON object key is an id: a decimal numeral without leading
    zeros, so that no two keys name one id ("03" would alias "3")."""
    return read_integer(str(key)) is not None


def _same(raw, derived) -> bool:
    """Whether an id read from JSON is ``derived``, of its type too (a
    bool or a float is no id)."""
    return type(raw) is type(derived) and raw == derived


def _side(raw: dict) -> dict[int, int]:
    """One side of an edge of a network file: vertex id -> multiplicity."""
    side = {}
    for key, mult in raw.items():
        if not is_json_id(key):
            raise ValueError(f"bad vertex id {key!r}")
        if not (is_json_integer(mult, MAX_MULTIPLICITY) and mult > 0):
            raise ValueError(
                f"multiplicity for vertex {key} must be positive, an integer of at most "
                f"{MAX_MULTIPLICITY}, not {mult!r}"
            )
        side[int(key)] = mult
    return side


@dataclass(frozen=True)
class Vertex:
    id: int
    key: bytes
    graph: MolecularGraph


@dataclass(frozen=True)
class Hyperedge:
    """One reaction: multiplicities of consumed and produced vertices."""

    id: int
    reactants: dict[int, int]
    products: dict[int, int]


def _freeze(side: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(side.items()))


class Hypergraph:
    """Starts empty; molecules and reactions go in only through
    ``add_molecule`` and ``add_reaction``, which check them."""

    def __init__(self):
        self.vertices: list[Vertex] = []
        self.edges: list[Hyperedge] = []
        self._by_key: dict[bytes, int] = {}
        self._by_bags: dict[tuple, int] = {}

    # -- construction -------------------------------------------------------

    def add_molecule(self, graph: MolecularGraph) -> int:
        """Insert a molecule, returning the existing vertex id when isomorphic."""
        key = canonical_form(graph)
        if key in self._by_key:
            return self._by_key[key]
        vertex = Vertex(len(self.vertices), key, graph)
        self.vertices.append(vertex)
        self._by_key[key] = vertex.id
        return vertex.id

    def add_reaction(self, reactants: dict[int, int], products: dict[int, int]) -> int:
        """Insert a reaction edge, deduplicating by its two multiplicity bags.

        Returns the edge id; an edge's reverse is the edge with swapped bags.
        Ids and multiplicities must be ints; zero multiplicities are dropped.
        """
        for vid, mult in (*reactants.items(), *products.items()):
            if type(vid) is not int or type(mult) is not int:
                raise ValueError(f"vertex id and multiplicity must be ints, not {vid!r}: {mult!r}")
            if not (0 <= vid < len(self.vertices)):
                raise ValueError(f"unknown vertex id {vid}")
            if mult < 0:
                raise ValueError(f"multiplicity for vertex {vid} must not be negative")
        reactants = {v: m for v, m in reactants.items() if m}
        products = {v: m for v, m in products.items() if m}
        if not reactants and not products:
            raise ValueError("a reaction needs at least one reactant or product")
        bags = (_freeze(reactants), _freeze(products))
        if bags in self._by_bags:
            return self._by_bags[bags]
        edge = Hyperedge(len(self.edges), dict(reactants), dict(products))
        self.edges.append(edge)
        self._by_bags[bags] = edge.id
        return edge.id

    # -- hyperflow checks ----------------------------------------------------

    def conservation_violations(self, flow: dict) -> dict[int, int]:
        """Net imbalance per vertex id; empty means the flow is conserved.

        ``flow`` maps edge ids to integer flow values and may also carry
        ``("in", v)`` / ``("out", v)`` half-edge entries for exchange with the
        environment.  Ids and values must be ints: the arithmetic is exact.
        """
        net: Counter[int] = Counter()
        for key, value in flow.items():
            if type(value) is not int:
                raise ValueError(f"flow value {value!r} on {key!r} is not an int")
            if not (isinstance(key, tuple) or (type(key) is int and 0 <= key < len(self.edges))):
                raise ValueError(f"flow references unknown edge {key!r}")
        for edge in self.edges:
            f = flow.get(edge.id, 0)
            if f < 0:
                raise ValueError(f"negative flow {f} on edge {edge.id}")
            if f == 0:
                continue
            for vid, mult in edge.products.items():
                net[vid] += mult * f
            for vid, mult in edge.reactants.items():
                net[vid] -= mult * f
        for key, value in flow.items():
            if isinstance(key, tuple):
                kind, vid = key
                if not (type(vid) is int and 0 <= vid < len(self.vertices)):
                    raise ValueError(f"flow references unknown vertex {vid!r}")
                if value < 0:
                    raise ValueError(f"negative half-edge value on {key}")
                if kind == "in":
                    net[vid] += value
                elif kind == "out":
                    net[vid] -= value
                else:
                    raise ValueError(f"bad half-edge kind {kind!r}")
        return {vid: imbalance for vid, imbalance in sorted(net.items()) if imbalance != 0}

    @staticmethod
    def support(flow: dict) -> list[int]:
        """Edge ids carrying strictly positive flow, ascending."""
        return sorted(k for k, v in flow.items() if isinstance(k, int) and v > 0)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "mgf": serialize_molecule(v.graph)}
                for v in self.vertices
            ],
            "edges": [
                {
                    "id": e.id,
                    "reactants": {str(v): m for v, m in sorted(e.reactants.items())},
                    "products": {str(v): m for v, m in sorted(e.products.items())},
                }
                for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Hypergraph":
        """Inverse of to_json; other fields, like an older file's ``key`` and
        ``reverse_of``, are ignored.  Molecules and reactions go in through
        ``add_molecule`` and ``add_reaction``, so a file gets the checks an
        expansion gets: ids out of order or a repeated molecule or reaction
        raises ValueError.  Ids must be JSON integers, vertex ids in a reaction
        decimal numerals without leading zeros, and multiplicities JSON
        integers from 1 to ``MAX_MULTIPLICITY``; anything else raises
        ValueError too."""
        graph = cls()
        for row in data["vertices"]:
            vid = graph.add_molecule(parse_molecule(row["mgf"]))
            if not _same(row["id"], vid):
                raise ValueError(f"vertex {row['id']} is vertex {vid}: out of order or repeated")
        for row in data["edges"]:
            try:
                eid = graph.add_reaction(_side(row["reactants"]), _side(row["products"]))
            except ValueError as exc:
                raise ValueError(f"edge {row['id']}: {exc}") from None
            if not _same(row["id"], eid):
                raise ValueError(f"edge {row['id']} is edge {eid}: out of order or repeated")
        return graph

    # -- visualization -------------------------------------------------------

    def to_dot(self, flow: dict | None = None) -> str:
        """Bipartite DOT drawing: round molecule nodes, square reaction nodes.

        Each unit of stoichiometric multiplicity gets its own arrow.  When a
        flow is given, its support is drawn bold and positive half-edge values
        appear as arrows from/to small environment nodes.
        """
        flow = flow or {}
        support = set(self.support(flow))
        out = ["digraph network {", "  rankdir=LR;"]
        for v in self.vertices:
            label = f"v{v.id}\\n{_formula(v.graph)}"
            out.append(f'  v{v.id} [shape=circle, label="{label}"];')
        for e in self.edges:
            style = ", penwidth=3" if e.id in support else ""
            out.append(f'  e{e.id} [shape=square, label="e{e.id}"{style}];')
            extra = ", penwidth=3" if e.id in support else ""
            for vid, mult in sorted(e.reactants.items()):
                for _ in range(mult):
                    out.append(f"  v{vid} -> e{e.id} [arrowsize=0.7{extra}];")
            for vid, mult in sorted(e.products.items()):
                for _ in range(mult):
                    out.append(f"  e{e.id} -> v{vid} [arrowsize=0.7{extra}];")
        for key, value in sorted((k, v) for k, v in flow.items() if isinstance(k, tuple)):
            kind, vid = key
            if value <= 0:
                continue
            if kind == "in":
                out.append(f'  env_in_{vid} [shape=point, label=""];')
                out.append(f'  env_in_{vid} -> v{vid} [label="{value}", penwidth=3];')
            else:
                out.append(f'  env_out_{vid} [shape=point, label=""];')
                out.append(f'  v{vid} -> env_out_{vid} [label="{value}", penwidth=3];')
        out.append("}")
        return "\n".join(out) + "\n"


def _formula(graph: MolecularGraph) -> str:
    counts = element_counts(graph)
    parts = []
    for el in ("C", "H"):
        if el in counts:
            n = counts.pop(el)
            parts.append(el + (str(n) if n > 1 else ""))
    for el in sorted(counts):
        n = counts[el]
        parts.append(el + (str(n) if n > 1 else ""))
    return "".join(parts)
