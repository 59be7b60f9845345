"""Labeled molecular graphs: MGF parsing, serialization, and canonical keys.

Molecules are undirected simple graphs whose vertices carry an element symbol
and an integer charge and whose edges carry a bond order (single, double,
triple, or aromatic).  A molecule's isomorphism class is named by its
canonical key, a ``bytes`` value computed by iterative color refinement with
tie-breaking by cell branching, so two graphs are isomorphic exactly when
their keys are equal.  Branching skips a vertex that is a twin of one
already tried, because swapping the two is an automorphism and so leaves the
smallest certificate unchanged.
"""
from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass

BOND_ORDERS = ("1", "2", "3", "a")

#: numeric valence contribution of each bond order token
ORDER_VALUE = {"1": 1.0, "2": 2.0, "3": 3.0, "a": 1.5}

PERIODIC_TABLE = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co "
    "Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb "
    "Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re "
    "Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es "
    "Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og".split()
)


class TextError(ValueError):
    """Malformed input text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MgfError(TextError):
    """Malformed molecule text."""


#: the integer grammar of every text reader: ASCII digits without leading
#: zeros, so no two spellings name one number; only a signed one takes +/-
_INTEGER = re.compile(r"([+-]?)(0|[1-9][0-9]*)")


def read_integer(token: str, signed: bool = False) -> int | None:
    """The integer ``token`` spells, or None; only a charge is ``signed``."""
    m = _INTEGER.fullmatch(token)
    if m is None or (m[1] and not signed):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


def read_bond(fields: list[str], line: int, error: type[TextError]) -> tuple[int, int, str]:
    """A ``bond <a> <b> <order>`` statement's endpoints and order; a malformed
    statement raises ``error``, the caller's subclass of ``TextError``."""
    if len(fields) != 4:
        raise error("bond line needs 'bond <id1> <id2> <order>'", line)
    a, b = read_integer(fields[1]), read_integer(fields[2])
    if a is None or b is None:
        raise error("bond endpoints must be atom ids", line)
    if fields[3] not in BOND_ORDERS:
        raise error(f"bond order must be one of 1,2,3,a not {fields[3]!r}", line)
    return a, b, fields[3]


@dataclass(frozen=True, order=True)
class Atom:
    id: int
    element: str
    charge: int = 0


@dataclass(frozen=True, order=True)
class Bond:
    a: int
    b: int
    order: str


@dataclass(frozen=True)
class MolecularGraph:
    """Immutable labeled graph; atoms keyed by integer ids.

    Graphs are built with ``make_graph``, which checks them, or parsed
    (``parse_molecules``), which checks each statement with its line.
    """

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]

    def adjacency(self) -> dict[int, list[tuple[int, str]]]:
        adj: dict[int, list[tuple[int, str]]] = {a.id: [] for a in self.atoms}
        for b in self.bonds:
            adj[b.a].append((b.b, b.order))
            adj[b.b].append((b.a, b.order))
        return adj


def make_graph(atoms, bonds=()) -> MolecularGraph:
    """Build and check a graph by hand.

    ``atoms`` holds ``(id, element)`` or ``(id, element, charge)`` tuples and
    ``bonds`` holds ``(a, b, order)`` with the order given as 1, 2, 3 or "a".
    ValueError names a duplicate atom id, an unknown element, a bad bond
    order, a self bond, a bond to a missing atom or a parallel bond.
    """
    specs = []
    ids: set[int] = set()
    for spec in atoms:
        aid, element, charge = spec if len(spec) == 3 else (*spec, 0)
        aid = int(aid)
        if aid in ids:
            raise ValueError(f"duplicate atom id {aid}")
        if element not in PERIODIC_TABLE:
            raise ValueError(f"unknown element symbol {element!r}")
        ids.add(aid)
        specs.append((aid, element, int(charge)))
    pairs: set[tuple[int, int]] = set()
    triples = []
    for a, b, order in bonds:
        a, b, token = int(a), int(b), str(order)
        lo, hi = (a, b) if a < b else (b, a)
        if token not in BOND_ORDERS:
            raise ValueError(f"bad bond order {token!r}")
        if lo == hi:
            raise ValueError(f"self bond on atom {lo}")
        if lo not in ids or hi not in ids:
            raise ValueError(f"bond {lo}-{hi} references a missing atom")
        if (lo, hi) in pairs:
            raise ValueError(f"parallel bond {lo}-{hi}")
        pairs.add((lo, hi))
        triples.append((lo, hi, token))
    return _from_tables(specs, triples)


def _from_tables(atoms, bonds) -> MolecularGraph:
    """A graph from checked tables: ``(id, element, charge)`` atom specs with
    distinct ids and ``(a, b, order)`` bonds with ``a < b``, no two alike."""
    return MolecularGraph(
        tuple(Atom(*spec) for spec in sorted(atoms)),
        tuple(Bond(*bond) for bond in sorted(bonds)),
    )


def component_specs(atoms: list, bonds: list) -> list[tuple[list, list]]:
    """Split atom specs and bond triples into connected components.

    Each atom spec starts with its atom id.  Each component is its atom
    specs and bond triples, in input order, with no graph built, so a caller
    can refuse a part (say, by its element counts) before paying for its
    ``MolecularGraph``.  Components come smallest atom id first.  This is
    the one component walk; ``connected_components`` builds its graphs.
    """
    adj: dict[int, list[int]] = {spec[0]: [] for spec in atoms}
    for a, b, _ in bonds:
        adj[a].append(b)
        adj[b].append(a)
    part_of: dict[int, int] = {}
    n_parts = 0
    for start in sorted(adj):
        if start in part_of:
            continue
        part_of[start] = n_parts
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in part_of:
                    part_of[u] = n_parts
                    stack.append(u)
        n_parts += 1
    parts: list[tuple[list, list]] = [([], []) for _ in range(n_parts)]
    for spec in atoms:
        parts[part_of[spec[0]]][0].append(spec)
    for bond in bonds:
        parts[part_of[bond[0]]][1].append(bond)
    return parts


def element_counts(g: MolecularGraph) -> dict[str, int]:
    """Multiset of element symbols, e.g. {"C": 2, "H": 3, "N": 1, "O": 1}."""
    return dict(Counter(a.element for a in g.atoms))


# ---------------------------------------------------------------------------
# MGF text format


def _parse_block(lines: list[tuple[int, str]]) -> MolecularGraph | None:
    """A block's molecule, or None for comments only; bonds are checked last."""
    atoms: dict[int, tuple[int, str, int]] = {}
    bonds: list[tuple[int, tuple[int, int, str]]] = []
    for ln, content in lines:
        if content.startswith("#"):
            continue
        fields = content.split()
        kind = fields[0]
        if kind == "atom":
            if len(fields) not in (3, 4):
                raise MgfError("atom line needs 'atom <id> <element> [charge]'", ln)
            aid = read_integer(fields[1])
            if aid is None:
                raise MgfError(f"bad atom id {fields[1]!r}", ln)
            element = fields[2]
            if element not in PERIODIC_TABLE:
                raise MgfError(f"unknown element symbol {element!r}", ln)
            charge = read_integer(fields[3], signed=True) if len(fields) == 4 else 0
            if charge is None:
                raise MgfError(f"bad charge {fields[3]!r}", ln)
            if aid in atoms:
                raise MgfError(f"duplicate atom id {aid}", ln)
            atoms[aid] = (aid, element, charge)
        elif kind == "bond":
            bonds.append((ln, read_bond(fields, ln, MgfError)))
        else:
            raise MgfError(f"unknown directive {kind!r}", ln)
    if not atoms:
        if not bonds:
            return None
        raise MgfError("molecule block has no atoms", lines[0][0])
    pairs: dict[tuple[int, int], str] = {}
    for ln, (a, b, order) in bonds:
        if a not in atoms or b not in atoms:
            raise MgfError(f"bond references missing atom {a if a not in atoms else b}", ln)
        if a == b:
            raise MgfError(f"self bond on atom {a}", ln)
        pair = (a, b) if a < b else (b, a)
        if pair in pairs:
            raise MgfError(f"parallel bond {pair[0]}-{pair[1]}", ln)
        pairs[pair] = order
    return _from_tables(atoms.values(), [(a, b, order) for (a, b), order in pairs.items()])


def parse_molecules(text: str) -> list[MolecularGraph]:
    """Parse molecule text: ``atom <id> <element> [charge]`` and ``bond <a>
    <b> <order>`` statements split by lines or ';', '#' comments, and '---'
    lines between molecules; errors name their line."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for ln, raw in enumerate(text.splitlines(), start=1):
        for piece in map(str.strip, raw.split(";")):
            if piece.startswith("---"):
                blocks.append([])
            elif piece:
                blocks[-1].append((ln, piece))
    graphs = [g for g in map(_parse_block, blocks) if g is not None]
    if not graphs:
        raise MgfError("no molecules found")
    return graphs


def parse_molecule(text: str) -> MolecularGraph:
    """Parse exactly one molecule; separators are rejected."""
    graphs = parse_molecules(text)
    if len(graphs) != 1:
        raise MgfError(f"expected a single molecule, found {len(graphs)}")
    return graphs[0]


def serialize_molecule(g: MolecularGraph) -> str:
    lines = []
    for a in sorted(g.atoms):
        if a.charge:
            lines.append(f"atom {a.id} {a.element} {a.charge}")
        else:
            lines.append(f"atom {a.id} {a.element}")
    for b in sorted(g.bonds):
        lines.append(f"bond {b.a} {b.b} {b.order}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Canonical form


def _refine(colors: dict, adj: dict[int, list[tuple[int, str]]]) -> dict[int, int]:
    # classic 1-dimensional Weisfeiler-Leman refinement; colors are re-indexed
    # from sorted signatures each round, which keeps them relabeling-invariant;
    # the input colors need only sort, since an order-preserving relabel of
    # them cannot change the output
    while True:
        sig = {
            v: (colors[v], tuple(sorted((order, colors[u]) for u, order in adj[v])))
            for v in colors
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in colors}
        if len(set(new.values())) == len(set(colors.values())):
            return new
        colors = new


def _certificate(g: MolecularGraph, order: list[int]) -> bytes:
    index = {aid: i for i, aid in enumerate(order)}
    label = {a.id: (a.element, a.charge) for a in g.atoms}
    atom_part = tuple(label[aid] for aid in order)
    bond_part = tuple(
        sorted(
            (min(index[b.a], index[b.b]), max(index[b.a], index[b.b]), b.order)
            for b in g.bonds
        )
    )
    return repr((atom_part, bond_part)).encode()


def _canonical_search(g, adj, colors: dict) -> bytes:
    colors = _refine(colors, adj)
    cells: dict[int, list[int]] = {}
    for v, c in colors.items():
        cells.setdefault(c, []).append(v)
    branch_cell = None
    for c in sorted(cells, key=lambda c: (len(cells[c]), c)):
        if len(cells[c]) > 1:
            branch_cell = sorted(cells[c])
            break
    if branch_cell is None:
        order = [v for v, _ in sorted(colors.items(), key=lambda item: item[1])]
        return _certificate(g, order)
    best: bytes | None = None
    tried: list[int] = []
    for v in branch_cell:
        if any(_twins(adj, v, w) for w in tried):
            continue
        tried.append(v)
        child = {u: (colors[u] * 2 + (0 if u == v else 1)) for u in colors}
        cert = _canonical_search(g, adj, child)
        if best is None or cert < best:
            best = cert
    assert best is not None
    return best


def _twins(adj: dict[int, list[tuple[int, str]]], v: int, w: int) -> bool:
    """True when v and w see the same neighbours by the same bond orders.

    For two vertices of one cell (so of one element and charge) this means
    that swapping them and fixing every other vertex is an automorphism.  It
    maps the subtree that individualizes v onto the one that individualizes w,
    leaf for leaf with equal certificates, so only one of them is searched.
    """
    return {(u, o) for u, o in adj[v] if u != w} == {(u, o) for u, o in adj[w] if u != v}


@functools.lru_cache(maxsize=65536)
def canonical_form(g: MolecularGraph) -> bytes:
    """The canonical key: equal keys exactly for isomorphic graphs, and
    ``b"()"`` for the empty graph.

    Colors start as each atom's (element, charge) and are refined, then
    branching tries every vertex of the smallest non-singleton cell except
    twins of a vertex already tried (see ``_twins``), whose subtrees give the
    same certificates; the key is the smallest certificate over all leaves.
    """
    if not g.atoms:
        return b"()"
    colors = {a.id: (a.element, a.charge) for a in g.atoms}
    return _canonical_search(g, g.adjacency(), colors)


def connected_components(g: MolecularGraph) -> list[MolecularGraph]:
    """Split into connected components, smallest atom id first, each a
    standalone molecule that keeps its atom ids."""
    atoms = [(a.id, a.element, a.charge) for a in g.atoms]
    bonds = [(b.a, b.b, b.order) for b in g.bonds]
    return [_from_tables(a, b) for a, b in component_specs(atoms, bonds)]
