"""Labeled molecular graphs: MGF parsing, serialization, and canonical keys.

Molecules are undirected simple graphs whose vertices carry an element symbol
and an integer charge and whose edges carry a bond order (single, double,
triple, or aromatic).  Molecules, hand-built graphs and rule sides share
``Bond``, the one bond checker ``check_bonds`` (with ``check_atom``) and
``adjacency``.  A molecule's isomorphism class is named by its
canonical key, a ``bytes`` value computed by iterative color refinement with
tie-breaking by cell branching (the individualization-refinement scheme of
McKay & Piperno, *Practical graph isomorphism, II*, 2014), so two graphs are
isomorphic exactly when their keys are equal.  Branching skips a vertex that
is a twin of one already tried, because swapping the two is an automorphism
and so leaves the smallest certificate unchanged; a cell whose vertices are
all twins splits off its first vertex without refining, since that split is
already stable.  The search runs on integer tables: atoms numbered in
atom-id order, colors and neighbours in lists, bond orders coded in the
order of their tokens.  Its one cache, bounded at 65536 entries, is keyed by
those tables, so graphs that differ only by an order-preserving renumbering
of atom ids share one search.
"""
from __future__ import annotations

import functools
import itertools
import operator
import re
from collections import Counter
from collections.abc import Iterable
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
        raise error(f"bad bond order {fields[3]!r}", line)
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


def check_atom(aid: int, element: str, ids, error: type[TextError], line: int | None = None) -> None:
    """Refuse atom ``aid`` when ``ids`` already holds it or its element is
    unknown, raising ``error``, the caller's subclass of ``TextError``."""
    if aid in ids:
        raise error(f"duplicate atom id {aid}", line)
    if element not in PERIODIC_TABLE:
        raise error(f"unknown element symbol {element!r}", line)


def check_bonds(bonds, ids, error: type[TextError], lines=None) -> list[tuple[int, int, str]]:
    """``(a, b, order)`` bonds between atoms of ``ids`` as ``(lo, hi, order)``
    with lo < hi, in input order.  A bond of an unknown order, a self bond, a
    bond to an atom not in ``ids`` or a second bond on a pair raises ``error``,
    the caller's ``TextError`` subclass, with the bond's entry of ``lines``."""
    triples = []
    pairs: set[tuple[int, int]] = set()
    for (a, b, order), line in zip(bonds, lines or itertools.repeat(None)):
        lo, hi = (a, b) if a < b else (b, a)
        if order not in BOND_ORDERS:
            raise error(f"bad bond order {order!r}", line)
        if lo == hi:
            raise error(f"self bond on atom {lo}", line)
        if lo not in ids or hi not in ids:
            raise error(f"bond {lo}-{hi} references missing atom {hi if lo in ids else lo}", line)
        if (lo, hi) in pairs:
            raise error(f"parallel bond {lo}-{hi}", line)
        pairs.add((lo, hi))
        triples.append((lo, hi, order))
    return triples


def adjacency(atoms, bonds) -> dict[int, list[tuple[int, str]]]:
    """Each atom's neighbours with the bond orders, keyed by atom id:
    ``atoms`` have ids and ``bonds`` are ``Bond``s between them."""
    adj: dict[int, list[tuple[int, str]]] = {a.id: [] for a in atoms}
    for b in bonds:
        adj[b.a].append((b.b, b.order))
        adj[b.b].append((b.a, b.order))
    return adj


@dataclass(frozen=True)
class MolecularGraph:
    """Immutable labeled graph; atoms keyed by integer ids.

    Graphs are built with ``make_graph``, which checks them, or parsed
    (``parse_molecules``), which checks each statement with its line.
    """

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]

    def adjacency(self) -> dict[int, list[tuple[int, str]]]:
        return adjacency(self.atoms, self.bonds)


def make_graph(atoms, bonds=()) -> MolecularGraph:
    """Build and check a graph by hand.

    ``atoms`` holds ``(id, element)`` or ``(id, element, charge)`` tuples and
    ``bonds`` holds ``(a, b, order)`` with the order given as 1, 2, 3 or "a".
    A ``TextError`` without a line names a duplicate atom id or an unknown
    element (``check_atom``), or a bond fault (``check_bonds``).
    """
    specs: dict[int, tuple[int, str, int]] = {}
    for spec in atoms:
        aid, element, charge = spec if len(spec) == 3 else (*spec, 0)
        aid = int(aid)
        check_atom(aid, element, specs, TextError)
        specs[aid] = (aid, element, int(charge))
    bonds = [(int(a), int(b), str(order)) for a, b, order in bonds]
    return _from_tables(specs.values(), check_bonds(bonds, specs, TextError))


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
    bonds: list[tuple[int, int, str]] = []
    bond_lines: list[int] = []
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
            check_atom(aid, fields[2], atoms, MgfError, ln)
            charge = read_integer(fields[3], signed=True) if len(fields) == 4 else 0
            if charge is None:
                raise MgfError(f"bad charge {fields[3]!r}", ln)
            atoms[aid] = (aid, fields[2], charge)
        elif kind == "bond":
            bonds.append(read_bond(fields, ln, MgfError))
            bond_lines.append(ln)
        else:
            raise MgfError(f"unknown directive {kind!r}", ln)
    if not atoms:
        if not bonds:
            return None
        raise MgfError("molecule block has no atoms", lines[0][0])
    return _from_tables(atoms.values(), check_bonds(bonds, atoms, MgfError, bond_lines))


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


_ATOM_ID = operator.attrgetter("id")

#: each bond order's code; the codes sort as the order tokens do
_ORDER_CODE = {order: code for code, order in enumerate(sorted(BOND_ORDERS))}


def _refine(colors: list[int], adj: list[list[tuple[int, int]]], split: Iterable[int]) -> list[int]:
    # classic 1-dimensional Weisfeiler-Leman refinement of dense colors
    # 0..k-1: each round ranks the atoms' signatures (own color, sorted
    # neighbour colors by bond order), which keeps colors relabeling-invariant.
    # A signature leads with the atom's own color, so a cell's atoms take
    # consecutive new colors in the order of their neighbour signatures.  A
    # cell can split only if it holds a neighbour of an atom whose cell split
    # in the last round, so no other cell is looked at; ``split`` starts as
    # every atom at the root and as the individualized cell in a child, whose
    # other cells the parent's stable colors already fix.  A neighbour enters
    # as ``weight + color``, where the weight is its bond order's code times
    # n and every color is below n, so these integers sort as (order, color)
    # pairs do.
    n = len(colors)
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    while True:
        touched = {colors[u] for v in split for u, _ in adj[v]}
        split = []
        refined: list[list[int]] = []
        for c, cell in enumerate(cells):
            if len(cell) > 1 and c in touched:
                groups: dict[tuple, list[int]] = {}
                for v in cell:
                    sig = tuple(sorted([w + colors[u] for u, w in adj[v]]))
                    groups.setdefault(sig, []).append(v)
                if len(groups) > 1:
                    refined += [groups[s] for s in sorted(groups)]
                    split += cell
                    continue
            refined.append(cell)
        if not split:
            return colors
        cells = refined
        colors = [0] * n
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c


def _twins(adj: list[list[tuple[int, int]]], v: int, w: int) -> bool:
    """True when v and w see the same neighbours by the same bond orders.

    For two vertices of one cell (so of one element and charge) this means
    that swapping them and fixing every other vertex is an automorphism.  It
    maps the subtree that individualizes v onto the one that individualizes w,
    leaf for leaf with equal certificates, so only one of them is searched.
    """
    return {(u, o) for u, o in adj[v] if u != w} == {(u, o) for u, o in adj[w] if u != v}


def _search(
    colors: list[int], labels: tuple, bonds: tuple, adj: list[list[tuple[int, int]]]
) -> bytes:
    """The smallest leaf certificate below a search node whose ``colors``
    are dense ranks 0..k-1 of an equitable partition of the atoms.

    The target is the smallest cell of two or more atoms, lowest color c
    first.  Each of its atoms that is not a twin of one already tried (in
    atom order) is individualized in turn: it keeps color c, the cell's other
    atoms take c+1 and every higher cell moves up by one (an order-preserving
    renaming of 2c and 2c+1), and the child is refined.  A leaf orders the
    atoms by color.

    When every other atom of the cell is a twin of its first atom v0, only v0
    is tried, and its child is not refined: it is already equitable.  For
    atoms u, w of the cell other than v0, twinship of v0 and w gives
    bond(u, w) = bond(u, v0), so one bond order (or none) joins every pair of
    the cell's atoms; pairwise twins cannot mix the adjacent and non-adjacent
    kinds.  An atom outside the cell sees v0 as it sees every other atom of
    the cell, so its counts to {v0} and to the rest follow from its count to
    the whole cell, which its cell shares; and each atom of the rest sees v0
    and the others of the rest alike.  Refinement would split nothing, and
    it would rank the cells as the child already does.
    """
    n = len(colors)
    size = [0] * n
    for c in colors:
        size[c] += 1
    target = min(((s, c) for c, s in enumerate(size) if s > 1), default=None)
    if target is None:
        order = [0] * n
        for v, c in enumerate(colors):
            order[c] = v
        atom_part = tuple(labels[v] for v in order)
        bond_part = tuple(sorted(
            (colors[a], colors[b], o) if colors[a] < colors[b] else (colors[b], colors[a], o)
            for a, b, o in bonds
        ))
        return repr((atom_part, bond_part)).encode()
    c = target[1]
    cell = [v for v, x in enumerate(colors) if x == c]
    tried: list[int] = []
    for v in cell:
        if not any(_twins(adj, v, w) for w in tried):
            tried.append(v)
    best = None
    for v in tried:
        child = [x + (x > c) for x in colors]
        for w in cell:
            if w != v:
                child[w] = c + 1
        if len(tried) > 1:  # not a twin cell
            child = _refine(child, adj, cell)
        cert = _search(child, labels, bonds, adj)
        if best is None or cert < best:
            best = cert
    return best


@functools.lru_cache(maxsize=65536)
def _canonical_key(labels: tuple, bonds: tuple) -> bytes:
    """The key of a graph given as tables: each atom's (element, charge) in
    atom-id order, and the sorted (a, b, order) bonds between those
    positions; the search reads a bond the same either way round."""
    if not labels:
        return b"()"
    n = len(labels)
    rank = {label: i for i, label in enumerate(sorted(set(labels)))}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, order in bonds:
        weight = _ORDER_CODE[order] * n
        adj[a].append((b, weight))
        adj[b].append((a, weight))
    return _search(_refine([rank[label] for label in labels], adj, range(n)), labels, bonds, adj)


def canonical_form(g: MolecularGraph) -> bytes:
    """The canonical key: equal keys exactly for isomorphic graphs, and
    ``b"()"`` for the empty graph.

    The atoms are numbered 0..n-1 in atom-id order.  Colors start as each
    atom's (element, charge) and are refined; the search then branches on
    the smallest cell that refinement leaves (see ``_search``), and the key
    is the smallest leaf certificate, ``repr((atom_part, bond_part))`` over
    the atoms' labels and bonds in leaf order.  The one cache is keyed by
    the numbered tables, so graphs that differ only by an order-preserving
    renumbering of atom ids share one search.
    """
    # plain loops, not comprehensions: most calls are cache hits on small
    # molecules, where a comprehension's own call costs more than its loop
    index: dict[int, int] = {}
    labels = []
    for i, a in enumerate(sorted(g.atoms, key=_ATOM_ID)):
        index[a.id] = i
        labels.append((a.element, a.charge))
    bonds = []
    for b in g.bonds:
        bonds.append((index[b.a], index[b.b], b.order))
    bonds.sort()
    return _canonical_key(tuple(labels), tuple(bonds))


def connected_components(g: MolecularGraph) -> list[MolecularGraph]:
    """Split into connected components, smallest atom id first, each a
    standalone molecule that keeps its atom ids."""
    atoms = [(a.id, a.element, a.charge) for a in g.atoms]
    bonds = [(b.a, b.b, b.order) for b in g.bonds]
    return [_from_tables(a, b) for a, b in component_specs(atoms, bonds)]
