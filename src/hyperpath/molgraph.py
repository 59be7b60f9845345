"""Labeled molecular graphs: MGF parsing, serialization, and canonical keys.

Molecules are undirected simple graphs whose vertices carry an element symbol
and an integer charge and whose edges carry a bond order (single, double,
triple, or aromatic).  Isomorphism classes are identified through a canonical
key computed by iterative color refinement with tie-breaking by cell
branching, so two graphs are isomorphic exactly when their keys compare equal.
Branching skips a vertex that is a twin of one already tried, because swapping
the two is an automorphism and so leaves the smallest certificate unchanged.
"""
from __future__ import annotations

import functools
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


class MgfError(ValueError):
    """Raised for malformed molecule text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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
    """Immutable labeled graph; atoms keyed by integer ids."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]

    def __post_init__(self):
        ids = [a.id for a in self.atoms]
        seen: set[int] = set()
        for i in ids:
            if i in seen:
                raise ValueError(f"duplicate atom id {i}")
            seen.add(i)
        for a in self.atoms:
            if a.element not in PERIODIC_TABLE:
                raise ValueError(f"unknown element symbol {a.element!r}")
        pairs: set[tuple[int, int]] = set()
        for b in self.bonds:
            if b.order not in BOND_ORDERS:
                raise ValueError(f"bad bond order {b.order!r}")
            if b.a == b.b:
                raise ValueError(f"self bond on atom {b.a}")
            if b.a not in seen or b.b not in seen:
                raise ValueError(f"bond {b.a}-{b.b} references a missing atom")
            pair = (b.a, b.b) if b.a < b.b else (b.b, b.a)
            if pair in pairs:
                raise ValueError(f"parallel bond {pair[0]}-{pair[1]}")
            pairs.add(pair)

    def atom_by_id(self, aid: int) -> Atom:
        for a in self.atoms:
            if a.id == aid:
                return a
        raise KeyError(aid)

    def adjacency(self) -> dict[int, list[tuple[int, str]]]:
        adj: dict[int, list[tuple[int, str]]] = {a.id: [] for a in self.atoms}
        for b in self.bonds:
            adj[b.a].append((b.b, b.order))
            adj[b.b].append((b.a, b.order))
        return adj


def make_graph(atoms, bonds=()) -> MolecularGraph:
    """Convenience constructor.

    ``atoms`` holds ``(id, element)`` or ``(id, element, charge)`` tuples and
    ``bonds`` holds ``(a, b, order)`` with the order given as 1, 2, 3 or "a".
    """
    built_atoms = []
    for spec in atoms:
        if len(spec) == 2:
            aid, el = spec
            charge = 0
        else:
            aid, el, charge = spec
        built_atoms.append(Atom(int(aid), el, int(charge)))
    built_bonds = []
    for a, b, order in bonds:
        token = str(order)
        lo, hi = (a, b) if a < b else (b, a)
        built_bonds.append(Bond(int(lo), int(hi), token))
    return MolecularGraph(tuple(sorted(built_atoms)), tuple(sorted(built_bonds)))


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


def _iter_logical_lines(text: str):
    """Yield (line_number, content) pairs; ';' separates statements in a line."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        for piece in raw.split(";"):
            stripped = piece.strip()
            if stripped:
                yield ln, stripped


def _parse_block(lines: list[tuple[int, str]]) -> MolecularGraph:
    atoms: list[Atom] = []
    bonds: list[tuple[int, int, str]] = []
    for ln, content in lines:
        if content.startswith("#"):
            continue
        fields = content.split()
        kind = fields[0]
        if kind == "atom":
            if len(fields) not in (3, 4):
                raise MgfError("atom line needs 'atom <id> <element> [charge]'", ln)
            try:
                aid = int(fields[1])
            except ValueError:
                raise MgfError(f"bad atom id {fields[1]!r}", ln) from None
            element = fields[2]
            if element not in PERIODIC_TABLE:
                raise MgfError(f"unknown element symbol {element!r}", ln)
            charge = 0
            if len(fields) == 4:
                try:
                    charge = int(fields[3])
                except ValueError:
                    raise MgfError(f"bad charge {fields[3]!r}", ln) from None
            if any(a.id == aid for a in atoms):
                raise MgfError(f"duplicate atom id {aid}", ln)
            atoms.append(Atom(aid, element, charge))
        elif kind == "bond":
            if len(fields) != 4:
                raise MgfError("bond line needs 'bond <id1> <id2> <order>'", ln)
            try:
                a, b = int(fields[1]), int(fields[2])
            except ValueError:
                raise MgfError("bond endpoints must be atom ids", ln) from None
            order = fields[3]
            if order not in BOND_ORDERS:
                raise MgfError(f"bond order must be one of 1,2,3,a not {order!r}", ln)
            bonds.append((a, b, order))
        else:
            raise MgfError(f"unknown directive {kind!r}", ln)
    if not atoms:
        raise MgfError("molecule block has no atoms", lines[0][0] if lines else None)
    known = {a.id for a in atoms}
    for ln, content in lines:
        if content.startswith("bond"):
            fields = content.split()
            try:
                a, b = int(fields[1]), int(fields[2])
            except (ValueError, IndexError):
                continue
            if a not in known or b not in known:
                raise MgfError(f"bond references missing atom {a if a not in known else b}", ln)
            if a == b:
                raise MgfError(f"self bond on atom {a}", ln)
    try:
        return make_graph([(a.id, a.element, a.charge) for a in atoms], bonds)
    except ValueError as exc:
        raise MgfError(str(exc)) from None


def parse_molecules(text: str) -> list[MolecularGraph]:
    """Parse molecule text; '---' lines separate molecules in one document."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for ln, content in _iter_logical_lines(text):
        if content.startswith("---"):
            blocks.append([])
        else:
            blocks[-1].append((ln, content))
    graphs = []
    for block in blocks:
        meaningful = [(ln, c) for ln, c in block if not c.startswith("#")]
        if not meaningful:
            continue
        graphs.append(_parse_block(block))
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


@dataclass(frozen=True)
class CanonicalForm:
    """Permutation-invariant certificate; equal keys mean isomorphic graphs."""

    key: bytes


def _refine(colors: dict[int, int], adj: dict[int, list[tuple[int, str]]]) -> dict[int, int]:
    # classic 1-dimensional Weisfeiler-Leman refinement; colors are re-indexed
    # from sorted signatures each round, which keeps them relabeling-invariant
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


def _canonical_search(g, adj, colors: dict[int, int]) -> bytes:
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
        # re-normalize to dense ints so refinement signatures stay small
        palette = {c: i for i, c in enumerate(sorted(set(child.values())))}
        child = {u: palette[c] for u, c in child.items()}
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
def canonical_form(g: MolecularGraph) -> CanonicalForm:
    """Canonical key via color refinement plus cell branching.

    Branching tries every vertex of the smallest non-singleton cell except
    twins of a vertex already tried (see ``_twins``), whose subtrees give the
    same certificates; the key is the smallest certificate over all leaves.
    """
    if not g.atoms:
        return CanonicalForm(b"()")
    adj = g.adjacency()
    initial_keys = sorted({(a.element, a.charge) for a in g.atoms})
    palette = {k: i for i, k in enumerate(initial_keys)}
    colors = {a.id: palette[(a.element, a.charge)] for a in g.atoms}
    return CanonicalForm(_canonical_search(g, adj, colors))


def connected_components(g: MolecularGraph) -> list[MolecularGraph]:
    """Split into connected components, smallest atom id first, each a
    standalone molecule that keeps its atom ids."""
    atoms = [(a.id, a.element, a.charge) for a in g.atoms]
    bonds = [(b.a, b.b, b.order) for b in g.bonds]
    return [make_graph(a, b) for a, b in component_specs(atoms, bonds)]
