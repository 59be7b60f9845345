"""Graph-rewriting rules and breadth-first network expansion.

A rule is a span L <- K -> R over one atom set: one tuple of pattern atoms
and two bond lists, the left and right bonds, parsed from the rule DSL one
``rule`` block at a time.  Applying it to a multiset of host molecules
deletes the matched left-side bonds, adds the right-side bonds, and keeps
everything else, the bonds on both sides too.  Matches are injective and
label-compatible, map each connected pattern component into one host
molecule, and must touch every molecule of the multiset.  Expansion applies
all rules breadth-first over growing strata of molecules, recording every
successful application as a hyperedge.  It matches no multiset that lacks a
part of a rule's left side, and applies one match per orbit under swaps of
twin atoms.  An application is refused when a product would break a valence
ceiling or an element cap, both checked on the rewritten integer tables
before any product graph is built, or when a built product fails a product
filter (ring size, cumulated doubles).  Rewriting computes no canonical key:
the network keys each product as it adds it, and derivation records read the
keys of the network's vertices.
"""
from __future__ import annotations

import functools
import heapq
import re
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import combinations_with_replacement

from .molgraph import (
    ORDER_VALUE,
    PERIODIC_TABLE,
    Bond,
    MolecularGraph,
    TextError,
    _from_tables,
    adjacency,
    check_bonds,
    component_specs,
    element_counts,
    read_bond,
    read_integer,
)
from .netcore import Hypergraph, Vertex

#: hard valence ceilings enforced on every rewritten molecule
VALENCE_CAP = {"C": 4, "N": 3, "O": 2, "H": 1}


class RuleError(TextError):
    """Malformed rule text."""


class RuleApplicationError(Exception):
    """A match exists but rewriting it would produce an invalid molecule."""


@dataclass(frozen=True, order=True)
class PatternAtom:
    id: int
    label: str


@dataclass(frozen=True)
class Rule:
    """A span L <- K -> R over one atom set, plus element-class bindings.

    ``atoms`` serve both sides; ``left`` and ``right`` are each side's
    ``Bond``s, sorted.  Left bonds are matched and deleted, right bonds
    added, and bonds on both sides are kept.  A class binds one of its
    elements per match.  ``parse_rules`` checks a rule as it reads it.
    """

    name: str
    atoms: tuple[PatternAtom, ...]
    left: tuple[Bond, ...]
    right: tuple[Bond, ...]
    label_classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    reversible: bool = False

    def allowed_elements(self, label: str) -> tuple[str, ...]:
        if label in self.label_classes:
            return self.label_classes[label]
        return (label,)

    def part_needs(self) -> list[list[frozenset]]:
        """What each connected part of the left side needs of the host it
        maps into, as ``_host_masks`` reads it: one need per pattern bond,
        met by a host bond of one of its ``(element, element, order)``
        kinds, or, for a part without bonds, one need met by an atom of an
        allowed element.  Each need is the set of host features that meet it."""
        label = {a.id: a.label for a in self.atoms}
        needs = []
        parts = component_specs([(a.id,) for a in self.atoms], [(b.a, b.b, b.order) for b in self.left])
        for atoms, bonds in parts:
            if not bonds:
                needs.append([frozenset(self.allowed_elements(label[atoms[0][0]]))])
                continue
            needs.append([
                frozenset(
                    (x, y, order)
                    for x in self.allowed_elements(label[a])
                    for y in self.allowed_elements(label[b])
                )
                for a, b, order in bonds
            ])
        return needs

    def joins_every_atom(self) -> bool:
        """True when the right side connects all the rule's atoms.

        Then an application to connected hosts, each given at least one
        pattern atom, makes one product: all the hosts' atoms.
        """
        bonds = [(b.a, b.b, b.order) for b in self.right]
        return len(component_specs([(a.id,) for a in self.atoms], bonds)) == 1


def reverse_rule(rule: Rule) -> Rule:
    """Swap the two sides; the atoms and classes are unchanged."""
    return replace(rule, name=f"{rule.name}-rev", left=rule.right, right=rule.left)


# ---------------------------------------------------------------------------
# Rule DSL

_CLASS_RE = re.compile(r"^classes:\s*(\w+)\s*=\s*\{([^}]*)\}$")


def parse_rules(text: str) -> list[Rule]:
    """Parse one or more rules from their text form.

    Grammar per rule: a ``rule <name>`` line, optional ``classes: X = {A, B}``
    lines, a ``left:`` section of atom/bond lines, optional ``context:`` and
    ``right:`` bond sections, and an optional bare ``reversible`` line.
    Atoms are declared once under ``left:`` and shared by all three sides.
    ``atom <id> <label>`` and ``bond <a> <b> <order>`` lines are read as
    MGF reads them (``molgraph.read_integer``, ``read_bond``), and an error
    names its line.  The text is split into rule blocks, and each block
    parses to one rule.
    Rule names must be distinct, also from the ``<name>-rev`` names that
    reversible rules give their reverses, because derivation records name
    the rule that made them.
    """
    rules: list[Rule] = []
    #: each rule name and reverse name taken so far, with its rule's line
    taken: dict[str, int] = {}
    for start, name, lines in _rule_blocks(text):
        rule = _parse_rule_block(start, name, lines)
        names = [rule.name] + ([reverse_rule(rule).name] if rule.reversible else [])
        for taken_name in names:
            if taken_name in taken:
                raise RuleError(
                    f"rule name {taken_name!r} is already taken by the rule on line "
                    f"{taken[taken_name]}",
                    start,
                )
        taken.update((n, start) for n in names)
        rules.append(rule)
    if not rules:
        raise RuleError("no rules found")
    return rules


def _rule_blocks(text: str) -> list[tuple[int, str, list[tuple[int, str]]]]:
    """Split rule text at its ``rule <name>`` lines: each block is its start
    line, its name and its other statements as (line number, line) pairs."""
    blocks: list[tuple[int, str, list[tuple[int, str]]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("rule "):
            blocks.append((ln, line[5:].strip(), []))
        elif not blocks:
            raise RuleError(f"statement outside any rule: {line!r}", ln)
        else:
            blocks[-1][2].append((ln, line))
    return blocks


def _parse_rule_block(start: int, name: str, lines: list[tuple[int, str]]) -> Rule:
    """One rule from the statements of its block.  A fault names its
    statement's line; a rule without atoms names ``start``, the line of its
    ``rule`` statement.  A class may not take the name of an element of
    ``PERIODIC_TABLE``, which it would re-label in the rule, and each
    context bond must be on both sides."""
    classes: dict[str, tuple[str, ...]] = {}
    #: each pattern atom by id, with its line
    atoms: dict[int, tuple[PatternAtom, int]] = {}
    bonds: dict[str, list[tuple[int, int, str]]] = {"left": [], "context": [], "right": []}
    bond_lines: dict[str, list[int]] = {"left": [], "context": [], "right": []}
    section: str | None = None
    reversible = False
    for ln, line in lines:
        m = _CLASS_RE.match(line)
        fields = line.split()
        if m:
            cls = m.group(1)
            elements = tuple(e.strip() for e in m.group(2).split(",") if e.strip())
            if cls in classes:
                raise RuleError(f"class {cls!r} declared twice", ln)
            if cls in PERIODIC_TABLE:
                raise RuleError(f"class {cls!r} of rule {name!r} is named like an element", ln)
            if not elements:
                raise RuleError(f"class {cls!r} of rule {name!r} is empty", ln)
            for el in elements:
                if el not in PERIODIC_TABLE:
                    raise RuleError(f"class {cls!r} lists unknown element {el!r}", ln)
            classes[cls] = elements
        elif line in ("left:", "context:", "right:"):
            section = line[:-1]
        elif line == "reversible":
            reversible = True
        elif fields[0] == "atom":
            if section != "left":
                raise RuleError("atoms must be declared in the left: section", ln)
            if len(fields) != 3:
                raise RuleError("atom line needs 'atom <id> <label>'", ln)
            aid = read_integer(fields[1])
            if aid is None:
                raise RuleError(f"bad atom id {fields[1]!r}", ln)
            if aid in atoms:
                raise RuleError("duplicate pattern atom id", ln)
            atoms[aid] = (PatternAtom(aid, fields[2]), ln)
        elif fields[0] == "bond":
            if section is None:
                raise RuleError("bond line outside left:/context:/right:", ln)
            bonds[section].append(read_bond(fields, ln, RuleError))
            bond_lines[section].append(ln)
        else:
            raise RuleError(f"unrecognized statement {line!r}", ln)
    if not atoms:
        raise RuleError(f"rule {name!r} declares no atoms", start)
    for atom, ln in atoms.values():
        if atom.label not in classes and atom.label not in PERIODIC_TABLE:
            raise RuleError(f"label {atom.label!r} in rule {name!r} is neither an element nor a class", ln)
    left, context, right = (
        check_bonds(bonds[side], atoms, RuleError, bond_lines[side])
        for side in ("left", "context", "right")
    )
    kept = set(left) & set(right)
    for (lo, hi, order), ln in zip(context, bond_lines["context"]):
        if (lo, hi, order) not in kept:
            raise RuleError(f"context bond {lo}-{hi} of rule {name!r} must appear on both sides", ln)
    left, right = (tuple(sorted(Bond(*b) for b in bonds[side])) for side in ("left", "right"))
    return Rule(name, tuple(sorted(atom for atom, _ in atoms.values())), left, right, classes, reversible)


def default_rules_text() -> str:
    return resources.files("hyperpath").joinpath("data/rules_default.dsl").read_text()


def load_default_rules() -> list[Rule]:
    return parse_rules(default_rules_text())


# ---------------------------------------------------------------------------
# Matching


class _Union:
    """Disjoint union of host molecules: the one numbering of a rewrite.

    Its atoms are numbered 0..n-1, host by host in ``hosts`` order and by atom
    id within a host: ``host_of[i]`` is the position in ``hosts`` of atom i's
    molecule, ``atoms[i]`` is ``(i, element, charge)``, and ``bonds`` maps
    each pair ``(i, j)`` with ``i < j`` to its bond order.  ``valence[i]`` is
    atom i's bond-order sum, and ``over_valence`` the atoms already past
    their ceiling; both are made on first use.  It keeps no host graph.
    """

    def __init__(self, hosts: tuple[MolecularGraph, ...]):
        self.host_of: list[int] = []
        self.atoms: list[tuple[int, str, int]] = []
        self.bonds: dict[tuple[int, int], str] = {}
        for copy, host in enumerate(hosts):
            local: dict[int, int] = {}  # the host's atom ids to table indices
            for atom in sorted(host.atoms, key=lambda a: a.id):
                i = local[atom.id] = len(self.atoms)
                self.host_of.append(copy)
                self.atoms.append((i, atom.element, atom.charge))
            for bond in host.bonds:
                i, j = local[bond.a], local[bond.b]
                self.bonds[(i, j) if i < j else (j, i)] = bond.order

    @functools.cached_property
    def valence(self) -> list[float]:
        valence = [0.0] * len(self.atoms)
        for (i, j), order in self.bonds.items():
            valence[i] += ORDER_VALUE[order]
            valence[j] += ORDER_VALUE[order]
        return valence

    @functools.cached_property
    def over_valence(self) -> list[int]:
        return [i for i, element, _ in self.atoms if _over_valence(element, self.valence[i])]

    @functools.cached_property
    def twin_class(self) -> list[int]:
        """Each atom's class of twins, numbered from 0 in table order: twins
        are atoms of one host with the same element, the same charge and the
        same neighbours by bond order.  No two twins are bonded, so any
        permutation of a class is an automorphism of the union."""
        neighbours: list[list[tuple[int, str]]] = [[] for _ in self.atoms]
        for (i, j), order in self.bonds.items():
            neighbours[i].append((j, order))
            neighbours[j].append((i, order))
        classes: dict[tuple, int] = {}
        return [
            classes.setdefault((self.host_of[i], element, charge, frozenset(neighbours[i])), len(classes))
            for i, element, charge in self.atoms
        ]


def _over_valence(element: str, valence: float) -> bool:
    cap = VALENCE_CAP.get(element)
    return cap is not None and valence > cap + 1e-9


@dataclass
class Match:
    """One embedding of a rule's left side: ``assignment`` maps each pattern
    atom id to an atom index of ``table``, the host table it was found in.
    Its reactants are the hosts given to ``find_matches``."""

    assignment: dict[int, int]
    class_binding: dict[str, str]
    table: _Union = field(repr=False, compare=False)


def _pattern_order(adj: dict[int, list[tuple[int, str]]], candidates: dict[int, list]) -> list[int]:
    # rarest label first, then greedily extend along pattern bonds so that each
    # later atom is checked against as many placed neighbors (``linked``) as
    # possible; each step takes the least (-linked, candidates, id) from a
    # heap.  A raised count pushes a new entry, which sorts before the atom's
    # older ones, so an entry whose atom is already placed is outdated.
    linked = dict.fromkeys(adj, 0)
    heap = [(0, len(candidates[pid]), pid) for pid in adj]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        best = heapq.heappop(heap)[2]
        if best not in linked:
            continue
        order.append(best)
        del linked[best]
        for u, _ in adj[best]:
            if u in linked:
                linked[u] += 1
                heapq.heappush(heap, (-linked[u], len(candidates[u]), u))
    return order


def find_matches(rule: Rule, hosts: tuple[MolecularGraph, ...]) -> list[Match]:
    """All injective label-compatible embeddings of the rule's left side.

    Pattern bonds must map onto host bonds with the same order token; extra
    host bonds between matched atoms are allowed.  Atoms sharing a class
    label bind one element consistently, and every host molecule of the
    multiset must receive at least one pattern atom.
    """
    union = _Union(hosts)
    # each pattern atom's label-compatible host atoms, in host table order
    candidates: dict[int, list[tuple[int, str]]] = {}
    for atom in rule.atoms:
        allowed = rule.allowed_elements(atom.label)
        candidates[atom.id] = [(i, el) for i, el, _ in union.atoms if el in allowed]
    adj = adjacency(rule.atoms, rule.left)
    order = _pattern_order(adj, candidates)
    atom_label = {a.id: a.label for a in rule.atoms}
    matches: list[Match] = []
    assignment: dict[int, int] = {}
    used: set[int] = set()
    binding: dict[str, str] = {}

    def extend(depth: int):
        if depth == len(order):
            if len({union.host_of[i] for i in assignment.values()}) == len(hosts):
                matches.append(Match(dict(assignment), dict(binding), union))
            return
        pid = order[depth]
        label = atom_label[pid]
        is_class = label in rule.label_classes
        bound = binding.get(label) if is_class else None
        placed_neighbors = [(assignment[u], o) for u, o in adj[pid] if u in assignment]
        for i, element in candidates[pid]:
            if i in used or (bound is not None and element != bound):
                continue
            ok = True
            for j, want in placed_neighbors:
                if union.bonds.get((i, j) if i < j else (j, i)) != want:
                    ok = False
                    break
            if not ok:
                continue
            assignment[pid] = i
            used.add(i)
            fresh_binding = is_class and label not in binding
            if fresh_binding:
                binding[label] = element
            extend(depth + 1)
            if fresh_binding:
                del binding[label]
            del assignment[pid]
            used.discard(i)

    extend(0)
    return matches


@dataclass(frozen=True)
class DerivationRecord:
    """Provenance of one reaction edge produced by a rule application."""

    rule: str
    class_binding: tuple[tuple[str, str], ...]
    reactant_keys: tuple[bytes, ...]
    product_keys: tuple[bytes, ...]


def apply_rule(
    rule: Rule,
    match: Match,
    admit: Callable[[MolecularGraph], bool] | None = None,
    *,
    max_element_counts: dict[str, int] | None = None,
) -> list[MolecularGraph]:
    """Rewrite the matched bonds, returning the product molecules.

    ``match`` comes from ``find_matches`` and fixes the rewrite: its table
    numbers the atoms rewritten.  Raises RuleApplicationError when the
    rewrite would create a parallel bond or push an atom past its valence
    ceiling, when a product holds more atoms of an element than
    ``max_element_counts`` allows, or when ``admit`` (a predicate on one
    product molecule) refuses a product.  These checks run cheapest first:
    bonds, valences and element caps on the rewritten integer tables, before
    any ``MolecularGraph`` is built; ``admit`` on the built products.  A
    refused application so costs no graph if a cap refuses it.  No key is
    computed: the network keys the products when it adds them.
    """
    union = match.table
    atoms = union.atoms
    bonds = dict(union.bonds)
    at = match.assignment
    # only matched atoms change bonds; bond-order sums of 1, 2, 3 and 1.5
    # are exact in binary, so updating the hosts' sums equals a recount
    valence = {i: union.valence[i] for i in at.values()}

    def edge(p: int, q: int) -> tuple[int, int]:
        i, j = at[p], at[q]
        return (i, j) if i < j else (j, i)

    for b in rule.left:
        key = edge(b.a, b.b)
        del bonds[key]
        valence[key[0]] -= ORDER_VALUE[b.order]
        valence[key[1]] -= ORDER_VALUE[b.order]
    for b in rule.right:
        key = edge(b.a, b.b)
        if key in bonds:
            raise RuleApplicationError(
                f"rule {rule.name!r} would create a parallel bond {key[0]}-{key[1]}"
            )
        bonds[key] = b.order
        valence[key[0]] += ORDER_VALUE[b.order]
        valence[key[1]] += ORDER_VALUE[b.order]
    over = [i for i in valence if _over_valence(atoms[i][1], valence[i])]
    over += [i for i in union.over_valence if i not in valence]
    if over:
        raise RuleApplicationError(
            f"rule {rule.name!r} would exceed the valence of {atoms[over[0]][1]} (atom {over[0]})"
        )

    parts = component_specs(atoms, [(i, j, order) for (i, j), order in bonds.items()])
    if max_element_counts:
        for part_atoms, _ in parts:
            counts = Counter(element for _, element, _ in part_atoms)
            for element, cap in max_element_counts.items():
                if counts[element] > cap:
                    raise RuleApplicationError(
                        f"rule {rule.name!r} gives a product with more than {cap} {element}"
                    )
    products = [_from_tables(a, b) for a, b in parts]
    if admit is not None and not all(admit(p) for p in products):
        raise RuleApplicationError(f"rule {rule.name!r} gives a product that is not admitted")
    return products


# ---------------------------------------------------------------------------
# Right-side admissibility predicates


def right_predicate_no_small_rings(g: MolecularGraph, max_forbidden_ring: int) -> bool:
    """True when ``g`` contains no cycle of length ``max_forbidden_ring`` or less.

    A bond lies on a cycle of length d + 1 when its far end is d bonds from
    its near end without it, so one breadth-first search per bond, cut off
    at depth ``max_forbidden_ring - 1`` or when it runs out of atoms, finds
    every forbidden cycle; no limit costs more than one search per bond.
    """
    adj = g.adjacency()
    for bond in g.bonds:
        seen = {bond.a}
        frontier = [bond.a]
        for _ in range(max_forbidden_ring - 1):
            if not frontier:
                break
            nxt = []
            for v in frontier:
                for u, _ in adj[v]:
                    if u in seen or (v == bond.a and u == bond.b):
                        continue
                    if u == bond.b:
                        return False
                    seen.add(u)
                    nxt.append(u)
            frontier = nxt
    return True


def right_predicate_no_cumulated_doubles(g: MolecularGraph) -> bool:
    """True when no atom of ``g`` carries two or more double/triple bonds."""
    adj = g.adjacency()
    for atom in g.atoms:
        high = sum(1 for _, order in adj[atom.id] if order in ("2", "3"))
        if high >= 2:
            return False
    return True


def right_predicate(name: str):
    """Look up a product filter by name, e.g. 'no-rings-le=3'."""
    if name == "no-cumulated-doubles":
        return right_predicate_no_cumulated_doubles
    if name.startswith("no-rings-le="):
        limit = read_integer(name.split("=", 1)[1])
        if limit is None:
            raise ValueError(f"bad ring size in filter {name!r}")
        return lambda g: right_predicate_no_small_rings(g, limit)
    raise ValueError(f"unknown product filter {name!r}")


# ---------------------------------------------------------------------------
# Network expansion


@dataclass(frozen=True)
class ExpansionConfig:
    """Seeds plus the knobs bounding a breadth-first expansion."""

    seed_molecules: tuple[MolecularGraph, ...] = ()
    max_iterations: int = 4
    max_element_counts: dict[str, int] | None = None
    right_predicates: tuple[str, ...] = ()


@dataclass
class ExpansionResult:
    """Expanded network plus per-edge provenance and per-iteration sizes:
    ``history`` holds one (molecules, reactions) pair per iteration run."""

    network: Hypergraph
    derivations: dict[int, list[DerivationRecord]]
    history: list[tuple[int, int]]
    reached_fixpoint: bool


def _directional_rules(rules: list[Rule]) -> list[Rule]:
    out = []
    for rule in rules:
        out.append(rule)
        if rule.reversible:
            out.append(reverse_rule(rule))
    return out


def _host_masks(graph: MolecularGraph, needs: list[list[list[frozenset]]]) -> tuple[int, ...]:
    """For each rule's ``Rule.part_needs``, the bit mask of the left-side
    parts that ``graph`` can hold: bit c is set when the graph meets every
    need of part c.  Its features are its elements and its bond kinds
    ``(element, element, order)``, each bond read both ways."""
    element = {a.id: a.element for a in graph.atoms}
    features: set = set(element.values())
    for b in graph.bonds:
        features.add((element[b.a], element[b.b], b.order))
        features.add((element[b.b], element[b.a], b.order))
    return tuple(
        sum(1 << c for c, part in enumerate(parts) if all(not need.isdisjoint(features) for need in part))
        for parts in needs
    )


def run_expansion(config: ExpansionConfig, rules: list[Rule]) -> ExpansionResult:
    """Breadth-first closure of the seed molecules under the rules.

    Each iteration applies every rule (both directions for reversible ones)
    to every multiset of current molecules that holds a molecule new since
    the last iteration (the others were tried then), sized from one up to
    the rule's left-side component count.  Products join the network only
    if every product of the application passes the element-count ceilings
    and the right-side predicates; newly found molecules become hosts in the
    next iteration.  Stops early once an iteration adds nothing.  Each seed
    must be one connected molecule, as every product is; ValueError names a
    seed that is not.

    Three skips leave the network, its records and its history as they
    would be without them:

    - A multiset is never matched when it has no match.  A match maps each
      connected part of the rule's left side into one host and touches
      every host, so each host must be able to hold some part, and each
      part must fit some host (``Rule.part_needs``, ``_host_masks``: a
      bit mask per vertex and rule, made once when the vertex joins).
    - A multiset is never matched when every application must break an
      element cap.  That holds when the rule's right side joins all its
      atoms (``Rule.joins_every_atom``): each host is connected and
      receives a pattern atom, so the one product holds all the hosts'
      atoms, and its element counts are the hosts' summed counts.  When a
      sum is over its cap, every match would be refused.  A rule whose
      right side is not connected is matched as before.
    - Of the matches that differ only by swaps of twin atoms
      (``_Union.twin_class``), only the first is applied.  A swap is an
      automorphism of the hosts, so each such match makes the same
      refusals, the same product vertices and the same record as the
      first.

    Within one task (a rule and a multiset), each admitted application adds
    its products to the network.  The first one of each product set (its
    product vertices, with multiplicity) adds the reaction and its record,
    which holds the sorted keys of the reactant and product vertices; a
    later one adds nothing.  ``admit`` and the element caps must depend
    only on a product's isomorphism class, as ring sizes and cumulated
    doubles do; then all applications of one product set are refused or
    none is, and the first kept one is the first one found.
    """
    predicates = [right_predicate(s) for s in config.right_predicates]

    def admit(graph: MolecularGraph) -> bool:
        return all(pred(graph) for pred in predicates)

    net = Hypergraph()
    for n, seed in enumerate(config.seed_molecules, start=1):
        bonds = [(b.a, b.b, b.order) for b in seed.bonds]
        parts = len(component_specs([(a.id,) for a in seed.atoms], bonds))
        if parts > 1:
            raise ValueError(f"seed {n} is not one molecule: its atoms form {parts} connected parts")
        net.add_molecule(seed)
    directional = _directional_rules(rules)
    caps = list((config.max_element_counts or {}).items())
    joins = [rule.joins_every_atom() for rule in directional]
    needs = [rule.part_needs() for rule in directional]
    #: each vertex's counts of the capped elements, by vertex id
    capped_counts: list[tuple[int, ...]] = []
    #: each vertex's ``_host_masks``, one per directional rule, by vertex id
    masks: list[tuple[int, ...]] = []
    derivations: dict[int, list[DerivationRecord]] = {}
    history: list[tuple[int, int]] = []
    reached_fixpoint = False
    tried_below = 0  # every multiset of the vertices below this id was tried

    def breaks_a_cap(combo: tuple[Vertex, ...]) -> bool:
        return any(
            sum(capped_counts[v.id][k] for v in combo) > cap for k, (_, cap) in enumerate(caps)
        )

    def holds_every_part(ri: int, combo: tuple[Vertex, ...]) -> bool:
        held = 0
        for v in combo:
            held |= masks[v.id][ri]
        return held == (1 << len(needs[ri])) - 1

    for _ in range(config.max_iterations):
        current: list[Vertex] = list(net.vertices)
        for vertex in current[len(capped_counts):]:
            counts = element_counts(vertex.graph)
            capped_counts.append(tuple(counts.get(element, 0) for element, _ in caps))
            masks.append(_host_masks(vertex.graph, needs))
        tasks: list[tuple[int, tuple[Vertex, ...]]] = []
        for ri, rule in enumerate(directional):
            hosts = [v for v in current if masks[v.id][ri]]
            for size in range(1, len(needs[ri]) + 1):
                for combo in combinations_with_replacement(hosts, size):
                    # the highest id comes last
                    if (
                        combo[-1].id >= tried_below
                        and holds_every_part(ri, combo)
                        and not (joins[ri] and breaks_a_cap(combo))
                    ):
                        tasks.append((ri, combo))
        tried_below = len(current)

        before = (len(net.vertices), len(net.edges))
        for ri, combo in tasks:
            rule = directional[ri]
            reactant_ids = dict(Counter(v.id for v in combo))
            reactant_keys = tuple(sorted(v.key for v in combo))
            seen: set[tuple[int, ...]] = set()
            orbits: set[tuple[int, ...]] = set()
            for match in find_matches(rule, tuple(v.graph for v in combo)):
                twin = match.table.twin_class
                orbit = tuple(twin[match.assignment[a.id]] for a in rule.atoms)
                if orbit in orbits:
                    continue
                orbits.add(orbit)
                try:
                    products = apply_rule(rule, match, admit, max_element_counts=config.max_element_counts)
                except RuleApplicationError:
                    continue
                product_ids = [net.add_molecule(p) for p in products]
                bag = tuple(sorted(product_ids))
                if bag in seen:
                    continue
                seen.add(bag)
                eid = net.add_reaction(reactant_ids, dict(Counter(product_ids)))
                record = DerivationRecord(
                    rule=rule.name,
                    class_binding=tuple(sorted(match.class_binding.items())),
                    reactant_keys=reactant_keys,
                    product_keys=tuple(sorted(net.vertices[i].key for i in bag)),
                )
                records = derivations.setdefault(eid, [])
                if record not in records:
                    records.append(record)
        history.append((len(net.vertices), len(net.edges)))
        if (len(net.vertices), len(net.edges)) == before:
            reached_fixpoint = True
            break

    return ExpansionResult(net, derivations, history, reached_fixpoint)
