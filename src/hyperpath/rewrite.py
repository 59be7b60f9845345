"""Graph-rewriting rules and breadth-first network expansion.

A rule is a span L <- K -> R over one atom set: one tuple of pattern atoms
and three bond lists, the left, context (kept) and right bonds, parsed from
the rule DSL one ``rule`` block at a time.  Applying it to a multiset of
host molecules deletes the matched left-side bonds, adds the right-side
bonds, and keeps everything else.  Matches are injective and
label-compatible, map each connected pattern component into one host
molecule, and must touch every molecule of the multiset.  Expansion applies
all rules breadth-first over growing strata of molecules, recording every
successful application as a hyperedge.  An application is refused when a
product would break a valence ceiling or an element cap, both checked on the
rewritten integer tables before any product graph is built, or when a built
product fails a product filter (ring size, cumulated doubles).
"""
from __future__ import annotations

import functools
import re
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import combinations_with_replacement

from .molgraph import (
    BOND_ORDERS,
    ORDER_VALUE,
    PERIODIC_TABLE,
    MolecularGraph,
    canonical_form,
    component_specs,
    make_graph,
)
from .netcore import Hypergraph, Vertex

#: hard valence ceilings enforced on every rewritten molecule
VALENCE_CAP = {"C": 4, "N": 3, "O": 2, "H": 1}


class RuleError(ValueError):
    """Raised for malformed rule text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RuleApplicationError(Exception):
    """A match exists but rewriting it would produce an invalid molecule."""


@dataclass(frozen=True, order=True)
class PatternAtom:
    id: int
    label: str


@dataclass(frozen=True, order=True)
class PatternBond:
    a: int
    b: int
    order: str


def _bond_key(b: PatternBond) -> tuple[int, int, str]:
    lo, hi = (b.a, b.b) if b.a < b.b else (b.b, b.a)
    return (lo, hi, b.order)


@dataclass(frozen=True)
class Rule:
    """A span L <- K -> R over one atom set, plus element-class bindings.

    ``atoms`` serve all three sides; ``left``, ``context`` and ``right`` are
    each side's bonds, sorted.  Left bonds are matched and deleted, right
    bonds added, and context bonds, kept, are on both sides.  A class binds
    one of its elements per match.  It may not take the name of an element
    in ``VALENCE_CAP``, which it would re-label in the rule.
    """

    name: str
    atoms: tuple[PatternAtom, ...]
    left: tuple[PatternBond, ...]
    context: tuple[PatternBond, ...]
    right: tuple[PatternBond, ...]
    label_classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    reversible: bool = False

    def __post_init__(self):
        ids = {a.id for a in self.atoms}
        if len(ids) != len(self.atoms):
            raise ValueError("duplicate pattern atom id")
        for bonds in (self.left, self.context, self.right):
            pairs = set()
            for b in bonds:
                if b.order not in BOND_ORDERS:
                    raise ValueError(f"bad bond order {b.order!r}")
                if b.a == b.b or b.a not in ids or b.b not in ids:
                    raise ValueError(f"bad bond endpoints {b.a}-{b.b}")
                pair = _bond_key(b)[:2]
                if pair in pairs:
                    raise ValueError(f"parallel pattern bond {pair[0]}-{pair[1]}")
                pairs.add(pair)
        kept = {_bond_key(b) for b in self.left} & {_bond_key(b) for b in self.right}
        for b in self.context:
            if _bond_key(b) not in kept:
                raise ValueError(
                    f"context bond {b.a}-{b.b} of rule {self.name!r} must appear on both sides"
                )
        for cls, elements in self.label_classes.items():
            if cls in VALENCE_CAP:
                raise ValueError(f"class {cls!r} of rule {self.name!r} is named like an element")
            if not elements:
                raise ValueError(f"class {cls!r} of rule {self.name!r} is empty")
            for el in elements:
                if el not in PERIODIC_TABLE:
                    raise ValueError(f"class {cls!r} lists unknown element {el!r}")
        for atom in self.atoms:
            if atom.label not in self.label_classes and atom.label not in PERIODIC_TABLE:
                raise ValueError(
                    f"label {atom.label!r} in rule {self.name!r} is neither an element nor a class"
                )

    def allowed_elements(self, label: str) -> tuple[str, ...]:
        if label in self.label_classes:
            return self.label_classes[label]
        return (label,)

    def adjacency(self) -> dict[int, list[tuple[int, str]]]:
        """Each atom's neighbours on the left side, with the bond orders."""
        adj: dict[int, list[tuple[int, str]]] = {a.id: [] for a in self.atoms}
        for b in self.left:
            adj[b.a].append((b.b, b.order))
            adj[b.b].append((b.a, b.order))
        return adj

    def component_count(self) -> int:
        """Connected parts of the left side: the most hosts one match joins."""
        atoms = [(a.id,) for a in self.atoms]
        return len(component_specs(atoms, [(b.a, b.b, b.order) for b in self.left]))


def reverse_rule(rule: Rule) -> Rule:
    """Swap the two sides; the atoms, context and classes are unchanged."""
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
    The text is split into rule blocks, and each block parses to one rule.
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
    """One rule from the statements of its block; ``start`` is the line of
    its ``rule`` statement, which errors of the rule as a whole carry."""
    classes: dict[str, tuple[str, ...]] = {}
    atoms: list[PatternAtom] = []
    bonds: dict[str, list[PatternBond]] = {"left": [], "context": [], "right": []}
    section: str | None = None
    reversible = False
    for ln, line in lines:
        m = _CLASS_RE.match(line)
        fields = line.split()
        if m:
            if m.group(1) in classes:
                raise RuleError(f"class {m.group(1)!r} declared twice", ln)
            classes[m.group(1)] = tuple(e.strip() for e in m.group(2).split(",") if e.strip())
        elif line in ("left:", "context:", "right:"):
            section = line[:-1]
        elif line == "reversible":
            reversible = True
        elif fields[0] == "atom":
            if section != "left":
                raise RuleError("atoms must be declared in the left: section", ln)
            if len(fields) != 3:
                raise RuleError("atom line needs 'atom <id> <label>'", ln)
            try:
                atoms.append(PatternAtom(int(fields[1]), fields[2]))
            except ValueError:
                raise RuleError(f"bad atom id {fields[1]!r}", ln) from None
        elif fields[0] == "bond":
            if section is None:
                raise RuleError("bond line outside left:/context:/right:", ln)
            if len(fields) != 4:
                raise RuleError("bond line needs 'bond <id1> <id2> <order>'", ln)
            try:
                a, b = int(fields[1]), int(fields[2])
            except ValueError:
                raise RuleError("bond endpoints must be atom ids", ln) from None
            if fields[3] not in BOND_ORDERS:
                raise RuleError(f"bond order must be one of 1,2,3,a not {fields[3]!r}", ln)
            bonds[section].append(PatternBond(a, b, fields[3]))
        else:
            raise RuleError(f"unrecognized statement {line!r}", ln)
    if not atoms:
        raise RuleError(f"rule {name!r} declares no atoms", start)
    sides = (tuple(sorted(bonds[side])) for side in ("left", "context", "right"))
    try:
        return Rule(name, tuple(sorted(atoms)), *sides, classes, reversible)
    except ValueError as exc:
        raise RuleError(str(exc), start) from None


def parse_rule(text: str) -> Rule:
    rules = parse_rules(text)
    if len(rules) != 1:
        raise RuleError(f"expected a single rule, found {len(rules)}")
    return rules[0]


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
    their ceiling; both are made on first use.
    """

    def __init__(self, hosts: tuple[MolecularGraph, ...]):
        self.hosts = hosts
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


def _over_valence(element: str, valence: float) -> bool:
    cap = VALENCE_CAP.get(element)
    return cap is not None and valence > cap + 1e-9


@dataclass
class Match:
    """One embedding of a rule's left side: ``assignment`` maps each pattern
    atom id to an atom index of ``table``, the host table it was found in."""

    assignment: dict[int, int]
    class_binding: dict[str, str]
    table: _Union = field(repr=False, compare=False)


def _pattern_order(rule: Rule, candidates: dict[int, list]) -> list[int]:
    # rarest label first, then greedily extend along pattern bonds so that
    # each later atom is checked against as many placed neighbors as possible
    adj = rule.adjacency()
    remaining = {a.id for a in rule.atoms}
    order: list[int] = []
    placed: set[int] = set()
    while remaining:
        def rank(pid: int):
            linked = sum(1 for u, _ in adj[pid] if u in placed)
            return (-linked, len(candidates[pid]), pid)

        best = min(remaining, key=rank)
        order.append(best)
        placed.add(best)
        remaining.discard(best)
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
    order = _pattern_order(rule, candidates)
    adj = rule.adjacency()
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
) -> tuple[list[MolecularGraph], DerivationRecord]:
    """Rewrite the matched bonds, returning the product molecules.

    ``match`` comes from ``find_matches`` and fixes the rewrite: its table
    numbers the atoms rewritten, and the table's hosts are the reactants.
    Raises RuleApplicationError when the rewrite would create a parallel
    bond or push an atom past its valence ceiling, when a product holds
    more atoms of an element than ``max_element_counts`` allows, or when
    ``admit`` (a predicate on one product molecule) refuses a product.
    These checks run cheapest first: bonds, valences and element caps on
    the rewritten integer tables, before any ``MolecularGraph`` is built;
    ``admit`` on the built products, before any canonical key is computed.
    A refused application so costs no graph if a cap refuses it, and no key
    in any case.
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
    products = [make_graph(a, b) for a, b in parts]
    if admit is not None and not all(admit(p) for p in products):
        raise RuleApplicationError(f"rule {rule.name!r} gives a product that is not admitted")
    record = DerivationRecord(
        rule=rule.name,
        class_binding=tuple(sorted(match.class_binding.items())),
        reactant_keys=tuple(sorted(canonical_form(h).key for h in union.hosts)),
        product_keys=tuple(sorted(canonical_form(p).key for p in products)),
    )
    return products, record


# ---------------------------------------------------------------------------
# Right-side admissibility predicates


def _min_cycle_length(graph: MolecularGraph) -> int | None:
    adj = graph.adjacency()
    best: int | None = None
    for bond in graph.bonds:
        # shortest alternative path between the endpoints closes the
        # smallest cycle through this bond
        dist = {bond.a: 0}
        frontier = [bond.a]
        while frontier and bond.b not in dist:
            nxt = []
            for v in frontier:
                for u, _ in adj[v]:
                    if v == bond.a and u == bond.b:
                        continue
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        if bond.b in dist:
            cycle = dist[bond.b] + 1
            if best is None or cycle < best:
                best = cycle
    return best


def right_predicate_no_small_rings(g: MolecularGraph, max_forbidden_ring: int) -> bool:
    """True when ``g`` contains no cycle of length ``max_forbidden_ring`` or less."""
    cycle = _min_cycle_length(g)
    return cycle is None or cycle > max_forbidden_ring


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
        try:
            limit = int(name.split("=", 1)[1])
        except ValueError:
            raise ValueError(f"bad ring size in filter {name!r}") from None
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
    """Expanded network plus per-edge provenance and per-iteration sizes."""

    network: Hypergraph
    derivations: dict[int, list[DerivationRecord]]
    history: list[tuple[int, int]]
    reached_fixpoint: bool

    @property
    def iterations_run(self) -> int:
        return len(self.history)


def _directional_rules(rules: list[Rule]) -> list[Rule]:
    out = []
    for rule in rules:
        out.append(rule)
        if rule.reversible:
            out.append(reverse_rule(rule))
    return out


def _derive(
    rule: Rule,
    hosts: tuple[MolecularGraph, ...],
    admit: Callable[[MolecularGraph], bool],
    max_element_counts: dict[str, int] | None,
):
    """All distinct rewrites of one host multiset under one rule.

    ``admit`` and ``max_element_counts`` are passed to ``apply_rule``, which
    checks the caps on each product's atoms before it builds the product
    and ``admit`` on the built product.  Both must depend only on a
    product's isomorphism class, as element caps, ring sizes and cumulated
    doubles do; then a refused match never shares product keys with a kept
    one, and each set of product keys keeps the same first record.
    """
    outcomes = []
    seen: set[tuple[bytes, ...]] = set()
    for match in find_matches(rule, hosts):
        try:
            products, record = apply_rule(rule, match, admit, max_element_counts=max_element_counts)
        except RuleApplicationError:
            continue
        if record.product_keys in seen:
            continue
        seen.add(record.product_keys)
        outcomes.append((products, record))
    return outcomes


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
    derivations: dict[int, list[DerivationRecord]] = {}
    history: list[tuple[int, int]] = []
    reached_fixpoint = False
    tried_below = 0  # every multiset of the vertices below this id was tried

    for _ in range(config.max_iterations):
        current: list[Vertex] = list(net.vertices)
        tasks: list[tuple[int, tuple[Vertex, ...]]] = []
        for ri, rule in enumerate(directional):
            for size in range(1, rule.component_count() + 1):
                for combo in combinations_with_replacement(current, size):
                    if combo[-1].id >= tried_below:  # the highest id comes last
                        tasks.append((ri, combo))
        tried_below = len(current)

        before = (len(net.vertices), len(net.edges))
        for ri, combo in tasks:
            for products, record in _derive(
                directional[ri], tuple(v.graph for v in combo), admit, config.max_element_counts
            ):
                product_ids = Counter(net.add_molecule(p) for p in products)
                reactant_ids = Counter(v.id for v in combo)
                eid = net.add_reaction(dict(reactant_ids), dict(product_ids))
                derivations.setdefault(eid, [])
                if record not in derivations[eid]:
                    derivations[eid].append(record)
        history.append((len(net.vertices), len(net.edges)))
        if (len(net.vertices), len(net.edges)) == before:
            reached_fixpoint = True
            break

    return ExpansionResult(net, derivations, history, reached_fixpoint)


def expand_network(config: ExpansionConfig, rules: list[Rule]) -> Hypergraph:
    """Expand the configured seeds under the rules, returning the network."""
    return run_expansion(config, rules).network
