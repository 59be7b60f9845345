"""Rule parsing, subgraph matching, rewriting, and network expansion."""
import dataclasses
import functools
import hashlib
import json
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import molecules
from hyperpath import molgraph, rewrite
from hyperpath.molgraph import (
    BOND_ORDERS,
    ORDER_VALUE,
    Bond,
    MgfError,
    MolecularGraph,
    canonical_form,
    connected_components,
    element_counts,
    make_graph,
    parse_molecule,
)
from hyperpath.rewrite import (
    VALENCE_CAP,
    ExpansionConfig,
    PatternAtom,
    Rule,
    RuleApplicationError,
    RuleError,
    apply_rule,
    find_matches,
    load_default_rules,
    parse_rules,
    reverse_rule,
    right_predicate,
    right_predicate_no_cumulated_doubles,
    right_predicate_no_small_rings,
    run_expansion,
)

NITRILE_ADDITION = """\
rule nitrile-addition
left:
  atom 0 C
  atom 1 N
  atom 2 O
  atom 3 H
  bond 0 1 3
  bond 2 3 1
right:
  bond 0 1 2
  bond 0 2 1
  bond 1 3 1
"""

HH_BREAK = """\
rule hh-break
left:
  atom 0 H
  atom 1 H
  bond 0 1 1
right:
"""

H2_SPLIT = HH_BREAK + "reversible\n"

PAIR_BOND = """\
rule pair-bond
classes: X = {C, N, O}
left:
  atom 0 X
  atom 1 X
right:
  bond 0 1 1
"""

PAIR_XY = """\
rule pair-xy
classes: X = {C, N, O}
classes: Z = {C, N, O}
left:
  atom 0 X
  atom 1 Z
right:
  bond 0 1 1
"""

PROTON_SHIFT = """\
rule proton-shift
classes: X = {N, O}
classes: Z = {N, O}
left:
  atom 0 X
  atom 1 Z
  atom 2 H
  bond 0 2 1
right:
  bond 1 2 1
reversible
"""

RING_CLOSE = """\
rule ring-close
left:
  atom 0 C
  atom 1 C
  atom 2 C
  atom 3 H
  atom 4 H
  bond 0 1 1
  bond 1 2 1
  bond 0 3 1
  bond 2 4 1
right:
  bond 0 1 1
  bond 1 2 1
  bond 0 2 1
  bond 3 4 1
"""


def methyl():
    return make_graph(
        [(0, "C"), (1, "H"), (2, "H"), (3, "H")],
        [(0, 1, 1), (0, 2, 1), (0, 3, 1)],
    )


def propane():
    return make_graph(
        [(0, "C"), (1, "C"), (2, "C")] + [(i, "H") for i in range(3, 11)],
        [(0, 1, 1), (1, 2, 1)]
        + [(0, i, 1) for i in (3, 4, 5)]
        + [(1, i, 1) for i in (6, 7)]
        + [(2, i, 1) for i in (8, 9, 10)],
    )


def test_parse_rule_fields():
    [rule] = parse_rules(NITRILE_ADDITION)
    assert rule.name == "nitrile-addition"
    assert not rule.reversible
    assert rule.label_classes == {}
    assert len(rule.atoms) == 4
    assert {(b.a, b.b, b.order) for b in rule.left} == {(0, 1, "3"), (2, 3, "1")}
    assert len(rule.right) == 3


def test_parse_rule_classes_and_reversible():
    [rule] = parse_rules(PROTON_SHIFT)
    assert rule.reversible
    assert rule.label_classes == {"X": ("N", "O"), "Z": ("N", "O")}
    assert rule.allowed_elements("X") == ("N", "O")
    assert rule.allowed_elements("H") == ("H",)


def test_parse_multiple_rules():
    rules = parse_rules(NITRILE_ADDITION + "\n" + HH_BREAK)
    assert [r.name for r in rules] == ["nitrile-addition", "hh-break"]


def test_parse_rules_comments_and_blank_lines():
    text = "# leading comment\n\n" + HH_BREAK + "\n# trailing\n"
    [rule] = parse_rules(text)
    assert rule.name == "hh-break"


#: rule texts with a fault: a fragment of its message and the line it names
RULE_FAULTS = [
    ("left:\n  atom 0 C\n", "outside any rule", 1),
    ("rule x\nleft:\n", "no atoms", 1),
    ("rule x\nright:\n  atom 0 C\n", "left: section", 3),
    ("rule x\nleft:\n  atom 0 Qq\n", "neither an element nor a class", 3),
    ("rule x\nleft:\n  atom 0 C\n  bond 0 1 7\n", "bond order", 4),
    ("rule x\nleft:\n  atom 0 C\n  atom 0 O\n", "duplicate pattern atom id", 4),
    # each side's bonds are checked, not only the left side's
    ("rule x\nleft:\n  atom 0 C\ncontext:\n  bond 0 0 1\n", "self bond on atom 0", 5),
    ("rule x\nleft:\n  atom 0 C\nright:\n  bond 0 1 1\n", "bond 0-1 references missing atom 1", 5),
    ("rule x\nleft:\n  atom 0 C\n  atom 1 O\nright:\n  bond 0 1 1\n  bond 1 0 2\n",
     "parallel bond 0-1", 7),
    ("rule x\nleft:\n  atom 0 C\n  atom 1 C\ncontext:\n  bond 0 1 1\n", "both sides", 6),
    ("rule x\nclasses: X = {C}\nclasses: X = {N}\nleft:\n  atom 0 X\n", "twice", 3),
    ("rule x\nclasses: X = {}\nleft:\n  atom 0 X\n", "empty", 2),
    ("rule x\nclasses: X = {C, Qq}\nleft:\n  atom 0 X\n", "unknown element", 2),
    # a class named like an element would re-label that element
    ("rule x\nclasses: C = {O}\nleft:\n  atom 0 C\n", "named like an element", 2),
    # so would any element's symbol, not only those of the valence table
    ("rule x\nclasses: B = {N}\nleft:\n  atom 0 B\n", "named like an element", 2),
    ("rule x\nleft:\n  widget 0\n", "unrecognized", 3),
    ("# nothing\n", "no rules", None),
    # ids are read as MGF reads them: ASCII digits, no leading zero, no sign
    ("rule x\nleft:\n  atom 1_0 C\n", "line 3: bad atom id '1_0'", 3),
    ("rule x\nleft:\n  atom \u0663 C\n", "line 3: bad atom id", 3),
    ("rule x\nleft:\n  atom 03 C\n", "line 3: bad atom id '03'", 3),
    ("rule x\nleft:\n  atom +0 C\n", "line 3: bad atom id '+0'", 3),
    ("rule x\nleft:\n  atom 0 C\n  atom 1 C\n  bond 0 01 1\n",
     "line 5: bond endpoints must be atom ids", 5),
    ("rule x\nleft:\n  atom 0 C\n  atom 1 C\nright:\n  bond -0 1 1\n",
     "line 6: bond endpoints must be atom ids", 6),
]


@pytest.mark.parametrize("text, fragment", [fault[:2] for fault in RULE_FAULTS])
def test_parse_rule_errors(text, fragment):
    with pytest.raises(RuleError) as err:
        parse_rules(text)
    assert fragment in str(err.value)
    # each fault names its own statement's line, as molecule text does;
    # only a fault of the rule as a whole names its ``rule`` line
    assert err.value.line == {t: line for t, _, line in RULE_FAULTS}[text]


@pytest.mark.parametrize(
    "bonds, message",
    [
        ([(0, 1, "4")], "bad bond order '4'"),
        ([(1, 1, "1")], "self bond on atom 1"),
        ([(2, 0, "1")], "bond 0-2 references missing atom 2"),
        ([(0, 1, "1"), (1, 0, "2")], "parallel bond 0-1"),
    ],
)
def test_bond_faults_read_alike_in_every_reader(bonds, message):
    # molgraph.check_bonds words each fault once for make_graph, molecule
    # text and each side of a rule; the text readers prefix a line
    statements = "".join(f"bond {a} {b} {order}\n" for a, b, order in bonds)
    with pytest.raises(ValueError) as made:
        make_graph([(0, "C"), (1, "C")], bonds)
    with pytest.raises(MgfError) as parsed:
        parse_molecule("atom 0 C\natom 1 C\n" + statements)
    with pytest.raises(RuleError) as ruled:
        parse_rules("rule x\nleft:\n  atom 0 C\n  atom 1 C\nright:\n" + statements)
    assert str(made.value) == message
    # a text reader's bond error names the faulty bond's own line, the last one
    assert str(parsed.value) == f"line {2 + len(bonds)}: {message}"
    assert str(ruled.value) == f"line {5 + len(bonds)}: {message}"


@pytest.mark.parametrize(
    "text, line, name",
    [
        # the same name twice
        (HH_BREAK + PAIR_BOND.replace("pair-bond", "hh-break"), 7, "hh-break"),
        # a rule named like the reverse of a reversible rule, in either order
        (H2_SPLIT + PAIR_BOND.replace("pair-bond", "hh-break-rev"), 8, "hh-break-rev"),
        (HH_BREAK.replace("hh-break", "hh-break-rev") + H2_SPLIT, 7, "hh-break-rev"),
    ],
)
def test_parse_rules_refuses_a_name_taken_twice(text, line, name):
    # derivation records name their rule, so two rules of one name would
    # be indistinguishable and expansion would merge their records
    with pytest.raises(RuleError) as err:
        parse_rules(text)
    assert err.value.line == line
    assert repr(name) in str(err.value) and "line 1" in str(err.value)


#: fragments of the rule language, some valid and some not, that the
#: generated texts are built from
RULE_TOKENS = [
    "rule", "r", "r-rev", "left:", "context:", "right:", "reversible", "classes:",
    "X", "=", "{C,", "N}", "{}", "atom", "bond", "0", "1", "2", "-1", "3", "a",
    "C", "H", "O", "Qq", "#", "x",
]


def token_lines(tokens):
    line = st.lists(st.sampled_from(tokens), max_size=6).map(" ".join)
    return st.lists(line, max_size=14).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(token_lines(RULE_TOKENS), st.text(max_size=200)))
def test_rule_text_parses_or_raises_rule_error(text):
    try:
        rules = parse_rules(text)
    except RuleError:
        return
    assert rules and all(isinstance(r, Rule) for r in rules)


def test_rule_error_carries_line_number():
    with pytest.raises(RuleError) as err:
        parse_rules("rule x\nleft:\n  atom 0 C\n  bond 0 1 9\n")
    assert err.value.line == 4


def test_reverse_rule_swaps_sides():
    [rule] = parse_rules(NITRILE_ADDITION)
    rev = reverse_rule(rule)
    assert rev.name == "nitrile-addition-rev"
    assert rev.left == rule.right
    assert rev.right == rule.left
    assert (rev.atoms, rev.label_classes) == (rule.atoms, rule.label_classes)
    back = reverse_rule(rev)
    assert back.left == rule.left and back.right == rule.right


def test_pattern_component_count():
    atoms = tuple(PatternAtom(i, "C") for i in range(4))

    def left_side(atoms, *bonds):
        return Rule("r", atoms, tuple(Bond(*b) for b in bonds), ())

    chain = left_side(atoms, (0, 1, "1"), (1, 2, "1"), (2, 3, "2"))
    two_parts = left_side(atoms, (0, 3, "1"), (1, 2, "1"))
    one_isolated = left_side(atoms, (0, 1, "1"), (1, 2, "1"))
    assert len(chain.part_needs()) == 1
    assert len(two_parts.part_needs()) == 2
    assert len(one_isolated.part_needs()) == 2
    assert len(left_side(atoms[:1]).part_needs()) == 1


def test_default_rules_left_side_component_counts():
    # how many host molecules each directional default rule may join
    directional = rewrite._directional_rules(load_default_rules())
    assert [len(rule.part_needs()) for rule in directional] == [2, 1, 2, 1, 1, 1]


def test_default_rules_right_sides_joining_every_atom():
    # an application of such a rule makes one product of all its hosts' atoms
    directional = rewrite._directional_rules(load_default_rules())
    assert [rule.joins_every_atom() for rule in directional] == [
        True, False, True, False, True, True
    ]
    [shift], [pair] = parse_rules(PROTON_SHIFT), parse_rules(PAIR_BOND)
    assert not shift.joins_every_atom()
    assert pair.joins_every_atom()


def test_find_matches_symmetry_count():
    [rule] = parse_rules(HH_BREAK)
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    found = find_matches(rule, (h2,))
    assert len(found) == 2
    assert helpers.count_matches_naive(rule, (h2,)) == 2


def test_find_matches_requires_exact_bond_order():
    [rule] = parse_rules(NITRILE_ADDITION)
    hcn = parse_molecule(molecules.HYDROGEN_CYANIDE_MGF)
    assert len(find_matches(rule, (hcn, molecules.water()))) == 2
    # an imine C=N must not match the triple-bond pattern
    imine = make_graph(
        [(0, "C"), (1, "N"), (2, "H"), (3, "H"), (4, "H")],
        [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 4, 1)],
    )
    assert find_matches(rule, (imine, molecules.water())) == []


def test_find_matches_every_host_is_touched():
    [rule] = parse_rules(PAIR_BOND)
    water = molecules.water()
    across = find_matches(rule, (water, water))
    # the two oxygens, one from each copy, in both orientations
    assert len(across) == 2
    for m in across:
        assert {m.table.host_of[i] for i in m.assignment.values()} == {0, 1}
    assert helpers.count_matches_naive(rule, (water, water)) == 2


def test_find_matches_single_host_pair_is_allowed():
    [rule] = parse_rules(PAIR_BOND)
    g = molecules.glycolonitrile()
    # only the two carbons share an element; the host bond between them
    # does not block the match because matching is not induced
    found = find_matches(rule, (g,))
    assert len(found) == helpers.count_matches_naive(rule, (g,)) == 2


def test_find_matches_one_class_binds_one_element():
    [rule] = parse_rules(PAIR_BOND)
    assert find_matches(rule, (molecules.water(), molecules.ammonia())) == []
    found = find_matches(rule, (molecules.water(), molecules.water()))
    assert len(found) == 2
    for m in found:
        assert m.class_binding == {"X": "O"}


def test_find_matches_independent_classes():
    [rule] = parse_rules(PROTON_SHIFT)
    found = find_matches(rule, (molecules.water(), molecules.ammonia()))
    # O donates either of 2 H to N, or N donates any of 3 H to O
    assert len(found) == 5
    for m in found:
        assert set(m.class_binding) == {"X", "Z"}
        assert m.class_binding["X"] != m.class_binding["Z"]
    assert len(found) == helpers.count_matches_naive(
        rule, (molecules.water(), molecules.ammonia())
    )


def test_twin_classes():
    # twins are atoms of one host with the same element, charge and
    # neighbours by bond order: methane's four hydrogens, and each water's
    # two, but not the two bonded hydrogens of H2
    methane = rewrite._Union((molecules.methane(),))
    assert sorted(Counter(methane.twin_class).values()) == [1, 4]
    assert len({methane.twin_class[i] for i, element, _ in methane.atoms if element == "H"}) == 1
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    assert rewrite._Union((h2,)).twin_class == [0, 1]
    water = molecules.water()
    assert rewrite._Union((water, water)).twin_class == [0, 1, 1, 2, 3, 3]


def test_expansion_applies_one_match_per_twin_orbit(monkeypatch):
    # HCN + water: the nitrile addition matches either hydrogen of water,
    # twins, so of the 2 matches only the first is applied; no other
    # multiset holds both parts of the rule's left side, so none is matched
    [rule] = parse_rules(NITRILE_ADDITION)
    hcn = parse_molecule(molecules.HYDROGEN_CYANIDE_MGF)
    tried = record_find_matches(monkeypatch)
    applied = record_apply_rule(monkeypatch)
    result = run_expansion(ExpansionConfig((hcn, molecules.water()), max_iterations=1), [rule])
    assert [hosts for _, hosts in tried] == [(hcn, molecules.water())]
    assert len(find_matches(rule, (hcn, molecules.water()))) == 2
    assert len(applied) == 1
    assert len(result.network.edges) == 1


def _pattern_order_by_scan(adj, candidates):
    """The greedy match order by one linear scan per step: the reference for
    ``rewrite._pattern_order``, which takes each step from a heap."""
    linked = dict.fromkeys(adj, 0)
    order = []
    while linked:
        best = min(linked, key=lambda pid: (-linked[pid], len(candidates[pid]), pid))
        order.append(best)
        del linked[best]
        for u, _ in adj[best]:
            if u in linked:
                linked[u] += 1
    return order


def test_pattern_order_agrees_with_a_linear_scan():
    # random left sides with sparse ids and few candidate counts, so that
    # ties in linked neighbours and in candidates are common
    rng = random.Random(32)
    for _ in range(3000):
        ids = sorted(rng.sample(range(40), rng.randint(1, 12)))
        density = rng.random()
        rule = Rule(
            "random",
            tuple(PatternAtom(i, rng.choice("CNOH")) for i in ids),
            tuple(
                Bond(a, b, rng.choice(BOND_ORDERS))
                for a, b in combinations(ids, 2)
                if rng.random() < density
            ),
            (),
        )
        adj = molgraph.adjacency(rule.atoms, rule.left)
        candidates = {pid: [None] * rng.randint(0, 4) for pid in adj}
        assert rewrite._pattern_order(adj, candidates) == _pattern_order_by_scan(adj, candidates)


def test_find_matches_agrees_with_oracle_randomized():
    rng = random.Random(23)
    rules = parse_rules(HH_BREAK + PAIR_BOND + PAIR_XY + PROTON_SHIFT)
    pool = [
        molecules.water(),
        molecules.ammonia(),
        molecules.methane(),
        parse_molecule(molecules.HYDROGEN_CYANIDE_MGF),
        parse_molecule(molecules.FORMALDEHYDE_MGF),
    ]
    for _ in range(30):
        rule = rng.choice(rules)
        hosts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        assert len(find_matches(rule, hosts)) == helpers.count_matches_naive(rule, hosts)


def test_apply_rule_nitrile_addition():
    [rule] = parse_rules(NITRILE_ADDITION)
    hcn = parse_molecule(molecules.HYDROGEN_CYANIDE_MGF)
    hosts = (hcn, molecules.water())
    products = apply_rule(rule, find_matches(rule, hosts)[0])
    assert len(products) == 1
    expected = make_graph(
        [(0, "C"), (1, "N"), (2, "O"), (3, "H"), (4, "H"), (5, "H")],
        [(0, 1, 2), (0, 2, 1), (1, 3, 1), (0, 4, 1), (2, 5, 1)],
    )
    assert helpers.are_isomorphic(products[0], expected)


def keyed() -> int:
    """Calls of the canonical key search so far, cache hits and misses."""
    info = molgraph._canonical_key.cache_info()
    return info.hits + info.misses


def test_apply_rule_computes_no_key():
    # neither an admitted application nor a refused one keys a graph: the
    # network keys the products when it adds them
    [rule] = parse_rules(NITRILE_ADDITION)
    hosts = (parse_molecule(molecules.HYDROGEN_CYANIDE_MGF), molecules.water())
    match = find_matches(rule, hosts)[0]
    before = keyed()
    with pytest.raises(RuleApplicationError):
        apply_rule(rule, match, admit=lambda p: False)
    assert keyed() == before
    assert len(apply_rule(rule, match, admit=lambda p: True)) == 1
    assert keyed() == before


def test_apply_rule_refuses_an_over_cap_product_before_building_it(monkeypatch):
    [rule] = parse_rules(PAIR_BOND)
    hosts = (methyl(), methyl())
    match = find_matches(rule, hosts)[0]
    built = []
    init = MolecularGraph.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(MolecularGraph, "__init__", counted)
    with pytest.raises(RuleApplicationError):
        apply_rule(rule, match, max_element_counts={"C": 1})
    assert built == []
    products = apply_rule(rule, match, max_element_counts={"C": 2})
    assert built == products and element_counts(products[0]) == {"C": 2, "H": 6}


def reference_apply_rule(rule, match, admit, caps):
    """A build-first reference for ``apply_rule``.

    Every product graph is built first, after a full recount of valences;
    only then are the caps and ``admit`` applied to it.  Returns the
    products, or the reason for a refusal.
    """
    union = match.table
    bonds = dict(union.bonds)

    def edge(p, q):
        i, j = match.assignment[p], match.assignment[q]
        return (min(i, j), max(i, j))

    for b in rule.left:
        del bonds[edge(b.a, b.b)]
    for b in rule.right:
        if edge(b.a, b.b) in bonds:
            return "parallel bond"
        bonds[edge(b.a, b.b)] = b.order
    valence = {i: 0.0 for i, _, _ in union.atoms}
    for (i, j), order in bonds.items():
        valence[i] += ORDER_VALUE[order]
        valence[j] += ORDER_VALUE[order]
    for i, element, _ in union.atoms:
        if element in VALENCE_CAP and valence[i] > VALENCE_CAP[element] + 1e-9:
            return "valence"
    graph = make_graph(union.atoms, [(i, j, o) for (i, j), o in bonds.items()])
    products = connected_components(graph)
    for p in products:
        counts = element_counts(p)
        if any(counts.get(el, 0) > cap for el, cap in caps.items()):
            return "element cap"
    if not all(admit(p) for p in products):
        return "filter"
    return products


def compare_with_reference(tried, caps, filters) -> Counter:
    """Apply every match of each (rule, hosts) both ways; count the outcomes."""
    predicates = [right_predicate(name) for name in filters]

    def admit(graph):
        return all(pred(graph) for pred in predicates)

    outcomes = Counter()
    for rule, hosts in tried:
        for match in find_matches(rule, hosts):
            expected = reference_apply_rule(rule, match, admit, caps)
            try:
                got = apply_rule(rule, match, admit, max_element_counts=caps)
            except RuleApplicationError:
                assert isinstance(expected, str), (rule.name, match.assignment)
                outcomes[expected] += 1
            else:
                assert got == expected, (rule.name, match.assignment)
                outcomes["kept"] += 1
    return outcomes


def record_find_matches(monkeypatch) -> list:
    """Every (rule, hosts) that ``run_expansion`` gives ``find_matches``."""
    tried = []
    find = rewrite.find_matches

    def recording(rule, hosts):
        tried.append((rule, hosts))
        return find(rule, hosts)

    monkeypatch.setattr(rewrite, "find_matches", recording)
    return tried


def record_apply_rule(monkeypatch) -> list:
    """The match of every ``apply_rule`` call that ``run_expansion`` makes."""
    applied = []
    apply = rewrite.apply_rule

    def recording(rule, match, *args, **kwargs):
        applied.append(match)
        return apply(rule, match, *args, **kwargs)

    monkeypatch.setattr(rewrite, "apply_rule", recording)
    return applied


def every_task(result, seeds, rules) -> list:
    """Each (rule, hosts) an expansion would try if it skipped none: per
    iteration, every multiset of the vertices it began with, sized up to the
    rule's left-side component count, that holds a vertex new since the
    iteration before."""
    directional = []
    for rule in rules:
        directional += [rule, reverse_rule(rule)] if rule.reversible else [rule]
    vertices = result.network.vertices
    starts = [len(seeds)] + [n for n, _ in result.history[:-1]]
    tasks = []
    for old, start in zip([0] + starts, starts):
        for rule in directional:
            for size in range(1, len(rule.part_needs()) + 1):
                for combo in combinations_with_replacement(vertices[:start], size):
                    if combo[-1].id >= old:
                        tasks.append((rule, tuple(v.graph for v in combo)))
    return tasks


def task_key(task):
    rule, hosts = task
    return (rule.name, tuple(canonical_form(h) for h in hosts))


def test_apply_rule_refuses_exactly_where_the_build_first_reference_does(monkeypatch):
    # every (rule, host multiset) the first 4 iterations of criterion 8's
    # closure would try without skipping any, with every match of each
    caps = {"C": 2, "N": 4, "O": 4}
    filters = ("no-rings-le=3", "no-cumulated-doubles")
    tried = record_find_matches(monkeypatch)
    seeds = (molecules.water(), molecules.glycolonitrile())
    config = ExpansionConfig(
        seeds, max_iterations=4, max_element_counts=caps, right_predicates=filters
    )
    rules = load_default_rules()
    result = run_expansion(config, rules)
    assert result.history[-1] == (17, 26)
    full = every_task(result, seeds, rules)
    # the tasks matched are the full list with some left out, in its order
    tried_keys = [task_key(t) for t in tried]
    assert [task_key(t) for t in full if task_key(t) in tried_keys] == tried_keys
    skipped = [t for t in full if task_key(t) not in tried_keys]
    assert (len(full), len(tried), len(skipped)) == (144, 33, 111)
    # a skipped multiset is one that a cap refuses in every match, or one
    # with no match
    skipped_outcomes = compare_with_reference(skipped, caps, filters)
    assert skipped_outcomes == {"element cap": 117}
    outcomes = compare_with_reference(tried, caps, filters) + skipped_outcomes
    assert set(outcomes) == {"kept", "element cap", "filter", "parallel bond"}


def test_apply_rule_matches_the_reference_on_bond_making_rules():
    # the default rules keep every atom's valence, so refusals for valence
    # come from rules that only make bonds; "overfull" holds a carbon already
    # past its ceiling, which refuses every application that includes it, also
    # where the match leaves that carbon alone
    overfull = make_graph([(0, "C"), (1, "C")] + [(i, "H") for i in range(2, 6)],
                          [(0, i, 1) for i in range(1, 6)])
    bare_cco = make_graph([(0, "C"), (1, "C"), (2, "O")], [(0, 1, 1), (1, 2, 1)])
    hosts = [methyl(), molecules.water(), molecules.ethanol(), molecules.benzene(),
             molecules.allene(), propane(), make_graph([(0, "O")]), bare_cco, overfull]
    rules = parse_rules(PAIR_BOND + PAIR_XY + RING_CLOSE + HH_BREAK)
    tried = [(rule, (a,)) for rule in rules for a in hosts]
    tried += [(rule, (a, b)) for rule in rules[:2] for a in hosts for b in hosts]
    outcomes = compare_with_reference(tried, {"C": 2}, ("no-rings-le=3",))
    assert set(outcomes) == {"kept", "element cap", "filter", "parallel bond", "valence"}


def test_apply_rule_splits_components():
    [rule] = parse_rules(HH_BREAK)
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    products = apply_rule(rule, find_matches(rule, (h2,))[0])
    assert len(products) == 2
    assert all(element_counts(p) == {"H": 1} for p in products)


def test_apply_rule_rejects_valence_overflow():
    [rule] = parse_rules(PAIR_BOND)
    hosts = (molecules.methane(), molecules.methane())
    found = find_matches(rule, hosts)
    assert found
    with pytest.raises(RuleApplicationError):
        apply_rule(rule, found[0])


def test_apply_rule_rejects_parallel_bond():
    [rule] = parse_rules(PAIR_BOND)
    ethane_core = make_graph(
        [(0, "C"), (1, "C"), (2, "H"), (3, "H")],
        [(0, 1, 1), (0, 2, 1), (1, 3, 1)],
    )
    found = find_matches(rule, (ethane_core,))
    assert found
    with pytest.raises(RuleApplicationError):
        apply_rule(rule, found[0])


def test_apply_rule_counts_aromatic_as_one_and_a_half():
    [rule] = parse_rules(PAIR_XY)
    chain = make_graph([(0, "C"), (1, "C"), (2, "C")], [(0, 1, "a"), (1, 2, "a")])
    oxygen = make_graph([(0, "O")])
    found = [
        m
        for m in find_matches(rule, (chain, oxygen))
        if 1 in m.assignment.values()  # the chain's atom 1, the middle carbon
    ]
    assert found
    # the middle carbon sits at 3.0; one more single bond is exactly 4.0
    products = apply_rule(rule, found[0])
    assert len(products) == 1
    assert element_counts(products[0]) == {"C": 3, "O": 1}


def test_apply_rule_rejects_saturated_aromatic_carbon():
    [rule] = parse_rules(PAIR_XY)
    hosts = (molecules.benzene(), make_graph([(0, "O")]))
    found = find_matches(rule, hosts)
    assert found
    for m in found:
        with pytest.raises(RuleApplicationError):
            apply_rule(rule, m)


def test_min_ring_predicates():
    assert not right_predicate_no_small_rings(molecules.cyclopropane(), 3)
    assert right_predicate_no_small_rings(molecules.cyclobutane(), 3)
    assert not right_predicate_no_small_rings(molecules.cyclobutane(), 4)
    assert right_predicate_no_small_rings(molecules.water(), 8)
    assert not right_predicate_no_small_rings(molecules.benzene(), 6)


@functools.lru_cache(maxsize=None)
def criterion_8_closure():
    config = ExpansionConfig(
        (molecules.water(), molecules.glycolonitrile()),
        max_iterations=11,
        max_element_counts={"C": 2, "N": 4, "O": 4},
        right_predicates=("no-rings-le=3", "no-cumulated-doubles"),
    )
    return run_expansion(config, load_default_rules())


def ring_corpus() -> list[MolecularGraph]:
    """The closure's molecules and 300 random carbon graphs of 1-9 atoms."""
    graphs = [v.graph for v in criterion_8_closure().network.vertices]
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        graphs.append(make_graph([(i, "C") for i in range(n)], [(a, b, 1) for a, b in pairs]))
    return graphs


def test_ring_predicate_agrees_with_networkx_girth():
    for g in ring_corpus():
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(a.id for a in g.atoms)
        nx_graph.add_edges_from((b.a, b.b) for b in g.bonds)
        girth = nx.girth(nx_graph)
        for limit in range(8):
            assert right_predicate_no_small_rings(g, limit) == (girth > limit), (g, limit)


def test_ring_predicate_search_stops_when_it_runs_out_of_atoms():
    # no cycle is longer than the atom count, so any larger limit reads the
    # same; a search that ran its full depth would not finish at 10**12
    for g in ring_corpus():
        expected = right_predicate_no_small_rings(g, len(g.atoms))
        assert right_predicate_no_small_rings(g, 10**12) == expected, g
        assert right_predicate("no-rings-le=1000000000000")(g) == expected, g


def test_make_graph_rebuilds_every_closure_molecule_unchanged():
    # products are built unchecked from the rewritten tables; make_graph,
    # given the same atoms and bonds in any order, checks and builds them
    rng = random.Random(8)
    for vertex in criterion_8_closure().network.vertices:
        g = vertex.graph
        atoms = [(a.id, a.element, a.charge) for a in g.atoms]
        bonds = [(b.b, b.a, b.order) if rng.random() < 0.5 else (b.a, b.b, b.order) for b in g.bonds]
        rng.shuffle(atoms)
        rng.shuffle(bonds)
        assert make_graph(atoms, bonds) == g


def test_expansion_keys_each_seed_and_product_once(monkeypatch):
    # criterion 8's closure: the network keys each seed and each product of
    # an admitted application as it adds it, and nothing else keys a graph
    returned = []
    apply = rewrite.apply_rule

    def counting(*args, **kwargs):
        products = apply(*args, **kwargs)
        returned.append(len(products))
        return products

    monkeypatch.setattr(rewrite, "apply_rule", counting)
    before = keyed()
    result = criterion_8_closure.__wrapped__()  # a fresh run, not the cached one
    assert result.history[-1] == (41, 116)
    assert keyed() - before == 2 + sum(returned) == 302  # 2 seeds


def test_records_carry_their_edges_vertex_keys():
    # every record of an edge names the edge's reactants and products by
    # their vertices' keys, each vertex as often as its multiplicity
    result = criterion_8_closure()
    net = result.network

    def keys(side: dict) -> tuple:
        return tuple(sorted(net.vertices[v].key for v, m in side.items() for _ in range(m)))

    assert set(result.derivations) == {e.id for e in net.edges}
    for edge in net.edges:
        for record in result.derivations[edge.id]:
            assert record.reactant_keys == keys(edge.reactants), edge.id
            assert record.product_keys == keys(edge.products), edge.id


def test_cumulated_double_predicate():
    assert not right_predicate_no_cumulated_doubles(molecules.allene())
    assert right_predicate_no_cumulated_doubles(molecules.butadiene())
    assert right_predicate_no_cumulated_doubles(molecules.water())
    ketene_core = make_graph(
        [(0, "C"), (1, "C"), (2, "O"), (3, "H"), (4, "H")],
        [(0, 1, 2), (1, 2, 2), (0, 3, 1), (0, 4, 1)],
    )
    assert not right_predicate_no_cumulated_doubles(ketene_core)


def test_right_predicate_dispatch():
    pred = right_predicate("no-rings-le=3")
    assert not pred(molecules.cyclopropane())
    assert pred(molecules.cyclobutane())
    assert right_predicate("no-cumulated-doubles") is right_predicate_no_cumulated_doubles
    with pytest.raises(ValueError):
        right_predicate("no-such-filter")
    # the ring size is read as an id is: ASCII digits, no leading zero, no sign
    for size in ("x", "-1", "+3", "03", "1_0", "\u0663"):
        with pytest.raises(ValueError, match="bad ring size"):
            right_predicate(f"no-rings-le={size}")


def test_default_rules_load():
    rules = load_default_rules()
    assert len(rules) >= 3
    assert len({r.name for r in rules}) == len(rules)


def test_expansion_zero_iterations_keeps_seeds():
    config = ExpansionConfig(
        seed_molecules=(molecules.water(), molecules.ammonia()), max_iterations=0
    )
    result = run_expansion(config, parse_rules(PROTON_SHIFT))
    assert len(result.network.vertices) == 2
    assert result.network.edges == []
    assert result.history == []
    assert len(result.history) == 0
    assert not result.reached_fixpoint


def test_expansion_reaches_fixpoint():
    # methane offers no N or O, so the proton shift can never fire
    config = ExpansionConfig(seed_molecules=(molecules.methane(),), max_iterations=5)
    result = run_expansion(config, parse_rules(PROTON_SHIFT))
    assert result.reached_fixpoint
    assert len(result.history) == 1
    assert result.history == [(1, 0)]


def test_expansion_reversible_rule_links_edges():
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    config = ExpansionConfig(seed_molecules=(h2,), max_iterations=4)
    result = run_expansion(config, parse_rules(H2_SPLIT))
    net = result.network
    assert len(net.vertices) == 2  # the molecule and the lone atom
    assert len(net.edges) == 2
    # the rule and its reverse make one edge each, with swapped bags
    assert (net.edges[1].reactants, net.edges[1].products) == (
        net.edges[0].products, net.edges[0].reactants)
    assert net.edges[0].reactants != net.edges[1].reactants
    assert result.reached_fixpoint
    for edge in net.edges:
        records = result.derivations[edge.id]
        assert records and all(r.rule.startswith("hh-break") for r in records)


def test_expansion_element_caps_block_growth():
    uncapped = ExpansionConfig(seed_molecules=(methyl(),), max_iterations=1)
    grown = run_expansion(uncapped, parse_rules(PAIR_BOND))
    assert len(grown.network.vertices) == 2  # the C-C dimer appears
    capped = dataclasses.replace(uncapped, max_element_counts={"C": 1})
    result = run_expansion(capped, parse_rules(PAIR_BOND))
    assert len(result.network.vertices) == 1
    assert result.network.edges == []


def test_expansion_never_matches_a_multiset_a_cap_refuses(monkeypatch):
    # the two methyls join into one product of 2 carbons, over a cap of 1
    tried = record_find_matches(monkeypatch)
    config = ExpansionConfig(
        seed_molecules=(methyl(),), max_iterations=1, max_element_counts={"C": 1}
    )
    run_expansion(config, parse_rules(PAIR_BOND))
    assert [len(hosts) for _, hosts in tried] == [1]
    tried.clear()
    run_expansion(dataclasses.replace(config, max_element_counts={"C": 2}), parse_rules(PAIR_BOND))
    assert [len(hosts) for _, hosts in tried] == [1, 2]


def test_expansion_matches_a_split_right_side_over_the_summed_caps(monkeypatch):
    # water gives a proton to a lone oxygen: the hosts hold 2 oxygens
    # together, over the cap of 1, but the right side leaves the donor apart,
    # so the products are two hydroxyls of 1 oxygen each
    tried = record_find_matches(monkeypatch)
    oxygen = make_graph([(0, "O")])
    config = ExpansionConfig(
        seed_molecules=(molecules.water(), oxygen),
        max_iterations=1,
        max_element_counts={"O": 1},
    )
    result = run_expansion(config, parse_rules(PROTON_SHIFT))
    assert any(hosts == (molecules.water(), oxygen) for _, hosts in tried)
    ids = {v.key: v.id for v in result.network.vertices}
    hydroxyl = ids.get(canonical_form(make_graph([(0, "O"), (1, "H")], [(0, 1, 1)])))
    assert hydroxyl is not None
    assert result.network.edges[0].reactants == {0: 1, 1: 1}
    assert result.network.edges[0].products == {hydroxyl: 2}


def test_expansion_skipping_cap_refused_multisets_changes_no_output(monkeypatch):
    # criterion 8's closure, with the skip and with every rule treated as
    # one whose right side may split, which matches every multiset
    config = ExpansionConfig(
        (molecules.water(), molecules.glycolonitrile()),
        max_iterations=11,
        max_element_counts={"C": 2, "N": 4, "O": 4},
        right_predicates=("no-rings-le=3", "no-cumulated-doubles"),
    )
    tried = record_find_matches(monkeypatch)
    skipping = run_expansion(config, load_default_rules())
    matched_when_skipping = len(tried)
    monkeypatch.setattr(Rule, "joins_every_atom", lambda self: False)
    tried.clear()
    full = run_expansion(config, load_default_rules())
    assert skipping.history == full.history and full.history[-1] == (41, 116)
    assert skipping.network.to_json() == full.network.to_json()
    assert skipping.derivations == full.derivations
    assert matched_when_skipping < len(tried)


@pytest.mark.parametrize("max_iterations, carbons", [(11, 2), (4, 4), (5, 4)])
def test_expansion_skipping_matchless_multisets_and_twin_matches_changes_no_output(
    monkeypatch, max_iterations, carbons
):
    # criterion 8's closure and the C <= 4 closure at 4 and 5 iterations,
    # with both skips and with every twin class distinct and every host mask
    # full, which matches every multiset the caps leave and applies every match
    config = ExpansionConfig(
        (molecules.water(), molecules.glycolonitrile()),
        max_iterations=max_iterations,
        max_element_counts={"C": carbons, "N": 4, "O": 4},
        right_predicates=("no-rings-le=3", "no-cumulated-doubles"),
    )
    tried = record_find_matches(monkeypatch)
    applied = record_apply_rule(monkeypatch)
    skipping = run_expansion(config, load_default_rules())
    counts_when_skipping = (len(tried), len(applied))
    monkeypatch.setattr(rewrite._Union, "twin_class", property(lambda self: list(range(len(self.atoms)))))
    monkeypatch.setattr(
        rewrite, "_host_masks", lambda graph, needs: tuple((1 << len(parts)) - 1 for parts in needs)
    )
    tried.clear()
    applied.clear()
    full = run_expansion(config, load_default_rules())
    assert skipping.history == full.history
    assert skipping.network.to_json() == full.network.to_json()
    assert skipping.derivations == full.derivations
    assert counts_when_skipping[0] < len(tried) and counts_when_skipping[1] < len(applied)


def test_expansion_seeds_are_exempt_from_caps():
    config = ExpansionConfig(
        seed_molecules=(molecules.ethanol(),),
        max_iterations=1,
        max_element_counts={"C": 1},
    )
    result = run_expansion(config, parse_rules(PROTON_SHIFT))
    assert any(element_counts(v.graph).get("C", 0) == 2 for v in result.network.vertices)


def test_expansion_right_predicate_filters_products():
    open_config = ExpansionConfig(seed_molecules=(propane(),), max_iterations=1)
    open_result = run_expansion(open_config, parse_rules(RING_CLOSE))
    assert any(
        not right_predicate_no_small_rings(v.graph, 3)
        for v in open_result.network.vertices
    )
    blocked = dataclasses.replace(open_config, right_predicates=("no-rings-le=3",))
    blocked_result = run_expansion(blocked, parse_rules(RING_CLOSE))
    # the application also makes harmless H2, but one bad product vetoes it
    assert len(blocked_result.network.vertices) == 1
    assert blocked_result.network.edges == []


def test_expansion_stoichiometry_uses_multisets():
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    config = ExpansionConfig(seed_molecules=(h2,), max_iterations=4)
    net = run_expansion(config, parse_rules(H2_SPLIT)).network
    split = next(e for e in net.edges if len(e.reactants) == 1 and 0 in e.reactants)
    atom_id = net.add_molecule(make_graph([(0, "H")]))
    assert split.reactants == {0: 1}
    assert split.products == {atom_id: 2}


def test_expansion_deterministic_across_runs():
    config = ExpansionConfig(
        seed_molecules=(molecules.water(), molecules.glycolonitrile()),
        max_iterations=2,
        max_element_counts={"C": 2, "N": 4, "O": 4},
        right_predicates=("no-rings-le=3", "no-cumulated-doubles"),
    )
    rules = load_default_rules()
    first = run_expansion(config, rules).network.to_json()
    second = run_expansion(config, rules).network.to_json()
    assert first == second


def test_carbon_four_closure_history():
    # the closure of water and glycolonitrile with up to four carbons and the
    # product filters of criterion 8, 5 iterations
    config = ExpansionConfig(
        (molecules.water(), molecules.glycolonitrile()),
        max_iterations=5,
        max_element_counts={"C": 4, "N": 4, "O": 4},
        right_predicates=("no-rings-le=3", "no-cumulated-doubles"),
    )
    result = run_expansion(config, load_default_rules())
    assert result.history == [(4, 2), (17, 19), (57, 128), (175, 466), (384, 1420)]


def _sha256(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _records(result) -> dict:
    return {
        str(eid): [
            [r.rule, [list(b) for b in r.class_binding], [k.hex() for k in r.reactant_keys],
             [k.hex() for k in r.product_keys]]
            for r in records
        ]
        for eid, records in result.derivations.items()
    }


def test_closure_keys_and_records_are_pinned():
    # canonical keys are in no written file, but the derivation records name
    # molecules by them, so a rewrite of the canonical search must keep every
    # key of these two closures or move the records pins; the network pins
    # guard the order of the vertices and edges an expansion writes
    carbon_four = run_expansion(
        ExpansionConfig(
            (molecules.water(), molecules.glycolonitrile()),
            max_iterations=4,
            max_element_counts={"C": 4, "N": 4, "O": 4},
            right_predicates=("no-rings-le=3", "no-cumulated-doubles"),
        ),
        load_default_rules(),
    )
    pins = {
        "criterion 8": (
            criterion_8_closure(),
            "36a68989c825304d567121098aedf3850837e85c07656a820b3954d244353645",
            "fbe779234cf21218db73332a149f63beab995bbf5e993d02137755a8d7db88f0",
        ),
        "C <= 4, 4 iterations": (
            carbon_four,
            "e0b71c6312513bca3e8d2f64be6b9b582996642ccb90796b5bac4e02b87029cf",
            "be45e0e1ff1d6cd7a7cf3c8f7ac50caa3c7c4728f3d40a7dae8bf949b79d2fdc",
        ),
    }
    for name, (result, network_sha, records_sha) in pins.items():
        assert _sha256(result.network.to_json()) == network_sha, name
        assert _sha256(_records(result)) == records_sha, name
