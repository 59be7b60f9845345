"""Rule parsing, subgraph matching, rewriting, and network expansion."""
import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import molecules
from hyperpath import rewrite
from hyperpath.molgraph import (
    ORDER_VALUE,
    MolecularGraph,
    canonical_form,
    connected_components,
    element_counts,
    make_graph,
    parse_molecule,
)
from hyperpath.rewrite import (
    VALENCE_CAP,
    DerivationRecord,
    ExpansionConfig,
    PatternAtom,
    PatternBond,
    Rule,
    RuleApplicationError,
    RuleError,
    apply_rule,
    expand_network,
    find_matches,
    load_default_rules,
    parse_rule,
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
classes: Y = {C, N, O}
left:
  atom 0 X
  atom 1 Y
right:
  bond 0 1 1
"""

PROTON_SHIFT = """\
rule proton-shift
classes: X = {N, O}
classes: Y = {N, O}
left:
  atom 0 X
  atom 1 Y
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
    rule = parse_rule(NITRILE_ADDITION)
    assert rule.name == "nitrile-addition"
    assert not rule.reversible
    assert rule.label_classes == {}
    assert len(rule.atoms) == 4
    assert {(b.a, b.b, b.order) for b in rule.left} == {(0, 1, "3"), (2, 3, "1")}
    assert len(rule.right) == 3
    assert rule.context == ()


def test_parse_rule_classes_and_reversible():
    rule = parse_rule(PROTON_SHIFT)
    assert rule.reversible
    assert rule.label_classes == {"X": ("N", "O"), "Y": ("N", "O")}
    assert rule.allowed_elements("X") == ("N", "O")
    assert rule.allowed_elements("H") == ("H",)


def test_parse_multiple_rules():
    rules = parse_rules(NITRILE_ADDITION + "\n" + HH_BREAK)
    assert [r.name for r in rules] == ["nitrile-addition", "hh-break"]


def test_parse_rules_comments_and_blank_lines():
    text = "# leading comment\n\n" + HH_BREAK + "\n# trailing\n"
    assert parse_rule(text).name == "hh-break"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("left:\n  atom 0 C\n", "outside any rule"),
        ("rule x\nleft:\n", "no atoms"),
        ("rule x\nright:\n  atom 0 C\n", "left: section"),
        ("rule x\nleft:\n  atom 0 Qq\n", "neither an element nor a class"),
        ("rule x\nleft:\n  atom 0 C\n  bond 0 1 7\n", "bond order"),
        ("rule x\nleft:\n  atom 0 C\n  atom 0 O\n", "duplicate pattern atom id"),
        # each side's bonds are checked, not only the left side's
        ("rule x\nleft:\n  atom 0 C\ncontext:\n  bond 0 0 1\n", "bad bond endpoints 0-0"),
        ("rule x\nleft:\n  atom 0 C\nright:\n  bond 0 1 1\n", "bad bond endpoints 0-1"),
        (
            "rule x\nleft:\n  atom 0 C\n  atom 1 O\nright:\n  bond 0 1 1\n  bond 1 0 2\n",
            "parallel pattern bond 0-1",
        ),
        (
            "rule x\nleft:\n  atom 0 C\n  atom 1 C\ncontext:\n  bond 0 1 1\n",
            "both sides",
        ),
        ("rule x\nclasses: X = {C}\nclasses: X = {N}\nleft:\n  atom 0 X\n", "twice"),
        ("rule x\nclasses: X = {}\nleft:\n  atom 0 X\n", "empty"),
        ("rule x\nclasses: X = {C, Qq}\nleft:\n  atom 0 X\n", "unknown element"),
        # a class named like an element would re-label that element
        ("rule x\nclasses: C = {O}\nleft:\n  atom 0 C\n", "named like an element"),
        ("rule x\nleft:\n  widget 0\n", "unrecognized"),
        ("# nothing\n", "no rules"),
    ],
)
def test_parse_rule_errors(text, fragment):
    with pytest.raises(RuleError) as err:
        parse_rules(text)
    assert fragment in str(err.value)


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
    rule = parse_rule(NITRILE_ADDITION)
    rev = reverse_rule(rule)
    assert rev.name == "nitrile-addition-rev"
    assert rev.left == rule.right
    assert rev.right == rule.left
    assert rev.context == rule.context
    back = reverse_rule(rev)
    assert back.left == rule.left and back.right == rule.right


def test_pattern_component_count():
    atoms = tuple(PatternAtom(i, "C") for i in range(4))

    def left_side(atoms, *bonds):
        return Rule("r", atoms, tuple(PatternBond(*b) for b in bonds), (), ())

    chain = left_side(atoms, (0, 1, "1"), (1, 2, "1"), (2, 3, "2"))
    two_parts = left_side(atoms, (0, 3, "1"), (1, 2, "1"))
    one_isolated = left_side(atoms, (0, 1, "1"), (1, 2, "1"))
    assert chain.component_count() == 1
    assert two_parts.component_count() == 2
    assert one_isolated.component_count() == 2
    assert left_side(atoms[:1]).component_count() == 1


def test_default_rules_left_side_component_counts():
    # how many host molecules each directional default rule may join
    directional = rewrite._directional_rules(load_default_rules())
    assert [rule.component_count() for rule in directional] == [2, 1, 2, 1, 1, 1]


def test_find_matches_symmetry_count():
    rule = parse_rule(HH_BREAK)
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    found = find_matches(rule, (h2,))
    assert len(found) == 2
    assert helpers.count_matches_naive(rule, (h2,)) == 2


def test_find_matches_requires_exact_bond_order():
    rule = parse_rule(NITRILE_ADDITION)
    hcn = parse_molecule(molecules.HYDROGEN_CYANIDE_MGF)
    assert len(find_matches(rule, (hcn, molecules.water()))) == 2
    # an imine C=N must not match the triple-bond pattern
    imine = make_graph(
        [(0, "C"), (1, "N"), (2, "H"), (3, "H"), (4, "H")],
        [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 4, 1)],
    )
    assert find_matches(rule, (imine, molecules.water())) == []


def test_find_matches_every_host_is_touched():
    rule = parse_rule(PAIR_BOND)
    water = molecules.water()
    across = find_matches(rule, (water, water))
    # the two oxygens, one from each copy, in both orientations
    assert len(across) == 2
    for m in across:
        assert {m.table.host_of[i] for i in m.assignment.values()} == {0, 1}
    assert helpers.count_matches_naive(rule, (water, water)) == 2


def test_find_matches_single_host_pair_is_allowed():
    rule = parse_rule(PAIR_BOND)
    g = molecules.glycolonitrile()
    # only the two carbons share an element; the host bond between them
    # does not block the match because matching is not induced
    found = find_matches(rule, (g,))
    assert len(found) == helpers.count_matches_naive(rule, (g,)) == 2


def test_find_matches_one_class_binds_one_element():
    rule = parse_rule(PAIR_BOND)
    assert find_matches(rule, (molecules.water(), molecules.ammonia())) == []
    found = find_matches(rule, (molecules.water(), molecules.water()))
    assert len(found) == 2
    for m in found:
        assert m.class_binding == {"X": "O"}


def test_find_matches_independent_classes():
    rule = parse_rule(PROTON_SHIFT)
    found = find_matches(rule, (molecules.water(), molecules.ammonia()))
    # O donates either of 2 H to N, or N donates any of 3 H to O
    assert len(found) == 5
    for m in found:
        assert set(m.class_binding) == {"X", "Y"}
        assert m.class_binding["X"] != m.class_binding["Y"]
    assert len(found) == helpers.count_matches_naive(
        rule, (molecules.water(), molecules.ammonia())
    )


def test_find_matches_agrees_with_oracle_randomized():
    rng = random.Random(23)
    rules = [parse_rule(t) for t in (HH_BREAK, PAIR_BOND, PAIR_XY, PROTON_SHIFT)]
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
    rule = parse_rule(NITRILE_ADDITION)
    hcn = parse_molecule(molecules.HYDROGEN_CYANIDE_MGF)
    hosts = (hcn, molecules.water())
    products, record = apply_rule(rule, find_matches(rule, hosts)[0])
    assert len(products) == 1
    expected = make_graph(
        [(0, "C"), (1, "N"), (2, "O"), (3, "H"), (4, "H"), (5, "H")],
        [(0, 1, 2), (0, 2, 1), (1, 3, 1), (0, 4, 1), (2, 5, 1)],
    )
    assert helpers.are_isomorphic(products[0], expected)
    assert record.rule == "nitrile-addition"
    assert record.product_keys == (canonical_form(expected).key,)
    assert record.reactant_keys == tuple(sorted(canonical_form(h).key for h in hosts))


def test_apply_rule_refuses_a_product_before_keying_it():
    rule = parse_rule(NITRILE_ADDITION)
    hosts = (parse_molecule(molecules.HYDROGEN_CYANIDE_MGF), molecules.water())
    match = find_matches(rule, hosts)[0]
    misses = canonical_form.cache_info().misses
    with pytest.raises(RuleApplicationError):
        apply_rule(rule, match, admit=lambda p: False)
    assert canonical_form.cache_info().misses == misses


def test_apply_rule_refuses_an_over_cap_product_before_building_it(monkeypatch):
    rule = parse_rule(PAIR_BOND)
    hosts = (methyl(), methyl())
    match = find_matches(rule, hosts)[0]
    built = []
    check = MolecularGraph.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(MolecularGraph, "__post_init__", counted)
    with pytest.raises(RuleApplicationError):
        apply_rule(rule, match, max_element_counts={"C": 1})
    assert built == []
    products, _ = apply_rule(rule, match, max_element_counts={"C": 2})
    assert built == products and element_counts(products[0]) == {"C": 2, "H": 6}


def reference_apply_rule(rule, match, hosts, admit, caps):
    """A build-first reference for ``apply_rule``.

    Every product graph is built first, after a full recount of valences;
    only then are the caps and ``admit`` applied to it.  The reactant keys
    come from ``hosts``, the multiset given to ``find_matches``.  Returns the
    products and record, or the reason for a refusal.
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
    record = DerivationRecord(
        rule=rule.name,
        class_binding=tuple(sorted(match.class_binding.items())),
        reactant_keys=tuple(sorted(canonical_form(h).key for h in hosts)),
        product_keys=tuple(sorted(canonical_form(p).key for p in products)),
    )
    return products, record


def compare_with_reference(tried, caps, filters) -> Counter:
    """Apply every match of each (rule, hosts) both ways; count the outcomes."""
    predicates = [right_predicate(name) for name in filters]

    def admit(graph):
        return all(pred(graph) for pred in predicates)

    outcomes = Counter()
    for rule, hosts in tried:
        for match in find_matches(rule, hosts):
            expected = reference_apply_rule(rule, match, hosts, admit, caps)
            try:
                got = apply_rule(rule, match, admit, max_element_counts=caps)
            except RuleApplicationError:
                assert isinstance(expected, str), (rule.name, match.assignment)
                outcomes[expected] += 1
            else:
                assert got == expected, (rule.name, match.assignment)
                outcomes["kept"] += 1
    return outcomes


def test_apply_rule_refuses_exactly_where_the_build_first_reference_does(monkeypatch):
    # every (rule, host multiset) the first 4 iterations of criterion 8's
    # closure try, with every match of each
    caps = {"C": 2, "N": 4, "O": 4}
    filters = ("no-rings-le=3", "no-cumulated-doubles")
    tried = []
    find = rewrite.find_matches

    def recording(rule, hosts):
        tried.append((rule, hosts))
        return find(rule, hosts)

    monkeypatch.setattr(rewrite, "find_matches", recording)
    config = ExpansionConfig(
        (molecules.water(), molecules.glycolonitrile()),
        max_iterations=4,
        max_element_counts=caps,
        right_predicates=filters,
    )
    assert run_expansion(config, load_default_rules()).history[-1] == (17, 26)
    outcomes = compare_with_reference(tried, caps, filters)
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
    rules = [parse_rule(t) for t in (PAIR_BOND, PAIR_XY, RING_CLOSE, HH_BREAK)]
    tried = [(rule, (a,)) for rule in rules for a in hosts]
    tried += [(rule, (a, b)) for rule in rules[:2] for a in hosts for b in hosts]
    outcomes = compare_with_reference(tried, {"C": 2}, ("no-rings-le=3",))
    assert set(outcomes) == {"kept", "element cap", "filter", "parallel bond", "valence"}


def test_apply_rule_splits_components():
    rule = parse_rule(HH_BREAK)
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    products, _ = apply_rule(rule, find_matches(rule, (h2,))[0])
    assert len(products) == 2
    assert all(element_counts(p) == {"H": 1} for p in products)


def test_apply_rule_rejects_valence_overflow():
    rule = parse_rule(PAIR_BOND)
    hosts = (molecules.methane(), molecules.methane())
    found = find_matches(rule, hosts)
    assert found
    with pytest.raises(RuleApplicationError):
        apply_rule(rule, found[0])


def test_apply_rule_rejects_parallel_bond():
    rule = parse_rule(PAIR_BOND)
    ethane_core = make_graph(
        [(0, "C"), (1, "C"), (2, "H"), (3, "H")],
        [(0, 1, 1), (0, 2, 1), (1, 3, 1)],
    )
    found = find_matches(rule, (ethane_core,))
    assert found
    with pytest.raises(RuleApplicationError):
        apply_rule(rule, found[0])


def test_apply_rule_counts_aromatic_as_one_and_a_half():
    rule = parse_rule(PAIR_XY)
    chain = make_graph([(0, "C"), (1, "C"), (2, "C")], [(0, 1, "a"), (1, 2, "a")])
    oxygen = make_graph([(0, "O")])
    found = [
        m
        for m in find_matches(rule, (chain, oxygen))
        if 1 in m.assignment.values()  # the chain's atom 1, the middle carbon
    ]
    assert found
    # the middle carbon sits at 3.0; one more single bond is exactly 4.0
    products, _ = apply_rule(rule, found[0])
    assert len(products) == 1
    assert element_counts(products[0]) == {"C": 3, "O": 1}


def test_apply_rule_rejects_saturated_aromatic_carbon():
    rule = parse_rule(PAIR_XY)
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
    with pytest.raises(ValueError):
        right_predicate("no-rings-le=x")


def test_default_rules_load():
    rules = load_default_rules()
    assert len(rules) >= 3
    assert len({r.name for r in rules}) == len(rules)


def test_expansion_zero_iterations_keeps_seeds():
    config = ExpansionConfig(
        seed_molecules=(molecules.water(), molecules.ammonia()), max_iterations=0
    )
    result = run_expansion(config, [parse_rule(PROTON_SHIFT)])
    assert len(result.network.vertices) == 2
    assert result.network.edges == []
    assert result.history == []
    assert result.iterations_run == 0
    assert not result.reached_fixpoint


def test_expansion_reaches_fixpoint():
    # methane offers no N or O, so the proton shift can never fire
    config = ExpansionConfig(seed_molecules=(molecules.methane(),), max_iterations=5)
    result = run_expansion(config, [parse_rule(PROTON_SHIFT)])
    assert result.reached_fixpoint
    assert result.iterations_run == 1
    assert result.history == [(1, 0)]


def test_expansion_reversible_rule_links_edges():
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    config = ExpansionConfig(seed_molecules=(h2,), max_iterations=4)
    result = run_expansion(config, [parse_rule(H2_SPLIT)])
    net = result.network
    assert len(net.vertices) == 2  # the molecule and the lone atom
    assert len(net.edges) == 2
    assert net.edges[0].reverse_of == 1
    assert net.edges[1].reverse_of == 0
    assert net.edges[0].reactants != net.edges[1].reactants
    assert result.reached_fixpoint
    for edge in net.edges:
        records = result.derivations[edge.id]
        assert records and all(r.rule.startswith("hh-break") for r in records)


def test_expansion_element_caps_block_growth():
    uncapped = ExpansionConfig(seed_molecules=(methyl(),), max_iterations=1)
    grown = run_expansion(uncapped, [parse_rule(PAIR_BOND)])
    assert len(grown.network.vertices) == 2  # the C-C dimer appears
    capped = dataclasses.replace(uncapped, max_element_counts={"C": 1})
    result = run_expansion(capped, [parse_rule(PAIR_BOND)])
    assert len(result.network.vertices) == 1
    assert result.network.edges == []


def test_expansion_seeds_are_exempt_from_caps():
    config = ExpansionConfig(
        seed_molecules=(molecules.ethanol(),),
        max_iterations=1,
        max_element_counts={"C": 1},
    )
    result = run_expansion(config, [parse_rule(PROTON_SHIFT)])
    assert any(element_counts(v.graph).get("C", 0) == 2 for v in result.network.vertices)


def test_expansion_right_predicate_filters_products():
    open_config = ExpansionConfig(seed_molecules=(propane(),), max_iterations=1)
    open_result = run_expansion(open_config, [parse_rule(RING_CLOSE)])
    assert any(
        not right_predicate_no_small_rings(v.graph, 3)
        for v in open_result.network.vertices
    )
    blocked = dataclasses.replace(open_config, right_predicates=("no-rings-le=3",))
    blocked_result = run_expansion(blocked, [parse_rule(RING_CLOSE)])
    # the application also makes harmless H2, but one bad product vetoes it
    assert len(blocked_result.network.vertices) == 1
    assert blocked_result.network.edges == []


def test_expansion_stoichiometry_uses_multisets():
    h2 = make_graph([(0, "H"), (1, "H")], [(0, 1, 1)])
    config = ExpansionConfig(seed_molecules=(h2,), max_iterations=4)
    net = run_expansion(config, [parse_rule(H2_SPLIT)]).network
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
    first = expand_network(config, rules).to_json()
    second = expand_network(config, rules).to_json()
    assert first == second


def test_carbon_four_closure_history():
    # the closure of water and glycolonitrile with up to four carbons and the
    # product filters of criterion 8, 4 iterations
    config = ExpansionConfig(
        (molecules.water(), molecules.glycolonitrile()),
        max_iterations=4,
        max_element_counts={"C": 4, "N": 4, "O": 4},
        right_predicates=("no-rings-le=3", "no-cumulated-doubles"),
    )
    result = run_expansion(config, load_default_rules())
    assert result.history == [(4, 2), (17, 19), (57, 128), (175, 466)]
