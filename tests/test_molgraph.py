"""Molecule parsing, canonical keys, and graph utilities."""
import hashlib
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import molecules
from hyperpath.molgraph import (
    BOND_ORDERS,
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


def test_parse_water():
    g = parse_molecule(molecules.WATER_MGF)
    assert element_counts(g) == {"O": 1, "H": 2}
    assert len(g.bonds) == 2
    assert all(b.order == "1" for b in g.bonds)


def test_parse_semicolons_and_comments():
    g = parse_molecule(molecules.AMMONIA_MGF)
    assert element_counts(g) == {"N": 1, "H": 3}
    with_comment = "# header\n" + molecules.WATER_MGF + "# trailing\n"
    assert canonical_form(parse_molecule(with_comment)) == canonical_form(
        molecules.water()
    )


def test_parse_charge():
    g = parse_molecule("atom 0 O -1\natom 1 H\nbond 0 1 1\n")
    assert [(a.id, a.charge) for a in g.atoms] == [(0, -1), (1, 0)]


def test_serialize_round_trip():
    for text in (
        molecules.WATER_MGF,
        molecules.GLYCOLONITRILE_MGF,
        molecules.FORMALDEHYDE_MGF,
    ):
        g = parse_molecule(text)
        again = parse_molecule(serialize_molecule(g))
        assert canonical_form(g) == canonical_form(again)
        assert serialize_molecule(again) == serialize_molecule(g)


def test_serialize_keeps_charge():
    text = serialize_molecule(molecules.hydroxide())
    assert "atom 0 O -1" in text
    assert canonical_form(parse_molecule(text)) == canonical_form(molecules.hydroxide())


def test_parse_multi_document():
    text = molecules.WATER_MGF + "---\n" + molecules.AMMONIA_MGF
    graphs = parse_molecules(text)
    assert len(graphs) == 2
    assert element_counts(graphs[0]) == {"O": 1, "H": 2}
    assert element_counts(graphs[1]) == {"N": 1, "H": 3}


def test_parse_molecule_rejects_multi_document():
    with pytest.raises(MgfError):
        parse_molecule(molecules.WATER_MGF + "---\n" + molecules.AMMONIA_MGF)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("atom 0 Xx\n", "unknown element"),
        ("atom 0 C\natom 1 C\nbond 0 1 5\n", "bond order"),
        ("atom 0 C\natom 0 C\n", "duplicate atom id"),
        ("atom 0 C\nbond 0 1 1\n", "missing atom"),
        ("atom 0 C\nbond 0 0 1\n", "self bond"),
        ("atom 0 C\natom 1 C\nbond 0 1 1\nbond 1 0 2\n", "parallel bond"),
        ("bond 0 1 1\n", "no atoms"),
        ("atom 0 C\nfrobnicate 1\n", "unknown directive"),
        ("atom 0 C zz\n", "bad charge"),
        ("atom zz C\n", "bad atom id"),
        ("# only a comment\n", "no molecules"),
        # an id is ASCII digits without leading zeros or a sign, so no two
        # spellings name one atom; a charge may also take a sign
        ("atom 0 C\natom 1_0 C\n", "line 2: bad atom id '1_0'"),
        ("atom \u0663 C\n", "line 1: bad atom id"),
        ("atom 03 C\n", "line 1: bad atom id '03'"),
        ("atom -1 C\n", "line 1: bad atom id '-1'"),
        ("atom +1 C\n", "line 1: bad atom id '+1'"),
        ("atom 0 C\natom 1 C\nbond 0 01 1\n", "line 3: bond endpoints must be atom ids"),
        ("atom 0 C\natom 1 C\nbond 1_0 1 1\n", "line 3: bond endpoints must be atom ids"),
        ("atom 0 C\nbond 0 -1 1\n", "line 2: bond endpoints must be atom ids"),
        ("atom 0 C 1_0\n", "line 1: bad charge '1_0'"),
        ("atom 0 C \u0663\n", "line 1: bad charge"),
        ("atom 0 C 01\n", "line 1: bad charge '01'"),
        ("atom 0 C +-1\n", "line 1: bad charge '+-1'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(MgfError) as err:
        parse_molecules(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(MgfError) as err:
        parse_molecule("atom 0 C\natom 1 Xx\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    # a bond is checked against the others once every atom is known, and
    # still names its own line
    with pytest.raises(MgfError) as err:
        parse_molecule("atom 0 C\natom 1 C\nbond 0 1 1\nbond 1 0 2\natom 2 C\n")
    assert err.value.line == 4
    assert str(err.value) == "line 4: parallel bond 0-1"


@pytest.mark.parametrize("token, charge", [("+1", 1), ("-1", -1), ("1", 1), ("0", 0), ("-0", 0)])
def test_parse_reads_a_signed_charge(token, charge):
    g = parse_molecule(f"atom 0 N {token}\n")
    assert g.atoms[0].charge == charge


#: fragments of molecule text, some valid and some not, that the generated
#: texts are built from
MGF_TOKENS = [
    "atom", "bond", "---", ";", "#", "0", "1", "2", "-1", "+1", "3", "a", "1.5",
    "99999999999999999999", "C", "H", "O", "Xx", "zz",
]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.lists(st.sampled_from(MGF_TOKENS), max_size=6).map(" ".join), max_size=14)
        .map("\n".join),
        st.text(max_size=200),
    )
)
def test_molecule_text_parses_or_raises_mgf_error(text):
    try:
        graphs = parse_molecules(text)
    except MgfError:
        return
    assert graphs and all(isinstance(g, MolecularGraph) for g in graphs)


def test_make_graph_normalizes_bond_direction():
    a = make_graph([(0, "C"), (1, "O")], [(1, 0, 2)])
    b = make_graph([(0, "C"), (1, "O")], [(0, 1, 2)])
    assert a == b
    assert a.bonds[0].a == 0 and a.bonds[0].b == 1


def test_graph_validation():
    # each of make_graph's checks, with its message
    cases = [
        ([(0, "C"), (0, "C")], [], "duplicate atom id 0"),
        ([(0, "Zz")], [], "unknown element symbol 'Zz'"),
        ([(0, "C"), (1, "C")], [(0, 1, 4)], "bad bond order '4'"),
        ([(0, "C")], [(0, 0, 1)], "self bond on atom 0"),
        ([(0, "C")], [(1, 0, 1)], "bond 0-1 references a missing atom"),
        ([(0, "C"), (1, "C")], [(0, 1, 1), (1, 0, 2)], "parallel bond 0-1"),
    ]
    for atoms, bonds, message in cases:
        with pytest.raises(ValueError) as err:
            make_graph(atoms, bonds)
        assert str(err.value) == message


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(7)
    for g in (molecules.ethanol(), molecules.glycolonitrile(), molecules.benzene()):
        key = canonical_form(g)
        n = len(g.atoms)
        for _ in range(10):
            order = list(range(n))
            rng.shuffle(order)
            assert canonical_form(helpers.relabeled(g, order)) == key


def test_canonical_key_separates_constitutional_isomers():
    a = molecules.ethanol()
    b = molecules.dimethyl_ether()
    assert element_counts(a) == element_counts(b)
    assert canonical_form(a) != canonical_form(b)


def test_canonical_key_sees_charge():
    neutral = make_graph([(0, "O"), (1, "H")], [(0, 1, 1)])
    assert canonical_form(neutral) != canonical_form(molecules.hydroxide())


def test_canonical_key_sees_bond_order():
    single = make_graph([(0, "C"), (1, "O")], [(0, 1, 1)])
    double = make_graph([(0, "C"), (1, "O")], [(0, 1, 2)])
    aromatic = make_graph([(0, "C"), (1, "O")], [(0, 1, "a")])
    keys = {canonical_form(g) for g in (single, double, aromatic)}
    assert len(keys) == 3


def test_canonical_key_breaks_refinement_ties():
    # one hexagon versus two triangles: every atom looks identical to
    # plain color refinement, so only the branching search separates them
    hexagon = make_graph(
        [(i, "C") for i in range(6)], [(i, (i + 1) % 6, 1) for i in range(6)]
    )
    triangles = make_graph(
        [(i, "C") for i in range(6)],
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)],
    )
    assert not helpers.are_isomorphic(hexagon, triangles)
    assert canonical_form(hexagon) != canonical_form(triangles)


def test_canonical_key_when_a_refinement_cell_is_not_an_orbit():
    # two triangles joined by two two-bond bridges: refinement puts the
    # triangle tips and the bridge middles in one cell, yet no automorphism
    # maps one onto the other, so the search must try both kinds
    g = make_graph(
        [(i, "C") for i in range(8)],
        [(0, 3, 1), (0, 4, 1), (0, 5, 1), (1, 2, 1), (1, 4, 1), (1, 6, 1), (2, 6, 1),
         (3, 5, 1), (5, 7, 1), (6, 7, 1)],
    )
    rng = random.Random(5)
    for _ in range(20):
        order = list(range(8))
        rng.shuffle(order)
        assert canonical_form(helpers.relabeled(g, order)) == canonical_form(g)


def test_canonical_key_agrees_with_oracle():
    pool = [
        molecules.water(),
        molecules.ammonia(),
        molecules.methane(),
        molecules.allene(),
        molecules.cyclopropane(),
        parse_molecule(molecules.HYDROGEN_CYANIDE_MGF),
        parse_molecule(molecules.FORMALDEHYDE_MGF),
        make_graph([(0, "C"), (1, "C"), (2, "O")], [(0, 1, 1), (1, 2, 2)]),
        make_graph([(0, "C"), (1, "C"), (2, "O")], [(0, 1, 2), (1, 2, 1)]),
        make_graph([(0, "C"), (1, "C"), (2, "O")], [(0, 2, 1), (2, 1, 2)]),
    ]
    rng = random.Random(11)
    for g in list(pool):
        order = list(range(len(g.atoms)))
        rng.shuffle(order)
        pool.append(helpers.relabeled(g, order))
    for i, a in enumerate(pool):
        for b in pool[i:]:
            same_key = canonical_form(a) == canonical_form(b)
            assert same_key == helpers.are_isomorphic(a, b)


def _uniform(n, edges, order="1", element="C"):
    return make_graph([(i, element) for i in range(n)], [(a, b, order) for a, b in edges])


def _chain(n):
    return [(i, i + 1) for i in range(n - 1)]


def _ring(n):
    return _chain(n) + [(0, n - 1)]


def _cliques(sizes):
    edges, start = [], 0
    for size in sizes:
        edges += combinations(range(start, start + size), 2)
        start += size
    return start, edges


def _bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def _spider(arms, length):
    # a centre (atom 0) with ``arms`` chains of ``length`` atoms each
    edges = []
    for arm in range(arms):
        previous = 0
        for step in range(length):
            atom = 1 + arm * length + step
            edges.append((previous, atom))
            previous = atom
    return 1 + arms * length, edges


PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
    (5 + i, 5 + (i + 2) % 5) for i in range(5)
]
CUBE = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]


def _random_molecule(rng):
    n = rng.randint(1, 12)
    atoms = [(i, rng.choice("CCNOH"), rng.choice((-1, 0, 0, 0, 1))) for i in range(n)]
    density = rng.choice((0.15, 0.3, 0.5, 0.8))
    bonds = [
        (a, b, rng.choice(BOND_ORDERS))
        for a, b in combinations(range(n), 2)
        if rng.random() < density
    ]
    return make_graph(atoms, bonds)


def symmetric_corpus():
    """A fixed list of graphs rich in automorphisms, twins and ties.

    Cliques of every bond order, disjoint unions of cliques, K_{a,b},
    chains, rings, stars, spiders, the Petersen graph and the cube, and
    seeded random graphs with charges and every bond order.  Each graph is
    followed by a copy with sparse, shuffled atom ids, and by that copy
    built directly with its atoms out of id order.
    """
    graphs = [_uniform(n, combinations(range(n), 2), order)
              for n in range(1, 8) for order in BOND_ORDERS]
    for sizes in ((1, 1, 1), (2, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2), (4, 1, 1), (3, 2, 1), (4, 4)):
        graphs.append(_uniform(*_cliques(sizes), order="2"))
    graphs += [_uniform(*_bipartite(a, b)) for a in range(1, 5) for b in range(a, 5)]
    graphs += [_uniform(n, _chain(n)) for n in range(1, 11)]
    graphs += [_uniform(n, _ring(n), "a") for n in range(3, 11)]
    for k in range(1, 9):
        leaves = range(1, k + 1)
        graphs.append(make_graph([(0, "N")] + [(i, "H") for i in leaves], [(0, i, 1) for i in leaves]))
    graphs += [_uniform(*_spider(arms, length)) for arms in range(2, 5) for length in range(1, 4)]
    graphs += [_uniform(10, PETERSEN), _uniform(8, CUBE, "3")]
    rng = random.Random(2024)
    graphs += [_random_molecule(rng) for _ in range(400)]
    corpus = []
    for g in graphs:
        n = len(g.atoms)
        moved = helpers.relabeled(g, rng.sample(range(3 * n + 3), n))
        corpus += [g, moved, MolecularGraph(tuple(reversed(moved.atoms)), moved.bonds)]
    return corpus


def test_symmetric_corpus_keys_are_pinned():
    # canonical keys name the molecules of derivation records, though no
    # written file holds them; this corpus holds what closure molecules do
    # not: rings, charges, twin cliques and large twin cells
    keys = b"".join(canonical_form(g) + b"\n" for g in symmetric_corpus())
    assert hashlib.sha256(keys).hexdigest() == (
        "694a791519c5df3c49eb7a9b29ed146a21e10d3a8444e65d4614b6b4ee081185"
    )


@st.composite
def twin_rich_molecules(draw):
    """Small molecules grown by copying atoms with their bonds.

    Each copy is a twin of its original: unbonded, or bonded to it by any
    order.  Copies of copies make larger twin classes.
    """
    atoms = []
    bonds: dict[tuple[int, int], str] = {}
    for i in range(draw(st.integers(1, 4))):
        atoms.append((i, draw(st.sampled_from(("C", "N", "O"))), draw(st.integers(-1, 1))))
        for j in range(i):
            order = draw(st.sampled_from((None, None) + BOND_ORDERS))
            if order:
                bonds[(j, i)] = order
    for _ in range(draw(st.integers(0, 4))):
        copy = len(atoms)
        v = draw(st.integers(0, copy - 1))
        atoms.append((copy, atoms[v][1], atoms[v][2]))
        for (a, b), order in list(bonds.items()):
            if v in (a, b):
                bonds[(b if a == v else a, copy)] = order
        link = draw(st.sampled_from((None,) + BOND_ORDERS))
        if link:
            bonds[(v, copy)] = link
    return make_graph(atoms, [(a, b, order) for (a, b), order in bonds.items()])


def _networkx_isomorphic(a, b) -> bool:
    def as_nx(g):
        graph = nx.Graph()
        for atom in g.atoms:
            graph.add_node(atom.id, label=(atom.element, atom.charge))
        for bond in g.bonds:
            graph.add_edge(bond.a, bond.b, order=bond.order)
        return graph

    return nx.is_isomorphic(
        as_nx(a),
        as_nx(b),
        node_match=lambda x, y: x["label"] == y["label"],
        edge_match=lambda x, y: x["order"] == y["order"],
    )


@st.composite
def symmetric_molecules(draw):
    """Chains, rings, symmetric stars (spiders) and K_{a,b}.

    Most are one element and one bond order throughout, so that refinement
    leaves large cells; the others draw each atom's element and charge and
    each bond's order.
    """
    kind = draw(st.sampled_from(("chain", "ring", "star", "bipartite")))
    if kind == "chain":
        n = draw(st.integers(1, 10))
        edges = _chain(n)
    elif kind == "ring":
        n = draw(st.integers(3, 10))
        edges = _ring(n)
    elif kind == "star":
        n, edges = _spider(draw(st.integers(2, 5)), draw(st.integers(1, 3)))
    else:
        n, edges = _bipartite(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if draw(st.integers(0, 3)):
        return _uniform(n, edges, draw(st.sampled_from(BOND_ORDERS)))
    atoms = [(i, draw(st.sampled_from(("C", "N"))), draw(st.integers(-1, 1))) for i in range(n)]
    return make_graph(atoms, [(a, b, draw(st.sampled_from(BOND_ORDERS))) for a, b in edges])


def _check_key_against_networkx(g, data):
    """The key is invariant under relabeling, and two graphs share it exactly
    when networkx finds a labelled isomorphism between them."""
    n = len(g.atoms)

    def relabel(graph):
        return helpers.relabeled(graph, data.draw(st.permutations(range(n))))

    assert canonical_form(relabel(g)) == canonical_form(g)

    # a near miss: one bond re-ordered, dropped or added, often at a twin
    bonds = {(b.a, b.b): b.order for b in g.bonds}
    if n > 1:
        pair = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2))))
        order = data.draw(st.sampled_from((None,) + BOND_ORDERS))
        if order:
            bonds[pair] = order
        else:
            bonds.pop(pair, None)
    atoms = [(atom.id, atom.element, atom.charge) for atom in g.atoms]
    edited = relabel(make_graph(atoms, [(a, b, order) for (a, b), order in bonds.items()]))
    same_key = canonical_form(g) == canonical_form(edited)
    assert same_key == _networkx_isomorphic(g, edited)


@settings(max_examples=300, deadline=None)
@given(twin_rich_molecules(), st.data())
def test_canonical_key_on_twin_rich_molecules_agrees_with_networkx(g, data):
    # twin pruning, and twin cells split without refining, must keep keys
    # invariant and exact
    _check_key_against_networkx(g, data)


@settings(max_examples=300, deadline=None)
@given(symmetric_molecules(), st.data())
def test_canonical_key_on_symmetric_molecules_agrees_with_networkx(g, data):
    # chains, rings, stars and K_{a,b}: large cells that only branching
    # splits, some of them twin cells, some not
    _check_key_against_networkx(g, data)


def test_element_counts():
    assert element_counts(molecules.glycolonitrile()) == {
        "C": 2,
        "N": 1,
        "O": 1,
        "H": 3,
    }


def test_connected_components():
    two = make_graph(
        [(0, "O"), (1, "H"), (2, "H"), (5, "N"), (6, "H")],
        [(0, 1, 1), (0, 2, 1), (5, 6, 1)],
    )
    parts = connected_components(two)
    assert len(parts) == 2
    formulas = sorted(tuple(sorted(element_counts(p).items())) for p in parts)
    assert formulas == [
        (("H", 1), ("N", 1)),
        (("H", 2), ("O", 1)),
    ]


def test_connected_components_single():
    parts = connected_components(molecules.ethanol())
    assert len(parts) == 1
    assert canonical_form(parts[0]) == canonical_form(molecules.ethanol())


def test_graph_is_hashable_and_immutable():
    g = molecules.water()
    assert isinstance(hash(g), int)
    with pytest.raises(Exception):
        g.atoms = ()


def test_empty_graph_canonical_form():
    empty = MolecularGraph((), ())
    assert canonical_form(empty) == b"()"
