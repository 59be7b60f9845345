"""Hypergraph construction, conservation checks, and serialization."""
import random

import pytest

import helpers
import molecules
import nets
from hyperpath.molgraph import canonical_form, make_graph
from hyperpath.netcore import MAX_MULTIPLICITY, Hypergraph


def test_add_molecule_deduplicates_isomorphs():
    net = Hypergraph()
    vid = net.add_molecule(molecules.water())
    assert vid == 0
    assert net.add_molecule(molecules.water()) == 0
    rng = random.Random(3)
    order = [2, 0, 1]
    assert net.add_molecule(helpers.relabeled(molecules.water(), order)) == 0
    assert net.add_molecule(molecules.ammonia()) == 1
    assert len(net.vertices) == 2
    assert rng is not None


def test_hypergraph_is_built_only_through_its_checked_inserts():
    # a network handed in whole would skip every check of add_molecule and
    # add_reaction
    with pytest.raises(TypeError):
        Hypergraph(vertices=[])
    net = Hypergraph()
    assert (net.vertices, net.edges) == ([], [])


def test_vertex_is_found_by_its_canonical_key():
    net = Hypergraph()
    net.add_molecule(molecules.water())
    ids = {v.key: v.id for v in net.vertices}
    assert ids.get(canonical_form(helpers.relabeled(molecules.water(), [1, 2, 0]))) == 0
    assert canonical_form(molecules.ammonia()) not in ids


def test_add_reaction_and_dedup():
    net = nets.placeholder_net(3, [])
    e0 = net.add_reaction({0: 1, 1: 1}, {2: 1})
    assert e0 == 0
    assert net.add_reaction({1: 1, 0: 1}, {2: 1}) == 0
    assert len(net.edges) == 1
    e1 = net.add_reaction({0: 2}, {2: 1})
    assert e1 == 1


def test_add_reaction_links_reverse():
    # an edge's reverse is the edge whose bags are swapped
    net = nets.placeholder_net(2, [])
    fwd = net.add_reaction({0: 1}, {1: 1})
    rev = net.add_reaction({1: 1}, {0: 1})
    assert rev != fwd
    assert (net.edges[rev].reactants, net.edges[rev].products) == (
        net.edges[fwd].products, net.edges[fwd].reactants)


def test_add_reaction_drops_zero_multiplicities():
    net = nets.placeholder_net(3, [])
    eid = net.add_reaction({0: 1, 1: 0}, {2: 1})
    assert net.edges[eid].reactants == {0: 1}


def test_add_reaction_validation():
    net = nets.placeholder_net(2, [])
    with pytest.raises(ValueError):
        net.add_reaction({}, {})
    with pytest.raises(ValueError):
        net.add_reaction({5: 1}, {0: 1})
    with pytest.raises(ValueError):
        net.add_reaction({0: -2}, {1: 1})


def test_self_loop_reaction_is_allowed():
    net = nets.placeholder_net(2, [])
    eid = net.add_reaction({0: 1}, {0: 1, 1: 1})
    edge = net.edges[eid]
    assert edge.reactants == {0: 1} and edge.products == {0: 1, 1: 1}
    # one unit of flow makes vertex 1 out of nothing net of vertex 0
    assert net.conservation_violations({eid: 1}) == {1: 1}
    assert not net.conservation_violations({eid: 1, ("out", 1): 1})


def test_conservation_on_flux_demo():
    net, _ = nets.flux_demo()
    flow = {0: 1, ("in", 0): 2, ("out", 3): 1}
    assert not net.conservation_violations(flow)
    assert net.conservation_violations(flow) == {}


def test_conservation_violation_values():
    net, _ = nets.flux_demo()
    violations = net.conservation_violations({0: 2})
    assert violations == {0: -4, 3: 2}


def test_conservation_ignores_zero_flow_edges():
    net, _ = nets.flux_demo()
    assert not net.conservation_violations({0: 0})
    assert not net.conservation_violations({})


def test_conservation_multiplicities_scale():
    net = nets.placeholder_net(2, [({0: 3}, {1: 2})])
    flow = {0: 2, ("in", 0): 6, ("out", 1): 4}
    assert not net.conservation_violations(flow)
    assert net.conservation_violations({0: 2, ("in", 0): 5, ("out", 1): 4}) == {0: -1}


def test_conservation_rejects_bad_references():
    net, _ = nets.flux_demo()
    with pytest.raises(ValueError):
        net.conservation_violations({99: 1})
    with pytest.raises(ValueError):
        net.conservation_violations({("in", 99): 1})
    with pytest.raises(ValueError):
        net.conservation_violations({0: -1})
    with pytest.raises(ValueError):
        net.conservation_violations({("sideways", 0): 1})
    with pytest.raises(ValueError):
        net.conservation_violations({("in", 0): -1})


def test_support_sorts_and_filters():
    assert Hypergraph.support({3: 1, 0: 2, 1: 0, ("in", 5): 4}) == [0, 3]


def test_reference_pathways_conserve():
    net1 = nets.amino_network()
    for name in nets.AMINO_PATHWAYS:
        assert not net1.conservation_violations(nets.amino_flow(name)), name
    net2 = nets.hydroxy_network()
    for name in nets.HYDROXY_PATHWAYS:
        assert not net2.conservation_violations(nets.hydroxy_flow(name)), name


def test_json_round_trip():
    net, _ = nets.cascade_network()
    data = net.to_json()
    back = Hypergraph.from_json(data)
    assert back.to_json() == data
    assert len(back.vertices) == len(net.vertices)
    # each of the cascade's 9 reversible steps comes back as two edges with
    # swapped bags
    bags = [(e.reactants, e.products) for e in back.edges]
    assert sum((products, reactants) in bags for reactants, products in bags) == 18


def test_json_round_trip_preserves_molecules():
    net = Hypergraph()
    net.add_molecule(molecules.glycolonitrile())
    net.add_molecule(molecules.water())
    net.add_reaction({0: 1, 1: 1}, {0: 1})
    back = Hypergraph.from_json(net.to_json())
    ids = {v.key: v.id for v in back.vertices}
    assert ids[canonical_form(molecules.glycolonitrile())] == 0
    assert ids[canonical_form(molecules.water())] == 1


def test_json_rejects_gapped_ids():
    net = Hypergraph()
    net.add_molecule(molecules.water())
    data = net.to_json()
    data["vertices"][0]["id"] = 5
    with pytest.raises(ValueError):
        Hypergraph.from_json(data)


def test_json_rejects_dangling_edge_reference():
    net = nets.placeholder_net(2, [({0: 1}, {1: 1})])
    data = net.to_json()
    data["edges"][0]["products"] = {"9": 1}
    with pytest.raises(ValueError):
        Hypergraph.from_json(data)


def test_json_rejects_a_repeated_molecule():
    net = Hypergraph()
    net.add_molecule(molecules.water())
    data = net.to_json()
    data["vertices"].append({**data["vertices"][0], "id": 1})
    with pytest.raises(ValueError, match="vertex 1 is vertex 0"):
        Hypergraph.from_json(data)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda edges: edges[2]["reactants"].update({"1": -2}), "edge 2: .* must be positive"),
        (lambda edges: edges.append({**edges[2], "id": 3}), "edge 3 is edge 2"),
    ],
    ids=["negative-multiplicity", "repeated-reaction"],
)
def test_json_rejects_malformed_edges(tamper, message):
    net = nets.placeholder_net(3, [({0: 1}, {1: 1}), ({1: 1}, {0: 1}), ({1: 1}, {2: 1})])
    data = net.to_json()
    assert Hypergraph.from_json(data).to_json() == data
    tamper(data["edges"])
    with pytest.raises(ValueError, match=message):
        Hypergraph.from_json(data)


def edge_side(value, key="1"):
    return lambda data: data["edges"][2].update(reactants={key: value})


@pytest.mark.parametrize(
    "tamper, message",
    [
        # values that used to be coerced: a string of digits, a fraction, a bool
        (edge_side("2"), "edge 2: multiplicity for vertex 1 must be positive"),
        (edge_side(1.7), "edge 2: multiplicity for vertex 1 must be positive"),
        (edge_side(True), "edge 2: multiplicity for vertex 1 must be positive"),
        # a zero used to be dropped, and there was no upper bound
        (edge_side(0), "edge 2: multiplicity for vertex 1 must be positive"),
        (edge_side(MAX_MULTIPLICITY + 1), "of at most 1000, not 1001"),
        (edge_side(10**400), "edge 2: multiplicity for vertex 1 must be positive"),
        # a vertex id is written one way only, so two keys cannot name one vertex
        (edge_side(1, key="01"), "edge 2: bad vertex id '01'"),
        (edge_side(1, key=" 1"), "edge 2: bad vertex id ' 1'"),
        # ids that equal the derived one only as Python numbers
        (lambda data: data["vertices"][1].update(id=True), "vertex True is vertex 1"),
        (lambda data: data["edges"][2].update(id=2.0), "edge 2.0 is edge 2"),
    ],
    ids=["string", "fraction", "bool", "zero", "above-cap", "huge", "leading-zero",
         "space", "bool-vertex-id", "float-edge-id"],
)
def test_json_takes_only_integer_multiplicities_and_plain_ids(tamper, message):
    net = nets.placeholder_net(3, [({0: 1}, {1: 1}), ({1: 1}, {0: 1}), ({1: 1}, {2: 1})])
    data = net.to_json()
    tamper(data)
    with pytest.raises(ValueError, match=message):
        Hypergraph.from_json(data)


def test_json_takes_multiplicities_up_to_the_cap():
    net = nets.placeholder_net(2, [({0: MAX_MULTIPLICITY}, {1: 1})])
    data = net.to_json()
    assert Hypergraph.from_json(data).to_json() == data
    assert net.to_dot().count("v0 -> e0") == MAX_MULTIPLICITY


def test_dot_output_structure():
    net, _ = nets.flux_demo()
    text = net.to_dot()
    assert text.startswith("digraph network {")
    assert text.rstrip().endswith("}")
    assert "v0 [shape=circle" in text
    assert "e0 [shape=square" in text
    # two units of reactant multiplicity give two parallel arrows
    assert text.count("v0 -> e0") == 2
    assert "penwidth" not in text


def test_dot_highlights_flow():
    net, _ = nets.flux_demo()
    text = net.to_dot({0: 1, ("in", 0): 2, ("out", 3): 1})
    assert "penwidth=3" in text
    assert "env_in_0" in text
    assert "env_out_3" in text
    assert 'label="2"' in text
    quiet = [line for line in text.splitlines() if "v1 -> e1" in line]
    assert quiet and all("penwidth" not in line for line in quiet)


def test_dot_formula_labels():
    net = Hypergraph()
    net.add_molecule(molecules.glycolonitrile())
    text = net.to_dot()
    assert "C2H3NO" in text


def test_placeholder_vertices_are_distinct():
    net = nets.placeholder_net(len(nets.PLACEHOLDER_ELEMENTS), [])
    assert len(net.vertices) == len(nets.PLACEHOLDER_ELEMENTS)


def test_flow_with_only_half_edges_checks_vertices():
    net, _ = nets.flux_demo()
    assert net.conservation_violations({("in", 0): 2}) == {0: 2}
    assert not net.conservation_violations({("in", 0): 2, ("out", 0): 2})


def test_json_shape_is_plain_data():
    import json

    net = nets.placeholder_net(2, [({0: 1}, {1: 1})])
    text = json.dumps(net.to_json(), sort_keys=True)
    assert json.loads(text) == net.to_json()
