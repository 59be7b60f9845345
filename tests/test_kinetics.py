"""Barriers, selection probabilities and edge costs."""
import math
import random

import pytest

import nets
from hyperpath.kinetics import (
    CSV_HEADER,
    DEFAULT_TEMPERATURE,
    GAS_CONSTANT,
    Thermo,
    load_barriers,
    objective_coefficients,
    pathway_score,
    reaction_probability,
)
from hyperpath.molgraph import TextError


def test_thermo_defaults():
    t = Thermo()
    assert t.T == DEFAULT_TEMPERATURE == 298.15
    assert GAS_CONSTANT == 8.314462618
    assert t.rt == GAS_CONSTANT * t.T == pytest.approx(2478.957, rel=1e-6)


def test_thermo_validation():
    with pytest.raises(ValueError):
        Thermo(T=0)
    with pytest.raises(ValueError):
        Thermo(T=-10)
    with pytest.raises(Exception):
        Thermo().T = 300


@pytest.mark.parametrize("T", [math.inf, 1e308, math.nan])
def test_thermo_rejects_a_temperature_without_finite_rt(T):
    # at 1e308 K, T is finite but R*T overflows to inf
    with pytest.raises(ValueError, match="finite"):
        Thermo(T=T)


def test_reaction_probability_matches_direct_formula():
    barriers = {0: 10.0, 1: 20.0, 2: 30.0}
    t = Thermo()
    weights = [math.exp(-g / t.rt) for g in (10000.0, 20000.0, 30000.0)]
    for eid in range(3):
        expected = weights[eid] / sum(weights)
        assert reaction_probability(eid, barriers, t) == pytest.approx(expected, rel=1e-12)


def test_load_barriers_accepts_the_documented_range():
    net, _ = nets.flux_demo()
    text = CSV_HEADER + "\n0,10000\n1,-10000\n2,0\n"
    with pytest.warns(UserWarning):
        barriers = load_barriers(text, net)
    assert barriers == {0: 10000.0, 1: -10000.0, 2: 0.0}


def test_reaction_probabilities_sum_to_one():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 12)
        barriers = {i: rng.uniform(0.0, 150.0) for i in range(n)}
        total = sum(reaction_probability(i, barriers) for i in range(n))
        assert abs(total - 1.0) <= 1e-12


def test_probabilities_survive_extreme_barriers():
    # naive exp(-G/RT) underflows near 2000 kJ/mol; the shifted log-sum must not
    barriers = {i: 2000.0 for i in range(4)}
    for i in range(4):
        assert reaction_probability(i, barriers) == pytest.approx(0.25, rel=1e-12)


def test_load_barriers_happy_path():
    net, _ = nets.flux_demo()
    text = CSV_HEADER + "\n0,20\n1, 21.5\n2,0.001\n"
    assert load_barriers(text, net) == {0: 20.0, 1: 21.5, 2: 0.001}


@pytest.mark.parametrize("kj", [20.0, 1e-05, 1.5e-07, 9999.999999999998, 0.1, 1e4, 0.0])
def test_load_barriers_reads_what_repr_writes(kj):
    net, _ = nets.flux_demo()
    text = CSV_HEADER + f"\n0,{kj!r}\n1,.5\n2,+2.5E+1\n"
    assert load_barriers(text, net) == {0: kj, 1: 0.5, 2: 25.0}


def test_load_barriers_tolerates_blank_lines():
    net, _ = nets.flux_demo()
    text = CSV_HEADER + "\n\n0,20\n1,20\n\n2,20\n\n"
    assert load_barriers(text, net)[2] == 20.0


def test_load_barriers_rejects_wrong_header():
    net, _ = nets.flux_demo()
    # a missing or wrong header names line 1, as a bad row names its own
    for text in ("edge,barrier\n0,20\n1,20\n2,20\n", ""):
        with pytest.raises(TextError) as err:
            load_barriers(text, net)
        assert err.value.line == 1 and CSV_HEADER in str(err.value)


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("0,20,extra", "line 2"),
        ("zz,20", "bad edge id"),
        # an edge id is read as an MGF atom id: ASCII digits, no leading zero
        # or sign; a barrier is an ASCII decimal or exponent literal
        ("1_0,20", "line 2: bad edge id '1_0'"),
        ("\u0661,20", "line 2: bad edge id"),
        ("01,20", "line 2: bad edge id '01'"),
        ("+1,20", "line 2: bad edge id '+1'"),
        ("0,1_0.5", "line 2: bad barrier value '1_0.5'"),
        ("0,\u0663", "line 2: bad barrier value"),
        ("0,0x10", "line 2: bad barrier value '0x10'"),
        ("0,", "line 2: bad barrier value ''"),
        ("0,zz", "bad barrier value"),
        ("0,nan", "line 2: bad barrier value"),
        ("0,inf", "line 2: bad barrier value"),
        ("0,1e400", "line 2: bad barrier value"),
        ("0,1e12", "line 2: bad barrier value"),
        ("0,-10000.5", "line 2: bad barrier value"),
        ("9,20", "does not exist"),
    ],
)
def test_load_barriers_row_errors(row, fragment):
    net, _ = nets.flux_demo()
    with pytest.raises(ValueError) as err:
        load_barriers(CSV_HEADER + "\n" + row + "\n", net)
    assert fragment in str(err.value)


def test_load_barriers_rejects_duplicates():
    net, _ = nets.flux_demo()
    text = CSV_HEADER + "\n0,20\n0,21\n1,20\n2,20\n"
    with pytest.raises(ValueError) as err:
        load_barriers(text, net)
    assert "duplicate" in str(err.value)


def test_load_barriers_names_missing_edges():
    net, _ = nets.flux_demo()
    with pytest.raises(ValueError) as err:
        load_barriers(CSV_HEADER + "\n1,20\n", net)
    assert "[0, 2]" in str(err.value)


def test_load_barriers_warns_on_negative():
    net, _ = nets.flux_demo()
    text = CSV_HEADER + "\n0,-5\n1,20\n2,20\n"
    with pytest.warns(UserWarning):
        barriers = load_barriers(text, net)
    assert barriers[0] == -5.0


def test_objective_coefficients_zero_for_single_zero_barrier_edge():
    net = nets.placeholder_net(2, [({0: 1}, {1: 1})])
    assert objective_coefficients({0: 0.0}, Thermo(), net) == {0: 0.0}


def test_objective_coefficients_single_edge_cost_vanishes():
    net = nets.placeholder_net(2, [({0: 1}, {1: 1})])
    costs = objective_coefficients({0: 20.0}, Thermo(), net)
    # with one edge the probability is 1, so the cost collapses to zero
    assert costs[0] == pytest.approx(0.0, abs=1e-8)


def test_objective_coefficients_equal_barriers_cost_rt_log_m():
    m = 20
    # twenty distinct edges between two vertices, told apart by multiplicity
    reactions = [({0: 1}, {1: i + 1}) for i in range(m)]
    net = nets.placeholder_net(2, reactions)
    barriers = nets.uniform_barriers(net, 20.0)
    t = Thermo()
    costs = objective_coefficients(barriers, t, net)
    expected = t.rt * math.log(m)
    for eid in range(m):
        assert costs[eid] == pytest.approx(expected, rel=1e-12)


def test_objective_coefficients_equal_negative_log_probability():
    net, _ = nets.cascade_network()
    rng = random.Random(17)
    barriers = {e.id: rng.uniform(0.0, 120.0) for e in net.edges}
    t = Thermo()
    costs = objective_coefficients(barriers, t, net)
    for e in net.edges:
        p = reaction_probability(e.id, barriers, t)
        assert costs[e.id] == pytest.approx(-t.rt * math.log(p), rel=1e-9)


def test_objective_coefficients_never_negative():
    rng = random.Random(29)
    for _ in range(10):
        net, barriers, _ = nets.random_instance(rng)
        barriers = {e: b - 60.0 for e, b in barriers.items()}
        costs = objective_coefficients(barriers, Thermo(), net)
        assert all(c >= 0.0 for c in costs.values())


def test_objective_coefficients_validate_coverage():
    net, _ = nets.flux_demo()
    with pytest.raises(ValueError) as err:
        objective_coefficients({0: 20.0}, Thermo(), net)
    assert "missing edges [1, 2]" in str(err.value)
    empty = nets.placeholder_net(2, [])
    with pytest.raises(ValueError):
        objective_coefficients({}, Thermo(), empty)


def test_objective_logd_finite_at_uniform_500():
    net, _ = nets.cascade_network()
    costs = objective_coefficients(nets.uniform_barriers(net, 500.0), Thermo(), net)
    expected = Thermo().rt * math.log(len(net.edges))
    for c in costs.values():
        assert c == pytest.approx(expected, rel=1e-9)


def test_pathway_score_weights_integer_keys_only():
    costs = {0: 100.0, 1: 250.0, 2: 7.0}
    flow = {0: 2, 1: 1, 2: 0, ("in", 4): 9, ("out", 5): 3}
    assert pathway_score(flow, costs) == 450.0


def test_pathway_score_ignores_zero_even_if_unknown():
    costs = {0: 100.0}
    assert pathway_score({0: 1, 99: 0}, costs) == 100.0
    with pytest.raises(KeyError):
        pathway_score({99: 1}, costs)


def test_pathway_score_difference_on_reference_pathways():
    net = nets.amino_network()
    costs = objective_coefficients(nets.AMINO_BARRIERS_KJ, Thermo(), net)
    p1 = pathway_score(nets.amino_flow("P1"), costs)
    p2 = pathway_score(nets.amino_flow("P2"), costs)
    assert (p2 - p1) / 1000.0 == pytest.approx(71.28, abs=0.01)
