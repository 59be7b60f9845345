"""Each benchmark check passes a good answer and fails a corrupted one.

The good expansion answer is the committed paper-scale network; the good
ranked answers are worked out by hand on a three-edge network.
"""
import copy
import json
import random

import pytest

import checks
import inputs

# 0 -> 1 -> 2 in two steps (cheap barriers) or 0 -> 2 in one (expensive)
CHAIN = {
    "name": "chain",
    "n_vertices": 3,
    "edges": [({0: 1}, {1: 1}), ({1: 1}, {2: 1}), ({0: 1}, {2: 1})],
    "barriers": {0: 10.0, 1: 10.0, 2: 30.0},
    "sources": {0: (0, 1)},
    "targets": {2: (1, 1)},
    "byproducts": {},
    "flow_cap": 1,
    "total_inflow_max": None,
    "maximize_outflow": None,
    "k": 3,
}


def chain_answer():
    costs = checks.edge_costs(CHAIN["barriers"])
    two_step = {"edges": {"0": 1, "1": 1}, "in": {"0": 1}, "out": {"2": 1}}
    one_step = {"edges": {"2": 1}, "in": {"0": 1}, "out": {"2": 1}}
    ranks = sorted(
        [
            {"objective": costs[0] + costs[1], "support": [0, 1], "flow": two_step},
            {"objective": costs[2], "support": [2], "flow": one_step},
        ],
        key=lambda s: s["objective"],
    )
    return {"name": "chain", "solutions": ranks}


def test_ranked_check_passes_a_good_answer():
    assert checks.check_ranked(CHAIN, chain_answer()) == []


def corrupt_objective(answer):
    answer["solutions"][0]["objective"] += 1.0


def corrupt_conservation(answer):
    answer["solutions"][0]["flow"]["out"]["2"] = 0


def corrupt_order(answer):
    answer["solutions"].reverse()


def corrupt_comparable(answer):
    answer["solutions"][1] = copy.deepcopy(answer["solutions"][0])


def corrupt_early_stop(answer):
    answer["solutions"].pop()


def corrupt_support(answer):
    answer["solutions"][0]["support"] = [0]


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (corrupt_objective, "but its flow scores"),
        (corrupt_conservation, "does not conserve"),
        (corrupt_order, "improves on the rank before"),
        (corrupt_comparable, "are comparable"),
        (corrupt_early_stop, "HiGHS finds another"),
        (corrupt_support, "does not match its flow"),
    ],
)
def test_ranked_check_fails_a_corrupted_answer(corrupt, expected):
    answer = chain_answer()
    corrupt(answer)
    problems = checks.check_ranked(CHAIN, answer)
    assert any(expected in p for p in problems), problems


def test_ranked_check_compares_with_highs():
    # a consistent but suboptimal first rank: only HiGHS can tell
    answer = chain_answer()
    answer["solutions"] = answer["solutions"][::-1][:1]
    inst = dict(CHAIN, k=1)
    problems = checks.check_ranked(inst, answer)
    assert any("HiGHS" in p for p in problems)


def reference_answers():
    costs = checks.edge_costs(inputs.AMINO_BARRIERS_KJ)
    amino = [
        {"support": s, "objective": sum(costs[e] for e in s)} for s in inputs.AMINO_PATHWAYS.values()
    ]
    hydroxy = [{"support": s, "objective": 0.0} for s in inputs.HYDROXY_PATHWAYS.values()]
    return {"amino-table": {"solutions": amino}, "hydroxy-table": {"solutions": hydroxy}}


def test_reference_check():
    answers = reference_answers()
    assert checks.check_reference_tables(answers) == []
    answers["amino-table"]["solutions"][1]["objective"] += 100.0
    assert any("score(P2) - score(P1)" in p for p in checks.check_reference_tables(answers))
    answers = reference_answers()
    answers["hydroxy-table"]["solutions"].pop()
    assert any("pathway P6" in p for p in checks.check_reference_tables(answers))


def expansion_answer():
    data = inputs.load_paper_network()
    return {
        "history": data["history"],
        "molecules": data["molecules"],
        "reactions": [[{str(v): m for v, m in side} for side in r] for r in data["reactions"]],
    }


def test_expansion_check_passes_the_reference_network():
    assert checks.check_expansion(expansion_answer()) == []


def add_molecule(answer, mgf):
    answer["molecules"].append(mgf)
    answer["history"][-1][0] += 1


def corrupt_isomorphic(answer):
    add_molecule(answer, inputs.relabel_mgf(answer["molecules"][1], random.Random(3)))


def corrupt_balance(answer):
    products = answer["reactions"][0][1]
    key = next(iter(products))
    products[key] += 1


def corrupt_ring(answer):
    add_molecule(answer, "atom 0 C; atom 1 C; atom 2 O; bond 0 1 1; bond 1 2 1; bond 0 2 1\n")


def corrupt_cumulated(answer):
    add_molecule(answer, "atom 0 O; atom 1 C; atom 2 O; bond 0 1 2; bond 1 2 2\n")


def corrupt_element_cap(answer):
    add_molecule(answer, "atom 0 C; atom 1 C; atom 2 C; bond 0 1 1; bond 1 2 1\n")


def corrupt_valence(answer):
    add_molecule(answer, "atom 0 O; atom 1 H; atom 2 H; atom 3 H; bond 0 1 1; bond 0 2 1; bond 0 3 1\n")


def corrupt_history(answer):
    answer["history"][3] = [17, 25]


def corrupt_reaction_count(answer):
    answer["reactions"].pop()
    answer["history"][-1][1] -= 1


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (corrupt_isomorphic, "are isomorphic"),
        (corrupt_balance, "not mass-balanced"),
        (corrupt_ring, "has a ring of size 3"),
        (corrupt_cumulated, "cumulated double bonds"),
        (corrupt_element_cap, "3 C atoms, cap 2"),
        (corrupt_valence, "has valence 3"),
        (corrupt_history, "iteration 4 gave"),
        (corrupt_reaction_count, "the reference closure has 116"),
    ],
)
def test_expansion_check_fails_a_corrupted_answer(corrupt, expected):
    answer = json.loads(json.dumps(expansion_answer()))
    corrupt(answer)
    problems = checks.check_expansion(answer)
    assert any(expected in p for p in problems), problems
