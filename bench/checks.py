"""Checks that judge the program's answers without the program's help.

Ranked answers are compared with scipy's HiGHS ``milp`` on an integer
program this module formulates itself from the edges, the query and the
cuts of the earlier ranks, and with edge costs it computes itself.
Expansion answers are judged with networkx isomorphism and cycles and with
element counts read from the molecule text by the benchmark's own reader.
Every check returns a list of problems; an empty list means the answer
passed.  Nothing here imports ``hyperpath``.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

import inputs

GAS_CONSTANT = 8.314462618  # J/(mol K)
TEMPERATURE = 298.15  # K
OBJECTIVE_RTOL = 1e-6


# ---------------------------------------------------------------------------
# Ranked pathway answers


def edge_costs(barriers_kj: dict[int, float]) -> dict[int, float]:
    """c_e = G_e + RT ln sum_f exp(-G_f/RT) in J/mol, floored at zero."""
    rt = GAS_CONSTANT * TEMPERATURE
    g = {e: kj * 1000.0 for e, kj in barriers_kj.items()}
    shift = max(-x / rt for x in g.values())
    log_d = shift + math.log(math.fsum(math.exp(-x / rt - shift) for x in g.values()))
    return {e: max(0.0, x + rt * log_d) for e, x in g.items()}


def as_flow(solution: dict) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    flow = solution["flow"]
    return tuple({int(k): v for k, v in flow[part].items()} for part in ("edges", "in", "out"))


def score(inst: dict, costs: dict[int, float], edges: dict[int, int], out: dict[int, int]) -> float:
    if inst.get("maximize_outflow") is not None:
        return float(out.get(inst["maximize_outflow"], 0))
    return math.fsum(costs[e] * f for e, f in edges.items())


def highs_optimum(inst: dict, costs: dict[int, float], cuts: list[list[int]]):
    """Optimal objective of the query under the cuts, or None if infeasible."""
    n_edges = len(inst["edges"])
    cap = inst["flow_cap"]
    sources = sorted(inst["sources"])
    outs = sorted(inst["targets"]) + sorted(inst["byproducts"])
    n = 2 * n_edges + len(sources) + len(outs)
    lo = np.zeros(n)
    hi = np.zeros(n)
    hi[:n_edges] = cap
    hi[n_edges:2 * n_edges] = 1
    col = 2 * n_edges
    in_col, out_col = {}, {}
    for v in sources:
        lo[col], hi[col] = inst["sources"][v]
        in_col[v] = col
        col += 1
    for v in outs:
        if v in inst["targets"]:
            lo[col], hi[col] = inst["targets"][v]
        else:
            hi[col] = inst["byproducts"][v]
        out_col[v] = col
        col += 1

    rows, lb, ub = [], [], []
    for v in range(inst["n_vertices"]):
        row = np.zeros(n)
        for e, (reactants, products) in enumerate(inst["edges"]):
            row[e] = products.get(v, 0) - reactants.get(v, 0)
        if v in in_col:
            row[in_col[v]] = 1
        if v in out_col:
            row[out_col[v]] = -1
        rows.append(row), lb.append(0), ub.append(0)
    for e in range(n_edges):
        row = np.zeros(n)
        row[e], row[n_edges + e] = 1, -cap  # flow only on used edges
        rows.append(row), lb.append(-np.inf), ub.append(0)
        row = np.zeros(n)
        row[n_edges + e], row[e] = 1, -1  # a used edge carries flow
        rows.append(row), lb.append(-np.inf), ub.append(0)
    if inst.get("total_inflow_max") is not None:
        row = np.zeros(n)
        row[[in_col[v] for v in sources]] = 1
        rows.append(row), lb.append(-np.inf), ub.append(inst["total_inflow_max"])
    for cut in cuts:
        row = np.zeros(n)
        row[[n_edges + e for e in cut]] = 1
        rows.append(row), lb.append(-np.inf), ub.append(len(cut) - 1)

    c = np.zeros(n)
    if inst.get("maximize_outflow") is not None:
        c[out_col[inst["maximize_outflow"]]] = -1
    else:
        # in kJ/mol: HiGHS reports solve errors on some J/mol cost vectors
        c[:n_edges] = [costs[e] / 1000.0 for e in range(n_edges)]
    # HiGHS's presolve ends some infeasible models with a solve error
    # (status 4); those are solved again without it
    for presolve in (True, False):
        res = milp(
            c,
            constraints=LinearConstraint(np.array(rows), lb, ub),
            integrality=np.ones(n),
            bounds=Bounds(lo, hi),
            options={"mip_rel_gap": 0.0, "presolve": presolve},
        )
        if res.status != 4:
            break
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve {inst['name']}: {res.message}")
    x = np.round(res.x).astype(int)
    edges = {e: int(x[e]) for e in range(n_edges) if x[e]}
    out = {v: int(x[col]) for v, col in out_col.items()}
    return score(inst, costs, edges, out)


def flow_problems(inst: dict, i: int, solution: dict, earlier: list[list[int]]) -> list[str]:
    """Conservation, bounds and cuts of one ranked answer."""
    problems = []
    edges, inflow, outflow = as_flow(solution)
    name = f"{inst['name']} rank {i + 1}"
    net = Counter()
    for e, f in edges.items():
        if not (0 <= e < len(inst["edges"])) or f != int(f) or not (0 <= f <= inst["flow_cap"]):
            problems.append(f"{name}: flow {f} on edge {e} is out of bounds")
            continue
        reactants, products = inst["edges"][e]
        for v, m in products.items():
            net[v] += m * f
        for v, m in reactants.items():
            net[v] -= m * f
    for v, x in inflow.items():
        lo, hi = inst["sources"].get(v, (0, 0))
        if not lo <= x <= hi:
            problems.append(f"{name}: inflow {x} of vertex {v} outside [{lo}, {hi}]")
        net[v] += x
    for v, x in outflow.items():
        lo, hi = inst["targets"].get(v) or (0, inst["byproducts"].get(v, 0))
        if not lo <= x <= hi:
            problems.append(f"{name}: outflow {x} of vertex {v} outside [{lo}, {hi}]")
        net[v] -= x
    for v in inst["sources"]:
        if v not in inflow and inst["sources"][v][0] > 0:
            problems.append(f"{name}: source {v} below its minimum inflow")
    for v in inst["targets"]:
        if v not in outflow and inst["targets"][v][0] > 0:
            problems.append(f"{name}: target {v} below its minimum outflow")
    unbalanced = {v: x for v, x in net.items() if x}
    if unbalanced:
        problems.append(f"{name}: flow does not conserve vertices {unbalanced}")
    if inst.get("total_inflow_max") is not None and sum(inflow.values()) > inst["total_inflow_max"]:
        problems.append(f"{name}: total inflow above {inst['total_inflow_max']}")
    support = sorted(e for e, f in edges.items() if f > 0)
    if support != sorted(solution["support"]):
        problems.append(f"{name}: support {solution['support']} does not match its flow {support}")
    for cut in earlier:
        if set(cut) <= set(support):
            problems.append(f"{name}: support contains the earlier support {cut}")
    return problems


def check_ranked(inst: dict, answer: dict) -> list[str]:
    """Judge one ranked query's answer against its instance."""
    costs = edge_costs(inst["barriers"])
    solutions = answer["solutions"]
    problems = []
    maximize = inst.get("maximize_outflow") is not None
    if len(solutions) > inst["k"]:
        problems.append(f"{inst['name']}: {len(solutions)} answers for k={inst['k']}")
    earlier: list[list[int]] = []
    for i, sol in enumerate(solutions):
        name = f"{inst['name']} rank {i + 1}"
        problems += flow_problems(inst, i, sol, earlier)
        edges, _, outflow = as_flow(sol)
        own = score(inst, costs, edges, outflow)
        tol = OBJECTIVE_RTOL * max(1.0, abs(own))
        if abs(sol["objective"] - own) > tol:
            problems.append(f"{name}: objective {sol['objective']!r} but its flow scores {own!r}")
        best = highs_optimum(inst, costs, earlier)
        if best is None:
            problems.append(f"{name}: HiGHS finds no pathway under the earlier cuts")
        elif abs(sol["objective"] - best) > OBJECTIVE_RTOL * max(1.0, abs(best)):
            problems.append(f"{name}: objective {sol['objective']!r}, HiGHS optimum {best!r}")
        if i:
            previous = solutions[i - 1]["objective"]
            worse = previous - sol["objective"] if maximize else sol["objective"] - previous
            if worse < -OBJECTIVE_RTOL * max(1.0, abs(previous)):
                problems.append(f"{name}: objective improves on the rank before it")
        earlier.append(sorted(sol["support"]))
    for a, b in combinations(range(len(earlier)), 2):
        if set(earlier[a]) <= set(earlier[b]) or set(earlier[b]) <= set(earlier[a]):
            problems.append(f"{inst['name']}: supports of ranks {a + 1} and {b + 1} are comparable")
    if len(solutions) < inst["k"] and all(earlier):
        best = highs_optimum(inst, costs, earlier)
        if best is not None:
            problems.append(
                f"{inst['name']}: stopped after {len(solutions)} answers, HiGHS finds another ({best!r})"
            )
    return problems


def check_reference_tables(answers: dict[str, dict]) -> list[str]:
    """The reference-table runs contain the tables' pathways and the score gap."""
    problems = []
    for name, table in (("amino-table", inputs.AMINO_PATHWAYS), ("hydroxy-table", inputs.HYDROXY_PATHWAYS)):
        answer = answers.get(name)
        if answer is None or "solutions" not in answer:
            problems.append(f"{name}: no answer")
            continue
        found = {tuple(sorted(s["support"])): s["objective"] for s in answer["solutions"]}
        for pathway, support in table.items():
            if tuple(sorted(support)) not in found:
                problems.append(f"{name}: pathway {pathway} {support} is not among the ranked answers")
        if name == "amino-table" and not problems:
            gap = (found[tuple(table["P2"])] - found[tuple(table["P1"])]) / 1000.0
            if abs(gap - inputs.AMINO_SCORE_GAP_KJ) > inputs.SCORE_GAP_TOL_KJ:
                problems.append(f"{name}: score(P2) - score(P1) = {gap:.4f} kJ/mol")
    return problems


# ---------------------------------------------------------------------------
# Expansion answers


def molecule_graph(mgf: str) -> nx.Graph:
    (atoms, bonds), = inputs.parse_mgf(mgf)
    g = nx.Graph()
    for aid, (element, charge) in atoms.items():
        g.add_node(aid, element=element, charge=charge)
    for a, b, order in bonds:
        g.add_edge(a, b, order=order)
    return g


def composition(g: nx.Graph) -> Counter:
    counts = Counter(d["element"] for _, d in g.nodes(data=True))
    counts["charge"] = sum(d["charge"] for _, d in g.nodes(data=True))
    return counts


def molecule_problems(i: int, g: nx.Graph) -> list[str]:
    """Element caps, valence caps, ring and cumulated-double filters."""
    problems = []
    counts = composition(g)
    for element, cap in inputs.ELEMENT_CAPS.items():
        if counts[element] > cap:
            problems.append(f"molecule {i}: {counts[element]} {element} atoms, cap {cap}")
    for aid, data in g.nodes(data=True):
        valence = sum(inputs.ORDER_VALUE[o] for _, _, o in g.edges(aid, data="order"))
        cap = inputs.VALENCE_CAP.get(data["element"])
        if cap is not None and valence > cap + 1e-9:
            problems.append(f"molecule {i}: atom {aid} ({data['element']}) has valence {valence}")
        high = sum(1 for _, _, o in g.edges(aid, data="order") if o in ("2", "3"))
        if high >= 2:
            problems.append(f"molecule {i}: atom {aid} carries cumulated double bonds")
    if nx.girth(g) <= inputs.RING_LIMIT:
        problems.append(f"molecule {i}: has a ring of size {nx.girth(g)}")
    if not nx.is_connected(g):
        problems.append(f"molecule {i}: is not connected")
    return problems


def check_expansion(answer: dict) -> list[str]:
    problems = []
    graphs = [molecule_graph(m) for m in answer["molecules"]]
    for i, g in enumerate(graphs):
        problems += molecule_problems(i, g)

    # pairwise non-isomorphic; only graphs with equal composition and bond
    # orders can be isomorphic, so only those pairs go to networkx
    groups: dict[tuple, list[int]] = {}
    for i, g in enumerate(graphs):
        orders = Counter(o for _, _, o in g.edges(data="order"))
        groups.setdefault((tuple(sorted(composition(g).items())), tuple(sorted(orders.items()))), []).append(i)
    for members in groups.values():
        for a, b in combinations(members, 2):
            if nx.is_isomorphic(
                graphs[a], graphs[b],
                node_match=lambda x, y: (x["element"], x["charge"]) == (y["element"], y["charge"]),
                edge_match=lambda x, y: x["order"] == y["order"],
            ):
                problems.append(f"molecules {a} and {b} are isomorphic")

    compositions = [composition(g) for g in graphs]
    for e, (reactants, products) in enumerate(answer["reactions"]):
        sides = []
        for side in (reactants, products):
            total = Counter()
            for v, m in side.items():
                v = int(v)
                if not (0 <= v < len(graphs)) or m < 1:
                    problems.append(f"reaction {e}: bad entry {v}: {m}")
                    continue
                for key, n in compositions[v].items():
                    total[key] += m * n
            sides.append({key: n for key, n in total.items() if n})
        if sides[0] != sides[1]:
            problems.append(f"reaction {e}: not mass-balanced ({dict(sides[0])} -> {dict(sides[1])})")

    history = [tuple(step) for step in answer["history"]]
    for iteration, expected in inputs.PINNED_HISTORY.items():
        got = history[iteration - 1] if len(history) >= iteration else None
        if got != expected:
            problems.append(f"iteration {iteration} gave {got}, expected {expected}")
    final = (len(graphs), len(answer["reactions"]))
    if not history or history[-1] != final:
        problems.append(f"history ends at {history[-1:]} but the network has {final}")
    if final[1] != inputs.REFERENCE_REACTIONS:
        problems.append(f"{final[1]} reactions, the reference closure has {inputs.REFERENCE_REACTIONS}")
    return problems
