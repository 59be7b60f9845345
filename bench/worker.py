"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round, so every round pays the cold
cost a user pays on each ``hyperpath`` run (``canonical_form`` keeps an
in-process cache).  The script makes its inputs from the seed, then starts
the set-up clock, imports ``hyperpath`` from ``--src``, loads the inputs
through the public API and runs the timed operations.  It prints one JSON
object: set-up time, the time of each operation, peak RSS, the answers (for
the checks, which run in the parent) and, when traced, the per-layer
figures.

    python3 bench/worker.py --workload small --seed 1 --src src
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import inputs

WORKLOADS = ("expand", "paper", "small")


# ---------------------------------------------------------------------------
# Inputs, made before the set-up clock starts


def barrier_csv(barriers: dict[int, float]) -> str:
    return "edge_id,barrier_kj_per_mol\n" + "".join(
        f"{e},{g!r}\n" for e, g in sorted(barriers.items())
    )


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the program will be given, as text and plain data."""
    rng = random.Random(seed)
    if workload == "expand":
        # the seed changes nothing here: relabeling or reordering the seed
        # molecules changes which labelled intermediates the canonical-key
        # cache sees, so its counts would differ from run to run
        return {"seeds": inputs.WATER_MGF + "---\n" + inputs.GLYCOLONITRILE_MGF}
    if workload == "paper":
        data = inputs.load_paper_network()
        molecules = [inputs.relabel_mgf(m, rng) for m in data["molecules"]]
        queries = inputs.paper_queries(data["roles"])
        rng.shuffle(queries)
        return {
            "molecules": molecules,
            "reactions": data["reactions"],
            "barriers": barrier_csv(inputs.paper_barriers(len(data["reactions"]))),
            "queries": queries,
        }
    if workload == "small":
        instances = inputs.small_instances()
        rng.shuffle(instances)
        for inst in instances:
            inst["molecules"] = [
                f"atom 0 {inputs.PLACEHOLDER_ELEMENTS[v]}\n" for v in range(inst["n_vertices"])
            ]
            inst["barriers_csv"] = barrier_csv(inst["barriers"])
        return {"queries": instances}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Set-up through the public API; returns the timed operations


def setup_expand(made: dict):
    from hyperpath.molgraph import parse_molecules
    from hyperpath.rewrite import ExpansionConfig, load_default_rules, run_expansion

    config = ExpansionConfig(
        tuple(parse_molecules(made["seeds"])),
        max_iterations=inputs.EXPAND_ITERATIONS,
        max_element_counts=dict(inputs.ELEMENT_CAPS),
        right_predicates=inputs.PRODUCT_FILTERS,
    )
    rules = load_default_rules()
    return [("expansion", lambda: run_expansion(config, rules))]


def build_network(molecules, reactions):
    """Insert molecules and reactions in file order; ids must follow it."""
    from hyperpath.molgraph import parse_molecules
    from hyperpath.netcore import Hypergraph

    net = Hypergraph()
    for i, text in enumerate(molecules):
        if net.add_molecule(parse_molecules(text)[0]) != i:
            raise RuntimeError(f"molecule {i} of the input duplicates an earlier one")
    for i, (reactants, products) in enumerate(reactions):
        if net.add_reaction(dict(reactants), dict(products)) != i:
            raise RuntimeError(f"reaction {i} of the input duplicates an earlier one")
    return net


def pathway_query(q: dict):
    from hyperpath.pathopt import PathwayQuery

    return PathwayQuery(
        sources={v: tuple(r) for v, r in q["sources"].items()},
        targets={v: tuple(r) for v, r in q["targets"].items()},
        allowed_byproducts=dict(q["byproducts"]),
        flow_cap=q["flow_cap"],
        total_inflow_max=q.get("total_inflow_max"),
        maximize_outflow=q.get("maximize_outflow"),
    )


def ranked_query(net, weights, query, k, node_limit):
    from hyperpath.pathopt import build_model
    from hyperpath.solve import DEFAULT_NODE_LIMIT, enumerate_pathways

    model = build_model(net, weights, query)
    return enumerate_pathways(model, k, node_limit or DEFAULT_NODE_LIMIT)


def setup_paper(made: dict):
    from hyperpath.kinetics import Thermo, load_barriers, objective_coefficients
    from hyperpath.netcore import Hypergraph

    built = build_network(made["molecules"], made["reactions"])
    net = Hypergraph.from_json(built.to_json())
    weights = objective_coefficients(load_barriers(made["barriers"], net), Thermo(), net)
    ops = []
    for q in made["queries"]:
        query = pathway_query(q)
        ops.append((q["name"], lambda query=query, q=q: ranked_query(net, weights, query, q["k"], q["node_limit"])))
    return ops


def setup_small(made: dict):
    from hyperpath.kinetics import Thermo, load_barriers, objective_coefficients

    thermo = Thermo()
    ops = []
    for q in made["queries"]:
        net = build_network(q["molecules"], q["edges"])
        table = load_barriers(q["barriers_csv"], net)
        query = pathway_query(q)

        def op(net=net, table=table, query=query, k=q["k"]):
            return ranked_query(net, objective_coefficients(table, thermo, net), query, k, None)

        ops.append((q["name"], op))
    return ops


SETUP = {"expand": setup_expand, "paper": setup_paper, "small": setup_small}


# ---------------------------------------------------------------------------
# Answers, as plain data for the checks


def expansion_answer(result) -> dict:
    data = result.network.to_json()
    return {
        "history": [list(step) for step in result.history],
        "molecules": [row["mgf"] for row in data["vertices"]],
        "reactions": [
            [{int(v): m for v, m in row[side].items()} for side in ("reactants", "products")]
            for row in data["edges"]
        ],
    }


def ranked_answer(ranked) -> dict:
    solutions = []
    for sol in ranked.solutions:
        flow = {"edges": {}, "in": {}, "out": {}}
        for key, value in sol.flow.items():
            if isinstance(key, tuple):
                flow[key[0]][key[1]] = value
            else:
                flow["edges"][key] = value
        solutions.append({"objective": sol.objective, "support": list(sol.support), "flow": flow})
    return {"solutions": solutions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one round of a benchmark workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="directory holding the hyperpath package")
    parser.add_argument("--setup-only", action="store_true", help="stop once the inputs are loaded")
    parser.add_argument("--trace-out", help="trace the round and write its spans to this file")
    args = parser.parse_args(argv)

    made = make_inputs(args.workload, args.seed)
    src = Path(args.src).resolve()

    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import hyperpath

    if Path(hyperpath.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported hyperpath from {hyperpath.__file__}, not from {src}")
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = SETUP[args.workload](made)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    op_s = []
    results = []
    for name, op in ops:
        t = time.perf_counter()
        try:
            result, error = op(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        op_s.append(time.perf_counter() - t)
        results.append((result, error))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    answers = []
    for (name, _), (result, error) in zip(ops, results):
        if error is not None:
            answers.append({"name": name, "error": error})
        elif args.workload == "expand":
            answers.append({"name": name, **expansion_answer(result)})
        else:
            answers.append({"name": name, **ranked_answer(result)})
    out = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": rss_mb, "answers": answers}
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
