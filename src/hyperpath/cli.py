"""Command line front end.

Commands: ``expand`` grows a network from seed molecules, ``annotate-check``
verifies a hyperflow against a network, ``query`` ranks pathways for a
query, ``export-lp`` writes the optimization model as LP text, and
``export-dot`` draws the network.  Every command that writes a primary
output also writes a ``<stem>.manifest.json`` recording the exact inputs.

Exit codes: 0 success (an infeasible query is still a success, the answer
is in the output), 1 usage errors, 2 unreadable or invalid inputs, 3 search
limits exhausted, 4 solver failure (an LP relaxation ended numerically).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .kinetics import (
    DEFAULT_TEMPERATURE,
    Thermo,
    load_barriers,
    objective_coefficients,
    pathway_score,
)
from .molgraph import MgfError, parse_molecules
from .netcore import Hypergraph
from .pathopt import PathwayQuery, build_model, export_lp_text, relax
from .rewrite import (
    ExpansionConfig,
    RuleError,
    load_default_rules,
    parse_rules,
    right_predicate,
    run_expansion,
)
from .solve import (
    DEFAULT_NODE_LIMIT,
    NodeLimitExceeded,
    SolverError,
    enumerate_pathways,
    simplex_solve,
)


class InputError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None


def _decode_document(path: str, text: str, decode, kind: str):
    """Parse and decode one JSON input file, mapping any shape error to InputError."""
    try:
        return decode(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a valid {kind} document: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_json(path: str, data: dict) -> None:
    _write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_manifest(
    command: str,
    argv: list[str],
    primary_output: str,
    inputs: dict[str, tuple[str, str]],
    outputs: list[str],
    started: float,
    extra: dict | None = None,
) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "inputs": {
            name: {"path": path, "sha256": _sha256(text)}
            for name, (path, text) in sorted(inputs.items())
        },
        "outputs": sorted(outputs),
        "duration_seconds": round(time.time() - started, 6),
    }
    if extra:
        manifest.update(extra)
    _write_json(str(Path(primary_output).with_suffix("")) + ".manifest.json", manifest)


def _parse_max_elements(spec: str | None) -> dict[str, int] | None:
    if not spec:
        return None
    caps: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"bad element cap {part!r}, expected like C=2")
        element, _, value = part.partition("=")
        try:
            caps[element.strip()] = int(value)
        except ValueError:
            raise InputError(f"bad element cap value in {part!r}") from None
    return caps


def _node_limit(args: argparse.Namespace) -> int:
    if args.node_limit is not None:
        return args.node_limit
    env = os.environ.get("HYPERPATH_NODE_LIMIT")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"HYPERPATH_NODE_LIMIT must be an integer, got {env!r}") from None
    return DEFAULT_NODE_LIMIT


def _load_network(path: str) -> tuple[Hypergraph, str]:
    text = _read_text(path)
    return _decode_document(path, text, Hypergraph.from_json, "network"), text


def _flow_from_json(data: dict) -> dict:
    flow: dict = {}
    for eid, value in data.get("flow", {}).items():
        flow[int(eid)] = int(value)
    for vid, value in data.get("inflow", {}).items():
        flow[("in", int(vid))] = int(value)
    for vid, value in data.get("outflow", {}).items():
        flow[("out", int(vid))] = int(value)
    return flow


def _flow_to_json(flow: dict) -> dict:
    return {
        "flow": {
            str(k): v for k, v in sorted((k, v) for k, v in flow.items() if isinstance(k, int)) if v
        },
        "inflow": {
            str(k[1]): v for k, v in flow.items() if isinstance(k, tuple) and k[0] == "in" and v
        },
        "outflow": {
            str(k[1]): v for k, v in flow.items() if isinstance(k, tuple) and k[0] == "out" and v
        },
    }


# ---------------------------------------------------------------------------
# Commands


def _cmd_expand(args, argv, started) -> int:
    for name in args.filter:
        try:
            right_predicate(name)
        except ValueError as exc:
            print(f"usage: {exc}", file=sys.stderr)
            return 1
    seeds_text = _read_text(args.seeds)
    seeds = parse_molecules(seeds_text)
    inputs = {"seeds": (args.seeds, seeds_text)}
    if args.rules:
        rules_text = _read_text(args.rules)
        inputs["rules"] = (args.rules, rules_text)
        rules = parse_rules(rules_text)
    else:
        rules = load_default_rules()
    config = ExpansionConfig(
        seed_molecules=tuple(seeds),
        max_iterations=args.max_iterations,
        max_element_counts=_parse_max_elements(args.max_elements),
        right_predicates=tuple(args.filter),
    )
    result = run_expansion(config, rules)
    _write_json(args.output, result.network.to_json())
    outputs = [args.output]
    for i, (n_vertices, n_edges) in enumerate(result.history, start=1):
        print(f"iteration {i}: {n_vertices} molecules, {n_edges} reactions")
    if result.reached_fixpoint:
        print("reached fixpoint")
    print(f"wrote {args.output}")
    if args.dot:
        dot_path = str(Path(args.output).with_suffix("")) + ".dot"
        _write_text(dot_path, result.network.to_dot())
        outputs.append(dot_path)
        print(f"wrote {dot_path}")
    _write_manifest(
        "expand",
        argv,
        args.output,
        inputs,
        outputs,
        started,
        {
            "iterations_run": result.iterations_run,
            "reached_fixpoint": result.reached_fixpoint,
            "history": [list(h) for h in result.history],
        },
    )
    return 0


def _cmd_annotate_check(args, argv, started) -> int:
    graph, network_text = _load_network(args.network)
    flow_text = _read_text(args.flow)
    flow = _decode_document(args.flow, flow_text, _flow_from_json, "flow")
    violations = graph.conservation_violations(flow)
    report: dict = {
        "conserved": not violations,
        "violations": {str(v): imbalance for v, imbalance in violations.items()},
        "support": graph.support(flow),
    }
    inputs = {"network": (args.network, network_text), "flow": (args.flow, flow_text)}
    if args.barriers:
        barrier_text = _read_text(args.barriers)
        inputs["barriers"] = (args.barriers, barrier_text)
        table = load_barriers(barrier_text, graph)
        weights = objective_coefficients(table, Thermo(args.temperature_k), graph)
        report["score_j_per_mol"] = pathway_score(flow, weights)
        report["score_kj_per_mol"] = report["score_j_per_mol"] / 1000.0
    if violations:
        print("flow is NOT conserved:")
        for vid, imbalance in violations.items():
            print(f"  vertex {vid}: net {imbalance:+d}")
    else:
        print("flow is conserved")
    if "score_kj_per_mol" in report:
        print(f"score: {report['score_kj_per_mol']:.6f} kJ/mol")
    if args.output:
        _write_json(args.output, report)
        _write_manifest("annotate-check", argv, args.output, inputs, [args.output], started)
    return 0


def _solution_json(rank: int, solution, weights) -> dict:
    return {
        "rank": rank,
        "status": solution.status,
        "objective_j_per_mol": solution.objective,
        "score_j_per_mol": pathway_score(solution.flow, weights),
        "score_kj_per_mol": pathway_score(solution.flow, weights) / 1000.0,
        "support": solution.support,
        "indicators": {str(e): z for e, z in sorted(solution.indicator.items()) if z},
        **_flow_to_json(solution.flow),
    }


def _load_query_inputs(args):
    """Network, barrier table, edge weights and query of a model command,
    plus the manifest inputs they came from."""
    graph, network_text = _load_network(args.network)
    barrier_text = _read_text(args.barriers)
    table = load_barriers(barrier_text, graph)
    weights = objective_coefficients(table, Thermo(args.temperature_k), graph)
    query_text = _read_text(args.query)
    query = _decode_document(args.query, query_text, PathwayQuery.from_json, "query")
    inputs = {
        "network": (args.network, network_text),
        "barriers": (args.barriers, barrier_text),
        "query": (args.query, query_text),
    }
    return graph, table, weights, query, inputs


def _cmd_query(args, argv, started) -> int:
    graph, table, weights, query, inputs = _load_query_inputs(args)
    if args.flow_cap is not None:
        query = dataclasses.replace(query, flow_cap=args.flow_cap)
    model = build_model(graph, weights, query)

    if args.relax:
        lp = simplex_solve(relax(model))
        flow = {}
        if lp.status == "optimal":
            flow = {key: lp.values.get(name, 0.0) for name, key in model.flow_keys.items()}
        data = {
            "status": lp.status,
            "objective_j_per_mol": lp.objective,
            "temperature_k": args.temperature_k,
            "relaxation": True,
            **_flow_to_json(flow),
        }
        _write_json(args.output, data)
        if lp.status == "optimal":
            print(f"relaxation optimum: {lp.objective:.6f}")
        else:
            print(f"relaxation: {lp.status}")
        _write_manifest("query", argv, args.output, inputs, [args.output], started, {"relax": True})
        return 0

    ranked = enumerate_pathways(model, args.rank, _node_limit(args))

    solutions = [_solution_json(i + 1, s, weights) for i, s in enumerate(ranked.solutions)]
    data = {
        "status": "ok" if solutions else "infeasible",
        "temperature_k": args.temperature_k,
        "rank_requested": args.rank,
        "solutions": solutions,
        "cuts": [sorted(c) for c in ranked.cuts],
    }
    _write_json(args.output, data)
    outputs = [args.output]

    if not solutions:
        print("no pathway satisfies the query")
    for entry, solution in zip(solutions, ranked.solutions):
        edges = ",".join(f"e{e}" for e in solution.support) or "(empty)"
        print(
            f"rank {entry['rank']}: score {entry['score_kj_per_mol']:.6f} kJ/mol, "
            f"support {edges}"
        )
    stem = str(Path(args.output).with_suffix(""))
    if args.profiles:
        for entry, solution in zip(solutions, ranked.solutions):
            path = f"{stem}.profile-{entry['rank']}.csv"
            lines = ["step,edge_id,flow,barrier_kj_per_mol,cumulative_kj_per_mol"]
            cumulative = 0.0
            for step, eid in enumerate(solution.support, start=1):
                flow = solution.flow.get(eid, 0)
                cumulative += table.barrier_kj(eid) * flow
                lines.append(
                    f"{step},{eid},{flow},{table.barrier_kj(eid):.6f},{cumulative:.6f}"
                )
            _write_text(path, "\n".join(lines) + "\n")
            outputs.append(path)
    if args.dot:
        path = f"{stem}.dot"
        flow = ranked.solutions[0].flow if ranked.solutions else {}
        _write_text(path, graph.to_dot(flow))
        outputs.append(path)

    _write_manifest(
        "query",
        argv,
        args.output,
        inputs,
        outputs,
        started,
        {"node_limit": _node_limit(args), "temperature_k": args.temperature_k},
    )
    return 0


def _cmd_export_lp(args, argv, started) -> int:
    graph, _, weights, query, inputs = _load_query_inputs(args)
    model = build_model(graph, weights, query)
    text = export_lp_text(relax(model) if args.relax else model)
    _write_text(args.output, text)
    print(f"wrote {args.output}")
    _write_manifest(
        "export-lp", argv, args.output, inputs, [args.output], started, {"relax": bool(args.relax)}
    )
    return 0


def _cmd_export_dot(args, argv, started) -> int:
    graph, network_text = _load_network(args.network)
    inputs = {"network": (args.network, network_text)}
    flow: dict = {}
    if args.solutions:
        solutions_text = _read_text(args.solutions)
        inputs["solutions"] = (args.solutions, solutions_text)
        def pick(data: dict) -> dict:
            ranked = [s for s in data.get("solutions", []) if s.get("rank") == args.rank]
            if not ranked:
                raise InputError(f"no rank {args.rank} solution in {args.solutions}")
            return _flow_from_json(ranked[0])

        flow = _decode_document(args.solutions, solutions_text, pick, "solutions")
    _write_text(args.output, graph.to_dot(flow))
    print(f"wrote {args.output}")
    _write_manifest("export-dot", argv, args.output, inputs, [args.output], started)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpath",
        description="Generate reaction networks by graph rewriting and rank pathways through them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="grow a network from seed molecules")
    p.add_argument("--seeds", required=True, help="molecule file ('---' separates molecules)")
    p.add_argument("--rules", help="rule file (default: the built-in rule set)")
    p.add_argument("--max-iterations", type=int, default=4)
    p.add_argument("--max-elements", help="per-product element ceilings, e.g. C=2,N=4,O=4")
    p.add_argument(
        "--filter",
        action="append",
        default=[],
        help="product filter, repeatable (no-rings-le=3, no-cumulated-doubles)",
    )
    p.add_argument("--dot", action="store_true", help="also draw the network")
    p.add_argument("--output", required=True, help="network JSON to write")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("annotate-check", help="check a hyperflow for exact conservation")
    p.add_argument("--network", required=True)
    p.add_argument("--flow", required=True, help="flow JSON with flow/inflow/outflow blocks")
    p.add_argument("--barriers", help="barrier CSV; adds a pathway score to the report")
    p.add_argument("--temperature-k", type=float, default=DEFAULT_TEMPERATURE)
    p.add_argument("--output", help="optional report JSON")
    p.set_defaults(func=_cmd_annotate_check)

    p = sub.add_parser("query", help="rank pathways answering a query")
    p.add_argument("--network", required=True)
    p.add_argument("--barriers", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("-k", "--rank", type=int, default=1, help="how many pathways to enumerate")
    p.add_argument("--temperature-k", type=float, default=DEFAULT_TEMPERATURE)
    p.add_argument("--flow-cap", type=int, default=None, help="override the query's per-edge cap")
    p.add_argument("--relax", action="store_true", help="solve the continuous relaxation instead")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--profiles", action="store_true", help="write an energy profile CSV per solution")
    p.add_argument("--dot", action="store_true", help="also draw the network with the best pathway")
    p.add_argument("--output", required=True, help="solutions JSON to write")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("export-lp", help="write the query model as LP text")
    p.add_argument("--network", required=True)
    p.add_argument("--barriers", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--temperature-k", type=float, default=DEFAULT_TEMPERATURE)
    p.add_argument("--relax", action="store_true", help="export the continuous relaxation")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("export-dot", help="draw a network, optionally with a solved pathway")
    p.add_argument("--network", required=True)
    p.add_argument("--solutions", help="solutions JSON from the query command")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.time()
    try:
        return args.func(args, argv, started)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MgfError, RuleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NodeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
