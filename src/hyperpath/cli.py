"""Command line front end.

Commands: ``expand`` grows a network from seed molecules, ``annotate-check``
verifies a hyperflow against a network, ``query`` ranks pathways for a
query, ``export-lp`` writes the optimization model as LP text, and
``export-dot`` draws the network.  A command reads and writes its files
through a ``_Run``, which records their paths and input hashes.  When the
command succeeds and wrote at least one file, ``main`` writes that record
beside the first file written, named after it in full (``network.json``
gets ``network.json.manifest.json``); a failed command, ``annotate-check``
without ``--output``, or a first output that is not a regular file, such as
``/dev/null``, writes no manifest.

Exit codes: 0 success (an infeasible query is still a success, the answer
is in the output), 1 usage errors, 2 unreadable or invalid inputs (also an
input so deep that a recursive search runs out of stack), 3 search
limits exhausted, 4 solver failure (an LP relaxation ended numerically or
ran into the simplex's iteration limit, or no optimum was found on the
canonical support).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .kinetics import (
    DEFAULT_TEMPERATURE,
    GAS_CONSTANT,
    Thermo,
    load_barriers,
    objective_coefficients,
    pathway_score,
    read_decimal,
)
from .molgraph import PERIODIC_TABLE, parse_molecules, read_integer
from .netcore import Hypergraph, is_json_id, is_json_integer
from .pathopt import PathwayQuery, build_model, export_lp_text, relax
from .rewrite import (
    ExpansionConfig,
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


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _json_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


class _Run:
    """The files one command reads and writes, and the manifest they make.

    ``extra`` holds the command's own manifest keys.
    """

    def __init__(self):
        self.inputs: dict[str, dict[str, str]] = {}
        self.outputs: list[str] = []
        self.extra: dict = {}

    def read(self, name: str, path: str) -> str:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
        self.inputs[name] = {"path": path, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        return text

    def read_document(self, name: str, path: str, decode):
        """Read and decode one JSON input, mapping any shape error to InputError."""
        text = self.read(name, path)
        try:
            return decode(json.loads(text))
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise InputError(f"{path} nests too deeply to read") from None
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"{path} is not a valid {name} document: {exc}") from None

    def write(self, path: str, text: str) -> None:
        _write_text(path, text)
        self.outputs.append(path)

    def write_json(self, path: str, data: dict) -> None:
        self.write(path, _json_text(data))

    def write_manifest(self, command: str, argv: list[str], started: float) -> None:
        manifest = {
            "command": command,
            "argv": argv,
            "version": __version__,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
            "duration_seconds": round(time.time() - started, 6),
            **self.extra,
        }
        _write_text(self.outputs[0] + ".manifest.json", _json_text(manifest))


def _parse_max_elements(spec: str | None) -> dict[str, int] | None:
    """Element ceilings like ``C=2,N=4``: each names a known element once,
    with a count of at least 0, spelled as an id is (``read_integer``)."""
    if not spec:
        return None
    caps: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        element, _, value = (text.strip() for text in part.partition("="))
        count = read_integer(value)
        if element not in PERIODIC_TABLE or element in caps or count is None:
            raise InputError(f"bad element cap {part!r}, expected a known element once, like C=2")
        caps[element] = count
    return caps


def _flow_from_json(data: dict) -> dict:
    """The hyperflow of a flow document: ids as decimal numerals without
    leading zeros, values as JSON integers of at most 2**53 in magnitude."""
    flow: dict = {}
    for block, kind in (("flow", None), ("inflow", "in"), ("outflow", "out")):
        for key, value in data.get(block, {}).items():
            if not (is_json_id(key) and is_json_integer(value)):
                raise ValueError(f"{block}: bad entry {key!r}: {value!r}, expected an id and an integer")
            flow[int(key) if kind is None else (kind, int(key))] = value
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


def _cmd_expand(args, run: _Run) -> int:
    for name in args.filter:
        try:
            right_predicate(name)
        except ValueError as exc:
            print(f"usage: {exc}", file=sys.stderr)
            return 1
    seeds = parse_molecules(run.read("seeds", args.seeds))
    rules = parse_rules(run.read("rules", args.rules)) if args.rules else load_default_rules()
    config = ExpansionConfig(
        seed_molecules=tuple(seeds),
        max_iterations=args.max_iterations,
        max_element_counts=_parse_max_elements(args.max_elements),
        right_predicates=tuple(args.filter),
    )
    result = run_expansion(config, rules)
    run.write_json(args.output, result.network.to_json())
    for i, (n_vertices, n_edges) in enumerate(result.history, start=1):
        print(f"iteration {i}: {n_vertices} molecules, {n_edges} reactions")
    if result.reached_fixpoint:
        print("reached fixpoint")
    print(f"wrote {args.output}")
    run.extra = {
        "reached_fixpoint": result.reached_fixpoint,
        "history": [list(h) for h in result.history],
    }
    return 0


def _cmd_annotate_check(args, run: _Run) -> int:
    graph = run.read_document("network", args.network, Hypergraph.from_json)
    flow = run.read_document("flow", args.flow, _flow_from_json)
    violations = graph.conservation_violations(flow)
    report: dict = {
        "conserved": not violations,
        "violations": {str(v): imbalance for v, imbalance in violations.items()},
        "support": graph.support(flow),
    }
    if args.barriers:
        table = load_barriers(run.read("barriers", args.barriers), graph)
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
        run.write_json(args.output, report)
    return 0


def _solution_json(rank: int, solution, weights) -> dict:
    score = pathway_score(solution.flow, weights)
    return {
        "rank": rank,
        "status": solution.status,
        "objective_j_per_mol": solution.objective,
        "score_j_per_mol": score,
        "score_kj_per_mol": score / 1000.0,
        "support": solution.support,
        **_flow_to_json(solution.flow),
    }


def _load_query_inputs(args, run: _Run):
    """Network, barrier table, edge weights and query of a model command."""
    graph = run.read_document("network", args.network, Hypergraph.from_json)
    table = load_barriers(run.read("barriers", args.barriers), graph)
    weights = objective_coefficients(table, Thermo(args.temperature_k), graph)
    query = run.read_document("query", args.query, PathwayQuery.from_json)
    return graph, table, weights, query


def _cmd_query(args, run: _Run) -> int:
    graph, table, weights, query = _load_query_inputs(args, run)
    model = build_model(graph, weights, query)

    if args.relax:
        lp = simplex_solve(model)
        flow = {}
        if lp.status == "optimal":
            flow = dict(zip(model.keys, lp.values.tolist()))
        data = {
            "status": lp.status,
            "objective_j_per_mol": lp.objective,
            "temperature_k": args.temperature_k,
            "relaxation": True,
            **_flow_to_json(flow),
        }
        run.write_json(args.output, data)
        if lp.status == "optimal":
            print(f"relaxation optimum: {lp.objective:.6f}")
        else:
            print(f"relaxation: {lp.status}")
        run.extra = {"relax": True}
        return 0

    ranked = enumerate_pathways(model, args.rank, args.node_limit)

    solutions = [_solution_json(i + 1, s, weights) for i, s in enumerate(ranked.solutions)]
    data = {
        "status": "ok" if solutions else "infeasible",
        "temperature_k": args.temperature_k,
        "rank_requested": args.rank,
        "solutions": solutions,
    }
    run.write_json(args.output, data)

    if not solutions:
        print("no pathway satisfies the query")
    for entry, solution in zip(solutions, ranked.solutions):
        edges = ",".join(f"e{e}" for e in solution.support) or "(empty)"
        print(
            f"rank {entry['rank']}: score {entry['score_kj_per_mol']:.6f} kJ/mol, "
            f"support {edges}"
        )
    if args.profiles:
        stem = str(Path(args.output).with_suffix(""))
        for entry, solution in zip(solutions, ranked.solutions):
            lines = ["step,edge_id,flow,barrier_kj_per_mol,cumulative_kj_per_mol"]
            cumulative = 0.0
            for step, eid in enumerate(solution.support, start=1):
                flow = solution.flow.get(eid, 0)
                cumulative += table.barrier_kj(eid) * flow
                lines.append(
                    f"{step},{eid},{flow},{table.barrier_kj(eid):.6f},{cumulative:.6f}"
                )
            run.write(f"{stem}.profile-{entry['rank']}.csv", "\n".join(lines) + "\n")

    run.extra = {"node_limit": args.node_limit, "temperature_k": args.temperature_k}
    return 0


def _cmd_export_lp(args, run: _Run) -> int:
    graph, _, weights, query = _load_query_inputs(args, run)
    model = build_model(graph, weights, query)
    run.write(args.output, export_lp_text(relax(model) if args.relax else model))
    print(f"wrote {args.output}")
    run.extra = {"relax": bool(args.relax)}
    return 0


def _cmd_export_dot(args, run: _Run) -> int:
    graph = run.read_document("network", args.network, Hypergraph.from_json)
    flow: dict = {}
    if args.solutions:
        def pick(data: dict) -> dict:
            ranked = [s for s in data.get("solutions", []) if s.get("rank") == args.rank]
            if not ranked:
                raise InputError(f"no rank {args.rank} solution in {args.solutions}")
            return _flow_from_json(ranked[0])

        flow = run.read_document("solutions", args.solutions, pick)
    run.write(args.output, graph.to_dot(flow))
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _checked(read, ok, rule: str):
    """An argparse type: ``read`` the text as the input files read numbers
    (None for a bad spelling), then require ``ok(value)``, so that a bad
    spelling or a value out of range is a usage error."""

    def parse(text: str):
        value = read(text)
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {text!r}")
        return value

    return parse


_COUNT = _checked(read_integer, lambda v: v >= 1, "an integer of at least 1")
_ITERATIONS = _checked(read_integer, lambda v: v >= 0, "an integer of at least 0")
_KELVIN = _checked(
    read_decimal, lambda v: 0 < v * GAS_CONSTANT < math.inf, "a decimal above 0 with R*T finite"
)


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
    p.add_argument("--max-iterations", type=_ITERATIONS, default=ExpansionConfig.max_iterations)
    p.add_argument("--max-elements", help="per-product element ceilings, e.g. C=2,N=4,O=4")
    p.add_argument(
        "--filter",
        action="append",
        default=[],
        help="product filter, repeatable (no-rings-le=3, no-cumulated-doubles)",
    )
    p.add_argument("--output", required=True, help="network JSON to write")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("annotate-check", help="check a hyperflow for exact conservation")
    p.add_argument("--network", required=True)
    p.add_argument("--flow", required=True, help="flow JSON with flow/inflow/outflow blocks")
    p.add_argument("--barriers", help="barrier CSV; adds a pathway score to the report")
    p.add_argument("--temperature-k", type=_KELVIN, default=DEFAULT_TEMPERATURE)
    p.add_argument("--output", help="optional report JSON")
    p.set_defaults(func=_cmd_annotate_check)

    p = sub.add_parser("query", help="rank pathways answering a query")
    p.add_argument("--network", required=True)
    p.add_argument("--barriers", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("-k", "--rank", type=_COUNT, default=1, help="how many pathways to enumerate")
    p.add_argument("--temperature-k", type=_KELVIN, default=DEFAULT_TEMPERATURE)
    p.add_argument("--relax", action="store_true", help="solve the continuous relaxation instead")
    p.add_argument("--node-limit", type=_COUNT, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--profiles", action="store_true", help="write an energy profile CSV per solution")
    p.add_argument("--output", required=True, help="solutions JSON to write")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("export-lp", help="write the query model as LP text")
    p.add_argument("--network", required=True)
    p.add_argument("--barriers", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--temperature-k", type=_KELVIN, default=DEFAULT_TEMPERATURE)
    p.add_argument("--relax", action="store_true", help="export the continuous relaxation")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("export-dot", help="draw a network, optionally with a solved pathway")
    p.add_argument("--network", required=True)
    p.add_argument("--solutions", help="solutions JSON from the query command")
    p.add_argument("--rank", type=_COUNT, default=1)
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
    run = _Run()
    started = time.time()
    try:
        code = args.func(args, run)
        if code == 0 and run.outputs and Path(run.outputs[0]).is_file():
            run.write_manifest(args.command, argv, started)
        return code
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a seed or a rule so large that a recursive search runs out of stack
        print("error: an input is too deep to process: a search ran out of stack", file=sys.stderr)
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
