"""Benchmark of hyperpath: expansion, paper-scale ranked queries, small models.

    python3 bench/run.py --workload expand|paper|small --seed N --seconds S --trace 0|1

The program is imported from ``src`` next to this directory.
Every round runs in a fresh interpreter (``worker.py``), one at a time, so
each pays the cold cost a user pays.  Whole rounds run until ``--seconds``
have passed, at least one.  Without tracing a few extra interpreters only
set up, so that ``setup_s`` is a median of several cold set-ups.  The
answers of the first round are checked by ``checks.py``; later rounds must
repeat them exactly.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
from worker import WORKLOADS, make_inputs  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_ONLY_ROUNDS = 6
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--src", str(SRC), *extra,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def instances(workload: str, seed: int) -> dict[str, dict]:
    """The inputs of each operation, keyed by operation name, for the checks."""
    made = make_inputs(workload, seed)
    if workload == "paper":
        data = inputs.load_paper_network()
        base = {
            "n_vertices": len(data["molecules"]),
            "edges": [tuple(dict(side) for side in r) for r in data["reactions"]],
            "barriers": inputs.paper_barriers(len(data["reactions"])),
        }
        return {q["name"]: {**base, **q} for q in made["queries"]}
    if workload == "small":
        return {q["name"]: q for q in made["queries"]}
    return {}


def check(workload: str, seed: int, answers: list[dict]) -> list[str]:
    import checks  # scipy and networkx load here, after every round has ended

    ok = [a for a in answers if "error" not in a]
    if workload == "expand":
        return [p for a in ok for p in checks.check_expansion(a)]
    by_name = instances(workload, seed)
    problems = [p for a in ok for p in checks.check_ranked(by_name[a["name"]], a)]
    if workload == "small":
        problems += checks.check_reference_tables({a["name"]: a for a in answers})
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the result line must be the last line on stdout, but HiGHS prints
    # from C during the checks: send everything else to stderr
    result_out = os.fdopen(os.dup(1), "w")
    sys.stdout.flush()
    os.dup2(2, 1)
    if not (SRC / "hyperpath" / "__init__.py").is_file():
        sys.stderr.write(f"no hyperpath sources under {SRC}\n")
        return 2

    def set_up(n: int) -> list[float]:
        if args.trace:
            return []
        return [run_worker(args.workload, args.seed, "--setup-only")["setup_s"] for _ in range(n)]

    # half of the set-up-only interpreters run before the rounds and half
    # after, so that their median spans the machine's drift over the run
    setups = set_up(SETUP_ONLY_ROUNDS // 2)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        extra = []
        if args.trace:
            TRACE_DIR.mkdir(exist_ok=True)
            name = f"trace-{args.workload}-seed{args.seed}-round{len(rounds) + 1}.json"
            extra = ["--trace-out", str(TRACE_DIR / name)]
        rounds.append(run_worker(args.workload, args.seed, *extra))
    setups += set_up(SETUP_ONLY_ROUNDS - SETUP_ONLY_ROUNDS // 2)

    first = rounds[0]["answers"]
    problems = check(args.workload, args.seed, first)
    for i, r in enumerate(rounds[1:], start=2):
        if r["answers"] != first:
            problems.append(f"round {i} answered differently from round 1")
    for p in problems[:20]:
        sys.stderr.write(f"CHECK FAILED: {p}\n")
    answers = [a for r in rounds for a in r["answers"]]
    failed = [a for a in answers if "error" in a]
    for a in {a["name"]: a for a in failed}.values():
        sys.stderr.write(f"operation failed: {a['name']}: {a['error']}\n")

    if args.trace:
        units = tracing.PER_LAYER
        values = {
            name: statistics.median(r["per_layer"][name] for r in rounds) for name in units
        }
    else:
        units = END_TO_END
        op_ms = [t * 1000.0 for r in rounds for t in r["op_s"]]
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "work_s": statistics.median(sum(r["op_s"]) for r in rounds),
            "op_p50_ms": statistics.median(op_ms),
            "op_p99_ms": percentile(op_ms, 99),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    result = {
        "correct": not problems,
        "attempted": len(answers),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), file=result_out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
