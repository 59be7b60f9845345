"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``hyperpath`` module in
every ``hyperpath`` module namespace that holds them, so calls made inside
the package are seen too.  Each call becomes a span (name, start, end,
parent) kept in memory; a few calls also add counts.  ``metrics`` turns the
spans and counts into the per-layer figures, where a layer's self time is its
spans' time minus the time of their child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) of every wrapped function; "Class.method" for methods
TRACED = (
    ("molgraph", "parse_molecules"),
    ("molgraph", "parse_molecule"),
    ("molgraph", "canonical_form"),
    ("rewrite", "find_matches"),
    ("rewrite", "apply_rule"),
    ("netcore", "Hypergraph.add_molecule"),
    ("netcore", "Hypergraph.add_reaction"),
    ("netcore", "Hypergraph.to_json"),
    ("netcore", "Hypergraph.from_json"),
    ("kinetics", "load_barriers"),
    ("kinetics", "objective_coefficients"),
    ("pathopt", "build_model"),
    ("pathopt", "add_cut"),
    ("solve", "simplex_solve"),
    ("solve", "branch_and_bound"),
    ("solve", "enumerate_pathways"),
)

#: every per-layer metric, with its unit, in report order
PER_LAYER = {
    "molgraph.canon_calls": "count",
    "molgraph.canon_unique": "count",
    "molgraph.canon_s": "s",
    "molgraph.parse_s": "s",
    "rewrite.match_calls": "count",
    "rewrite.matches": "count",
    "rewrite.match_s": "s",
    "rewrite.apply_calls": "count",
    "rewrite.apply_rejected": "count",
    "rewrite.apply_self_s": "s",
    "rewrite.admitted_ratio": "ratio",
    "netcore.add_molecule_calls": "count",
    "netcore.add_reaction_calls": "count",
    "netcore.load_s": "s",
    "kinetics.weights_s": "s",
    "pathopt.build_calls": "count",
    "pathopt.cut_calls": "count",
    "pathopt.build_s": "s",
    "pathopt.model_vars": "count",
    "pathopt.model_rows": "count",
    "solve.lp_calls": "count",
    "solve.lp_s": "s",
    "solve.lp_infeasible": "count",
    "solve.lp_pinned_calls": "count",
    "solve.lp_pinned_s": "s",
    "solve.bb_calls": "count",
    "solve.bb_nodes": "count",
    "solve.bb_overhead_s": "s",
    "solve.ranks": "count",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self.canon_seen: set = set()
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _observe(self, name: str, args, result, error):
        """Counts that need a call's arguments or outcome."""
        if name == "canonical_form":
            self.canon_seen.add(args[0])
        elif name == "find_matches" and error is None:
            self.count("matches", len(result))
        elif name == "apply_rule" and error is not None:
            if type(error).__name__ == "RuleApplicationError":
                self.count("apply_rejected")
        elif name == "build_model" and error is None:
            self.counts["model_vars"] = max(self.counts.get("model_vars", 0), len(result.variables))
            self.counts["model_rows"] = max(self.counts.get("model_rows", 0), len(result.rows))
        elif name == "simplex_solve" and error is None:
            if result.status == "infeasible":
                self.count("lp_infeasible")
        elif name == "branch_and_bound":
            nodes = getattr(error if error is not None else result, "nodes", 0)
            self.count("bb_nodes", nodes)
        elif name == "enumerate_pathways" and error is None:
            self.count("ranks", len(result.solutions))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.names)
            span_name = name
            # LP solves that carry extra rows are the objective-pinned ones
            # of support canonicalization
            if name == "simplex_solve":
                extra = args[2] if len(args) > 2 else kwargs.get("extra_rows", ())
                if extra:
                    span_name = "simplex_solve_pinned"
            self.names.append(span_name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(span)
            self.starts.append(time.perf_counter())
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.ends[span] = time.perf_counter()
                self._stack.pop()
                self._observe(name, args, result, error)

        return traced

    def install(self):
        """Wrap every traced function wherever ``hyperpath`` holds it."""
        import hyperpath.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sys.modules.items() if n == "hyperpath" or n.startswith("hyperpath.")]
        for mod_name, attr in TRACED:
            module = sys.modules[f"hyperpath.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(meth, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(meth, raw))
                continue
            original = getattr(module, attr)
            traced = self.wrap(attr, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)

    # -- reporting -----------------------------------------------------------

    def _durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def calls(self, *names: str) -> int:
        wanted = set(names)
        return sum(1 for n in self.names if n in wanted)

    def group_time(self, *names: str) -> float:
        """Wall time inside any of ``names``, counting nested calls once."""
        wanted = set(names)
        durations = self._durations()
        total = 0.0
        for i, n in enumerate(self.names):
            if n not in wanted:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in wanted:
                p = self.parents[p]
            if p < 0:
                total += durations[i]
        return total

    def self_time(self, *names: str) -> float:
        """Time inside ``names`` minus the time of their direct child spans."""
        wanted = set(names)
        durations = self._durations()
        total = sum((d for n, d in zip(self.names, durations) if n in wanted), 0.0)
        for i, p in enumerate(self.parents):
            if p >= 0 and self.names[p] in wanted:
                total -= durations[i]
        return total

    def metrics(self) -> dict[str, float]:
        c = self.counts.get
        applied = self.calls("apply_rule") - c("apply_rejected", 0)
        reactions = self.calls("add_reaction")
        values = {
            "molgraph.canon_calls": self.calls("canonical_form"),
            "molgraph.canon_unique": len(self.canon_seen),
            "molgraph.canon_s": self.group_time("canonical_form"),
            "molgraph.parse_s": self.group_time("parse_molecules", "parse_molecule"),
            "rewrite.match_calls": self.calls("find_matches"),
            "rewrite.matches": c("matches", 0),
            "rewrite.match_s": self.group_time("find_matches"),
            "rewrite.apply_calls": self.calls("apply_rule"),
            "rewrite.apply_rejected": c("apply_rejected", 0),
            "rewrite.apply_self_s": self.self_time("apply_rule"),
            "rewrite.admitted_ratio": reactions / applied if applied else 0.0,
            "netcore.add_molecule_calls": self.calls("add_molecule"),
            "netcore.add_reaction_calls": reactions,
            "netcore.load_s": self.group_time("add_molecule", "add_reaction", "to_json", "from_json"),
            "kinetics.weights_s": self.group_time("load_barriers", "objective_coefficients"),
            "pathopt.build_calls": self.calls("build_model"),
            "pathopt.cut_calls": self.calls("add_cut"),
            "pathopt.build_s": self.group_time("build_model", "add_cut"),
            "pathopt.model_vars": c("model_vars", 0),
            "pathopt.model_rows": c("model_rows", 0),
            "solve.lp_calls": self.calls("simplex_solve", "simplex_solve_pinned"),
            "solve.lp_s": self.group_time("simplex_solve", "simplex_solve_pinned"),
            "solve.lp_infeasible": c("lp_infeasible", 0),
            "solve.lp_pinned_calls": self.calls("simplex_solve_pinned"),
            "solve.lp_pinned_s": self.group_time("simplex_solve_pinned"),
            "solve.bb_calls": self.calls("branch_and_bound"),
            "solve.bb_nodes": c("bb_nodes", 0),
            "solve.bb_overhead_s": self.self_time("branch_and_bound"),
            "solve.ranks": c("ranks", 0),
        }
        assert list(values) == list(PER_LAYER)
        return values

    def dump(self, path) -> None:
        """Write every span and count as JSON (times relative to the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        data = {
            "spans": [
                [n, round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
