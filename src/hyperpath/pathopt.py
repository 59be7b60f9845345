"""Pathway queries compiled to integer linear programs over hyperflows.

A query fixes how much of each source may enter, how much of each target
must leave, and what may leak out as byproducts.  The compiled model has one
integer flow variable per edge, exchange variables for the vertices the
query mentions, and exact conservation rows for every vertex.  Costs come
from the barrier-derived edge weights, so the optimum is the kinetically
favored pathway.  Cuts, which enumerate alternatives, are edge-id sets that
no solution may use all of.  The LP export alone writes the indicator form
of an integer model: one binary use indicator per edge, big-M rows tying it
to the edge's flow, and each cut as a row over indicators.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .kinetics import WeightModel
from .netcore import Hypergraph

DEFAULT_FLOW_CAP = 10


@dataclass(frozen=True)
class PathwayQuery:
    """What must flow in and out of the network.

    ``sources`` and ``targets`` map vertex ids to inclusive (min, max)
    exchange ranges; ``allowed_byproducts`` map vertex ids to a maximum
    allowed outflow.  ``total_inflow_max`` optionally caps the summed source
    inflow, and ``maximize_outflow`` switches the objective from minimizing
    weighted flow cost to maximizing the outflow of one target vertex.
    """

    sources: dict[int, tuple[int, int]] = field(default_factory=dict)
    targets: dict[int, tuple[int, int]] = field(default_factory=dict)
    allowed_byproducts: dict[int, int] = field(default_factory=dict)
    forbidden_edges: tuple[int, ...] = ()
    flow_cap: int = DEFAULT_FLOW_CAP
    total_inflow_max: int | None = None
    maximize_outflow: int | None = None

    def __post_init__(self):
        if self.flow_cap < 1:
            raise ValueError("flow cap must be at least 1")
        roles = list(self.sources) + list(self.targets) + list(self.allowed_byproducts)
        if len(roles) != len(set(roles)):
            raise ValueError("a vertex may appear in only one query role")
        for vid, (lo, hi) in list(self.sources.items()) + list(self.targets.items()):
            if not (0 <= lo <= hi):
                raise ValueError(f"bad exchange range ({lo}, {hi}) for vertex {vid}")
        for vid, cap in self.allowed_byproducts.items():
            if cap < 0:
                raise ValueError(f"negative byproduct cap for vertex {vid}")
        if self.maximize_outflow is not None:
            if self.maximize_outflow not in self.targets and self.maximize_outflow not in self.allowed_byproducts:
                raise ValueError("maximize_outflow must name a target or byproduct vertex")

    def to_json(self) -> dict:
        data: dict = {
            "sources": {str(v): {"min": lo, "max": hi} for v, (lo, hi) in sorted(self.sources.items())},
            "targets": {str(v): {"min": lo, "max": hi} for v, (lo, hi) in sorted(self.targets.items())},
            "byproducts": {str(v): cap for v, cap in sorted(self.allowed_byproducts.items())},
            "forbidden_edges": sorted(self.forbidden_edges),
            "flow_cap": self.flow_cap,
        }
        if self.total_inflow_max is not None:
            data["total_inflow_max"] = self.total_inflow_max
        if self.maximize_outflow is not None:
            data["maximize_outflow"] = self.maximize_outflow
        return data

    @classmethod
    def from_json(cls, data: dict) -> "PathwayQuery":
        """Inverse of to_json.  Every number must be a JSON integer of at most
        2**53 in magnitude (so that the solver's floats hold it exactly), a
        vertex id a decimal numeral without leading zeros, a range a
        {"min","max"} object or a [lo, hi] list, and ``forbidden_edges`` a
        list; anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("query document must be a JSON object")

        def is_integer(raw) -> bool:
            return isinstance(raw, int) and not isinstance(raw, bool) and abs(raw) <= 2**53

        def integer(label: str, raw) -> int:
            if not is_integer(raw):
                raise ValueError(f"query {label}: expected an integer, not {raw!r}")
            return raw

        def as_range(label: str, vid, raw) -> tuple[int, int]:
            pair = (raw.get("min"), raw.get("max")) if isinstance(raw, dict) else raw
            if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(is_integer, pair)):
                raise ValueError(f"query {label}: bad range for vertex {vid!r}")
            return pair[0], pair[1]

        def block(label: str, expected: str) -> dict:
            raw = data.get(label)
            if raw is None:
                return {}
            if not isinstance(raw, dict):
                raise ValueError(f"query {label}: expected an object of {expected}")
            for key in raw:
                if not re.fullmatch(r"0|[1-9][0-9]*", str(key)):  # "03" would alias "3"
                    raise ValueError(f"query {label}: bad vertex id {key!r}")
            return raw

        def ranges(label: str) -> dict[int, tuple[int, int]]:
            return {int(v): as_range(label, v, r) for v, r in block(label, "vertex ranges").items()}

        def optional(label: str) -> int | None:
            raw = data.get(label)
            return None if raw is None else integer(label, raw)

        forbidden = data.get("forbidden_edges")
        if forbidden is None:
            forbidden = []
        if not isinstance(forbidden, list):
            raise ValueError("query forbidden_edges: expected a list of edge ids")
        return cls(
            sources=ranges("sources"),
            targets=ranges("targets"),
            allowed_byproducts={
                int(v): integer(f"byproducts {v}", c)
                for v, c in block("byproducts", "vertex caps").items()
            },
            forbidden_edges=tuple(integer("forbidden_edges", e) for e in forbidden),
            flow_cap=integer("flow_cap", data.get("flow_cap", DEFAULT_FLOW_CAP)),
            total_inflow_max=optional("total_inflow_max"),
            maximize_outflow=optional("maximize_outflow"),
        )


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=" or "="
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "="):
            raise ValueError(f"bad row sense {self.sense!r}")


def flow_var(edge_id: int) -> str:
    return f"f_{edge_id}"


def indicator_var(edge_id: int) -> str:
    return f"z_{edge_id}"


def inflow_var(vertex_id: int) -> str:
    return f"in_{vertex_id}"


def outflow_var(vertex_id: int) -> str:
    return f"out_{vertex_id}"


@dataclass(frozen=True)
class IlpModel:
    """Variables, bounds, rows and objective of a pathway model.

    ``integers`` names the integral variables; it is empty in a continuous
    relaxation.  ``flow_cap`` is the query's per-edge flow cap, the big-M of
    the indicator form that ``export_lp_text`` writes.  ``flow_keys`` maps
    each flow and exchange variable to its hyperflow key, and ``cuts`` are
    edge-id sets that no solution may use all of.
    """

    variables: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    rows: tuple[Row, ...]
    objective: dict[str, float]
    sense: str  # "min" or "max"
    integers: frozenset[str] = frozenset()
    flow_cap: int | None = None
    flow_keys: dict[str, object] = field(default_factory=dict)
    cuts: tuple[frozenset[int], ...] = ()

    def flow_from_values(self, values: dict[str, float]) -> dict:
        """Convert solved variable values to a hyperflow dict with int values."""
        flow = {}
        for name, key in self.flow_keys.items():
            flow[key] = int(round(values.get(name, 0.0)))
        return flow


def build_model(
    h: Hypergraph,
    model: WeightModel,
    q: PathwayQuery,
    cuts: tuple[frozenset[int], ...] = (),
) -> IlpModel:
    """Compile a query against a weighted hypergraph.

    Variables are the flows by edge id, then the exchange variables.  Rows
    are conservation for every vertex by id, then the optional total-inflow
    cap.  The cuts are kept in the order given.
    """
    n_vertices = len(h.vertices)
    for vid in list(q.sources) + list(q.targets) + list(q.allowed_byproducts):
        if not (0 <= vid < n_vertices):
            raise ValueError(f"query references unknown vertex {vid}")
    for eid in q.forbidden_edges:
        if not (0 <= eid < len(h.edges)):
            raise ValueError(f"query forbids unknown edge {eid}")
    missing = [e.id for e in h.edges if e.id not in model.coeff]
    if missing:
        raise ValueError(f"weights missing for edges {missing}")

    forbidden = set(q.forbidden_edges)

    variables: list[str] = []
    bounds: dict[str, tuple[float, float]] = {}
    flow_keys: dict[str, object] = {}
    for e in h.edges:
        name = flow_var(e.id)
        variables.append(name)
        bounds[name] = (0, 0) if e.id in forbidden else (0, q.flow_cap)
        flow_keys[name] = e.id

    half_bounds: list[tuple[str, tuple[int, int], object]] = []
    for vid, (lo, hi) in sorted(q.sources.items()):
        half_bounds.append((inflow_var(vid), (lo, hi), ("in", vid)))
    for vid, (lo, hi) in sorted(q.targets.items()):
        half_bounds.append((outflow_var(vid), (lo, hi), ("out", vid)))
    for vid, cap_out in sorted(q.allowed_byproducts.items()):
        half_bounds.append((outflow_var(vid), (0, cap_out), ("out", vid)))
    for name, rng, key in half_bounds:
        variables.append(name)
        bounds[name] = rng
        flow_keys[name] = key

    has_in = {vid for vid in q.sources}
    has_out = set(q.targets) | set(q.allowed_byproducts)

    rows: list[Row] = []
    for v in h.vertices:
        coeffs: dict[str, float] = {}
        for e in h.edges:
            net = e.products.get(v.id, 0) - e.reactants.get(v.id, 0)
            if net:
                coeffs[flow_var(e.id)] = float(net)
        if v.id in has_in:
            coeffs[inflow_var(v.id)] = 1.0
        if v.id in has_out:
            coeffs[outflow_var(v.id)] = -1.0
        rows.append(Row(f"conserve_v{v.id}", coeffs, "=", 0.0))
    if q.total_inflow_max is not None:
        coeffs = {inflow_var(vid): 1.0 for vid in sorted(q.sources)}
        rows.append(Row("total_inflow", coeffs, "<=", float(q.total_inflow_max)))

    if q.maximize_outflow is not None:
        objective = {outflow_var(q.maximize_outflow): 1.0}
        sense = "max"
    else:
        objective = {flow_var(e.id): model.coeff[e.id] for e in h.edges}
        sense = "min"

    compiled = IlpModel(
        variables=tuple(variables),
        bounds=bounds,
        rows=tuple(rows),
        objective=objective,
        sense=sense,
        integers=frozenset(variables),
        flow_cap=q.flow_cap,
        flow_keys=flow_keys,
    )
    for cut in cuts:
        compiled = add_cut(compiled, cut)
    return compiled


def add_cut(model: IlpModel, support: "frozenset[int] | set[int] | list[int]") -> IlpModel:
    """Copy of the model with one more cut: its solutions may not use all
    edges of ``support`` together."""
    cut = frozenset(int(e) for e in support)
    if not cut:
        raise ValueError("an exclusion cut needs at least one edge")
    unknown = sorted(cut.difference(key for key in model.flow_keys.values() if isinstance(key, int)))
    if unknown:
        raise ValueError(f"cut references unknown edge {unknown[0]}")
    return replace(model, cuts=model.cuts + (cut,))


def relax(model: IlpModel) -> IlpModel:
    """The continuous relaxation: no integral variables and no cuts."""
    return replace(model, integers=frozenset(), cuts=())


# ---------------------------------------------------------------------------
# LP text export


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".12g")


def _terms(coeffs: dict[str, float], variables: tuple[str, ...]) -> str:
    parts: list[str] = []
    for name in variables:
        if name not in coeffs or coeffs[name] == 0:
            continue
        c = coeffs[name]
        if not parts:
            parts.append(f"{_fmt(c)} {name}" if c >= 0 else f"- {_fmt(-c)} {name}")
        elif c >= 0:
            parts.append(f"+ {_fmt(c)} {name}")
        else:
            parts.append(f"- {_fmt(-c)} {name}")
    if not parts:
        return f"0 {variables[0]}"
    return " ".join(parts)


def _indicator_form(model: IlpModel) -> tuple[tuple[str, ...], dict, list[Row], list[str]]:
    """Variables, bounds, rows and binaries of an integer model with a use
    indicator ``z_e`` per edge.  The indicators follow the flows, and
    ``z_e`` is fixed at 0 where ``f_e`` is.  The rows ``f_e <= cap·z_e`` and
    ``z_e <= f_e`` follow the conservation rows, edge by edge, and each cut
    becomes a row over its edges' indicators after the model's own rows."""
    flows = [name for name in model.variables if isinstance(model.flow_keys.get(name), int)]
    binaries = [indicator_var(model.flow_keys[name]) for name in flows]
    exchange = [name for name in model.variables if not isinstance(model.flow_keys.get(name), int)]
    variables = tuple(flows + binaries + exchange)
    bounds = dict(model.bounds)
    links: list[Row] = []
    for f, z in zip(flows, binaries):
        bounds[z] = (0, 0) if model.bounds[f][1] == 0 else (0, 1)
        eid = model.flow_keys[f]
        links.append(Row(f"link_up_e{eid}", {f: 1.0, z: -float(model.flow_cap)}, "<=", 0.0))
        links.append(Row(f"link_lo_e{eid}", {z: 1.0, f: -1.0}, "<=", 0.0))
    conserve = [row for row in model.rows if row.name.startswith("conserve_")]
    others = [row for row in model.rows if not row.name.startswith("conserve_")]
    cuts = [
        Row(f"cut_{i}", {indicator_var(eid): 1.0 for eid in cut}, "<=", float(len(cut) - 1))
        for i, cut in enumerate(model.cuts)
    ]
    return variables, bounds, conserve + links + others + cuts, binaries


def export_lp_text(model: IlpModel) -> str:
    """Serialize a model in LP text format with a stable layout.

    An integer model built for a query is written in its indicator form,
    with the indicators as binaries.  The layout is deterministic, so
    exporting the same model twice yields byte-identical text.
    """
    variables, bounds, rows, binaries = model.variables, model.bounds, model.rows, []
    if model.integers and model.flow_cap is not None:
        variables, bounds, rows, binaries = _indicator_form(model)
    out: list[str] = []
    out.append("Maximize" if model.sense == "max" else "Minimize")
    out.append(f" obj: {_terms(model.objective, variables)}")
    out.append("Subject To")
    for row in rows:
        out.append(f" {row.name}: {_terms(row.coeffs, variables)} {row.sense} {_fmt(row.rhs)}")
    out.append("Bounds")
    for name in variables:
        lo, hi = bounds[name]
        if lo == hi:
            out.append(f" {name} = {_fmt(lo)}")
        elif math.isinf(hi):
            out.append(f" {name} >= {_fmt(lo)}")
        else:
            out.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    if model.integers:
        out.append("Generals")
        out.append(" " + " ".join(n for n in variables if n in model.integers))
    if binaries:
        out.append("Binaries")
        out.append(" " + " ".join(binaries))
    out.append("End")
    return "\n".join(out) + "\n"
