"""Pathway queries compiled to integer linear programs over hyperflows.

A query fixes how much of each source may enter, how much of each target
must leave, and what may leak out as byproducts.  The compiled model has one
integer flow variable per edge, one binary use indicator per edge, exchange
variables for the vertices the query mentions, exact conservation rows for
every vertex, and big-M rows tying indicators to flows.  Costs come from the
barrier-derived edge weights, so the optimum is the kinetically favored
pathway; indicator cuts support enumerating alternatives.
"""
from __future__ import annotations

import math
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
        """Inverse of to_json; a range may be a {"min","max"} object or a [lo, hi] pair."""
        if not isinstance(data, dict):
            raise ValueError("query document must be a JSON object")

        def as_range(label: str, vid, raw) -> tuple[int, int]:
            try:
                if isinstance(raw, dict):
                    return int(raw["min"]), int(raw["max"])
                lo, hi = raw
                return int(lo), int(hi)
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"query {label}: bad range for vertex {vid!r}") from None

        def ranges(label: str) -> dict[int, tuple[int, int]]:
            block = data.get(label) or {}
            if not isinstance(block, dict):
                raise ValueError(f"query {label}: expected an object of vertex ranges")
            return {int(v): as_range(label, v, r) for v, r in block.items()}

        byproducts = data.get("byproducts") or {}
        if not isinstance(byproducts, dict):
            raise ValueError("query byproducts: expected an object of vertex caps")
        try:
            forbidden = tuple(int(e) for e in data.get("forbidden_edges") or ())
        except (TypeError, ValueError):
            raise ValueError("query forbidden_edges: expected a list of edge ids") from None
        return cls(
            sources=ranges("sources"),
            targets=ranges("targets"),
            allowed_byproducts={int(v): int(c) for v, c in byproducts.items()},
            forbidden_edges=forbidden,
            flow_cap=int(data.get("flow_cap", DEFAULT_FLOW_CAP)),
            total_inflow_max=(
                int(data["total_inflow_max"]) if data.get("total_inflow_max") is not None else None
            ),
            maximize_outflow=(
                int(data["maximize_outflow"]) if data.get("maximize_outflow") is not None else None
            ),
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

    ``integers`` and ``binaries`` name the integral variables; both are
    empty in a continuous relaxation.  ``flow_keys`` maps each flow and
    exchange variable to its hyperflow key.
    """

    variables: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    rows: tuple[Row, ...]
    objective: dict[str, float]
    sense: str  # "min" or "max"
    integers: frozenset[str] = frozenset()
    binaries: frozenset[str] = frozenset()
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

    Rows appear in a fixed order: conservation for every vertex by id, the
    two indicator-linking rows per edge by id, the optional total-inflow cap,
    then the cuts in the order given.
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
    cap = q.flow_cap

    variables: list[str] = []
    bounds: dict[str, tuple[float, float]] = {}
    flow_keys: dict[str, object] = {}
    for e in h.edges:
        name = flow_var(e.id)
        variables.append(name)
        bounds[name] = (0, 0) if e.id in forbidden else (0, cap)
        flow_keys[name] = e.id
    for e in h.edges:
        name = indicator_var(e.id)
        variables.append(name)
        bounds[name] = (0, 0) if e.id in forbidden else (0, 1)

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
    for e in h.edges:
        rows.append(
            Row(f"link_up_e{e.id}", {flow_var(e.id): 1.0, indicator_var(e.id): -float(cap)}, "<=", 0.0)
        )
        rows.append(
            Row(f"link_lo_e{e.id}", {indicator_var(e.id): 1.0, flow_var(e.id): -1.0}, "<=", 0.0)
        )
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
        integers=frozenset(
            [flow_var(e.id) for e in h.edges] + [name for name, _, _ in half_bounds]
        ),
        binaries=frozenset(indicator_var(e.id) for e in h.edges),
        flow_keys=flow_keys,
    )
    for cut in cuts:
        compiled = add_cut(compiled, cut)
    return compiled


def add_cut(model: IlpModel, support: "frozenset[int] | set[int] | list[int]") -> IlpModel:
    """Copy of the model with one more row: its solutions may not use all
    edges of ``support`` together."""
    cut = frozenset(int(e) for e in support)
    if not cut:
        raise ValueError("an exclusion cut needs at least one edge")
    edges = sorted(cut)
    for eid in edges:
        if indicator_var(eid) not in model.binaries:
            raise ValueError(f"cut references unknown edge {eid}")
    coeffs = {indicator_var(eid): 1.0 for eid in edges}
    row = Row(f"cut_{len(model.cuts)}", coeffs, "<=", float(len(cut) - 1))
    return replace(model, rows=model.rows + (row,), cuts=model.cuts + (cut,))


def relax(model: IlpModel) -> IlpModel:
    """Drop integrality, indicators, and every row that mentions one (linking
    rows and cuts); keep conservation and query rows with continuous flow and
    exchange variables."""
    keep_vars = tuple(name for name in model.variables if name not in model.binaries)
    rows = tuple(row for row in model.rows if model.binaries.isdisjoint(row.coeffs))
    objective = {n: c for n, c in model.objective.items() if n in set(keep_vars)}
    return IlpModel(
        variables=keep_vars,
        bounds={n: (float(model.bounds[n][0]), float(model.bounds[n][1])) for n in keep_vars},
        rows=rows,
        objective=objective,
        sense=model.sense,
        flow_keys=dict(model.flow_keys),
    )


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


def export_lp_text(model: IlpModel) -> str:
    """Serialize a model in LP text format with a stable layout.

    The layout is deterministic, so exporting the same model twice yields
    byte-identical text.
    """
    out: list[str] = []
    out.append("Maximize" if model.sense == "max" else "Minimize")
    out.append(f" obj: {_terms(model.objective, model.variables)}")
    out.append("Subject To")
    for row in model.rows:
        out.append(f" {row.name}: {_terms(row.coeffs, model.variables)} {row.sense} {_fmt(row.rhs)}")
    out.append("Bounds")
    for name in model.variables:
        lo, hi = model.bounds[name]
        if lo == hi:
            out.append(f" {name} = {_fmt(lo)}")
        elif math.isinf(hi):
            out.append(f" {name} >= {_fmt(lo)}")
        else:
            out.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    if model.integers:
        out.append("Generals")
        out.append(" " + " ".join(n for n in model.variables if n in model.integers))
    if model.binaries:
        out.append("Binaries")
        out.append(" " + " ".join(n for n in model.variables if n in model.binaries))
    out.append("End")
    return "\n".join(out) + "\n"
