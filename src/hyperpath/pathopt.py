"""Pathway queries compiled to integer linear programs over hyperflows.

A query fixes how much of each source may enter, how much of each target
must leave, and what may leak out as byproducts.  ``build_model`` compiles
it, edge by edge, into one model held as arrays: one integer flow column per
edge, exchange columns for the vertices the query mentions, a dense matrix
of rows bounded as the columns are, and a cost vector.  The
search, the exhaustive oracle and the LP export all read these arrays.
Costs are the barrier-derived edge costs, so the optimum is the
kinetically favored pathway.  Cuts, which enumerate alternatives, are
edge-id sets that no solution may use all of.  The LP export alone writes
the indicator form of an integer model: one binary use indicator per edge,
big-M rows tying it to the edge's flow, and each cut as a row over
indicators.  numpy is imported by ``build_model``, not by this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .netcore import Hypergraph, is_json_id, is_json_integer

if TYPE_CHECKING:
    import numpy as np

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
        if self.total_inflow_max is not None and self.total_inflow_max < 0:
            raise ValueError(f"negative total_inflow_max {self.total_inflow_max}")
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

        def integer(label: str, raw) -> int:
            if not is_json_integer(raw):
                raise ValueError(f"query {label}: expected an integer, not {raw!r}")
            return raw

        def as_range(label: str, vid, raw) -> tuple[int, int]:
            pair = (raw.get("min"), raw.get("max")) if isinstance(raw, dict) else raw
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(is_json_integer, pair))):
                raise ValueError(f"query {label}: bad range for vertex {vid!r}")
            return pair[0], pair[1]

        def block(label: str, expected: str) -> dict:
            raw = data.get(label)
            if raw is None:
                return {}
            if not isinstance(raw, dict):
                raise ValueError(f"query {label}: expected an object of {expected}")
            for key in raw:
                if not is_json_id(key):
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


def flow_var(edge_id: int) -> str:
    return f"f_{edge_id}"


def indicator_var(edge_id: int) -> str:
    return f"z_{edge_id}"


def inflow_var(vertex_id: int) -> str:
    return f"in_{vertex_id}"


def outflow_var(vertex_id: int) -> str:
    return f"out_{vertex_id}"


@dataclass(frozen=True, eq=False)  # arrays do not compare to one bool
class IlpModel:
    """A pathway model as arrays.

    Column j is named ``variables[j]``, carries the hyperflow key
    ``keys[j]`` and lies within ``lo[j], hi[j]``.  A built model's columns
    are the flows of edges 0, 1, ... (column e is edge e, keyed e), then the
    exchange variables, keyed ("in", v) or ("out", v).  Row i, named
    ``rows[i]``, asks ``A[i] @ x`` to lie within ``row_lo[i], row_hi[i]``;
    a row with two finite bounds has equal ones.  The objective ``cost @ x``
    is minimized or maximized by ``sense``.  ``integral`` says every column
    is integral; the continuous relaxation clears it, and only
    ``simplex_solve`` takes such a model.  ``flow_cap`` is the query's
    per-edge flow cap, the big-M of the indicator form that
    ``export_lp_text`` writes, and ``cuts`` are edge-id sets that no
    solution may use all of.
    """

    variables: tuple[str, ...]
    keys: tuple
    lo: np.ndarray
    hi: np.ndarray
    A: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray
    rows: tuple[str, ...]
    cost: np.ndarray
    sense: str  # "min" or "max"
    flow_cap: int | None = None
    integral: bool = True
    cuts: tuple[frozenset[int], ...] = ()


def build_model(h: Hypergraph, costs: dict[int, float], q: PathwayQuery) -> IlpModel:
    """Compile a query against a hypergraph with ``{edge_id: cost}`` edge
    costs, with no cuts.

    Columns are the flows by edge id, then the exchange variables.  Rows
    are conservation for every vertex by id, bounded 0 and 0, then the
    optional total-inflow cap, bounded -inf and ``total_inflow_max``.
    ``add_cut`` adds cuts.
    """
    import numpy as np  # here, so that importing this module does not load numpy

    n_vertices = len(h.vertices)
    for vid in list(q.sources) + list(q.targets) + list(q.allowed_byproducts):
        if not (0 <= vid < n_vertices):
            raise ValueError(f"query references unknown vertex {vid}")
    for eid in q.forbidden_edges:
        if not (0 <= eid < len(h.edges)):
            raise ValueError(f"query forbids unknown edge {eid}")
    missing = [e.id for e in h.edges if e.id not in costs]
    if missing:
        raise ValueError(f"weights missing for edges {missing}")

    forbidden = set(q.forbidden_edges)
    # (name, low, high, key) of each column
    columns = [(flow_var(e.id), 0, 0 if e.id in forbidden else q.flow_cap, e.id) for e in h.edges]
    columns += [(inflow_var(v), lo, hi, ("in", v)) for v, (lo, hi) in sorted(q.sources.items())]
    columns += [(outflow_var(v), lo, hi, ("out", v)) for v, (lo, hi) in sorted(q.targets.items())]
    columns += [(outflow_var(v), 0, cap, ("out", v)) for v, cap in sorted(q.allowed_byproducts.items())]
    keys = tuple(key for *_, key in columns)

    rows = [f"conserve_v{v.id}" for v in h.vertices]
    if q.total_inflow_max is not None:
        rows.append("total_inflow")
    A = np.zeros((len(rows), len(columns)))
    for e in h.edges:
        for vid, mult in e.reactants.items():
            A[vid, e.id] -= mult
        for vid, mult in e.products.items():
            A[vid, e.id] += mult
    for j, key in enumerate(keys[len(h.edges):], start=len(h.edges)):
        A[key[1], j] = 1.0 if key[0] == "in" else -1.0
    row_lo, row_hi = np.zeros(len(rows)), np.zeros(len(rows))
    if q.total_inflow_max is not None:
        A[-1, len(h.edges):len(h.edges) + len(q.sources)] = 1.0
        row_lo[-1], row_hi[-1] = -math.inf, q.total_inflow_max

    cost = np.zeros(len(columns))
    if q.maximize_outflow is not None:
        cost[keys.index(("out", q.maximize_outflow))] = 1.0
    else:
        cost[:len(h.edges)] = [costs[e.id] for e in h.edges]

    return IlpModel(
        variables=tuple(name for name, *_ in columns),
        keys=keys,
        lo=np.array([lo for _, lo, _, _ in columns], dtype=float),
        hi=np.array([hi for _, _, hi, _ in columns], dtype=float),
        A=A,
        row_lo=row_lo,
        row_hi=row_hi,
        rows=tuple(rows),
        cost=cost,
        sense="min" if q.maximize_outflow is None else "max",
        flow_cap=q.flow_cap,
    )


def add_cut(model: IlpModel, support: "frozenset[int] | set[int] | list[int]") -> IlpModel:
    """Copy of the model with one more cut: its solutions may not use all
    edges of ``support`` together."""
    cut = frozenset(int(e) for e in support)
    if not cut:
        raise ValueError("an exclusion cut needs at least one edge")
    unknown = sorted(cut.difference(key for key in model.keys if isinstance(key, int)))
    if unknown:
        raise ValueError(f"cut references unknown edge {unknown[0]}")
    return replace(model, cuts=model.cuts + (cut,))


def relax(model: IlpModel) -> IlpModel:
    """The continuous relaxation: no integral columns and no cuts."""
    return replace(model, integral=False, cuts=())


# ---------------------------------------------------------------------------
# LP text export


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".12g")


def _terms(pairs: list[tuple[float, str]], first: str) -> str:
    """``c name`` terms joined by their signs, zeros left out; ``0 first``
    when every coefficient is zero."""
    text = " ".join(f"{'-' if c < 0 else '+'} {_fmt(abs(c))} {name}" for c, name in pairs if c)
    return text.removeprefix("+ ") or f"0 {first}"


def _sense(low: float, high: float) -> tuple[str, float]:
    """The LP-text sense and right-hand side of a row bounded by ``low`` and
    ``high``, one of them infinite unless they are equal."""
    if low == high:
        return "=", low
    return ("<=", high) if math.isinf(low) else (">=", low)


def export_lp_text(model: IlpModel) -> str:
    """Serialize a model in LP text format with a stable layout.

    An integer model built for a query is written in its indicator form:
    a use indicator ``z_e`` per edge after the flows, fixed at 0 where
    ``f_e`` is; the rows ``f_e <= cap·z_e`` and ``z_e <= f_e`` after the
    conservation rows, edge by edge; each cut as a row over its edges'
    indicators after the model's own rows; and the indicators as binaries.
    The layout is deterministic, so exporting the same model twice yields
    byte-identical text.
    """
    names = model.variables
    lo, hi = model.lo.tolist(), model.hi.tolist()
    bounded = zip(model.rows, model.A.tolist(), model.row_lo.tolist(), model.row_hi.tolist())
    rows = [(name, list(zip(coeffs, names)), *_sense(low, high)) for name, coeffs, low, high in bounded]
    bounds = list(zip(names, lo, hi))
    binaries: list[str] = []
    if model.integral and model.flow_cap is not None:
        edges = [key for key in model.keys if isinstance(key, int)]
        binaries = [indicator_var(eid) for eid in edges]
        cap = float(model.flow_cap)
        links = []
        for eid, f, z in zip(edges, names, binaries):
            links.append((f"link_up_e{eid}", [(1.0, f), (-cap, z)], "<=", 0.0))
            links.append((f"link_lo_e{eid}", [(-1.0, f), (1.0, z)], "<=", 0.0))
        cuts = [
            (f"cut_{i}", [(1.0, indicator_var(eid)) for eid in sorted(cut)], "<=", float(len(cut) - 1))
            for i, cut in enumerate(model.cuts)
        ]
        conserve = [row for row in rows if row[0].startswith("conserve_")]
        others = [row for row in rows if not row[0].startswith("conserve_")]
        rows = conserve + links + others + cuts
        bounds[len(edges):len(edges)] = [(z, 0, 0 if hi[e] == 0 else 1) for e, z in enumerate(binaries)]
    out: list[str] = []
    out.append("Maximize" if model.sense == "max" else "Minimize")
    out.append(f" obj: {_terms(list(zip(model.cost.tolist(), names)), names[0])}")
    out.append("Subject To")
    for name, pairs, sense, bound in rows:
        out.append(f" {name}: {_terms(pairs, names[0])} {sense} {_fmt(bound)}")
    out.append("Bounds")
    for name, low, high in bounds:
        if low == high:
            out.append(f" {name} = {_fmt(low)}")
        elif math.isinf(high):
            out.append(f" {name} >= {_fmt(low)}")
        else:
            out.append(f" {_fmt(low)} <= {name} <= {_fmt(high)}")
    if model.integral:
        out.append("Generals")
        out.append(" " + " ".join(names))
    if binaries:
        out.append("Binaries")
        out.append(" " + " ".join(binaries))
    out.append("End")
    return "\n".join(out) + "\n"
