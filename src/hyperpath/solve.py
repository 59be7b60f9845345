"""Exact solvers for the pathway models.

``simplex_solve`` is a dense two-phase tableau simplex with Bland's rule.
``branch_and_bound`` searches in flow space: it drops the use indicators and
their linking rows, keeps the flows and exchange variables integral, and
wraps the simplex in a depth-first search over their bounds.  A cut ("not
every edge of S") is not a row there: an integral leaf that uses every edge
of S becomes partition branches, one per edge of S (Lawler's k-best
partition).  The optimum is then canonicalized to the lexicographically
smallest optimal support, so repeated runs and enumeration are
deterministic, and reported on the full model with each indicator set to
whether its edge carries flow.  It raises ``SolverError`` when an LP
relaxation ends numerically or when the canonical support admits no optimum,
rather than report a support it could not confirm.
``enumerate_pathways`` peels off structurally distinct optima, each found
support becoming a cut of the next search, and ``brute_force`` is an
independent exhaustive oracle over the full indicator model for small models.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .pathopt import IlpModel, Row, add_cut, flow_var, indicator_var, relax

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
INTEGRALITY_TOL = 1e-6
DEFAULT_NODE_LIMIT = 10_000_000


class NodeLimitExceeded(Exception):
    """Search exhausted its node budget before proving an optimum."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"branch and bound node limit reached after {nodes} nodes")


class SolverError(RuntimeError):
    """The search cannot confirm an optimum: an LP relaxation ended in a
    status it cannot act on, or the canonical support admits no optimum."""


@dataclass
class LpSolution:
    status: str  # optimal, infeasible, unbounded or numerical
    objective: float | None = None
    values: dict[str, float] | None = None


def _pivot(T: np.ndarray, b: np.ndarray, basis: list[int], i: int, j: int) -> None:
    """Make column ``j`` basic in row ``i``, updating the tableau in place."""
    pivot = T[i, j]
    T[i] /= pivot
    b[i] /= pivot
    factors = T[:, j].copy()
    factors[i] = 0.0
    T -= np.outer(factors, T[i])
    b -= factors * b[i]
    basis[i] = j


def _run_simplex(T: np.ndarray, b: np.ndarray, basis: list[int], c: np.ndarray) -> str:
    """Minimize c over the tableau in place; Bland's rule in both choices."""
    scale = max(1.0, float(np.max(np.abs(c)))) if c.size else 1.0
    enter_tol = 1e-9 * scale
    for _ in range(200000):
        reduced = c - c[basis] @ T
        negative = np.nonzero(reduced < -enter_tol)[0]
        if negative.size == 0:
            return "optimal"
        j = int(negative[0])
        column = T[:, j]
        rows = np.nonzero(column > PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = b[rows] / column[rows]
        best = float(ratios.min())
        ties = rows[ratios <= best + 1e-12]
        _pivot(T, b, basis, int(min(ties, key=lambda r: basis[r])), j)
    return "numerical"


def simplex_solve(model, bound_overrides: dict | None = None, extra_rows: tuple = ()) -> LpSolution:
    """Solve the continuous relaxation of a model.

    ``bound_overrides`` replaces individual variable bounds and
    ``extra_rows`` appends constraint rows, both without touching the model.
    """
    names = list(model.variables)
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    lo = np.empty(n)
    hi = np.empty(n)
    for i, name in enumerate(names):
        l, h = model.bounds[name]
        if bound_overrides and name in bound_overrides:
            l, h = bound_overrides[name]
        lo[i], hi[i] = float(l), float(h)
    if np.any(lo > hi + 1e-12):
        return LpSolution("infeasible")

    rows = list(model.rows) + list(extra_rows)
    m0 = len(rows)
    A = np.zeros((m0, n))
    rhs = np.empty(m0)
    senses: list[str] = []
    for i, row in enumerate(rows):
        for var, coef in row.coeffs.items():
            A[i, index[var]] += coef
        rhs[i] = row.rhs
        senses.append(row.sense)

    # shift to y = x - lo >= 0; finite widths become explicit upper rows
    rhs = rhs - A @ lo
    width = hi - lo
    finite = [j for j in range(n) if math.isfinite(width[j])]
    upper = np.zeros((len(finite), n))
    for k, j in enumerate(finite):
        upper[k, j] = 1.0
    A = np.vstack([A, upper]) if finite else A
    rhs = np.concatenate([rhs, width[finite]])
    senses.extend("<=" for _ in finite)
    m = len(senses)

    slack_count = sum(1 for s in senses if s != "=")
    total = n + slack_count
    T = np.zeros((m, total))
    T[:, :n] = A
    slack_at = [-1] * m
    col = n
    for i, sense in enumerate(senses):
        if sense == "<=":
            T[i, col] = 1.0
            slack_at[i] = col
            col += 1
        elif sense == ">=":
            T[i, col] = -1.0
            slack_at[i] = col
            col += 1
    b = rhs.copy()
    for i in range(m):
        if b[i] < 0:
            T[i] *= -1.0
            b[i] *= -1.0

    basis = [-1] * m
    needs_artificial = []
    for i in range(m):
        if slack_at[i] >= 0 and T[i, slack_at[i]] > 0:
            basis[i] = slack_at[i]
        else:
            needs_artificial.append(i)

    if needs_artificial:
        art = np.zeros((m, len(needs_artificial)))
        for k, i in enumerate(needs_artificial):
            art[i, k] = 1.0
            basis[i] = total + k
        T = np.hstack([T, art])
        phase1 = np.zeros(T.shape[1])
        phase1[total:] = 1.0
        status = _run_simplex(T, b, basis, phase1)
        if status != "optimal":
            return LpSolution("numerical")
        if phase1[basis] @ b > 1e-7:
            return LpSolution("infeasible")
        for i in range(m):
            if basis[i] >= total:
                candidates = np.nonzero(np.abs(T[i, :total]) > 1e-9)[0]
                if candidates.size:
                    _pivot(T, b, basis, i, int(candidates[0]))
        keep = [i for i in range(m) if basis[i] < total]
        T = T[keep, :total]
        b = b[keep]
        basis = [basis[i] for i in keep]

    cost = np.zeros(T.shape[1])
    sign = 1.0 if model.sense == "min" else -1.0
    for name, coef in model.objective.items():
        cost[index[name]] += sign * coef
    status = _run_simplex(T, b, basis, cost)
    if status != "optimal":
        return LpSolution(status)

    y = np.zeros(T.shape[1])
    y[basis] = b
    x = y[:n] + lo

    # verify the claimed optimum actually satisfies what was asked
    values = {name: float(x[i]) for i, name in enumerate(names)}
    if any(_violates(row, values) for row in rows):
        return LpSolution("numerical")
    if np.any(x < lo - 1e-6) or np.any(x > hi + 1e-6):
        return LpSolution("numerical")

    objective = sum(coef * values[name] for name, coef in model.objective.items())
    return LpSolution("optimal", float(objective), values)


# ---------------------------------------------------------------------------
# Branch and bound


@dataclass
class IlpSolution:
    status: str  # optimal or infeasible
    objective: float | None = None
    values: dict[str, int] | None = None
    flow: dict | None = None
    indicator: dict[int, int] | None = None
    support: list[int] = field(default_factory=list)
    nodes: int = 0


class _Search:
    def __init__(self, limit: int):
        self.limit = limit
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise NodeLimitExceeded(self.nodes)


def _violates(row: Row, values: dict[str, float]) -> bool:
    total = sum(coef * values.get(var, 0) for var, coef in row.coeffs.items())
    tol = 1e-6 + 1e-9 * abs(row.rhs)
    if row.sense == "<=":
        return total > row.rhs + tol
    if row.sense == ">=":
        return total < row.rhs - tol
    return abs(total - row.rhs) > tol


def _cut_children(model, bounds: dict, cut: frozenset) -> list[dict]:
    """Lawler's partition of the solutions within ``bounds`` that do not use
    every edge of ``cut``: with the edges in id order, child i leaves edge i
    unused and uses every edge before it.  A child is left out when a pin
    already forces its unused edge to carry flow."""
    children = []
    used = dict(bounds)
    for eid in sorted(cut):
        name = flow_var(eid)
        lo, hi = used.get(name, model.bounds[name])
        if lo <= 0:
            children.append({**used, name: (0, 0)})
        used[name] = (max(lo, 1), hi)
    return children


def _dfs(
    model,
    overrides: dict,
    extra_rows: tuple,
    search: _Search,
    first_feasible: bool = False,
):
    """Depth-first bound search; returns (objective_int, values) or None.

    Branches on the most fractional integer variable (ties to the earliest
    model variable), exploring the floor side first.  An integral leaf that
    uses every edge of one of ``model.cuts`` (edge-id sets) is not accepted;
    it is replaced by that cut's partition children, first child explored
    first.
    """
    sign = 1.0 if model.sense == "min" else -1.0
    int_vars = [n for n in model.variables if n in model.integers]
    best_signed = math.inf
    best: tuple[float, dict[str, int]] | None = None
    stack = [dict(overrides)]
    while stack:
        bounds = stack.pop()
        search.tick()
        lp = simplex_solve(model, bounds, extra_rows)
        if lp.status == "infeasible":
            continue
        if lp.status != "optimal":
            raise SolverError(f"relaxation came back {lp.status}")
        prune_tol = 1e-6 + 1e-9 * abs(best_signed if best else 0.0)
        if best is not None and sign * lp.objective >= best_signed - prune_tol:
            continue
        branch_name = None
        worst = INTEGRALITY_TOL
        for name in int_vars:
            frac = abs(lp.values[name] - round(lp.values[name]))
            if frac > worst:
                worst = frac
                branch_name = name
        if branch_name is None:
            snapped = {name: int(round(v)) for name, v in lp.values.items()}
            if any(_violates(row, snapped) for row in list(model.rows) + list(extra_rows)):
                continue
            broken = next(
                (cut for cut in model.cuts if all(snapped[flow_var(eid)] >= 1 for eid in cut)), None
            )
            if broken is not None:
                stack.extend(reversed(_cut_children(model, bounds, broken)))
                continue
            exact = float(
                sum(coef * snapped.get(name, 0) for name, coef in model.objective.items())
            )
            if sign * exact < best_signed - 1e-12 or best is None:
                best_signed = sign * exact
                best = (exact, snapped)
                if first_feasible:
                    return best
            continue
        value = lp.values[branch_name]
        lo, hi = bounds.get(branch_name, model.bounds[branch_name])
        ceil_side = dict(bounds)
        ceil_side[branch_name] = (math.ceil(value), hi)
        floor_side = dict(bounds)
        floor_side[branch_name] = (lo, math.floor(value))
        stack.append(ceil_side)
        stack.append(floor_side)
    return best


def _support_bounds(model, edges: list[int], chosen: set[int], free_above: int | None) -> dict:
    """Pin flows to a support: at least 1 on chosen edges, 0 on the others up
    to ``free_above``."""
    bounds = {}
    for eid in edges:
        name = flow_var(eid)
        if eid in chosen:
            lo, hi = model.bounds[name]
            bounds[name] = (max(lo, 1), hi)
        elif free_above is None or eid <= free_above:
            bounds[name] = (0, 0)
    return bounds


def _finish(model: IlpModel, exact: float, values: dict[str, int], nodes: int) -> IlpSolution:
    """A solution of the full model: an edge's indicator is 1 exactly when
    the edge carries flow."""
    flow = model.flow_from_values(values)
    indicator = {key: int(value >= 1) for key, value in flow.items() if isinstance(key, int)}
    used = {indicator_var(eid): z for eid, z in indicator.items()}
    values = {name: used[name] if name in used else values[name] for name in model.variables}
    support = sorted(eid for eid, z in indicator.items() if z)
    return IlpSolution("optimal", exact, values, flow, indicator, support, nodes)


def branch_and_bound(model: IlpModel, node_limit: int = DEFAULT_NODE_LIMIT) -> IlpSolution:
    """Solve to optimality in flow space, then canonicalize the support.

    The search runs on the model without indicators, linking rows and cut
    rows, with its flows and exchange variables integral.  Indicator pins
    become flow bounds (z = 0 is f = 0, z = 1 is f >= 1), and each cut of
    ``model.cuts`` becomes partition branches at any integral leaf that uses
    all of its edges.  Among all optima the reported one uses the
    lexicographically smallest edge support: edges are admitted in
    ascending id order only when some optimum needs them given the
    decisions so far.  Raises SolverError when an LP relaxation ends
    numerically, or when no optimum is found on the support chosen this
    way (the feasibility tolerances disagree).
    """
    search = _Search(node_limit)
    flows = replace(relax(model), integers=model.integers, cuts=model.cuts)
    edges = sorted(key for key in model.flow_keys.values() if isinstance(key, int))
    raw = _dfs(flows, {}, (), search)
    if raw is None:
        return IlpSolution("infeasible", nodes=search.nodes)
    raw_objective = raw[0]

    eps = 1e-6 + 1e-9 * abs(raw_objective)
    if model.sense == "min":
        pin = Row("objective_pin", dict(model.objective), "<=", raw_objective + eps)
    else:
        pin = Row("objective_pin", dict(model.objective), ">=", raw_objective - eps)

    chosen: set[int] = set()
    tested: tuple[int, ...] | None = None
    for eid in edges:
        signature = tuple(sorted(chosen))
        if signature != tested:
            tested = signature
            exact_bounds = _support_bounds(flows, edges, chosen, free_above=None)
            if _dfs(flows, exact_bounds, (pin,), search, first_feasible=True):
                break
        with_edge = _support_bounds(flows, edges, chosen | {eid}, free_above=eid)
        if _dfs(flows, with_edge, (pin,), search, first_feasible=True):
            chosen.add(eid)

    final_bounds = _support_bounds(flows, edges, chosen, free_above=None)
    final = _dfs(flows, final_bounds, (pin,), search)
    if final is None:
        raise SolverError("no optimum has the canonical support that was found")
    return _finish(model, final[0], final[1], search.nodes)


@dataclass
class RankedPathways:
    solutions: list[IlpSolution]
    cuts: tuple[frozenset, ...] = ()


def enumerate_pathways(
    model: IlpModel, k: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> RankedPathways:
    """Best pathway first, then repeatedly forbid the found support and
    re-solve, yielding up to ``k`` structurally distinct solutions.

    Each found support is added to the model as a cut (``add_cut``).
    ``branch_and_bound`` does not solve the cuts as rows: in its flow-space
    search they become partition branches."""
    if k < 1:
        raise ValueError("need k >= 1 pathways")
    solutions: list[IlpSolution] = []
    cuts: list[frozenset] = []
    current = model
    for rank in range(1, k + 1):
        solution = branch_and_bound(current, node_limit)
        if solution.status != "optimal":
            break
        solutions.append(solution)
        if not solution.support:
            break
        cut = frozenset(solution.support)
        cuts.append(cut)
        if rank < k:
            current = add_cut(current, cut)
    return RankedPathways(solutions, tuple(cuts))


# ---------------------------------------------------------------------------
# Exhaustive oracle


def brute_force(model: IlpModel, grid_limit: int = 100_000_000) -> IlpSolution:
    """Independent reference solver: enumerate every integer assignment.

    Indicators are not enumerated; they are implied by the flows (an edge is
    used exactly when it carries flow), which matches the linking rows for
    any big-M of at least the flow cap.  Ties on the objective keep the
    lexicographically first assignment in model variable order.
    """
    free_names = [n for n in model.variables if not n.startswith("z_")]
    z_names = [n for n in model.variables if n.startswith("z_")]
    lows = []
    sizes = []
    for name in free_names:
        lo, hi = model.bounds[name]
        if not float(lo).is_integer() or not float(hi).is_integer():
            raise ValueError(f"non-integer bounds on {name}")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            return IlpSolution("infeasible")
        lows.append(lo)
        sizes.append(hi - lo + 1)
    total = 1
    for s in sizes:
        total *= s
    if total > grid_limit:
        raise ValueError(f"grid of {total} assignments exceeds the limit {grid_limit}")

    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    lows_arr = np.array(lows, dtype=np.int64).reshape(-1, 1)
    sizes_arr = np.array(sizes, dtype=np.int64).reshape(-1, 1)
    strides_arr = np.array(strides, dtype=np.int64).reshape(-1, 1)

    flow_of_z = {}
    for zn in z_names:
        flow_of_z[zn] = free_names.index(f"f_{zn[2:]}")
    z_lo = np.array([model.bounds[n][0] for n in z_names]).reshape(-1, 1)
    z_hi = np.array([model.bounds[n][1] for n in z_names]).reshape(-1, 1)
    z_from = np.array([flow_of_z[n] for n in z_names], dtype=np.int64)

    def row_vectors(row: Row):
        cf = np.zeros(len(free_names))
        cz = np.zeros(len(z_names))
        for var, coef in row.coeffs.items():
            if var.startswith("z_"):
                cz[z_names.index(var)] = coef
            else:
                cf[free_names.index(var)] = coef
        return cf, cz

    row_data = [(row_vectors(row), row.sense, row.rhs) for row in model.rows]
    obj_f, obj_z = row_vectors(Row("objective", dict(model.objective), "<=", 0.0))
    sign = 1.0 if model.sense == "min" else -1.0

    best_signed = math.inf
    best_column: np.ndarray | None = None
    chunk = 100_000
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        X = (idx[np.newaxis, :] // strides_arr) % sizes_arr + lows_arr
        Z = (X[z_from] >= 1).astype(np.int64) if z_names else np.zeros((0, len(idx)), np.int64)
        ok = np.ones(len(idx), dtype=bool)
        if z_names:
            ok &= np.all((Z >= z_lo) & (Z <= z_hi), axis=0)
        for (cf, cz), sense, rhs in row_data:
            value = cf @ X + (cz @ Z if z_names else 0.0)
            tol = 1e-9 * (1.0 + abs(rhs))
            if sense == "<=":
                ok &= value <= rhs + tol
            elif sense == ">=":
                ok &= value >= rhs - tol
            else:
                ok &= np.abs(value - rhs) <= tol
        if not ok.any():
            continue
        objective = sign * (obj_f @ X + (obj_z @ Z if z_names else 0.0))
        objective = np.where(ok, objective, math.inf)
        at = int(np.argmin(objective))
        if objective[at] < best_signed - 1e-12:
            best_signed = float(objective[at])
            best_column = np.concatenate([X[:, at], Z[:, at]]) if z_names else X[:, at]

    if best_column is None:
        return IlpSolution("infeasible", nodes=total)
    values = {name: int(best_column[i]) for i, name in enumerate(free_names)}
    values.update({name: int(best_column[len(free_names) + i]) for i, name in enumerate(z_names)})
    exact = float(sum(coef * values.get(name, 0) for name, coef in model.objective.items()))
    return _finish(model, exact, values, total)
