"""Exact solvers for the pathway models.

``simplex_solve`` is a dense two-phase tableau simplex with Bland's rule over
a model compiled to arrays.  ``branch_and_bound`` searches in flow space: it
drops the use indicators and their linking rows, keeps the flows and exchange
variables integral, and compiles that model once, so its depth-first search
nodes differ only in their bounds.  A cut ("not every edge of S") is not a
row there: an integral leaf that uses every edge of S becomes partition
branches, one per edge of S (Lawler's k-best partition).  The optimum is then
canonicalized, under an objective cutoff, to the lexicographically smallest
optimal support, so runs and enumeration are deterministic, and reported on
the full model with each indicator set to whether its edge carries flow.  It
raises ``SolverError`` when an LP relaxation ends numerically or when the
canonical support admits no optimum, rather than report a support it could
not confirm.  ``enumerate_pathways`` peels off structurally distinct optima,
each found support becoming a cut of the next search, and ``brute_force`` is
an independent exhaustive oracle over the full indicator model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pathopt import IlpModel, Row, add_cut, indicator_var, relax

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
    values: dict[str, float] | np.ndarray | None = None


@dataclass(frozen=True)
class _Program:
    """A model as arrays: rows ``A x`` against ``rhs`` with each sense as its
    slack's coefficient (+1 for <=, -1 for >=, 0 for =), bounds ``lo, hi``,
    objective (column, coefficient) terms in model order, integral columns,
    (edge id, flow column) pairs in id order and cuts as flow columns."""

    names: tuple[str, ...]
    A: np.ndarray
    slack: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    objective: tuple[tuple[int, float], ...]
    sign: float
    integral: np.ndarray
    edges: tuple[tuple[int, int], ...]
    cuts: tuple[np.ndarray, ...]


def _compile(model: IlpModel, integers=frozenset(), cuts=()) -> _Program:
    """``model`` as arrays, with ``integers`` integral and the edge-id sets ``cuts``."""
    names = model.variables
    index = {name: j for j, name in enumerate(names)}
    A = np.zeros((len(model.rows), len(names)))
    for i, row in enumerate(model.rows):
        for var, coef in row.coeffs.items():
            A[i, index[var]] += coef
    edges = sorted((key, index[n]) for n, key in model.flow_keys.items() if isinstance(key, int))
    column = dict(edges)
    return _Program(
        names,
        A,
        np.array([float((row.sense == "<=") - (row.sense == ">=")) for row in model.rows]),
        np.array([float(row.rhs) for row in model.rows]),
        np.array([float(model.bounds[name][0]) for name in names]),
        np.array([float(model.bounds[name][1]) for name in names]),
        tuple((index[name], coef) for name, coef in model.objective.items()),
        1.0 if model.sense == "min" else -1.0,
        np.array([j for j, name in enumerate(names) if name in integers], dtype=int),
        tuple(edges),
        tuple(np.array([column[eid] for eid in sorted(cut)]) for cut in cuts),
    )


def _violated(program: _Program, x: np.ndarray) -> bool:
    """Whether ``x`` breaks a row by more than 1e-6 + 1e-9·|rhs|."""
    excess = program.A @ x - program.rhs
    tol = 1e-6 + 1e-9 * np.abs(program.rhs)
    return bool((np.where(program.slack, program.slack * excess, np.abs(excess)) > tol).any())


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
    scale = max(1.0, float(np.abs(c).max())) if c.size else 1.0
    enter_tol = 1e-9 * scale
    for _ in range(200000):
        reduced = c - c[basis] @ T
        negative = (reduced < -enter_tol).nonzero()[0]
        if negative.size == 0:
            return "optimal"
        j = int(negative[0])
        column = T[:, j]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = b[rows] / column[rows]
        best = float(ratios.min())
        ties = rows[ratios <= best + 1e-12]
        _pivot(T, b, basis, int(min(ties, key=lambda r: basis[r])), j)
    return "numerical"


def simplex_solve(model: IlpModel | _Program, bounds: tuple | None = None) -> LpSolution:
    """Solve the continuous relaxation of a model.

    ``model`` is an ``IlpModel``, compiled on entry, whose values come back
    by name, or a compiled ``_Program``, whose values come back as an array
    in column order and whose bounds ``bounds = (lo, hi)`` may replace.
    """
    named = isinstance(model, IlpModel)
    program = _compile(model) if named else model
    lo, hi = (program.lo, program.hi) if bounds is None else bounds
    if (lo > hi + 1e-12).any():
        return LpSolution("infeasible")

    # shift to y = x - lo >= 0; finite widths become explicit upper rows
    n, m0 = lo.size, program.rhs.size
    width = hi - lo
    finite = np.isfinite(width).nonzero()[0]
    slack = np.concatenate([program.slack, np.ones(finite.size)])
    b = np.concatenate([program.rhs - program.A @ lo, width[finite]])
    flip = b < 0
    b[flip] *= -1.0
    # a row starts on its slack if the slack's coefficient is still +1, else on an artificial
    basic = np.where(flip, -slack, slack) > 0
    has_slack, needs_artificial = slack.nonzero()[0], (~basic).nonzero()[0]
    m, total = slack.size, n + has_slack.size
    slack_cols = n + np.arange(has_slack.size)
    artificial_cols = total + np.arange(needs_artificial.size)
    T = np.zeros((m, total + needs_artificial.size))
    T[:m0, :n] = program.A
    T[m0 + np.arange(finite.size), finite] = 1.0
    T[has_slack, slack_cols] = slack[has_slack]
    T[flip] *= -1.0
    T[needs_artificial, artificial_cols] = 1.0
    basis = np.empty(m, dtype=int)
    basis[has_slack] = slack_cols
    basis[needs_artificial] = artificial_cols
    basis = basis.tolist()

    if needs_artificial.size:
        phase1 = np.zeros(T.shape[1])
        phase1[total:] = 1.0
        status = _run_simplex(T, b, basis, phase1)
        if status != "optimal":
            return LpSolution("numerical")
        if phase1[basis] @ b > 1e-7:
            return LpSolution("infeasible")
        for i in range(m):
            if basis[i] >= total:
                candidates = (np.abs(T[i, :total]) > 1e-9).nonzero()[0]
                if candidates.size:
                    _pivot(T, b, basis, i, int(candidates[0]))
        keep = [i for i in range(m) if basis[i] < total]
        T = T[keep, :total]
        b = b[keep]
        basis = [basis[i] for i in keep]

    cost = np.zeros(T.shape[1])
    for j, coef in program.objective:
        cost[j] += program.sign * coef
    status = _run_simplex(T, b, basis, cost)
    if status != "optimal":
        return LpSolution(status)

    y = np.zeros(T.shape[1])
    y[basis] = b
    x = y[:n] + lo

    # verify the claimed optimum actually satisfies what was asked
    if _violated(program, x) or (x < lo - 1e-6).any() or (x > hi + 1e-6).any():
        return LpSolution("numerical")

    xs = x.tolist()
    objective = float(sum(coef * xs[j] for j, coef in program.objective))
    return LpSolution("optimal", objective, dict(zip(program.names, xs)) if named else x)


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


def _cut_children(lo: np.ndarray, hi: np.ndarray, cut: np.ndarray) -> list[tuple]:
    """Lawler's partition of the solutions within ``(lo, hi)`` that do not
    use every edge of ``cut`` (flow columns in edge-id order): child i leaves
    edge i unused and uses every edge before it.  A child is left out when a
    pin already forces its unused edge to carry flow."""
    children = []
    used = lo.copy()
    for j in cut:
        if used[j] <= 0:
            child_lo, child_hi = used.copy(), hi.copy()
            child_lo[j] = child_hi[j] = 0.0
            children.append((child_lo, child_hi))
        used[j] = max(used[j], 1.0)
    return children


def _dfs(program: _Program, root: tuple, search: _Search, cutoff=math.inf, first_feasible=False):
    """Depth-first search from the bounds ``root = (lo, hi)``; returns
    (objective, values as an array in column order) or None.

    Branches on the most fractional integral column (ties to the earliest),
    floor side first.  An integral leaf that uses every edge of one of
    ``program.cuts`` is replaced by that cut's partition children, first child
    explored first.  A leaf whose signed objective exceeds ``cutoff`` is not
    accepted, and a node is pruned once its LP bound exceeds it by more than
    the slack the simplex's pricing tolerance leaves in that bound.
    """
    sign = program.sign
    price_tol = 1e-9 * max([1.0] + [abs(coef) for _, coef in program.objective])
    best_signed = math.inf
    best: tuple[float, np.ndarray] | None = None
    stack = [root]
    while stack:
        lo, hi = stack.pop()
        search.tick()
        lp = simplex_solve(program, (lo, hi))
        if lp.status == "infeasible":
            continue
        if lp.status != "optimal":
            raise SolverError(f"relaxation came back {lp.status}")
        width = hi - lo
        if sign * lp.objective - price_tol * width[np.isfinite(width)].sum() > cutoff:
            continue
        prune_tol = 1e-6 + 1e-9 * abs(best_signed if best else 0.0)
        if best is not None and sign * lp.objective >= best_signed - prune_tol:
            continue
        x = lp.values
        integral = x[program.integral]
        frac = np.abs(integral - integral.round())
        if frac.size == 0 or frac.max() <= INTEGRALITY_TOL:
            snapped = x.round()
            if _violated(program, snapped):
                continue
            values = snapped.tolist()
            exact = float(sum(coef * values[j] for j, coef in program.objective))
            if sign * exact > cutoff:
                continue
            broken = next((cut for cut in program.cuts if (snapped[cut] >= 1).all()), None)
            if broken is not None:
                stack.extend(reversed(_cut_children(lo, hi, broken)))
                continue
            if sign * exact < best_signed - 1e-12 or best is None:
                best_signed = sign * exact
                best = (exact, snapped)
                if first_feasible:
                    return best
            continue
        j = program.integral[int(np.argmax(frac))]
        ceil_lo, floor_hi = lo.copy(), hi.copy()
        ceil_lo[j], floor_hi[j] = math.ceil(x[j]), math.floor(x[j])
        stack += [(ceil_lo, hi), (lo, floor_hi)]
    return best


def _support_bounds(program: _Program, chosen: set[int], free_above: int | None) -> tuple:
    """Pin flows to a support: at least 1 on chosen edges, 0 on the others up
    to ``free_above``."""
    lo, hi = program.lo.copy(), program.hi.copy()
    for eid, j in program.edges:
        if eid in chosen:
            lo[j] = max(lo[j], 1.0)
        elif free_above is None or eid <= free_above:
            lo[j] = hi[j] = 0.0
    return lo, hi


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

    The model without indicators, linking rows and cut rows is compiled
    once, with its flows and exchange variables integral; search nodes
    differ only in their bounds.  Indicator pins become flow bounds (z = 0
    is f = 0, z = 1 is f >= 1), and each cut of ``model.cuts`` becomes
    partition branches at any integral leaf that uses all of its edges.
    Among all optima, within 1e-6 + 1e-9·|objective| of the first search's
    (a cutoff the later searches apply), the reported one uses the
    lexicographically smallest edge support: edges are admitted in id order
    only when some optimum needs them given the decisions so far.  Raises
    SolverError when an LP relaxation ends numerically, or when no optimum
    is found on the support chosen this way.
    """
    search = _Search(node_limit)
    program = _compile(relax(model), model.integers, model.cuts)
    raw = _dfs(program, (program.lo, program.hi), search)
    if raw is None:
        return IlpSolution("infeasible", nodes=search.nodes)
    cutoff = program.sign * raw[0] + 1e-6 + 1e-9 * abs(raw[0])

    chosen: set[int] = set()
    tested: tuple[int, ...] | None = None
    for eid, _ in program.edges:
        signature = tuple(sorted(chosen))
        if signature != tested:
            tested = signature
            if _dfs(program, _support_bounds(program, chosen, None), search, cutoff, True):
                break
        if _dfs(program, _support_bounds(program, chosen | {eid}, eid), search, cutoff, True):
            chosen.add(eid)

    final = _dfs(program, _support_bounds(program, chosen, None), search, cutoff)
    if final is None:
        raise SolverError("no optimum has the canonical support that was found")
    values = dict(zip(program.names, map(int, final[1].tolist())))
    return _finish(model, final[0], values, search.nodes)


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
