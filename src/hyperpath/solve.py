"""Exact solvers for the pathway models.

``simplex_solve`` is a dense-tableau bounded-variable simplex over a model
compiled to arrays: the tableau holds only the model's rows, each with a
logical column, and a nonbasic column sits at its lower or upper bound.  A
solve starts from the all-logical basis, or warm from an earlier solve's
final basis whose bounds contain its own; a dual simplex restores the
bounds, and a primal simplex finishes, both with Bland's rule.
``branch_and_bound`` searches in flow space: it drops the use indicators and
their linking rows, keeps the flows and exchange variables integral, and
compiles that model once, so its depth-first search nodes differ only in
their bounds, and each node re-solves from its parent's basis.  A cut ("not
every edge of S") is not a row there: an integral leaf that uses every edge
of S becomes partition branches, one per edge of S (Lawler's k-best
partition).  The optimum is then canonicalized, under an objective cutoff,
to the lexicographically smallest optimal support, so runs and enumeration
are deterministic, and reported on the full model with each indicator set to
whether its edge carries flow.  It raises ``SolverError`` when an LP
relaxation ends numerically or when the canonical support admits no optimum,
rather than report a support it could not confirm.  ``enumerate_pathways``
compiles once, solves the root LP cold once, and peels off structurally
distinct optima, each rank appending its support to the program's cuts, and
``brute_force`` is an independent exhaustive oracle over the full indicator model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .pathopt import IlpModel, Row, indicator_var, relax

PIVOT_TOL = 1e-10
INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-9  # how far a basic value may pass its bound
MAX_PIVOTS = 200_000  # iterations of either simplex loop within one solve
DEFAULT_NODE_LIMIT = 10_000_000


class NodeLimitExceeded(Exception):
    """Search exhausted its node budget before proving an optimum."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"branch and bound node limit reached after {nodes} nodes")


class SolverError(RuntimeError):
    """The search cannot confirm an optimum: an LP relaxation ended in a
    status it cannot act on, or the canonical support admits no optimum."""


class IterationLimit(SolverError):
    """A simplex loop ran ``MAX_PIVOTS`` iterations without finishing."""

    def __init__(self):
        super().__init__(f"simplex reached its iteration limit of {MAX_PIVOTS} iterations")


@dataclass(frozen=True)
class _Basis:
    """A solve's final tableau ``B⁻¹[A I]`` with the reduced costs as its last
    row, the basic column of each row, and which columns sit at their upper
    bound when nonbasic."""

    T: np.ndarray
    basic: np.ndarray
    upper: np.ndarray


@dataclass
class LpSolution:
    status: str  # optimal, infeasible, unbounded or numerical
    objective: float | None = None
    values: dict[str, float] | np.ndarray | None = None
    basis: _Basis | None = None  # the optimal basis, to warm-start tighter bounds from


@dataclass(frozen=True)
class _Program:
    """A model as arrays: rows ``A x`` against ``rhs``, each row's logical
    ``rhs - A x`` bounded by ``row_lo, row_hi`` (0 and inf for <=, -inf and 0
    for >=, 0 and 0 for =), bounds ``lo, hi``, objective (column,
    coefficient) terms in model order, the simplex's pricing tolerance,
    integral columns, (edge id, flow column) pairs in id order and cuts as
    flow columns."""

    names: tuple[str, ...]
    A: np.ndarray
    rhs: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    objective: tuple[tuple[int, float], ...]
    sign: float
    price_tol: float
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
        np.array([float(row.rhs) for row in model.rows]),
        np.array([-math.inf if row.sense == ">=" else 0.0 for row in model.rows]),
        np.array([math.inf if row.sense == "<=" else 0.0 for row in model.rows]),
        np.array([float(model.bounds[name][0]) for name in names]),
        np.array([float(model.bounds[name][1]) for name in names]),
        tuple((index[name], coef) for name, coef in model.objective.items()),
        1.0 if model.sense == "min" else -1.0,
        1e-9 * max([1.0] + [abs(coef) for coef in model.objective.values()]),
        np.array([j for j, name in enumerate(names) if name in integers], dtype=int),
        tuple(edges),
        tuple(np.array([column[eid] for eid in sorted(cut)]) for cut in cuts),
    )


def _violated(program: _Program, x: np.ndarray) -> bool:
    """Whether ``x`` breaks a row by more than 1e-6 + 1e-9·|rhs|."""
    logical = program.rhs - program.A @ x
    tol = 1e-6 + 1e-9 * np.abs(program.rhs)
    return bool(((logical < program.row_lo - tol) | (logical > program.row_hi + tol)).any())


def _pivot(T: np.ndarray, basic: np.ndarray, i: int, j: int) -> None:
    """Make column ``j`` basic in row ``i``, updating the tableau in place."""
    T[i] /= T[i, j]
    factors = T[:, j].copy()
    factors[i] = 0.0
    T -= np.outer(factors, T[i])
    basic[i] = j


def _dual(T: np.ndarray, x: np.ndarray, basic: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> str:
    """Dual simplex in place from a dual feasible basis until every basic
    value is within its bounds; Bland's rule: the out-of-bounds basic with
    the smallest column index leaves, the smallest index among ratio ties
    enters."""
    m = basic.size
    cost = T[m]
    for _ in range(MAX_PIVOTS):
        xb = x[basic]
        out = ((xb < lo[basic] - FEASIBILITY_TOL) | (xb > hi[basic] + FEASIBILITY_TOL)).nonzero()[0]
        if out.size == 0:
            return "optimal"
        r = int(out[np.argmin(basic[out])])
        q = basic[r]
        rise = x[q] < lo[q]
        bound = lo[q] if rise else hi[q]
        # moving column j by s changes the leaving value by -T[r, j]·s
        alpha = -T[r] if rise else T[r]
        movable = ((alpha > PIVOT_TOL) & (x < hi)) | ((alpha < -PIVOT_TOL) & (x > lo))
        entering = movable.nonzero()[0]
        if entering.size == 0:
            return "infeasible"
        ratios = np.abs(cost[entering] / alpha[entering])
        j = int(entering[(ratios <= ratios.min() + 1e-12).argmax()])
        step = (x[q] - bound) / T[r, j]
        x[basic] -= step * T[:m, j]
        x[j] += step
        x[q] = bound
        _pivot(T, basic, r, j)
    raise IterationLimit()


def _primal(T: np.ndarray, x: np.ndarray, basic: np.ndarray, lo, hi, tol: float) -> str:
    """Primal simplex in place from a primal feasible basis; Bland's rule:
    the smallest improving column enters, and it either moves to its other
    bound or the smallest basic column among ratio ties leaves."""
    m = basic.size
    cost = T[m]
    for _ in range(MAX_PIVOTS):
        improving = ((cost < -tol) & (x < hi)) | ((cost > tol) & (x > lo))
        entering = improving.nonzero()[0]
        if entering.size == 0:
            return "optimal"
        j = int(entering[0])
        up = cost[j] < 0
        # moving column j by t in its improving direction lowers the basic values by fall·t
        fall = T[:m, j] if up else -T[:m, j]
        xb = x[basic]
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(
                fall > PIVOT_TOL,
                (xb - lo[basic]) / fall,
                np.where(fall < -PIVOT_TOL, (xb - hi[basic]) / fall, np.inf),
            )
        room = np.maximum(room, 0.0)
        reach = min(float(room.min(initial=np.inf)), hi[j] - lo[j])
        if reach == np.inf:
            return "unbounded"
        x[basic] -= reach * fall
        if hi[j] - lo[j] <= reach:
            x[j] = hi[j] if up else lo[j]
            continue
        ties = (room <= reach + 1e-12).nonzero()[0]
        r = int(ties[np.argmin(basic[ties])])
        q = basic[r]
        x[j] += reach if up else -reach
        x[q] = lo[q] if fall[r] > 0 else hi[q]
        _pivot(T, basic, r, j)
    raise IterationLimit()


def simplex_solve(
    model: IlpModel | _Program, bounds: tuple | None = None, *, start: _Basis | None = None
) -> LpSolution:
    """Solve the continuous relaxation of a model.

    ``model`` is an ``IlpModel``, compiled on entry, whose values come back
    by name, or a compiled ``_Program``, whose values come back as an array
    in column order and whose bounds ``bounds = (lo, hi)`` may replace.

    Bounds stay out of the tableau, which has one row per model row.  Cold,
    the solve starts from the all-logical basis with each nonbasic column at
    the bound its cost favours; a column whose cost favours an infinite bound
    is priced at zero until the dual simplex ends.  Warm, it starts from
    ``start``, the basis of a solve of the same program whose bounds contain
    these: each nonbasic column moves to the same side of its new bounds, so
    the basis stays dual feasible.  The dual simplex then restores the
    basics' bounds, and the primal simplex prices out what is left.  The
    answer is checked against every row and bound; a solve that fails that
    check ends ``numerical``.  Raises ``IterationLimit`` when either loop
    runs ``MAX_PIVOTS`` iterations.
    """
    named = isinstance(model, IlpModel)
    program = _compile(model) if named else model
    lo, hi = (program.lo, program.hi) if bounds is None else bounds
    if (lo > hi + 1e-12).any():
        return LpSolution("infeasible")

    m, n = program.A.shape
    full_lo = np.concatenate([lo, program.row_lo])
    full_hi = np.concatenate([hi, program.row_hi])
    true_cost = None
    if start is None:
        T = np.zeros((m + 1, n + m))
        T[:m, :n] = program.A
        T[:m, n:] = np.eye(m)
        cost = T[m]
        for j, coef in program.objective:
            cost[j] += program.sign * coef
        upper = np.isfinite(full_hi) & ((cost < 0) | np.isneginf(full_lo))
        unplaced = ((cost < 0) & np.isposinf(full_hi)) | ((cost > 0) & np.isneginf(full_lo))
        if unplaced.any():
            true_cost = cost.copy()
            cost[unplaced] = 0.0
        basic = np.arange(n, n + m)
    else:
        T, basic, upper = start.T.copy(), start.basic.copy(), start.upper
    x = np.where(upper, full_hi, full_lo)
    x[~np.isfinite(x)] = 0.0  # a free nonbasic column sits at zero
    x[basic] = 0.0
    x[basic] = T[:m, n:] @ (program.rhs - program.A @ x[:n] - x[n:])

    status = _dual(T, x, basic, full_lo, full_hi)
    if status == "optimal":
        if true_cost is not None:
            T[m] = true_cost - true_cost[basic] @ T[:m]
        status = _primal(T, x, basic, full_lo, full_hi, program.price_tol)
    if status != "optimal":
        return LpSolution(status)

    # verify the claimed optimum actually satisfies what was asked
    values = x[:n]
    if _violated(program, values) or (values < lo - 1e-6).any() or (values > hi + 1e-6).any():
        return LpSolution("numerical")

    xs = values.tolist()
    objective = float(sum(coef * xs[j] for j, coef in program.objective))
    basis = _Basis(T, basic, x >= full_hi)
    return LpSolution(
        "optimal", objective, dict(zip(program.names, xs)) if named else values, basis
    )


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


def _dfs(
    program: _Program,
    root: LpSolution,
    search: _Search,
    bounds: tuple | None = None,
    cutoff=math.inf,
    first_feasible=False,
):
    """Depth-first search from the program's bounds, whose LP solution is
    ``root``, or from the tighter ``bounds = (lo, hi)``; returns (objective,
    values as an array in column order) or None.

    Every node but the program's own solves its LP warm from its parent's
    basis (the root's, for the node at ``bounds``).  Branches on the most
    fractional integral column (ties to the earliest), floor side first.  An
    integral leaf that uses every edge of one of ``program.cuts`` is replaced
    by that cut's partition children, first child explored first.  A leaf
    whose signed objective exceeds ``cutoff`` is not accepted, and a node is
    pruned once its LP bound exceeds it by more than the slack the simplex's
    pricing tolerance leaves in that bound.
    """
    sign = program.sign
    best_signed = math.inf
    best: tuple[float, np.ndarray] | None = None
    # a node is (lo, hi, the basis its LP starts from); the program's own has none
    stack = [(program.lo, program.hi, None) if bounds is None else (*bounds, root.basis)]
    while stack:
        lo, hi, parent = stack.pop()
        search.tick()
        lp = root if parent is None else simplex_solve(program, (lo, hi), start=parent)
        if lp.status == "infeasible":
            continue
        if lp.status != "optimal":
            raise SolverError(f"relaxation came back {lp.status}")
        width = hi - lo
        if sign * lp.objective - program.price_tol * width[np.isfinite(width)].sum() > cutoff:
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
                children = _cut_children(lo, hi, broken)
                stack.extend((*child, lp.basis) for child in reversed(children))
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
        stack += [(ceil_lo, hi, lp.basis), (lo, floor_hi, lp.basis)]
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
    differ only in their bounds, and each node re-solves its LP from its
    parent's basis.  Indicator pins become flow bounds (z = 0
    is f = 0, z = 1 is f >= 1), and each cut of ``model.cuts`` becomes
    partition branches at any integral leaf that uses all of its edges.
    Among all optima, within 1e-6 + 1e-9·|objective| of the first search's
    (a cutoff the later searches apply), the reported one uses the
    lexicographically smallest edge support: edges are admitted in id order
    only when some optimum needs them given the decisions so far, and the
    first optimum found on exactly the admitted edges, searched for before
    the first admission and after each, is the answer.  Raises SolverError
    when an LP relaxation ends numerically, or when no optimum is found on
    the support chosen this way.  ``enumerate_pathways`` compiles once,
    solves the root LP once, and runs this search on them for every rank.
    """
    program = _compile(relax(model), model.integers, model.cuts)
    return _optimum(model, program, node_limit, simplex_solve(program))


def _optimum(model: IlpModel, program: _Program, node_limit: int, root: LpSolution) -> IlpSolution:
    """``branch_and_bound`` of ``model`` on its compiled flow-space
    ``program``, whose LP solution at its own bounds is ``root``; every
    search starts from it."""
    search = _Search(node_limit)
    raw = _dfs(program, root, search)
    if raw is None:
        return IlpSolution("infeasible", nodes=search.nodes)
    cutoff = program.sign * raw[0] + 1e-6 + 1e-9 * abs(raw[0])

    chosen: set[int] = set()
    final = _dfs(program, root, search, _support_bounds(program, chosen, None), cutoff)
    for eid, _ in program.edges:
        if final is not None:
            break
        if _dfs(program, root, search, _support_bounds(program, chosen | {eid}, eid), cutoff, True):
            chosen.add(eid)
            final = _dfs(program, root, search, _support_bounds(program, chosen, None), cutoff)
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

    The flow-space program is compiled once, as in ``branch_and_bound``, and
    each found support is appended to its cuts, which the search turns into
    partition branches; no model is rebuilt between ranks.  Cuts are not LP
    rows, so the root LP is the same for every rank: it is solved cold once,
    and every search of every rank starts from its basis."""
    if k < 1:
        raise ValueError("need k >= 1 pathways")
    program = _compile(relax(model), model.integers, model.cuts)
    root = simplex_solve(program)
    column = dict(program.edges)
    solutions: list[IlpSolution] = []
    for _ in range(k):
        solution = _optimum(model, program, node_limit, root)
        if solution.status != "optimal":
            break
        solutions.append(solution)
        if not solution.support:
            break
        cut = np.array([column[eid] for eid in solution.support])
        program = replace(program, cuts=program.cuts + (cut,))
    return RankedPathways(solutions, tuple(frozenset(s.support) for s in solutions if s.support))


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
