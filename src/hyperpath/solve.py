"""Exact solvers for the pathway models.

``simplex_solve`` is a dense-tableau bounded dual simplex over a model
compiled to arrays: the tableau holds only the model's rows, each with a
logical column, and a nonbasic column sits at its lower or upper bound, so
every structural column needs finite bounds.  A solve starts from the
all-logical basis, or warm from an earlier solve's final basis whose bounds
contain its own; either basis is dual feasible, and the dual simplex, with
Bland's rule, restores the basic columns' bounds.
``branch_and_bound`` compiles the model once, with its flows and exchange
variables integral, so its depth-first search nodes differ only in their
bounds, and each node re-solves from its parent's basis.  A cut ("not every
edge of S") is not a row: an integral leaf that uses every edge of S becomes
partition branches, one per edge of S (Lawler's k-best partition).  The
optimum is then canonicalized, under an objective cutoff, to the
lexicographically smallest optimal support, so runs and enumeration are
deterministic.  It raises ``SolverError`` when an LP relaxation ends
numerically or when the canonical support admits no optimum, rather than
report a support it could not confirm.  ``enumerate_pathways`` compiles
once, solves the root LP cold once, and peels off structurally distinct
optima, each rank appending its support to the program's cuts, and
``brute_force`` is an independent exhaustive oracle over the same model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .pathopt import IlpModel

PIVOT_TOL = 1e-10
INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-9  # how far a basic value may pass its bound
MAX_PIVOTS = 200_000  # dual simplex iterations within one solve
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
    """The dual simplex ran ``MAX_PIVOTS`` iterations without finishing."""

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
    status: str  # optimal, infeasible or numerical
    objective: float | None = None
    values: dict[str, float] | np.ndarray | None = None
    basis: _Basis | None = None  # the optimal basis, to warm-start tighter bounds from


@dataclass(frozen=True)
class _Program:
    """A model as arrays: rows ``A x`` against ``rhs``, each row's logical
    ``rhs - A x`` bounded by ``row_lo, row_hi`` (0 and inf for <=, -inf and 0
    for >=, 0 and 0 for =), bounds ``lo, hi``, objective (column,
    coefficient) terms in model order, the slack per unit of box width that
    the search allows an LP bound (``price_tol``), integral columns, (edge
    id, flow column) pairs in id order and cuts as flow columns."""

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


def _compile(model: IlpModel) -> _Program:
    """``model`` as arrays."""
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
        np.array([j for j, name in enumerate(names) if name in model.integers], dtype=int),
        tuple(edges),
        tuple(np.array([column[eid] for eid in sorted(cut)]) for cut in model.cuts),
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


def simplex_solve(
    model: IlpModel | _Program, bounds: tuple | None = None, *, start: _Basis | None = None
) -> LpSolution:
    """Solve the continuous relaxation of a model.

    ``model`` is an ``IlpModel``, compiled on entry, whose values come back
    by name, or a compiled ``_Program``, whose values come back as an array
    in column order and whose bounds ``bounds = (lo, hi)`` may replace.
    Every structural column needs finite bounds; one without raises
    ValueError.

    Bounds stay out of the tableau, which has one row per model row.  Cold,
    the solve starts from the all-logical basis with each nonbasic column at
    the bound its cost favours.  Warm, it starts from ``start``, the basis of
    a solve of the same program whose bounds contain these: each nonbasic
    column moves to the same side of its new bounds.  Either basis is dual
    feasible, so the dual simplex, restoring the basics' bounds, ends at an
    optimum.  The answer is checked against every row and bound; a solve
    that fails that check ends ``numerical``.  Raises ``IterationLimit`` when
    the dual simplex runs ``MAX_PIVOTS`` iterations.
    """
    named = isinstance(model, IlpModel)
    program = _compile(model) if named else model
    lo, hi = (program.lo, program.hi) if bounds is None else bounds
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("every structural column needs finite bounds")
    if (lo > hi + 1e-12).any():
        return LpSolution("infeasible")

    m, n = program.A.shape
    full_lo = np.concatenate([lo, program.row_lo])
    full_hi = np.concatenate([hi, program.row_hi])
    if start is None:
        T = np.zeros((m + 1, n + m))
        T[:m, :n] = program.A
        T[:m, n:] = np.eye(m)
        for j, coef in program.objective:
            T[m, j] += program.sign * coef
        upper = T[m] < 0
        basic = np.arange(n, n + m)
    else:
        T, basic, upper = start.T.copy(), start.basic.copy(), start.upper
    x = np.where(upper, full_hi, full_lo)
    x[basic] = 0.0
    x[basic] = T[:m, n:] @ (program.rhs - program.A @ x[:n] - x[n:])

    status = _dual(T, x, basic, full_lo, full_hi)
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
    pruned once its LP bound exceeds it by more than ``program.price_tol``
    per unit of the node's box width.
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
    """A solution of the model; an edge is used exactly when it carries flow."""
    flow = model.flow_from_values(values)
    indicator = {key: int(value >= 1) for key, value in flow.items() if isinstance(key, int)}
    support = sorted(eid for eid, z in indicator.items() if z)
    return IlpSolution("optimal", exact, values, flow, indicator, support, nodes)


def branch_and_bound(model: IlpModel, node_limit: int = DEFAULT_NODE_LIMIT) -> IlpSolution:
    """Solve to optimality, then canonicalize the support.

    The model is compiled once, with its flows and exchange variables
    integral; search nodes differ only in their bounds, and each node
    re-solves its LP from its parent's basis.  Support pins are flow bounds
    (unused is f = 0, used is f >= 1), and each cut of ``model.cuts``
    becomes partition branches at any integral leaf that uses all of its
    edges.
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
    program = _compile(model)
    return _optimum(model, program, node_limit, simplex_solve(program))


def _optimum(model: IlpModel, program: _Program, node_limit: int, root: LpSolution) -> IlpSolution:
    """``branch_and_bound`` of ``model`` on its compiled ``program``, whose
    LP solution at its own bounds is ``root``; every search starts from it."""
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

    The model is compiled once, as in ``branch_and_bound``, and each found
    support is appended to the program's cuts, which the search turns into
    partition branches; no model is rebuilt between ranks.  Cuts are not LP
    rows, so the root LP is the same for every rank: it is solved cold once,
    and every search of every rank starts from its basis."""
    if k < 1:
        raise ValueError("need k >= 1 pathways")
    program = _compile(model)
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

    A cut holds where some edge of it carries no flow.  Ties on the
    objective keep the lexicographically first assignment in model variable
    order.
    """
    names = model.variables
    lows = []
    sizes = []
    for name in names:
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

    index = {name: i for i, name in enumerate(names)}

    def vector(coeffs: dict[str, float]) -> np.ndarray:
        v = np.zeros(len(names))
        for var, coef in coeffs.items():
            v[index[var]] = coef
        return v

    row_data = [(vector(row.coeffs), row.sense, row.rhs) for row in model.rows]
    obj = vector(model.objective)
    sign = 1.0 if model.sense == "min" else -1.0
    column = {key: index[name] for name, key in model.flow_keys.items() if isinstance(key, int)}
    cuts = [np.array([column[eid] for eid in sorted(cut)]) for cut in model.cuts]

    best_signed = math.inf
    best_column: np.ndarray | None = None
    chunk = 100_000
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        X = (idx[np.newaxis, :] // strides_arr) % sizes_arr + lows_arr
        ok = np.ones(len(idx), dtype=bool)
        for coeffs, sense, rhs in row_data:
            value = coeffs @ X
            tol = 1e-9 * (1.0 + abs(rhs))
            if sense == "<=":
                ok &= value <= rhs + tol
            elif sense == ">=":
                ok &= value >= rhs - tol
            else:
                ok &= np.abs(value - rhs) <= tol
        for cut in cuts:
            ok &= ~np.all(X[cut] >= 1, axis=0)
        if not ok.any():
            continue
        objective = np.where(ok, sign * (obj @ X), math.inf)
        at = int(np.argmin(objective))
        if objective[at] < best_signed - 1e-12:
            best_signed = float(objective[at])
            best_column = X[:, at]

    if best_column is None:
        return IlpSolution("infeasible", nodes=total)
    values = {name: int(best_column[i]) for i, name in enumerate(names)}
    exact = float(sum(coef * values.get(name, 0) for name, coef in model.objective.items()))
    return _finish(model, exact, values, total)
