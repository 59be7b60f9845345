"""Exact solvers for the pathway models.

Every solver here reads the arrays of an ``IlpModel``.  ``simplex_solve`` is
a dense-tableau bounded dual simplex: the tableau holds only the model's
rows, each with a logical column bounded as its row is, and a nonbasic column
sits at its lower or upper bound, so every column needs finite bounds.  A
solve starts from the all-logical basis, or warm from an earlier solve's
final basis whose bounds contain its own; either basis is dual feasible, and
the dual simplex, with Bland's rule, restores the basic columns' bounds.
``branch_and_bound`` searches depth first with every column integral; its
nodes differ only in their bounds, and each node re-solves from its
parent's basis.  A cut ("not every edge of S") is not a row: an integral
leaf that uses every edge of S becomes partition branches, one per edge of
S (Lawler's k-best partition).  The optimum is then canonicalized, under an
objective cutoff, to the lexicographically smallest optimal support, so
runs and enumeration are deterministic; a box that canonicalization asks
about is answered without a search when it holds the optimum already found,
or when the root's reduced costs bound it past the cutoff.  An LP solve
answers optimal or infeasible, or raises ``SolverError`` when its answer
fails the check against the model's rows and bounds; the search raises it
too when the canonical support admits no optimum, rather than report a
support it could not confirm.  The search refuses a model that is not
integral.
``enumerate_pathways`` solves the root LP cold once, passes it to
``branch_and_bound`` as the root of every rank, and peels off structurally
distinct optima, each rank appending its support to the model's cuts.  It
keeps Lawler's regions across ranks, each a box with its cached optimum, so
a rank searches, from the root's basis, only the partition children of the
regions whose optimum the newest cut forbids.
``brute_force`` is an independent exhaustive oracle over the same model.
Every objective value is a sequential sum in column order, so that it is
the same float wherever it is taken.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pathopt import IlpModel, add_cut

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
    """The search cannot confirm an optimum: an LP solve's answer failed its
    check against the model, or the canonical support admits no optimum."""


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
    """An LP solve's answer; a solve that cannot answer raises SolverError."""

    status: str  # optimal or infeasible
    objective: float | None = None
    values: np.ndarray | None = None  # in column order
    basis: _Basis | None = None  # the optimal basis, to warm-start tighter bounds from


def _violated(model: IlpModel, x: np.ndarray) -> bool:
    """Whether ``A @ x`` passes a row bound b by more than 1e-6 + 1e-9·|b|."""
    ax = model.A @ x
    below = ax < model.row_lo - (1e-6 + 1e-9 * np.abs(model.row_lo))
    above = ax > model.row_hi + (1e-6 + 1e-9 * np.abs(model.row_hi))
    return bool((below | above).any())


def _objective(model: IlpModel, values: list) -> float:
    """``cost @ values``, summed in column order."""
    return float(sum(c * v for c, v in zip(model.cost.tolist(), values) if c))


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
    model: IlpModel, bounds: tuple | None = None, *, start: _Basis | None = None
) -> LpSolution:
    """Solve the continuous relaxation of a model; its values come back as
    an array in column order.

    ``bounds = (lo, hi)`` may replace the model's column bounds.  Every
    column needs finite bounds; one without raises ValueError.

    Bounds stay out of the tableau ``B⁻¹[A I]``, which has one row per model
    row; row i's logical column is ``-A[i] @ x``, within ``-row_hi[i]`` and
    ``-row_lo[i]``.  Cold, the solve starts from the all-logical basis with
    each nonbasic column at the bound its cost favours.  Warm, it starts from ``start``, the basis of
    a solve of the same model whose bounds contain these: each nonbasic
    column moves to the same side of its new bounds.  Either basis is dual
    feasible, so the dual simplex, restoring the basics' bounds, ends at an
    optimum.  The answer is checked against every row and bound; a solve
    that fails that check raises ``SolverError``, and one that runs
    ``MAX_PIVOTS`` dual simplex iterations raises ``IterationLimit``.
    """
    lo, hi = (model.lo, model.hi) if bounds is None else bounds
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("every structural column needs finite bounds")
    if (lo > hi + 1e-12).any():
        return LpSolution("infeasible")

    m, n = model.A.shape
    if start is None:
        T = np.zeros((m + 1, n + m))
        T[:m, :n] = model.A
        T[:m, n:] = np.eye(m)
        T[m, :n] += (1.0 if model.sense == "min" else -1.0) * model.cost
        upper = T[m] < 0
        basic = np.arange(n, n + m)
    else:
        T, basic, upper = start.T.copy(), start.basic.copy(), start.upper
    full_lo = np.concatenate([lo, -model.row_hi])
    full_hi = np.concatenate([hi, -model.row_lo])
    x = np.where(upper, full_hi, full_lo)
    x[basic] = 0.0
    x[basic] = T[:m, n:] @ (-(model.A @ x[:n]) - x[n:])

    status = _dual(T, x, basic, full_lo, full_hi)
    if status != "optimal":
        return LpSolution(status)

    # verify the claimed optimum actually satisfies what was asked
    values = x[:n]
    if _violated(model, values) or (values < lo - 1e-6).any() or (values > hi + 1e-6).any():
        raise SolverError("relaxation came back numerical")
    basis = _Basis(T, basic, x >= full_hi)
    return LpSolution("optimal", _objective(model, values.tolist()), values, basis)


# ---------------------------------------------------------------------------
# Branch and bound


@dataclass
class IlpSolution:
    """A search's answer: ``flow`` maps each column's key to its integral
    value, and ``support`` lists, in id order, the edges that carry flow."""

    status: str  # optimal or infeasible
    objective: float | None = None
    flow: dict | None = None
    support: list[int] = field(default_factory=list)
    nodes: int = 0


class _Search:
    """One rank's nodes, against ``limit``, and what every search of the rank
    reads of the model, made once: its cuts as arrays of flow columns (the
    flow of edge e is column e), its pricing slack and its edge count."""

    def __init__(self, model: IlpModel, limit: int):
        self.limit = limit
        self.nodes = 0
        self.cuts = [np.array(sorted(cut)) for cut in model.cuts]
        self.price_tol = _price_tol(model)
        self.edges = _edge_count(model)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise NodeLimitExceeded(self.nodes)


def _edge_count(model: IlpModel) -> int:
    """How many columns are flows; the flow of edge e is column e."""
    return sum(isinstance(key, int) for key in model.keys)


def _price_tol(model: IlpModel) -> float:
    """A search's pricing slack per unit of a box's width."""
    return 1e-9 * max(1.0, float(np.abs(model.cost).max(initial=0.0)))


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
    model: IlpModel,
    root: LpSolution,
    search: _Search,
    bounds: tuple | None = None,
    cutoff=math.inf,
    first_feasible=False,
):
    """Depth-first search from the model's bounds, whose LP solution is
    ``root``, or from the tighter ``bounds = (lo, hi)``; returns (objective,
    values as an array in column order) or None.

    Every node but the model's own solves its LP warm from its parent's
    basis (the root's, for the node at ``bounds``).  Branches on the most
    fractional integral column (ties to the earliest), floor side first.  An
    integral leaf that uses every edge of one of ``model.cuts`` is replaced
    by that cut's partition children, first child explored first.  A leaf
    whose signed objective exceeds ``cutoff`` is not accepted, and a node is
    pruned once its LP bound exceeds it by more than 1e-9·max(1, |cost|)
    per unit of the node's box width.
    """
    sign = 1.0 if model.sense == "min" else -1.0
    best_signed = math.inf
    best: tuple[float, np.ndarray] | None = None
    # a node is (lo, hi, the basis its LP starts from); the model's own has none
    stack = [(model.lo, model.hi, None) if bounds is None else (*bounds, root.basis)]
    while stack:
        lo, hi, parent = stack.pop()
        search.tick()
        lp = root if parent is None else simplex_solve(model, (lo, hi), start=parent)
        if lp.status == "infeasible":
            continue
        if sign * lp.objective - search.price_tol * (hi - lo).sum() > cutoff:
            continue
        prune_tol = 1e-6 + 1e-9 * abs(best_signed if best else 0.0)
        if best is not None and sign * lp.objective >= best_signed - prune_tol:
            continue
        x = lp.values
        frac = np.abs(x - x.round())
        if frac.size == 0 or frac.max() <= INTEGRALITY_TOL:
            snapped = x.round()
            if _violated(model, snapped):
                continue
            exact = _objective(model, snapped.tolist())
            if sign * exact > cutoff:
                continue
            broken = next((cut for cut in search.cuts if (snapped[cut] >= 1).all()), None)
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
        j = int(np.argmax(frac))
        ceil_lo, floor_hi = lo.copy(), hi.copy()
        ceil_lo[j], floor_hi[j] = math.ceil(x[j]), math.floor(x[j])
        stack += [(ceil_lo, hi, lp.basis), (lo, floor_hi, lp.basis)]
    return best


def _support_bounds(model: IlpModel, edges: int, chosen: list[int], free_above: int | None) -> tuple:
    """Pin the flows of the model's ``edges`` edges to a support: at least 1
    on the chosen edges, 0 on the others up to ``free_above``."""
    lo, hi = model.lo.copy(), model.hi.copy()
    end = edges if free_above is None else free_above + 1
    lo[:end] = hi[:end] = 0.0
    lo[chosen] = np.maximum(model.lo[chosen], 1.0)
    hi[chosen] = model.hi[chosen]
    return lo, hi


def _reduced_cost_bound(model: IlpModel, root: LpSolution, lo: np.ndarray, hi: np.ndarray) -> float:
    """A lower bound on the signed LP optimum within the box ``(lo, hi)``,
    from the root's optimal basis: the signed root objective plus, for each
    structural column j, the least of ``d_j·(x_j − x*_j)`` over
    ``[lo_j, hi_j]``, with d the root's reduced costs and x* its values.

    The root basis is dual feasible, so each logical's term is non-negative
    for any x that meets the rows, and a box moves no row bound."""
    m, n = model.A.shape
    reduced, x = root.basis.T[m, :n], root.values
    sign = 1.0 if model.sense == "min" else -1.0
    return sign * root.objective + float(np.minimum(reduced * (lo - x), reduced * (hi - x)).sum())


def _priced_out(model: IlpModel, root: LpSolution, lo: np.ndarray, hi: np.ndarray, cutoff: float) -> bool:
    """Whether the reduced-cost bound of ``(lo, hi)`` passes ``cutoff`` by
    more than the box's pricing slack, by which ``_dfs`` would prune the
    box's first node, plus a float margin of 1e-9·max(1, |cutoff|)."""
    slack = _price_tol(model) * float((hi - lo).sum()) + 1e-9 * max(1.0, abs(cutoff))
    return _reduced_cost_bound(model, root, lo, hi) > cutoff + slack


def _rank_optimum(model: IlpModel, root: LpSolution, search: _Search, regions: list):
    """The best optimum of the model over Lawler's regions, as (objective,
    values) or None.

    ``regions`` holds one ``(lo, hi, optimum)`` per region with an optimum
    under the cuts it has seen; it is empty before the first search, which
    fills it with the model's own box.  Later, the model's newest cut
    partitions only the regions whose optimum uses every edge of it: each
    such region is replaced, in place, by its ``_cut_children``, each
    searched from the root's basis, and a child without an optimum is
    dropped.  Every other region's optimum still meets every cut, so it is
    still that region's optimum.  Ties go to the earliest region.
    """
    if not regions:
        best = _dfs(model, root, search)
        if best is not None:
            regions.append((model.lo, model.hi, best))
        return best
    cut = search.cuts[-1]
    kept = []
    for lo, hi, best in regions:
        if not (best[1][cut] >= 1).all():
            kept.append((lo, hi, best))
            continue
        for child in _cut_children(lo, hi, cut):
            found = _dfs(model, root, search, child)
            if found is not None:
                kept.append((*child, found))
    regions[:] = kept
    sign = 1.0 if model.sense == "min" else -1.0
    return min((best for _, _, best in kept), key=lambda best: sign * best[0], default=None)


def _finish(model: IlpModel, exact: float, values: list, nodes: int) -> IlpSolution:
    """A solution of the model from its integral values in column order; an
    edge is used exactly when it carries flow."""
    flow = {key: int(value) for key, value in zip(model.keys, values)}
    support = sorted(key for key, value in flow.items() if isinstance(key, int) and value >= 1)
    return IlpSolution("optimal", exact, flow, support, nodes)


def branch_and_bound(
    model: IlpModel,
    node_limit: int = DEFAULT_NODE_LIMIT,
    root: LpSolution | None = None,
    regions: list | None = None,
) -> IlpSolution:
    """Solve to optimality, then canonicalize the support.

    ``root`` is the model's LP solution at its own bounds, if the caller has
    solved it already; otherwise it is solved cold here.  Every search
    starts from it, and the answer is the same with it or without it.
    ``regions`` is Lawler's partition that ``enumerate_pathways`` keeps
    across its ranks (see ``_rank_optimum``): the model's cuts then must be
    the earlier ranks' supports, in rank order.  Without it, the optimum is
    searched for from the model's own bounds, and the answer is the same.
    Search nodes differ only in their bounds, and each node re-solves its LP
    from its parent's basis, a region's from the root's.  Support pins are
    flow bounds (unused is f = 0, used is f >= 1), and each cut of
    ``model.cuts`` becomes partition branches at any integral leaf that
    uses all of its edges.  ``node_limit`` bounds the nodes of the region
    searches and of canonicalization together.

    Among all optima, within 1e-6 + 1e-9·|objective| of the first search's
    (a cutoff the later searches apply), the reported one uses the
    lexicographically smallest edge support: edges are admitted in id order
    only when some optimum needs them given the decisions so far, and the
    first optimum found on exactly the admitted edges, searched for before
    the first admission and after each, is the answer.  Whether an optimum
    needs an edge is answered yes without a search when the first search's
    optimum lies within the pinned box, and no when the root's reduced
    costs price the box out (``_priced_out``); only the rest are searched.
    Raises ValueError for a model that is not integral, and SolverError
    when an LP solve's answer fails its check, or when no optimum is found
    on the support chosen this way.
    """
    if not model.integral:
        raise ValueError("branch and bound needs an integral model; simplex_solve solves its relaxation")
    if root is None:
        root = simplex_solve(model)
    search = _Search(model, node_limit)
    raw = _rank_optimum(model, root, search, [] if regions is None else regions)
    if raw is None:
        return IlpSolution("infeasible", nodes=search.nodes)
    sign = 1.0 if model.sense == "min" else -1.0
    cutoff = sign * raw[0] + 1e-6 + 1e-9 * abs(raw[0])

    def needed(lo: np.ndarray, hi: np.ndarray) -> bool:
        if ((lo <= raw[1]) & (raw[1] <= hi)).all():
            return True
        if _priced_out(model, root, lo, hi, cutoff):
            return False
        return _dfs(model, root, search, (lo, hi), cutoff, True) is not None

    edges = search.edges
    chosen: list[int] = []
    final = _dfs(model, root, search, _support_bounds(model, edges, chosen, None), cutoff)
    for eid in range(edges):
        if final is not None:
            break
        if needed(*_support_bounds(model, edges, chosen + [eid], eid)):
            chosen.append(eid)
            final = _dfs(model, root, search, _support_bounds(model, edges, chosen, None), cutoff)
    if final is None:
        raise SolverError("no optimum has the canonical support that was found")
    return _finish(model, final[0], final[1].tolist(), search.nodes)


@dataclass
class RankedPathways:
    """Up to k solutions, best first; each non-empty support is a cut of
    every later rank."""

    solutions: list[IlpSolution]


def enumerate_pathways(
    model: IlpModel, k: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> RankedPathways:
    """Best pathway first, then repeatedly forbid the found support and
    re-solve, yielding up to ``k`` structurally distinct solutions.

    Each found support is appended to the model's cuts, which the search
    turns into partition branches; nothing is rebuilt between ranks.  Cuts
    are not LP rows, so the root LP is the same for every rank: it is solved
    cold once and passed to ``branch_and_bound`` as ``root`` for every rank.
    So is one list of Lawler's regions, each a box with its cached optimum,
    so that a rank searches only the regions the previous rank's cut
    partitions (Lawler, Management Science 18(7), 1972; Hamacher &
    Queyranne, Annals of Operations Research 4, 1985).  ``node_limit``
    bounds each rank's search."""
    if k < 1:
        raise ValueError("need k >= 1 pathways")
    root = simplex_solve(model)
    regions: list = []
    solutions: list[IlpSolution] = []
    for _ in range(k):
        solution = branch_and_bound(model, node_limit, root, regions)
        if solution.status != "optimal":
            break
        solutions.append(solution)
        if not solution.support:
            break
        model = add_cut(model, solution.support)
    return RankedPathways(solutions)


# ---------------------------------------------------------------------------
# Exhaustive oracle


def brute_force(model: IlpModel, grid_limit: int = 100_000_000) -> IlpSolution:
    """Independent reference solver: enumerate every integer assignment.

    Each row is checked within 1e-9·(1 + |b|) of each of its bounds b, and
    a cut holds where some edge of it carries no flow.  Ties on the
    objective keep the lexicographically first assignment in column order.
    """
    lows = []
    sizes = []
    for name, lo, hi in zip(model.variables, model.lo.tolist(), model.hi.tolist()):
        if not lo.is_integer() or not hi.is_integer():
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

    sign = 1.0 if model.sense == "min" else -1.0
    cuts = [np.array(sorted(cut)) for cut in model.cuts]  # the flow of edge e is column e

    best_signed = math.inf
    best_column: np.ndarray | None = None
    chunk = 100_000
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        X = (idx[np.newaxis, :] // strides_arr) % sizes_arr + lows_arr
        ok = np.ones(len(idx), dtype=bool)
        for coeffs, low, high in zip(model.A, model.row_lo.tolist(), model.row_hi.tolist()):
            value = coeffs @ X
            ok &= (value >= low - 1e-9 * (1.0 + abs(low))) & (value <= high + 1e-9 * (1.0 + abs(high)))
        for cut in cuts:
            ok &= ~np.all(X[cut] >= 1, axis=0)
        if not ok.any():
            continue
        objective = np.where(ok, sign * (model.cost @ X), math.inf)
        at = int(np.argmin(objective))
        if objective[at] < best_signed - 1e-12:
            best_signed = float(objective[at])
            best_column = X[:, at]

    if best_column is None:
        return IlpSolution("infeasible", nodes=total)
    values = best_column.tolist()
    return _finish(model, _objective(model, values), values, total)
