"""Simplex, branch and bound, pathway enumeration, and exhaustive search."""
import hashlib
import inspect
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import helpers
import molecules
import nets
from hyperpath.kinetics import MAX_BARRIER_KJ, Thermo, objective_coefficients
from hyperpath.molgraph import canonical_form, parse_molecules
from hyperpath.pathopt import (
    IlpModel,
    PathwayQuery,
    add_cut,
    build_model,
    flow_var,
    relax,
)
from hyperpath import solve
from hyperpath.rewrite import ExpansionConfig, load_default_rules, run_expansion
from hyperpath.solve import (
    IterationLimit,
    NodeLimitExceeded,
    SolverError,
    branch_and_bound,
    brute_force,
    enumerate_pathways,
    simplex_solve,
)


def weighted(net, kj=20.0):
    return objective_coefficients(nets.uniform_barriers(net, kj), Thermo(), net)


def lp(bounds, rows, cost, sense):
    """A continuous LP over columns x0, x1, ...: ``bounds`` are their (lo,
    hi) pairs, ``rows`` (coefficients, lo, hi) triples and ``cost`` the
    objective's coefficients."""
    names = tuple(f"x{j}" for j in range(len(bounds)))
    return IlpModel(
        variables=names,
        keys=names,
        lo=np.array([lo for lo, _ in bounds], dtype=float),
        hi=np.array([hi for _, hi in bounds], dtype=float),
        A=np.array([coeffs for coeffs, _, _ in rows], dtype=float).reshape(len(rows), len(names)),
        row_lo=np.array([lo for _, lo, _ in rows], dtype=float),
        row_hi=np.array([hi for _, _, hi in rows], dtype=float),
        rows=tuple(f"r{i}" for i in range(len(rows))),
        cost=np.array(cost, dtype=float),
        sense=sense,
        integral=False,
    )


def indicator_consistent(solution, cap):
    edges = [key for key in solution.flow if isinstance(key, int)]
    for eid in edges:
        f = solution.flow[eid]
        assert (eid in solution.support) == (f >= 1), (eid, solution.support, f)
        assert f <= cap
    assert solution.support == sorted(set(solution.support) & set(edges))


# -- plain simplex -----------------------------------------------------------


def test_simplex_single_variable():
    m = lp([(0.0, 5.0)], [([1.0], -math.inf, 3.0)], [1.0], "max")
    out = simplex_solve(m)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(3.0)
    assert out.values.tolist() == [pytest.approx(3.0)]


def test_simplex_equality_and_min():
    m = lp([(0.0, 10.0), (0.0, 10.0)], [([1.0, 1.0], 4.0, 4.0)], [3.0, 1.0], "min")
    out = simplex_solve(m)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(4.0)
    assert out.values.tolist() == [pytest.approx(0.0), pytest.approx(4.0)]


def test_simplex_infeasible():
    m = lp([(0.0, 1.0)], [([1.0], 2.0, math.inf)], [1.0], "min")
    assert simplex_solve(m).status == "infeasible"


def test_simplex_infeasible_crossed_bounds():
    m = lp([(3.0, 1.0)], [], [1.0], "min")
    assert simplex_solve(m).status == "infeasible"


def test_simplex_unbounded():
    # a column without finite bounds cannot be posed, so neither can an
    # unbounded LP
    m = lp([(0.0, math.inf)], [], [1.0], "max")
    with pytest.raises(ValueError, match="finite bounds"):
        simplex_solve(m)
    boxed = lp([(0.0, 2.0), (0.0, 2.0)], [([1.0, 1.0], 1.0, math.inf)], [1.0, 2.0], "min")
    assert simplex_solve(boxed).objective == pytest.approx(1.0)
    for low, high in [(-math.inf, math.inf), (-math.inf, 0.0), (0.0, math.inf)]:
        with pytest.raises(ValueError, match="finite bounds"):
            simplex_solve(replace(boxed, lo=np.array([0.0, low]), hi=np.array([2.0, high])))
        # bounds handed to a solve are checked the same way
        with pytest.raises(ValueError, match="finite bounds"):
            simplex_solve(boxed, (np.array([0.0, low]), np.array([2.0, high])))


def test_simplex_nonzero_lower_bounds():
    m = lp([(2.0, 6.0), (1.0, 6.0)], [([1.0, 1.0], -math.inf, 5.0)], [1.0, 1.0], "max")
    out = simplex_solve(m)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(5.0)
    assert out.values[0] >= 2.0 - 1e-9 and out.values[1] >= 1.0 - 1e-9


def test_simplex_bound_overrides_and_extra_rows():
    box = [(0.0, 5.0), (0.0, 5.0)]
    m = lp(box, [([1.0, 1.0], -math.inf, 6.0)], [1.0, 2.0], "max")
    assert simplex_solve(m).objective == pytest.approx(11.0)
    pinned = simplex_solve(replace(m, hi=np.array([5.0, 1.0])))
    assert pinned.objective == pytest.approx(7.0)
    rows = [([1.0, 1.0], -math.inf, 6.0), ([1.0, 0.0], 4.0, math.inf)]
    constrained = simplex_solve(lp(box, rows, [1.0, 2.0], "max"))
    assert constrained.objective == pytest.approx(8.0)
    assert constrained.values[0] == pytest.approx(4.0)


def test_simplex_flux_demo_relaxation():
    net, query = nets.flux_demo()
    out = simplex_solve(relax(build_model(net, weighted(net), query)))
    assert out.status == "optimal"
    assert out.objective == pytest.approx(1.5, abs=1e-9)


def test_simplex_free_columns_and_both_row_senses():
    # x may go negative, but within a box wide enough that only the rows bind
    m = lp(
        [(-10.0, 10.0), (0.0, 4.0)],
        [([1.0, 1.0], 3.0, math.inf), ([1.0, -1.0], -math.inf, 1.0)],
        [1.0, 2.0],
        "min",
    )
    out = simplex_solve(m)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(4.0)
    assert out.values.tolist() == [pytest.approx(2.0), pytest.approx(1.0)]
    m = replace(m, cost=np.array([1.0, 0.0]), sense="max")
    assert simplex_solve(m).objective == pytest.approx(5.0)


def test_simplex_matches_highs_on_random_lps():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(7)
    statuses = set()
    compared = 0
    while compared < 300:
        n, rows = rng.randint(1, 5), rng.randint(0, 4)
        bounds = []
        for _ in range(n):
            low = rng.choice([0.0, -2.0, -math.inf, 1.0])
            bounds.append((low, rng.choice([math.inf, max(low, 0.0) + rng.randint(0, 4)])))
        model_rows = []
        for _ in range(rows):
            coeffs = [0.0] * n
            for j in rng.sample(range(n), rng.randint(1, n)):
                coeffs[j] = float(rng.randint(-3, 3))
            # each row is A x <= b, A x >= b or A x = b
            low, high = rng.choice([(-math.inf, 0.0), (0.0, math.inf), (0.0, 0.0)])
            b = float(rng.randint(-4, 6))
            model_rows.append((coeffs, low + b, high + b))
        cost = [float(rng.randint(-3, 3)) for _ in range(n)]
        model = lp(bounds, model_rows, cost, rng.choice(["min", "max"]))
        if not all(map(math.isfinite, itertools.chain(*bounds))):
            with pytest.raises(ValueError, match="finite bounds"):
                simplex_solve(model)
            continue
        compared += 1
        out = simplex_solve(model)
        sign = 1.0 if model.sense == "min" else -1.0
        ref = optimize.milp(
            [sign * c for c in cost],
            constraints=optimize.LinearConstraint(model.A, model.row_lo, model.row_hi) if rows else (),
            bounds=optimize.Bounds(model.lo, model.hi),
        )
        expected = {0: "optimal", 2: "infeasible"}[ref.status]
        assert out.status == expected, (model, ref.message)
        statuses.add(out.status)
        if expected == "optimal":
            assert sign * out.objective == pytest.approx(ref.fun, abs=1e-7)
    assert statuses == {"optimal", "infeasible"}


def test_simplex_iteration_limit_is_a_typed_solver_error(monkeypatch):
    net, query = nets.flux_demo()
    model = relax(build_model(net, weighted(net), query))
    monkeypatch.setattr(solve, "MAX_PIVOTS", 1)
    with pytest.raises(IterationLimit, match="iteration limit of 1 ") as raised:
        simplex_solve(model)
    assert isinstance(raised.value, SolverError)


def test_simplex_answer_failing_its_check_raises(monkeypatch):
    net, query = nets.flux_demo()
    model = relax(build_model(net, weighted(net), query))
    helpers.simplex_ends_numerically(monkeypatch)
    with pytest.raises(SolverError, match="numerical"):
        simplex_solve(model)


def test_search_refuses_a_relaxed_model():
    # the relaxation is feasible, at 1.5; a search of it used to round the
    # fractional point, reject it and answer infeasible
    net, query = nets.flux_demo()
    model = relax(build_model(net, weighted(net), query))
    assert simplex_solve(model).objective == pytest.approx(1.5, abs=1e-9)
    with pytest.raises(ValueError, match="integral"):
        branch_and_bound(model)
    with pytest.raises(ValueError, match="integral"):
        enumerate_pathways(model, 3)


def test_relaxation_bounds_integer_optimum():
    net, query = nets.cascade_network()
    model = build_model(net, weighted(net), query)
    lp_out = simplex_solve(relax(model))
    ilp_out = branch_and_bound(model)
    assert lp_out.status == "optimal" and ilp_out.status == "optimal"
    # minimization: the relaxation can only be at most the integer optimum
    assert lp_out.objective <= ilp_out.objective + 1e-9


# -- branch and bound --------------------------------------------------------


def test_bnb_flux_demo_integer_optimum():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    out = branch_and_bound(model)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(1.0, abs=1e-9)
    assert len(out.support) == 1
    assert not net.conservation_violations(out.flow)
    indicator_consistent(out, cap=3)
    assert out.nodes >= 1


def test_bnb_prefers_lexicographically_smallest_support():
    net, query = nets.flux_demo()
    out = branch_and_bound(build_model(net, weighted(net), query))
    assert out.support == [0]
    assert out.flow[0] == 1
    assert out.flow[("in", 0)] == 2
    assert out.flow[("out", 3)] == 1


def test_bnb_empty_query_only_zero_flow():
    net, _ = nets.flux_demo()
    model = build_model(net, weighted(net), PathwayQuery(flow_cap=3))
    out = branch_and_bound(model)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(0.0)
    assert out.support == []
    assert all(v == 0 for v in out.flow.values())


def test_bnb_infeasible_demand():
    net = nets.placeholder_net(2, [({0: 1}, {1: 1})])
    q = PathwayQuery(sources={0: (0, 1)}, targets={1: (2, 2)}, flow_cap=1)
    out = branch_and_bound(build_model(net, weighted(net), q))
    assert out.status == "infeasible"
    assert out.objective is None and out.flow is None


def test_bnb_respects_singleton_cut():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    cut_model = add_cut(model, {0})
    out = branch_and_bound(cut_model)
    assert out.status == "optimal"
    assert out.support == [1]
    assert out.objective == pytest.approx(1.0, abs=1e-9)


def test_bnb_cascade_fixture_best_pathway():
    net, query = nets.cascade_network()
    model = build_model(net, weighted(net), query)
    out = branch_and_bound(model)
    assert out.status == "optimal"
    expected = 4.0 * Thermo().rt * math.log(len(net.edges))
    assert out.objective == pytest.approx(expected, rel=1e-9)
    assert out.support == [0, 5, 7, 8]
    assert not net.conservation_violations(out.flow)
    indicator_consistent(out, cap=10)


def test_bnb_forbidding_edge_moves_to_next_route():
    net, query = nets.cascade_network()
    q = PathwayQuery(
        sources=query.sources,
        targets=query.targets,
        allowed_byproducts=query.allowed_byproducts,
        forbidden_edges=(5,),
        flow_cap=10,
    )
    out = branch_and_bound(build_model(net, weighted(net), q))
    assert out.status == "optimal"
    assert out.support == [0, 2, 6, 7, 8]
    assert out.flow[5] == 0


def test_bnb_answers_the_same_from_a_given_root():
    # root only saves the cold solve of the model's own LP
    rng = random.Random(202)
    for _ in range(20):
        net, barriers, query = nets.random_instance(rng)
        weights = objective_coefficients(barriers, Thermo(), net)
        model = build_model(net, weights, query)
        assert branch_and_bound(model) == branch_and_bound(model, root=simplex_solve(model))
    net, query = nets.cascade_network()
    model = add_cut(build_model(net, weighted(net), query), [0, 5, 7, 8])
    cold = branch_and_bound(model)
    assert cold == branch_and_bound(model, root=simplex_solve(model))
    assert cold.support == [0, 2, 6, 7, 8]


def test_bnb_node_limit():
    net, query = nets.cascade_network()
    model = build_model(net, weighted(net), query)
    with pytest.raises(NodeLimitExceeded):
        branch_and_bound(model, node_limit=1)


def test_bnb_raises_when_the_canonical_support_has_no_optimum(monkeypatch):
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    real_dfs = solve._dfs

    def final_search_fails(*args, **kwargs):
        call = inspect.signature(real_dfs).bind(*args, **kwargs)
        call.apply_defaults()
        found = real_dfs(*args, **kwargs)
        # every full search under the cutoff looks for the answer on the
        # support chosen so far; when all of them fail, none is left
        cutoff, first_feasible = call.arguments["cutoff"], call.arguments["first_feasible"]
        return None if cutoff < math.inf and not first_feasible else found

    monkeypatch.setattr(solve, "_dfs", final_search_fails)
    with pytest.raises(SolverError, match="canonical support"):
        branch_and_bound(model)


# -- enumeration -------------------------------------------------------------


def test_enumerate_flux_demo_three_incomparable_routes():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    ranked = enumerate_pathways(model, 5)
    assert [s.support for s in ranked.solutions] == [[0], [1], [2]]
    for s in ranked.solutions:
        assert s.objective == pytest.approx(1.0, abs=1e-9)
        assert not net.conservation_violations(s.flow)


def test_enumerate_rejects_nonpositive_k():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    with pytest.raises(ValueError):
        enumerate_pathways(model, 0)


def test_enumerate_cascade_fixture_ranking():
    net, query = nets.cascade_network()
    model = build_model(net, weighted(net), query)
    ranked = enumerate_pathways(model, 10)
    supports = [s.support for s in ranked.solutions]
    assert supports == [
        [0, 5, 7, 8],
        [0, 2, 6, 7, 8],
        [0, 1, 6, 7, 8, 13],
    ]
    unit = Thermo().rt * math.log(len(net.edges))
    objectives = [s.objective for s in ranked.solutions]
    assert objectives[0] == pytest.approx(4 * unit, rel=1e-9)
    assert objectives[1] == pytest.approx(5 * unit, rel=1e-9)
    assert objectives[2] == pytest.approx(6 * unit, rel=1e-9)
    # ranked by cost, no solution's support contains an earlier one
    assert objectives == sorted(objectives)
    for i, small in enumerate(supports):
        for later in supports[i + 1 :]:
            assert not set(small) <= set(later)
    for s in ranked.solutions:
        assert not net.conservation_violations(s.flow)
        indicator_consistent(s, cap=10)


def test_enumerate_stops_on_infeasibility():
    net = nets.placeholder_net(2, [({0: 1}, {1: 1})])
    q = PathwayQuery(sources={0: (0, 1)}, targets={1: (1, 1)}, flow_cap=1)
    ranked = enumerate_pathways(build_model(net, weighted(net), q), 5)
    assert len(ranked.solutions) == 1
    assert ranked.solutions[0].support == [0]


def test_enumerate_compiles_once_for_all_ranks(monkeypatch):
    # the model is searched as built, and its root LP is solved cold once
    # for all ranks; every other solve starts from a basis
    cold = []
    real_solve = solve.simplex_solve

    def counting_solve(*args, **kwargs):
        if kwargs.get("start") is None:
            cold.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solve, "simplex_solve", counting_solve)
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    ranked = enumerate_pathways(model, 2)
    assert [s.support for s in ranked.solutions] == [[0], [1]]
    assert len(cold) == 1 and cold[0][0] is model
    assert model.cuts == ()  # each rank's cut goes on a copy


# -- exhaustive search -------------------------------------------------------


def test_brute_force_flux_demo():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    out = brute_force(model)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(1.0, abs=1e-9)
    assert len(out.support) == 1
    assert not net.conservation_violations(out.flow)


def test_brute_force_infeasible():
    net = nets.placeholder_net(2, [({0: 1}, {1: 1})])
    q = PathwayQuery(sources={0: (0, 1)}, targets={1: (2, 2)}, flow_cap=1)
    assert brute_force(build_model(net, weighted(net), q)).status == "infeasible"


def test_brute_force_grid_limit():
    net, query = nets.cascade_network()
    model = build_model(net, weighted(net), query)
    with pytest.raises(ValueError):
        brute_force(model, grid_limit=10_000)


def test_brute_force_agrees_with_independent_enumeration():
    rng = random.Random(101)
    checked = 0
    for _ in range(12):
        net, barriers, query = nets.random_instance(rng)
        if len(net.edges) > 3 or len(query.sources) > 2:
            continue
        model = build_model(net, objective_coefficients(barriers, Thermo(), net), query)
        if len(model.variables) > 10:
            continue
        out = brute_force(model)
        reference = helpers.best_feasible(model)
        if reference is None:
            assert out.status == "infeasible"
        else:
            assert out.status == "optimal"
            assert out.objective == pytest.approx(reference[1], abs=1e-6)
        checked += 1
    assert checked >= 3


def test_bnb_matches_brute_force_on_random_instances():
    rng = random.Random(202)
    agreements = 0
    for _ in range(40):
        net, barriers, query = nets.random_instance(rng)
        model = build_model(net, objective_coefficients(barriers, Thermo(), net), query)
        fast = branch_and_bound(model)
        slow = brute_force(model)
        assert fast.status == slow.status
        if fast.status == "optimal":
            assert fast.objective == pytest.approx(slow.objective, abs=1e-6)
            assert not net.conservation_violations(fast.flow)
            assert not net.conservation_violations(slow.flow)
            indicator_consistent(fast, cap=query.flow_cap)
            agreements += 1
    # random queries are often infeasible; both solvers must still agree,
    # and enough must be solvable for the comparison to carry weight
    assert agreements >= 5


# -- the search against the exhaustive oracle, support by support ------------


def edge_ids(model):
    """The edges of a built model; the flow of edge e is column e."""
    return [key for key in model.keys if isinstance(key, int)]


def pinned_to_support(model, support):
    """The model with every edge pinned: used (flow >= 1) on ``support``,
    unused elsewhere."""
    lo, hi = model.lo.copy(), model.hi.copy()
    for eid in edge_ids(model):
        if eid in support:
            lo[eid] = max(lo[eid], 1.0)
        else:
            lo[eid] = hi[eid] = 0.0
    return replace(model, lo=lo, hi=hi)


def oracle_optimal_supports(model):
    """(optimum, every optimal support) of the model, by ``brute_force`` on
    each support in turn; (None, []) when infeasible.

    Optimal means within the tolerance of the solver's objective pin: the
    canonical support is the smallest one among those near-ties.
    """
    found = {}
    edges = [eid for eid in edge_ids(model) if model.hi[eid] >= 1]
    for size in range(len(edges) + 1):
        for support in itertools.combinations(edges, size):
            out = brute_force(pinned_to_support(model, support))
            if out.status == "optimal":
                assert out.support == list(support)
                found[support] = out.objective
    if not found:
        return None, []
    sign = 1.0 if model.sense == "min" else -1.0
    best = min(found.values(), key=lambda v: sign * v)
    tol = 1e-6 + 1e-9 * abs(best)
    return best, [list(s) for s, v in found.items() if abs(v - best) <= tol]


def check_canonical_optimum(model):
    """Branch and bound finds the oracle's optimum, reports the smallest
    optimal support in lexicographic order, and breaks no cut."""
    fast = branch_and_bound(model)
    best, supports = oracle_optimal_supports(model)
    if best is None:
        assert fast.status == "infeasible"
        return None
    assert fast.status == "optimal"
    assert abs(fast.objective - best) <= 1e-6 + 1e-9 * abs(best)
    assert fast.support == min(supports)
    assert not any(cut <= set(fast.support) for cut in model.cuts)
    indicator_consistent(fast, cap=max(model.hi[e] for e in edge_ids(model)))
    return fast


def test_flow_space_search_matches_the_oracle_with_cuts_on_random_instances():
    rng = random.Random(303)
    with_cuts = 0
    for _ in range(40):
        net, barriers, query = nets.random_instance(rng)
        model = build_model(net, objective_coefficients(barriers, Thermo(), net), query)
        found = check_canonical_optimum(model)
        while found and found.support and len(model.cuts) < 3:
            # the found support, or a part of it, so that the cut binds and the
            # next search must branch on it
            cut = rng.sample(found.support, rng.randint(1, len(found.support)))
            model = add_cut(model, cut)
            found = check_canonical_optimum(model)
            with_cuts += 1
    assert with_cuts >= 20


def test_flow_space_search_matches_the_oracle_on_the_fixtures():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    for cut in ({0}, {1}, {2}):
        model = add_cut(model, cut)
        found = check_canonical_optimum(model)
    assert found is None  # every route is cut

    # the cascade at flow cap 1 on the 10 edges its three best routes use
    net, query = nets.cascade_network()
    query = replace(query, forbidden_edges=(9, 10, 11, 12, 14, 15, 16, 17, 18, 19), flow_cap=1)
    model = build_model(net, weighted(net), query)
    supports = []
    for cut in ({0, 5, 7, 8}, {2, 6}, {1, 13}):
        model = add_cut(model, cut)
        found = check_canonical_optimum(model)
        supports.append(found and found.support)
    assert supports == [[0, 2, 6, 7, 8], [0, 1, 6, 7, 8, 13], None]


def draws(stream, wanted):
    """The models of the draws numbered ``wanted`` (0-based) of a stream."""
    rng = random.Random(stream)
    models = {}
    for draw in range(max(wanted) + 1):
        net, barriers, query = nets.random_instance(rng)
        if draw in wanted:
            weights = objective_coefficients(barriers, Thermo(), net)
            models[draw] = build_model(net, weights, query)
    return [models[draw] for draw in wanted]


@pytest.mark.parametrize(
    "stream, draw, k",
    [
        # an objective-pin row in the LP made these end numerically
        (1, 1302, 3),
        (4, 637, 3),
        (4, 917, 3),
        (9, 730, 3),
        (13, 427, 3),
        (202, 105, 1),
        # the cutoff must allow for the simplex's optimality tolerance ...
        (3, 902, 3),
        (8, 630, 3),
        # ... and no more than that
        (1, 1107, 3),
    ],
)
def test_canonical_optimum_rank_by_rank_on_hard_draws(stream, draw, k):
    [model] = draws(stream, [draw])
    ranked = enumerate_pathways(model, k)
    by_rank = []
    for _ in range(k):
        found = check_canonical_optimum(model)
        if not found:
            break
        by_rank.append(found)
        if not found.support:
            break
        model = add_cut(model, found.support)
    # enumeration, appending each rank's cut to one model, answers as a
    # rebuild per rank does
    assert [(s.objective, s.support, s.flow) for s in ranked.solutions] == [
        (s.objective, s.support, s.flow) for s in by_rank
    ]


def tightened_box(model, rng, lo, hi):
    """``(lo, hi)`` tightened once the way the search tightens a box: a floor
    or ceil split, support pins, or one Lawler child of a random cut."""
    lo, hi = lo.copy(), hi.copy()
    move = rng.choice(["split", "pins", "cut"])
    edges = edge_ids(model)
    if move == "split" and model.integral and model.variables:
        j = rng.choice(range(len(model.variables)))
        if hi[j] > lo[j]:
            point = rng.randint(int(lo[j]), int(hi[j]) - 1)
            if rng.random() < 0.5:
                hi[j] = point
            else:
                lo[j] = point + 1
    elif move == "pins" and edges:
        chosen = sorted(rng.sample(edges, rng.randint(0, len(edges))))
        pin_lo, pin_hi = solve._support_bounds(model, len(edges), chosen, rng.choice([None] + edges))
        lo, hi = np.maximum(lo, pin_lo), np.minimum(hi, pin_hi)
    elif move == "cut" and edges:
        cut = rng.sample(edges, rng.randint(1, len(edges)))
        children = solve._cut_children(lo, hi, np.array(sorted(cut)))
        if children:
            lo, hi = rng.choice(children)
    return lo, hi


def assert_warm_agrees_with_cold(model, lo, hi, start):
    warm = simplex_solve(model, (lo, hi), start=start)
    cold = simplex_solve(model, (lo, hi))
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert abs(warm.objective - cold.objective) <= 1e-6 + 1e-9 * abs(cold.objective)
        assert not solve._violated(model, warm.values)
        assert (warm.values >= lo - 1e-6).all() and (warm.values <= hi + 1e-6).all()
    return warm


def test_warm_solves_agree_with_cold_solves_of_the_same_box():
    rng = random.Random(404)
    models = []
    for _ in range(150):
        net, barriers, query = nets.random_instance(rng)
        models.append(build_model(net, objective_coefficients(barriers, Thermo(), net), query))
    net, query = nets.cascade_network()
    models += [build_model(net, weighted(net), replace(query, flow_cap=cap)) for cap in (1, 3, 10)]
    warm_optimal = 0
    for model in models:
        root = simplex_solve(model)
        if root.status != "optimal":
            continue
        for _ in range(4):
            # a chain of tightenings, each solved warm from the root's basis
            # and from its parent's, as the search does
            lo, hi, parent = model.lo, model.hi, root
            for _ in range(rng.randint(1, 6)):
                lo, hi = tightened_box(model, rng, lo, hi)
                assert_warm_agrees_with_cold(model, lo, hi, root.basis)
                found = assert_warm_agrees_with_cold(model, lo, hi, parent.basis)
                if found.status != "optimal":
                    break
                parent = found
                warm_optimal += 1
    assert warm_optimal >= 200


def test_enumeration_solves_one_cold_lp(monkeypatch):
    starts = []
    real_solve = solve.simplex_solve

    def recording_solve(*args, **kwargs):
        starts.append(kwargs.get("start"))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solve, "simplex_solve", recording_solve)
    net, query = nets.cascade_network()
    ranked = enumerate_pathways(build_model(net, weighted(net), query), 10)
    assert len(ranked.solutions) == 3
    assert starts[0] is None
    assert len(starts) > 1 and all(start is not None for start in starts[1:])


def fresh_ranks(model, k):
    """Up to ``k`` ranks, each a fresh ``branch_and_bound`` of the model with
    the earlier ranks' supports as cuts."""
    ranks = []
    while len(ranks) < k:
        found = branch_and_bound(model)
        if found.status != "optimal":
            break
        ranks.append(found)
        if not found.support:
            break
        model = add_cut(model, found.support)
    return ranks


#: by stream, the draws whose first search's support is not the canonical
#: one at some rank up to k=3: ranks that canonicalization decides
TIE_DRAWS = {2: [549], 4: [166, 1256], 5: [949], 7: [211, 271, 477], 11: [442, 1380], 12: [1201],
             13: [1262]}


def test_enumeration_over_kept_regions_answers_as_fresh_searches():
    # each rank searches only the regions the previous rank's cut partitions;
    # a fresh search with every earlier support as a cut must agree on the
    # objective, the support and the flow
    cases = [(model, 3) for model in draws(606, range(500))]
    for stream, wanted in TIE_DRAWS.items():
        cases += [(model, 3) for model in draws(stream, wanted)]
    for fixture, k in [(nets.cascade_network, 10), (nets.flux_demo, 5)]:
        net, query = fixture()
        cases.append((build_model(net, weighted(net), query), k))
    ranked_models = 0
    for model, k in cases:
        ranked = enumerate_pathways(model, k)
        fresh = fresh_ranks(model, k)
        assert [(s.objective, s.support, s.flow) for s in ranked.solutions] == [
            (s.objective, s.support, s.flow) for s in fresh
        ]
        ranked_models += len(ranked.solutions) > 1
    assert ranked_models >= 50


def test_reduced_cost_bound_holds_on_random_boxes():
    # the bound from the root's reduced costs never exceeds a box's LP
    # optimum, and a box it prices out holds no point within the cutoff
    rng = random.Random(707)
    bounded = priced_out = 0
    for _ in range(400):
        net, barriers, query = nets.random_instance(rng)
        model = build_model(net, objective_coefficients(barriers, Thermo(), net), query)
        root = simplex_solve(model)
        if root.status != "optimal":
            continue
        sign = 1.0 if model.sense == "min" else -1.0
        search = solve._Search(model, root, 10**6)
        for _ in range(6):
            lo, hi = model.lo, model.hi
            for _ in range(rng.randint(1, 4)):
                lo, hi = tightened_box(model, rng, lo, hi)
            bound = solve._reduced_cost_bound(search, lo, hi)
            box = simplex_solve(model, (lo, hi))
            if box.status == "optimal":
                assert bound <= sign * box.objective + 1e-9 * max(1.0, abs(box.objective))
                bounded += 1
            # a cutoff short of the bound, at it, or past it
            cutoff = sign * root.objective + rng.choice([0.5, 1.0, 1.5]) * max(0.0, bound - sign * root.objective)
            if solve._priced_out(search, lo, hi, cutoff):
                assert solve._dfs(search, (lo, hi), cutoff, True) is None
                priced_out += 1
    assert bounded >= 150 and priced_out >= 100


def test_support_bounds_pin_as_a_loop_over_the_edges_does():
    rng = random.Random(808)
    for _ in range(100):
        net, barriers, query = nets.random_instance(rng)
        model = build_model(net, weighted(net), query)
        edges = edge_ids(model)
        chosen = sorted(rng.sample(edges, rng.randint(0, len(edges))))
        free_above = rng.choice([None] + edges)
        lo, hi = model.lo.copy(), model.hi.copy()
        for eid in edges:
            if eid in chosen:
                lo[eid] = max(lo[eid], 1.0)
            elif free_above is None or eid <= free_above:
                lo[eid] = hi[eid] = 0.0
        pin_lo, pin_hi = solve._support_bounds(model, len(edges), chosen, free_above)
        assert pin_lo.tolist() == lo.tolist() and pin_hi.tolist() == hi.tolist()


def test_cut_children_partition_what_the_cut_leaves():
    # every flow within the parent's bounds that leaves some edge of the cut
    # unused lies in exactly one child; one that uses every edge lies in none
    net, query = nets.cascade_network()
    flows = relax(build_model(net, weighted(net), query))
    cut = (0, 5, 7, 8)
    columns = np.array([flows.variables.index(flow_var(eid)) for eid in cut])
    for pins in ({}, {7: (0, 2)}, {5: (1, 3)}):
        lo, hi = flows.lo.copy(), flows.hi.copy()
        for eid, (pin_lo, pin_hi) in pins.items():
            j = flows.variables.index(flow_var(eid))
            lo[j], hi[j] = pin_lo, pin_hi
        children = solve._cut_children(lo, hi, columns)
        for point in itertools.product(range(3), repeat=len(cut)):

            def within(low, high):
                return all(low[j] <= v <= high[j] for j, v in zip(columns, point))

            expected = int(within(lo, hi) and 0 in point)
            assert sum(within(*child) for child in children) == expected, (pins, point)


@pytest.mark.parametrize("kj", [MAX_BARRIER_KJ, -MAX_BARRIER_KJ])
def test_flow_space_search_at_the_largest_barrier_load_barriers_accepts(kj):
    # at the bound of load_barriers, the solver's objective-relative
    # tolerances must still tell the cascade's routes apart (at 1e10 kJ/mol
    # on edge 0 they no longer do)
    net, query = nets.cascade_network()
    costs = objective_coefficients({**nets.uniform_barriers(net), 0: kj}, Thermo(), net)
    capped = replace(query, forbidden_edges=(9, 10, 11, 12, 14, 15, 16, 17, 18, 19), flow_cap=1)
    model = build_model(net, costs, capped)
    supports = [check_canonical_optimum(model).support]
    for cut in ({0, 5, 7, 8}, {2, 6}, {1, 13}):
        model = add_cut(model, cut)
        found = check_canonical_optimum(model)
        supports.append(found and found.support)
    assert supports == [[0, 5, 7, 8], [0, 2, 6, 7, 8], [0, 1, 6, 7, 8, 13], None]

    full = build_model(net, costs, query)
    out = branch_and_bound(full)
    assert out.support == [0, 5, 7, 8]
    reference = highs_optimum(full)
    assert abs(out.objective - reference) <= 1e-6 + 1e-9 * abs(reference)


def highs_optimum(model):
    """Objective of the ILP at the optimum scipy's HiGHS finds, or None."""
    optimize = pytest.importorskip("scipy.optimize")
    assert not model.cuts  # cuts are not rows; HiGHS would not see them
    sign = 1.0 if model.sense == "min" else -1.0
    res = optimize.milp(
        sign * model.cost / 1000.0,  # kJ/mol keeps HiGHS well scaled
        constraints=optimize.LinearConstraint(model.A, model.row_lo, model.row_hi),
        integrality=np.ones(len(model.variables)),
        bounds=optimize.Bounds(model.lo, model.hi),
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    values = [int(round(x)) for x in res.x]
    assert helpers.max_row_violation(model, values) <= 1e-9
    return sum(c * v for c, v in zip(model.cost.tolist(), values))


def glycolic_acid_query(iterations, max_element_counts, flow_cap):
    """The closure of water and glycolonitrile under the default rules and
    the filters of acceptance criterion 8, with barriers drawn uniformly in
    0-100 kJ/mol in edge order from ``random.Random(1)``, and the model of a
    query for glycolic acid at ``flow_cap``: water and glycolonitrile in
    (0-10 each), ammonia may leave.  Returns (expansion result, model)."""
    water, glyco, ammonia, glycolic = parse_molecules(
        "---\n".join([molecules.WATER_MGF, molecules.GLYCOLONITRILE_MGF,
                      molecules.AMMONIA_MGF, molecules.GLYCOLIC_ACID_MGF])
    )
    config = ExpansionConfig(
        (water, glyco),
        max_iterations=iterations,
        max_element_counts=max_element_counts,
        right_predicates=("no-rings-le=3", "no-cumulated-doubles"),
    )
    result = run_expansion(config, load_default_rules())
    net = result.network
    rng = random.Random(1)
    barriers = {e.id: rng.uniform(0.0, 100.0) for e in net.edges}
    ids = {v.key: v.id for v in net.vertices}
    vid = {name: ids[canonical_form(g)] for name, g in
           [("water", water), ("glyco", glyco), ("ammonia", ammonia), ("glycolic", glycolic)]}
    query = PathwayQuery(
        sources={vid["water"]: (0, 10), vid["glyco"]: (0, 10)},
        targets={vid["glycolic"]: (1, 1)},
        allowed_byproducts={vid["ammonia"]: 10},
        flow_cap=flow_cap,
    )
    return result, build_model(net, objective_coefficients(barriers, Thermo(), net), query)


PAPER_SCALE_CAPS = {"C": 2, "N": 4, "O": 4}


def test_paper_scale_glycolic_acid_at_cap_10_fits_its_node_budget():
    # the 41/116 closure of water and glycolonitrile (acceptance criterion 8)
    result, model = glycolic_acid_query(11, PAPER_SCALE_CAPS, 10)
    net = result.network
    assert (len(net.vertices), len(net.edges)) == (41, 116)
    # bounds stay out of the tableau: one row per conservation row, one for
    # the reduced costs, and one logical column per row
    root = simplex_solve(model)
    assert root.basis.T.shape == (41 + 1, len(model.variables) + 41)
    # searching on the indicators ran out of these 45 nodes
    out = branch_and_bound(model, node_limit=45)
    assert out.status == "optimal" and out.nodes <= 45
    assert net.conservation_violations(out.flow) == {}
    indicator_consistent(out, cap=10)
    reference = highs_optimum(model)
    assert abs(out.objective - reference) <= 1e-6 + 1e-9 * abs(reference)


def test_paper_scale_glycolic_acid_at_cap_1_ranks_are_pinned():
    # every rank of a deep enumeration, as the search without Lawler's
    # regions across ranks, or the reduced-cost and incumbent answers of
    # canonicalization, ranked it; and the path the search took to each,
    # as its node count
    _, model = glycolic_acid_query(11, PAPER_SCALE_CAPS, 1)
    ranked = enumerate_pathways(model, 20)
    assert len(ranked.solutions) == 20
    answers = repr([(s.objective, s.support, s.flow) for s in ranked.solutions])
    assert hashlib.sha256(answers.encode()).hexdigest() == (
        "342026db9205fb1c24bba43657bb921efd675df4aed51e8e79ba6edf547928b7"
    )
    # 1 428 nodes in all
    assert [s.nodes for s in ranked.solutions] == [
        6, 10, 22, 16, 30, 72, 61, 43, 56, 67, 58, 52, 107, 152, 135, 140, 72, 138, 81, 110
    ]


def test_carbon_four_closure_glycolic_acid_at_cap_1_matches_highs():
    # dev-only: the closure of water and glycolonitrile with up to four
    # carbons, 4 iterations, which the bounded dual simplex makes answerable;
    # skipped where scipy is missing, before the expansion runs
    pytest.importorskip("scipy.optimize")
    result, model = glycolic_acid_query(4, {"C": 4, "N": 4, "O": 4}, 1)
    assert result.history == [(4, 2), (17, 19), (57, 128), (175, 466)]
    net = result.network
    # 8 nodes answer it; the budget leaves room for about three times that
    out = branch_and_bound(model, node_limit=30)
    assert out.status == "optimal"
    assert net.conservation_violations(out.flow) == {}
    indicator_consistent(out, cap=1)
    reference = highs_optimum(model)
    assert abs(out.objective - reference) <= 1e-6 + 1e-9 * abs(reference)
    assert out.objective == pytest.approx(94076.66, abs=0.01)
