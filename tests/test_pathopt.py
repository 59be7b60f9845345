"""Query validation, ILP compilation, relaxation, and LP text export."""
import math
from dataclasses import fields, replace

import pytest

import helpers
import nets
from hyperpath import solve
from hyperpath.kinetics import Thermo, objective_coefficients
from hyperpath.pathopt import (
    PathwayQuery,
    add_cut,
    build_model,
    export_lp_text,
    relax,
)


def weighted(net, kj=20.0):
    return objective_coefficients(nets.uniform_barriers(net, kj), Thermo(), net)


def test_query_defaults():
    q = PathwayQuery()
    assert q.sources == {} and q.targets == {}
    assert q.flow_cap == 10
    assert q.total_inflow_max is None and q.maximize_outflow is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"flow_cap": 0},
        {"sources": {0: (0, 1)}, "targets": {0: (1, 1)}},
        {"sources": {0: (2, 1)}},
        {"targets": {0: (-1, 1)}},
        {"allowed_byproducts": {0: -1}},
        {"targets": {0: (1, 1)}, "maximize_outflow": 5},
    ],
)
def test_query_validation(kwargs):
    with pytest.raises(ValueError):
        PathwayQuery(**kwargs)


def test_query_json_round_trip():
    q = PathwayQuery(
        sources={0: (0, 1), 2: (0, 3)},
        targets={9: (1, 1)},
        allowed_byproducts={1: 5},
        forbidden_edges=(4, 2),
        flow_cap=7,
    )
    data = q.to_json()
    assert data["byproducts"] == {"1": 5}
    assert data["forbidden_edges"] == [2, 4]
    assert "total_inflow_max" not in data
    assert PathwayQuery.from_json(data) == PathwayQuery(
        sources=q.sources,
        targets=q.targets,
        allowed_byproducts=q.allowed_byproducts,
        forbidden_edges=(2, 4),
        flow_cap=7,
    )


def test_query_json_keeps_optional_fields():
    q = PathwayQuery(
        sources={0: (0, 3)},
        targets={3: (1, 10)},
        flow_cap=3,
        total_inflow_max=3,
        maximize_outflow=3,
    )
    data = q.to_json()
    assert data["total_inflow_max"] == 3
    assert data["maximize_outflow"] == 3
    assert PathwayQuery.from_json(data) == q


def test_query_json_minimal_document():
    q = PathwayQuery.from_json({"targets": {"3": {"min": 1, "max": 2}}})
    assert q.targets == {3: (1, 2)}
    assert q.flow_cap == 10


def test_query_json_accepts_pair_ranges():
    q = PathwayQuery.from_json({"sources": {"0": [0, 4]}, "targets": {"3": [1, 1]}})
    assert q.sources == {0: (0, 4)}
    assert q.targets == {3: (1, 1)}


@pytest.mark.parametrize(
    "document, fragment",
    [
        ([1, 2], "must be a JSON object"),
        ({"sources": [[0, 1]], "targets": {"3": [1, 1]}}, "expected an object"),
        ({"targets": {"3": "wide"}}, "bad range for vertex '3'"),
        ({"targets": {"3": {"min": 1}}}, "bad range"),
        ({"targets": {"3": [1, 2, 3]}}, "bad range"),
        ({"targets": {"3": [1, 1]}, "byproducts": [4]}, "vertex caps"),
        ({"targets": {"3": [1, 1]}, "forbidden_edges": 7}, "list of edge ids"),
        # values that used to be coerced: a string of digits, a fraction, a bool
        ({"targets": {"3": [1, 1]}, "forbidden_edges": "01"}, "list of edge ids"),
        ({"targets": {"3": "12"}}, "bad range for vertex '3'"),
        ({"targets": {"3": [1, 1]}, "flow_cap": 2.7}, "flow_cap: expected an integer"),
        ({"targets": {"3": [1, 1]}, "flow_cap": True}, "flow_cap: expected an integer"),
        ({"targets": {"3": [True, 1]}}, "bad range"),
        ({"targets": {"3": {"min": 1, "max": 2.0}}}, "bad range"),
        ({"targets": {"3": [1, 1]}, "byproducts": {"4": "2"}}, "byproducts 4: expected an integer"),
        ({"targets": {"3": [1, 1]}, "forbidden_edges": [0, 1.0]}, "forbidden_edges: expected an"),
        ({"targets": {"3": [1, 1]}, "total_inflow_max": "3"}, "total_inflow_max: expected an"),
        ({"targets": {"3": [1, 1]}, "maximize_outflow": 3.0}, "maximize_outflow: expected an"),
        ({"sources": [], "targets": {"3": [1, 1]}}, "expected an object"),
        # beyond 2**53 the solver's floats no longer hold an integer exactly
        ({"targets": {"3": [1, 1]}, "flow_cap": 2**53 + 1}, "flow_cap: expected an integer"),
        ({"targets": {"3": [1, 10**400]}}, "bad range"),
        # a vertex id is written one way only, so two keys cannot name one vertex
        ({"targets": {"3": [1, 1], "03": [2, 2]}}, "targets: bad vertex id '03'"),
        ({"sources": {" 0": [0, 1]}, "targets": {"3": [1, 1]}}, "sources: bad vertex id ' 0'"),
        ({"targets": {"3": [1, 1]}, "byproducts": {"x": 1}}, "byproducts: bad vertex id 'x'"),
        # a negative cap would leave every query infeasible
        ({"targets": {"3": [1, 1]}, "total_inflow_max": -1}, "negative total_inflow_max -1"),
    ],
)
def test_query_json_malformed_documents(document, fragment):
    with pytest.raises(ValueError, match=fragment):
        PathwayQuery.from_json(document)


def test_query_json_takes_integers_up_to_two_to_the_53():
    q = PathwayQuery.from_json({"targets": {"3": [1, 2**53]}, "flow_cap": 2**53})
    assert q.targets == {3: (1, 2**53)} and q.flow_cap == 2**53


def test_build_model_variable_layout():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    assert model.variables == (
        "f_0", "f_1", "f_2",
        "in_0", "in_1", "in_2",
        "out_3",
    )
    assert (model.lo[0], model.hi[0]) == (0, 3)  # f_0
    assert (model.lo[4], model.hi[4]) == (0, 3)  # in_1
    assert (model.lo[6], model.hi[6]) == (1, 10)  # out_3
    assert model.integral  # every column
    assert model.flow_cap == 3
    assert model.keys == (0, 1, 2, ("in", 0), ("in", 1), ("in", 2), ("out", 3))
    # the export places one binary indicator per edge after the flows
    lines = export_lp_text(model).splitlines()
    bounds = lines[lines.index("Bounds") + 1:lines.index("Generals")]
    assert [line.split()[-3] if "<=" in line else line.split()[0] for line in bounds] == [
        "f_0", "f_1", "f_2",
        "z_0", "z_1", "z_2",
        "in_0", "in_1", "in_2",
        "out_3",
    ]
    assert " 0 <= z_2 <= 1" in bounds
    assert lines[lines.index("Binaries") + 1] == " z_0 z_1 z_2"


def test_build_model_row_layout():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    assert model.rows == (
        "conserve_v0", "conserve_v1", "conserve_v2", "conserve_v3",
        "total_inflow",
    )
    assert model.row_lo.tolist() == [0.0, 0.0, 0.0, 0.0, -math.inf]
    assert model.row_hi.tolist() == [0.0, 0.0, 0.0, 0.0, 3.0]
    # columns f_0 f_1 f_2 in_0 in_1 in_2 out_3
    assert model.A.tolist() == [
        [-2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, -2.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, -2.0, 0.0, 0.0, 1.0, 0.0],
        [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0],
    ]
    # the export places the two linking rows per edge after the conservation rows
    lines = export_lp_text(model).splitlines()
    rows = lines[lines.index("Subject To") + 1:lines.index("Bounds")]
    assert [line.split(":")[0].strip() for line in rows] == [
        "conserve_v0", "conserve_v1", "conserve_v2", "conserve_v3",
        "link_up_e0", "link_lo_e0",
        "link_up_e1", "link_lo_e1",
        "link_up_e2", "link_lo_e2",
        "total_inflow",
    ]
    assert rows[4] == " link_up_e0: 1 f_0 - 3 z_0 <= 0"
    assert rows[5] == " link_lo_e0: - 1 f_0 + 1 z_0 <= 0"


def test_build_model_objective_modes():
    net, query = nets.flux_demo()
    w = weighted(net)
    outflow_model = build_model(net, w, query)
    assert outflow_model.sense == "max"
    assert outflow_model.cost.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]  # out_3
    cost_query = PathwayQuery(sources=query.sources, targets=query.targets, flow_cap=3)
    cost_model = build_model(net, w, cost_query)
    assert cost_model.sense == "min"
    assert cost_model.cost.tolist() == [w[0], w[1], w[2], 0.0, 0.0, 0.0, 0.0]


def test_build_model_byproduct_bounds():
    net, query = nets.cascade_network()
    model = build_model(net, weighted(net), query)
    j = model.variables.index("out_1")
    assert (model.lo[j], model.hi[j]) == (0, 5)
    assert model.keys[j] == ("out", 1)
    assert model.rows[1] == "conserve_v1" and model.A[1, j] == -1.0


def test_build_model_forbidden_edges_pin_to_zero():
    net, query = nets.flux_demo()
    q = PathwayQuery(
        sources=query.sources,
        targets=query.targets,
        forbidden_edges=(1,),
        flow_cap=3,
    )
    model = build_model(net, weighted(net), q)
    assert (model.lo[1], model.hi[1]) == (0, 0)  # f_1
    assert (model.lo[0], model.hi[0]) == (0, 3)  # f_0
    assert " z_1 = 0" in export_lp_text(model).splitlines()


def test_build_model_every_vertex_conserved():
    net, query = nets.cascade_network()
    model = build_model(net, weighted(net), query)
    conserve = [i for i, name in enumerate(model.rows) if name.startswith("conserve_v")]
    assert conserve == list(range(len(net.vertices)))
    # vertex 4 is made by edges 1 and 3, consumed by 4 and the reverses 11, 13
    row4 = {model.variables[j]: c for j, c in enumerate(model.A[4].tolist()) if c}
    assert row4 == {
        "f_1": 1.0,
        "f_3": 1.0,
        "f_4": -1.0,
        "f_11": -1.0,
        "f_13": -1.0,
    }


def test_build_model_validation():
    net, query = nets.flux_demo()
    w = weighted(net)
    with pytest.raises(ValueError):
        build_model(net, w, PathwayQuery(sources={77: (0, 1)}))
    with pytest.raises(ValueError):
        build_model(net, w, PathwayQuery(forbidden_edges=(9,)))
    with pytest.raises(ValueError):
        add_cut(build_model(net, w, query), frozenset())
    with pytest.raises(ValueError):
        add_cut(build_model(net, w, query), frozenset({55}))
    partial = {0: 1.0}
    with pytest.raises(ValueError):
        build_model(net, partial, query)


def test_cut_rows_appended_in_order():
    net, query = nets.flux_demo()
    model = add_cut(add_cut(build_model(net, weighted(net), query), {0, 2}), {1})
    assert model.cuts == (frozenset({0, 2}), frozenset({1}))
    plain = build_model(net, weighted(net), query)
    assert model.rows == plain.rows and model.A.tolist() == plain.A.tolist()
    lines = export_lp_text(model).splitlines()
    bounds_at = lines.index("Bounds")
    assert lines[bounds_at - 2] == " cut_0: 1 z_0 + 1 z_2 <= 1"
    assert lines[bounds_at - 1] == " cut_1: 1 z_1 <= 0"


def test_add_cut_returns_new_model():
    net, query = nets.flux_demo()
    base = build_model(net, weighted(net), query)
    cut = add_cut(base, {0})
    assert base.cuts == ()
    assert cut.cuts == (frozenset({0}),)
    assert cut.rows == base.rows and cut.A is base.A
    lines = export_lp_text(cut).splitlines()
    assert lines[lines.index("Bounds") - 1] == " cut_0: 1 z_0 <= 0"
    with pytest.raises(ValueError):
        add_cut(base, set())
    with pytest.raises(ValueError):
        add_cut(base, {55})


def test_add_cut_adds_only_its_row_to_the_export():
    net, query = nets.cascade_network()
    base = build_model(net, weighted(net), query)
    lines = export_lp_text(base).splitlines()
    at = lines.index("Bounds")
    expected = lines[:at] + [" cut_0: 1 z_0 + 1 z_5 + 1 z_7 <= 2"] + lines[at:]
    assert export_lp_text(add_cut(base, frozenset({0, 5, 7}))).splitlines() == expected


def test_relax_drops_integrality_machinery():
    net, query = nets.flux_demo()
    model = add_cut(build_model(net, weighted(net), query), {0})
    lp = relax(model)
    assert not lp.integral and lp.cuts == ()
    assert model.integral and model.cuts == (frozenset({0}),)
    # every other field is the model's own
    assert all(
        getattr(lp, f.name) is getattr(model, f.name)
        for f in fields(model) if f.name not in ("integral", "cuts")
    )
    assert lp.rows == (
        "conserve_v0", "conserve_v1", "conserve_v2", "conserve_v3", "total_inflow",
    )
    assert (lp.lo[0], lp.hi[0]) == (0.0, 3.0)  # f_0
    assert lp.keys[6] == ("out", 3)
    assert len(lp.cost) == len(lp.variables) == lp.A.shape[1]
    text = export_lp_text(lp)
    assert "z_0" not in text and "link_" not in text and "cut_" not in text


def test_solution_flow_maps_columns_through_keys():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    found = solve._finish(model, 1.0, [1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 1.0], 1)
    assert found.flow == {0: 1, 1: 0, 2: 0, ("in", 0): 2, ("in", 1): 0, ("in", 2): 0, ("out", 3): 1}
    assert all(type(value) is int for value in found.flow.values())
    assert found.support == [0]


def test_export_lp_grammar():
    net, query = nets.flux_demo()
    model = add_cut(build_model(net, weighted(net), query), {0, 1})
    helpers.check_lp_grammar(export_lp_text(model))
    helpers.check_lp_grammar(export_lp_text(relax(model)))
    big_net, big_query = nets.cascade_network()
    big = build_model(big_net, weighted(big_net), big_query)
    helpers.check_lp_grammar(export_lp_text(big))


def test_export_lp_content():
    net, query = nets.flux_demo()
    model = build_model(net, weighted(net), query)
    text = export_lp_text(model)
    lines = text.splitlines()
    assert lines[0] == "Maximize"
    assert lines[1] == " obj: 1 out_3"
    assert lines[2] == "Subject To"
    assert " conserve_v0: - 2 f_0 + 1 in_0 = 0" in lines
    assert " link_up_e0: 1 f_0 - 3 z_0 <= 0" in lines
    assert " total_inflow: 1 in_0 + 1 in_1 + 1 in_2 <= 3" in lines
    assert " 0 <= f_0 <= 3" in lines
    assert " 1 <= out_3 <= 10" in lines
    assert "Generals" in lines and "Binaries" in lines
    generals = lines[lines.index("Generals") + 1]
    assert generals == " f_0 f_1 f_2 in_0 in_1 in_2 out_3"
    assert lines[lines.index("Binaries") + 1] == " z_0 z_1 z_2"
    assert lines[-1] == "End"


def test_export_lp_shows_pinned_variables():
    net, query = nets.flux_demo()
    q = PathwayQuery(
        sources=query.sources, targets=query.targets, forbidden_edges=(1,), flow_cap=3
    )
    text = export_lp_text(build_model(net, weighted(net), q))
    assert " f_1 = 0" in text.splitlines()
    assert " z_1 = 0" in text.splitlines()


def test_export_lp_byte_identical():
    net, query = nets.cascade_network()
    model = add_cut(build_model(net, weighted(net), query), {0, 5, 7})
    assert export_lp_text(model) == export_lp_text(model)
    rebuilt = add_cut(build_model(net, weighted(net), query), {0, 5, 7})
    assert export_lp_text(rebuilt) == export_lp_text(model)


def test_reference_fixture_model_sizes():
    net, query = nets.cascade_network()
    model = build_model(net, weighted(net), query)
    # 20 flows + 2 inflows + 2 outflows
    assert len(model.variables) == 24
    # 12 conservation rows
    assert len(model.rows) == 12
    # the exported indicator form adds 20 indicators and 40 linking rows
    lines = export_lp_text(model).splitlines()
    assert lines.index("Bounds") - lines.index("Subject To") - 1 == 52
    assert lines.index("Generals") - lines.index("Bounds") - 1 == 44


# export_lp_text of flux_demo with edge 1 forbidden and cuts {0, 2} and {1},
# and with every edge forbidden, as the indicator model wrote them when it
# carried its indicators, linking rows and cut rows itself
CUT_TEXT = """\
Maximize
 obj: 1 out_3
Subject To
 conserve_v0: - 2 f_0 + 1 in_0 = 0
 conserve_v1: - 2 f_1 + 1 in_1 = 0
 conserve_v2: - 2 f_2 + 1 in_2 = 0
 conserve_v3: 1 f_0 + 1 f_1 + 1 f_2 - 1 out_3 = 0
 link_up_e0: 1 f_0 - 3 z_0 <= 0
 link_lo_e0: - 1 f_0 + 1 z_0 <= 0
 link_up_e1: 1 f_1 - 3 z_1 <= 0
 link_lo_e1: - 1 f_1 + 1 z_1 <= 0
 link_up_e2: 1 f_2 - 3 z_2 <= 0
 link_lo_e2: - 1 f_2 + 1 z_2 <= 0
 total_inflow: 1 in_0 + 1 in_1 + 1 in_2 <= 3
 cut_0: 1 z_0 + 1 z_2 <= 1
 cut_1: 1 z_1 <= 0
Bounds
 0 <= f_0 <= 3
 f_1 = 0
 0 <= f_2 <= 3
 0 <= z_0 <= 1
 z_1 = 0
 0 <= z_2 <= 1
 0 <= in_0 <= 3
 0 <= in_1 <= 3
 0 <= in_2 <= 3
 1 <= out_3 <= 10
Generals
 f_0 f_1 f_2 in_0 in_1 in_2 out_3
Binaries
 z_0 z_1 z_2
End
"""

CUT_RELAXED_TEXT = """\
Maximize
 obj: 1 out_3
Subject To
 conserve_v0: - 2 f_0 + 1 in_0 = 0
 conserve_v1: - 2 f_1 + 1 in_1 = 0
 conserve_v2: - 2 f_2 + 1 in_2 = 0
 conserve_v3: 1 f_0 + 1 f_1 + 1 f_2 - 1 out_3 = 0
 total_inflow: 1 in_0 + 1 in_1 + 1 in_2 <= 3
Bounds
 0 <= f_0 <= 3
 f_1 = 0
 0 <= f_2 <= 3
 0 <= in_0 <= 3
 0 <= in_1 <= 3
 0 <= in_2 <= 3
 1 <= out_3 <= 10
End
"""

ALL_FORBIDDEN_TEXT = """\
Maximize
 obj: 1 out_3
Subject To
 conserve_v0: - 2 f_0 + 1 in_0 = 0
 conserve_v1: - 2 f_1 + 1 in_1 = 0
 conserve_v2: - 2 f_2 + 1 in_2 = 0
 conserve_v3: 1 f_0 + 1 f_1 + 1 f_2 - 1 out_3 = 0
 link_up_e0: 1 f_0 - 3 z_0 <= 0
 link_lo_e0: - 1 f_0 + 1 z_0 <= 0
 link_up_e1: 1 f_1 - 3 z_1 <= 0
 link_lo_e1: - 1 f_1 + 1 z_1 <= 0
 link_up_e2: 1 f_2 - 3 z_2 <= 0
 link_lo_e2: - 1 f_2 + 1 z_2 <= 0
 total_inflow: 1 in_0 + 1 in_1 + 1 in_2 <= 3
Bounds
 f_0 = 0
 f_1 = 0
 f_2 = 0
 z_0 = 0
 z_1 = 0
 z_2 = 0
 0 <= in_0 <= 3
 0 <= in_1 <= 3
 0 <= in_2 <= 3
 1 <= out_3 <= 10
Generals
 f_0 f_1 f_2 in_0 in_1 in_2 out_3
Binaries
 z_0 z_1 z_2
End
"""

ALL_FORBIDDEN_RELAXED_TEXT = """\
Maximize
 obj: 1 out_3
Subject To
 conserve_v0: - 2 f_0 + 1 in_0 = 0
 conserve_v1: - 2 f_1 + 1 in_1 = 0
 conserve_v2: - 2 f_2 + 1 in_2 = 0
 conserve_v3: 1 f_0 + 1 f_1 + 1 f_2 - 1 out_3 = 0
 total_inflow: 1 in_0 + 1 in_1 + 1 in_2 <= 3
Bounds
 f_0 = 0
 f_1 = 0
 f_2 = 0
 0 <= in_0 <= 3
 0 <= in_1 <= 3
 0 <= in_2 <= 3
 1 <= out_3 <= 10
End
"""


@pytest.mark.parametrize(
    "forbidden, cuts, texts",
    [
        ((1,), (frozenset({0, 2}), frozenset({1})), (CUT_TEXT, CUT_RELAXED_TEXT)),
        ((0, 1, 2), (), (ALL_FORBIDDEN_TEXT, ALL_FORBIDDEN_RELAXED_TEXT)),
    ],
    ids=["forbidden-edge-and-cuts", "every-edge-forbidden"],
)
def test_export_lp_text_is_pinned(forbidden, cuts, texts):
    net, query = nets.flux_demo()
    assert query.total_inflow_max is not None
    model = build_model(net, weighted(net), replace(query, forbidden_edges=forbidden))
    for cut in cuts:
        model = add_cut(model, cut)
    assert (export_lp_text(model), export_lp_text(relax(model))) == texts
