"""End-to-end command line behavior, run in process."""
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import molecules
import nets
import hyperpath
from hyperpath import __version__, cli, solve
from hyperpath.cli import main
from hyperpath.kinetics import (
    BarrierTable,
    Thermo,
    load_barriers,
    objective_coefficients,
    pathway_score,
)
from hyperpath.molgraph import PERIODIC_TABLE, parse_molecules
from hyperpath.netcore import Hypergraph
from hyperpath.pathopt import PathwayQuery, build_model
from hyperpath.rewrite import ExpansionConfig, parse_rules, run_expansion
from hyperpath.solve import enumerate_pathways


def write_network(tmp_path, net, name="network.json"):
    path = tmp_path / name
    path.write_text(json.dumps(net.to_json()))
    return str(path)


def write_barriers(tmp_path, barriers_kj, name="barriers.csv"):
    path = tmp_path / name
    path.write_text(nets.barrier_csv(barriers_kj))
    return str(path)


def write_query(tmp_path, query, name="query.json"):
    path = tmp_path / name
    path.write_text(json.dumps(query.to_json()))
    return str(path)


def flux_setup(tmp_path):
    net, query = nets.flux_demo()
    return (
        net,
        write_network(tmp_path, net),
        write_barriers(tmp_path, nets.uniform_barriers(net)),
        write_query(tmp_path, query),
    )


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1


def test_expand_round_trip(tmp_path, capsys):
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(molecules.WATER_MGF + "---\n" + molecules.GLYCOLONITRILE_MGF)
    out = tmp_path / "net.json"
    code = main(
        [
            "expand",
            "--seeds", str(seeds),
            "--max-iterations", "1",
            "--max-elements", "C=2,N=4,O=4",
            "--output", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "iteration 1: 4 molecules, 2 reactions" in stdout
    assert f"wrote {out}" in stdout
    net = Hypergraph.from_json(json.loads(out.read_text()))
    assert len(net.vertices) == 4 and len(net.edges) == 2
    manifest = json.loads((tmp_path / "net.json.manifest.json").read_text())
    assert manifest["command"] == "expand"
    assert manifest["history"] == [[4, 2]]
    assert manifest["version"] == __version__
    assert set(manifest["inputs"]) == {"seeds"}
    assert manifest["outputs"] == [str(out)]
    assert manifest["duration_seconds"] >= 0


def test_expand_zero_iterations_writes_seed_network(tmp_path, capsys):
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(molecules.WATER_MGF)
    out = tmp_path / "net.json"
    assert main(["expand", "--seeds", str(seeds), "--max-iterations", "0", "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert not any(line.startswith("iteration") for line in stdout.splitlines())
    net = Hypergraph.from_json(json.loads(out.read_text()))
    assert len(net.vertices) == 1 and net.edges == []


def test_expand_iterations_default_to_the_expansion_configs():
    args = cli._build_parser().parse_args(["expand", "--seeds", "seeds.mgf", "--output", "net.json"])
    assert args.max_iterations == ExpansionConfig().max_iterations


def test_expand_custom_rules_and_dot(tmp_path, capsys):
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text("atom 0 H\natom 1 H\nbond 0 1 1\n")
    rules = tmp_path / "rules.dsl"
    rules.write_text(
        "rule split\nleft:\n  atom 0 H\n  atom 1 H\n  bond 0 1 1\nright:\nreversible\n"
    )
    out = tmp_path / "h2.json"
    code = main(
        [
            "expand",
            "--seeds", str(seeds),
            "--rules", str(rules),
            "--max-iterations", "4",
            "--output", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "reached fixpoint" in stdout
    net = Hypergraph.from_json(json.loads(out.read_text()))
    assert len(net.vertices) == 2 and len(net.edges) == 2
    manifest = json.loads((tmp_path / "h2.json.manifest.json").read_text())
    assert set(manifest["inputs"]) == {"seeds", "rules"}
    assert manifest["outputs"] == [str(out)]
    assert manifest["reached_fixpoint"] is True
    # export-dot draws the network the expansion made
    drawn = tmp_path / "drawing.dot"
    assert main(["export-dot", "--network", str(out), "--output", str(drawn)]) == 0
    capsys.readouterr()
    config = ExpansionConfig(tuple(parse_molecules(seeds.read_text())), max_iterations=4)
    expansion = run_expansion(config, parse_rules(rules.read_text()))
    assert drawn.read_text() == expansion.network.to_dot()
    assert drawn.read_text().startswith("digraph")


def test_expand_unknown_filter_is_usage_error(tmp_path, capsys):
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(molecules.WATER_MGF)
    out = tmp_path / "net.json"
    code = main(
        ["expand", "--seeds", str(seeds), "--filter", "frobnicate", "--output", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("usage:")
    assert not out.exists()


def test_expand_missing_seed_file(tmp_path, capsys):
    out = tmp_path / "net.json"
    code = main(["expand", "--seeds", str(tmp_path / "nope.mgf"), "--output", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_expand_invalid_inputs_exit_2(tmp_path, capsys):
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text("atom 0 Xx\n")
    out = tmp_path / "net.json"
    assert main(["expand", "--seeds", str(seeds), "--output", str(out)]) == 2
    seeds.write_text(molecules.WATER_MGF)
    bad_rules = tmp_path / "rules.dsl"
    bad_rules.write_text("rule broken\nleft:\n")
    assert main(
        ["expand", "--seeds", str(seeds), "--rules", str(bad_rules), "--output", str(out)]
    ) == 2
    assert main(
        ["expand", "--seeds", str(seeds), "--max-elements", "C2", "--output", str(out)]
    ) == 2
    capsys.readouterr()


def test_expand_rules_with_a_taken_name_exit_2_without_traceback(tmp_path, capsys):
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(molecules.WATER_MGF)
    split = "rule split\nleft:\n  atom 0 H\n  atom 1 H\n  bond 0 1 1\nright:\n"
    rules = tmp_path / "rules.dsl"
    rules.write_text(split + "reversible\n" + split.replace("rule split", "rule split-rev"))
    out = tmp_path / "net.json"
    code = main(["expand", "--seeds", str(seeds), "--rules", str(rules), "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 8:") and "'split-rev'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_expand_refuses_a_disconnected_seed(tmp_path, capsys):
    # one seed block holding C#N and a separate O-H: expanded as one
    # molecule, it would make reactions with a two-part "molecule" in them
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(
        molecules.WATER_MGF
        + "---\natom 0 C\natom 1 N\natom 2 O\natom 3 H\nbond 0 1 3\nbond 2 3 1\n"
    )
    out = tmp_path / "net.json"
    assert main(["expand", "--seeds", str(seeds), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed 2 is not one molecule") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["star seed", "chain rule"])
def test_expand_too_deep_for_a_recursive_search_exit_2(tmp_path, capsys, case):
    # canonical keys and rule matching recurse once per atom: an iron with
    # 1100 hydrogens, or a rule that matches a chain of 1100 atoms, runs out
    # of stack
    seeds = tmp_path / "seeds.mgf"
    argv = ["expand", "--seeds", str(seeds), "--max-iterations", "1"]
    if case == "star seed":
        seeds.write_text(
            "atom 0 Fe\n" + "".join(f"atom {i} H\nbond 0 {i} 1\n" for i in range(1, 1101))
        )
    else:
        # mixed elements key in a few refinement rounds; a chain of one
        # element takes one round per atom pair and seconds to key
        rng = random.Random(0)
        elements = sorted(PERIODIC_TABLE)
        atoms = [f"atom {i} {rng.choice(elements)}" for i in range(1100)]
        bonds = [f"bond {i} {i + 1} 1" for i in range(1099)]
        seeds.write_text("\n".join(atoms + bonds) + "\n")
        rules = tmp_path / "rules.dsl"
        rules.write_text("\n".join(["rule chain", "left:", *atoms, *bonds, "right:", *bonds]))
        argv += ["--rules", str(rules)]
    out = tmp_path / "net.json"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: an input is too deep to process: a search ran out of stack\n"
    assert not out.exists()


def test_annotate_check_conserved(tmp_path, capsys):
    net, network, barriers, _ = flux_setup(tmp_path)
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"flow": {"0": 1}, "inflow": {"0": 2}, "outflow": {"3": 1}}))
    report = tmp_path / "report.json"
    code = main(
        ["annotate-check", "--network", network, "--flow", str(flow), "--output", str(report)]
    )
    assert code == 0
    assert "flow is conserved" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["conserved"] is True
    assert data["violations"] == {}
    assert data["support"] == [0]
    assert "score_j_per_mol" not in data
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["command"] == "annotate-check"


def test_annotate_check_reports_violations(tmp_path, capsys):
    net, network, _, _ = flux_setup(tmp_path)
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"flow": {"0": 2}}))
    report = tmp_path / "report.json"
    code = main(
        ["annotate-check", "--network", network, "--flow", str(flow), "--output", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "NOT conserved" in out
    assert "vertex 0: net -4" in out
    data = json.loads(report.read_text())
    assert data["conserved"] is False
    assert data["violations"] == {"0": -4, "3": 2}


def test_annotate_check_scores_with_barriers(tmp_path, capsys):
    net, network, barriers, _ = flux_setup(tmp_path)
    flow_dict = {0: 1, ("in", 0): 2, ("out", 3): 1}
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"flow": {"0": 1}, "inflow": {"0": 2}, "outflow": {"3": 1}}))
    report = tmp_path / "report.json"
    code = main(
        [
            "annotate-check",
            "--network", network,
            "--flow", str(flow),
            "--barriers", barriers,
            "--output", str(report),
        ]
    )
    assert code == 0
    assert "score:" in capsys.readouterr().out
    data = json.loads(report.read_text())
    table = BarrierTable.from_kj(nets.uniform_barriers(net))
    weights = objective_coefficients(table, Thermo(), net)
    assert data["score_j_per_mol"] == pytest.approx(pathway_score(flow_dict, weights))
    assert data["score_kj_per_mol"] == pytest.approx(data["score_j_per_mol"] / 1000.0)


def test_annotate_check_temperature_changes_score(tmp_path):
    net, network, barriers, _ = flux_setup(tmp_path)
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"flow": {"0": 1}, "inflow": {"0": 2}, "outflow": {"3": 1}}))
    scores = {}
    for temp in ("298.15", "500"):
        report = tmp_path / f"report-{temp}.json"
        assert main(
            [
                "annotate-check",
                "--network", network,
                "--flow", str(flow),
                "--barriers", barriers,
                "--temperature-k", temp,
                "--output", str(report),
            ]
        ) == 0
        scores[temp] = json.loads(report.read_text())["score_j_per_mol"]
    assert scores["298.15"] != scores["500"]
    table = BarrierTable.from_kj(nets.uniform_barriers(net))
    hot = objective_coefficients(table, Thermo(500.0), net)
    assert scores["500"] == pytest.approx(
        pathway_score({0: 1, ("in", 0): 2, ("out", 3): 1}, hot)
    )


def test_annotate_check_unknown_edge_exit_2(tmp_path, capsys):
    _, network, _, _ = flux_setup(tmp_path)
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"flow": {"9": 1}}))
    assert main(["annotate-check", "--network", network, "--flow", str(flow)]) == 2
    assert "error:" in capsys.readouterr().err


def test_query_enumerates_ranked_solutions(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    out = tmp_path / "solutions.json"
    code = main(
        [
            "query",
            "--network", network,
            "--barriers", barriers,
            "--query", query,
            "-k", "5",
            "--output", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("rank ") == 3
    assert "support e0" in stdout
    data = json.loads(out.read_text())
    assert data["status"] == "ok"
    assert data["rank_requested"] == 5
    assert data["temperature_k"] == 298.15
    assert [s["support"] for s in data["solutions"]] == [[0], [1], [2]]
    # each support is written once, in its solution's "support"
    assert set(data) == {"status", "temperature_k", "rank_requested", "solutions"}
    first = data["solutions"][0]
    assert first["rank"] == 1
    assert first["objective_j_per_mol"] == pytest.approx(1.0)
    assert first["flow"] == {"0": 1}
    assert first["inflow"] == {"0": 2}
    assert first["outflow"] == {"3": 1}
    assert set(first) == {
        "rank", "status", "objective_j_per_mol", "score_j_per_mol", "score_kj_per_mol",
        "support", "flow", "inflow", "outflow",
    }
    assert first["score_kj_per_mol"] == pytest.approx(first["score_j_per_mol"] / 1000.0)
    manifest = json.loads((tmp_path / "solutions.json.manifest.json").read_text())
    assert manifest["command"] == "query"
    assert set(manifest["inputs"]) == {"network", "barriers", "query"}
    assert manifest["node_limit"] == 10_000_000


def test_query_writes_profiles_and_dot(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    out = tmp_path / "solutions.json"
    code = main(
        [
            "query",
            "--network", network,
            "--barriers", barriers,
            "--query", query,
            "-k", "2",
            "--profiles",
            "--output", str(out),
        ]
    )
    assert code == 0
    profile = (tmp_path / "solutions.profile-1.csv").read_text().splitlines()
    assert profile[0] == "step,edge_id,flow,barrier_kj_per_mol,cumulative_kj_per_mol"
    assert profile[1] == "1,0,1,20.000000,20.000000"
    assert (tmp_path / "solutions.profile-2.csv").exists()
    manifest = json.loads((tmp_path / "solutions.json.manifest.json").read_text())
    assert manifest["outputs"] == sorted(
        str(p) for p in (out, *tmp_path.glob("solutions.profile-*.csv"))
    )
    # export-dot draws the best pathway
    dot = tmp_path / "best.dot"
    assert main(["export-dot", "--network", network, "--solutions", str(out),
                 "--output", str(dot)]) == 0
    capsys.readouterr()
    assert "penwidth=3" in dot.read_text()


def test_query_relaxation(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    out = tmp_path / "relaxed.json"
    code = main(
        [
            "query",
            "--network", network,
            "--barriers", barriers,
            "--query", query,
            "--relax",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert "relaxation optimum: 1.500000" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["relaxation"] is True
    assert data["status"] == "optimal"
    assert data["objective_j_per_mol"] == pytest.approx(1.5, abs=1e-9)
    # each route alone is an optimal vertex; the dual simplex from the
    # all-logical basis ends on the last one
    assert data["inflow"] == {"2": 3.0}
    assert data["outflow"] == {"3": 1.5}
    assert data["flow"] == {"2": 1.5}
    manifest = json.loads((tmp_path / "relaxed.json.manifest.json").read_text())
    assert manifest["relax"] is True


def test_query_infeasible_is_exit_zero(tmp_path, capsys):
    net = nets.placeholder_net(2, [({0: 1}, {1: 1})])
    network = write_network(tmp_path, net)
    barriers = write_barriers(tmp_path, nets.uniform_barriers(net))
    query = write_query(
        tmp_path, PathwayQuery(sources={0: (0, 1)}, targets={1: (2, 2)}, flow_cap=1)
    )
    out = tmp_path / "solutions.json"
    code = main(
        ["query", "--network", network, "--barriers", barriers, "--query", query,
         "--output", str(out)]
    )
    assert code == 0
    assert "no pathway satisfies the query" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["status"] == "infeasible"
    assert data["solutions"] == []


def test_query_flow_cap_override(tmp_path, capsys):
    # the query file's flow_cap is the one per-edge cap a query runs under
    net, _ = nets.flux_demo()
    network = write_network(tmp_path, net)
    barriers = write_barriers(tmp_path, nets.uniform_barriers(net))

    def best(cap):
        query = PathwayQuery(
            sources={0: (0, 4), 1: (0, 4), 2: (0, 4)}, targets={3: (2, 2)}, flow_cap=cap
        )
        out = tmp_path / f"cap-{cap}.json"
        files = ["--network", network, "--barriers", barriers,
                 "--query", write_query(tmp_path, query, name=f"query-{cap}.json")]
        assert main(["query", *files, "--output", str(out)]) == 0
        capsys.readouterr()
        return json.loads(out.read_text())["solutions"][0]

    wide_best = best(5)
    assert wide_best["support"] == [0]
    assert wide_best["flow"] == {"0": 2}
    tight_best = best(1)
    assert len(tight_best["support"]) == 2
    assert all(v <= 1 for v in tight_best["flow"].values())
    # the cost objective equals the reported score in minimization mode
    assert tight_best["objective_j_per_mol"] == pytest.approx(tight_best["score_j_per_mol"])
    # the largest cap a query file may give
    assert best(2**53)["support"] == [0]


def test_query_node_limit_flag(tmp_path, capsys):
    net, query_obj = nets.cascade_network()
    network = write_network(tmp_path, net)
    barriers = write_barriers(tmp_path, nets.uniform_barriers(net))
    query = write_query(tmp_path, query_obj)
    out = tmp_path / "solutions.json"
    base = ["query", "--network", network, "--barriers", barriers, "--query", query,
            "--output", str(out)]
    assert main(base + ["--node-limit", "1"]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(base + ["--node-limit", "100000"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "solutions.json.manifest.json").read_text())
    assert manifest["node_limit"] == 100000


def check_query_numerical_exit_4(tmp_path, capsys, monkeypatch, after):
    helpers.simplex_ends_numerically(monkeypatch, after)
    net, network, barriers, query = flux_setup(tmp_path)
    out = tmp_path / "solutions.json"
    argv = ["query", "--network", network, "--barriers", barriers, "--query", query,
            "-k", "3", "--output", str(out)]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "numerical" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_query_numerical_relaxation_exit_4(tmp_path, capsys, monkeypatch):
    check_query_numerical_exit_4(tmp_path, capsys, monkeypatch, after=0)


def test_query_numerical_warm_solve_exit_4(tmp_path, capsys, monkeypatch):
    # an enumeration solves its root LP cold once, and every later solve
    # starts warm from a basis of the search
    check_query_numerical_exit_4(tmp_path, capsys, monkeypatch, after=1)


def test_query_relax_numerical_exit_4(tmp_path, capsys, monkeypatch):
    helpers.simplex_ends_numerically(monkeypatch)
    net, network, barriers, query = flux_setup(tmp_path)
    argv = ["query", "--network", network, "--barriers", barriers, "--query", query,
            "--relax", "--output", str(tmp_path / "relaxed.json")]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "numerical" in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("relax", [False, True], ids=["search", "relax"])
def test_query_iteration_limit_exit_4(tmp_path, capsys, monkeypatch, relax):
    monkeypatch.setattr(solve, "MAX_PIVOTS", 1)
    net, network, barriers, query = flux_setup(tmp_path)
    argv = ["query", "--network", network, "--barriers", barriers, "--query", query,
            "--output", str(tmp_path / "solutions.json")] + (["--relax"] if relax else [])
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "iteration limit of 1 " in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("query", "-k", "0"),
        ("query", "--node-limit", "0"),
        ("query", "--temperature-k", "0"),
        ("query", "--temperature-k", "nan"),
        ("query", "--temperature-k", "inf"),
        ("query", "--temperature-k", "1e308"),
        ("annotate-check", "--temperature-k", "-5"),
        ("export-lp", "--temperature-k", "-1e-3"),
        ("export-dot", "--rank", "0"),
        ("expand", "--max-iterations", "-1"),
        # a numeric flag takes the spellings the input files take: ASCII
        # digits, no leading zero, no sign, no underscore, no white space
        ("query", "-k", "\u0663"),
        ("query", "-k", "0_2"),
        ("query", "-k", " 4"),
        ("query", "--node-limit", "010"),
        ("expand", "--max-iterations", "\u0663"),
        ("expand", "--max-iterations", "0_2"),
        ("export-dot", "--rank", "+02"),
        ("export-dot", "--rank", "010"),
        ("query", "--temperature-k", "\u0663\u0660\u0660"),
        ("query", "--temperature-k", "3_00"),
        ("annotate-check", "--temperature-k", " 300"),
    ],
)
def test_out_of_range_numeric_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    net, network, barriers, query = flux_setup(tmp_path)
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(molecules.WATER_MGF)
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"flow": {"0": 1}}))
    out = tmp_path / "out.txt"
    inputs = {
        "query": ["--network", network, "--barriers", barriers, "--query", query],
        "annotate-check": ["--network", network, "--flow", str(flow), "--barriers", barriers],
        "export-lp": ["--network", network, "--barriers", barriers, "--query", query],
        "export-dot": ["--network", network],
        "expand": ["--seeds", str(seeds)],
    }[command]
    assert main([command, *inputs, flag, value, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert flag in err
    assert "Traceback" not in err
    assert not out.exists()


def test_query_temperature_recorded(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    out = tmp_path / "solutions.json"
    assert main(
        ["query", "--network", network, "--barriers", barriers, "--query", query,
         "--temperature-k", "400", "--output", str(out)]
    ) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["temperature_k"] == 400.0
    manifest = json.loads((tmp_path / "solutions.json.manifest.json").read_text())
    assert manifest["temperature_k"] == 400.0


def test_query_reruns_are_byte_identical(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = ["query", "--network", network, "--barriers", barriers, "--query", query, "-k", "3"]
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_export_lp_integer_and_relaxed(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    full = tmp_path / "model.lp"
    code = main(
        ["export-lp", "--network", network, "--barriers", barriers, "--query", query,
         "--output", str(full)]
    )
    assert code == 0
    text = full.read_text()
    helpers.check_lp_grammar(text)
    assert "Binaries" in text
    relaxed = tmp_path / "relaxed.lp"
    assert main(
        ["export-lp", "--network", network, "--barriers", barriers, "--query", query,
         "--relax", "--output", str(relaxed)]
    ) == 0
    capsys.readouterr()
    relaxed_text = relaxed.read_text()
    helpers.check_lp_grammar(relaxed_text)
    assert "Binaries" not in relaxed_text
    assert "z_0" not in relaxed_text
    assert json.loads((tmp_path / "model.lp.manifest.json").read_text())["relax"] is False
    assert json.loads((tmp_path / "relaxed.lp.manifest.json").read_text())["relax"] is True


def test_export_lp_deterministic(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    a = tmp_path / "a.lp"
    b = tmp_path / "b.lp"
    args = ["export-lp", "--network", network, "--barriers", barriers, "--query", query]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_export_dot_plain_and_with_solutions(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    plain = tmp_path / "plain.dot"
    assert main(["export-dot", "--network", network, "--output", str(plain)]) == 0
    assert "penwidth" not in plain.read_text()
    solutions = tmp_path / "solutions.json"
    assert main(
        ["query", "--network", network, "--barriers", barriers, "--query", query,
         "-k", "3", "--output", str(solutions)]
    ) == 0
    drawn = tmp_path / "drawn.dot"
    assert main(
        ["export-dot", "--network", network, "--solutions", str(solutions),
         "--rank", "2", "--output", str(drawn)]
    ) == 0
    capsys.readouterr()
    text = drawn.read_text()
    marked = [line for line in text.splitlines() if "e1 [" in line]
    assert marked and "penwidth=3" in marked[0]


def test_export_dot_draws_every_rank_of_a_query(tmp_path, capsys):
    # export-dot is the one drawing command: each rank is drawn as the
    # network draws that rank's flow
    net, query_obj = nets.cascade_network()
    network = write_network(tmp_path, net)
    barriers = write_barriers(tmp_path, nets.uniform_barriers(net))
    query = write_query(tmp_path, query_obj)
    solutions = tmp_path / "solutions.json"
    assert main(["query", "--network", network, "--barriers", barriers, "--query", query,
                 "-k", "3", "--output", str(solutions)]) == 0
    weights = objective_coefficients(load_barriers(Path(barriers).read_text(), net), Thermo(), net)
    ranked = enumerate_pathways(build_model(net, weights, query_obj), 3).solutions
    assert len(ranked) == 3
    for rank, solution in enumerate(ranked, start=1):
        drawn = tmp_path / f"rank{rank}.dot"
        assert main(["export-dot", "--network", network, "--solutions", str(solutions),
                     "--rank", str(rank), "--output", str(drawn)]) == 0
        assert drawn.read_text() == net.to_dot(solution.flow)
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flags",
    [("expand", ["--dot"]), ("query", ["--dot"]), ("query", ["--flow-cap", "1"])],
    ids=["expand---dot", "query---dot", "query---flow-cap"],
)
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flags):
    # export-dot is the one drawing command, and the query file's flow_cap
    # the one flow cap
    net, network, barriers, query = flux_setup(tmp_path)
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(molecules.WATER_MGF)
    inputs = {
        "query": ["--network", network, "--barriers", barriers, "--query", query],
        "expand": ["--seeds", str(seeds)],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main([command, *inputs, *flags, "--output", str(tmp_path / "out.json")]) == 1
    assert flags[0] in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_export_dot_missing_rank_exit_2(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    solutions = tmp_path / "solutions.json"
    assert main(
        ["query", "--network", network, "--barriers", barriers, "--query", query,
         "--output", str(solutions)]
    ) == 0
    bad = tmp_path / "bad.dot"
    assert main(
        ["export-dot", "--network", network, "--solutions", str(solutions),
         "--rank", "7", "--output", str(bad)]
    ) == 2
    assert "no rank 7" in capsys.readouterr().err


def test_manifest_records_input_hashes(tmp_path, capsys):
    import hashlib

    net, network, barriers, query = flux_setup(tmp_path)
    out = tmp_path / "solutions.json"
    assert main(
        ["query", "--network", network, "--barriers", barriers, "--query", query,
         "--output", str(out)]
    ) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "solutions.json.manifest.json").read_text())
    expected = hashlib.sha256(Path(barriers).read_text().encode()).hexdigest()
    assert manifest["inputs"]["barriers"]["sha256"] == expected
    assert manifest["inputs"]["barriers"]["path"] == barriers
    assert manifest["argv"][0] == "query"


def test_unwritable_output_exit_2(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    out = tmp_path / "missing-dir" / "solutions.json"
    assert main(
        ["query", "--network", network, "--barriers", barriers, "--query", query,
         "--output", str(out)]
    ) == 2
    assert "cannot write" in capsys.readouterr().err


def test_corrupt_network_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "net.json"
    bad.write_text("{not json")
    flow = tmp_path / "flow.json"
    flow.write_text("{}")
    assert main(["annotate-check", "--network", str(bad), "--flow", str(flow)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("reactants", {"0": -2}), ("products", {"9": 1})])
def test_query_malformed_edge_exit_2(tmp_path, capsys, field, value):
    net, query = nets.flux_demo()
    data = net.to_json()
    data["edges"][0][field] = value
    network = tmp_path / "network.json"
    network.write_text(json.dumps(data))
    out = tmp_path / "solutions.json"
    argv = ["query", "--network", str(network),
            "--barriers", write_barriers(tmp_path, nets.uniform_barriers(net)),
            "--query", write_query(tmp_path, query), "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not a valid network document: edge 0" in err
    assert "Traceback" not in err
    assert not out.exists()


def older_network_file(net, stale_key=False, reverse_of=None):
    """``net`` as files were written before they held only molecules and
    bags: each vertex with its canonical key, each edge with ``reverse_of``,
    the id of the edge with swapped bags (or ``reverse_of`` given here)."""
    data = net.to_json()
    for row, vertex in zip(data["vertices"], net.vertices):
        row["key"] = "00000000" if stale_key else vertex.key.hex()
    edge_ids = {(str(e["reactants"]), str(e["products"])): e["id"] for e in data["edges"]}
    for row in data["edges"]:
        derived = edge_ids.get((str(row["products"]), str(row["reactants"])))
        row["reverse_of"] = derived if reverse_of is None else reverse_of
    return data


@pytest.mark.parametrize(
    "older",
    [{}, {"stale_key": True}, {"reverse_of": 999}],
    ids=["true-keys", "stale-key", "unknown-reverse"],
)
def test_network_file_in_the_older_format_loads_the_same(tmp_path, capsys, older):
    # the key and reverse_of of an older file are ignored, not checked
    net, query_obj = nets.cascade_network()
    data = older_network_file(net, **older)
    assert any(row["reverse_of"] is not None for row in data["edges"])
    network = write_network(tmp_path, net)
    old_network = tmp_path / "old-network.json"
    old_network.write_text(json.dumps(data))
    new, old = (Hypergraph.from_json(json.loads(Path(p).read_text()))
                for p in (network, old_network))
    assert [(v.id, v.key) for v in old.vertices] == [(v.id, v.key) for v in new.vertices]
    assert [(e.id, e.reactants, e.products) for e in old.edges] == [
        (e.id, e.reactants, e.products) for e in new.edges]
    files = ["--barriers", write_barriers(tmp_path, nets.uniform_barriers(net)),
             "--query", write_query(tmp_path, query_obj), "-k", "3"]
    solutions = []
    for name, path in (("new", network), ("old", str(old_network))):
        out = tmp_path / f"{name}-solutions.json"
        assert main(["query", "--network", path, *files, "--output", str(out)]) == 0
        solutions.append(out.read_bytes())
    capsys.readouterr()
    assert solutions[0] == solutions[1]


def test_wrong_shape_documents_exit_2(tmp_path, capsys):
    net, network, barriers, query = flux_setup(tmp_path)
    out = tmp_path / "out.json"
    base = ["query", "--network", network, "--barriers", barriers, "--output", str(out)]

    alien_net = tmp_path / "alien-net.json"
    alien_net.write_text(json.dumps({"vertices": 3}))
    assert main(["query", "--network", str(alien_net), "--barriers", barriers,
                 "--query", query, "--output", str(out)]) == 2
    assert "not a valid network document" in capsys.readouterr().err

    bad_query = tmp_path / "bad-query.json"
    bad_query.write_text(json.dumps({"targets": {"3": "wide"}}))
    assert main(base + ["--query", str(bad_query)]) == 2
    assert "not a valid query document" in capsys.readouterr().err

    bad_query.write_text(json.dumps({"targets": {"3": [1, 1]}, "total_inflow_max": -1}))
    assert main(base + ["--query", str(bad_query)]) == 2
    assert "negative total_inflow_max" in capsys.readouterr().err

    bad_flow = tmp_path / "bad-flow.json"
    bad_flow.write_text(json.dumps({"flow": [1, 2]}))
    assert main(["annotate-check", "--network", network, "--flow", str(bad_flow)]) == 2
    assert "not a valid flow document" in capsys.readouterr().err

    bad_solutions = tmp_path / "bad-solutions.json"
    bad_solutions.write_text(json.dumps({"solutions": [{"rank": 1, "flow": 9}]}))
    assert main(["export-dot", "--network", network, "--solutions", str(bad_solutions),
                 "--output", str(tmp_path / "x.dot")]) == 2
    assert "not a valid solutions document" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["flow cap", "source range", "multiplicity"])
def test_overflowing_json_number_exit_2(tmp_path, capsys, document):
    # json reads 1e400 as float infinity, which int() cannot convert
    net, query = nets.flux_demo()
    net_data, query_data = net.to_json(), query.to_json()
    if document == "flow cap":
        query_data["flow_cap"] = "BIG"
    elif document == "source range":
        query_data["sources"]["0"] = {"min": 0, "max": "BIG"}
    else:
        reactants = net_data["edges"][0]["reactants"]
        reactants[next(iter(reactants))] = "BIG"
    network, query_file = tmp_path / "network.json", tmp_path / "query.json"
    network.write_text(json.dumps(net_data).replace('"BIG"', "1e400"))
    query_file.write_text(json.dumps(query_data).replace('"BIG"', "1e400"))
    out = tmp_path / "solutions.json"
    assert main(["query", "--network", str(network),
                 "--barriers", write_barriers(tmp_path, nets.uniform_barriers(net)),
                 "--query", str(query_file), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize(
    "caps", ["c=2,N=4,O=4", "C=2,C=9", "C=-1", "C=02", "C=1_0", "C=\u0663", "C=+2"]
)
def test_expand_rejects_bad_element_caps(tmp_path, capsys, caps):
    # a lower-case symbol, a repeated element and a negative cap used to pass;
    # a count is spelled as an id is: ASCII digits, no leading zero, no sign
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(molecules.WATER_MGF)
    out = tmp_path / "network.json"
    assert main(["expand", "--seeds", str(seeds), "--max-elements", caps,
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_query_file_accepts_pair_ranges(tmp_path, capsys):
    net, network, barriers, _ = flux_setup(tmp_path)
    query = tmp_path / "query.json"
    query.write_text(json.dumps(
        {"sources": {"0": [0, 2], "1": [0, 2], "2": [0, 2]},
         "targets": {"3": [1, 1]}, "flow_cap": 3}
    ))
    out = tmp_path / "solutions.json"
    assert main(["query", "--network", network, "--barriers", barriers,
                 "--query", str(query), "--output", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["status"] == "ok"


def test_query_non_finite_barrier_exit_2(tmp_path, capsys):
    net, query_obj = nets.cascade_network()
    barriers = write_barriers(tmp_path, {**nets.uniform_barriers(net), 0: "nan"})
    out = tmp_path / "solutions.json"
    assert main(
        ["query", "--network", write_network(tmp_path, net), "--barriers", barriers,
         "--query", write_query(tmp_path, query_obj), "--output", str(out)]
    ) == 2
    assert "line 2: bad barrier value" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.manifest.json"))


#: where a text input holds a number: the input, its text ({} marks the
#: number), and the error a refused spelling there gives
ID_SITES = {
    "seed atom id": ("seeds", "atom 0 O\natom {} H\n", "line 2: bad atom id"),
    "seed bond endpoint": (
        "seeds", "atom 0 O\natom 1 H\nbond 0 {} 1\n", "line 3: bond endpoints must be atom ids"
    ),
    "seed charge": ("seeds", "atom 0 O {}\n", "line 1: bad charge"),
    "rule atom id": ("rules", "rule x\nleft:\n  atom {} O\n", "line 3: bad atom id"),
    "rule bond endpoint": (
        "rules", "rule x\nleft:\n  atom 0 O\n  atom 1 H\n  bond 0 {} 1\n",
        "line 5: bond endpoints must be atom ids",
    ),
    "barrier edge id": (
        "barriers", "edge_id,barrier_kj_per_mol\n0,20\n{},20\n", "line 3: bad edge id"
    ),
    "barrier value": ("barriers", "edge_id,barrier_kj_per_mol\n0,{}\n", "line 2: bad barrier value"),
}


@pytest.mark.parametrize(
    "site, token",
    [(site, token)
     for site in ("seed atom id", "seed bond endpoint", "rule atom id", "rule bond endpoint",
                  "barrier edge id")
     for token in ("1_0", "\u0663", "03", "+1", "-0")]
    + [("seed charge", token) for token in ("1_0", "\u0663", "01")]
    + [("barrier value", token) for token in ("1_0.5", "\u0663", "\u0663.5")],
)
def test_refused_spelling_is_bad_input_with_its_line(tmp_path, capsys, site, token):
    # int() and float() read these as numbers; the text readers refuse them
    kind, template, message = ID_SITES[site]
    path = tmp_path / kind
    path.write_text(template.format(token))
    if kind == "barriers":
        _, network, _, query = flux_setup(tmp_path)
        argv = ["query", "--network", network, "--barriers", str(path), "--query", query]
    elif kind == "seeds":
        argv = ["expand", "--seeds", str(path)]
    else:
        seeds = tmp_path / "water.mgf"
        seeds.write_text(molecules.WATER_MGF)
        argv = ["expand", "--seeds", str(seeds), "--rules", str(path)]
    out = tmp_path / "out.json"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert not out.exists()


def test_query_out_of_range_barrier_exit_2(tmp_path, capsys):
    # at 1e12 kJ/mol the solver's objective-relative tolerances hide every
    # other edge's cost, and the query used to exit 0 with a non-optimal pathway
    net, query_obj = nets.cascade_network()
    barriers = write_barriers(tmp_path, {**nets.uniform_barriers(net), 0: 1e12})
    out = tmp_path / "solutions.json"
    assert main(
        ["query", "--network", write_network(tmp_path, net), "--barriers", barriers,
         "--query", write_query(tmp_path, query_obj), "--output", str(out)]
    ) == 2
    assert "line 2: bad barrier value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "case, code",
    [("bad input", 2), ("node limit", 3), ("numerical", 4), ("no output", 0)],
)
def test_no_manifest_unless_a_command_succeeds_and_writes(
    tmp_path, capsys, monkeypatch, case, code
):
    if case == "numerical":
        helpers.simplex_ends_numerically(monkeypatch)
    net, query_obj = nets.cascade_network()
    network = write_network(tmp_path, net)
    barriers = write_barriers(tmp_path, nets.uniform_barriers(net))
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"flow": {"0": 1}}))
    files = ["--network", network, "--barriers", barriers,
             "--query", write_query(tmp_path, query_obj)]
    argv = {
        "bad input": ["export-dot", "--network", network, "--solutions", network,
                      "--output", str(tmp_path / "drawn.dot")],
        "node limit": ["query", *files, "--node-limit", "1",
                       "--output", str(tmp_path / "solutions.json")],
        "numerical": ["query", *files, "-k", "3", "--output", str(tmp_path / "solutions.json")],
        "no output": ["annotate-check", "--network", network, "--flow", str(flow)],
    }[case]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == code
    capsys.readouterr()
    assert sorted(tmp_path.iterdir()) == before


MANIFEST_KEYS = {"command", "argv", "version", "inputs", "outputs", "duration_seconds"}


@pytest.mark.parametrize(
    "argv, extra_keys, input_names",
    [
        (["expand", "--seeds", "seeds.mgf", "--max-iterations", "1", "--output", "net.json"],
         {"reached_fixpoint", "history"}, {"seeds"}),
        (["annotate-check", "--network", "network.json", "--flow", "flow.json",
          "--barriers", "barriers.csv", "--output", "report.json"],
         set(), {"network", "flow", "barriers"}),
        (["query", "--network", "network.json", "--barriers", "barriers.csv",
          "--query", "query.json", "-k", "3", "--profiles", "--output", "solutions.json"],
         {"node_limit", "temperature_k"}, {"network", "barriers", "query"}),
        (["query", "--network", "network.json", "--barriers", "barriers.csv",
          "--query", "query.json", "--relax", "--output", "relaxed.json"],
         {"relax"}, {"network", "barriers", "query"}),
        (["export-lp", "--network", "network.json", "--barriers", "barriers.csv",
          "--query", "query.json", "--output", "model.lp"],
         {"relax"}, {"network", "barriers", "query"}),
        (["export-lp", "--network", "network.json", "--barriers", "barriers.csv",
          "--query", "query.json", "--relax", "--output", "model.lp"],
         {"relax"}, {"network", "barriers", "query"}),
        (["export-dot", "--network", "network.json", "--solutions", "given.json",
          "--output", "drawn.dot"],
         set(), {"network", "solutions"}),
    ],
    ids=["expand", "annotate-check", "query", "query-relax", "export-lp", "export-lp-relax",
         "export-dot"],
)
def test_manifest_keys_and_outputs(
    tmp_path, capsys, monkeypatch, argv, extra_keys, input_names
):
    monkeypatch.chdir(tmp_path)
    flux_setup(tmp_path)
    seeds = molecules.WATER_MGF + "---\n" + molecules.GLYCOLONITRILE_MGF
    (tmp_path / "seeds.mgf").write_text(seeds)
    flow = {"flow": {"0": 1}, "inflow": {"0": 2}, "outflow": {"3": 1}}
    (tmp_path / "flow.json").write_text(json.dumps(flow))
    (tmp_path / "given.json").write_text(json.dumps({"solutions": [{"rank": 1, **flow}]}))
    before = {p.name for p in tmp_path.iterdir()}
    assert main(argv) == 0
    capsys.readouterr()
    written = {p.name for p in tmp_path.iterdir()} - before
    # the manifest is named after the first output in full
    manifest_name = f"{argv[-1]}.manifest.json"
    assert manifest_name in written
    manifest = json.loads((tmp_path / manifest_name).read_text())
    assert set(manifest) == MANIFEST_KEYS | extra_keys
    assert manifest["command"] == argv[0]
    assert manifest["argv"] == argv
    assert set(manifest["inputs"]) == input_names
    assert manifest["outputs"] == sorted(written - {manifest_name})


def test_each_command_keeps_its_own_manifest(tmp_path, capsys):
    # a drawing of network.json beside it leaves the expansion's manifest
    seeds = tmp_path / "seeds.mgf"
    seeds.write_text(molecules.WATER_MGF + "---\n" + molecules.GLYCOLONITRILE_MGF)
    network = tmp_path / "network.json"
    drawing = tmp_path / "network.dot"
    assert main(["expand", "--seeds", str(seeds), "--max-iterations", "1",
                 "--output", str(network)]) == 0
    assert main(["export-dot", "--network", str(network), "--output", str(drawing)]) == 0
    capsys.readouterr()
    for path, command in ((network, "expand"), (drawing, "export-dot")):
        manifest = json.loads(Path(f"{path}.manifest.json").read_text())
        assert (manifest["command"], manifest["outputs"]) == (command, [str(path)])


def test_no_manifest_beside_an_output_that_is_not_a_regular_file(tmp_path, capsys):
    # a manifest beside /dev/null would be /dev/null.manifest.json
    net, network, barriers, query = flux_setup(tmp_path)
    sink = tmp_path / "sink"
    sink.symlink_to(os.devnull)
    before = sorted(tmp_path.iterdir())
    assert main(["query", "--network", network, "--barriers", barriers, "--query", query,
                 "--output", str(sink)]) == 0
    capsys.readouterr()
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("document", ["network", "query", "flow", "solutions"])
def test_deeply_nested_json_exit_2(tmp_path, capsys, document):
    # json's decoder recurses once per level and runs out of stack long
    # before it runs out of text
    net, network, barriers, query = flux_setup(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    out = str(tmp_path / "out")
    argv = {
        "network": ["export-dot", "--network", str(deep), "--output", out],
        "query": ["export-lp", "--network", network, "--barriers", barriers,
                  "--query", str(deep), "--output", out],
        "flow": ["annotate-check", "--network", network, "--flow", str(deep)],
        "solutions": ["export-dot", "--network", network, "--solutions", str(deep),
                      "--output", out],
    }[document]
    assert main(argv) == 2
    assert f"{deep} nests too deeply to read" in capsys.readouterr().err
    assert not Path(out).exists()


@pytest.mark.parametrize(
    "field, value",
    [("forbidden_edges", "01"), ("targets", {"3": "12"}), ("flow_cap", 2.7), ("flow_cap", True)],
)
def test_query_values_that_are_not_json_integers_exit_2(tmp_path, capsys, field, value):
    net, network, barriers, _ = flux_setup(tmp_path)
    data = nets.flux_demo()[1].to_json()
    data[field] = value
    query = tmp_path / "odd-query.json"
    query.write_text(json.dumps(data))
    out = tmp_path / "solutions.json"
    assert main(["query", "--network", network, "--barriers", barriers,
                 "--query", str(query), "--output", str(out)]) == 2
    assert "not a valid query document" in capsys.readouterr().err
    assert not out.exists()


NETWORK_COMMANDS = {
    "query": lambda network, files: [
        "query", "--network", network, "--barriers", files["barriers"],
        "--query", files["query"], "--output", files["out"] + ".json"],
    "export-dot": lambda network, files: [
        "export-dot", "--network", network, "--output", files["out"] + ".dot"],
    "annotate-check": lambda network, files: [
        "annotate-check", "--network", network, "--flow", files["flow"],
        "--output", files["out"] + ".json"],
}


ODD_SIDES = {
    "string": ("0", "2"),
    "fraction": ("0", 1.7),
    "bool": ("0", True),
    "above-cap": ("0", 1001),
    "leading-zero": ("00", 2),
    "huge": ("0", 10**400),
}


@pytest.mark.parametrize(
    "command, key, value",
    [
        pytest.param(command, *ODD_SIDES[case], id=f"{command}-{case}")
        for command in NETWORK_COMMANDS
        for case in ODD_SIDES
        # at 10**400 ``export-dot`` used to draw arrows without end
        if not (command == "export-dot" and case == "huge")
    ],
)
def test_network_multiplicities_that_are_not_small_json_integers_exit_2(
    tmp_path, capsys, command, key, value
):
    net, network, barriers, query = flux_setup(tmp_path)
    data = net.to_json()
    data["edges"][0]["reactants"] = {key: value}
    odd = tmp_path / "odd-network.json"
    odd.write_text(json.dumps(data))
    flow = tmp_path / "flow.json"
    flow.write_text("{}")
    files = {"barriers": barriers, "query": query, "flow": str(flow), "out": str(tmp_path / "out")}
    assert main(NETWORK_COMMANDS[command](str(odd), files)) == 2
    err = capsys.readouterr().err
    assert "not a valid network document: edge 0: " in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("flow", "0", 10**400),
        ("flow", "0", 2**53 + 1),
        ("flow", "0", 1.7),
        ("flow", "0", True),
        ("flow", "0", "1"),
        ("flow", "00", 1),
        ("inflow", "0", 2.0),
        ("outflow", "03", 1),
    ],
    ids=["huge", "above-2**53", "fraction", "bool", "string", "leading-zero", "float", "outflow-key"],
)
def test_flow_values_that_are_not_json_integers_exit_2(tmp_path, capsys, block, key, value):
    net, network, barriers, _ = flux_setup(tmp_path)
    data = {"flow": {"0": 1}, "inflow": {"0": 2}, "outflow": {"3": 1}}
    data[block] = {key: value}
    flow = tmp_path / "odd-flow.json"
    flow.write_text(json.dumps(data))
    assert main(["annotate-check", "--network", network, "--flow", str(flow),
                 "--barriers", barriers]) == 2
    assert "not a valid flow document" in capsys.readouterr().err
    # a solutions file carries its flows the same way
    solutions = tmp_path / "odd-solutions.json"
    solutions.write_text(json.dumps({"solutions": [{"rank": 1, **data}]}))
    drawn = tmp_path / "drawn.dot"
    assert main(["export-dot", "--network", network, "--solutions", str(solutions),
                 "--output", str(drawn)]) == 2
    assert "not a valid solutions document" in capsys.readouterr().err
    assert not drawn.exists()


@pytest.mark.parametrize(
    "module, unwanted",
    [
        # the package needs numpy only: scipy, networkx and hypothesis serve
        # the tests, and pytest runs them
        ("hyperpath.cli", {"scipy", "networkx", "hypothesis", "pytest"}),
        # the benchmark imports pathopt during its set-up and solve only in
        # its first timed operation; numpy's import cost belongs to the latter
        ("hyperpath.pathopt", {"numpy"}),
    ],
    ids=["hyperpath.cli", "hyperpath.pathopt"],
)
def test_cli_imports_no_test_oracle(module, unwanted):
    src = Path(hyperpath.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import {module}; "
        f"print(sorted({{m.split('.')[0] for m in sys.modules}} & set({sorted(unwanted)!r})))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_benchmark_tracer_sees_the_model_and_the_solves():
    # bench/tracing.py wraps build_model, add_cut, simplex_solve,
    # branch_and_bound and enumerate_pathways by name and reads the built
    # model's len(variables) and len(rows) and each search's node count
    root = Path(hyperpath.__file__).resolve().parents[2]
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = {[str(root / 'src'), str(root / 'bench'), str(root / 'tests')]!r}",
        "import tracing",
        "tracer = tracing.Tracer()",
        "tracer.install()",
        "import nets",
        "from hyperpath.kinetics import BarrierTable, Thermo, objective_coefficients",
        "from hyperpath.pathopt import build_model",
        "from hyperpath.solve import enumerate_pathways",
        "net, query = nets.flux_demo()",
        "table = BarrierTable.from_kj(nets.uniform_barriers(net))",
        "model = build_model(net, objective_coefficients(table, Thermo(), net), query)",
        "ranked = enumerate_pathways(model, 3)",
        "print(len(ranked.solutions), __import__('json').dumps(tracer.metrics()))",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    ranks, metrics = done.stdout.split(" ", 1)
    metrics = json.loads(metrics)
    assert ranks == "3" and metrics["solve.ranks"] == 3
    assert (metrics["pathopt.model_vars"], metrics["pathopt.model_rows"]) == (7, 5)
    assert metrics["pathopt.build_calls"] == 1
    assert metrics["solve.lp_calls"] > 0
    # enumeration searches every rank through branch_and_bound
    assert metrics["solve.bb_calls"] == 3 and metrics["solve.bb_nodes"] > 0


# -- inputs that cannot crash --------------------------------------------------
# Any query, network or barrier text either parses or raises the error its
# reader documents, and the CLI turns that error into exit 2, never into a
# traceback.

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.integers(),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 10**400]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
#: what ``_Run.read_document`` maps to exit 2 besides malformed JSON
SHAPE_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


@st.composite
def mutated(draw, base: dict):
    """``base`` with one to three values, at any depth, replaced by any JSON."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            node = parent[key]
            parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent[key] = draw(JSON_VALUES)
    return doc


def json_texts(base: dict):
    return st.one_of(
        mutated(base).map(json.dumps),
        JSON_VALUES.map(json.dumps),
        st.text(max_size=30),
    )


def decodes(decode, text: str, errors) -> bool:
    """Whether ``decode`` takes the JSON ``text``; it may fail only with ``errors``."""
    try:
        data = json.loads(text)
    except ValueError:  # malformed JSON, or an integer too long to read
        return False
    try:
        decode(data)
    except errors:
        return False
    return True


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    net, query = nets.flux_demo()
    flow = root / "flow.json"
    flow.write_text("{}")
    return {
        "root": root,
        "network": write_network(root, net),
        "barriers": write_barriers(root, nets.uniform_barriers(net)),
        "query": write_query(root, query),
        "flow": str(flow),
    }


@settings(max_examples=200, deadline=None)
@given(text=json_texts(nets.flux_demo()[1].to_json()))
def test_query_json_parses_or_raises_value_error(fuzz_files, text):
    parsed = decodes(PathwayQuery.from_json, text, ValueError)
    query = fuzz_files["root"] / "fuzzed-query.json"
    query.write_text(text)
    code = main(["export-lp", "--network", fuzz_files["network"], "--barriers",
                 fuzz_files["barriers"], "--query", str(query),
                 "--output", str(fuzz_files["root"] / "model.lp")])
    # a query that parses may still name vertices the network lacks
    assert code in (0, 2) if parsed else code == 2


@settings(max_examples=200, deadline=None)
@given(text=json_texts(nets.flux_demo()[0].to_json()))
def test_network_json_parses_or_raises_a_shape_error(fuzz_files, text):
    parsed = decodes(Hypergraph.from_json, text, SHAPE_ERRORS)
    root = fuzz_files["root"]
    network = root / "fuzzed-network.json"
    network.write_text(text)
    code = main(["annotate-check", "--network", str(network), "--flow", fuzz_files["flow"]])
    assert code == (0 if parsed else 2)
    if parsed:
        # drawn in full, and queried unless the barriers or the query name
        # edges or vertices the network lacks
        assert main(["export-dot", "--network", str(network), "--output", str(root / "fuzzed.dot")]) == 0
        code = main(["query", "--network", str(network), "--barriers", fuzz_files["barriers"],
                     "--query", fuzz_files["query"], "--output", str(root / "fuzzed-solutions.json")])
        assert code in (0, 2)


CSV_CELLS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "20", "-3.5", "1e4", "10000.5", "1e400", "nan", " 1 "]),
    st.text(max_size=5),
)
CSV_ROWS = st.one_of(
    st.sampled_from(["0,20", "1,-3.5", "2,1e4", ""]),
    st.lists(CSV_CELLS, min_size=1, max_size=3).map(",".join),
)


@settings(max_examples=200, deadline=None)
@given(
    text=st.one_of(
        st.builds(
            lambda header, rows: "\n".join([header] + rows),
            st.sampled_from(["edge_id,barrier_kj_per_mol", " edge_id,barrier_kj_per_mol ", "edge_id"]),
            st.lists(CSV_ROWS, max_size=5),
        ),
        st.text(max_size=40),
    )
)
def test_barrier_csv_parses_or_raises_value_error(fuzz_files, text):
    net, _ = nets.flux_demo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # negative barriers are accepted with a warning
        try:
            load_barriers(text, net)
            parsed = True
        except ValueError:
            parsed = False
        barriers = fuzz_files["root"] / "fuzzed-barriers.csv"
        barriers.write_text(text)
        code = main(["annotate-check", "--network", fuzz_files["network"],
                     "--flow", fuzz_files["flow"], "--barriers", str(barriers)])
    assert code == (0 if parsed else 2)
