"""Regenerate ``data/paper_network.json`` from scratch.

Runs the paper-scale closure of water and glycolonitrile through the public
API and stores the network as molecule text plus reaction bags, without
canonical keys, so a later change to the key format leaves the file valid.
Also records the per-iteration (molecules, reactions) history of the run and
which vertices are water, glycolonitrile, ammonia, glycine and glycolic
acid, found by networkx isomorphism against the benchmark's own molecules.

    python3 bench/regen.py            # from the repository root
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import networkx as nx

import inputs

ROLES = {
    "water": inputs.WATER_MGF,
    "glycolonitrile": inputs.GLYCOLONITRILE_MGF,
    "ammonia": inputs.AMMONIA_MGF,
    "glycine": inputs.GLYCINE_MGF,
    "glycolic_acid": inputs.GLYCOLIC_ACID_MGF,
}


def as_networkx(mgf: str) -> nx.Graph:
    (atoms, bonds), = inputs.parse_mgf(mgf)
    g = nx.Graph()
    for aid, label in atoms.items():
        g.add_node(aid, label=label)
    for a, b, order in bonds:
        g.add_edge(a, b, order=order)
    return g


def same_molecule(a: nx.Graph, b: nx.Graph) -> bool:
    return nx.is_isomorphic(
        a, b,
        node_match=lambda x, y: x["label"] == y["label"],
        edge_match=lambda x, y: x["order"] == y["order"],
    )


def dumps(data: dict) -> str:
    """JSON with one molecule or reaction per line, so diffs stay readable."""
    lines = []
    for key, value in data.items():
        if isinstance(value, list) and key in ("molecules", "reactions"):
            items = ",\n".join("  " + json.dumps(item) for item in value)
            lines.append(f"{json.dumps(key)}: [\n{items}\n]")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the hyperpath package")
    parser.add_argument("--output", default=str(inputs.PAPER_NETWORK))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from hyperpath.molgraph import parse_molecules
    from hyperpath.rewrite import ExpansionConfig, load_default_rules, run_expansion

    seeds = tuple(parse_molecules(inputs.WATER_MGF + "---\n" + inputs.GLYCOLONITRILE_MGF))
    config = ExpansionConfig(
        seeds,
        max_iterations=inputs.EXPAND_ITERATIONS,
        max_element_counts=dict(inputs.ELEMENT_CAPS),
        right_predicates=inputs.PRODUCT_FILTERS,
    )
    start = time.perf_counter()
    result = run_expansion(config, load_default_rules())
    elapsed = time.perf_counter() - start
    data = result.network.to_json()
    molecules = [row["mgf"] for row in data["vertices"]]
    reactions = [
        [sorted([int(v), m] for v, m in row[side].items()) for side in ("reactants", "products")]
        for row in data["edges"]
    ]
    graphs = [as_networkx(m) for m in molecules]
    roles = {}
    for role, mgf in ROLES.items():
        wanted = as_networkx(mgf)
        found = [i for i, g in enumerate(graphs) if same_molecule(g, wanted)]
        if len(found) != 1:
            raise SystemExit(f"{role}: expected one vertex, found {found}")
        roles[role] = found[0]
    out = {
        "note": "paper-scale closure of water + glycolonitrile; regenerate with bench/regen.py",
        "history": [list(step) for step in result.history],
        "roles": roles,
        "molecules": molecules,
        "reactions": reactions,
    }
    Path(args.output).write_text(dumps(out))
    print(f"{len(molecules)} molecules / {len(reactions)} reactions in {elapsed:.1f} s; roles {roles}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
