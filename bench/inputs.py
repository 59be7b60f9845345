"""Inputs of the benchmark, kept as plain data.

Nothing here imports ``hyperpath``: the worker turns these values into
program objects through the public API, and the checks read them back to
judge the answers without the program's help.

The reference pathway tables, the cascade and three-route networks and the
random-instance generator are the benchmark's own copies of the fixtures the
test suite uses, so that the benchmark keeps running when the tests change.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
PAPER_NETWORK = DATA_DIR / "paper_network.json"

# ---------------------------------------------------------------------------
# Molecules

WATER_MGF = """\
# water
atom 0 O
atom 1 H
atom 2 H
bond 0 1 1
bond 0 2 1
"""

GLYCOLONITRILE_MGF = """\
# glycolonitrile, 2-hydroxyacetonitrile
atom 0 C
atom 1 C
atom 2 N
atom 3 O
atom 4 H
atom 5 H
atom 6 H
bond 0 1 1
bond 0 2 3
bond 1 3 1
bond 1 4 1
bond 1 5 1
bond 3 6 1
"""

AMMONIA_MGF = """\
# ammonia
atom 0 N
atom 1 H
atom 2 H
atom 3 H
bond 0 1 1
bond 0 2 1
bond 0 3 1
"""

GLYCINE_MGF = """\
# glycine, H2N-CH2-COOH
atom 0 N
atom 1 C
atom 2 C
atom 3 O
atom 4 O
atom 5 H
atom 6 H
atom 7 H
atom 8 H
atom 9 H
bond 0 1 1
bond 1 2 1
bond 2 3 2
bond 2 4 1
bond 0 5 1
bond 0 6 1
bond 1 7 1
bond 1 8 1
bond 4 9 1
"""

GLYCOLIC_ACID_MGF = """\
# glycolic acid, HO-CH2-COOH
atom 0 O
atom 1 C
atom 2 C
atom 3 O
atom 4 O
atom 5 H
atom 6 H
atom 7 H
atom 8 H
bond 0 1 1
bond 1 2 1
bond 2 3 2
bond 2 4 1
bond 0 5 1
bond 1 6 1
bond 1 7 1
bond 4 8 1
"""

#: the configuration of the paper-scale closure (acceptance criterion 8)
EXPAND_ITERATIONS = 11
ELEMENT_CAPS = {"C": 2, "N": 4, "O": 4}
PRODUCT_FILTERS = ("no-rings-le=3", "no-cumulated-doubles")
RING_LIMIT = 3
VALENCE_CAP = {"C": 4, "N": 3, "O": 2, "H": 1}
ORDER_VALUE = {"1": 1.0, "2": 2.0, "3": 3.0, "a": 1.5}

#: (molecules, reactions) after iterations 3 and 4, as criterion 2 pins them
PINNED_HISTORY = {3: (9, 14), 4: (17, 26)}
#: reaction count of the reference closure run
REFERENCE_REACTIONS = 116


def parse_mgf(text: str) -> list[tuple[dict[int, tuple[str, int]], list[tuple[int, int, str]]]]:
    """Minimal reader for molecule text: (atoms by id, bonds) per block.

    Independent of ``hyperpath.molgraph``; it understands the subset the
    benchmark writes and the program emits (``atom``/``bond`` statements,
    ``;`` separators, ``#`` comments, ``---`` between molecules).
    """
    blocks: list[list[str]] = [[]]
    for raw in text.splitlines():
        for piece in raw.split(";"):
            line = piece.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("---"):
                blocks.append([])
            else:
                blocks[-1].append(line)
    out = []
    for block in blocks:
        if not block:
            continue
        atoms: dict[int, tuple[str, int]] = {}
        bonds: list[tuple[int, int, str]] = []
        for line in block:
            fields = line.split()
            if fields[0] == "atom":
                charge = int(fields[3]) if len(fields) == 4 else 0
                atoms[int(fields[1])] = (fields[2], charge)
            elif fields[0] == "bond":
                bonds.append((int(fields[1]), int(fields[2]), fields[3]))
            else:
                raise ValueError(f"unknown statement {line!r}")
        out.append((atoms, bonds))
    return out


def write_mgf(atoms: dict[int, tuple[str, int]], bonds) -> str:
    lines = []
    for aid in sorted(atoms):
        element, charge = atoms[aid]
        lines.append(f"atom {aid} {element}" + (f" {charge}" if charge else ""))
    for a, b, order in sorted(bonds):
        lines.append(f"bond {a} {b} {order}")
    return "\n".join(lines) + "\n"


def relabel_mgf(text: str, rng: random.Random) -> str:
    """Same molecule with its atom ids randomly permuted.

    Canonical keys must not notice, so the relabeling varies the program's
    input without changing the work it should do.
    """
    (atoms, bonds), = parse_mgf(text)
    ids = sorted(atoms)
    new_ids = ids[:]
    rng.shuffle(new_ids)
    to = dict(zip(ids, new_ids))
    return write_mgf(
        {to[a]: atoms[a] for a in ids},
        [(min(to[a], to[b]), max(to[a], to[b]), o) for a, b, o in bonds],
    )


# ---------------------------------------------------------------------------
# Paper-scale network and its queries

#: barrier draws for the paper network come from this fixed stream, so every
#: run does the same solver work (LP counts vary from 88 to 125 between
#: streams, which would swamp the run-to-run spread of query time)
PAPER_BARRIER_STREAM = 1
#: node budget of the failing query: three times the 15 nodes that the
#: first rank of the cap-1 glycolic-acid query needs
PAPER_FAIL_NODE_LIMIT = 45


def load_paper_network() -> dict:
    """The committed 41/116 network: molecule text, reaction bags, roles."""
    return json.loads(PAPER_NETWORK.read_text())


def paper_barriers(n_edges: int) -> dict[int, float]:
    rng = random.Random(PAPER_BARRIER_STREAM)
    return {e: rng.uniform(0.0, 100.0) for e in range(n_edges)}


def paper_queries(roles: dict[str, int]) -> list[dict]:
    """The ranked queries of the ``paper`` workload.

    Sources are water and glycolonitrile (0-10 each) and ammonia may leave.
    The second query is the known failure: at flow cap 10 branch-and-bound
    branches on indicators of already integral flows and runs out of nodes.
    """

    def query(target: str, cap: int) -> dict:
        return {
            "sources": {roles["water"]: (0, 10), roles["glycolonitrile"]: (0, 10)},
            "targets": {roles[target]: (1, 1)},
            "byproducts": {roles["ammonia"]: 10},
            "flow_cap": cap,
        }

    return [
        {"name": "glycolic-cap1-k2", "k": 2, "node_limit": None, **query("glycolic_acid", 1)},
        {
            "name": "glycolic-cap10-k1",
            "k": 1,
            "node_limit": PAPER_FAIL_NODE_LIMIT,
            **query("glycolic_acid", 10),
        },
    ]


# ---------------------------------------------------------------------------
# Small models

#: the random draws come from this fixed stream; draw 1302 makes the
#: program's simplex report ``numerical`` and is kept as a counted failure.
#: Draws from other streams hit the same fault at random (3 of 16,800 over
#: streams 2-13), which would make the failure count differ between seeds.
SMALL_STREAM = 1
SMALL_DRAWS = 1400
SMALL_RANDOM_K = 3
SMALL_FIXTURE_K = 10

PLACEHOLDER_ELEMENTS = [
    "He", "Ne", "Ar", "Kr", "Xe", "Rn", "Li", "Na", "K", "Rb",
    "Cs", "Fr", "Be", "Mg", "Ca", "Sr", "Ba", "Ra", "Sc", "Ti",
]


def distinct(reactions) -> list[tuple[dict, dict]]:
    """Reactions without repeats of the same bags, as the network keeps them."""
    edges = []
    seen = set()
    for reactants, products in reactions:
        bags = (tuple(sorted(reactants.items())), tuple(sorted(products.items())))
        if bags not in seen:
            seen.add(bags)
            edges.append((dict(reactants), dict(products)))
    return edges


def _instance(name, n_vertices, edges, barriers, query, k) -> dict:
    return {
        "name": name,
        "n_vertices": n_vertices,
        "edges": edges,
        "barriers": {int(e): float(g) for e, g in barriers.items()},
        "k": k,
        "node_limit": None,
        **query,
    }


def _query(sources, targets, byproducts=None, flow_cap=10, total_inflow_max=None, maximize=None):
    return {
        "sources": dict(sources),
        "targets": dict(targets),
        "byproducts": dict(byproducts or {}),
        "flow_cap": flow_cap,
        "total_inflow_max": total_inflow_max,
        "maximize_outflow": maximize,
    }


def random_instance(rng: random.Random, name: str) -> dict:
    """Small random network, barriers and query (at most 6 vertices/edges).

    Draws from ``rng`` in the same order as the test suite's generator, so a
    stream index names the same instance in both.
    """
    n_vertices = rng.randint(2, 6)
    n_edges = rng.randint(1, 6)
    reactions = []
    for _ in range(n_edges):
        vids = list(range(n_vertices))
        rng.shuffle(vids)
        n_react = rng.randint(1, 2)
        n_prod = rng.randint(1, 2)
        reactants = {v: rng.randint(1, 2) for v in vids[:n_react]}
        products = {v: rng.randint(1, 2) for v in vids[n_react:n_react + n_prod]}
        reactions.append((reactants, products))
    edges = distinct(reactions)
    barriers = {e: rng.uniform(0.0, 100.0) for e in range(len(edges))}
    vids = list(range(n_vertices))
    rng.shuffle(vids)
    target = vids[0]
    n_sources = rng.randint(1, min(3, n_vertices - 1))
    sources = {v: (0, rng.randint(1, 3)) for v in vids[1:1 + n_sources]}
    byproducts = {}
    for v in vids[1 + n_sources:]:
        if rng.random() < 0.5:
            byproducts[v] = rng.randint(1, 3)
    query = _query(sources, {target: (1, rng.randint(1, 3))}, byproducts, flow_cap=3)
    return _instance(name, n_vertices, edges, barriers, query, SMALL_RANDOM_K)


# reference pathway table: routes to the amino acid (vertex 9)
AMINO_REACTIONS = [
    ({0: 1, 2: 1}, {3: 1}), ({0: 1, 1: 1}, {10: 1}), ({3: 1}, {4: 1}),
    ({10: 1}, {11: 1}), ({3: 1}, {15: 1}), ({15: 1}, {4: 1}),
    ({4: 1}, {5: 1}), ({11: 1}, {12: 1}), ({5: 1}, {6: 1, 2: 1}),
    ({12: 1, 2: 1}, {13: 1}), ({12: 1}, {6: 1, 1: 1}), ({5: 1, 2: 1}, {14: 1}),
    ({6: 1, 2: 1}, {7: 1}), ({13: 1}, {7: 1, 1: 1}), ({14: 1}, {7: 1, 2: 1}),
    ({7: 1}, {8: 1}), ({8: 1}, {9: 1}),
]
AMINO_BARRIERS_KJ = {
    0: 13.95, 1: 33.18, 2: 7.67, 3: 64.17, 4: 18.68, 5: 13.15,
    6: 57.69, 7: 28.40, 8: 1.68, 9: 19.87, 10: 29.35, 11: 67.37,
    12: 17.14, 13: 23.79, 14: 60.84, 15: 0.19, 16: 30.42,
}
AMINO_PATHWAYS = {
    "P1": [0, 2, 6, 8, 12, 15, 16],
    "P2": [1, 3, 7, 9, 13, 15, 16],
    "P3": [1, 3, 7, 10, 12, 15, 16],
    "P4": [0, 2, 6, 11, 14, 15, 16],
    "P5": [0, 4, 5, 6, 8, 12, 15, 16],
}
#: score(P2) - score(P1) in kJ/mol, and its tolerance
AMINO_SCORE_GAP_KJ = 71.28
SCORE_GAP_TOL_KJ = 0.01

# reference pathway table: routes to the hydroxy acid (vertex 5)
HYDROXY_REACTIONS = [
    ({0: 1, 2: 1}, {3: 1}), ({0: 1, 1: 1}, {8: 1}), ({3: 1}, {7: 1}),
    ({8: 1, 2: 1}, {9: 1}), ({3: 1, 1: 1}, {9: 1}), ({3: 1, 2: 1}, {4: 1}),
    ({3: 1}, {6: 1}), ({7: 1}, {6: 1}), ({9: 1}, {6: 1, 1: 1}),
    ({9: 1}, {3: 1, 1: 1}), ({6: 1, 2: 1}, {4: 1}), ({4: 1}, {5: 1, 1: 1}),
]
HYDROXY_BARRIERS_KJ = {
    0: 13.95, 1: 33.18, 2: 7.67, 3: 48.61, 4: 80.54, 5: 29.62,
    6: 18.68, 7: 11.77, 8: 43.65, 9: 33.08, 10: 0.62, 11: 74.62,
}
HYDROXY_PATHWAYS = {
    "P1": [0, 5, 11],
    "P2": [0, 6, 10, 11],
    "P3": [0, 2, 7, 10, 11],
    "P4": [1, 3, 8, 10, 11],
    "P5": [0, 4, 8, 10, 11],
    "P6": [1, 3, 5, 9, 11],
}

# reversible branching cascade, 11 forward reactions of which 9 reversible
CASCADE_FORWARD = [
    ({0: 1, 2: 1}, {3: 1}), ({2: 1, 3: 1}, {4: 1}), ({3: 1}, {5: 1}),
    ({2: 1, 5: 1}, {4: 1}), ({4: 1}, {6: 1, 1: 1}), ({3: 1}, {7: 1}),
    ({5: 1}, {7: 1}), ({7: 1}, {8: 1}), ({8: 1}, {9: 1, 1: 1}),
    ({8: 1}, {10: 1, 2: 1}), ({2: 1, 8: 1}, {11: 1}),
]
CASCADE_REVERSIBLE = [1, 2, 3, 5, 6, 7, 8, 9, 10]


def fixture_instances() -> list[dict]:
    """The two reference tables and the cascade and three-route networks."""
    cascade = CASCADE_FORWARD + [
        (CASCADE_FORWARD[i][1], CASCADE_FORWARD[i][0]) for i in CASCADE_REVERSIBLE
    ]
    three_route = [({0: 2}, {3: 1}), ({1: 2}, {3: 1}), ({2: 2}, {3: 1})]
    return [
        _instance(
            "amino-table", 16, distinct(AMINO_REACTIONS), AMINO_BARRIERS_KJ,
            _query({0: (0, 1), 2: (0, 1)}, {9: (1, 1)}, flow_cap=1),
            SMALL_FIXTURE_K,
        ),
        _instance(
            "hydroxy-table", 10, distinct(HYDROXY_REACTIONS), HYDROXY_BARRIERS_KJ,
            _query({0: (0, 1), 2: (0, 2)}, {5: (1, 1)}, {1: 1}, flow_cap=1),
            SMALL_FIXTURE_K,
        ),
        _instance(
            "cascade", 12, distinct(cascade), {e: 20.0 for e in range(len(cascade))},
            _query({0: (0, 1), 2: (0, 3)}, {9: (1, 1)}, {1: 5}, flow_cap=10),
            SMALL_FIXTURE_K,
        ),
        _instance(
            "three-route", 4, three_route, {e: 20.0 for e in range(len(three_route))},
            _query({0: (0, 3), 1: (0, 3), 2: (0, 3)}, {3: (1, 10)}, flow_cap=3,
                   total_inflow_max=3, maximize=3),
            SMALL_FIXTURE_K,
        ),
    ]


def small_instances() -> list[dict]:
    """Every instance of the ``small`` workload, in stream order."""
    rng = random.Random(SMALL_STREAM)
    draws = [random_instance(rng, f"draw-{i}") for i in range(SMALL_DRAWS)]
    return fixture_instances() + draws
