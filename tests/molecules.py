"""Molecule fixtures used across the test modules.

Graphs are given both as MGF text (for parser and CLI tests) and as
constructed objects (for everything else).
"""
from __future__ import annotations

from hyperpath.molgraph import MolecularGraph, make_graph

WATER_MGF = """\
atom 0 O
atom 1 H
atom 2 H
bond 0 1 1
bond 0 2 1
"""

AMMONIA_MGF = """\
atom 0 N
atom 1 H; atom 2 H; atom 3 H
bond 0 1 1; bond 0 2 1; bond 0 3 1
"""

GLYCOLONITRILE_MGF = """\
# 2-hydroxyacetonitrile
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

GLYCOLIC_ACID_MGF = """\
# 2-hydroxyacetic acid
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

HYDROGEN_CYANIDE_MGF = """\
atom 0 C
atom 1 N
atom 2 H
bond 0 1 3
bond 0 2 1
"""

FORMALDEHYDE_MGF = """\
atom 0 C
atom 1 O
atom 2 H
atom 3 H
bond 0 1 2
bond 0 2 1
bond 0 3 1
"""


def water() -> MolecularGraph:
    return make_graph([(0, "O"), (1, "H"), (2, "H")], [(0, 1, 1), (0, 2, 1)])


def ammonia() -> MolecularGraph:
    return make_graph(
        [(0, "N"), (1, "H"), (2, "H"), (3, "H")],
        [(0, 1, 1), (0, 2, 1), (0, 3, 1)],
    )


def glycolonitrile() -> MolecularGraph:
    return make_graph(
        [(0, "C"), (1, "C"), (2, "N"), (3, "O"), (4, "H"), (5, "H"), (6, "H")],
        [(0, 1, 1), (0, 2, 3), (1, 3, 1), (1, 4, 1), (1, 5, 1), (3, 6, 1)],
    )


def methane() -> MolecularGraph:
    return make_graph(
        [(0, "C"), (1, "H"), (2, "H"), (3, "H"), (4, "H")],
        [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
    )


def ethanol() -> MolecularGraph:
    return make_graph(
        [(0, "C"), (1, "C"), (2, "O")] + [(i, "H") for i in range(3, 9)],
        [(0, 1, 1), (1, 2, 1), (2, 8, 1)]
        + [(0, i, 1) for i in (3, 4, 5)]
        + [(1, i, 1) for i in (6, 7)],
    )


def dimethyl_ether() -> MolecularGraph:
    """Same formula as ethanol (C2H6O), different connectivity."""
    return make_graph(
        [(0, "C"), (1, "O"), (2, "C")] + [(i, "H") for i in range(3, 9)],
        [(0, 1, 1), (1, 2, 1)]
        + [(0, i, 1) for i in (3, 4, 5)]
        + [(2, i, 1) for i in (6, 7, 8)],
    )


def cyclopropane() -> MolecularGraph:
    atoms = [(0, "C"), (1, "C"), (2, "C")] + [(i, "H") for i in range(3, 9)]
    bonds = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    bonds += [(0, 3, 1), (0, 4, 1), (1, 5, 1), (1, 6, 1), (2, 7, 1), (2, 8, 1)]
    return make_graph(atoms, bonds)


def cyclobutane() -> MolecularGraph:
    atoms = [(i, "C") for i in range(4)] + [(i, "H") for i in range(4, 12)]
    bonds = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
    bonds += [(c, 4 + 2 * c, 1) for c in range(4)]
    bonds += [(c, 5 + 2 * c, 1) for c in range(4)]
    return make_graph(atoms, bonds)


def allene() -> MolecularGraph:
    """Propadiene: two double bonds sharing the central carbon."""
    atoms = [(0, "C"), (1, "C"), (2, "C"), (3, "H"), (4, "H"), (5, "H"), (6, "H")]
    bonds = [(0, 1, 2), (1, 2, 2), (0, 3, 1), (0, 4, 1), (2, 5, 1), (2, 6, 1)]
    return make_graph(atoms, bonds)


def butadiene() -> MolecularGraph:
    """1,3-butadiene: alternating doubles, no cumulation."""
    atoms = [(i, "C") for i in range(4)] + [(i, "H") for i in range(4, 10)]
    bonds = [(0, 1, 2), (1, 2, 1), (2, 3, 2)]
    bonds += [(0, 4, 1), (0, 5, 1), (1, 6, 1), (2, 7, 1), (3, 8, 1), (3, 9, 1)]
    return make_graph(atoms, bonds)


def benzene() -> MolecularGraph:
    atoms = [(i, "C") for i in range(6)] + [(i, "H") for i in range(6, 12)]
    bonds = [(i, (i + 1) % 6, "a") for i in range(6)]
    bonds += [(i, i + 6, 1) for i in range(6)]
    return make_graph(atoms, bonds)


def hydroxide() -> MolecularGraph:
    return make_graph([(0, "O", -1), (1, "H")], [(0, 1, 1)])
