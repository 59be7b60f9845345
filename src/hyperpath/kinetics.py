"""Transition-state kinetics on top of a reaction hypergraph.

Every hyperedge carries an activation barrier, in kJ/mol as the barrier
file states it.  Barriers and edge costs are plain dicts keyed by edge id,
as flows are.  Barriers turn into normalized selection probabilities across
the whole network and into the non-negative additive edge costs, in J/mol,
used by the pathway optimizer.
"""
from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

from .molgraph import TextError, read_integer
from .netcore import Hypergraph

GAS_CONSTANT = 8.314462618  # J/(mol*K)
DEFAULT_TEMPERATURE = 298.15  # K

CSV_HEADER = "edge_id,barrier_kj_per_mol"
#: largest barrier magnitude ``load_barriers`` accepts, in kJ/mol; far above
#: any chemical barrier, and small enough that the solver's tolerances
#: (relative to the whole objective) still tell pathways apart
MAX_BARRIER_KJ = 1e4
#: an ASCII decimal or exponent literal, as ``repr(float)`` writes
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def read_decimal(token: str) -> float | None:
    """The number ``token`` spells as a decimal or exponent literal, or None;
    the grammar of barriers and of ``--temperature-k``."""
    return float(token) if _DECIMAL.fullmatch(token) else None


@dataclass(frozen=True)
class Thermo:
    """The temperature, in K, that the rate law is taken at."""

    T: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if not 0 < self.rt < math.inf:
            raise ValueError("temperature must be positive, with R*T finite")

    @property
    def rt(self) -> float:
        """R*T in J/mol."""
        return GAS_CONSTANT * self.T


def load_barriers(text: str, h: Hypergraph) -> dict[int, float]:
    """Parse a two-column CSV of activation barriers into ``{edge_id: kJ/mol}``.

    The header must be exactly ``edge_id,barrier_kj_per_mol`` and every edge
    of ``h`` must be covered exactly once.  Barriers must lie within
    ``MAX_BARRIER_KJ`` (1e4 kJ/mol) in magnitude; negative ones are accepted
    with a warning.  Edge ids are read as MGF reads atom ids, barriers as
    decimal or exponent literals, and an error in the header or a row names
    its line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise TextError(f"barrier table must start with header {CSV_HEADER!r}", 1)
    barriers: dict[int, float] = {}
    known = {e.id for e in h.edges}
    for ln, raw in enumerate(lines[1:], start=2):
        row = raw.strip()
        if not row:
            continue
        fields = [f.strip() for f in row.split(",")]
        if len(fields) != 2:
            raise TextError(f"expected 'edge_id,barrier' not {row!r}", ln)
        eid = read_integer(fields[0])
        if eid is None:
            raise TextError(f"bad edge id {fields[0]!r}", ln)
        kj = read_decimal(fields[1])
        if kj is None or not abs(kj) <= MAX_BARRIER_KJ:
            raise TextError(f"bad barrier value {fields[1]!r}", ln)
        if eid not in known:
            raise TextError(f"edge {eid} does not exist in the network", ln)
        if eid in barriers:
            raise TextError(f"duplicate entry for edge {eid}", ln)
        if kj < 0:
            warnings.warn(f"negative activation barrier {kj} kJ/mol on edge {eid}")
        barriers[eid] = kj
    missing = sorted(known - set(barriers))
    if missing:
        raise ValueError(f"missing barrier entries for edges {missing}")
    return barriers


def _log_sum_exp(values: list[float]) -> float:
    shift = max(values)
    return shift + math.log(sum(math.exp(v - shift) for v in values))


def reaction_probability(e: int, barriers: dict[int, float], thermo: Thermo = Thermo()) -> float:
    """Probability of selecting edge ``e`` under Boltzmann weighting of the
    ``{edge_id: kJ/mol}`` barriers."""
    rt = thermo.rt
    xs = [-(kj * 1000.0) / rt for kj in barriers.values()]
    return math.exp(-(barriers[e] * 1000.0) / rt - _log_sum_exp(xs))


def objective_coefficients(barriers: dict[int, float], thermo: Thermo, h: Hypergraph) -> dict[int, float]:
    """Each edge's cost in J/mol, ``{edge_id: c_e}``, from the ``{edge_id:
    kJ/mol}`` barriers.

    c_e = G_e + RT*ln D, with G_e in J/mol and D the Boltzmann sum over all
    edges of ``h``; equivalently c_e = -RT*ln p_e, so minimizing a
    flow-weighted sum of costs maximizes the product of selection
    probabilities.  Costs are relative to the network the barriers were
    loaded for, and never negative.
    """
    if not h.edges:
        raise ValueError("cannot weight a network with no reactions")
    missing = sorted(e.id for e in h.edges if e.id not in barriers)
    if missing:
        raise ValueError(f"barrier table missing edges {missing}")
    rt = thermo.rt
    ids = sorted(e.id for e in h.edges)
    log_d = _log_sum_exp([-(barriers[eid] * 1000.0) / rt for eid in ids])
    return {eid: max(0.0, barriers[eid] * 1000.0 + rt * log_d) for eid in ids}


def pathway_score(f: dict, costs: dict[int, float]) -> float:
    """Flow-weighted total cost in J/mol over the real (non half-edge) flow."""
    total = 0.0
    for key, value in f.items():
        if isinstance(key, int) and value:
            total += costs[key] * value
    return total
