"""Transition-state kinetics on top of a reaction hypergraph.

Every hyperedge carries an activation barrier (kJ/mol at the interfaces,
J/mol internally).  Barriers turn into normalized selection probabilities
across the whole network and into the non-negative additive edge costs used
by the pathway optimizer.
"""
from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class BarrierTable:
    """Activation barriers per edge id, stored in J/mol."""

    barriers_j: dict[int, float]

    @classmethod
    def from_kj(cls, barriers_kj: dict[int, float]) -> "BarrierTable":
        return cls({int(e): float(g) * 1000.0 for e, g in barriers_kj.items()})

    def barrier_j(self, edge_id: int) -> float:
        return self.barriers_j[edge_id]

    def barrier_kj(self, edge_id: int) -> float:
        return self.barriers_j[edge_id] / 1000.0


def load_barriers(text: str, h: Hypergraph) -> BarrierTable:
    """Parse a two-column CSV of activation barriers.

    The header must be exactly ``edge_id,barrier_kj_per_mol`` and every edge
    of ``h`` must be covered exactly once.  Barriers must lie within
    ``MAX_BARRIER_KJ`` (1e4 kJ/mol) in magnitude; negative ones are accepted
    with a warning.  Edge ids are read as MGF reads atom ids, barriers as
    decimal or exponent literals, and a bad row's error names its line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError(f"barrier table must start with header {CSV_HEADER!r}")
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
        barriers[eid] = kj * 1000.0
    missing = sorted(known - set(barriers))
    if missing:
        raise ValueError(f"missing barrier entries for edges {missing}")
    return BarrierTable(barriers)


def _log_sum_exp(values: list[float]) -> float:
    shift = max(values)
    return shift + math.log(sum(math.exp(v - shift) for v in values))


def reaction_probability(e: int, table: BarrierTable, thermo: Thermo = Thermo()) -> float:
    """Probability of selecting edge ``e`` under Boltzmann weighting of barriers."""
    rt = thermo.rt
    xs = [-g / rt for g in table.barriers_j.values()]
    return math.exp(-table.barrier_j(e) / rt - _log_sum_exp(xs))


@dataclass(frozen=True)
class WeightModel:
    """Additive edge costs c_e = G_e + RT*logD, with D the Boltzmann sum.

    Equivalently c_e = -RT*ln p_e, so minimizing a flow-weighted sum of costs
    maximizes the product of selection probabilities.  Costs are J/mol and
    never negative.
    """

    logD: float
    coeff: dict[int, float] = field(default_factory=dict)


def objective_coefficients(table: BarrierTable, thermo: Thermo, h: Hypergraph) -> WeightModel:
    """Build the cost model for every edge of ``h``.

    The normalizing sum runs over all edges of the hypergraph, so costs are
    relative to the network the table was loaded for.
    """
    if not h.edges:
        raise ValueError("cannot weight a network with no reactions")
    missing = sorted(e.id for e in h.edges if e.id not in table.barriers_j)
    if missing:
        raise ValueError(f"barrier table missing edges {missing}")
    rt = thermo.rt
    ids = sorted(e.id for e in h.edges)
    log_d = _log_sum_exp([-table.barrier_j(eid) / rt for eid in ids])
    coeffs = {eid: max(0.0, table.barrier_j(eid) + rt * log_d) for eid in ids}
    return WeightModel(log_d, coeffs)


def pathway_score(f: dict, model: WeightModel) -> float:
    """Flow-weighted total cost in J/mol over the real (non half-edge) flow."""
    total = 0.0
    for key, value in f.items():
        if isinstance(key, int) and value:
            total += model.coeff[key] * value
    return total
