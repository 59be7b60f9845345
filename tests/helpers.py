"""Independent oracles and checkers shared by the test modules.

Everything here is deliberately written without reusing the package's own
algorithms: isomorphism by brute-force permutation, subgraph matching by
exhaustive assignment, ILP feasibility by nested integer loops, and an LP
text grammar checker.  Slow but trustworthy on small inputs.
"""
from __future__ import annotations

import re
from itertools import permutations, product

from hyperpath import solve
from hyperpath.molgraph import MolecularGraph, make_graph


def are_isomorphic(a: MolecularGraph, b: MolecularGraph) -> bool:
    """Exhaustive isomorphism test for graphs with at most ~8 atoms."""
    if len(a.atoms) != len(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    a_ids = [atom.id for atom in a.atoms]
    b_ids = [atom.id for atom in b.atoms]
    a_attr = {atom.id: (atom.element, atom.charge) for atom in a.atoms}
    b_attr = {atom.id: (atom.element, atom.charge) for atom in b.atoms}

    def bond_map(g: MolecularGraph):
        return {tuple(sorted((bond.a, bond.b))): bond.order for bond in g.bonds}

    a_bonds = bond_map(a)
    b_bonds = bond_map(b)
    for perm in permutations(b_ids):
        mapping = dict(zip(a_ids, perm))
        if any(a_attr[i] != b_attr[mapping[i]] for i in a_ids):
            continue
        mapped = {
            tuple(sorted((mapping[i], mapping[j]))): order
            for (i, j), order in a_bonds.items()
        }
        if mapped == b_bonds:
            return True
    return False


def relabeled(graph: MolecularGraph, order: list[int]) -> MolecularGraph:
    """Copy of ``graph`` with atom ids permuted according to ``order``.

    ``order[i]`` is the new id of the atom currently listed at position i.
    """
    ids = [atom.id for atom in graph.atoms]
    mapping = dict(zip(ids, order))
    atoms = [(mapping[atom.id], atom.element, atom.charge) for atom in graph.atoms]
    bonds = [(mapping[bond.a], mapping[bond.b], bond.order) for bond in graph.bonds]
    return make_graph(atoms, bonds)


def count_matches_naive(rule, hosts) -> int:
    """Count embeddings of a rule's left side by exhaustive assignment.

    Independent of the package matcher: tries every injective map from
    pattern atoms to atoms of the disjoint union, checking element classes,
    exact bond order tokens, and that every host molecule is touched.
    """
    nodes = []
    element = {}
    for copy, host in enumerate(hosts):
        for atom in host.atoms:
            nodes.append((copy, atom.id))
            element[(copy, atom.id)] = atom.element
    orders = {}
    for copy, host in enumerate(hosts):
        for bond in host.bonds:
            key = tuple(sorted(((copy, bond.a), (copy, bond.b))))
            orders[key] = bond.order

    pattern_ids = [a.id for a in rule.atoms]
    labels = {a.id: a.label for a in rule.atoms}
    count = 0
    for chosen in permutations(nodes, len(pattern_ids)):
        assignment = dict(zip(pattern_ids, chosen))
        binding: dict[str, str] = {}
        ok = True
        for pid, node in assignment.items():
            label = labels[pid]
            el = element[node]
            if label in rule.label_classes:
                if label in binding:
                    if binding[label] != el:
                        ok = False
                        break
                elif el in rule.label_classes[label]:
                    binding[label] = el
                else:
                    ok = False
                    break
            elif el != label:
                ok = False
                break
        if not ok:
            continue
        for bond in rule.left:
            key = tuple(sorted((assignment[bond.a], assignment[bond.b])))
            if orders.get(key) != bond.order:
                ok = False
                break
        if not ok:
            continue
        if len({node[0] for node in assignment.values()}) != len(hosts):
            continue
        count += 1
    return count


def simplex_ends_numerically(monkeypatch, after=0):
    """From its call number ``after`` (0-based) on, the dual simplex loop,
    which every LP solve runs first, ends as it does and then moves the
    structural values off their rows, so that the solve's answer check
    fails."""
    real, calls = solve._dual, []

    def dual(T, x, basic, lo, hi):
        calls.append(real(T, x, basic, lo, hi))
        if len(calls) > after:
            x[:T.shape[1] - basic.size] += 0.5
        return calls[-1]

    monkeypatch.setattr(solve, "_dual", dual)


def max_row_violation(model, values) -> float:
    """Largest constraint violation of an assignment, in column order,
    against a model's row bounds."""
    worst = 0.0
    for coeffs, low, high in zip(model.A.tolist(), model.row_lo.tolist(), model.row_hi.tolist()):
        lhs = sum(c * v for c, v in zip(coeffs, values))
        worst = max(worst, low - lhs, lhs - high)
    return worst


def enumerate_feasible(model, tol: float = 1e-9):
    """All feasible integer assignments of a small model, by nested loops.

    Yields (values in column order, objective) pairs.  Every column must
    have finite integer bounds; the grid must stay tiny (this is a test
    oracle).  Cuts are not checked.
    """
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(model.lo.tolist(), model.hi.tolist())]
    cost = model.cost.tolist()
    for values in product(*ranges):
        if max_row_violation(model, values) > tol:
            continue
        yield values, sum(c * v for c, v in zip(cost, values))


def best_feasible(model, tol: float = 1e-9):
    """Optimal (values, objective) among all feasible points, or None."""
    best = None
    for values, objective in enumerate_feasible(model, tol):
        if best is None:
            best = (values, objective)
        elif model.sense == "min" and objective < best[1] - 1e-12:
            best = (values, objective)
        elif model.sense == "max" and objective > best[1] + 1e-12:
            best = (values, objective)
    return best


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUM = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_TERM = rf"(?:- )?{_NUM} {_NAME}(?: [+-] {_NUM} {_NAME})*"
_ROW_RE = re.compile(rf"^ {_NAME}: {_TERM} (?:<=|>=|=) -?{_NUM}$")
_OBJ_RE = re.compile(rf"^ obj: {_TERM}$")
_BOUND_RE = re.compile(
    rf"^ (?:{_NAME} = -?{_NUM}|{_NAME} >= -?{_NUM}|-?{_NUM} <= {_NAME} <= -?{_NUM})$"
)
_VARLIST_RE = re.compile(rf"^ {_NAME}(?: {_NAME})*$")


def check_lp_grammar(text: str) -> None:
    """Assert that LP text follows the standard sectioned dialect.

    Raises AssertionError with the offending line when the grammar breaks.
    """
    lines = text.splitlines()
    assert lines, "empty LP text"
    assert lines[0] in ("Minimize", "Maximize"), lines[0]
    assert _OBJ_RE.match(lines[1]), lines[1]
    assert lines[2] == "Subject To", lines[2]
    i = 3
    while i < len(lines) and lines[i] != "Bounds":
        assert _ROW_RE.match(lines[i]), lines[i]
        i += 1
    assert i < len(lines), "missing Bounds section"
    i += 1
    while i < len(lines) and lines[i] not in ("Generals", "Binaries", "End"):
        assert _BOUND_RE.match(lines[i]), lines[i]
        i += 1
    for section in ("Generals", "Binaries"):
        if i < len(lines) and lines[i] == section:
            i += 1
            assert _VARLIST_RE.match(lines[i]), lines[i]
            i += 1
    assert i < len(lines) and lines[i] == "End", "missing End"
    assert i == len(lines) - 1, "content after End"
