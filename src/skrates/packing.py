"""Fractional spanning-tree packing for PIN sources.

Trees are enumerated brute-force over (m-1)-subsets of the distinct vertex
pairs in supp(c), with a matrix-tree determinant run first so oversized
instances fail fast. The packing LP has one variable per pair-level tree
class; parallel edge ids are re-expanded only when a protocol needs concrete
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .errors import ConsistencyError, DomainError
from .lp import OPTIMAL, LinearProgram, solve
from .source import HypergraphSource, RatePoint, is_spanning_tree, weight_function

VERTEX_CAP = 10
TREE_CAP = 10**5

Pair = tuple[str, str]


def _pair(edge_on: frozenset[str]) -> Pair:
    a, b = sorted(edge_on)
    return (a, b)


def _require_pin(source: HypergraphSource):
    if not source.is_pin():
        raise DomainError("tree packing is defined for PIN sources only")


def count_spanning_trees(vertices: Sequence[str], pair_weights: dict[Pair, int]) -> int:
    """Weighted matrix-tree count (integer determinant, fraction-free)."""
    idx = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    if n <= 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for (a, b), w in pair_weights.items():
        i, j = idx[a], idx[b]
        lap[i][j] -= w
        lap[j][i] -= w
        lap[i][i] += w
        lap[j][j] += w
    # Bareiss elimination on the (n-1)x(n-1) principal minor
    m = [row[: n - 1] for row in lap[: n - 1]]
    size = n - 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            m[swap] = [-x for x in m[swap]]  # swap + negate keeps the sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return m[size - 1][size - 1]


def _class_trees(source: HypergraphSource) -> list[tuple[Pair, ...]]:
    """All spanning trees at the vertex-pair level, lexicographic order."""
    _require_pin(source)
    if source.m > VERTEX_CAP:
        raise DomainError(f"spanning-tree enumeration capped at {VERTEX_CAP} vertices")
    pairs = sorted({_pair(e.on) for e in source.edges})
    if count_spanning_trees(source.vertices, {p: 1 for p in pairs}) > TREE_CAP:
        raise DomainError(f"more than {TREE_CAP} spanning trees")
    return [
        combo
        for combo in combinations(pairs, source.m - 1)
        if is_spanning_tree(source.vertices, combo)
    ]


def _ids_by_pair(source: HypergraphSource) -> dict[Pair, list[str]]:
    by_pair: dict[Pair, list[str]] = {}
    for e in sorted(source.edges, key=lambda e: e.id):
        by_pair.setdefault(_pair(e.on), []).append(e.id)
    return by_pair


def enumerate_spanning_trees(source: HypergraphSource) -> list[tuple[str, ...]]:
    """All spanning trees as edge-id tuples; parallel ids give distinct trees.

    Disconnected sources yield the empty list.
    """
    _require_pin(source)
    by_pair = _ids_by_pair(source)
    multiplicity = {p: len(ids) for p, ids in by_pair.items()}
    if count_spanning_trees(source.vertices, multiplicity) > TREE_CAP:
        raise DomainError(f"more than {TREE_CAP} spanning trees")
    trees = []
    for combo in _class_trees(source):
        for ids in product(*(by_pair[p] for p in combo)):
            trees.append(tuple(sorted(ids)))
    return trees


@dataclass(frozen=True)
class TreePacking:
    """Weighted spanning trees; each tree a tuple of edge ids, weight >= 0."""

    source: HypergraphSource
    trees: tuple[tuple[tuple[str, ...], Fraction], ...]

    def __post_init__(self):
        edge_on = {e.id: e.on for e in self.source.edges}
        for ids, eta in self.trees:
            if eta < 0:
                raise DomainError("tree weights must be nonnegative")
            if len(ids) != len(set(ids)):
                raise DomainError("tree repeats an edge id")
            try:
                pairs = [_pair(edge_on[i]) for i in ids]
            except KeyError as exc:
                raise DomainError(f"unknown edge id {exc.args[0]!r}") from None
            if len(pairs) != self.source.m - 1 or not is_spanning_tree(self.source.vertices, pairs):
                raise DomainError(f"edges {ids} do not form a spanning tree")

    @property
    def value(self) -> Fraction:
        return sum((eta for _, eta in self.trees), Fraction(0))

    def tree_pairs(self) -> list[tuple[list[Pair], Fraction]]:
        edge_on = {e.id: e.on for e in self.source.edges}
        return [([_pair(edge_on[i]) for i in ids], eta) for ids, eta in self.trees]


def max_packing(
    source: HypergraphSource, crosscheck: bool = True
) -> tuple[Fraction, TreePacking]:
    """Maximum fractional tree packing; the value is the secrecy capacity.

    With crosscheck=True the value is compared against the full-source MMI
    and any gap raises ConsistencyError.
    """
    _require_pin(source)
    classes = _class_trees(source)
    c = weight_function(source)
    by_pair = _ids_by_pair(source)
    if not classes:
        packing = TreePacking(source, ())
    else:
        pairs = sorted(by_pair)
        constraints = []
        for p in pairs:
            row = tuple(Fraction(int(p in tree)) for tree in classes)
            constraints.append((row, "<=", c(frozenset(p))))
        lp = LinearProgram.of([Fraction(1)] * len(classes), "max", constraints)
        sol = solve(lp)
        if sol.status != OPTIMAL:
            raise ConsistencyError(f"packing LP came back {sol.status}")
        entries = []
        for tree, eta in zip(classes, sol.point):
            if eta > 0:
                ids = tuple(sorted(by_pair[p][0] for p in tree))
                entries.append((ids, eta))
        packing = TreePacking(source, tuple(entries))
    if crosscheck:
        from .mmi import mmi

        expected = mmi(source, source.vertices).value
        if packing.value != expected:
            raise ConsistencyError(f"packing value {packing.value} != MMI {expected}")
    return packing.value, packing


def packing_to_rates(packing: TreePacking) -> RatePoint:
    """Rates the packing protocol realizes: r_K = sum eta, r_i = sum (deg_i - 1) eta."""
    vertices = packing.source.vertices
    r_K = packing.value
    rates = {v: Fraction(0) for v in vertices}
    for pairs, eta in packing.tree_pairs():
        deg = {v: 0 for v in vertices}
        for a, b in pairs:
            deg[a] += 1
            deg[b] += 1
        for v in vertices:
            rates[v] += (deg[v] - 1) * eta
    point = RatePoint(r_K, rates)
    if point.total() != (len(vertices) - 2) * r_K:
        raise ConsistencyError("tree degree identity failed")
    return point


@dataclass(frozen=True)
class PackingCheck:
    ok: bool
    residuals: dict[Pair, Fraction]  # c(B) - load(B), negative = violated

    @property
    def violations(self) -> list[Pair]:
        return sorted(p for p, r in self.residuals.items() if r < 0)


def verify_packing(source: HypergraphSource, packing: TreePacking) -> PackingCheck:
    """Exact per-pair residual report for the packing constraint."""
    c = weight_function(source)
    load: dict[Pair, Fraction] = {}
    for pairs, eta in packing.tree_pairs():
        if len(pairs) != source.m - 1 or not is_spanning_tree(source.vertices, pairs):
            raise DomainError("packing contains a non-spanning tree")
        for p in pairs:
            load[p] = load.get(p, Fraction(0)) + eta
    supp = {_pair(B) for B in c.support}
    residuals = {p: c(frozenset(p)) - load.get(p, Fraction(0)) for p in sorted(supp | set(load))}
    return PackingCheck(all(r >= 0 for r in residuals.values()), residuals)
