"""Converse bounds on discussion rates and the aggregated outer region.

Two certificate families, both exact:

  * partition bounds: for any B with |B| > 1 and partition P of B,
      r(V \\ B) >= (|P| - 1) [r_K - I_P(Z_B)]
  * weight bounds (hypergraphical): for any partition P of V,
      alpha(P) r(V) >= [1 - alpha(P)] r_K,
    with alpha(P) = (max over edges of blocks intersected - 1) / (|P| - 1).

A certificate stores only what defines it, (kind, B, P, data), with data
(|P| - 1, I_P(Z_B)) or (alpha,), and derives its inequality in the >=-normal
form row_rk * r_K + sum_i row_i * r_i >= rhs from that.
The aggregated outer region is everything the enumerated certificates allow;
it is an upper bound on the achievable region, exact for tree PINs and for
the PIN capacity curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .capacity import _check_capacity_cap, capacity
from .entropy import EntropyOracle
from .errors import ConsistencyError, DomainError
from .lp import INFEASIBLE, OPTIMAL, LinearProgram, solve
from .mmi import mmi, partition_info
from .source import (
    HypergraphSource,
    Partition,
    RatePoint,
    enumerate_partitions,  # noqa: F401 (unused, but perfbench/skbench/trace.py counts it here)
    is_spanning_tree,
    partition_masks,
    weight_function,
)

OUTER_MAX_VERTICES = 10

FEASIBLE = "feasible-under-outer-bound"
VIOLATED = "violated"


@dataclass(frozen=True)
class BoundCertificate:
    """One converse inequality, stored as the data that defines it.

    thm1: -k r_K + r(V \\ B) >= -k I_P(Z_B), with data (k, I_P) and k = |P| - 1
    thm3: (alpha - 1) r_K + alpha r(V) >= 0, with data (alpha,)
    """

    kind: str  # "thm1" | "thm3"
    B: frozenset[str] | None  # thm1 only
    P: Partition
    data: tuple[Fraction, ...]  # thm1: (|P|-1, I_P(Z_B)); thm3: (alpha,)
    vertices: tuple[str, ...]  # the source's vertices, in canonical order

    @property
    def row_rk(self) -> Fraction:
        return -self.data[0] if self.kind == "thm1" else self.data[0] - 1

    @property
    def row(self) -> dict[str, Fraction]:
        """Coefficient of each r_v, in vertex order."""
        if self.kind == "thm1":
            return {v: Fraction(int(v not in self.B)) for v in self.vertices}
        return {v: self.data[0] for v in self.vertices}

    @property
    def rhs(self) -> Fraction:
        return -self.data[0] * self.data[1] if self.kind == "thm1" else Fraction(0)

    def evaluate(self, point: RatePoint) -> Fraction:
        if self.kind == "thm1":
            outside = (v for v in self.vertices if v not in self.B)
            return point.total(outside) - self.data[0] * point.r_K
        a = self.data[0]
        return (a - 1) * point.r_K + a * point.total(self.vertices)

    def violated_by(self, point: RatePoint) -> bool:
        return self.evaluate(point) < self.rhs

    @property
    def vacuous(self) -> bool:
        """Satisfied by every nonnegative point, so it never constrains."""
        return self.rhs <= 0 and self.row_rk >= 0 and all(c >= 0 for c in self.row.values())

    def to_json_dict(self) -> dict:
        from .rationals import format_rational as fr

        out = {"kind": self.kind}
        if self.B is not None:
            out["B"] = sorted(self.B)
        out["partition"] = self.P.to_lists()
        if self.kind == "thm1":
            out["groups_minus_one"] = fr(self.data[0])
            out["partition_info"] = fr(self.data[1])
        else:
            out["alpha"] = fr(self.data[0])
        out["inequality"] = {
            "r_K": fr(self.row_rk),
            "r": {v: fr(c) for v, c in sorted(self.row.items())},
            "rhs": fr(self.rhs),
        }
        return out


@dataclass(frozen=True)
class OuterRegionQuery:
    point: RatePoint
    verdict: str
    violations: tuple[BoundCertificate, ...]


def partition_certificate(
    source: HypergraphSource, B: Iterable[str], P: Partition
) -> BoundCertificate:
    B = source.check_subset(B)
    if len(B) < 2:
        raise DomainError("partition bound needs |B| >= 2")
    info = partition_info(source, B, P)
    return BoundCertificate("thm1", B, P, (Fraction(len(P) - 1), info), source.vertices)


def weight_certificate(source: HypergraphSource, P: Partition) -> BoundCertificate:
    return BoundCertificate("thm3", None, P, (alpha(source, P),), source.vertices)


def thm1_bound(
    source: HypergraphSource, B: Iterable[str], P: Partition, r_K: Fraction
) -> Fraction:
    """Lower bound on r(V \\ B); may be negative, in which case it is vacuous."""
    cert = partition_certificate(source, B, P)
    k, info = cert.data
    return k * (Fraction(r_K) - info)


def corollary_bound(source: HypergraphSource, B: Iterable[str], r_K: Fraction) -> Fraction:
    """thm1_bound at the fundamental partition of Z_B (so I_P = MMI)."""
    B = source.check_subset(B)
    result = mmi(source, B)
    return thm1_bound(source, B, result.fundamental, r_K)


def alpha(source: HypergraphSource, P: Partition) -> Fraction:
    """Fraction of the total rate forced public; 0 only for disconnected supports."""
    if P.ground != source.vertex_set:
        raise DomainError("alpha needs a partition of the full vertex set")
    blocks = P.block_sets()
    crossed = 1  # an edgeless source crosses nothing
    for e in source.edges:
        crossed = max(crossed, sum(1 for C in blocks if C & e.on))
    return Fraction(crossed - 1, len(P) - 1)


def thm3_bound(
    source: HypergraphSource, P: Partition, point: RatePoint
) -> tuple[bool, BoundCertificate]:
    """Exact check of the weight bound at a point; returns (satisfied, cert)."""
    cert = weight_certificate(source, P)
    return (not cert.violated_by(point)), cert


@dataclass(frozen=True)
class TreePinRegion:
    """Exact achievable region when supp(c) is a spanning tree."""

    C_S: Fraction
    degrees: dict[str, int]

    def contains(self, point: RatePoint) -> bool:
        if not 0 <= point.r_K <= self.C_S:
            return False
        return all(
            point.r[v] >= (d - 1) * point.r_K for v, d in self.degrees.items()
        )


def tree_pin_region(source: HypergraphSource) -> TreePinRegion:
    if not source.is_pin():
        raise DomainError("not a PIN")
    c = weight_function(source)
    support = c.support
    deg = source.support_degrees()
    edges = [tuple(sorted(B)) for B in support]
    if len(edges) != source.m - 1 or not is_spanning_tree(source.vertices, edges):
        raise DomainError("supp(c) is not a spanning tree")
    return TreePinRegion(min(c(B) for B in support), deg)


def tree_pin_check(source: HypergraphSource, point: RatePoint) -> bool:
    return tree_pin_region(source).contains(point)


def pin_capacity_curve(source: HypergraphSource, R: Fraction) -> Fraction:
    """Exact C_S(R) for a PIN with at least 3 users: min{R/(m-2), C_S}."""
    return pin_curve_column(source, [R])[0]


def pin_curve_column(source: HypergraphSource, grid: Sequence[Fraction]) -> list[Fraction]:
    """pin_capacity_curve at every R of the grid, reading C_S once."""
    if not source.is_pin():
        raise DomainError("not a PIN")
    if source.m < 3:
        raise DomainError("the PIN capacity curve needs at least 3 users")
    grid = [Fraction(R) for R in grid]
    if any(R < 0 for R in grid):
        raise DomainError("discussion budget must be nonnegative")
    C_S = capacity(source).C_S
    return [min(R / (source.m - 2), C_S) for R in grid]


def pin_communication_complexity(source: HypergraphSource) -> Fraction:
    """R_S = (m - 2) C_S for a PIN with at least 3 users."""
    if not source.is_pin():
        raise DomainError("not a PIN")
    if source.m < 3:
        raise DomainError("the PIN capacity curve needs at least 3 users")
    _check_capacity_cap(source)
    return (source.m - 2) * mmi(source, source.vertices).value


def _scale(source: HypergraphSource) -> int:
    """D, the lcm of the edge-entropy denominators, so every D H(Z_A) is an integer.

    Every path to the sweep reads D first, so the certificate cap is checked here.
    """
    if source.m > OUTER_MAX_VERTICES:
        raise DomainError(
            f"certificate enumeration capped at m <= {OUTER_MAX_VERTICES} vertices; "
            f"this source has m = {source.m}"
        )
    return math.lcm(*(e.h.denominator for e in source.edges))


def _sweep(source: HypergraphSource, D: int) -> Iterator[tuple]:
    """The one enumeration of certificates, over vertex masks, in generate_certificates order.

    With H[A] = D H(Z_A), yields (B, blocks, d) with d = sum_C H[C] - H[B]
    for each thm1 pair, then (None, blocks, crossed) for each partition of V,
    where crossed is the most blocks one edge meets (1 if there are no edges).
    """
    oracle = EntropyOracle(source)
    H = [int(D * oracle.entropy_mask(A)) for A in range(1 << source.m)]
    for size in range(2, source.m + 1):
        for combo in combinations(range(source.m), size):
            bits = [1 << i for i in combo]
            B = sum(bits)
            for blocks in partition_masks(bits):
                d = sum(H[C] for C in blocks) - H[B]
                if d < 0:
                    raise ConsistencyError("negative divergence from a submodularity bug")
                yield B, blocks, d
    edges = {sum(1 << source.index(v) for v in e.on) for e in source.edges}
    for blocks in partition_masks([1 << i for i in range(source.m)]):
        yield None, blocks, max((sum(1 for C in blocks if C & e) for e in edges), default=1)


def _certificate(source: HypergraphSource, D: int, B: int | None, blocks, x: int):
    """The certificate of one sweep item."""
    vs = source.vertices
    P = Partition.of_masks(vs, blocks)
    k = len(blocks) - 1
    if B is None:
        return BoundCertificate("thm3", None, P, (Fraction(x - 1, k),), vs)
    B = frozenset(v for i, v in enumerate(vs) if B >> i & 1)
    return BoundCertificate("thm1", B, P, (Fraction(k), Fraction(x, D * k)), vs)


def generate_certificates(source: HypergraphSource) -> Iterator[BoundCertificate]:
    """Every thm1 certificate (B by size then lex, P in RGS order), then thm3."""
    D = _scale(source)
    return (_certificate(source, D, *item) for item in _sweep(source, D))


def outer_check(source: HypergraphSource, point: RatePoint) -> OuterRegionQuery:
    """Test a point against every certificate; collect all violations.

    Builds a certificate only for a violation: with k = |P| - 1, the sweep
    item (B, blocks, x) violates iff x < limit[B, k], the integer form of
    d < D (k r_K - r(V \\ B)) for thm1 and of (crossed - 1)(r_K + r(V)) < k r_K
    for thm3.
    """
    if set(point.r) != set(source.vertices):
        raise DomainError("rate point must assign a rate to every vertex")
    m, r_K, D = source.m, point.r_K, _scale(source)
    outside = [  # outside[A] = r(V \ A) for every vertex mask A
        point.total(v for i, v in enumerate(source.vertices) if not A >> i & 1)
        for A in range(1 << m)
    ]
    limit = {
        (B, k): math.ceil(D * (k * r_K - outside[B]))
        for B in range(1 << m)
        for k in range(1, B.bit_count())
    }
    total = r_K + outside[0]
    limit.update({(None, k): 1 + (math.ceil(k * r_K / total) if total else 0) for k in range(1, m)})
    violations = tuple(
        _certificate(source, D, B, blocks, x)
        for B, blocks, x in _sweep(source, D)
        if x < limit[B, len(blocks) - 1]
    )
    return OuterRegionQuery(point, VIOLATED if violations else FEASIBLE, violations)


def _lp_row(cert: BoundCertificate, scale: Fraction = Fraction(1)):
    coefficients = (cert.row_rk, *cert.row.values())
    return (tuple(c / scale for c in coefficients), ">=", cert.rhs / scale)


def _lp_rows(source: HypergraphSource) -> list:
    """Non-vacuous certificate rows with dominated rows removed.

    Kept rows imply every dropped one over the nonnegative orthant, so LPs
    constrained by them have the same feasible set as with the full list:
    for fixed (B, |P|) only the smallest I_P binds; weight rows, divided by
    alpha to r(V) >= beta r_K with beta = (1 - alpha) / alpha, are implied by
    the smallest alpha in (0, 1); alpha = 1 is vacuous. alpha = 0 gives
    -r_K >= 0, which the kept thm1 row for B = V at the same partition (no
    edge crosses its blocks, so I_P = 0) already implies.
    """
    D = _scale(source)
    best = {}  # (B, |P| - 1) -> item with the smallest d; keys first arrive in row order
    weight = None  # (alpha, item) with the smallest alpha in (0, 1)
    for item in _sweep(source, D):
        B, blocks, x = item
        k = len(blocks) - 1
        if B is not None:
            if (B, k) not in best or x < best[B, k][2]:
                best[B, k] = item
        elif 1 < x <= k and (weight is None or Fraction(x - 1, k) < weight[0]):
            weight = Fraction(x - 1, k), item
    rows = [_lp_row(_certificate(source, D, *item)) for item in best.values()]
    if weight is not None:
        rows.append(_lp_row(_certificate(source, D, *weight[1]), weight[0]))
    return rows


def outer_capacity_curve(source: HypergraphSource, R: Fraction) -> Fraction:
    """Upper bound on C_S(R): max r_K over the outer region with r(V) <= R."""
    return outer_curve_column(source, [R])[0]


def outer_curve_column(source: HypergraphSource, grid: Sequence[Fraction]) -> list[Fraction]:
    """outer_capacity_curve at every R of a strictly increasing grid, from one LP.

    Solves at the smallest R, then walks the budget row's rhs up the grid on
    the same tableau; the budget is the last row, so its slack the last column.
    """
    grid = [Fraction(R) for R in grid]
    bad = [R for R in grid[:1] if R < 0] + [b for a, b in zip(grid, grid[1:]) if a >= b]
    if bad:
        raise DomainError(f"budgets must be nonnegative and strictly increasing; R = {bad[0]} is not")
    if not grid:
        return []
    budget = (tuple([Fraction(0)] + [Fraction(1)] * source.m), "<=", grid[0])
    objective = [Fraction(1)] + [Fraction(0)] * source.m
    sol = solve(LinearProgram.of(objective, "max", _lp_rows(source) + [budget]), lex=False)
    if sol.status != OPTIMAL:
        raise ConsistencyError(f"outer-curve LP came back {sol.status}")
    return sol.tableau.raise_rhs(len(sol.tableau.cost) - 2, grid[0], grid)


def outer_min_rate(source: HypergraphSource, r_K: Fraction) -> Fraction:
    """Smallest r(V) the certificates allow at a fixed key rate.

    Raises DomainError if the outer region is empty at this r_K (key rate
    above every certificate's ceiling).
    """
    r_K = Fraction(r_K)
    rows = [(row[1:], rel, rhs - row[0] * r_K) for row, rel, rhs in _lp_rows(source)]
    objective = [Fraction(1)] * source.m
    lp = LinearProgram.of(objective, "min", rows)
    sol = solve(lp, lex=False)
    if sol.status == INFEASIBLE:
        raise DomainError(f"outer region is empty at r_K = {r_K}")
    if sol.status != OPTIMAL:
        raise ConsistencyError(f"outer min-rate LP came back {sol.status}")
    return sol.value
