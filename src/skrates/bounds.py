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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    enumerate_partitions,
    is_spanning_tree,
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
    source: HypergraphSource, B: Iterable[str], P: Partition, oracle: EntropyOracle | None = None
) -> BoundCertificate:
    B = source.check_subset(B)
    if len(B) < 2:
        raise DomainError("partition bound needs |B| >= 2")
    info = partition_info(source, B, P, oracle)
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


def _check_cap(source: HypergraphSource, max_vertices: int):
    if source.m > max_vertices:
        raise DomainError(
            f"certificate enumeration capped at m <= {max_vertices} vertices"
        )


def generate_certificates(
    source: HypergraphSource, max_vertices: int = OUTER_MAX_VERTICES
) -> Iterator[BoundCertificate]:
    """Every thm1 certificate (B by size then lex, P in RGS order), then thm3."""
    _check_cap(source, max_vertices)
    yield from _certificate_list(source)


def _certificates(source: HypergraphSource) -> Iterator[BoundCertificate]:
    """The one enumeration of (B, P) pairs, in generate_certificates order."""
    oracle = EntropyOracle(source)
    for size in range(2, source.m + 1):
        for combo in combinations(source.vertices, size):
            B = frozenset(combo)
            for P in enumerate_partitions(B):
                yield partition_certificate(source, B, P, oracle)
    for P in enumerate_partitions(source.vertices):
        yield weight_certificate(source, P)


@lru_cache(maxsize=32)
def _certificate_list(source: HypergraphSource) -> tuple[BoundCertificate, ...]:
    return tuple(_certificates(source))


def outer_check(
    source: HypergraphSource, point: RatePoint, max_vertices: int = OUTER_MAX_VERTICES
) -> OuterRegionQuery:
    """Test a point against every certificate; collect all violations."""
    if set(point.r) != set(source.vertices):
        raise DomainError("rate point must assign a rate to every vertex")
    violations = tuple(
        cert
        for cert in generate_certificates(source, max_vertices)
        if cert.violated_by(point)
    )
    return OuterRegionQuery(point, VIOLATED if violations else FEASIBLE, violations)


def _lp_row(cert: BoundCertificate, scale: Fraction = Fraction(1)):
    coefficients = (cert.row_rk, *cert.row.values())
    return (tuple(c / scale for c in coefficients), ">=", cert.rhs / scale)


@lru_cache(maxsize=128)
def _lp_rows(source: HypergraphSource):
    """Non-vacuous certificate rows with dominated rows removed.

    Kept rows imply every dropped one over the nonnegative orthant, so LPs
    constrained by them have the same feasible set as with the full list:
    for fixed (B, |P|) only the smallest I_P binds; weight rows, divided by
    alpha to r(V) >= beta r_K with beta = (1 - alpha) / alpha, are implied by
    the smallest alpha in (0, 1); alpha = 1 is vacuous. alpha = 0 gives
    -r_K >= 0, which the kept thm1 row for B = V at the same partition (no
    edge crosses its blocks, so I_P = 0) already implies. Reads the uncached
    generator: going through the cached list would keep every certificate
    alive for the LP path too.
    """
    best: dict[tuple[frozenset, Fraction], BoundCertificate] = {}
    weight = None  # smallest alpha in (0, 1)
    for cert in _certificates(source):
        if cert.kind == "thm1":
            key = (cert.B, cert.data[0])
            if key not in best or cert.data[1] < best[key].data[1]:
                best[key] = cert
        elif 0 < cert.data[0] < 1 and (weight is None or cert.data[0] < weight.data[0]):
            weight = cert
    ordered = sorted(best.values(), key=lambda c: (len(c.B), sorted(c.B), c.data[0]))
    rows = [_lp_row(cert) for cert in ordered]
    if weight is not None:
        rows.append(_lp_row(weight, weight.data[0]))
    return tuple(rows)


def outer_capacity_curve(
    source: HypergraphSource, R: Fraction, max_vertices: int = OUTER_MAX_VERTICES
) -> Fraction:
    """Upper bound on C_S(R): max r_K over the outer region with r(V) <= R."""
    _check_cap(source, max_vertices)
    R = Fraction(R)
    if R < 0:
        raise DomainError("discussion budget must be nonnegative")
    rows = _lp_rows(source)
    budget = (tuple([Fraction(0)] + [Fraction(1)] * source.m), "<=", R)
    objective = [Fraction(1)] + [Fraction(0)] * source.m
    lp = LinearProgram.of(objective, "max", list(rows) + [budget])
    sol = solve(lp, lex=False)
    if sol.status != OPTIMAL:
        raise ConsistencyError(f"outer-curve LP came back {sol.status}")
    return sol.value


def outer_curve_column(
    source: HypergraphSource, grid: Sequence[Fraction], max_vertices: int = OUTER_MAX_VERTICES
) -> list[Fraction]:
    """outer_capacity_curve at every R of a strictly increasing grid, by chords.

    The curve is concave in R (an LP value in its right-hand side), so when
    the middle row of an interval lies on the chord between its ends the
    curve is linear there and the rows inside are exact interpolations;
    otherwise both halves are sampled the same way (Eisner and Severance,
    1976).
    """
    values: list[Fraction | None] = [None] * len(grid)

    def solve_at(i):
        values[i] = outer_capacity_curve(source, grid[i], max_vertices)

    def fill(lo, hi):
        if hi - lo < 2:
            return
        mid = (lo + hi) // 2
        solve_at(mid)
        slope = (values[hi] - values[lo]) / (grid[hi] - grid[lo])
        if values[mid] != values[lo] + slope * (grid[mid] - grid[lo]):
            fill(lo, mid)
            fill(mid, hi)
            return
        for i in range(lo + 1, hi):
            values[i] = values[lo] + slope * (grid[i] - grid[lo])

    if grid:
        solve_at(0)
        solve_at(len(grid) - 1)
        fill(0, len(grid) - 1)
    return values


def outer_min_rate(
    source: HypergraphSource, r_K: Fraction, max_vertices: int = OUTER_MAX_VERTICES
) -> Fraction:
    """Smallest r(V) the certificates allow at a fixed key rate.

    Raises DomainError if the outer region is empty at this r_K (key rate
    above every certificate's ceiling).
    """
    _check_cap(source, max_vertices)
    r_K = Fraction(r_K)
    rows = []
    for row, rel, rhs in _lp_rows(source):
        rows.append((row[1:], rel, rhs - row[0] * r_K))
    objective = [Fraction(1)] * source.m
    lp = LinearProgram.of(objective, "min", rows)
    sol = solve(lp, lex=False)
    if sol.status == INFEASIBLE:
        raise DomainError(f"outer region is empty at r_K = {r_K}")
    if sol.status != OPTIMAL:
        raise ConsistencyError(f"outer min-rate LP came back {sol.status}")
    return sol.value
