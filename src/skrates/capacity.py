"""Omniscience rate, secrecy capacity, and capacity-curve sanity checks.

C_S is the MMI of the whole source and R_CO = H(Z_V) - C_S. The reported
R_CO point is the lexicographically smallest optimum of the omniscience LP
(min r(V) s.t. r(B) >= H(Z_B | Z_{V\\B}) for every proper nonempty B, r >= 0),
read off without solving it. The LP's optimal face is the base polytope of the
Dilworth truncation f^(A) = min over partitions of A (one block allowed) of
sum_C [H(Z_C) - C_S], whose lexicographic minimum is the greedy vertex
x_{v_i} = f^(S_{i-1}) - f^(S_i) with S_i = V \\ {v_1..v_i} (Fujishige,
Submodular Functions and Optimization). The point is certified, not trusted:
it must be nonnegative, sum to H(Z_V) - C_S and meet every LP constraint, and
the fundamental partition, as a dual solution, must bound R_CO from below by
the same value; otherwise ConsistencyError. rco() is the LP itself, kept as
the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .entropy import EntropyOracle
from .errors import ConsistencyError, DomainError
from .lp import OPTIMAL, LinearProgram, solve
from .mmi import mmi
from .source import HypergraphSource, Partition

RCO_MAX_VERTICES = 16


@dataclass(frozen=True)
class CapacityReport:
    H_V: Fraction
    R_CO: Fraction
    R_CO_point: dict[str, Fraction]
    C_S: Fraction
    mmi_crosscheck: Fraction
    fundamental: Partition


def proper_subsets(vertices: Sequence[str]):
    """Nonempty proper subsets of V, by size then lexicographic order."""
    for size in range(1, len(vertices)):
        yield from (frozenset(c) for c in combinations(vertices, size))


def rco(source: HypergraphSource) -> tuple[Fraction, dict[str, Fraction]]:
    """Smallest total rate for omniscience, with a vector attaining it.

    min r(V) subject to r(B) >= H(Z_B | Z_{V\\B}) for all nonempty B != V,
    r >= 0. The returned vector is the lexicographically smallest optimum
    under canonical vertex order.
    """
    if source.m > RCO_MAX_VERTICES:
        raise DomainError(f"omniscience LP capped at m <= {RCO_MAX_VERTICES}")
    oracle = EntropyOracle(source)
    n = source.m
    constraints = []
    for B in proper_subsets(source.vertices):
        row = tuple(Fraction(int(v in B)) for v in source.vertices)
        constraints.append((row, ">=", oracle.cond_entropy(B)))
    lp = LinearProgram.of([Fraction(1)] * n, "min", constraints)
    sol = solve(lp)
    if sol.status != OPTIMAL:
        raise ConsistencyError(f"omniscience LP came back {sol.status}")
    return sol.value, dict(zip(source.vertices, sol.point))


def _truncation(oracle: EntropyOracle, m: int, C_S: Fraction) -> list[Fraction]:
    """f^(A) for every vertex mask A, by a subset DP on the block holding A's lowest vertex."""
    g = [oracle.entropy_mask(C) - C_S for C in range(1 << m)]
    f = [Fraction(0)] * (1 << m)
    for A in range(1, 1 << m):
        low = A & -A
        rest = sub = A ^ low
        best = g[A]
        while sub:
            sub = (sub - 1) & rest
            C = sub | low
            best = min(best, g[C] + f[A ^ C])
        f[A] = best
    return f


def _check_capacity_cap(source: HypergraphSource):
    if source.m > RCO_MAX_VERTICES:
        raise DomainError(
            f"capacity capped at m <= {RCO_MAX_VERTICES} vertices; this source has m = {source.m}"
        )


def capacity(source: HypergraphSource) -> CapacityReport:
    """Full capacity report from the MMI, with a certified greedy R_CO point.

    Raises ConsistencyError unless the greedy point is feasible for the
    omniscience LP with value H - C_S and the fundamental partition's dual
    bound meets it.
    """
    _check_capacity_cap(source)
    m = source.m
    oracle = EntropyOracle(source)
    full = (1 << m) - 1
    H_V = oracle.entropy_mask(full)
    result = mmi(source, source.vertices)
    C_S = result.value
    R_CO = H_V - C_S
    f = _truncation(oracle, m, C_S)
    # full >> i << i is S_i, the vertex set less its first i vertices
    x = [f[full >> i << i] - f[full >> (i + 1) << (i + 1)] for i in range(m)]
    if min(x) < 0 or sum(x) != R_CO:
        raise ConsistencyError(
            f"greedy omniscience point {x} is negative or does not sum to H - C_S = {R_CO}"
        )
    rates = [Fraction(0)] * (1 << m)  # r(B) for every vertex mask B
    for B in range(1, full):
        low = B & -B
        rates[B] = rates[B ^ low] + x[low.bit_length() - 1]
        if rates[B] < H_V - oracle.entropy_mask(full ^ B):
            names = [v for i, v in enumerate(source.vertices) if B >> i & 1]
            raise ConsistencyError(f"greedy omniscience point violates the constraint of B = {names}")
    # The constraints of B = V \ C, summed over the k blocks C of a partition,
    # give (k - 1) r(V) >= k H(Z_V) - sum_C H(Z_C).
    blocks = result.fundamental.blocks
    dual = (len(blocks) * H_V - sum(oracle.entropy(C) for C in blocks)) / (len(blocks) - 1)
    if dual != R_CO:
        raise ConsistencyError(
            f"capacity mismatch: H - MMI = {R_CO}, fundamental-partition bound {dual}"
        )
    point = dict(zip(source.vertices, x))
    return CapacityReport(H_V, R_CO, point, C_S, result.value, result.fundamental)


def check_concavity(curve: Sequence[tuple[Fraction, Fraction]]) -> bool:
    """True iff the piecewise-linear curve is non-decreasing and concave.

    Input must be sorted strictly increasing in the first coordinate.
    """
    rs = [Fraction(r) for r, _ in curve]
    cs = [Fraction(c) for _, c in curve]
    if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
        raise DomainError("curve samples must be sorted with distinct R values")
    if any(c2 < c1 for c1, c2 in zip(cs, cs[1:])):
        return False
    slopes = [(c2 - c1) / (r2 - r1) for (r1, c1), (r2, c2) in zip(zip(rs, cs), zip(rs[1:], cs[1:]))]
    return all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:]))
