"""Multivariate mutual information by exhaustive partition search.

I_P(Z_B) = [sum_C H(Z_C) - H(Z_B)] / (|P| - 1), minimized over all
partitions of B into >= 2 blocks. The optimal set is closed under the
partition meet (a lattice); we verify that at runtime instead of assuming
it, and return the iterated meet as the unique finest optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .entropy import EntropyOracle
from .errors import ConsistencyError, DomainError
from .source import HypergraphSource, Partition, enumerate_partitions


@dataclass(frozen=True)
class MmiResult:
    value: Fraction
    optimal_partitions: tuple[Partition, ...]
    fundamental: Partition


def partition_info(
    source: HypergraphSource, B: Iterable[str], P: Partition, oracle: EntropyOracle | None = None
) -> Fraction:
    """I_P(Z_B), exact and nonnegative."""
    B = source.check_subset(B)
    if P.ground != B:
        raise DomainError("partition does not cover the requested set")
    oracle = oracle or EntropyOracle(source)
    total = sum((oracle.entropy(C) for C in P.blocks), Fraction(0))
    value = (total - oracle.entropy(B)) / (len(P) - 1)
    if value < 0:
        raise ConsistencyError("negative divergence from a submodularity bug")
    return value


def conditional_partition_info(
    source: HypergraphSource, B: Iterable[str], P: Partition, W: Iterable[str]
) -> Fraction:
    """I_P(Z_B | Z_W): conditioning on a sub-vector deletes edges meeting W."""
    B = source.check_subset(B)
    W = source.check_subset(W)
    if B & W:
        raise DomainError("conditioning set overlaps the target set")
    return partition_info(source.without_vertices(W), B, P)


def mmi(source: HypergraphSource, B: Iterable[str]) -> MmiResult:
    """Minimize I_P over all partitions of B; collect ties; verify the lattice.

    The fundamental partition is the meet of all optimizers; a meet that
    fails to be optimal would falsify the lattice structure, so that raises
    ConsistencyError rather than returning silently.
    """
    B = source.check_subset(B)
    if len(B) < 2:
        raise DomainError("MMI needs |B| >= 2")
    oracle = EntropyOracle(source)
    partitions = list(enumerate_partitions(B))
    scores = [partition_info(source, B, P, oracle) for P in partitions]

    best = min(scores)
    optimal = tuple(P for P, s in zip(partitions, scores) if s == best)
    fundamental = optimal[0]
    for P in optimal[1:]:
        fundamental = fundamental.meet(P)
    if partition_info(source, B, fundamental, oracle) != best:
        raise ConsistencyError("meet of optimal partitions is not optimal")
    return MmiResult(best, optimal, fundamental)
