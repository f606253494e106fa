"""MMI: worked examples, Shannon reduction, lattice closure, conditioning."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import random_hypergraph
from skrates.entropy import EntropyOracle
from skrates.errors import DomainError
from skrates.mmi import conditional_partition_info, mmi, partition_info
from skrates.source import Partition, enumerate_partitions, singletons


def test_partition_info_worked(motivating, triangle):
    tri_single = singletons(triangle.vertices)
    assert partition_info(triangle, triangle.vertices, tri_single) == Fraction(3, 2)
    P = Partition.of([["1"], ["2", "3"]])
    assert partition_info(motivating, motivating.vertices, P) == 1
    pair = Partition.of([["1"], ["3"]])
    assert partition_info(motivating, ["1", "3"], pair) == 0  # Z_1 indep of Z_3


def test_partition_info_rejects_mismatch(triangle):
    with pytest.raises(DomainError):
        partition_info(triangle, ["1", "2"], singletons(["1", "3"]))


def test_mmi_triangle(triangle):
    result = mmi(triangle, triangle.vertices)
    assert result.value == Fraction(3, 2)
    assert result.fundamental == singletons(triangle.vertices)
    # two-block partitions all give 2, so the singleton split is uniquely optimal
    assert result.optimal_partitions == (singletons(triangle.vertices),)
    for P in enumerate_partitions(triangle.vertices):
        if len(P) == 2:
            assert partition_info(triangle, triangle.vertices, P) == 2


def test_mmi_motivating(motivating):
    result = mmi(motivating, motivating.vertices)
    assert result.value == 1
    assert result.fundamental == Partition.of([["1"], ["2", "3"]])
    scores = {
        P: partition_info(motivating, motivating.vertices, P)
        for P in enumerate_partitions(motivating.vertices)
    }
    assert scores[singletons(motivating.vertices)] == Fraction(3, 2)
    assert scores[Partition.of([["2"], ["1", "3"]])] == 3
    assert scores[Partition.of([["3"], ["1", "2"]])] == 2


def test_mmi_three_user_hyper(three_user_hyper):
    assert mmi(three_user_hyper, three_user_hyper.vertices).value == 2


def test_mmi_small_set_rejected(triangle):
    with pytest.raises(DomainError):
        mmi(triangle, ["1"])


def test_bivariate_reduces_to_shannon(motivating, triangle, six_user_hyper):
    for src in (motivating, triangle, six_user_hyper):
        oracle = EntropyOracle(src)
        for i, j in combinations(src.vertices, 2):
            expected = (
                oracle.entropy([i]) + oracle.entropy([j]) - oracle.entropy([i, j])
            )
            assert mmi(src, [i, j]).value == expected


@pytest.mark.parametrize("seed", range(8))
def test_optimal_set_lattice_closure(seed):
    rng = random.Random(seed)
    src = random_hypergraph(rng, rng.randint(3, 6))
    result = mmi(src, src.vertices)
    optimal = set(result.optimal_partitions)
    for P1 in optimal:
        for P2 in optimal:
            assert P1.meet(P2) in optimal
        assert result.fundamental.refines(P1)
    # the reported value is the exact minimum, achieved only on the tie list
    for P in enumerate_partitions(src.vertices):
        score = partition_info(src, src.vertices, P)
        assert score >= result.value
        assert (score == result.value) == (P in optimal)


def test_conditional_worked(motivating, triangle):
    pair = Partition.of([["1"], ["3"]])
    # conditioning on Z_2 deletes a and b; only the {1,3} edge c remains shared
    assert conditional_partition_info(triangle, ["1", "3"], pair, ["2"]) == 1
    # in the motivating PIN every edge touches vertex 2, so nothing is left
    assert conditional_partition_info(motivating, ["1", "3"], pair, ["2"]) == 0


def test_conditional_empty_w_is_identity(triangle):
    P = singletons(triangle.vertices)
    assert conditional_partition_info(
        triangle, triangle.vertices, P, []
    ) == partition_info(triangle, triangle.vertices, P)


def test_conditional_rejects_overlap(triangle):
    with pytest.raises(DomainError):
        conditional_partition_info(triangle, ["1", "2"], Partition.of([["1"], ["2"]]), ["2"])
