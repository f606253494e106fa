"""Omniscience LP, capacity report, concavity checker."""

import importlib
import random
from fractions import Fraction

import pytest

from oracles import (
    lp_by_vertex_enumeration,
    random_connected_pin,
    random_hypergraph,
    random_tree_pin,
)
from skrates.capacity import RCO_MAX_VERTICES, capacity, check_concavity, rco
from skrates.entropy import EntropyOracle, cond_entropy
from skrates.errors import ConsistencyError, DomainError
from skrates.mmi import MmiResult, mmi
from skrates.source import HypergraphSource, Partition


def test_rco_triangle(triangle):
    value, point = rco(triangle)
    assert value == Fraction(3, 2)
    assert sum(point.values()) == value


def test_rco_motivating(motivating):
    # cross-check: R_CO = H(Z_V) - I(Z_V) = 3 - 1
    value, _ = rco(motivating)
    assert value == 2
    oracle = EntropyOracle(motivating)
    assert value == oracle.entropy(motivating.vertices) - mmi(
        motivating, motivating.vertices
    ).value


def test_rco_single_shared_edge():
    src = HypergraphSource.of(["1", "2"], [("a", ["1", "2"], Fraction(1))])
    value, point = rco(src)
    assert value == 0
    assert point == {"1": 0, "2": 0}
    # independent check by direct LP vertex enumeration
    cons = [((1, 0), ">=", cond_entropy(src, ["1"])), ((0, 1), ">=", cond_entropy(src, ["2"]))]
    assert lp_by_vertex_enumeration([1, 1], "min", cons) == 0


def test_rco_point_satisfies_all_constraints(motivating, triangle, six_user_hyper):
    from skrates.capacity import proper_subsets

    for src in (motivating, triangle, six_user_hyper):
        _, point = rco(src)
        oracle = EntropyOracle(src)
        for B in proper_subsets(src.vertices):
            assert sum(point[v] for v in B) >= oracle.cond_entropy(B)


def test_capacity_reports(motivating, triangle, tree_pin_4):
    rep = capacity(motivating)
    assert rep.C_S == 1 and rep.R_CO == 2 and rep.H_V == 3
    assert rep.fundamental == Partition.of([["1"], ["2", "3"]])

    rep = capacity(triangle)
    assert rep.C_S == Fraction(3, 2) and rep.R_CO == Fraction(3, 2)

    # tree-PIN: capacity is the minimum supp(c) edge weight
    rep = capacity(tree_pin_4)
    assert rep.C_S == 1


@pytest.mark.parametrize("seed", range(10))
def test_rco_identity_random(seed):
    rng = random.Random(2000 + seed)
    src = random_hypergraph(rng, rng.randint(2, 6))
    value, _ = rco(src)
    oracle = EntropyOracle(src)
    assert value == oracle.entropy(src.vertices) - mmi(src, src.vertices).value


def _greedy_sources():
    for seed in range(18):
        rng = random.Random(2100 + seed)
        make = (random_hypergraph, random_connected_pin, random_tree_pin)[seed % 3]
        yield make(rng, 2 + seed % 5)
    # two components, one of them carrying a single-vertex edge
    yield HypergraphSource.of(
        ["a", "b", "c", "d"],
        [("e1", ["a", "b"], 1), ("e2", ["c", "d"], Fraction(3, 2)), ("e3", ["d"], 2)],
    )
    yield HypergraphSource.of(
        ["a", "b", "c"],
        [("e1", ["a"], 2), ("e2", ["a", "b", "c"], 1), ("e3", ["b", "c"], Fraction(1, 3))],
    )


@pytest.mark.parametrize("src", list(_greedy_sources()), ids=lambda s: f"m{s.m}")
def test_greedy_point_is_the_lex_smallest_lp_optimum(src):
    value, point = rco(src)
    rep = capacity(src)
    assert rep.R_CO == value
    assert rep.R_CO_point == point


@pytest.mark.parametrize("shift", (Fraction(1, 2), Fraction(-1, 2)))
def test_wrong_mmi_value_is_caught(monkeypatch, triangle, shift):
    cap = importlib.import_module("skrates.capacity")  # the package re-exports capacity()

    def wrong_mmi(source, B):
        right = mmi(source, B)
        return MmiResult(right.value + shift, right.optimal_partitions, right.fundamental)

    monkeypatch.setattr(cap, "mmi", wrong_mmi)
    with pytest.raises(ConsistencyError):
        capacity(triangle)


def test_capacity_cap_names_the_source_size():
    m = RCO_MAX_VERTICES + 1
    vertices = [f"v{i:02d}" for i in range(m)]
    src = HypergraphSource.of(vertices, [("a", vertices[:2], 1)])
    with pytest.raises(DomainError) as err:
        capacity(src)
    assert f"m = {m}" in str(err.value) and f"m <= {RCO_MAX_VERTICES}" in str(err.value)
    assert "omniscience LP" not in str(err.value)


def test_check_concavity_examples():
    curve = [(Fraction(r), min(Fraction(r), Fraction(3, 2))) for r in (0, Fraction(1, 2), 1, Fraction(3, 2), 2)]
    assert check_concavity(curve)
    assert check_concavity([(0, 1), (1, 1), (2, 1)])  # constant
    assert not check_concavity([(0, 0), (1, 0), (2, 1)])  # convex kink
    assert not check_concavity([(0, 1), (1, 0)])  # decreasing


def test_check_concavity_rejects_unsorted():
    with pytest.raises(DomainError):
        check_concavity([(1, 1), (0, 0)])
    with pytest.raises(DomainError):
        check_concavity([(0, 0), (0, 1)])


def test_rs_never_exceeds_rco(motivating, triangle):
    from skrates.bounds import pin_communication_complexity

    for src in (motivating, triangle):
        assert pin_communication_complexity(src) <= rco(src)[0]
