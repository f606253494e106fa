"""Exact simplex: statuses, worked LPs, vertex-enumeration cross-checks."""

import importlib
import random
from fractions import Fraction

import pytest

from oracles import (
    lex_optimum_by_resolves,
    lp_by_vertex_enumeration,
    random_connected_pin,
    random_hypergraph,
    random_tree_pin,
)
from skrates.errors import DomainError
from skrates.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve


def test_one_variable():
    lp = LinearProgram.of([1], "min", [((1,), ">=", Fraction(3, 2))])
    sol = solve(lp)
    assert sol.status == OPTIMAL and sol.value == Fraction(3, 2)
    assert sol.point == (Fraction(3, 2),)


def test_infeasible():
    lp = LinearProgram.of([1], "min", [((1,), ">=", 2), ((1,), "<=", 1)])
    assert solve(lp).status == INFEASIBLE


def test_unbounded():
    lp = LinearProgram.of([1], "max", [((1,), ">=", 0)])
    assert solve(lp).status == UNBOUNDED


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        LinearProgram.of([1, 1], "min", [((1,), ">=", 1)])


def test_point_is_feasible_and_attains_value():
    lp = LinearProgram.of(
        [3, 5],
        "max",
        [((1, 0), "<=", 4), ((0, 2), "<=", 12), ((3, 2), "<=", 18)],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == 36
    for row, rel, rhs in lp.constraints:
        lhs = sum(a * x for a, x in zip(row, sol.point))
        assert lhs <= rhs if rel == "<=" else lhs >= rhs
    assert sum(c * x for c, x in zip(lp.objective, sol.point)) == sol.value


def test_equality_constraints():
    lp = LinearProgram.of([1, 2], "min", [((1, 1), "==", 5)])
    sol = solve(lp)
    assert sol.value == 5 and sol.point == (5, 0)


def test_degenerate_optimum_is_lex_smallest():
    # every point on x + y = 1 is optimal; lex rule picks x = 0
    lp = LinearProgram.of([1, 1], "min", [((1, 1), ">=", 1)])
    sol = solve(lp)
    assert sol.value == 1
    assert sol.point == (0, 1)
    sol2 = solve(lp, lex=False)
    assert sol2.value == 1  # point choice unspecified without lex


def test_negative_rhs_normalization():
    lp = LinearProgram.of([1, 1], "min", [((-1, -1), "<=", -3)])
    sol = solve(lp)
    assert sol.value == 3 and sol.point == (0, 3)


def _random_lp(rng, n):
    """Random rows over x >= 0, bounded by x_j <= 8; the objective is left to the caller."""
    constraints = []
    for _ in range(rng.randint(1, 5)):
        row = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        rel = rng.choice(["<=", ">=", "=="])
        rhs = Fraction(rng.randint(-4, 6))
        constraints.append((row, rel, rhs))
    # bound the feasible set so both methods agree on a finite optimum
    for j in range(n):
        row = tuple(Fraction(int(k == j)) for k in range(n))
        constraints.append((row, "<=", Fraction(8)))
    return constraints


def _check_lex_point(objective, sense, constraints):
    """solve() must return the value and the lex-smallest optimal vertex."""
    sol = solve(LinearProgram(objective, sense, constraints))
    expected = lp_by_vertex_enumeration(objective, sense, constraints, point=True)
    if expected is None:
        assert sol.status == INFEASIBLE
    else:
        assert sol.status == OPTIMAL
        assert (sol.value, sol.point) == expected
    return sol


@pytest.mark.parametrize("seed", range(30))
def test_matches_vertex_enumeration(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 4)
    sense = rng.choice(["min", "max"])
    objective = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    constraints = _random_lp(rng, n)
    sol = _check_lex_point(objective, sense, constraints)
    if sol.status == OPTIMAL:
        lhs = [
            sum(a * x for a, x in zip(row, sol.point)) for row, _, _ in constraints
        ]
        for got, (_, rel, rhs) in zip(lhs, constraints):
            if rel == "<=":
                assert got <= rhs
            elif rel == ">=":
                assert got >= rhs
            else:
                assert got == rhs


def test_deterministic_repeat():
    lp = LinearProgram.of(
        [1, 1, 1],
        "min",
        [((1, 1, 0), ">=", 1), ((0, 1, 1), ">=", 1), ((1, 0, 1), ">=", 1)],
    )
    assert solve(lp) == solve(lp)


@pytest.mark.parametrize("seed", range(30))
def test_lex_point_on_degenerate_optimal_faces(seed):
    # a zero objective makes every vertex optimal; an objective equal to a
    # row, pushed against it, makes that row's whole facet optimal
    rng = random.Random(3000 + seed)
    n = rng.randint(2, 4)
    constraints = _random_lp(rng, n)
    row, rel, _ = constraints[0]
    if seed % 3 == 0 or rel == "==":
        objective, sense = [0] * n, rng.choice(["min", "max"])
    else:
        objective, sense = row, "max" if rel == "<=" else "min"
    _check_lex_point(objective, sense, constraints)


def test_lex_point_on_a_hexagonal_face():
    # max x + y + z over x + y + z <= 3, each <= 2: six optimal vertices
    box = [(tuple(int(k == j) for k in range(3)), "<=", 2) for j in range(3)]
    constraints = [((1, 1, 1), "<=", 3)] + box
    sol = _check_lex_point((1, 1, 1), "max", constraints)
    assert (sol.value, sol.point) == (3, (0, 1, 2))


def test_direct_construction_normalizes_to_fractions():
    lp = LinearProgram([2, 1], "max", [([1, 1], "<=", 3), ((1, 0), ">=", 1)])
    assert isinstance(lp.objective, tuple) and isinstance(lp.constraints[0][0], tuple)
    entries = [*lp.objective] + [x for row, _, rhs in lp.constraints for x in (*row, rhs)]
    assert all(type(x) is Fraction for x in entries)
    assert lp == LinearProgram.of(lp.objective, lp.sense, lp.constraints)
    for lex in (True, False):
        sol = solve(lp, lex=lex)
        assert sol.value == 6 and sol.point == (3, 0)
        assert all(type(x) is Fraction for x in (sol.value, *sol.point))


@pytest.mark.parametrize("seed", range(40))
def test_raise_rhs_matches_fresh_solves(seed, monkeypatch):
    # Raising one "<=" row's rhs on the final tableau must give what a fresh
    # solve gives at each value. The objective pushes against the row, so the
    # walk crosses breakpoints. Rows through the origin, duplicated rows and a
    # zero objective (every reduced cost ties) make it degenerate.
    import skrates.lp

    rng = random.Random(6000 + seed)
    while True:
        n = rng.randint(2, 4)
        constraints = _random_lp(rng, n) + _random_lp(rng, n)
        if seed % 2:
            constraints = [(row, rel, rhs * (rel == "<=") * (rhs > 0)) for row, rel, rhs in constraints]
        if seed % 3 == 0:
            constraints.append(rng.choice(constraints))
        k = rng.randrange(len(constraints))
        row = constraints[k][0]
        # start the row at its least value over the other rows, where it is
        # tight, and keep it only if that value has room to grow
        others = constraints[:k] + constraints[k + 1 :]
        low, high = (solve(LinearProgram(row, sense, others), lex=False) for sense in ("min", "max"))
        if low.status != OPTIMAL or high.value == low.value:
            continue
        rhs = low.value + rng.choice([0, 0, Fraction(1, 2)])
        constraints[k] = (row, "<=", rhs)
        objective = [a * (seed % 4 != 0) + rng.randint(-1, 1) * (seed % 4 == 2) for a in row]
        sol = solve(LinearProgram(objective, "max", constraints), lex=False)
        if sol.status == OPTIMAL:
            break
    s = n + sum(rel != "==" for _, rel, _ in constraints[:k])
    values = sorted({rhs + Fraction(rng.randint(0, 200), 2) for _ in range(12)} | {rhs})
    pivots = 0
    original = skrates.lp._pivot

    def counted(*args):
        nonlocal pivots
        pivots += 1
        assert pivots <= 3 * len(sol.tableau.cost), "the walk is cycling"
        return original(*args)

    monkeypatch.setattr(skrates.lp, "_pivot", counted)
    walked = sol.tableau.raise_rhs(s, Fraction(rhs), values)
    monkeypatch.undo()
    for b, value in zip(values, walked, strict=True):
        raised = constraints[:k] + [(row, "<=", b)] + constraints[k + 1 :]
        fresh = solve(LinearProgram(objective, "max", raised), lex=False)
        assert fresh.status == OPTIMAL and fresh.value == value


def test_final_tableau_only_without_lex():
    lp = LinearProgram.of([1, 1], "max", [((1, 1), "<=", 2)])
    assert solve(lp).tableau is None
    assert solve(lp, lex=False).tableau.raise_rhs(2, Fraction(2), [2, 5]) == [2, 5]


def _captured_lps(module, run):
    """The LPs that `run()` hands to `module.solve`."""
    seen = []
    original = module.solve

    def record(lp, *args, **kwargs):
        seen.append(lp)
        return original(lp, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "solve", record)
        run()
    return seen


@pytest.mark.parametrize("seed", range(12))
def test_lex_matches_resolves_on_rco_lps(seed):
    capacity = importlib.import_module("skrates.capacity")  # the package rebinds the name
    rng = random.Random(4000 + seed)
    make = (random_hypergraph, random_connected_pin, random_tree_pin)[seed % 3]
    src = make(rng, rng.randint(2, 5))
    (lp,) = _captured_lps(capacity, lambda: capacity.rco(src))
    assert solve(lp) == lex_optimum_by_resolves(lp)


@pytest.mark.parametrize("seed", range(12))
def test_lex_matches_resolves_on_packing_lps(seed):
    import skrates.packing

    rng = random.Random(5000 + seed)
    src = random_connected_pin(rng, rng.randint(4, 6))
    (lp,) = _captured_lps(skrates.packing, lambda: skrates.packing.max_packing(src))
    assert len(lp.objective) <= 64
    assert solve(lp) == lex_optimum_by_resolves(lp)


def test_lex_costs_few_pivots_on_the_k5_packing_lp(monkeypatch):
    # 125 tree classes; one re-solve per coordinate takes 11,257 pivots on it
    import skrates.lp
    import skrates.packing
    from skrates.source import HypergraphSource

    vertices = [str(i) for i in range(1, 6)]
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1 :]]
    k5 = HypergraphSource.of(vertices, [(f"e{a}{b}", [a, b], 1) for a, b in pairs])
    (lp,) = _captured_lps(skrates.packing, lambda: skrates.packing.max_packing(k5))
    assert len(lp.objective) == 125
    pivots = 0
    original = skrates.lp._pivot

    def counted(*args):
        nonlocal pivots
        pivots += 1
        return original(*args)

    monkeypatch.setattr(skrates.lp, "_pivot", counted)
    plain = solve(lp, lex=False)
    plain_pivots, pivots = pivots, 0
    lex = solve(lp)
    assert lex.value == plain.value == Fraction(5, 2)
    assert 0 < pivots <= 2 * plain_pivots
