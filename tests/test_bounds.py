"""Converse certificates, the tree-PIN region, and outer aggregation."""

import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import random_connected_pin, random_hypergraph, random_tree_pin
from skrates.bounds import (
    FEASIBLE,
    OUTER_MAX_VERTICES,
    VIOLATED,
    alpha,
    corollary_bound,
    generate_certificates,
    outer_capacity_curve,
    outer_check,
    outer_curve_column,
    outer_min_rate,
    partition_certificate,
    pin_capacity_curve,
    pin_communication_complexity,
    pin_curve_column,
    thm1_bound,
    thm3_bound,
    tree_pin_check,
    tree_pin_region,
    weight_certificate,
)
from skrates.capacity import RCO_MAX_VERTICES, capacity
from skrates.errors import DomainError
from skrates.lp import INFEASIBLE, OPTIMAL, LinearProgram, solve
from skrates.mmi import mmi, partition_info
from skrates.source import (
    HypergraphSource,
    Partition,
    RatePoint,
    enumerate_partitions,
    singletons,
)


def pt(r_K, **rates):
    return RatePoint(Fraction(r_K), {v: Fraction(q) for v, q in rates.items()})


P13 = Partition.of([["1"], ["3"]])


class TestThm1:
    def test_motivating(self, motivating):
        # r_2 >= r_K - I(Z_1 ^ Z_3) = r_K
        for r_K in (0, 1, Fraction(5, 2)):
            assert thm1_bound(motivating, ["1", "3"], P13, r_K) == r_K

    def test_triangle(self, triangle):
        assert thm1_bound(triangle, ["1", "3"], P13, Fraction(5, 4)) == Fraction(1, 4)

    def test_three_user(self, three_user_hyper):
        # r_2 >= r_K - 1, non-trivial for 1 < r_K <= 2 = C_S
        assert thm1_bound(three_user_hyper, ["1", "3"], P13, 2) == 1

    def test_full_set_bounds_key_rate(self, triangle):
        cert = partition_certificate(triangle, triangle.vertices, singletons(triangle.vertices))
        # with B = V the inequality reads r_K <= I_P
        assert cert.violated_by(pt(2, **{"1": 0, "2": 0, "3": 0}))
        assert not cert.violated_by(pt(Fraction(3, 2), **{"1": 0, "2": 0, "3": 0}))

    def test_rejects_small_B(self, triangle):
        with pytest.raises(DomainError):
            thm1_bound(triangle, ["1"], P13, 1)


class TestCorollary:
    def test_motivating_pair(self, motivating):
        # fundamental of Z_{1,3} is the split, I = 0
        assert corollary_bound(motivating, ["1", "3"], Fraction(3, 4)) == Fraction(3, 4)

    def test_full_set(self, triangle):
        # |P*| - 1 = 2 and I = 3/2: bound 2(r_K - 3/2)
        assert corollary_bound(triangle, triangle.vertices, 2) == 1

    def test_vacuous_when_I_large(self, triangle):
        assert corollary_bound(triangle, ["1", "2"], Fraction(1, 2)) <= 0

    def test_matches_thm1_at_fundamental(self, motivating, triangle):
        for src in (motivating, triangle):
            for B in (["1", "3"], list(src.vertices)):
                fund = mmi(src, B).fundamental
                assert corollary_bound(src, B, 2) == thm1_bound(src, B, fund, 2)


class TestAlpha:
    def test_triangle_singletons(self, triangle):
        assert alpha(triangle, singletons(triangle.vertices)) == Fraction(1, 2)

    def test_pin_singletons_general(self, motivating, triangle):
        for src in (motivating, triangle):
            assert alpha(src, singletons(src.vertices)) == Fraction(1, src.m - 1)

    def test_covering_hyperedge(self, three_user_hyper):
        assert alpha(three_user_hyper, singletons(three_user_hyper.vertices)) == 1

    def test_range(self, six_user_hyper):
        from skrates.source import enumerate_partitions

        for P in enumerate_partitions(six_user_hyper.vertices):
            assert 0 <= alpha(six_user_hyper, P) <= 1

    def test_disconnected_gives_zero(self):
        src = HypergraphSource.of(
            ["1", "2", "3", "4"],
            [("a", ["1", "2"], 1), ("b", ["3", "4"], 1)],
        )
        P = Partition.of([["1", "2"], ["3", "4"]])
        assert alpha(src, P) == 0
        ok, cert = thm3_bound(src, P, pt(Fraction(1, 2), **{"1": 9, "2": 9, "3": 9, "4": 9}))
        assert not ok  # alpha = 0 forces r_K <= 0


class TestThm3:
    def test_triangle_equality(self, triangle):
        ok, _ = thm3_bound(
            triangle, singletons(triangle.vertices), pt(Fraction(3, 2), **{"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1, 2)})
        )
        assert ok

    def test_triangle_violation(self, triangle):
        ok, cert = thm3_bound(
            triangle, singletons(triangle.vertices), pt(1, **{"1": Fraction(1, 2), "2": 0, "3": 0})
        )
        assert not ok
        assert cert.data[0] == Fraction(1, 2)

    def test_alpha_one_is_vacuous(self, three_user_hyper):
        cert = weight_certificate(three_user_hyper, singletons(three_user_hyper.vertices))
        assert cert.vacuous


class TestTreePin:
    def test_motivating_region(self, motivating):
        region = tree_pin_region(motivating)
        assert region.C_S == 1
        assert region.degrees == {"1": 1, "2": 2, "3": 1}
        assert tree_pin_check(motivating, pt(1, **{"1": 0, "2": 1, "3": 0}))
        assert not tree_pin_check(motivating, pt(1, **{"1": 0, "2": Fraction(1, 2), "3": 0}))
        assert not tree_pin_check(motivating, pt(Fraction(9, 8), **{"1": 9, "2": 9, "3": 9}))

    def test_triangle_is_not_tree(self, triangle):
        with pytest.raises(DomainError):
            tree_pin_region(triangle)

    def test_tree_pin_4(self, tree_pin_4):
        region = tree_pin_region(tree_pin_4)
        assert region.C_S == 1
        assert region.degrees == {"1": 1, "2": 2, "3": 2, "4": 1}


class TestPinCurve:
    def test_triangle(self, triangle):
        for R in (0, 1, Fraction(3, 2), 5):
            assert pin_capacity_curve(triangle, R) == min(Fraction(R), Fraction(3, 2))
        assert pin_communication_complexity(triangle) == Fraction(3, 2)

    def test_motivating(self, motivating):
        for R in (0, Fraction(1, 2), 1, 2):
            assert pin_capacity_curve(motivating, R) == min(Fraction(R), Fraction(1))

    def test_zero_budget(self, tree_pin_4):
        assert pin_capacity_curve(tree_pin_4, 0) == 0

    def test_rejects_non_pin_and_two_users(self, three_user_hyper):
        with pytest.raises(DomainError):
            pin_capacity_curve(three_user_hyper, 1)
        two = HypergraphSource.of(["1", "2"], [("a", ["1", "2"], 1)])
        with pytest.raises(DomainError):
            pin_capacity_curve(two, 1)

    def test_complexity_keeps_the_capacity_cap(self):
        m = RCO_MAX_VERTICES + 1
        path = HypergraphSource.of(
            [str(i) for i in range(m)], [(f"e{i}", [str(i), str(i + 1)], 1) for i in range(m - 1)]
        )
        with pytest.raises(DomainError, match=f"m <= {RCO_MAX_VERTICES}"):
            pin_communication_complexity(path)


class TestOuterCheck:
    def test_triangle_packing_point_feasible(self, triangle):
        q = outer_check(triangle, pt(Fraction(3, 2), **{"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1, 2)}))
        assert q.verdict == FEASIBLE and not q.violations

    def test_triangle_underfunded_total(self, triangle):
        q = outer_check(triangle, pt(Fraction(3, 2), **{"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1, 4)}))
        assert q.verdict == VIOLATED
        kinds = {c.kind for c in q.violations}
        assert "thm3" in kinds
        singles = [c for c in q.violations if c.kind == "thm3" and c.P == singletons(triangle.vertices)]
        assert singles, "the singleton weight certificate must fire"

    def test_requires_full_rate_map(self, triangle):
        with pytest.raises(DomainError):
            outer_check(triangle, pt(0, **{"1": 0}))

    def test_cap(self):
        m = OUTER_MAX_VERTICES + 1
        path = HypergraphSource.of(
            [str(i) for i in range(m)], [(f"e{i}", [str(i), str(i + 1)], 1) for i in range(m - 1)]
        )
        point = RatePoint(Fraction(0), {v: Fraction(0) for v in path.vertices})
        calls = (
            lambda: outer_check(path, point),
            lambda: next(generate_certificates(path)),
            lambda: outer_capacity_curve(path, 1),
            lambda: outer_min_rate(path, 0),
        )
        for call in calls:
            with pytest.raises(DomainError, match=f"m <= {OUTER_MAX_VERTICES} .* m = {m}$"):
                call()

    def test_keeps_no_certificates_alive(self):
        src = random_hypergraph(random.Random(8800), 8)
        point = _random_point(random.Random(8801), src.vertices)
        tracemalloc.start()
        try:
            outer_check(src, point)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1_000_000


def _fractional_source(rng, m, pin):
    """Random hypergraph or PIN whose entropies have denominators up to 11."""
    vertices = [str(i + 1) for i in range(m)]
    edges = []
    for i in range(rng.randint(1, m + 2)):
        on = rng.sample(vertices, 2 if pin else rng.randint(1, m))
        edges.append((f"e{i}", on, Fraction(rng.randint(1, 12), rng.randint(1, 11))))
    return HypergraphSource.of(vertices, edges)


EDGE_CASE_SOURCES = {
    "edgeless": HypergraphSource.of(["1", "2", "3", "4"], []),
    "single-vertex edge": HypergraphSource.of(
        ["1", "2", "3"],
        [("a", ["2"], 2), ("b", ["1", "2", "3"], Fraction(1, 3)), ("c", ["1", "3"], Fraction(5, 7))],
    ),
    "parallel edges": HypergraphSource.of(
        ["1", "2", "3", "4"],
        [
            ("a", ["1", "2"], 1),
            ("b", ["1", "2"], Fraction(3, 2)),
            ("c", ["2", "3", "4"], Fraction(2, 11)),
            ("d", ["2", "3", "4"], Fraction(1, 3)),
        ],
    ),
}


def _reference_certificates(src):
    """Every certificate by the Fraction route, in generate_certificates order."""
    certs = [
        partition_certificate(src, B, P)
        for size in range(2, src.m + 1)
        for B in combinations(src.vertices, size)
        for P in enumerate_partitions(B)
    ]
    return certs + [weight_certificate(src, P) for P in enumerate_partitions(src.vertices)]


def _boundary_point(rng, src, cert):
    """A point with r(V \\ B) = k (r_K - I_P): on the certificate's boundary, not past it."""
    k, info = cert.data
    outside = [v for v in src.vertices if v not in cert.B]
    r_K = info + (Fraction(rng.randint(0, 6), rng.choice([1, 2, 3, 7])) if outside else 0)
    weights = {v: rng.randint(1, 3) for v in outside}
    rates = {v: k * (r_K - info) * w / sum(weights.values()) for v, w in weights.items()}
    rates.update((v, Fraction(rng.randint(0, 6), rng.choice([1, 5]))) for v in cert.B)
    return RatePoint(r_K, rates)


class TestSweepMatchesFractionRoute:
    """outer_check's integer sweep reports the violations the Fraction route finds, in order."""

    @staticmethod
    def _check(src, points):
        certs = _reference_certificates(src)
        assert tuple(generate_certificates(src)) == tuple(certs)
        for point in points:
            expected = tuple(c for c in certs if c.violated_by(point))
            query = outer_check(src, point)
            assert query.violations == expected
            assert query.verdict == (VIOLATED if expected else FEASIBLE)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_sources(self, seed):
        rng = random.Random(9100 + seed)
        m = 2 + seed % 5
        src = _fractional_source(rng, m, pin=seed % 2 == 1)
        points = [_random_point(rng, src.vertices, (1, 2, 3, 5, 7)) for _ in range(6)]
        thm1 = [c for c in _reference_certificates(src) if c.kind == "thm1"]
        points += [_boundary_point(rng, src, rng.choice(thm1)) for _ in range(6)]
        self._check(src, points)

    @pytest.mark.parametrize("name", sorted(EDGE_CASE_SOURCES))
    def test_edge_cases(self, name):
        src = EDGE_CASE_SOURCES[name]
        rng = random.Random(name)
        thm1 = [c for c in _reference_certificates(src) if c.kind == "thm1"]
        points = [_random_point(rng, src.vertices) for _ in range(6)]
        points += [_boundary_point(rng, src, rng.choice(thm1)) for _ in range(6)]
        self._check(src, points)

    def test_boundary_is_not_a_violation(self):
        rng = random.Random(9200)
        src = _fractional_source(rng, 5, pin=False)
        for cert in _reference_certificates(src)[::7]:
            if cert.kind == "thm1":
                point = _boundary_point(rng, src, cert)
                assert cert.evaluate(point) == cert.rhs
                assert cert not in outer_check(src, point).violations


class TestCertificates:
    def test_rows_reproducible_by_independent_path(self, motivating, three_user_hyper):
        # re-derive each stored row element-by-element from (kind, B, P)
        rng = random.Random(9300)
        fractional = [_fractional_source(rng, m, pin) for m in (3, 4, 5) for pin in (False, True)]
        for src in [motivating, three_user_hyper, *fractional, *EDGE_CASE_SOURCES.values()]:
            for cert in generate_certificates(src):
                if cert.kind == "thm1":
                    k = Fraction(len(cert.P) - 1)
                    info = partition_info(src, cert.B, cert.P)
                    assert cert.row_rk == -k
                    assert cert.rhs == -k * info
                    for v in src.vertices:
                        assert cert.row[v] == (0 if v in cert.B else 1)
                    assert cert.data == (k, info)
                else:
                    a = alpha(src, cert.P)
                    assert cert.row_rk == -(1 - a)
                    assert cert.rhs == 0
                    assert all(cert.row[v] == a for v in src.vertices)

    def test_enumeration_order(self, triangle):
        certs = list(generate_certificates(triangle))
        thm1 = [c for c in certs if c.kind == "thm1"]
        sizes = [len(c.B) for c in thm1]
        assert sizes == sorted(sizes)
        assert certs.index(thm1[-1]) < certs.index([c for c in certs if c.kind == "thm3"][0])


def _random_sources(seed):
    """One hypergraph and one PIN with m = 3-6 from a fixed seed."""
    rng = random.Random(seed)
    return [random_hypergraph(rng, rng.randint(3, 6)), random_connected_pin(rng, rng.randint(3, 6))]


def _random_point(rng, vertices, denominators=(1, 2, 3)):
    def q():
        return Fraction(rng.randint(0, 8), rng.choice(denominators))

    return RatePoint(q(), {v: q() for v in vertices})


class TestDerivedForm:
    @pytest.mark.parametrize("seed", range(3))
    def test_evaluate_matches_derived_row(self, seed):
        rng = random.Random(7000 + seed)
        for src in _random_sources(7000 + seed):
            points = [_random_point(rng, src.vertices) for _ in range(3)]
            for cert in generate_certificates(src):
                row_rk, row, rhs = cert.row_rk, cert.row, cert.rhs
                for point in points:
                    value = row_rk * point.r_K + sum(row[v] * point.r[v] for v in src.vertices)
                    assert cert.evaluate(point) == value
                    assert cert.violated_by(point) == (value < rhs)


class TestPruningKeepsFeasibleSet:
    """The pruned LP rows give the same optima as every non-vacuous certificate."""

    @staticmethod
    def _full_rows(src):
        return [
            ((c.row_rk, *(c.row[v] for v in src.vertices)), ">=", c.rhs)
            for c in generate_certificates(src)
            if not c.vacuous
        ]

    # Seeds whose hypergraphs have weight rows with 0 < alpha < 1 (two also have
    # alpha = 0) and m <= 5: unpruned, an m = 6 source has about a thousand rows
    # and each exact LP over them takes several seconds. The disconnected source
    # has alpha = 0, whose -r_K >= 0 row the pruned rows leave out.
    @pytest.mark.parametrize("seed", (8020, 8041, 8052, "disconnected"))
    def test_outer_curve_and_min_rate(self, seed):
        if seed == "disconnected":
            sources = [
                HypergraphSource.of(
                    ["1", "2", "3", "4"],
                    [("a", ["1", "2"], 1), ("b", ["3", "4"], Fraction(3, 2)), ("c", ["4"], 1)],
                )
            ]
            assert any(c.kind == "thm3" and c.data[0] == 0 for c in generate_certificates(sources[0]))
        else:
            sources = _random_sources(seed)
        for src in sources:
            rows = self._full_rows(src)
            m = src.m
            for R in (0, Fraction(1, 2), 2, 50):
                budget = ((Fraction(0),) + (Fraction(1),) * m, "<=", Fraction(R))
                lp = LinearProgram.of([1] + [0] * m, "max", rows + [budget])
                sol = solve(lp, lex=False)
                assert sol.status == OPTIMAL
                assert outer_capacity_curve(src, R) == sol.value
            ceiling = outer_capacity_curve(src, 10**6)
            for r_K in (0, ceiling / 2, ceiling, ceiling + Fraction(1, 7)):
                fixed = [(row[1:], rel, rhs - row[0] * r_K) for row, rel, rhs in rows]
                sol = solve(LinearProgram.of([1] * m, "min", fixed), lex=False)
                if sol.status == INFEASIBLE:
                    with pytest.raises(DomainError):
                        outer_min_rate(src, r_K)
                else:
                    assert sol.status == OPTIMAL
                    assert outer_min_rate(src, r_K) == sol.value


class TestCurveColumns:
    """Chord-sampled columns equal the row-by-row values."""

    @pytest.mark.parametrize("seed", range(6))
    def test_outer_column_matches_row_by_row(self, seed):
        rng = random.Random(8600 + seed)
        m = rng.randint(3, 5)
        src = random_hypergraph(rng, m) if seed % 2 else random_connected_pin(rng, m)
        R_CO = capacity(src).R_CO
        for rows in (1, 2, 7, 12):
            # grids of two or more rows end past R_CO, where the curve has flattened
            step = (R_CO + rng.randint(1, 3)) / max(rows - 1, 1)
            grid = [k * step for k in range(rows)]
            expected = [outer_capacity_curve(src, R) for R in grid]
            assert outer_curve_column(src, grid) == expected
        assert outer_curve_column(src, []) == []

    def test_pin_column_reads_capacity_once(self, monkeypatch, triangle):
        import skrates.bounds as bounds

        calls = []
        real = bounds.capacity
        monkeypatch.setattr(bounds, "capacity", lambda s: calls.append(s) or real(s))
        grid = [Fraction(k, 2) for k in range(8)]
        assert pin_curve_column(triangle, grid) == [min(R, Fraction(3, 2)) for R in grid]
        assert len(calls) == 1
        assert all(type(c) is Fraction for c in pin_curve_column(triangle, [0, 1, 2]))


class TestOuterCurve:
    def test_triangle(self, triangle):
        assert outer_capacity_curve(triangle, 1) == 1
        assert outer_capacity_curve(triangle, 100) == Fraction(3, 2)

    def test_motivating(self, motivating):
        assert outer_capacity_curve(motivating, 2) == 1
        assert outer_capacity_curve(motivating, Fraction(1, 2)) == Fraction(1, 2)

    def test_large_budget_hits_capacity(self, three_user_hyper, six_user_hyper):
        for src in (three_user_hyper, six_user_hyper):
            assert outer_capacity_curve(src, 1000) == capacity(src).C_S

    @pytest.mark.parametrize("seed", range(4))
    def test_pin_curve_matches_closed_form(self, seed):
        rng = random.Random(3000 + seed)
        src = random_connected_pin(rng, rng.randint(3, 5))
        C_S = capacity(src).C_S
        for R in (0, Fraction(1, 3), 1, 2, 7):
            expected = min(Fraction(R) / (src.m - 2), C_S)
            assert outer_capacity_curve(src, R) == expected


class TestOuterMinRate:
    def test_six_user(self, six_user_hyper):
        assert outer_min_rate(six_user_hyper, 1) == 1

    def test_triangle(self, triangle):
        assert outer_min_rate(triangle, Fraction(3, 2)) == Fraction(3, 2)

    def test_above_capacity_is_empty(self, triangle):
        with pytest.raises(DomainError):
            outer_min_rate(triangle, Fraction(8, 5))


class TestTreePinOuterExactness:
    @pytest.mark.parametrize("seed", range(3))
    def test_outer_equals_region(self, seed):
        rng = random.Random(4000 + seed)
        src = random_tree_pin(rng, rng.randint(3, 5))
        region = tree_pin_region(src)
        # boundary point: r_K = C_S, r_i at the facet
        rates = {v: (region.degrees[v] - 1) * region.C_S for v in src.vertices}
        point = RatePoint(region.C_S, rates)
        assert outer_check(src, point).verdict == FEASIBLE
        # push any coordinate below its facet and the outer check must fire
        for v in src.vertices:
            if region.degrees[v] > 1:
                bad = dict(rates)
                bad[v] -= Fraction(1, 100)
                assert outer_check(src, RatePoint(region.C_S, bad)).verdict == VIOLATED
        assert outer_check(
            src, RatePoint(region.C_S + Fraction(1, 100), rates)
        ).verdict == VIOLATED


def test_full_set_fundamental_certificate_is_capacity_ceiling(
    motivating, triangle, three_user_hyper, tree_pin_4
):
    # with B = V and P the fundamental partition, the inequality collapses
    # to r_K <= C_S exactly
    from skrates.bounds import partition_certificate

    for src in (motivating, triangle, three_user_hyper, tree_pin_4):
        C_S = capacity(src).C_S
        fund = mmi(src, src.vertices).fundamental
        cert = partition_certificate(src, src.vertices, fund)
        zero = {v: Fraction(0) for v in src.vertices}
        eps = Fraction(1, 97)
        assert not cert.violated_by(RatePoint(C_S, zero))
        assert cert.violated_by(RatePoint(C_S + eps, zero))
