"""Protocol construction and bit-exact verification."""

import random
from fractions import Fraction

import pytest

from oracles import random_connected_pin, recoverable_by_unit_vectors
from skrates.bounds import outer_check
from skrates.errors import ConsistencyError, DomainError
from skrates.packing import TreePacking, max_packing, packing_to_rates
from skrates.protocol import (
    LEAKY,
    PERFECT,
    UNRECOVERABLE,
    LinearProtocol,
    build_tree_protocol,
    edge_layout,
    measured_rates,
    verify_protocol,
)
from skrates.source import HypergraphSource, RatePoint


@pytest.fixture
def motivating_protocol(motivating):
    packing = TreePacking(motivating, ((("a", "b"), Fraction(1)),))
    return build_tree_protocol(motivating, packing, 1)


def test_motivating_protocol_shape(motivating, motivating_protocol):
    proto = motivating_protocol
    # vertex 2 sends X_a xor X_b; the key is X_a; users 1 and 3 stay silent
    assert proto.keys == (proto.edge_bit("a", 0),)
    assert proto.messages == (("2", proto.edge_bit("a", 0) | proto.edge_bit("b", 0)),)


def test_motivating_protocol_verifies(motivating, motivating_protocol):
    report = verify_protocol(motivating, motivating_protocol, exhaustive=True)
    assert report.verdict == PERFECT
    assert report.key_bits == 1
    assert report.key_equivocation_bits == 1
    assert report.exhaustive_uniform is True
    assert measured_rates(motivating_protocol) == RatePoint(
        Fraction(1), {"1": Fraction(0), "2": Fraction(1), "3": Fraction(0)}
    )


def test_triangle_n2_protocol(triangle):
    _, packing = max_packing(triangle)
    proto = build_tree_protocol(triangle, packing, 2)
    assert len(proto.keys) == 3
    assert proto.message_bits() == {"1": 1, "2": 1, "3": 1}
    report = verify_protocol(triangle, proto, exhaustive=True)
    assert report.verdict == PERFECT and report.exhaustive_uniform
    assert proto.total_bits == 6
    assert measured_rates(proto) == RatePoint(
        Fraction(3, 2), {v: Fraction(1, 2) for v in triangle.vertices}
    )


def test_weighted_path_protocol():
    src = HypergraphSource.of(
        ["1", "2", "3"], [("a", ["1", "2"], 1), ("b", ["2", "3"], 2)]
    )
    packing = TreePacking(src, ((("a", "b"), Fraction(1)),))
    proto = build_tree_protocol(src, packing, 1)
    assert len(proto.keys) == 1
    assert proto.message_bits() == {"1": 0, "2": 1, "3": 0}
    assert verify_protocol(src, proto, exhaustive=True).verdict == PERFECT


def test_key_broadcast_is_leaky(motivating):
    bit_a = 1  # edge a holds bit 0 of the layout
    proto = LinearProtocol(motivating, 1, (("1", bit_a),), (bit_a,))
    report = verify_protocol(motivating, proto, exhaustive=True)
    assert report.verdict == LEAKY
    assert report.key_equivocation_bits == 0
    assert report.exhaustive_ran
    assert report.exhaustive_uniform is False


def test_skewed_histogram_breaks_the_cross_check(triangle, monkeypatch):
    import skrates.protocol

    _, packing = max_packing(triangle)
    proto = build_tree_protocol(triangle, packing, 2)
    original = skrates.protocol.joint_value_counts

    def skewed(keys, msgs, n_bits):
        # move one assignment between two values; the total stays 2^N
        counts = original(keys, msgs, n_bits)
        a, b = sorted(counts)[:2]
        counts[a] -= 1
        counts[b] += 1
        return counts

    monkeypatch.setattr(skrates.protocol, "joint_value_counts", skewed)
    with pytest.raises(ConsistencyError):
        verify_protocol(triangle, proto, exhaustive=True)


def test_layout_computed_once_per_protocol(triangle, monkeypatch):
    import skrates.protocol

    _, packing = max_packing(triangle)
    proto = build_tree_protocol(triangle, packing, 2)
    calls = []
    original = skrates.protocol.edge_layout

    def counted(source, n):
        calls.append(n)
        return original(source, n)

    monkeypatch.setattr(skrates.protocol, "edge_layout", counted)
    copy = LinearProtocol(triangle, 2, proto.messages, proto.keys)
    assert len(calls) == 1
    verify_protocol(triangle, copy, exhaustive=True)
    assert copy.total_bits == 6 and copy.edge_bit("a", 1) == proto.edge_bit("a", 1)
    assert len(calls) == 1
    assert copy == proto and hash(copy) == hash(proto)
    assert copy != LinearProtocol(triangle, 2, proto.messages, ())


def test_unseen_key_is_unrecoverable(motivating):
    proto = LinearProtocol(motivating, 1, (), (motivating_c_bit(motivating),))
    report = verify_protocol(motivating, proto)
    assert report.verdict == UNRECOVERABLE
    assert report.unrecoverable_at == ("1",)


def motivating_c_bit(motivating):
    layout, _ = edge_layout(motivating, 1)
    return 1 << layout["c"][0]


def test_speaker_cannot_sign_foreign_bits(motivating):
    layout, _ = edge_layout(motivating, 1)
    c_bit = 1 << layout["c"][0]
    with pytest.raises(DomainError):
        LinearProtocol(motivating, 1, (("1", c_bit),), ())


def test_non_integral_scaling_rejected(triangle):
    _, packing = max_packing(triangle)  # eta = 1/2 everywhere
    with pytest.raises(DomainError):
        build_tree_protocol(triangle, packing, 1)
    half = HypergraphSource.of(["1", "2"], [("a", ["1", "2"], Fraction(1, 2))])
    packing2 = TreePacking(half, ((("a",), Fraction(1, 2)),))
    with pytest.raises(DomainError):
        build_tree_protocol(half, packing2, 1)


def test_capacity_violation_after_scaling(motivating):
    packing = TreePacking(
        motivating, ((("a", "b"), Fraction(1)), (("a", "c"), Fraction(1)))
    )
    with pytest.raises(DomainError):
        build_tree_protocol(motivating, packing, 1)


def test_exhaustive_cap(motivating, motivating_protocol):
    with pytest.raises(DomainError):
        verify_protocol(motivating, motivating_protocol, exhaustive=True, cap_bits=2)
    # rank mode has no cap
    assert verify_protocol(motivating, motivating_protocol, cap_bits=2).verdict == PERFECT


def test_empty_protocol(motivating):
    proto = LinearProtocol(motivating, 1, (), ())
    report = verify_protocol(motivating, proto, exhaustive=True)
    assert report.verdict == PERFECT and report.key_bits == 0
    assert measured_rates(proto).r_K == 0


@pytest.mark.parametrize("seed", range(10))
def test_random_pins_simulate_at_packing_rates(seed):
    rng = random.Random(8000 + seed)
    src = random_connected_pin(rng, rng.randint(3, 6))
    _, packing = max_packing(src)
    import math

    n = math.lcm(*(eta.denominator for _, eta in packing.trees)) if packing.trees else 1
    proto = build_tree_protocol(src, packing, n)
    report = verify_protocol(src, proto, exhaustive=proto.total_bits <= 16)
    assert report.verdict == PERFECT
    measured = measured_rates(proto)
    assert measured == packing_to_rates(packing)
    assert outer_check(src, measured).verdict == "feasible-under-outer-bound"


def test_rank_and_exhaustive_always_agree(motivating):
    # scan a batch of small hand-built protocols; the two verdicts must match
    layout, total = edge_layout(motivating, 1)
    bits = [1 << layout[e][0] for e in ("a", "b", "c")]
    rng = random.Random(7)
    for _ in range(60):
        n_msgs = rng.randint(0, 3)
        messages = []
        for _ in range(n_msgs):
            speaker = rng.choice(motivating.vertices)
            obs = [b for e, b in zip(("a", "b", "c"), bits) if speaker in dict(
                (x.id, x.on) for x in motivating.edges
            )[e]]
            mask = 0
            for b in obs:
                if rng.random() < 0.6:
                    mask |= b
            if mask:
                messages.append((speaker, mask))
        keys = []
        for _ in range(rng.randint(0, 2)):
            mask = 0
            for b in bits:
                if rng.random() < 0.5:
                    mask |= b
            if mask:
                keys.append(mask)
        proto = LinearProtocol(motivating, 1, tuple(messages), tuple(keys))
        report = verify_protocol(motivating, proto, exhaustive=True)
        secrecy_ok = report.joint_rank == report.message_rank + report.key_bits
        assert report.exhaustive_uniform == secrecy_ok


def test_recovery_matches_unit_vector_route():
    rng = random.Random(7100)
    partial = 0
    for _ in range(40):
        src = random_connected_pin(rng, rng.randint(3, 5), max_weight=2)
        empty = LinearProtocol(src, 1, (), ())
        total = empty.total_bits
        messages = []
        for _ in range(rng.randint(0, 4)):
            speaker = rng.choice(src.vertices)
            mask = empty.observe_mask(speaker) & rng.getrandbits(total)
            if mask:
                messages.append((speaker, mask))
        keys = tuple(rng.getrandbits(total) for _ in range(rng.randint(1, 3)))
        proto = LinearProtocol(src, 1, tuple(messages), keys)
        expected = {v: recoverable_by_unit_vectors(proto, v) for v in src.vertices}
        report = verify_protocol(src, proto)
        assert report.unrecoverable_at == tuple(v for v in src.vertices if not all(expected[v]))
        partial += sum(any(got) and not all(got) for got in expected.values())
    assert partial > 0, partial
