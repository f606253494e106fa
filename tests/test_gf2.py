"""Bit-matrix rank/span and the exhaustive histogram kernel."""

import random

import pytest
from hypothesis import given, strategies as st

from oracles import brute_force_histogram
from skrates import BACKEND
from skrates.gf2 import Basis, in_span, rank
from skrates.protocol import joint_value_counts


def decoded(keys, msgs, n):
    """The packed histogram as {(key value, transcript value): count}."""
    fb = len(msgs)
    counts = joint_value_counts(keys, msgs, n)
    return {(v >> fb, v & ((1 << fb) - 1)): c for v, c in counts.items()}


def test_rank_basics():
    assert rank([]) == 0
    assert rank([0b101, 0b011, 0b110]) == 2  # third row = xor of first two
    assert rank([0b1, 0b10, 0b100]) == 3


def test_in_span():
    rows = [0b101, 0b011]
    assert in_span(0b110, rows)
    assert in_span(0, rows)
    assert not in_span(0b1000, rows)


@given(st.lists(st.integers(0, 2**10 - 1), max_size=8))
def test_rank_of_spanned_vectors(rows):
    basis = Basis(rows)
    assert basis.rank <= min(10, len(rows))
    rng = random.Random(0)
    for _ in range(5):
        vec = 0
        for r in rows:
            if rng.random() < 0.5:
                vec ^= r
        assert basis.contains(vec)


@pytest.mark.parametrize("seed", range(10))
def test_histogram_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 10)
    keys = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
    msgs = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
    assert decoded(keys, msgs, n) == brute_force_histogram(keys, msgs, n)


@pytest.mark.parametrize(
    "keys, msgs, n",
    [
        ([0b0001], [0b0011], 6),  # bits 2-5 touch no form
        ([0b0011], [0b1100, 0b1111], 4),  # bits 0, 1 and bits 2, 3 flip alike
        ([0b0101, 0b1010], [0b1111, 0b0110], 4),  # repeated and dependent flips
        ([], [], 0),
        ([], [], 3),
        ([0b101], [], 3),
        ([], [0b110, 0b011], 3),
        ([0, 0], [0], 2),  # forms over no bit
    ],
)
def test_histogram_edge_cases_match_bruteforce(keys, msgs, n):
    assert decoded(keys, msgs, n) == brute_force_histogram(keys, msgs, n)


def test_histogram_with_many_forms_matches_bruteforce():
    # More forms (24) than bits, so the values span far fewer than 2^forms.
    rng = random.Random(42)
    n = 6
    keys = [rng.randrange(1, 1 << n) for _ in range(12)]
    msgs = [rng.randrange(1, 1 << n) for _ in range(12)]
    assert decoded(keys, msgs, n) == brute_force_histogram(keys, msgs, n)


def test_out_of_range_mask_rejected():
    with pytest.raises(ValueError):
        joint_value_counts([0b100], [], 2)
    with pytest.raises(ValueError):
        joint_value_counts([], [-1], 2)
    with pytest.raises(ValueError):
        joint_value_counts([], [], -1)


def test_backend_reported():
    assert BACKEND == "python"
