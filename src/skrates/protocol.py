"""Bit-exact linear protocols over PIN edge bits, and their verification.

A protocol at blocklength n lays out n*h(e) bits per edge (all integral),
broadcasts XOR forms computable from the speaker's own edges, and names key
bits as forms over all edge bits. Verification is dual-route: GF(2) rank
tests (no size limit) and an optional exact histogram over all edge-bit
assignments, by per-bit convolution (capped), which must agree or the run
aborts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConsistencyError, DomainError
from .gf2 import Basis
from .packing import TreePacking, _pair
from .source import HypergraphSource, RatePoint, weight_function

# Caps N, the edge bits of an exhaustive check. The histogram it builds holds
# at most 2^min(N, key bits + message bits) entries, about 85 bytes each on
# CPython 3.11: a 21-bit check peaks near 190 MB RSS, a 22-bit one near 360 MB.
EXHAUSTIVE_CAP_BITS = 21

PERFECT = "perfect"
LEAKY = "leaky"
UNRECOVERABLE = "unrecoverable"


def edge_layout(source: HypergraphSource, n: int) -> tuple[dict[str, tuple[int, int]], int]:
    """Bit ranges per edge id (start, count), edges in id order; total bits."""
    if n < 1:
        raise DomainError("blocklength must be >= 1")
    layout = {}
    offset = 0
    for e in sorted(source.edges, key=lambda e: e.id):
        bits = n * e.h
        if bits.denominator != 1:
            raise DomainError(f"n*h is not integral for edge {e.id!r}")
        layout[e.id] = (offset, int(bits))
        offset += int(bits)
    return layout, offset


@dataclass(frozen=True)
class LinearProtocol:
    """Non-interactive XOR scheme: per-speaker messages plus key forms."""

    source: HypergraphSource
    n: int
    messages: tuple[tuple[str, int], ...]  # (speaker vertex, form bitmask)
    keys: tuple[int, ...]
    _layout: tuple[dict[str, tuple[int, int]], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "_layout", edge_layout(self.source, self.n))
        full = (1 << self.total_bits) - 1
        for speaker, mask in self.messages:
            if mask < 0 or mask & ~full:
                raise DomainError("message form touches unknown bits")
            if mask & ~self.observe_mask(speaker):
                raise DomainError(
                    f"vertex {speaker!r} cannot compute a form over edges it does not see"
                )
        for mask in self.keys:
            if mask < 0 or mask & ~full:
                raise DomainError("key form touches unknown bits")

    @property
    def total_bits(self) -> int:
        return self._layout[1]

    def edge_bit(self, edge_id: str, k: int) -> int:
        """Bitmask of the k-th bit carried by an edge."""
        start, count = self._layout[0][edge_id]
        if not 0 <= k < count:
            raise DomainError(f"edge {edge_id!r} carries {count} bits")
        return 1 << (start + k)

    def observe_mask(self, v: str) -> int:
        layout = self._layout[0]
        mask = 0
        for e in self.source.edges:
            if v in e.on:
                start, count = layout[e.id]
                mask |= ((1 << count) - 1) << start
        return mask

    def message_bits(self) -> dict[str, int]:
        out = {v: 0 for v in self.source.vertices}
        for speaker, _ in self.messages:
            out[speaker] += 1
        return out


@dataclass(frozen=True)
class SecrecyReport:
    key_bits: int
    message_bits: dict[str, int]
    message_rank: int
    joint_rank: int
    unrecoverable_at: tuple[str, ...]
    verdict: str
    exhaustive_ran: bool
    exhaustive_uniform: bool | None

    @property
    def key_equivocation_bits(self) -> int:
        """H(K|F) in bits; equals key_bits exactly when nothing leaks."""
        return self.joint_rank - self.message_rank

    def to_json_dict(self) -> dict:
        return {
            "key_bits": self.key_bits,
            "message_bits": dict(sorted(self.message_bits.items())),
            "message_rank": self.message_rank,
            "joint_rank": self.joint_rank,
            "key_equivocation_bits": self.key_equivocation_bits,
            "unrecoverable_at": list(self.unrecoverable_at),
            "verdict": self.verdict,
            "exhaustive_ran": self.exhaustive_ran,
            "exhaustive_uniform": self.exhaustive_uniform,
        }


def build_tree_protocol(
    source: HypergraphSource, packing: TreePacking, n: int
) -> LinearProtocol:
    """Realize a tree packing as an XOR protocol at blocklength n.

    Each tree instance takes one fresh bit per tree edge. The smallest
    vertex acts as root and its first branch carries the key bit; every
    vertex of tree-degree d pairs its incident bits in neighbor order and
    broadcasts the d-1 consecutive XORs, which lets everyone walk the tree.
    """
    if packing.source != source:
        raise DomainError("packing belongs to a different source")
    layout, _ = edge_layout(source, n)
    c = weight_function(source)

    instances: list[list[tuple[str, str]]] = []  # tree as pair list
    load: dict[tuple[str, str], int] = {}
    for pairs, eta in packing.tree_pairs():
        copies = n * eta
        if copies.denominator != 1:
            raise DomainError("n*eta is not integral for a tree in the packing")
        for _ in range(int(copies)):
            instances.append(pairs)
            for p in pairs:
                load[p] = load.get(p, 0) + 1
    for p, used in load.items():
        cap = n * c(frozenset(p))
        if used > cap:
            raise DomainError(f"scaled packing exceeds capacity on pair {p}")

    pools: dict[tuple[str, str], list[int]] = {}
    for e in sorted(source.edges, key=lambda e: e.id):
        start, count = layout[e.id]
        pools.setdefault(_pair(e.on), []).extend(1 << (start + k) for k in range(count))
    cursor = {p: 0 for p in pools}

    messages: list[tuple[str, int]] = []
    keys: list[int] = []
    for pairs in instances:
        incident: dict[str, list[tuple[str, int]]] = {v: [] for v in source.vertices}
        for p in pairs:
            bit = pools[p][cursor[p]]
            cursor[p] += 1
            a, b = p
            incident[a].append((b, bit))
            incident[b].append((a, bit))
        root = source.vertices[0]
        keys.append(sorted(incident[root])[0][1])
        for v in source.vertices:
            branches = sorted(incident[v])
            for (_, b1), (_, b2) in zip(branches, branches[1:]):
                messages.append((v, b1 | b2))
    return LinearProtocol(source, n, tuple(messages), tuple(keys))


def joint_value_counts(key_masks, msg_masks, n_bits):
    """Histogram of (key bits, transcript bits) over all 2^n_bits assignments.

    Returns {v: count} for the packed value v = (key << len(msg_masks)) |
    transcript, every assignment counted exactly once. Edge bit b toggles v
    by its flip vector, the set of forms containing b, so the histogram is
    the XOR convolution of one two-point distribution per bit. Bits with
    equal flip vectors are grouped: c bits flipping by f give the values 0
    and f, 2^(c-1) assignments each. The support is always the span of the
    flip vectors seen so far, so the table never exceeds 2^rank entries.
    """
    if n_bits < 0:
        raise ValueError("n_bits must be nonnegative")
    forms = list(msg_masks) + list(key_masks)  # form i is bit i of v
    flips = [0] * n_bits
    for i, mask in enumerate(forms):
        if mask < 0 or mask >> n_bits:
            raise ValueError("form touches bits outside the assignment space")
        while mask:
            low = mask & -mask
            flips[low.bit_length() - 1] |= 1 << i
            mask ^= low
    groups = Counter(flips)
    groups.pop(0, None)
    # Every factor 2^(c-1) and the 2^c of the zero flip vector scale all
    # counts alike, so they are applied once, to the start value.
    counts = {0: 1 << (n_bits - len(groups))}
    for f in groups:
        if f in counts:
            # Each pair {v, v ^ f} is updated once, from the member without
            # f's top bit. Only values change, so the iteration stays valid.
            top = 1 << (f.bit_length() - 1)
            for v, x in counts.items():
                if not v & top:
                    counts[v] = counts[v ^ f] = x + counts[v ^ f]
        else:
            # f lies outside the span, so the shifted copy is disjoint from it.
            for v in list(counts):
                counts[v ^ f] = counts[v]
    return counts


def verify_protocol(
    source: HypergraphSource,
    protocol: LinearProtocol,
    exhaustive: bool = False,
    cap_bits: int = EXHAUSTIVE_CAP_BITS,
) -> SecrecyReport:
    """Check recoverability (per-vertex span) and perfect secrecy (rank).

    With exhaustive=True additionally builds the (K, F) histogram, an exact
    histogram over all assignments, by per-bit convolution, and confirms it
    is uniform and independent; disagreement with the rank verdict is a bug
    and raises ConsistencyError.
    """
    if protocol.source != source:
        raise DomainError("protocol belongs to a different source")
    msg_masks = [m for _, m in protocol.messages]

    # v recovers k iff k is in the span of its observed bits and the messages,
    # that is, iff k's unobserved part is in the span of theirs.
    failed = []
    for v in source.vertices:
        hidden = ~protocol.observe_mask(v)
        basis = Basis(m & hidden for m in msg_masks)
        if not all(basis.contains(k & hidden) for k in protocol.keys):
            failed.append(v)

    message_rank = Basis(msg_masks).rank
    joint_rank = Basis(msg_masks + list(protocol.keys)).rank
    secrecy_ok = joint_rank == message_rank + len(protocol.keys)

    ran = False
    uniform = None
    if exhaustive:
        total = protocol.total_bits
        if total > cap_bits:
            raise DomainError(
                f"exhaustive check capped at {cap_bits} bits, protocol has {total}"
            )
        counts = joint_value_counts(list(protocol.keys), msg_masks, total)
        if sum(counts.values()) != 1 << total:
            raise ConsistencyError("exhaustive histogram lost assignments")
        # The fibers of a linear map over uniform bits are cosets of its
        # kernel, so every value in the support has the same count. Then
        # K is uniform given F iff every transcript shows all 2^k keys.
        if len(set(counts.values())) != 1:
            raise ConsistencyError("exhaustive histogram is not flat on its support")
        fmask = (1 << len(msg_masks)) - 1
        uniform = len(counts) == len({v & fmask for v in counts}) << len(protocol.keys)
        ran = True
        if uniform != secrecy_ok:
            raise ConsistencyError("rank and exhaustive secrecy verdicts disagree")

    if failed:
        verdict = UNRECOVERABLE
    elif not secrecy_ok:
        verdict = LEAKY
    else:
        verdict = PERFECT
    return SecrecyReport(
        key_bits=len(protocol.keys),
        message_bits=protocol.message_bits(),
        message_rank=message_rank,
        joint_rank=joint_rank,
        unrecoverable_at=tuple(failed),
        verdict=verdict,
        exhaustive_ran=ran,
        exhaustive_uniform=uniform,
    )


def measured_rates(protocol: LinearProtocol) -> RatePoint:
    """Exact rates realized by a protocol: key bits and per-vertex talk."""
    n = protocol.n
    counts = protocol.message_bits()
    return RatePoint(
        Fraction(len(protocol.keys), n),
        {v: Fraction(c, n) for v, c in counts.items()},
    )
