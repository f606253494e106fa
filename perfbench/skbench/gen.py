"""Seeded inputs for the three workloads.

Each workload is a fixed cycle of input classes. A class fixes the kind of
source and its size, and the seed draws its topology and entropies, so every
run sees the same mix in the same order and only the instances differ. Every
operation gets a source of its own (region: every three operations), so no
result is reused from an earlier operation unless a run outlasts its pool.
Classes are chosen so that the median and the 90th percentile of operation
time each fall inside one class, away from class boundaries.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .oracle import Reference

ENTROPIES = ("1/2", "1", "3/2", "2", "3")

# curve: (kind, m, edges) of each source, one per operation; 40 per cycle.
# Time per class grows roughly H3 < H4 < P3 ~ H5 < P4; the shares are
# 20/20/15/17.5/27.5 %, so the median falls among P3 and H5 and the 90th
# percentile inside P4. m = 5 PINs (about 1.2 s each) are left out: a few
# per run, with their wide spread of LP work, moved ops_per_s by 8 %.
_H3, _H4, _H5 = ("hyper", 3, 4), ("hyper", 4, 5), ("hyper", 5, 6)
_P3, _P4 = ("pin", 3, 3), ("pin", 4, 5)
CURVE_CYCLE = (
    _H3, _P4, _H4, _P3, _H5, _P4, _H3, _H4, _P3, _H5,
    _P4, _H3, _H4, _P4, _H5, _P3, _H3, _P4, _H4, _H5,
    _P4, _H3, _P4, _H4, _P3, _H5, _P4, _H3, _H4, _P3,
    _H5, _P4, _H3, _H4, _P4, _H5, _P3, _H3, _P4, _H4,
)
CURVE_ROWS = 7

# region: (kind, m); nine sources, QUERIES_PER_SOURCE queries each, so one
# query in three is the cold first query on its source.
REGION_CYCLE = (
    ("tree", 7), ("pin", 6), ("hyper", 7), ("pin", 7), ("hyper", 6),
    ("tree", 7), ("hyper", 7), ("tree", 6), ("pin", 7),
)
QUERIES_PER_SOURCE = 3

# protocol: (edge bits, m); each bit count is a fifth of the operations.
PROTOCOL_CYCLE = tuple(
    (bits, m) for m in (3, 4, 5) for bits in (16, 18, 20, 17, 19)
)
# Upper bound on (m - 1) C_S, the number of key plus message bits, which sets
# the size of the value table the exhaustive walk fills.
PROTOCOL_MAX_FORMS = 16

POOL_OPS = {"curve": 4000, "region": 4500, "protocol": 2500}


@dataclass
class Op:
    """One CLI call and what its checker needs to know about it."""

    argv: list[str]
    source_id: int
    kind: str
    source: dict = field(repr=False)
    extra: dict = field(default_factory=dict)


def _vertices(m: int) -> list[str]:
    return [str(i) for i in range(1, m + 1)]


def _source(vertices, edges) -> dict:
    return {
        "vertices": list(vertices),
        "edges": [
            {"id": f"e{i}", "on": sorted(on), "h": h} for i, (on, h) in enumerate(edges)
        ],
    }


def _random_tree(rng: random.Random, vs: list[str]) -> list[tuple[str, str]]:
    return [(vs[i], vs[rng.randrange(i)]) for i in range(1, len(vs))]


def pin_source(rng: random.Random, m: int, n_edges: int) -> dict:
    """Connected PIN: a random spanning tree plus random extra pairs."""
    vs = _vertices(m)
    pairs = _random_tree(rng, vs)
    while len(pairs) < n_edges:
        pairs.append(tuple(rng.sample(vs, 2)))
    return _source(vs, [(p, rng.choice(ENTROPIES)) for p in pairs])


def tree_pin_source(rng: random.Random, m: int) -> dict:
    """PIN whose support is a spanning tree; one pair may carry two edges."""
    vs = _vertices(m)
    pairs = _random_tree(rng, vs)
    if rng.random() < 0.5:
        pairs.append(rng.choice(pairs))
    return _source(vs, [(p, rng.choice(ENTROPIES)) for p in pairs])


def hyper_source(rng: random.Random, m: int, n_edges: int) -> dict:
    """Connected hypergraph with at least one edge on three or more users."""
    vs = _vertices(m)
    while True:
        edges = [
            tuple(rng.sample(vs, rng.choice((2, 2, 3, 3, 4)) if m > 3 else rng.choice((2, 3))))
            for _ in range(n_edges)
        ]
        if any(len(e) >= 3 for e in edges) and _connected(vs, edges):
            return _source(vs, [(e, rng.choice(ENTROPIES)) for e in edges])


def _connected(vs, edges) -> bool:
    seen = {vs[0]}
    grew = True
    while grew:
        grew = False
        for e in edges:
            if seen & set(e) and not set(e) <= seen:
                seen |= set(e)
                grew = True
    return len(seen) == len(vs)


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def protocol_source(rng: random.Random, m: int, bits: int) -> dict:
    """Unicyclic PIN with integer entropies summing to `bits`, integral C_S.

    The spanning trees of a unicyclic support each omit one cycle pair, so
    with integral C_S the lexicographically smallest optimal tree packing is
    integral and the default blocklength is 1: the protocol has exactly
    `bits` edge bits.
    """
    vs = _vertices(m)
    while True:
        k = rng.randint(3, m)
        cycle = [(vs[i], vs[(i + 1) % k]) for i in range(k)]
        pendant = [(vs[i], vs[rng.randrange(i)]) for i in range(k, m)]
        pairs = cycle + pendant
        if rng.random() < 0.5:
            pairs.append(rng.choice(pairs))
        hs = _composition(rng, bits, len(pairs))
        source = _source(vs, [(p, str(h)) for p, h in zip(pairs, hs)])
        c_s = Reference(source).C_S
        if c_s.denominator == 1 and (m - 1) * c_s <= PROTOCOL_MAX_FORMS:
            return source


def region_point(rng: random.Random, source: dict, style: int) -> dict:
    """A rate point scaled by the smallest single-user entropy.

    style 0 draws talk rates freely, style 1 generously, style 2 tightly,
    so the responses mix feasible points and points with few or many
    violated certificates.
    """
    ref = Reference(source)
    scale = min(ref.H([v]) for v in ref.vertices)
    r_K = scale * Fraction(rng.choice((1, 2, 3, 4, 5)), 4)
    factors = ((0, 1, 2, 3), (2, 3, 4), (0, 1, 2))[style]
    rates = {v: r_K * Fraction(rng.choice(factors), 2) for v in ref.vertices}
    return {"r_K": _fmt(r_K), "r": {v: _fmt(q) for v, q in rates.items()}}


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write(directory: Path, sid: int, source: dict) -> str:
    path = directory / f"s{sid:05d}.json"
    path.write_text(json.dumps(source))
    return str(path)


def build(workload: str, seed: int, directory: Path) -> list[Op]:
    """The pool of operations for one run; source files go to `directory`."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    if workload == "curve":
        for i in range(POOL_OPS["curve"]):
            kind, m, n_edges = CURVE_CYCLE[i % len(CURVE_CYCLE)]
            source = pin_source(rng, m, n_edges) if kind == "pin" else hyper_source(rng, m, n_edges)
            total = sum((Fraction(e["h"]) for e in source["edges"]), Fraction(0))
            # Even rounds run the grid up to H(Z_V) >= R_CO, odd rounds to half.
            r_max = total if (i // len(CURVE_CYCLE)) % 2 == 0 else total / 2
            step = r_max / (CURVE_ROWS - 1)
            path = _write(directory, i, source)
            argv = ["curve", "--source", path, "--r-max", _fmt(r_max), "--step", _fmt(step), "--output", "json"]
            ops.append(Op(argv, i, kind, source, {"r_max": r_max, "step": step}))
    elif workload == "region":
        n_sources = POOL_OPS["region"] // QUERIES_PER_SOURCE
        for sid in range(n_sources):
            kind, m = REGION_CYCLE[sid % len(REGION_CYCLE)]
            if kind == "tree":
                source = tree_pin_source(rng, m)
            elif kind == "pin":
                source = pin_source(rng, m, m + m // 2)
            else:
                source = hyper_source(rng, m, m + 1)
            path = _write(directory, sid, source)
            for q in range(QUERIES_PER_SOURCE):
                point = region_point(rng, source, (sid + q) % 3)
                argv = ["bounds", "--source", path, "--point", json.dumps(point)]
                ops.append(Op(argv, sid, kind, source, {"point": point, "cold": q == 0}))
    elif workload == "protocol":
        for i in range(POOL_OPS["protocol"]):
            bits, m = PROTOCOL_CYCLE[i % len(PROTOCOL_CYCLE)]
            source = protocol_source(rng, m, bits)
            path = _write(directory, i, source)
            ops.append(Op(["simulate", "--source", path, "--exhaustive"], i, "pin", source, {"bits": bits}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
