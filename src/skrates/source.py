"""Hypergraphical source model: sources, partitions, rate points.

A source is a finite vertex set plus hyperedges carrying positive rational
entropies; each vertex observes every edge incident on it. Everything here is
immutable after construction and safe to share across threads.

Canonical orders used throughout the package:
  * vertices: sorted by id (string order); internal indices follow this order
  * partition blocks: sorted by smallest member
  * partitions of a set: restricted-growth-string order
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, SourceFormatError
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class Edge:
    """A hyperedge: id, incident vertex set, entropy in bits (> 0)."""

    id: str
    on: frozenset[str]
    h: Fraction


@dataclass(frozen=True)
class HypergraphSource:
    """Validated hypergraphical source.

    Invariants: m >= 2 vertices; every edge incident on a nonempty subset of
    the vertices; every edge entropy strictly positive. Multi-edges (same
    vertex set, distinct ids) are kept distinct here and merged only in the
    weight function.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise SourceFormatError("duplicate vertex ids")
        if tuple(sorted(self.vertices)) != self.vertices:
            raise SourceFormatError("vertices must be in canonical sorted order")
        if len(self.vertices) < 2:
            raise SourceFormatError("need at least 2 vertices")
        vset = set(self.vertices)
        seen_ids = set()
        for e in self.edges:
            if e.id in seen_ids:
                raise SourceFormatError(f"duplicate edge id {e.id!r}")
            seen_ids.add(e.id)
            if not e.on:
                raise SourceFormatError(f"edge {e.id!r} has empty vertex set")
            if not e.on <= vset:
                raise SourceFormatError(f"edge {e.id!r} mentions unknown vertices")
            if e.h <= 0:
                raise SourceFormatError(f"edge {e.id!r} must have positive entropy")
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.vertices)})

    @classmethod
    def of(cls, vertices: Iterable[str], edges: Iterable[tuple[str, Iterable[str], Fraction]]):
        """Build from loose data: edges as (id, on, h) triples."""
        vs = tuple(sorted(vertices))
        es = tuple(Edge(i, frozenset(on), Fraction(h)) for i, on, h in edges)
        return cls(vs, es)

    @property
    def m(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise DomainError(f"unknown vertex id {v!r}") from None

    def check_subset(self, B: Iterable[str]) -> frozenset[str]:
        B = frozenset(B)
        for v in B:
            self.index(v)
        return B

    def is_pin(self) -> bool:
        """True iff every edge joins exactly two distinct vertices."""
        return all(len(e.on) == 2 for e in self.edges)

    def multigraph_degrees(self) -> dict[str, int]:
        """PIN only: per-vertex count of incident edges, multi-edges counted."""
        if not self.is_pin():
            raise DomainError("degrees are defined for PIN sources only")
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            for v in e.on:
                deg[v] += 1
        return deg

    def support_degrees(self) -> dict[str, int]:
        """PIN only: per-vertex degree in the supp(c) simple graph."""
        if not self.is_pin():
            raise DomainError("degrees are defined for PIN sources only")
        deg = {v: 0 for v in self.vertices}
        for pair in weight_function(self).support:
            for v in pair:
                deg[v] += 1
        return deg

    def without_vertices(self, W: Iterable[str]) -> "HypergraphSource":
        """Source with all edges meeting W deleted (vertex set unchanged)."""
        W = self.check_subset(W)
        kept = tuple(e for e in self.edges if not (e.on & W))
        return HypergraphSource(self.vertices, kept)


@dataclass(frozen=True)
class WeightFunction:
    """c(B): total entropy of edges with vertex set exactly B."""

    weights: Mapping[frozenset[str], Fraction]

    def __call__(self, B: Iterable[str]) -> Fraction:
        return self.weights.get(frozenset(B), Fraction(0))

    @property
    def support(self) -> list[frozenset[str]]:
        return sorted((B for B, w in self.weights.items() if w > 0), key=sorted)

    @property
    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


def weight_function(source: HypergraphSource) -> WeightFunction:
    acc: dict[frozenset[str], Fraction] = {}
    for e in source.edges:
        acc[e.on] = acc.get(e.on, Fraction(0)) + e.h
    return WeightFunction(acc)


def is_pin(source: HypergraphSource) -> bool:
    return source.is_pin()


def vertex_degrees(source: HypergraphSource, support_only: bool = False) -> dict[str, int]:
    """PIN vertex degrees: multigraph by default, supp(c) graph if requested."""
    return source.support_degrees() if support_only else source.multigraph_degrees()


def is_spanning_tree(vertices: Sequence[str], pairs: Iterable[tuple[str, str]]) -> bool:
    """Union-find: the pairs join every vertex and close no cycle."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False  # cycle
        parent[ra] = rb
        joined += 1
    return joined == len(vertices) - 1


@dataclass(frozen=True)
class Partition:
    """A partition of a vertex subset into >= 2 nonempty disjoint blocks.

    Stored canonically: each block a sorted tuple, blocks ordered by smallest
    member. Hashable; equality is structural.
    """

    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.blocks) < 2:
            raise DomainError("a partition needs at least 2 blocks")
        seen: set[str] = set()
        for b in self.blocks:
            if not b:
                raise DomainError("empty block")
            if tuple(sorted(b)) != b:
                raise DomainError("blocks must be sorted")
            if seen & set(b):
                raise DomainError("blocks must be disjoint")
            seen |= set(b)
        if tuple(sorted(self.blocks, key=lambda b: b[0])) != self.blocks:
            raise DomainError("blocks must be ordered by smallest member")

    @classmethod
    def of(cls, blocks: Iterable[Iterable[str]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else ""))
        return cls(canon)

    @classmethod
    def of_masks(cls, elems: Sequence[str], masks: Iterable[int]) -> "Partition":
        """Blocks given as bitmasks over elems, which must be sorted."""
        return cls(tuple(tuple(v for i, v in enumerate(elems) if mask >> i & 1) for mask in masks))

    @property
    def ground(self) -> frozenset[str]:
        return frozenset(v for b in self.blocks for v in b)

    def __len__(self) -> int:
        return len(self.blocks)

    def block_sets(self) -> list[frozenset[str]]:
        return [frozenset(b) for b in self.blocks]

    def refines(self, other: "Partition") -> bool:
        """True iff every block here fits inside a block of `other`."""
        others = other.block_sets()
        return all(any(set(b) <= o for o in others) for b in self.blocks)

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement (blockwise intersections)."""
        if self.ground != other.ground:
            raise DomainError("meet requires partitions of the same ground set")
        parts = [
            set(b1) & set(b2)
            for b1 in self.blocks
            for b2 in other.blocks
            if set(b1) & set(b2)
        ]
        return Partition.of(parts)

    def to_lists(self) -> list[list[str]]:
        return [list(b) for b in self.blocks]


def singletons(B: Iterable[str]) -> Partition:
    return Partition.of([v] for v in B)


def partition_masks(bits: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Block masks of every partition of the bits into >= 2 blocks, in RGS order.

    Restricted growth strings: bit i joins each open block, lowest first, then
    opens the next one, so blocks come ordered by their first bit.
    """
    blocks = [bits[0]]

    def grow(i):
        if i == len(bits):
            if len(blocks) >= 2:
                yield tuple(blocks)
            return
        for j in range(len(blocks)):
            blocks[j] |= bits[i]
            yield from grow(i + 1)
            blocks[j] ^= bits[i]
        blocks.append(bits[i])
        yield from grow(i + 1)
        blocks.pop()

    return grow(1)


def enumerate_partitions(B: Iterable[str]) -> Iterator[Partition]:
    """Yield every partition of B into >= 2 blocks, once, in RGS order."""
    elems = sorted(frozenset(B))
    if len(elems) < 2:
        raise DomainError("partition enumeration needs |B| >= 2")
    for blocks in partition_masks([1 << i for i in range(len(elems))]):
        yield Partition.of_masks(elems, blocks)


@dataclass(frozen=True)
class RatePoint:
    """A candidate (r_K, r_V) tuple; all entries nonnegative rationals."""

    r_K: Fraction
    r: Mapping[str, Fraction]

    def __post_init__(self):
        if self.r_K < 0 or any(q < 0 for q in self.r.values()):
            raise DomainError("rates must be nonnegative")

    def total(self, B: Iterable[str] | None = None) -> Fraction:
        """r(B); defaults to r(V over the point's keys)."""
        keys = self.r.keys() if B is None else B
        return sum((self.r[v] for v in keys), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "r_K": format_rational(self.r_K),
            "r": {v: format_rational(q) for v, q in sorted(self.r.items())},
        }

    @classmethod
    def from_json_dict(cls, obj) -> "RatePoint":
        if not isinstance(obj, dict) or set(obj) != {"r_K", "r"} or not isinstance(obj["r"], dict):
            raise SourceFormatError('rate point must be {"r_K": q, "r": {vertex: q}}')
        return cls(parse_rational(obj["r_K"]), {v: parse_rational(q) for v, q in obj["r"].items()})


def load_source(text: str) -> HypergraphSource:
    """Parse the JSON source description; validates all invariants."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SourceFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SourceFormatError("top level must be an object")
    unknown = set(obj) - {"vertices", "edges"}
    if unknown:
        raise SourceFormatError(f"unknown keys: {sorted(unknown)}")
    verts = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise SourceFormatError('"vertices" must be a list of strings')
    if not isinstance(edges, list):
        raise SourceFormatError('"edges" must be a list')
    parsed = []
    for entry in edges:
        if not isinstance(entry, dict) or set(entry) != {"id", "on", "h"}:
            raise SourceFormatError('each edge must be {"id", "on", "h"}')
        if not isinstance(entry["id"], str) or not isinstance(entry["on"], list):
            raise SourceFormatError("edge id must be a string and on a list")
        parsed.append((entry["id"], entry["on"], parse_rational(entry["h"])))
    return HypergraphSource.of(verts, parsed)


def dumps_source(source: HypergraphSource) -> str:
    """Serialize in canonical form; load(dumps(s)) == s."""
    obj = {
        "vertices": list(source.vertices),
        "edges": [
            {"id": e.id, "on": sorted(e.on), "h": format_rational(e.h)}
            for e in sorted(source.edges, key=lambda e: e.id)
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
