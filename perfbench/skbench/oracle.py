"""Reference values computed apart from skrates.

Everything here works on a plain source dict as written to disk
({"vertices": [...], "edges": [{"id", "on", "h"}]}) and recomputes each
quantity from its definition: entropies are sums of edge entropies over the
edge list, partitions come from a recursive set-partition generator, and
certificates are rebuilt from their closed forms. No skrates code is used.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property


def set_partitions(items):
    """Every partition of `items` (list) into nonempty blocks, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]


class Reference:
    """Independent entropies, C_S, R_CO and certificates of one source."""

    def __init__(self, source: dict):
        self.vertices = sorted(source["vertices"])
        self.edges = [(frozenset(e["on"]), Fraction(e["h"])) for e in source["edges"]]
        self._h: dict[frozenset, Fraction] = {}

    @property
    def m(self) -> int:
        return len(self.vertices)

    def is_pin(self) -> bool:
        return all(len(on) == 2 for on, _ in self.edges)

    def H(self, B) -> Fraction:
        """H(Z_B): total entropy of the edges meeting B."""
        B = frozenset(B)
        if B not in self._h:
            self._h[B] = sum((h for on, h in self.edges if on & B), Fraction(0))
        return self._h[B]

    def info(self, blocks) -> Fraction:
        """I_P(Z_B) = [sum_C H(Z_C) - H(Z_B)] / (|P| - 1), B the union of the blocks."""
        union = frozenset(v for C in blocks for v in C)
        total = sum((self.H(C) for C in blocks), Fraction(0))
        return (total - self.H(union)) / (len(blocks) - 1)

    @cached_property
    def C_S(self) -> Fraction:
        """Minimum of I_P(Z_V) over partitions P of V with at least two blocks."""
        return min(
            self.info(P) for P in set_partitions(self.vertices) if len(P) >= 2
        )

    @cached_property
    def R_CO(self) -> Fraction:
        return self.H(self.vertices) - self.C_S

    def pair_weights(self) -> dict[frozenset, Fraction]:
        """PIN only: total entropy per vertex pair (parallel edges summed)."""
        out: dict[frozenset, Fraction] = {}
        for on, h in self.edges:
            out[on] = out.get(on, Fraction(0)) + h
        return out

    def alpha(self, blocks) -> Fraction:
        """(most blocks any edge meets - 1) / (|P| - 1)."""
        sets = [frozenset(C) for C in blocks]
        crossed = max([sum(1 for C in sets if C & on) for on, _ in self.edges] + [1])
        return Fraction(crossed - 1, len(sets) - 1)

    def certificate(self, kind: str, B, blocks) -> dict:
        """The inequality row_rk r_K + sum_i row_i r_i >= rhs of one certificate.

        thm1 (B, P): r(V \\ B) >= (|P| - 1)[r_K - I_P(Z_B)].
        thm3 (P of V): alpha r(V) >= (1 - alpha) r_K.
        """
        k = Fraction(len(blocks) - 1)
        if kind == "thm1":
            B = frozenset(B)
            info = self.info(blocks)
            return {
                "data": {"groups_minus_one": k, "partition_info": info},
                "r_K": -k,
                "r": {v: Fraction(int(v not in B)) for v in self.vertices},
                "rhs": -k * info,
            }
        a = self.alpha(blocks)
        return {
            "data": {"alpha": a},
            "r_K": -(1 - a),
            "r": {v: a for v in self.vertices},
            "rhs": Fraction(0),
        }

    def tree_pin_weights(self):
        """Support weights and degrees when supp(c) is a spanning tree, else None."""
        if not self.is_pin():
            return None
        pairs = self.pair_weights()
        if len(pairs) != self.m - 1:
            return None
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for pair in pairs:
            a, b = sorted(pair)
            ra, rb = find(a), find(b)
            if ra == rb:
                return None
            parent[ra] = rb
        degrees = {v: sum(1 for p in pairs if v in p) for v in self.vertices}
        return pairs, degrees

    def tree_pin_contains(self, r_K: Fraction, r: dict) -> bool:
        """Closed-form tree-PIN region: r_K <= min weight, r_i >= (d_i - 1) r_K."""
        pairs, degrees = self.tree_pin_weights()
        if r_K > min(pairs.values()):
            return False
        return all(r[v] >= (degrees[v] - 1) * r_K for v in self.vertices)
