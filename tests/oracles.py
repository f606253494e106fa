"""Independent oracles and instance generators for the test suite.

Everything here recomputes expected values by a route different from the
code under test: Bell numbers via the triangle recurrence, LP optima via
exact vertex enumeration, histograms via direct parity evaluation, spanning
tree counts via edge-subset counting, key recovery via a basis of unit vectors
and messages.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from skrates.source import HypergraphSource


def bell_numbers(n: int) -> list[int]:
    """Bell triangle recurrence: B_0 .. B_n."""
    out = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        out.append(nxt[0])
        row = nxt
    return out


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination; None if singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def lp_by_vertex_enumeration(objective, sense, constraints):
    """Exact optimum by enumerating basic points; needs a bounded optimum.

    Constraints are (row, rel, rhs) over x >= 0, as in skrates.lp. Intended
    for small instances only (<= 4 variables or so).
    """
    n = len(objective)
    rows = []
    for row, rel, rhs in constraints:
        row = [Fraction(a) for a in row]
        rhs = Fraction(rhs)
        if rel in ("<=", "=="):
            rows.append((row, rhs))
        if rel in (">=", "=="):
            rows.append(([-a for a in row], -rhs))
    for j in range(n):
        rows.append(([Fraction(-int(k == j)) for k in range(n)], Fraction(0)))

    def feasible(x):
        return all(sum(a * v for a, v in zip(row, x)) <= rhs for row, rhs in rows)

    best = None
    for combo in combinations(range(len(rows)), n):
        sq = [rows[i][0] for i in combo]
        rhs = [rows[i][1] for i in combo]
        x = _solve_square(sq, rhs)
        if x is None or any(v < 0 for v in x) or not feasible(x):
            continue
        val = sum(c * v for c, v in zip(objective, x))
        if best is None:
            best = val
        elif sense == "min":
            best = min(best, val)
        else:
            best = max(best, val)
    return best


def brute_force_histogram(key_masks, msg_masks, n_bits):
    """Direct (no Gray walk) histogram of (K, F) over all assignments."""
    counts = {}
    for x in range(1 << n_bits):
        k = 0
        for i, mask in enumerate(key_masks):
            k |= (bin(x & mask).count("1") & 1) << i
        f = 0
        for i, mask in enumerate(msg_masks):
            f |= (bin(x & mask).count("1") & 1) << i
        counts[(k, f)] = counts.get((k, f), 0) + 1
    return counts


def recoverable_by_unit_vectors(protocol, v) -> list[bool]:
    """Per key, whether v recovers it: the key lies in the span of v's
    observed bits, as unit vectors, together with every message."""
    from skrates.gf2 import Basis

    basis = Basis()
    obs = protocol.observe_mask(v)
    while obs:
        low = obs & -obs
        basis.add(low)
        obs ^= low
    for _, mask in protocol.messages:
        basis.add(mask)
    return [basis.contains(k) for k in protocol.keys]


def count_trees_by_subsets(vertices, pairs) -> int:
    """Spanning-tree count by checking every (m-1)-subset of distinct pairs."""
    m = len(vertices)
    total = 0
    for combo in combinations(pairs, m - 1):
        parent = {v: v for v in vertices}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        ok = True
        for a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        total += ok
    return total


def prufer_tree(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree on 0..m-1 via a Prufer sequence."""
    if m == 2:
        return [(0, 1)]
    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for s in seq:
        degree[s] += 1
    edges = []
    import heapq

    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u, v = leaves[0], leaves[1]
    edges.append((u, v))
    return edges


def random_tree_pin(rng: random.Random, m: int, max_weight: int = 3) -> HypergraphSource:
    """PIN whose supp(c) is a spanning tree; occasionally parallel edges."""
    edges = []
    eid = 0
    for u, v in prufer_tree(rng, m):
        pair = [str(u + 1), str(v + 1)]
        weight = rng.randint(1, max_weight)
        if rng.random() < 0.3 and weight > 1:
            split = rng.randint(1, weight - 1)
            edges.append((f"e{eid}", pair, Fraction(split)))
            eid += 1
            edges.append((f"e{eid}", pair, Fraction(weight - split)))
        else:
            edges.append((f"e{eid}", pair, Fraction(weight)))
        eid += 1
    return HypergraphSource.of([str(i + 1) for i in range(m)], edges)


def random_connected_pin(rng: random.Random, m: int, max_weight: int = 3) -> HypergraphSource:
    """Connected PIN: a random spanning tree plus a few chords."""
    pairs = {tuple(sorted((u, v))) for u, v in prufer_tree(rng, m)}
    for _ in range(rng.randint(0, m)):
        u, v = rng.sample(range(m), 2)
        pairs.add(tuple(sorted((u, v))))
    edges = [
        (f"e{i}", [str(u + 1), str(v + 1)], Fraction(rng.randint(1, max_weight)))
        for i, (u, v) in enumerate(sorted(pairs))
    ]
    return HypergraphSource.of([str(i + 1) for i in range(m)], edges)


def random_hypergraph(rng: random.Random, m: int, max_edges: int = 8) -> HypergraphSource:
    """Arbitrary hypergraphical source with small rational entropies."""
    vertices = [str(i + 1) for i in range(m)]
    edges = []
    for i in range(rng.randint(1, max_edges)):
        size = rng.randint(1, m)
        on = rng.sample(vertices, size)
        h = Fraction(rng.randint(1, 6), rng.choice([1, 1, 2]))
        edges.append((f"e{i}", on, h))
    return HypergraphSource.of(vertices, edges)


def random_coverage_oracle(rng: random.Random, size: int):
    """Random coverage function: submodular, normalized, monotone.

    f(B) = total weight of universe items covered by the sets attached to
    the elements of B.
    """
    from skrates.greedy import SetFunctionOracle

    universe = list(range(rng.randint(2, 6)))
    weights = {u: Fraction(rng.randint(1, 5), rng.choice([1, 2])) for u in universe}
    ground = [f"s{i}" for i in range(size)]
    attached = {
        g: frozenset(rng.sample(universe, rng.randint(0, len(universe))))
        for g in ground
    }

    def f(B):
        covered = set()
        for g in B:
            covered |= attached[g]
        return sum((weights[u] for u in covered), Fraction(0))

    return SetFunctionOracle(ground, f)
