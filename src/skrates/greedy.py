"""Greedy chain optimum for the covering LP over a submodular oracle.

The LP: minimize sum mu(B) f(B) over nonnegative set measures mu whose
marginals hit a prescribed weight vector w. The greedy optimum is supported
on the chain of descending-weight prefixes; lamination turns any feasible
measure into a laminar one without raising the objective, which is how the
optimality proof goes and is exposed here as an operation in its own right.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import ConsistencyError, DomainError
from .source import HypergraphSource, Partition

VERIFY_CAP = 12


class SetFunctionOracle:
    """Set function with caching; ground order fixes all tie-breaks."""

    def __init__(self, ground: Iterable[str], evaluator: Callable[[frozenset], Fraction]):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise DomainError("ground set has duplicates")
        self._pos = {s: i for i, s in enumerate(self.ground)}
        self._evaluator = evaluator
        self._cache: dict[frozenset, Fraction] = {}

    def __call__(self, B: Iterable[str]) -> Fraction:
        key = frozenset(B)
        if not key <= set(self.ground):
            raise DomainError("set outside the ground set")
        if key not in self._cache:
            self._cache[key] = Fraction(self._evaluator(key))
        return self._cache[key]

    def sort_key(self, B: frozenset) -> tuple:
        return tuple(sorted(self._pos[s] for s in B))

    def _pair_check(self, keep_equality: bool) -> bool:
        """Local criterion: f(A+i) + f(A+j) >= f(A) + f(A+i+j) for all A, i, j.

        Equivalent to submodularity; `keep_equality` demands equality, which
        together with the inequality characterizes modular functions.
        """
        n = len(self.ground)
        if n > VERIFY_CAP:
            raise DomainError(f"verification capped at |S| <= {VERIFY_CAP}; pass verify=False to waive")
        if self(frozenset()) != 0:
            return False
        elems = list(self.ground)
        for r in range(n - 1):
            for A in combinations(elems, r):
                A = frozenset(A)
                rest = [s for s in elems if s not in A]
                for i, j in combinations(rest, 2):
                    lhs = self(A | {i}) + self(A | {j})
                    rhs = self(A) + self(A | {i, j})
                    if lhs < rhs or (keep_equality and lhs != rhs):
                        return False
        return True

    def is_submodular(self) -> bool:
        return self._pair_check(keep_equality=False)

    def is_modular(self) -> bool:
        return self._pair_check(keep_equality=True)


def independent_rank_oracle(ranks: Mapping[str, Fraction]) -> SetFunctionOracle:
    """Entropy of mutually independent parts with declared ranks (modular)."""
    fixed = {s: Fraction(q) for s, q in ranks.items()}
    if any(q < 0 for q in fixed.values()):
        raise DomainError("ranks must be nonnegative")
    return SetFunctionOracle(
        tuple(fixed), lambda B: sum((fixed[s] for s in B), Fraction(0))
    )


@dataclass(frozen=True)
class CoverMeasure:
    """Sparse nonnegative set measure; only the support is stored."""

    ground: tuple[str, ...]
    values: Mapping[frozenset, Fraction]

    def __post_init__(self):
        gset = set(self.ground)
        clean = {}
        for B, q in self.values.items():
            q = Fraction(q)
            if q < 0:
                raise DomainError("measure values must be nonnegative")
            if not frozenset(B) <= gset:
                raise DomainError("support set outside the ground set")
            if q > 0:
                clean[frozenset(B)] = q
        object.__setattr__(self, "values", clean)

    def marginals(self) -> dict[str, Fraction]:
        out = {s: Fraction(0) for s in self.ground}
        for B, q in self.values.items():
            for s in B:
                out[s] += q
        return out

    def objective(self, oracle: SetFunctionOracle) -> Fraction:
        return sum((q * oracle(B) for B, q in self.values.items()), Fraction(0))

    def support(self) -> list[frozenset]:
        pos = {s: i for i, s in enumerate(self.ground)}
        return sorted(self.values, key=lambda B: sorted(pos[s] for s in B))


def greedy_mu(ground: Iterable[str], w: Mapping[str, Fraction]) -> CoverMeasure:
    """Chain optimum: prefixes of the descending-weight order.

    Ties break toward earlier ground positions, so the chain is a pure
    function of (ground order, w).
    """
    ground = tuple(ground)
    weights = {s: Fraction(w[s]) for s in ground}
    if set(w) != set(ground):
        raise DomainError("weights must cover exactly the ground set")
    if any(q < 0 for q in weights.values()):
        raise DomainError("weights must be nonnegative")
    order = sorted(ground, key=lambda s: (-weights[s], ground.index(s)))
    values: dict[frozenset, Fraction] = {}
    for j, s in enumerate(order):
        nxt = weights[order[j + 1]] if j + 1 < len(order) else Fraction(0)
        drop = weights[s] - nxt
        if drop > 0:
            values[frozenset(order[: j + 1])] = drop
    return CoverMeasure(ground, values)


def greedy_value(
    oracle: SetFunctionOracle, w: Mapping[str, Fraction], verify: bool = True
) -> Fraction:
    """Optimal covering-LP objective via the greedy chain."""
    if verify and not oracle.is_submodular():
        raise DomainError("oracle is not a normalized submodular function")
    return greedy_mu(oracle.ground, w).objective(oracle)


def _crossing(B1: frozenset, B2: frozenset) -> bool:
    return {B1, B2} != {B1 & B2, B1 | B2}


def laminate(oracle: SetFunctionOracle, mu: CoverMeasure) -> CoverMeasure:
    """Uncross the support until laminar; marginals exactly preserved.

    Each step moves delta = min of the two values from a crossing pair onto
    their intersection and union, which cannot raise the objective when f is
    submodular; a raised objective is reported as an inconsistency. The sum
    of mu(B)|B|^2 strictly grows on a bounded lattice, so this terminates.
    """
    values = dict(mu.values)
    before = mu.objective(oracle)
    marg = mu.marginals()
    while True:
        support = sorted(values, key=oracle.sort_key)
        pair = next(
            (
                (B1, B2)
                for B1, B2 in combinations(support, 2)
                if _crossing(B1, B2)
            ),
            None,
        )
        if pair is None:
            break
        B1, B2 = pair
        delta = min(values[B1], values[B2])
        for B in pair:
            values[B] -= delta
            if not values[B]:
                del values[B]
        for B in (B1 & B2, B1 | B2):
            values[B] = values.get(B, Fraction(0)) + delta
    out = CoverMeasure(mu.ground, values)
    if out.marginals() != marg:
        raise ConsistencyError("lamination changed the marginals")
    if out.objective(oracle) > before:
        raise ConsistencyError("lamination raised the objective; f is not submodular")
    return out


def _reverse_step(values: dict, rng: random.Random, pos: dict) -> None:
    """One randomized inverse lamination move; marginals preserved."""
    support = sorted(values, key=lambda B: sorted(pos[s] for s in B))
    nested = [
        (A, B)
        for A, B in combinations(support, 2)
        if (A < B or B < A) and len((A | B) - (A & B)) >= 2
    ]
    if not nested:
        return
    A, B = rng.choice(nested)
    if len(A) > len(B):
        A, B = B, A
    gap = sorted(B - A)
    k = rng.randint(1, len(gap) - 1)
    T = frozenset(rng.sample(gap, k))
    delta = min(values[A], values[B]) / rng.randint(1, 3)
    for S in (A, B):
        values[S] -= delta
        if not values[S]:
            del values[S]
    for S in (A | T, B - T):
        values[S] = values.get(S, Fraction(0)) + delta


def modular_constancy_check(
    oracle: SetFunctionOracle,
    w: Mapping[str, Fraction],
    trials: int = 20,
    seed: int = 0,
) -> bool:
    """Sample feasible measures and confirm the objective never moves.

    Only defined for modular oracles (checked); samples are random inverse
    lamination walks away from the greedy chain.
    """
    if not oracle.is_modular():
        raise DomainError("oracle is not modular")
    base = greedy_mu(oracle.ground, w)
    target = base.objective(oracle)
    marg = base.marginals()
    pos = {s: i for i, s in enumerate(oracle.ground)}
    rng = random.Random(seed)
    for _ in range(trials):
        values = dict(base.values)
        for _ in range(rng.randint(1, 4)):
            _reverse_step(values, rng, pos)
        sample = CoverMeasure(oracle.ground, values)
        if sample.marginals() != marg:
            raise ConsistencyError("inverse lamination changed the marginals")
        if sample.objective(oracle) != target:
            return False
    return True


GROUND_ZERO = "0"


def thm3_ground(source: HypergraphSource) -> tuple[str, ...]:
    """Tagged ground set: the auxiliary 0 element, then edges, then vertices."""
    edges = tuple(f"e:{e.id}" for e in sorted(source.edges, key=lambda e: e.id))
    verts = tuple(f"v:{v}" for v in source.vertices)
    return (GROUND_ZERO,) + edges + verts


def thm3_weights(
    source: HypergraphSource, P: Partition
) -> tuple[tuple[str, ...], dict[str, Fraction]]:
    """Weights that make the greedy chain reproduce the total-rate bound:

    w_0 = |P|, w_i = 1 per vertex, w_e = number of blocks edge e intersects.
    """
    if P.ground != source.vertex_set:
        raise DomainError("weights need a partition of the full vertex set")
    blocks = P.block_sets()
    weights: dict[str, Fraction] = {GROUND_ZERO: Fraction(len(P))}
    for e in source.edges:
        weights[f"e:{e.id}"] = Fraction(sum(1 for C in blocks if C & e.on))
    for v in source.vertices:
        weights[f"v:{v}"] = Fraction(1)
    return thm3_ground(source), weights
