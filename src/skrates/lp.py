"""Dense exact-rational simplex.

Two-phase tableau method over fractions.Fraction with Bland's anti-cycling
rule (smallest eligible column enters; ties on the ratio test break toward
the smallest basic variable index), so the pivot sequence is a deterministic
function of the input. All variables are nonnegative; relations are "<=",
">=", "==". No floating point anywhere. Phase 1 runs only when some row
needs an artificial variable: a ">=" row with rhs 0 is negated to "<= 0", so
its slack starts basic.

Degenerate optima: with lex=True (the default) the returned point is the
lexicographically smallest optimal point. It is found on the phase-2
tableau: the optimal face is the set of feasible points where every column
with positive reduced cost stays 0, so minimizing x_0, x_1, ... in turn over
the columns still on the face, and dropping those whose reduced cost turns
positive after each step, narrows the face to that point. A nonbasic x_j is
already at its least value, 0, and only leaves the face. The point is an
extreme point of the feasible region, so it is still a basic solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Row = tuple[Fraction, ...]
RELATIONS = ("<=", ">=", "==")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """An LP over x >= 0; every entry is normalized to a Fraction."""

    objective: Row
    sense: str  # "min" | "max"
    constraints: tuple[tuple[Row, str, Fraction], ...]

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise DomainError(f"bad sense {self.sense!r}")
        objective = tuple(Fraction(c) for c in self.objective)
        constraints = tuple(
            (tuple(Fraction(a) for a in row), rel, Fraction(rhs))
            for row, rel, rhs in self.constraints
        )
        for row, rel, _ in constraints:
            if len(row) != len(objective):
                raise DomainError("constraint row length does not match objective")
            if rel not in RELATIONS:
                raise DomainError(f"bad relation {rel!r}")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", constraints)

    @classmethod
    def of(cls, objective, sense, constraints) -> "LinearProgram":
        return cls(objective, sense, constraints)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Fraction | None
    point: tuple[Fraction, ...] | None


def _pivot(rows, cost, basis, r, c):
    prow = rows[r]
    piv = prow[c]
    if piv != 1:
        prow = [x / piv for x in prow]
        rows[r] = prow
    nonzero = [j for j, y in enumerate(prow) if y]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            for j in nonzero:
                row[j] -= f * prow[j]
    if cost[c]:
        f = cost[c]
        for j in nonzero:
            cost[j] -= f * prow[j]
    basis[r] = c


def _price(cost, rows, basis):
    """Reduced costs: cost minus the multiples of the rows that zero it on the basis."""
    for row, b in zip(rows, basis):
        if cost[b]:
            f = cost[b]
            cost = [x - f * y for x, y in zip(cost, row)]
    return cost


def _run_simplex(rows, cost, basis, allowed):
    """Minimize until no allowed column has negative reduced cost; Bland's rule.

    `allowed` lists the columns that may enter, ascending; the others stay at 0.
    """
    while True:
        enter = next((j for j in allowed if cost[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return UNBOUNDED
        _pivot(rows, cost, basis, leave, enter)


def solve(lp: LinearProgram, lex: bool = True) -> LpSolution:
    """Solve the LP; see module docstring for determinism guarantees."""
    n = len(lp.objective)
    norm = []
    for row, rel, rhs in lp.constraints:
        if rhs < 0 or (rhs == 0 and rel == ">="):
            row = [-a for a in row]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((row, rel, rhs))

    nslack = sum(1 for _, rel, _ in norm if rel != "==")
    nart = sum(1 for _, rel, _ in norm if rel != "<=")
    ncols = n + nslack
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    s = n
    a = ncols
    for row, rel, rhs in norm:
        full = list(row) + [Fraction(0)] * (nslack + nart) + [rhs]
        if rel != "==":
            full[s] = Fraction(1 if rel == "<=" else -1)
            s += 1
        if rel == "<=":
            basis.append(s - 1)
        else:
            full[a] = Fraction(1)
            basis.append(a)
            a += 1
        rows.append(full)

    if nart:
        cost = [Fraction(0)] * ncols + [Fraction(1)] * nart + [Fraction(0)]
        cost = _price(cost, rows, basis)
        _run_simplex(rows, cost, basis, range(ncols + nart))
        if cost[-1] != 0:
            return LpSolution(INFEASIBLE, None, None)
        keep = []
        for i in range(len(rows)):
            if basis[i] >= ncols:
                piv = next((j for j in range(ncols) if rows[i][j] != 0), None)
                if piv is None:
                    continue  # redundant constraint row
                _pivot(rows, cost, basis, i, piv)
            keep.append(i)
        rows = [rows[i][:ncols] + [rows[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    sign = -1 if lp.sense == "max" else 1
    cost = [sign * c for c in lp.objective] + [Fraction(0)] * (nslack + 1)
    cost = _price(cost, rows, basis)
    if _run_simplex(rows, cost, basis, range(ncols)) == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)
    value = -sign * cost[-1]

    if lex:
        face = [j for j in range(ncols) if cost[j] == 0]
        for j in range(n):
            if j in basis:
                unit = [Fraction(int(k == j)) for k in range(ncols + 1)]
                cost = _price(unit, rows, basis)
                _run_simplex(rows, cost, basis, face)
                face = [k for k in face if cost[k] == 0]
            else:
                face = [k for k in face if k != j]
    point = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            point[b] = row[-1]
    return LpSolution(OPTIMAL, value, tuple(point))
