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

A Tableau holds the rows, each ending in its rhs, their basic columns, and
the reduced costs, whose rhs entry is minus the minimized sign * objective.
With lex=False solve returns its final tableau, and Tableau.raise_rhs reads
the optimal values for higher rhs values of one "<=" row off it by dual-simplex
pivots (right-hand-side ranging; Chvatal, Linear Programming, 1983).
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
    tableau: Tableau | None = None  # the final tableau of an optimal solve with lex=False


class Tableau:
    """The simplex tableau that the pivots share; see the module docstring."""

    def __init__(self, rows, basis, sign):
        self.rows, self.cost, self.basis, self.sign = rows, None, basis, sign

    def raise_rhs(self, s: int, rhs: Fraction, values: list[Fraction]) -> list[Fraction]:
        """Optimal values with a "<=" row's rhs, now rhs, raised to each of values, ascending.

        s is the row's slack column. On a fixed basis the rhs column, cost entry
        included, moves by (b - rhs) times column s until a row with row[s] < 0
        reaches rhs 0 (Bland's ratio test on -column s); a dual-simplex pivot
        then makes basic the column j with row[j] < 0 of least cost[j] / -row[j],
        ties to the smallest j (Bland's rule for the dual simplex: no cycling).
        Column s is one such j, so the LP stays feasible, as a relaxed row must.
        """
        out = []
        while True:  # one pass per basis: the value is base + b * slope for b up to stop
            room, _, leave = _ratio_test(self, [-row[s] for row in self.rows])
            slope = -self.sign * self.cost[s]
            base = -self.sign * self.cost[-1] - rhs * slope
            stop = None if leave is None else rhs + room
            for b in values[len(out):]:
                if stop is not None and b > stop:
                    break
                out.append(base + b * slope)
            else:
                return out
            for row in self.rows + [self.cost]:
                row[-1] += room * row[s]
            rhs = stop
            row = self.rows[leave]
            below = [j for j in range(len(row) - 1) if row[j] < 0]
            _pivot(self, leave, min(below, key=lambda j: self.cost[j] / -row[j]))


def _pivot(t, r, c):
    prow = t.rows[r]
    piv = prow[c]
    if piv != 1:
        prow = [x / piv for x in prow]
        t.rows[r] = prow
    nonzero = [j for j, y in enumerate(prow) if y]
    for row in t.rows + [t.cost]:
        if row is not prow and row[c]:
            f = row[c]
            for j in nonzero:
                row[j] -= f * prow[j]
    t.basis[r] = c


def _price(t, cost):
    """Set the cost row to `cost` minus the multiples of the rows that zero it on the basis."""
    for row, b in zip(t.rows, t.basis):
        if cost[b]:
            f = cost[b]
            cost = [x - f * y for x, y in zip(cost, row)]
    t.cost = cost


def _ratio_test(t, column):
    """The least (rhs / column[i], basic column, i) over rows i with column[i] > 0: Bland's rule."""
    pairs = zip(t.rows, column)
    ratios = [(row[-1] / a, t.basis[i], i) for i, (row, a) in enumerate(pairs) if a > 0]
    return min(ratios, default=(None, None, None))


def _run_simplex(t, allowed):
    """Minimize until no allowed column has negative reduced cost; Bland's rule.

    `allowed` lists the columns that may enter, ascending; the others stay at 0.
    """
    cost = t.cost
    while True:
        enter = next((j for j in allowed if cost[j] < 0), None)
        if enter is None:
            return OPTIMAL
        _, _, leave = _ratio_test(t, [row[enter] for row in t.rows])
        if leave is None:
            return UNBOUNDED
        _pivot(t, leave, enter)


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

    t = Tableau(rows, basis, -1 if lp.sense == "max" else 1)
    if nart:
        _price(t, [Fraction(0)] * ncols + [Fraction(1)] * nart + [Fraction(0)])
        _run_simplex(t, range(ncols + nart))
        if t.cost[-1] != 0:
            return LpSolution(INFEASIBLE, None, None)
        keep = []
        for i in range(len(rows)):
            if basis[i] >= ncols:
                piv = next((j for j in range(ncols) if rows[i][j] != 0), None)
                if piv is None:
                    continue  # redundant constraint row
                _pivot(t, i, piv)
            keep.append(i)
        t.rows = rows = [rows[i][:ncols] + [rows[i][-1]] for i in keep]
        t.basis = basis = [basis[i] for i in keep]

    _price(t, [t.sign * c for c in lp.objective] + [Fraction(0)] * (nslack + 1))
    if _run_simplex(t, range(ncols)) == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)
    value = -t.sign * t.cost[-1]

    if lex:
        face = [j for j in range(ncols) if t.cost[j] == 0]
        for j in range(n):
            if j in basis:
                _price(t, [Fraction(int(k == j)) for k in range(ncols + 1)])
                _run_simplex(t, face)
                face = [k for k in face if t.cost[k] == 0]
            else:
                face = [k for k in face if k != j]
    point = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            point[b] = row[-1]
    return LpSolution(OPTIMAL, value, tuple(point), None if lex else t)
