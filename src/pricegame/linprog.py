"""Exact linear programming over the rationals.

A two-phase simplex used by the per-candidate leader optimization.  The LP
has one form: maximize c.x subject to rows a.x <= b and lower bounds
x_j >= l_j where given; every other variable is free.  LP data are Python
ints, and the solver works in integers from end to end.
It keeps a condensed dictionary (Chvatal, *Linear Programming*, 1983): each
row holds only the nonbasic columns and the rhs, as integers over one
common denominator, and pivots are fraction-free (Edmonds/Bareiss), so every
division is exact.  A basic slack or artificial takes no column: an LP with
m rows over n standard columns holds m * (n + g) integers, where g counts
the rows with rhs < 0 once the lower bounds are moved to zero, whose slacks
start nonbasic.  A pivot whose entry equals the current denominator (on 0/+-1
data, nearly every pivot) updates in place only the rows with a nonzero
entry in the pivot column, and in each only the columns where the pivot
row is nonzero; any other pivot rescales every row.  The witness is read
back as integers over that denominator ``d`` and checked in integer
arithmetic against every row (``a.(x d) <= b d``) and every lower bound.
Fractions are built only for the returned witness and value.  Pivot
selection follows Bland's rule, so with exact arithmetic the method always
terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd
from operator import mul, neg, sub
from types import MappingProxyType
from typing import Mapping

from .rational import require_ints


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to a.x <= b per row, x_j >= lower[j].

    A constraint is a pair (coefficients, rhs); a variable with no lower
    bound is free.  lower is a read-only copy of the mapping given.  num_vars
    and every coefficient, right-hand side and bound are ints; anything
    else, a bool, a float or a Fraction included, is a TypeError.
    """

    num_vars: int
    objective: tuple[int, ...]
    constraints: tuple[tuple[tuple[int, ...], int], ...]
    lower: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "lower", MappingProxyType(dict(self.lower)))
        require_ints((self.num_vars,), "num_vars")
        if self.num_vars < 1:
            raise ValueError("a linear program needs at least one variable")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        require_ints(self.objective, "objective coefficient")
        for i, row in enumerate(self.constraints):
            if len(row) != 2:
                raise ValueError(f"constraint {i}: a row is (coefficients, rhs)")
            if len(row[0]) != self.num_vars:
                raise ValueError(f"constraint {i}: coefficient vector has wrong length")
            require_ints(row[0], "constraint coefficient")
        require_ints([rhs for _, rhs in self.constraints], "right-hand side")
        for j in self.lower:
            if not 0 <= j < self.num_vars:
                raise ValueError(f"bound on unknown variable {j}")
        require_ints(self.lower.values(), "lower bound")


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    optimal_value: Fraction | None = None
    witness: tuple[Fraction, ...] | None = None


class _Dictionary:
    """Integer simplex dictionary in minimization form with Bland pivoting.

    Column k of every row and of the cost row belongs to nonbasic variable
    ``labels[k]``; the last entry is the rhs.  Basic variable ``basis[i]``
    has coefficient ``d`` in row i and 0 elsewhere, so it is not stored.
    The true entry is ``row[k] / d``, where ``d`` stays the absolute
    determinant of the current basis, so each update divides exactly.
    """

    def __init__(self, rows, basis, labels):
        self.rows = rows
        self.basis = basis
        self.labels = labels
        self.d = 1

    def pivot(self, r, k, cost=None):
        """Exchange basis[r] with labels[k], updating every row and the cost.

        Row i becomes (p * row_i - f * prow) / d, the Bareiss update, where
        prow is row r made positive at its pivot p = prow[k] by the sign s,
        and f is row i's entry in column k.  The cost row is updated as one
        more row, in place like every row.  Column k then holds the leaving
        variable, whose column was s*d in prow and 0 elsewhere, so its new
        entry in row i is -s*f.  The same update yields it while prow[k]
        holds p + s*d: (p*f - f*(p + s*d)) / d = -s*f.  prow itself is not
        updated; its entry in column k becomes s*d.

        When p == d, an entry where prow is 0 keeps its value, so a row
        changes only where prow is nonzero, and a row whose f is 0 does not
        change at all.  Otherwise every row is rescaled to the new
        denominator p.
        """
        rows = self.rows
        prow = rows[r]
        p = prow[k]
        s = 1
        if p < 0:
            prow = list(map(neg, prow))
            p, s = -p, -1
        d = self.d
        if cost is not None:
            rows.append(cost)
        column = [row[k] for row in rows]
        column[r] = 0  # the pivot row is not updated
        prow[k] = p + s * d
        if p == d:
            changed = list(compress(count(), prow))
            for i in compress(count(), column):
                f, row = column[i], rows[i]
                if d == 1:
                    for j in changed:
                        row[j] -= f * prow[j]
                else:
                    for j in changed:
                        row[j] -= f * prow[j] // d  # exact: d divides f * prow[j]
        else:
            for i in chain(range(r), range(r + 1, len(rows))):
                f, row = column[i], rows[i]
                row[:] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        if cost is not None:
            rows.pop()
        prow[k] = s * d
        rows[r] = prow
        self.basis[r], self.labels[k] = self.labels[k], self.basis[r]
        self.d = p

    def run(self, cost):
        """Minimize cost (one entry per column, cost[-1] holds -value).

        The cost row is stored over the dictionary's denominator like every
        row.  Returns "optimal" or "unbounded"; mutates cost in place.
        """
        rows, basis, labels = self.rows, self.basis, self.labels
        while True:
            # Bland: the lowest label with a negative reduced cost (zip
            # stops before cost[-1], the value).
            label = min([v for v, c in zip(labels, cost) if c < 0], default=None)
            if label is None:
                return "optimal"
            k = labels.index(label)
            leaving = -1
            for i, row in enumerate(rows):
                a = row[k]
                if a <= 0:
                    continue
                rhs = row[-1]
                if leaving >= 0:
                    # rhs/a against the best ratio, cross-multiplied (both
                    # a > 0); a tie goes to the lower basic label.
                    mine, theirs = rhs * best_a, best_rhs * a
                    if mine > theirs or (mine == theirs and basis[i] > basis[leaving]):
                        continue
                leaving, best_a, best_rhs = i, a, rhs
            if leaving < 0:
                return "unbounded"
            self.pivot(leaving, k, cost)


def _standardize(lp: LinearProgram):
    """Rewrite the constraints over nonnegative standard columns u.

    Returns (plan, offsets, std_rows): plan[col] is the (variable, sign) of
    standard column col, and original variable j equals offsets[j] plus the
    signed sum of its columns.  Each std row is (coefficients over u, rhs):
    the original row shifted by the lower bounds, with rhs >= 0 still to be
    arranged by the caller.
    """
    # A variable with a lower bound is one column of sign +1 above it; a
    # free variable is the difference of two columns.
    plan = [(j, sign) for j in range(lp.num_vars)
            for sign in ((1,) if j in lp.lower else (1, -1))]
    offsets = [lp.lower.get(j, 0) for j in range(lp.num_vars)]

    # When every variable has a lower bound, a row's standard coefficients
    # are its own.
    identity = len(lp.lower) == lp.num_vars
    shifts = [(j, o) for j, o in lp.lower.items() if o]
    std_rows = []
    for coeffs, rhs in lp.constraints:
        for j, o in shifts:
            rhs -= coeffs[j] * o
        if not identity:
            coeffs = [sign * coeffs[j] for j, sign in plan]
        std_rows.append((coeffs, rhs))
    return plan, offsets, std_rows


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of an integer LP, with status and witness point."""
    plan, offsets, std_rows = _standardize(lp)
    nstd = len(plan)

    # Variable labels: the standard columns, then one slack per row, then
    # one artificial per row with rhs < 0, each in row order.  With rhs made
    # nonnegative, a slack with coefficient +1 starts basic; otherwise an
    # artificial does, and the slack, now with coefficient -1, starts as a
    # stored nonbasic column.
    ncols = nstd + len(std_rows)
    zeros = [0] * sum(rhs < 0 for _, rhs in std_rows)
    labels = list(range(nstd))
    rows, basis = [], []
    artificial = ncols
    for slack, (coeffs, rhs) in enumerate(std_rows, start=nstd):
        row = [*coeffs, *zeros, rhs]
        if rhs < 0:
            # Phase 1 sums these rows, so each is taken at its primitive
            # scale: a row scaled by a positive integer keeps the pivot path.
            row = list(map(neg, row))
            g = gcd(*row)
            if g > 1:
                row = [a // g for a in row]
            row[len(labels)] = -1
            labels.append(slack)
            basis.append(artificial)
            artificial += 1
        else:
            basis.append(slack)
        rows.append(row)

    dic = _Dictionary(rows, basis, labels)
    if artificial > ncols:
        # Phase 1: minimize the sum of the artificials, priced out against
        # the rows they start basic in.
        cost = [0] * len(rows[0])
        for i, b in enumerate(basis):
            if b >= ncols:
                cost = list(map(sub, cost, rows[i]))
        if dic.run(cost) != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        if cost[-1] != 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        # Drive leftover artificials out of the basis on the lowest real
        # label, then drop every artificial column.  An artificial's row
        # always has a nonzero real entry: every row keeps its slack, so
        # B^-1 [A | +-I] has full row rank and no row is redundant.
        for i, b in enumerate(dic.basis):
            if b >= ncols:
                row = dic.rows[i]
                _, k = min((v, k) for k, v in enumerate(labels) if v < ncols and row[k])
                dic.pivot(i, k)
        real = [k for k, v in enumerate(labels) if v < ncols]
        dic.rows = [[row[k] for k in real] + [row[-1]] for row in dic.rows]
        dic.labels = labels = [labels[k] for k in real]
    # Phase 2: minimize the negated objective over the standard columns,
    # priced out against the basis.
    objective = [-sign * lp.objective[j] for j, sign in plan] + [0] * len(std_rows)
    cost = [dic.d * objective[v] for v in labels] + [0]
    for i, b in enumerate(dic.basis):
        factor = objective[b]
        if factor != 0:
            cost = [c - factor * v for c, v in zip(cost, dic.rows[i])]
    if dic.run(cost) == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)

    # The witness over the dictionary's denominator d: variable j is
    # scaled[j] / d, where the standard column of basic row i is rhs_i / d.
    d = dic.d
    scaled = [offset * d for offset in offsets]
    for i, b in enumerate(dic.basis):
        if b < nstd:
            j, sign = plan[b]
            scaled[j] += sign * dic.rows[i][-1]
    _check_witness(lp, scaled, d)
    value = Fraction(sum(map(mul, lp.objective, scaled)), d)
    witness = tuple([Fraction(x, d) for x in scaled])
    return LpOutcome(LpStatus.OPTIMAL, value, witness)


def _check_witness(lp: LinearProgram, scaled, d: int) -> None:
    """Raise unless the point scaled / d meets every row and lower bound of lp.

    A row a.x <= b is checked as a.scaled <= b * d, all in integers.
    """
    for coeffs, rhs in lp.constraints:
        if sum(map(mul, coeffs, scaled)) > rhs * d:
            raise RuntimeError("simplex produced a witness violating a constraint")
    for j, lo in lp.lower.items():
        if scaled[j] < lo * d:
            raise RuntimeError("simplex witness violates a lower bound")
