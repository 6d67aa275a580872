"""Exact linear programming over the rationals.

A small two-phase simplex used by the per-candidate leader optimization.
Variables are free unless bounds are given; constraints may be <=, >= or =.
LP data are Python ints or Fractions, and the solver works in integers
from end to end: each row is scaled to integers by the lcm of its
denominators (an int has denominator 1, so integral data is not scaled),
the tableau holds Python integers over one common denominator, and pivots
are fraction-free (Edmonds/Bareiss), so every division is exact.  The
witness is read back as integers over a common denominator ``D`` and
checked in integer arithmetic against every constraint (``a.(x D) <= b D``)
and every bound.  Fractions are built only for the returned witness and
value.  Pivot selection follows Bland's rule, so with exact arithmetic the
method always terminates.

Not built for scale: instances here have a handful of variables and at most
a few hundred constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import add, mul, neg, sub
from typing import Sequence

Relation = str  # "<=", ">=", "="

_RELATIONS = ("<=", ">=", "=")
_EXACT_TYPES = frozenset({int, Fraction})


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _require_exact(values, what: str) -> None:
    """Raise TypeError unless every value is an int (not a bool) or a Fraction."""
    if _EXACT_TYPES.issuperset(map(type, values)):
        return
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise TypeError(f"{what} {v!r} is not an int or a Fraction")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to constraints and optional bounds.

    Every coefficient, right-hand side and bound is an int or a Fraction;
    ``make_lp`` coerces other numbers.
    """

    num_vars: int
    objective: tuple[int | Fraction, ...]
    constraints: tuple[tuple[tuple[int | Fraction, ...], Relation, int | Fraction], ...]
    lower: dict[int, int | Fraction] = field(default_factory=dict)
    upper: dict[int, int | Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("a linear program needs at least one variable")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        _require_exact(self.objective, "objective coefficient")
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != self.num_vars:
                raise ValueError("constraint coefficient vector has wrong length")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            _require_exact(coeffs, "constraint coefficient")
        _require_exact([rhs for _, _, rhs in self.constraints], "right-hand side")
        for j in set(self.lower) | set(self.upper):
            if not 0 <= j < self.num_vars:
                raise ValueError(f"bound on unknown variable {j}")
        _require_exact(self.lower.values(), "lower bound")
        _require_exact(self.upper.values(), "upper bound")
        for j, lo in self.lower.items():
            up = self.upper.get(j)
            if up is not None and lo > up:
                raise ValueError(f"variable {j} has lower bound above upper bound")


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    optimal_value: Fraction | None = None
    witness: tuple[Fraction, ...] | None = None


def make_lp(objective: Sequence, constraints: Sequence, lower=None, upper=None) -> LinearProgram:
    """Convenience constructor coercing all numeric data to Fraction."""
    # Tuples are built from lists, at their final length.  tuple() of a
    # generator starts at a guessed length and is resized, so each one moves
    # a free tuple of CPython's from one size class to another; over many
    # thousand solves that grew the free lists by megabytes.
    obj = tuple([Fraction(c) for c in objective])
    rows = tuple([
        (tuple([Fraction(a) for a in coeffs]), rel, Fraction(rhs))
        for coeffs, rel, rhs in constraints
    ])
    lo = {j: Fraction(v) for j, v in (lower or {}).items()}
    up = {j: Fraction(v) for j, v in (upper or {}).items()}
    return LinearProgram(len(obj), obj, rows, lo, up)


class _Tableau:
    """Dense integer simplex tableau in minimization form with Bland pivoting.

    Every entry is stored as an integer over one positive common denominator
    ``d``: the true entry is ``row[j] / d``.  Pivoting is fraction-free
    (Edmonds/Bareiss): ``d`` stays the absolute determinant of the current
    basis, so each update divides exactly.
    """

    def __init__(self, rows, basis, ncols):
        self.rows = rows          # each row: list of ncols int coefficients + rhs
        self.basis = basis        # basic variable index per row
        self.ncols = ncols
        self.d = 1

    def pivot(self, r, j, cost=None):
        """Pivot on (r, j), updating every row and, if given, the cost row."""
        prow = self.rows[r]
        p = prow[j]
        if p < 0:
            prow = self.rows[r] = list(map(neg, prow))
            p = -p
        d = self.d
        for i, row in enumerate(self.rows):
            if i != r:
                self.rows[i] = _eliminate(row, prow, p, d, j)
        if cost is not None:
            cost[:] = _eliminate(cost, prow, p, d, j)
        self.basis[r] = j
        self.d = p

    def run(self, cost):
        """Minimize cost (coefficients over columns, cost[-1] holds -value).

        The cost row is stored over the tableau's denominator like every row.
        Returns "optimal" or "unbounded"; mutates cost in place.
        """
        while True:
            entering = -1
            for j in range(self.ncols):
                if cost[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leaving = -1
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a <= 0:
                    continue
                if leaving < 0:
                    leaving = i
                    continue
                # rhs/a against the best ratio, cross-multiplied (both a > 0).
                best = self.rows[leaving]
                mine, theirs = row[-1] * best[entering], best[-1] * a
                if mine < theirs or (
                    mine == theirs and self.basis[i] < self.basis[leaving]
                ):
                    leaving = i
            if leaving < 0:
                return "unbounded"
            self.pivot(leaving, entering, cost)


def _eliminate(row, prow, p, d, j):
    """Bareiss update of one row against the pivot row prow (pivot p at j)."""
    f = row[j]
    if f == 0:
        if p == d:
            return row
        return [p * a // d for a in row]
    if d == 1:
        if p == 1:
            # The most common update on 0/+-1 data: a plain row sum.
            if f == 1:
                return list(map(sub, row, prow))
            if f == -1:
                return list(map(add, row, prow))
        return [p * a - f * b for a, b in zip(row, prow)]
    return [(p * a - f * b) // d for a, b in zip(row, prow)]


def _integer_row(values) -> tuple[int, list[int]]:
    """Scale ints and Fractions by the lcm of their denominators; return (lcm, ints)."""
    scale = lcm(*[v.denominator for v in values])
    if scale == 1:
        return 1, [v.numerator for v in values]
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _integer_rows(lp: LinearProgram) -> list[tuple[int, list[int], Relation]]:
    """Each constraint as (scale, integer coefficients then rhs, relation)."""
    return [(*_integer_row([*coeffs, rhs]), rel) for coeffs, rel, rhs in lp.constraints]


def _standardize(lp: LinearProgram, rows):
    """Rewrite integer rows over nonnegative standard columns u.

    Returns (plan, offsets, den, std_rows): plan[col] is the (variable,
    sign) of standard column col, and original variable j equals
    offsets[j] / den plus the signed sum of its columns, with integer
    offsets over the lcm ``den`` of their denominators.  Each std row is
    (integer coefficients over u, relation, integer rhs, scale): the
    original constraint multiplied by the positive scale, with rhs >= 0
    still to be arranged by the caller.
    """
    plan: list[tuple[int, int]] = []
    offsets = []
    box = []
    for j in range(lp.num_vars):
        lo = lp.lower.get(j)
        up = lp.upper.get(j)
        if lo is not None:
            plan.append((j, 1))
            offsets.append(lo)
            if up is not None:
                box.append((len(plan) - 1, up - lo))
        elif up is not None:
            plan.append((j, -1))
            offsets.append(up)
        else:
            plan += [(j, 1), (j, -1)]
            offsets.append(0)
    den, offsets = _integer_row(offsets)

    # Multiplying a row by den keeps it integral after the offsets shift it.
    unit = [(j, sign * den) for j, sign in plan]
    shifts = [(j, o) for j, o in enumerate(offsets) if o]
    std_rows = []
    for scale, ints, rel in rows:
        rhs = ints[-1] * den
        for j, o in shifts:
            rhs -= ints[j] * o
        std_rows.append(([f * ints[j] for j, f in unit], rel, rhs, scale * den))
    for col, width in box:
        scale, (a, rhs) = _integer_row([1, width])
        coeffs = [0] * len(plan)
        coeffs[col] = a
        std_rows.append((coeffs, "<=", rhs, scale))
    return plan, offsets, den, std_rows


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of a rational LP, with status and witness point."""
    int_rows = _integer_rows(lp)
    plan, offsets, den, std_rows = _standardize(lp, int_rows)
    m = len(std_rows)
    nstd = len(plan)

    # Equality rows with slack or surplus columns, rhs made nonnegative.  A
    # row's slack keeps coefficient +-1 whatever the row's scale, which only
    # rescales that column.
    nslack = sum(1 for _, rel, _, _ in std_rows if rel != "=")
    ncols = nstd + nslack
    rows = []
    row_scale = []
    slack_col = nstd
    slack_of_row = []
    for coeffs, rel, rhs, scale in std_rows:
        row = coeffs + [0] * nslack + [rhs]
        if rel == "<=":
            row[slack_col] = 1
            slack_of_row.append(slack_col)
            slack_col += 1
        elif rel == ">=":
            row[slack_col] = -1
            slack_of_row.append(slack_col)
            slack_col += 1
        else:
            slack_of_row.append(-1)
        if rhs < 0:
            row = list(map(neg, row))
        rows.append(row)
        row_scale.append(scale)

    # Initial basis: a slack column with coefficient +1, else an artificial.
    basis = [-1] * m
    artificial_rows = []
    for i, row in enumerate(rows):
        s = slack_of_row[i]
        if s >= 0 and row[s] == 1:
            basis[i] = s
        else:
            artificial_rows.append(i)
    nart = len(artificial_rows)
    total = ncols + nart
    if nart:
        for row in rows:
            row[ncols:ncols] = [0] * nart
    for k, i in enumerate(artificial_rows):
        rows[i][ncols + k] = 1
        basis[i] = ncols + k

    tab = _Tableau(rows, basis, total)

    if nart:
        # Phase 1: minimize the sum of the unscaled rows' artificials.  A row
        # scaled by s has an artificial worth s of them, so it is weighted
        # lcm / s: the objective stays a positive multiple of the unscaled
        # one, and the pivot path does not change.
        weight = lcm(*[row_scale[i] for i in artificial_rows])
        cost = [0] * (total + 1)
        for k, i in enumerate(artificial_rows):
            w = weight // row_scale[i]
            cost[ncols + k] = w
            cost = [c - w * v for c, v in zip(cost, tab.rows[i])]
        outcome = tab.run(cost)
        if outcome != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        if cost[-1] != 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(len(tab.rows)):
            if tab.basis[i] < ncols:
                keep.append(i)
                continue
            pivot_col = next(
                (j for j in range(ncols) if tab.rows[i][j] != 0), None
            )
            if pivot_col is None:
                continue  # redundant constraint
            tab.pivot(i, pivot_col)
            keep.append(i)
        tab.rows = [tab.rows[i][:ncols] + [tab.rows[i][-1]] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]
        tab.ncols = ncols
    # Phase 2: minimize the negated objective, scaled to integers, over the
    # standard columns, priced out against the basis.
    obj_scale, obj_ints = _integer_row(lp.objective)
    objective = [-sign * obj_ints[j] for j, sign in plan] + [0] * nslack
    cost = [tab.d * c for c in objective] + [0]
    # Basic columns are unit columns, so each basic row is subtracted once,
    # times the objective coefficient of its basic variable.
    for i, b in enumerate(tab.basis):
        factor = objective[b]
        if factor != 0:
            cost = [c - factor * v for c, v in zip(cost, tab.rows[i])]
    outcome = tab.run(cost)
    if outcome == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)

    # The witness over the common denominator D = den * d: variable j is
    # scaled[j] / D, where the standard column of basic row i is rhs_i / d.
    d = tab.d
    std_values = [0] * ncols
    for i, b in enumerate(tab.basis):
        std_values[b] = tab.rows[i][-1]
    totals = [0] * lp.num_vars
    for (j, sign), u in zip(plan, std_values):
        totals[j] += sign * u
    scaled = [offset * d + den * t for offset, t in zip(offsets, totals)]
    common = den * d
    _check_witness(lp, int_rows, scaled, common)
    value = Fraction(sum(map(mul, obj_ints, scaled)), obj_scale * common)
    witness = tuple([Fraction(x, common) for x in scaled])
    return LpOutcome(LpStatus.OPTIMAL, value, witness)


def _check_witness(lp: LinearProgram, int_rows, scaled, common: int) -> None:
    """Raise unless the point scaled / common meets every row and bound of lp.

    int_rows are the constraints as integers (``_integer_rows``), each a
    positive multiple of the original, so a row a.x <= b is checked as
    a.scaled <= b * common, all in integers.
    """
    for _, ints, rel in int_rows:
        lhs = sum(map(mul, ints, scaled))
        rhs = ints[-1] * common
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            raise RuntimeError("simplex produced a witness violating a constraint")
    for j, lo in lp.lower.items():
        if scaled[j] * lo.denominator < lo.numerator * common:
            raise RuntimeError("simplex witness violates a lower bound")
    for j, up in lp.upper.items():
        if scaled[j] * up.denominator > up.numerator * common:
            raise RuntimeError("simplex witness violates an upper bound")
