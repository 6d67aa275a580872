"""Exact linear programming over the rationals.

A small two-phase simplex used by the per-candidate leader optimization.
Variables are free unless bounds are given; constraints may be <=, >= or =.
LP data are Python ints, and the solver works in integers from end to end:
the tableau holds Python integers over one common denominator, and pivots
are fraction-free (Edmonds/Bareiss), so every division is exact.  The
witness is read back as integers over that denominator ``d`` and checked
in integer arithmetic against every constraint (``a.(x d) <= b d``) and
every bound.  Fractions are built only for the returned witness and value.
Pivot selection follows Bland's rule, so with exact arithmetic the method
always terminates.

Not built for scale: instances here have a handful of variables and at most
a few hundred constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import add, mul, neg, sub

Relation = str  # "<=", ">=", "="

_RELATIONS = ("<=", ">=", "=")
_INT = frozenset({int})


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _require_exact(values, what: str) -> None:
    """Raise TypeError unless every value is an int (not a bool)."""
    if _INT.issuperset(map(type, values)):
        return
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"{what} {v!r} is not an int")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to constraints and optional bounds.

    Every coefficient, right-hand side and bound is an int; anything else,
    a Fraction included, is a TypeError.
    """

    num_vars: int
    objective: tuple[int, ...]
    constraints: tuple[tuple[tuple[int, ...], Relation, int], ...]
    lower: dict[int, int] = field(default_factory=dict)
    upper: dict[int, int] = field(default_factory=dict)

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


def _standardize(lp: LinearProgram):
    """Rewrite the constraints over nonnegative standard columns u.

    Returns (plan, offsets, std_rows): plan[col] is the (variable, sign) of
    standard column col, and original variable j equals offsets[j] plus the
    signed sum of its columns.  Each std row is (coefficients over u,
    relation, rhs): the original constraint shifted by the offsets, with
    rhs >= 0 still to be arranged by the caller.
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

    shifts = [(j, o) for j, o in enumerate(offsets) if o]
    std_rows = []
    for coeffs, rel, rhs in lp.constraints:
        for j, o in shifts:
            rhs -= coeffs[j] * o
        std_rows.append(([sign * coeffs[j] for j, sign in plan], rel, rhs))
    for col, width in box:
        coeffs = [0] * len(plan)
        coeffs[col] = 1
        std_rows.append((coeffs, "<=", width))
    return plan, offsets, std_rows


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of an integer LP, with status and witness point."""
    plan, offsets, std_rows = _standardize(lp)
    m = len(std_rows)
    nstd = len(plan)

    # Equality rows with slack or surplus columns, rhs made nonnegative.
    nslack = sum(1 for _, rel, _ in std_rows if rel != "=")
    ncols = nstd + nslack
    rows = []
    slack_col = nstd
    slack_of_row = []
    for coeffs, rel, rhs in std_rows:
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
        # Phase 1: minimize the sum of the artificials, priced out against
        # the rows they start basic in.
        cost = [0] * (total + 1)
        for k, i in enumerate(artificial_rows):
            cost[ncols + k] = 1
            cost = list(map(sub, cost, tab.rows[i]))
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
    # Phase 2: minimize the negated objective over the standard columns,
    # priced out against the basis.
    objective = [-sign * lp.objective[j] for j, sign in plan] + [0] * nslack
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

    # The witness over the tableau's denominator d: variable j is
    # scaled[j] / d, where the standard column of basic row i is rhs_i / d.
    d = tab.d
    std_values = [0] * ncols
    for i, b in enumerate(tab.basis):
        std_values[b] = tab.rows[i][-1]
    totals = [0] * lp.num_vars
    for (j, sign), u in zip(plan, std_values):
        totals[j] += sign * u
    scaled = [offset * d + t for offset, t in zip(offsets, totals)]
    _check_witness(lp, scaled, d)
    value = Fraction(sum(map(mul, lp.objective, scaled)), d)
    witness = tuple([Fraction(x, d) for x in scaled])
    return LpOutcome(LpStatus.OPTIMAL, value, witness)


def _check_witness(lp: LinearProgram, scaled, d: int) -> None:
    """Raise unless the point scaled / d meets every row and bound of lp.

    A row a.x <= b is checked as a.scaled <= b * d, all in integers.
    """
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum(map(mul, coeffs, scaled))
        rhs *= d
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            raise RuntimeError("simplex produced a witness violating a constraint")
    for j, lo in lp.lower.items():
        if scaled[j] < lo * d:
            raise RuntimeError("simplex witness violates a lower bound")
    for j, up in lp.upper.items():
        if scaled[j] > up * d:
            raise RuntimeError("simplex witness violates an upper bound")
