"""Exact linear programming over the rationals.

A small two-phase simplex used by the per-candidate leader optimization.
Variables are free unless bounds are given; constraints may be <=, >= or =.
The tableau holds Python integers over one common denominator: each row is
scaled to integers by the lcm of its denominators, and pivots are
fraction-free (Edmonds/Bareiss), so every division is exact.  The witness
is read back as Fractions and checked against every constraint and bound in
Fraction arithmetic.  Pivot selection follows Bland's rule, so with exact
arithmetic the method always terminates.

Not built for scale: instances here have a handful of variables and at most
a few hundred constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

Relation = str  # "<=", ">=", "="

_RELATIONS = ("<=", ">=", "=")


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to constraints and optional bounds."""

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Relation, Fraction], ...]
    lower: dict[int, Fraction] = field(default_factory=dict)
    upper: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("a linear program needs at least one variable")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != self.num_vars:
                raise ValueError("constraint coefficient vector has wrong length")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        for j in set(self.lower) | set(self.upper):
            if not 0 <= j < self.num_vars:
                raise ValueError(f"bound on unknown variable {j}")
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


ZERO = Fraction(0)
ONE = Fraction(1)


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
            prow = self.rows[r] = [-v for v in prow]
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
        return [p * a - f * b for a, b in zip(row, prow)]
    return [(p * a - f * b) // d for a, b in zip(row, prow)]


def _integer_row(values) -> tuple[int, list[int]]:
    """Scale Fractions by the lcm of their denominators; return (lcm, ints)."""
    scale = lcm(*[v.denominator for v in values])
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _standardize(lp: LinearProgram):
    """Rewrite into min-form standard data with nonnegative variables.

    Returns (columns_per_var, offsets, rows) where original variable j equals
    offsets[j] + sum(sign * u[k] for k, sign in columns_per_var[j]) and every
    row is (coeffs over u, rhs) understood as an equality with rhs >= 0 still
    to be arranged by the caller.
    """
    col_map: list[list[tuple[int, int]]] = []
    offsets: list[Fraction] = []
    extra_rows = []
    next_col = 0
    for j in range(lp.num_vars):
        lo = lp.lower.get(j)
        up = lp.upper.get(j)
        if lo is not None:
            col_map.append([(next_col, 1)])
            offsets.append(lo)
            if up is not None:
                extra_rows.append(({next_col: ONE}, "<=", up - lo))
            next_col += 1
        elif up is not None:
            col_map.append([(next_col, -1)])
            offsets.append(up)
            next_col += 1
        else:
            col_map.append([(next_col, 1), (next_col + 1, -1)])
            offsets.append(ZERO)
            next_col += 2

    # Each column belongs to one variable, so no coefficient accumulates.
    rows = []
    for coeffs, rel, rhs in lp.constraints:
        std = {}
        shift = ZERO
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            if offsets[j]:
                shift += a * offsets[j]
            for col, sign in col_map[j]:
                std[col] = a if sign > 0 else -a
        rows.append((std, rel, rhs - shift))
    rows.extend(extra_rows)
    return col_map, offsets, rows, next_col


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of a rational LP, with status and witness point."""
    col_map, offsets, std_rows, nstd = _standardize(lp)
    m = len(std_rows)

    # Integer equality rows with slack or surplus columns, rhs made
    # nonnegative.  Each row is scaled by the lcm of its denominators; its
    # slack keeps coefficient +-1, which only rescales that column.
    nslack = sum(1 for _, rel, _ in std_rows if rel != "=")
    ncols = nstd + nslack
    rows = []
    row_scale = []
    slack_col = nstd
    slack_of_row = []
    for coeffs, rel, rhs in std_rows:
        scale, ints = _integer_row([*coeffs.values(), rhs])
        row = [0] * ncols + [ints[-1]]
        for col, a in zip(coeffs, ints):
            row[col] = a
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
        if row[-1] < 0:
            row = [-v for v in row]
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
    for i in range(m):
        rows[i] = rows[i][:-1] + [0] * nart + [rows[i][-1]]
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
    # Phase 2: minimize the negated objective over the standardized columns,
    # scaled to integers and priced out against the basis.
    objective = [ZERO] * ncols
    for j in range(lp.num_vars):
        c = lp.objective[j]
        if c == 0:
            continue
        for col, sign in col_map[j]:
            objective[col] -= c * sign
    _, objective = _integer_row(objective)
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

    std_values = [ZERO] * ncols
    for i, b in enumerate(tab.basis):
        std_values[b] = Fraction(tab.rows[i][-1], tab.d)
    witness = []
    for j in range(lp.num_vars):
        x = offsets[j]
        for col, sign in col_map[j]:
            x += sign * std_values[col]
        witness.append(x)
    value = sum((c * x for c, x in zip(lp.objective, witness)), ZERO)
    _check_witness(lp, witness)
    return LpOutcome(LpStatus.OPTIMAL, value, tuple(witness))


def _check_witness(lp: LinearProgram, witness) -> None:
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((a * x for a, x in zip(coeffs, witness) if a), ZERO)
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            raise RuntimeError("simplex produced a witness violating a constraint")
    for j, lo in lp.lower.items():
        if witness[j] < lo:
            raise RuntimeError("simplex witness violates a lower bound")
    for j, up in lp.upper.items():
        if witness[j] > up:
            raise RuntimeError("simplex witness violates an upper bound")
