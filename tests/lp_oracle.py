"""Brute-force LP oracle, fully independent of the simplex implementation.

Optimal values come from enumerating basic feasible points, after pinning
the lineality space so the enumeration is complete: intersecting every
n-subset of constraints-as-equalities finds all vertices of a pointed
polyhedron, and pinning a basis of the lineality space makes any polyhedron
pointed without changing emptiness or the optimum of an objective that is
constant along the lineality directions (an objective that is not constant
along them makes a nonempty region unbounded outright).

Unbounded verdicts are certified by an explicit feasible point and an
improving recession ray, found by the same vertex enumeration on the
recession cone sliced at objective growth one.  Infeasible verdicts are
certified by Fourier-Motzkin elimination with multiplier tracking, which
produces an exact Farkas vector for the split inequality system.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), ZERO)


def rows_of(lp):
    """The LP's <= rows plus its lower bounds, as (coeffs, rel, rhs) triples."""
    n = lp.num_vars
    rows = [(tuple(c), "<=", rhs) for c, rhs in lp.constraints]
    for j in sorted(lp.lower):
        unit = tuple(ONE if k == j else ZERO for k in range(n))
        rows.append((unit, ">=", lp.lower[j]))
    return rows


def satisfies(rows, x) -> bool:
    for coeffs, rel, rhs in rows:
        lhs = dot(coeffs, x)
        if rel == "<=" and lhs > rhs:
            return False
        if rel == ">=" and lhs < rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def solve_square(matrix, rhs):
    """Exact solution of a square system; None if singular."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][-1] for r in range(n))


def nullspace(matrix, n):
    """Basis of the kernel of the given rows, over n variables."""
    rref = [list(row) for row in matrix]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rref)) if rref[i][col] != 0), None)
        if pivot is None:
            continue
        rref[r], rref[pivot] = rref[pivot], rref[r]
        inv = ONE / rref[r][col]
        rref[r] = [v * inv for v in rref[r]]
        for i in range(len(rref)):
            if i != r and rref[i][col] != 0:
                factor = rref[i][col]
                rref[i] = [a - factor * b for a, b in zip(rref[i], rref[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * n
        vec[f] = ONE
        for i, col in enumerate(pivots):
            vec[col] = -rref[i][f]
        basis.append(tuple(vec))
    return basis


def lineality_basis(rows, n):
    return nullspace([coeffs for coeffs, _, _ in rows], n)


def basic_feasible_points(rows, n):
    points = set()
    for combo in combinations(range(len(rows)), n):
        matrix = [rows[i][0] for i in combo]
        rhs = [rows[i][2] for i in combo]
        x = solve_square(matrix, rhs)
        if x is not None and satisfies(rows, x):
            points.add(x)
    return sorted(points)


def pinned_rows(rows, n):
    pins = [(r, "=", ZERO) for r in lineality_basis(rows, n)]
    return rows + pins


def find_point(rows, n):
    """Any point of the polyhedron, or None if it is empty (exact)."""
    pts = basic_feasible_points(pinned_rows(rows, n), n)
    return pts[0] if pts else None


def recession_rows(rows):
    return [(coeffs, rel, ZERO) for coeffs, rel, _ in rows]


def oracle_solve(lp):
    """Independent exact verdict: (status, value, certificate).

    status "optimal": value is the optimum.  status "unbounded": the
    certificate is (feasible point, improving ray).  status "infeasible":
    certificate is None (use farkas_certificate for the multiplier proof).
    """
    n = lp.num_vars
    c = tuple(lp.objective)
    rows = rows_of(lp)
    drift = next((r for r in lineality_basis(rows, n) if dot(c, r) != 0), None)
    if drift is not None:
        point = find_point(rows, n)
        if point is None:
            return "infeasible", None, None
        ray = drift if dot(c, drift) > 0 else tuple(-v for v in drift)
        return "unbounded", None, (point, ray)
    pinned = pinned_rows(rows, n)
    points = basic_feasible_points(pinned, n)
    if not points:
        return "infeasible", None, None
    best = max(dot(c, p) for p in points)
    witness = next(p for p in points if dot(c, p) == best)
    cone = recession_rows(pinned) + [(c, "=", ONE)]
    ray = find_point(cone, n)
    if ray is not None:
        return "unbounded", None, (witness, ray)
    return "optimal", best, witness


def verify_ray(rows, ray, objective) -> bool:
    if dot(objective, ray) <= 0:
        return False
    for coeffs, rel, _ in rows:
        along = dot(coeffs, ray)
        if rel == "<=" and along > 0:
            return False
        if rel == ">=" and along < 0:
            return False
        if rel == "=" and along != 0:
            return False
    return True


def split_leq(rows):
    """Rewrite to an all-<= system (equalities split into two rows)."""
    leq = []
    for coeffs, rel, rhs in rows:
        if rel in ("<=", "="):
            leq.append((tuple(coeffs), rhs))
        if rel in (">=", "="):
            leq.append((tuple(-a for a in coeffs), -rhs))
    return leq


def farkas_certificate(rows, n):
    """Multipliers y >= 0 with y.A = 0 and y.b < 0, or None if feasible.

    Fourier-Motzkin elimination over the split <= system, tracking how each
    derived inequality combines the originals.
    """
    leq = split_leq(rows)
    m = len(leq)
    work = []
    for i, (coeffs, rhs) in enumerate(leq):
        mult = [ZERO] * m
        mult[i] = ONE
        work.append((list(coeffs), rhs, mult))

    def normalized(entry):
        coeffs, rhs, mult = entry
        scale = next((abs(a) for a in coeffs if a != 0), None)
        if scale is None:
            return entry
        inv = ONE / scale
        return ([a * inv for a in coeffs], rhs * inv, [y * inv for y in mult])

    for col in range(n):
        pos, neg, rest = [], [], []
        for entry in work:
            a = entry[0][col]
            if a > 0:
                pos.append(entry)
            elif a < 0:
                neg.append(entry)
            else:
                rest.append(entry)
        combined = {}
        for entry in rest:
            coeffs, rhs, mult = normalized(entry)
            key = tuple(coeffs)
            if key not in combined or rhs < combined[key][1]:
                combined[key] = (coeffs, rhs, mult)
        for pc, prhs, pmult in pos:
            pscale = ONE / pc[col]
            for nc, nrhs, nmult in neg:
                nscale = ONE / -nc[col]
                coeffs = [a * pscale + b * nscale for a, b in zip(pc, nc)]
                rhs = prhs * pscale + nrhs * nscale
                mult = [a * pscale + b * nscale for a, b in zip(pmult, nmult)]
                coeffs, rhs, mult = normalized((coeffs, rhs, mult))
                key = tuple(coeffs)
                if key not in combined or rhs < combined[key][1]:
                    combined[key] = (coeffs, rhs, mult)
        work = list(combined.values())
        if len(work) > 200000:
            raise RuntimeError("fourier-motzkin blowup on a desk-scale instance")

    for coeffs, rhs, mult in work:
        assert all(a == 0 for a in coeffs)
        if rhs < 0:
            return mult
    return None


def verify_farkas(rows, mult) -> bool:
    leq = split_leq(rows)
    if len(mult) != len(leq) or any(y < 0 for y in mult):
        return False
    n = len(leq[0][0])
    combo = [ZERO] * n
    total = ZERO
    for y, (coeffs, rhs) in zip(mult, leq):
        for k in range(n):
            combo[k] += y * coeffs[k]
        total += y * rhs
    return all(v == 0 for v in combo) and total < 0


def dense_bareiss_pivot(rows, basis, labels, d, cost, r, k):
    """Textbook fraction-free pivot on a dense integer tableau.

    The condensed dictionary (rows over the nonbasic columns ``labels`` plus
    the rhs, basic variable ``basis[i]`` with coefficient d in row i, and an
    optional cost row) is spread into one column per variable, a row made
    negative at the entering column is negated, every other row and the cost
    row are updated by (p * row - f * pivot row) / d with exact division,
    and the result is read back in the condensed form with the leaving
    variable in column k.  Returns (rows, basis, labels, d, cost).
    """
    names = sorted([*basis, *labels])

    def spread(row, own=None):
        dense = dict.fromkeys(names, 0)
        dense.update(zip(labels, row))
        if own is not None:
            dense[own] = d
        dense["rhs"] = row[-1]
        return dense

    table = [spread(row, b) for row, b in zip(rows, basis)]
    dense_cost = None if cost is None else spread(cost)
    entering = labels[k]
    if table[r][entering] < 0:
        table[r] = {v: -a for v, a in table[r].items()}
    pivot_row = table[r]
    p = pivot_row[entering]

    def update(dense):
        f = dense[entering]
        out = {}
        for v, a in dense.items():
            q, rem = divmod(p * a - f * pivot_row[v], d)
            assert rem == 0, "Bareiss division is not exact"
            out[v] = q
        return out

    table = [row if i == r else update(row) for i, row in enumerate(table)]
    if dense_cost is not None:
        dense_cost = update(dense_cost)
    new_basis = list(basis)
    new_labels = list(labels)
    new_basis[r], new_labels[k] = entering, basis[r]
    assert all(row[b] == p for row, b in zip(table, new_basis))

    def condense(dense):
        return [dense[v] for v in new_labels] + [dense["rhs"]]

    new_cost = None if dense_cost is None else condense(dense_cost)
    return [condense(row) for row in table], new_basis, new_labels, p, new_cost
