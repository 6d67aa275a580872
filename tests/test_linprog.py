import dataclasses
import hashlib
import random
import tracemalloc
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from pricegame.linprog import (
    LinearProgram,
    LpStatus,
    _check_witness,
    _Dictionary,
    solve_lp,
)

from lp_oracle import (
    dense_bareiss_pivot,
    farkas_certificate,
    oracle_solve,
    rows_of,
    satisfies,
    verify_farkas,
    verify_ray,
)


def test_single_constraint_optimum():
    out = solve_lp(LinearProgram(1, (1,), (((2,), 3),)))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == Fraction(3, 2)


def test_free_ray_is_unbounded():
    out = solve_lp(LinearProgram(1, (1,), ()))
    assert out.status is LpStatus.UNBOUNDED


def test_separable_box_optimum():
    out = solve_lp(LinearProgram(2, (1, 1), (((1, 0), 1), ((0, 1), 2))))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 3


def test_infeasible_system():
    # x <= 0 and x >= 1, the second written as -x <= -1.
    out = solve_lp(LinearProgram(1, (1,), (((1,), 0), ((-1,), -1))))
    assert out.status is LpStatus.INFEASIBLE


def test_equality_and_bounds():
    # x0 + x1 = 4 as two rows, then the caps x0 <= 3 and x1 <= 10 as rows.
    rows = (((1, 1), 4), ((-1, -1), -4), ((1, 0), 3), ((0, 1), 10))
    out = solve_lp(LinearProgram(2, (2, 1), rows, {0: 0}))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 2 * 3 + 1  # x0 at its cap, x1 takes the rest


def test_malformed_dimensions_rejected():
    with pytest.raises(ValueError):
        LinearProgram(2, (1,), ())
    with pytest.raises(ValueError):
        LinearProgram(2, (1, 1), (((1,), 0),))
    with pytest.raises(ValueError, match=r"^constraint 0: a row is \(coefficients, rhs\)$"):
        LinearProgram(1, (1,), (((1,),),))
    with pytest.raises(ValueError, match="^a linear program needs at least one variable$"):
        LinearProgram(0, (), ())
    with pytest.raises(ValueError, match="^bound on unknown variable 1$"):
        LinearProgram(1, (1,), (), {1: 3})


def test_the_fields_are_rows_and_lower_bounds():
    assert [f.name for f in dataclasses.fields(LinearProgram)] == [
        "num_vars", "objective", "constraints", "lower"]


def test_lower_is_a_read_only_copy_and_replace_revalidates():
    given = {0: 1}
    lp = LinearProgram(2, (-1, -1), (), given)
    with pytest.raises(TypeError):
        lp.lower[5] = 0
    with pytest.raises(TypeError):
        lp.lower[0] = 0.5
    given[1] = 2
    assert lp.lower == {0: 1}
    assert solve_lp(lp).status is LpStatus.UNBOUNDED
    with pytest.raises(ValueError, match="^bound on unknown variable 5$"):
        dataclasses.replace(lp, lower={0: 1, 5: 0})
    with pytest.raises(TypeError, match="lower bound"):
        dataclasses.replace(lp, lower={0: Fraction(1, 2)})
    out = solve_lp(dataclasses.replace(lp, lower={0: 1, 1: 2}))
    assert (out.optimal_value, out.witness) == (-3, (1, 2))


@pytest.mark.parametrize("rows, error, message", [
    # Row 0, a triple carrying a relation, is named before row 2's length
    # or float.
    ([((1,), "<=", 0), ((1,), 1), ((1, 2), 0)],
     ValueError, "constraint 0: a row is (coefficients, rhs)"),
    ([((1,), "<<", 0), ((1,), 1), ((1.5,), 0)],
     ValueError, "constraint 0: a row is (coefficients, rhs)"),
    ([((1,), 0), ((2.5,), 1), ((1, 2), 0)],
     TypeError, "constraint coefficient 2.5 is not an int"),
    # Right-hand sides are checked after every row.
    ([((1,), 0.5), ((1,), 1), ((1, 2), 0)],
     ValueError, "constraint 2: coefficient vector has wrong length"),
], ids=["relation-then-length", "relation-then-float", "float-then-length", "rhs-after-rows"])
def test_the_first_faulty_row_is_named(rows, error, message):
    with pytest.raises(error) as info:
        LinearProgram(1, (1,), tuple(rows))
    assert str(info.value) == message


@pytest.mark.parametrize("build, what", [
    (lambda: LinearProgram(1, (0.5,), ()), "objective coefficient"),
    (lambda: LinearProgram(1, (1,), (((1.0,), 1),)), "constraint coefficient"),
    (lambda: LinearProgram(1, (1,), (((1,), 2.5),)), "right-hand side"),
    (lambda: LinearProgram(1, (1,), (), {0: 0.0}), "lower bound"),
    (lambda: LinearProgram(1, (1,), (), {0: True}), "lower bound"),
    (lambda: LinearProgram(1, (False,), ()), "objective coefficient"),
    (lambda: LinearProgram(1, (1,), (((1,), "3"),)), "right-hand side"),
    (lambda: LinearProgram(1, (Fraction(1, 2),), ()), "objective coefficient"),
    (lambda: LinearProgram(1, (1,), (((Fraction(2),), 1),)), "constraint coefficient"),
    (lambda: LinearProgram(1, (1,), (((1,), Fraction(3, 2)),)), "right-hand side"),
    (lambda: LinearProgram(1, (1,), (), {0: Fraction(-1, 3)}), "lower bound"),
    (lambda: LinearProgram(2.0, (1, 1), (((1, 1), 3),)), "num_vars"),
    (lambda: LinearProgram(True, (1,), ()), "num_vars"),
], ids=["float-objective", "float-coefficient", "float-rhs", "float-lower",
        "bool-lower", "bool-objective", "string-rhs", "fraction-objective",
        "fraction-coefficient", "fraction-rhs", "fraction-lower", "float-num-vars",
        "bool-num-vars"])
def test_inexact_lp_data_is_rejected(build, what):
    with pytest.raises(TypeError, match=what):
        build()


def test_negative_rhs_needs_artificial():
    # x >= -2 as -x <= 2: moved to the lower bound -10, the rhs is -8.
    out = solve_lp(LinearProgram(1, (-1,), (((-1,), 2),), {0: -10}))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 2
    assert out.witness == (Fraction(-2),)


def test_phase_one_drives_out_an_artificial_on_a_negative_entry():
    # -x <= -2 and x <= 2 with x >= 0: the first row starts on an
    # artificial, which phase 1 leaves basic at zero once x = 2 enters on
    # the second row's ratio tie; driving it out pivots on the entry -1.
    out = solve_lp(LinearProgram(1, (2,), (((-1,), -2), ((1,), 2)), {0: 0}))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 4
    assert out.witness == (Fraction(2),)


def one_form(n, objective, rows, lower, upper) -> LinearProgram:
    """The LP of drawn (coefficients, relation, rhs) rows and bounds.

    A >= row is written negated and an = row as the row and its negation;
    each upper bound is a unit row after them, in variable order.
    """
    pairs = []
    for coeffs, rel, rhs in rows:
        if rel != ">=":
            pairs.append((tuple(coeffs), rhs))
        if rel != "<=":
            pairs.append((tuple([-a for a in coeffs]), -rhs))
    for j in sorted(upper):
        pairs.append((tuple([int(k == j) for k in range(n)]), upper[j]))
    return LinearProgram(n, tuple(objective), tuple(pairs), lower)


def random_lp(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    objective = [rng.randint(-5, 5) for _ in range(n)]
    constraints = []
    for _ in range(m):
        coeffs = [rng.randint(-5, 5) for _ in range(n)]
        rel = rng.choice(["<=", ">=", "="])
        constraints.append((tuple(coeffs), rel, rng.randint(-5, 5)))
    lower, upper = {}, {}
    for j in range(n):
        if rng.random() < 0.25:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            lower[j], upper[j] = min(a, b), max(a, b)
    return one_form(n, objective, constraints, lower, upper)


def draw_degenerate(rng: random.Random):
    """A seeded copy of degenerate_rational_lp's draws, for pinned corpora.

    Hypothesis may draw other examples in another of its versions; a seeded
    random.Random draws the same ones.  Returns the arguments of one_form.
    """
    n = rng.randint(1, 3)

    def vector():
        return tuple([rng.randint(-5, 5) for _ in range(n)])

    lower, upper = {}, {}
    for j in range(n):
        kind = rng.choice(["free", "lower", "upper", "box"])
        a, b = sorted([rng.randint(-5, 5), rng.randint(-5, 5)])
        if kind in ("lower", "box"):
            lower[j] = a
        if kind in ("upper", "box"):
            upper[j] = b
    point = []
    for j in range(n):
        ends = [v for v in (lower.get(j), upper.get(j)) if v is not None]
        point.append(rng.choice(ends) if ends and rng.random() < 0.5 else rng.randint(-5, 5))
    relations = ["<=", ">=", "="]
    rows = [(vector(), rng.choice(relations), rng.randint(-5, 5))
            for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        coeffs, rel, rhs = rng.choice(rows)
        factor = rng.choice([1, 2, 3, -1])
        flipped = {"<=": ">=", ">=": "<=", "=": "="}[rel] if factor < 0 else rel
        rows.append((tuple([factor * a for a in coeffs]), flipped, factor * rhs))
    for _ in range(rng.randint(0, 3)):
        coeffs = vector()
        rows.append((coeffs, rng.choice(relations), sum(map(mul, coeffs, point))))
    rng.shuffle(rows)
    return n, vector(), rows, lower, upper


def random_degenerate_lp(rng: random.Random) -> LinearProgram:
    return one_form(*draw_degenerate(rng))


def random_face_lp(rng: random.Random) -> LinearProgram:
    """A random_degenerate_lp that maximizes along one of its drawn rows.

    Its optimum is often a whole face, so the vertex returned depends on the
    pivot path: on Bland's ratio tie-break as well as on the entering rule.
    """
    n, _, rows, lower, upper = draw_degenerate(rng)
    coeffs, rel, _ = rng.choice(rows)
    sign = -1 if rel == ">=" else 1
    return one_form(n, [sign * a for a in coeffs], rows, lower, upper)


# sha256 over (status, value, witness) of 2,000 seeds of each generator.
# Recorded by the solver that still took >= and = rows and upper bounds, fed
# these LPs' rows as <= rows; the oracle tests check values, and this pins
# which vertex is returned.
VERTEX_DIGEST = "c626bf337a3bf9b4ff849f325cbc2f003d3886234483e3b66346b98abbeea272"


def test_returned_vertices_are_pinned():
    digest = hashlib.sha256()
    for make in (random_lp, random_degenerate_lp, random_face_lp):
        for seed in range(2000):
            out = solve_lp(make(random.Random(seed)))
            digest.update(f"{out.status.value} {out.optimal_value} {out.witness}\n".encode())
    assert digest.hexdigest() == VERTEX_DIGEST


def test_a_row_doubled_or_tripled_keeps_the_returned_vertex():
    # A face LP's optimum is often a whole face, so its vertex shows the
    # pivot path: phase 1 must read each row at one scale.
    moved = []
    for seed in range(2000):
        lp = random_face_lp(random.Random(seed))
        out = solve_lp(lp)
        for i, (coeffs, rhs) in enumerate(lp.constraints):
            for factor in (2, 3):
                rows = list(lp.constraints)
                rows[i] = (tuple([factor * a for a in coeffs]), factor * rhs)
                if solve_lp(dataclasses.replace(lp, constraints=tuple(rows))) != out:
                    moved.append((seed, i, factor))
    assert moved == []


def test_a_tall_lp_holds_only_its_nonbasic_columns():
    # 2,000 rows over 3 free variables (6 standard columns).  A dense row
    # with a column per slack would hold about 2,000 entries; a dictionary
    # row holds 6 and the rhs.
    rng = random.Random(11)
    rows = tuple([
        (tuple([rng.randint(-5, 5) for _ in range(3)]), rng.randint(1, 50))
        for _ in range(2000)
    ])
    lp = LinearProgram(3, (1, 2, 3), rows)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = solve_lp(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.status is LpStatus.OPTIMAL
    assert peak < 4 * 2**20


def assert_matches_oracle(lp: LinearProgram):
    out = solve_lp(lp)
    status, value, certificate = oracle_solve(lp)
    assert out.status.value == status
    rows = rows_of(lp)
    if status == "optimal":
        assert out.optimal_value == value
        assert satisfies(rows, out.witness)
    elif status == "unbounded":
        point, ray = certificate
        assert satisfies(rows, point)
        assert verify_ray(rows, ray, lp.objective)
    else:
        mult = farkas_certificate(rows, lp.num_vars)
        assert mult is not None and verify_farkas(rows, mult)


def test_random_lps_against_oracle_sample():
    rng = random.Random(2024)
    for _ in range(60):
        assert_matches_oracle(random_lp(rng))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_solver_is_deterministic(seed):
    lp = random_lp(random.Random(seed))
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.status == second.status
    assert first.optimal_value == second.optimal_value
    assert first.witness == second.witness


INTEGERS = st.integers(-5, 5)


@st.composite
def degenerate_rational_lp(draw) -> LinearProgram:
    """Integer data plus duplicate, parallel and concurrent rows.

    Concurrent rows all pass through one drawn integer point, often a corner
    of the variable bounds, so several of them are tight at one vertex;
    duplicates and parallels make redundant rows.  Phase 1 then ends with
    artificials at zero that it must drive out, on entries of either sign.
    The draws are written as in one_form.
    """
    n = draw(st.integers(1, 3))
    vector = st.lists(INTEGERS, min_size=n, max_size=n).map(tuple)
    relation = st.sampled_from(["<=", ">=", "="])
    lower, upper = {}, {}
    for j in range(n):
        kind = draw(st.sampled_from(["free", "lower", "upper", "box"]))
        a, b = sorted([draw(INTEGERS), draw(INTEGERS)])
        if kind in ("lower", "box"):
            lower[j] = a
        if kind in ("upper", "box"):
            upper[j] = b
    point = [
        draw(st.sampled_from([v for v in (lower.get(j), upper.get(j)) if v is not None])
             if (j in lower or j in upper) and draw(st.booleans()) else INTEGERS)
        for j in range(n)
    ]
    rows = draw(st.lists(st.tuples(vector, relation, INTEGERS), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        coeffs, rel, rhs = draw(st.sampled_from(rows))
        factor = draw(st.sampled_from([1, 2, 3, -1]))
        flipped = {"<=": ">=", ">=": "<=", "=": "="}[rel] if factor < 0 else rel
        rows.append((tuple([factor * a for a in coeffs]), flipped, factor * rhs))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(vector)
        rows.append((coeffs, draw(relation), sum(map(mul, coeffs, point))))
    order = draw(st.permutations(range(len(rows))))
    return one_form(n, draw(vector), [rows[i] for i in order], lower, upper)


# One scale per row: at most 9 drawn rows, each = row written as two, and
# up to 3 upper-bound rows make at most 21.
@given(degenerate_rational_lp(), st.lists(st.integers(1, 4), min_size=24, max_size=24))
@example(LinearProgram(2, (0, 0), (((0, -2), 0), ((-3, -5), -1), ((1, 0), 1),
                                   ((-1, -2), 0)), lower={1: -1}),
         [1, 2] + [1] * 22)
@settings(max_examples=100, deadline=None)
def test_rational_degenerate_lps_against_oracle(lp, scales):
    assert len(scales) >= len(lp.constraints)
    assert_matches_oracle(lp)
    # Scaling constraints by positive factors keeps the pivot path, so the
    # reported vertex must not move.
    scaled = dataclasses.replace(lp, constraints=tuple([
        (tuple([s * a for a in coeffs]), s * rhs)
        for s, (coeffs, rhs) in zip(scales, lp.constraints)
    ]))
    assert solve_lp(scaled) == solve_lp(lp)


DOMAINS = ("free", "nonneg", "capped", "box", "lowercap")


@st.composite
def pricing_style_lp(draw):
    """LP data shaped like a pricing candidate, as plain ints.

    The objective is the candidate's 0/1 price vector, each row subtracts
    another pattern's vector (so coefficients are 0 or +-1) against an
    integer gap, and the bounds follow one price domain with integer caps:
    lower bounds as LP bounds and caps as unit rows after the others.
    """
    n = draw(st.integers(1, 4))
    vector = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    objective = draw(vector)
    rows = [
        (tuple([a - b for a, b in zip(objective, other)]), draw(st.integers(-6, 6)))
        for other in draw(st.lists(vector, max_size=6))
    ]
    caps = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    domain = draw(st.sampled_from(DOMAINS))
    lower = {}
    for k, cap in enumerate(caps):
        if domain in ("nonneg", "box"):
            lower[k] = 0
        if domain in ("capped", "box"):
            rows.append((tuple([int(i == k) for i in range(n)]), cap))
        if domain == "lowercap":
            lower[k] = -cap
    return objective, rows, lower


@given(pricing_style_lp())
@settings(max_examples=150, deadline=None)
def test_integer_lps_match_their_fraction_copies(data):
    objective, rows, lower = data
    native = LinearProgram(len(objective), tuple(objective), tuple(rows), lower)
    out = solve_lp(native)
    if out.status is LpStatus.OPTIMAL:
        assert type(out.optimal_value) is Fraction
        assert all(type(x) is Fraction for x in out.witness)
    assert_matches_oracle(native)


ENTRIES = st.sampled_from([0, 0, 0, 1, 1, -1, -1, 2, -2, 3])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pivot_matches_a_dense_bareiss_pivot(data):
    # A dictionary of 0/+-1-heavy integer rows over d = 1, pivoted several
    # times on random nonzero entries: later pivots meet d > 1 and p != d,
    # rows with a zero pivot-column entry, and +-1 row sums.
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(st.lists(ENTRIES, min_size=n + 1, max_size=n + 1)) for _ in range(m)]
    names = data.draw(st.permutations(range(m + n)))
    basis, labels = list(names[:m]), list(names[m:])
    cost = data.draw(st.one_of(st.none(), st.lists(ENTRIES, min_size=n + 1, max_size=n + 1)))
    dic = _Dictionary([list(row) for row in rows], list(basis), list(labels))
    dic_cost = None if cost is None else list(cost)
    d = 1
    for _ in range(data.draw(st.integers(1, 6))):
        nonzero = [(i, k) for i in range(m) for k in range(n) if rows[i][k]]
        if not nonzero:
            break
        r, k = data.draw(st.sampled_from(nonzero))
        rows, basis, labels, d, cost = dense_bareiss_pivot(rows, basis, labels, d, cost, r, k)
        dic.pivot(r, k, dic_cost)
        assert (dic.rows, dic.basis, dic.labels, dic.d, dic_cost) == (rows, basis, labels, d, cost)


def _tight(lp):
    """The optimum of lp as integers over a denominator of 7 times its own."""
    out = solve_lp(lp)
    assert out.status is LpStatus.OPTIMAL
    common = 7 * lcm(*[x.denominator for x in out.witness])
    return [x.numerator * (common // x.denominator) for x in out.witness], common


# max x + y s.t. 2x + y = 1 (as two rows), y in [0, 1] (the cap a row).
HALF_PLANE = LinearProgram(2, (1, 1), (((2, 1), 1), ((-2, -1), -1), ((0, 1), 1)), {1: 0})


@pytest.mark.parametrize("lp, j, step, message", [
    # max x s.t. 2x <= 3: tight at x = 3/2.
    (LinearProgram(1, (1,), (((2,), 3),)), 0, 1, "constraint"),
    # max -x s.t. 3x >= 2, written -3x <= -2: tight at x = 2/3.
    (LinearProgram(1, (-1,), (((-3,), -2),)), 0, -1, "constraint"),
    # HALF_PLANE: x = 0, y = 1, on both rows of the equation.
    (HALF_PLANE, 0, 1, "constraint"),
    (HALF_PLANE, 0, -1, "constraint"),
    (LinearProgram(2, (1, 0), (((1, -1), 2), ((1, 0), 4), ((0, 1), 0)), {0: 0, 1: -3}),
     0, 1, "constraint"),
    # The caps y <= 3 and x <= 4 as unit rows.
    (LinearProgram(2, (1, 1), (((1, 0), 4), ((0, 1), 3)), {0: -2, 1: 0}), 1, 1, "constraint"),
    (LinearProgram(1, (-1,), (((-1,), -2),)), 0, -1, "constraint"),
    (LinearProgram(2, (1, 0), (((1, 1), 3), ((-1, -1), -3)), {1: 1}), 0, 1, "constraint"),
    (LinearProgram(1, (-1,), (), {0: -2}), 0, -1, "lower bound"),
], ids=["le-row", "ge-row", "eq-row-up", "eq-row-down", "int-le-row", "int-upper",
        "int-ge-row", "int-eq-row", "int-lower"])
def test_witness_moved_by_one_unit_past_a_tight_row_or_bound_fails(lp, j, step, message):
    scaled, common = _tight(lp)
    _check_witness(lp, scaled, common)
    moved = list(scaled)
    moved[j] += step
    with pytest.raises(RuntimeError, match=message):
        _check_witness(lp, moved, common)
