import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pricegame.linprog import LinearProgram, LpStatus, make_lp, solve_lp

from lp_oracle import (
    farkas_certificate,
    oracle_solve,
    rows_of,
    satisfies,
    verify_farkas,
    verify_ray,
)


def test_single_constraint_optimum():
    out = solve_lp(make_lp([1], [([1], "<=", Fraction(3, 2))]))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == Fraction(3, 2)


def test_free_ray_is_unbounded():
    out = solve_lp(make_lp([1], []))
    assert out.status is LpStatus.UNBOUNDED


def test_separable_box_optimum():
    out = solve_lp(make_lp([1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 2)]))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 3


def test_infeasible_system():
    out = solve_lp(make_lp([1], [([1], "<=", 0), ([1], ">=", 1)]))
    assert out.status is LpStatus.INFEASIBLE


def test_equality_and_bounds():
    out = solve_lp(
        make_lp([2, 1], [([1, 1], "=", 4)], lower={0: 0}, upper={0: 3, 1: 10})
    )
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 2 * 3 + 1  # x0 at its cap, x1 takes the rest


def test_malformed_dimensions_rejected():
    with pytest.raises(ValueError):
        LinearProgram(2, (Fraction(1),), ())
    with pytest.raises(ValueError):
        make_lp([1, 1], [([1], "<=", 0)])
    with pytest.raises(ValueError):
        make_lp([1], [([1], "<<", 0)])
    with pytest.raises(ValueError):
        make_lp([1], [], lower={0: 2}, upper={0: 1})


def test_negative_rhs_needs_artificial():
    out = solve_lp(make_lp([-1], [([1], ">=", -2)], lower={0: -10}))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 2
    assert out.witness == (Fraction(-2),)


def test_phase_one_drives_out_an_artificial_on_a_negative_entry():
    # -x >= 0 with x >= 0 starts on an artificial that phase 1 leaves basic
    # at zero; driving it out pivots on the entry -1.
    out = solve_lp(make_lp([1], [([-1], ">=", 0)], lower={0: 0}))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimal_value == 0
    assert out.witness == (Fraction(0),)


def random_lp(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    objective = [rng.randint(-5, 5) for _ in range(n)]
    constraints = []
    for _ in range(m):
        coeffs = [rng.randint(-5, 5) for _ in range(n)]
        rel = rng.choice(["<=", ">=", "="])
        constraints.append((coeffs, rel, rng.randint(-5, 5)))
    lower, upper = {}, {}
    for j in range(n):
        if rng.random() < 0.25:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            lower[j], upper[j] = min(a, b), max(a, b)
    return make_lp(objective, constraints, lower=lower, upper=upper)


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


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def degenerate_rational_lp(draw) -> LinearProgram:
    """Rational data plus duplicate, parallel and concurrent rows.

    Concurrent rows all pass through one drawn point, often a corner of the
    variable bounds, so several of them are tight at one vertex; duplicates
    and parallels make redundant rows.  Phase 1 then ends with artificials
    at zero that it must drive out (on entries of either sign) or drop.
    """
    n = draw(st.integers(1, 3))
    vector = st.lists(RATIONALS, min_size=n, max_size=n)
    relation = st.sampled_from(["<=", ">=", "="])
    lower, upper = {}, {}
    for j in range(n):
        kind = draw(st.sampled_from(["free", "lower", "upper", "box"]))
        a, b = sorted([draw(RATIONALS), draw(RATIONALS)])
        if kind in ("lower", "box"):
            lower[j] = a
        if kind in ("upper", "box"):
            upper[j] = b
    point = [
        draw(st.sampled_from([v for v in (lower.get(j), upper.get(j)) if v is not None])
             if (j in lower or j in upper) and draw(st.booleans()) else RATIONALS)
        for j in range(n)
    ]
    rows = draw(st.lists(st.tuples(vector, relation, RATIONALS), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        coeffs, rel, rhs = draw(st.sampled_from(rows))
        factor = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1)]))
        flipped = {"<=": ">=", ">=": "<=", "=": "="}[rel] if factor < 0 else rel
        rows.append(([factor * a for a in coeffs], flipped, factor * rhs))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(vector)
        rhs = sum((a * x for a, x in zip(coeffs, point)), Fraction(0))
        rows.append((coeffs, draw(relation), rhs))
    order = draw(st.permutations(range(len(rows))))
    return make_lp(draw(vector), [rows[i] for i in order], lower=lower, upper=upper)


@given(degenerate_rational_lp(), st.lists(st.fractions(min_value=Fraction(1, 4),
                                                        max_value=4), min_size=12, max_size=12))
@settings(max_examples=100, deadline=None)
def test_rational_degenerate_lps_against_oracle(lp, scales):
    assert_matches_oracle(lp)
    # Scaling constraints by positive factors keeps the pivot path, so the
    # reported vertex must not move.
    scaled = make_lp(
        lp.objective,
        [([s * a for a in coeffs], rel, s * rhs)
         for s, (coeffs, rel, rhs) in zip(scales, lp.constraints)],
        lower=lp.lower,
        upper=lp.upper,
    )
    assert solve_lp(scaled) == solve_lp(lp)
