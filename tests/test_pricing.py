import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pricegame import core, pricing
from pricegame.compilers import compile_qdnf_pricing
from pricegame.core import Element, Sense, best_by_pattern, explicit_problem
from pricegame.linprog import LpOutcome, LpStatus
from pricegame.pricing import (
    Domain,
    GroundChoice,
    NoFollowerSolutionError,
    PricingInstance,
    SolveStatus,
    decide_pricing,
    evaluate_prices,
    incentive_to_price,
    solve_pricing,
)
from pricegame.problems import cnf, sat_problem, subset_sum_problem, vertex_cover_problem
from pricegame.serialize import pricing_summary
from pricegame.sweep import decision_fields, random_formula


def two_item_instance(domain=Domain.FREE):
    base = explicit_problem(
        [Element("eL"), Element("eF")], [frozenset({"eL"}), frozenset({"eF"})]
    )
    return PricingInstance(
        base, frozenset({"eL"}), {"eL": 5, "eF": 3}, GroundChoice.SOLUTIONS, domain
    )


def test_two_item_example():
    solution = solve_pricing(two_item_instance())
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.leader_value == 2
    assert solution.prices["eL"] == 2
    assert solution.response == frozenset({"eL"})
    assert solution.follower_value == 3


def test_mandatory_leader_item_is_unbounded():
    base = explicit_problem([Element("eL")], [frozenset({"eL"})])
    inst = PricingInstance(base, frozenset({"eL"}), {"eL": 5}, GroundChoice.SOLUTIONS)
    assert solve_pricing(inst).status is SolveStatus.UNBOUNDED


def test_sweep_and_decide_pricing_agree_on_unbounded_outcome():
    base = sat_problem(cnf(1, [[1]]))
    inst = PricingInstance(
        base, frozenset({"x1"}), {"x1": 1, "~x1": 1}, GroundChoice.SOLUTIONS,
        Domain.FREE, threshold=5,
    )
    assert solve_pricing(inst).status is SolveStatus.UNBOUNDED
    assert decide_pricing(inst) is True
    fields = decision_fields(inst)
    assert fields["pricing"] is True
    assert fields["leader_value"] is None
    assert fields["decision_threshold"] == "5/1"


def test_min_sense_single_edge_example():
    base = vertex_cover_problem(["u", "v"], [("u", "v")], threshold=1)
    inst = PricingInstance(
        base, frozenset({"u"}), {"u": 0, "v": 5}, GroundChoice.FEASIBLE
    )
    solution = solve_pricing(inst)
    assert solution.leader_value == 5
    assert solution.prices["u"] == 5
    assert solution.response == frozenset({"u"})
    assert solution.follower_value == 5


def test_optimistic_tie_breaking_favors_the_leader():
    base = explicit_problem(
        [Element("e1"), Element("e2")],
        [frozenset({"e1", "e2"}), frozenset({"e2"})],
    )
    inst = PricingInstance(
        base, frozenset({"e1"}), {"e1": 4, "e2": 1}, GroundChoice.SOLUTIONS
    )
    solution = solve_pricing(inst)
    assert solution.leader_value == 4
    assert solution.response == frozenset({"e1", "e2"})


def test_decide_thresholds():
    inst = two_item_instance()
    inst = dataclasses.replace(inst, threshold=Fraction(2))
    assert decide_pricing(inst)
    inst = dataclasses.replace(inst, threshold=Fraction(5, 2))
    assert not decide_pricing(inst)
    inst = dataclasses.replace(inst, threshold=Fraction(0))
    assert decide_pricing(inst)


def test_no_follower_solution_is_a_distinguished_error():
    base = sat_problem(cnf(1, [[1], [-1]]))
    inst = PricingInstance(
        base,
        frozenset({"x1"}),
        {"x1": 1, "~x1": 0},
        GroundChoice.SOLUTIONS,
    )
    assert solve_pricing(inst).status is SolveStatus.NO_FOLLOWER_SOLUTION
    with pytest.raises(NoFollowerSolutionError):
        decide_pricing(inst)


def test_no_feasible_candidate_is_a_runtime_error(monkeypatch):
    # Some pattern is always follower-optimal, so this is an internal
    # fault; it must raise even under python -O.
    monkeypatch.setattr(pricing, "solve_lp", lambda lp: LpOutcome(LpStatus.INFEASIBLE))
    with pytest.raises(RuntimeError, match="every candidate LP is infeasible"):
        solve_pricing(two_item_instance())


def test_incentive_to_price_examples():
    assert incentive_to_price({"e": 5}, {"e": 3}) == {"e": Fraction(2)}
    assert incentive_to_price({"e": 4}, {"e": 4}) == {"e": Fraction(0)}
    assert incentive_to_price({"e": 4}, {"e": 0}) == {"e": Fraction(4)}
    with pytest.raises(ValueError):
        incentive_to_price({"e": 1}, {"f": 1})


def test_lower_cap_requires_minimization():
    inst = two_item_instance(domain=Domain.LOWER_CAP)
    with pytest.raises(ValueError):
        solve_pricing(inst)


def random_instance(rng: random.Random) -> PricingInstance:
    size = rng.randint(2, 5)
    names = [f"e{i}" for i in range(size)]
    subsets = [
        frozenset(c)
        for width in range(size + 1)
        for c in itertools.combinations(names, width)
    ]
    family = [s for s in subsets if rng.random() < 0.4]
    if not any(True for _ in family):
        family = [frozenset({names[0]})]
    base = explicit_problem([Element(i) for i in names], family)
    leader = frozenset(i for i in names if rng.random() < 0.5)
    valuation = {i: rng.randint(0, 6) for i in names}
    return PricingInstance(base, leader, valuation, GroundChoice.SOLUTIONS)


def with_domain(inst: PricingInstance, domain: Domain) -> PricingInstance:
    return PricingInstance(
        inst.base, inst.leader_ids, inst.valuation, inst.ground, domain, inst.threshold
    )


def value_or_none(inst):
    outcome = solve_pricing(inst)
    return outcome.status, outcome.leader_value


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=80, deadline=None)
def test_restriction_monotonicity(seed):
    inst = random_instance(random.Random(seed))
    statuses = {}
    values = {}
    for domain in (Domain.FREE, Domain.NONNEG, Domain.CAPPED, Domain.BOX):
        statuses[domain], values[domain] = value_or_none(with_domain(inst, domain))
    if statuses[Domain.BOX] is not SolveStatus.OPTIMAL:
        return
    if statuses[Domain.FREE] is SolveStatus.OPTIMAL:
        assert values[Domain.BOX] <= values[Domain.NONNEG] <= values[Domain.FREE]
        assert values[Domain.BOX] <= values[Domain.CAPPED] <= values[Domain.FREE]


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_optimistic_semantics_under_reevaluation(seed):
    inst = random_instance(random.Random(seed))
    outcome = solve_pricing(inst)
    if outcome.status is not SolveStatus.OPTIMAL:
        return
    check = evaluate_prices(inst, outcome.prices)
    # The returned response must be follower-optimal and, among follower
    # optima, leader-optimal; the solver's value is that optimum.
    assert check.leader_value == outcome.leader_value
    assert check.follower_value == outcome.follower_value


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_grid_prices_never_beat_the_solver(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    outcome = solve_pricing(inst)
    if outcome.status is not SolveStatus.OPTIMAL:
        return
    leader = sorted(inst.leader_ids)
    grid_levels = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(4)]
    for combo in itertools.islice(itertools.product(grid_levels, repeat=len(leader)), 64):
        prices = dict(zip(leader, combo))
        assert evaluate_prices(inst, prices).leader_value <= outcome.leader_value


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_incentive_route_matches_direct_objective(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    leader = sorted(inst.leader_ids)
    incentives = {e: Fraction(rng.randint(-3, 6)) for e in leader}
    gross = {e: Fraction(inst.valuation[e]) for e in leader}
    prices = incentive_to_price(gross, incentives)
    try:
        check = evaluate_prices(inst, prices)
    except NoFollowerSolutionError:
        return
    sold = check.response & inst.leader_ids
    direct = sum((gross[e] - incentives[e] for e in sold), Fraction(0))
    assert check.leader_value == direct


def test_solver_deterministic_across_runs():
    inst = random_instance(random.Random(5))
    first = solve_pricing(inst)
    inst2 = random_instance(random.Random(5))
    second = solve_pricing(inst2)
    assert first == second


def test_valuation_must_cover_universe_and_be_nonnegative():
    base = explicit_problem([Element("a")], [frozenset({"a"})])
    with pytest.raises(ValueError):
        PricingInstance(base, frozenset({"a"}), {"a": -1}, GroundChoice.SOLUTIONS)
    with pytest.raises(ValueError):
        PricingInstance(base, frozenset({"b"}), {"a": 1}, GroundChoice.SOLUTIONS)


# sha256 of the summaries below.  Among several optimal price vectors the
# simplex's pivot path picks one, and `pricegame solve` prints it; the
# integer tableau scales rows and columns only by positive factors, which
# keeps every Bland pivot, so this digest must not move.
PINNED_VERTEX_DIGEST = "187a31575d52fe76774cf336b9dc0b012af6dbf00e409bc3f26fe55cbaf0bfe4"


def test_compiled_two_pair_vertices_are_pinned():
    lines = []
    for seed in range(6):
        compiled = compile_qdnf_pricing(random_formula(random.Random(seed), 2, 3))
        for domain in (Domain.FREE, Domain.NONNEG, Domain.CAPPED, Domain.BOX):
            inst = dataclasses.replace(compiled.pricing, domain=domain)
            lines += [f"seed {seed} {domain.value}"]
            lines += pricing_summary(inst, solve_pricing(inst))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_VERTEX_DIGEST


def test_instances_are_frozen_and_replace_revalidates():
    inst = two_item_instance()
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.threshold = Fraction(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.domain = Domain.BOX
    with pytest.raises(ValueError):
        dataclasses.replace(inst, threshold=-1)
    assert dataclasses.replace(inst, threshold=3).threshold == Fraction(3)


@pytest.mark.parametrize("build", [
    lambda: vertex_cover_problem("abcd", [("a", "b"), ("b", "c"), ("c", "d")], threshold=2),
    lambda: subset_sum_problem("abcd", {"a": 1, "b": 2, "c": 2, "d": 3}, target=4),
], ids=["vertex-cover", "subset-sum"])
def test_solves_over_a_shared_base_match_solves_over_fresh_bases(build):
    # The follower signatures are memoised on the base problem; every solve
    # and evaluation over the one shared base must equal the same call on a
    # base built afresh, whatever the valuation, leader set and ground.
    shared = build()
    rng = random.Random(17)
    valuations = [{v: rng.randint(0, 6) for v in "abcd"} for _ in range(4)]
    for leader in (frozenset("a"), frozenset("bc"), frozenset("d")):
        for ground in GroundChoice:
            for valuation in valuations:
                here = PricingInstance(shared, leader, valuation, ground, Domain.BOX)
                fresh = PricingInstance(build(), leader, valuation, ground, Domain.BOX)
                assert solve_pricing(here) == solve_pricing(fresh)
                prices = {e: Fraction(1) for e in leader}
                assert evaluate_prices(here, prices) == evaluate_prices(fresh, prices)


def test_pattern_memo_stays_bounded_over_many_valuations():
    vertices = [f"v{i}" for i in range(12)]
    edges = list(zip(vertices, vertices[1:])) + [("v0", "v6"), ("v3", "v9")]
    base = vertex_cover_problem(vertices, edges, threshold=6)
    rng = random.Random(3)
    for _ in range(3000):
        valuation = {v: rng.randint(0, 9) for v in vertices}
        solve_pricing(PricingInstance(base, frozenset(vertices[:3]), valuation,
                                      GroundChoice.FEASIBLE))
    assert 0 < len(base._pattern_cache) <= core._PATTERN_MEMO


def test_solves_and_evaluations_under_every_domain_share_one_collapse(monkeypatch):
    # As in the domain-resolve benchmark: fresh instances over one compiled
    # base, one per domain, each solved and then evaluated at its prices.
    template = compile_qdnf_pricing(random_formula(random.Random(1), 2, 3)).pricing
    calls = []
    enumerate_family = core.best_by_enumeration

    def counted(*args):
        calls.append(args[1])
        return enumerate_family(*args)

    monkeypatch.setattr(core, "best_by_enumeration", counted)
    for domain in (Domain.FREE, Domain.NONNEG, Domain.CAPPED, Domain.BOX, Domain.CAPPED):
        inst = dataclasses.replace(template, domain=domain)
        solution = solve_pricing(inst)
        if solution.status is SolveStatus.OPTIMAL:
            evaluate_prices(inst, solution.prices)
    assert calls == [template.ground]


def positions(mask):
    """Canonical order's defining key: the sorted bit positions of a mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_canon_before_is_the_sorted_positions_order():
    for a in range(256):
        for b in range(256):
            assert pricing._canon_before(a, b) == (positions(a) < positions(b)), (a, b)


@given(
    st.sets(st.integers(min_value=0, max_value=63), max_size=24),
    st.tuples(*[st.integers(min_value=0, max_value=1)] * 6),
    st.integers(min_value=0, max_value=63),
    st.sampled_from(GroundChoice),
)
@settings(max_examples=200, deadline=None)
def test_best_by_pattern_matches_brute_force(members, gains, leader_mask, ground):
    # Gains of 0 and 1 make many members tie on their pattern's best gain.
    names = [f"e{i}" for i in range(6)]
    family = [frozenset(n for i, n in enumerate(names) if m >> i & 1) for m in members]
    base = explicit_problem(
        [Element(n) for n in names], family, {n: 1 for n in names}, 3, Sense.MIN
    )
    if ground is GroundChoice.SOLUTIONS:
        members = {m for m in members if len(positions(m)) <= 3}
    by_pattern = {}
    for m in members:
        gain = sum(gains[i] for i in positions(m))
        by_pattern.setdefault(m & leader_mask, []).append((gain, m))
    expected = {}
    for pattern, scored in by_pattern.items():
        top = max(gain for gain, _ in scored)
        expected[pattern] = (top, min((m for g, m in scored if g == top), key=positions))
    assert best_by_pattern(base, ground, leader_mask, gains, 24) == expected
