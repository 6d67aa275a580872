import dataclasses
import functools
import hashlib
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pricegame import core, pricing, problems
from pricegame.compilers import compile_qdnf_pricing, lift_feas, lift_max, lift_min
from pricegame.core import (
    Element,
    ExplicitProblem,
    Sense,
    best_by_enumeration,
    best_by_pattern,
    explicit_problem,
    identity_reduction,
)
from pricegame.linprog import LpOutcome, LpStatus
from pricegame.pricing import (
    Domain,
    GroundChoice,
    NoFollowerSolutionError,
    PricingInstance,
    SolveStatus,
    decide_pricing,
    evaluate_prices,
    solve_pricing,
)
from pricegame.problems import (
    cnf,
    sat_problem,
    sat_to_subset_sum,
    sat_to_vertex_cover,
    subset_sum_problem,
    vertex_cover_problem,
)
from pricegame.serialize import pricing_summary
from pricegame.sweep import decision_fields, random_formula
from pricing_reference import evaluate_every_pattern, solve_every_candidate
from test_compilers import seeded_sat_sources


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
    fields = decision_fields(inst, solve_pricing(inst))
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
    with pytest.raises(NoFollowerSolutionError):
        evaluate_prices(inst, {"x1": Fraction(0)})


def test_no_feasible_candidate_is_a_runtime_error(monkeypatch):
    # Some pattern is always follower-optimal, so this is an internal
    # fault; it must raise even under python -O.
    monkeypatch.setattr(pricing, "solve_lp", lambda lp: LpOutcome(LpStatus.INFEASIBLE))
    with pytest.raises(RuntimeError, match="every candidate LP is infeasible"):
        solve_pricing(two_item_instance())


def test_unbounded_candidate_is_a_runtime_error(monkeypatch):
    # Every candidate's revenue is bounded by its gain lead, so this too is
    # an internal fault.
    monkeypatch.setattr(pricing, "solve_lp", lambda lp: LpOutcome(LpStatus.UNBOUNDED))
    with pytest.raises(RuntimeError, match="candidate LP unbounded despite structural bound"):
        solve_pricing(two_item_instance())


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
@settings(max_examples=60, deadline=None)
def test_a_solve_is_the_evaluation_of_its_own_prices(seed):
    # Per seed: a random explicit instance, the three lifts of a sat source
    # and thm2 compiles at one and two pairs, each under every domain that
    # applies.  A tied response paying the leader more would have won its
    # own LP, so the evaluation picks the solve's response, canonical ties
    # included, and the outcomes are equal field for field.
    rng = random.Random(seed)
    formula, src = next(seeded_sat_sources(rng, 1))
    instances = [random_instance(rng)]
    instances += [lift(src, artifact)[0] for lift, artifact in (
        (lift_min, sat_to_vertex_cover(formula)),
        (lift_max, sat_to_subset_sum(formula)),
        (lift_feas, identity_reduction(src.base)),
    )]
    instances += [compile_qdnf_pricing(random_formula(rng, pairs, 3)).pricing for pairs in (1, 2)]
    for inst in instances:
        for domain in Domain:
            if domain is Domain.LOWER_CAP and inst.base.sense is not Sense.MIN:
                continue
            here = dataclasses.replace(inst, domain=domain)
            solution = solve_pricing(here)
            if solution.status is SolveStatus.OPTIMAL:
                assert evaluate_prices(here, solution.prices) == solution


@pytest.mark.parametrize("price", [0.1, True, "1/2"], ids=["float", "bool", "str"])
def test_evaluate_prices_takes_only_exact_prices(price):
    with pytest.raises(TypeError, match=f"price {price!r} on 'eL' is not an int or a Fraction"):
        evaluate_prices(two_item_instance(), {"eL": price})


def test_evaluate_prices_returns_its_prices_as_fractions():
    outcome = evaluate_prices(two_item_instance(), {"eL": 2})
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.prices == {"eL": Fraction(2)}
    assert type(outcome.prices["eL"]) is Fraction
    assert (outcome.leader_value, outcome.follower_value) == (2, 3)
    assert outcome.response == frozenset({"eL"})


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
    prices = {e: gross[e] - incentives[e] for e in leader}
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


class ReversedEnumeration(ExplicitProblem):
    """An explicit problem answering with best_by_enumeration's patterns reversed."""

    def patterns(self, *args):
        return dict(reversed(best_by_enumeration(self, *args).items()))


@given(
    st.sets(st.integers(min_value=0, max_value=31), min_size=1, max_size=16),
    st.integers(min_value=0, max_value=31),
    st.tuples(*[st.integers(min_value=0, max_value=6)] * 5),
    st.sampled_from(Domain),
    st.booleans(),
)
# Family {}, e0, e0e1e2, e0e1e4, e0e2, e0e3e4, e0e4, e1e2e3, e1e2e4, e1e3,
# e1e4, e2e4, e3e4 with leader e0..e3: with rows in the answer's order, the
# reversed answer led Bland's rule to other capped prices.
@example({0, 0b1, 0b111, 0b10011, 0b101, 0b11001, 0b10001, 0b1110, 0b10110, 0b1010,
          0b10010, 0b10100, 0b11000}, 0b1111, (2, 3, 4, 4, 2), Domain.CAPPED, False)
@settings(max_examples=200, deadline=None)
def test_solve_does_not_depend_on_pattern_order(members, leader_mask, values, domain,
                                                minimizing):
    names = [f"e{i}" for i in range(5)]
    family = [frozenset(n for i, n in enumerate(names) if m >> i & 1) for m in members]
    sense = Sense.MIN if minimizing or domain is Domain.LOWER_CAP else Sense.FEASIBILITY
    base = explicit_problem([Element(n) for n in names], family, sense=sense)
    flipped = ReversedEnumeration(base.universe, base.weights, base.threshold, base.sense,
                                  base.masks)
    leader = frozenset(n for i, n in enumerate(names) if leader_mask >> i & 1)
    valuation = dict(zip(names, values))
    inst = PricingInstance(base, leader, valuation, GroundChoice.FEASIBLE, domain)
    assert solve_pricing(dataclasses.replace(inst, base=flipped)) == solve_pricing(inst)


def test_valuation_must_cover_universe_and_be_nonnegative():
    base = explicit_problem([Element("a")], [frozenset({"a"})])
    with pytest.raises(ValueError):
        PricingInstance(base, frozenset({"a"}), {"a": -1}, GroundChoice.SOLUTIONS)
    with pytest.raises(ValueError):
        PricingInstance(base, frozenset({"b"}), {"a": 1}, GroundChoice.SOLUTIONS)


@pytest.mark.parametrize("valuation, threshold, message", [
    ({"a": 1.5}, 0, "valuation 1.5 is not an int"),
    ({"a": True}, 0, "valuation True is not an int"),
    ({"a": 1}, 0.1, "threshold 0.1 is not an int or a Fraction"),
    ({"a": 1}, True, "threshold True is not an int or a Fraction"),
])
def test_valuation_and_threshold_must_be_exact(valuation, threshold, message):
    base = explicit_problem([Element("a")], [frozenset({"a"})])
    with pytest.raises(TypeError, match=message):
        PricingInstance(base, frozenset({"a"}), valuation, GroundChoice.SOLUTIONS,
                        threshold=threshold)


@pytest.mark.parametrize("threshold", [3, Fraction(1, 3)])
def test_an_exact_threshold_is_stored_as_a_fraction(threshold):
    base = explicit_problem([Element("a")], [frozenset({"a"})])
    inst = PricingInstance(base, frozenset({"a"}), {"a": 1}, GroundChoice.SOLUTIONS,
                           threshold=threshold)
    assert inst.threshold == threshold and type(inst.threshold) is Fraction


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


def every_kind_instances(rng: random.Random):
    """A random explicit instance, a small sat source, its three lifts (vertex
    cover, subset sum, sat over its feasible sets) and a thm2 compile."""
    n = rng.randint(2, 3)
    clauses = []
    for _ in range(rng.randint(1, 2)):
        variables = rng.sample(range(1, n + 1), rng.randint(1, n))
        clauses.append([v if rng.randint(0, 1) else -v for v in variables])
    formula = cnf(n, clauses)
    base = sat_problem(formula)
    src = PricingInstance(base, frozenset(e.id for e in base.universe if rng.randint(0, 2) == 0),
                          {e.id: rng.randint(0, 5) for e in base.universe},
                          GroundChoice.SOLUTIONS)
    yield random_instance(rng)
    yield src
    yield lift_min(src, sat_to_vertex_cover(formula))[0]
    yield lift_max(src, sat_to_subset_sum(formula))[0]
    yield lift_feas(src, identity_reduction(base))[0]
    yield compile_qdnf_pricing(random_formula(rng, rng.randint(1, 2), 3)).pricing


def under_every_domain(inst: PricingInstance):
    for domain in Domain:
        if domain is not Domain.LOWER_CAP or inst.base.sense is Sense.MIN:
            yield dataclasses.replace(inst, domain=domain)


@pytest.mark.parametrize("seed", range(40))
def test_solver_equals_the_solve_every_candidate_reference(seed):
    # The reference lists the family and solves every candidate's LP.  Under
    # capped prices alone it writes each price as cap - y with y >= 0, where
    # the solver takes the caps as unit rows; under box prices both take the
    # unit rows.  Only the capped domain's formulation differs from the
    # solver's, so only there may another optimal vertex be chosen; its
    # prices must still evaluate to the solver's own outcome.
    for inst in every_kind_instances(random.Random(seed)):
        for here in under_every_domain(inst):
            solution = solve_pricing(here)
            reference = solve_every_candidate(here)
            assert dataclasses.replace(solution, prices=None) == \
                dataclasses.replace(reference, prices=None)
            if here.domain is not Domain.CAPPED:
                assert solution.prices == reference.prices
            elif solution.status is SolveStatus.OPTIMAL:
                assert evaluate_prices(here, solution.prices) == solution


def solve_patterns(inst: PricingInstance) -> dict[int, tuple[int, int]]:
    """The leader patterns a solve of inst reads, at cap 24."""
    base = inst.base
    gains = tuple(base.sense.sign * inst.valuation[e.id] for e in base.universe)
    return best_by_pattern(base, inst.ground, base.mask_of(inst.leader_ids), gains, 24)


def test_caps_are_the_last_rows_and_lower_bounds_the_only_lp_bounds(monkeypatch):
    # Under capped and box prices each candidate LP ends with e_k <= cap_k,
    # one unit row per priced element in the order of their bits, and the
    # lower bounds, the LP's only bounds, are the domain's.
    lps = []
    solve_lp = pricing.solve_lp
    monkeypatch.setattr(pricing, "solve_lp", lambda lp: lps.append(lp) or solve_lp(lp))
    expected_lower = {Domain.FREE: None, Domain.NONNEG: 0, Domain.CAPPED: None,
                      Domain.BOX: 0, Domain.LOWER_CAP: -1}
    checked = set()
    for seed in range(10):
        for inst in every_kind_instances(random.Random(seed)):
            for here in under_every_domain(inst):
                patterns = solve_patterns(here)
                union = functools.reduce(operator.or_, patterns, 0)
                caps = [here.valuation[here.base.universe[b].id] for b in core.bits(union)]
                n = len(caps)
                low = expected_lower[here.domain]
                capped = here.domain in (Domain.CAPPED, Domain.BOX)
                units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
                del lps[:]
                solve_pricing(here)
                for lp in lps:
                    assert lp.num_vars == n
                    assert lp.lower == ({} if low is None else {k: low * c for k, c in enumerate(caps)})
                    assert len(lp.constraints) == len(patterns) - 1 + n * capped
                    if capped:
                        assert list(lp.constraints[-n:]) == [
                            (unit, c) for unit, c in zip(units, caps)]
                    checked.add(here.domain)
    assert checked == set(Domain)


def test_tie_stop_solves_fewer_lps_for_the_same_solution(monkeypatch):
    # Four candidates' bounds reach the optimum of 10; a walk that solved
    # each of them would take four LPs.  The first in canonical order wins,
    # so the tie stop needs only its LP.
    inst = compile_qdnf_pricing(random_formula(random.Random(0), 2, 3)).pricing
    patterns = solve_patterns(inst)
    reaching = [p for p, (gain, _) in patterns.items() if gain - patterns[0][0] >= 10]
    solved = []
    solve_lp = pricing.solve_lp
    monkeypatch.setattr(pricing, "solve_lp", lambda lp: solved.append(lp) or solve_lp(lp))
    assert pricing_summary(inst, solve_pricing(inst)) == [
        "status: optimal", "leader_value: 10/1", "follower_value: 2/1",
        "price sel_false1 = 7/1", "price sel_false2 = 4/1", "price sel_true1 = 3/1",
        "price sel_true2 = 0/1", "price toll = 7/1",
        "response: engage exists1 exists2 forall1 forall2 sel_true1 sel_true2 toll"
        " ~dodge ~fallback ~sel_false1 ~sel_false2 ~sel_skip1 ~sel_skip2",
    ]
    assert len(reaching) == 4 and len(solved) == 1


def test_instances_are_frozen_and_replace_revalidates():
    inst = two_item_instance()
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.threshold = Fraction(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.domain = Domain.BOX
    with pytest.raises(ValueError):
        dataclasses.replace(inst, threshold=-1)
    with pytest.raises(ValueError, match="^valuation must cover exactly the base universe$"):
        dataclasses.replace(inst, valuation={"eL": 5})
    assert dataclasses.replace(inst, threshold=3).threshold == Fraction(3)


def test_valuation_is_a_read_only_copy_of_the_given_dict():
    inst = two_item_instance()
    with pytest.raises(TypeError):
        inst.valuation["eL"] = 1
    given = {"eL": 5, "eF": 3}
    inst = dataclasses.replace(inst, valuation=given)
    given["eF"] = 0
    assert inst.valuation == {"eL": 5, "eF": 3}
    assert solve_pricing(inst).leader_value == 2


def test_evaluate_prices_on_the_wrong_ids_is_a_value_error():
    inst = two_item_instance()
    for prices in ({}, {"eF": Fraction(1)}, {"eL": Fraction(1), "eF": Fraction(1)}):
        with pytest.raises(ValueError, match="exactly the leader elements"):
            evaluate_prices(inst, prices)


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
    # The problem remembers one answer, the last one asked for.
    key, answer = base._last_answer
    assert key[2] == tuple(-valuation[v] for v in vertices)
    assert core.best_by_pattern(base, *key) is answer


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_evaluation_equals_the_scan_of_every_pattern(seed):
    # Every kind under both grounds, plus an empty family, at random prices:
    # negative, zero and fractional ones.  The reference lists the family
    # and scans every leader pattern with Fraction sums.
    rng = random.Random(seed)
    empty = explicit_problem([Element("a"), Element("b")], [])
    instances = [*every_kind_instances(rng),
                 PricingInstance(empty, frozenset({"a"}), {"a": 1, "b": 2}, GroundChoice.FEASIBLE)]
    for inst in instances:
        for ground in GroundChoice:
            here = dataclasses.replace(inst, ground=ground)
            for _ in range(3):
                prices = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for e in sorted(here.leader_ids)}
                try:
                    expected = evaluate_every_pattern(here, prices)
                except NoFollowerSolutionError:
                    with pytest.raises(NoFollowerSolutionError):
                        evaluate_prices(here, prices)
                    continue
                assert evaluate_prices(here, prices) == expected


def test_evaluation_past_the_cap_names_its_stage():
    base = sat_problem(cnf(3, [[1, 2, 3]]))
    inst = PricingInstance(base, frozenset({"x1"}), {**dict.fromkeys(base.weights, 0), "x1": 2},
                           GroundChoice.SOLUTIONS)
    with pytest.raises(core.CapExceededError, match="^evaluation of the sat ground: a search"
                       " over 3 binary choices exceeds the enumeration cap of 2$"):
        evaluate_prices(inst, {"x1": Fraction(1, 2)}, cap=2)
    outcome = evaluate_prices(inst, {"x1": Fraction(1, 2)}, cap=3)
    assert (outcome.leader_value, outcome.follower_value) == (Fraction(1, 2), Fraction(3, 2))


def test_solves_share_one_collapse_and_evaluations_ask_the_oracle_once(monkeypatch):
    # As in the domain-resolve benchmark: fresh instances over one compiled
    # base, one per domain, each solved and then evaluated at its prices.
    # The solves share one collapse to the leader patterns; each evaluation
    # is one query with leader mask 0 that leaves the solve's answer held.
    template = compile_qdnf_pricing(random_formula(random.Random(1), 2, 3)).pricing
    leader_mask = template.base.mask_of(template.leader_ids)
    calls = []
    collapse = problems._sat_patterns

    def counted(*args):
        calls.append(args)
        return collapse(*args)

    monkeypatch.setattr(problems, "_sat_patterns", counted)
    evaluations = 0
    for domain in (Domain.FREE, Domain.NONNEG, Domain.CAPPED, Domain.BOX, Domain.CAPPED):
        inst = dataclasses.replace(template, domain=domain)
        solution = solve_pricing(inst)
        if solution.status is SolveStatus.OPTIMAL:
            assert evaluate_prices(inst, solution.prices) == solution
            evaluations += 1
    masks = [args[2] for args in calls]
    assert evaluations > 0
    assert masks.count(leader_mask) == 1 and masks.count(0) == evaluations
    assert len(masks) == 1 + evaluations
    gains = tuple(template.valuation[e.id] for e in template.base.universe)
    key, _ = template.base._last_answer
    assert key == (template.ground, leader_mask, gains, 24, None)


def positions(mask):
    """Canonical order's defining key: the sorted bit positions of a mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_canon_before_is_the_sorted_positions_order():
    for a in range(256):
        for b in range(256):
            assert core._canon_before(a, b) == (positions(a) < positions(b)), (a, b)
    # The one best-member rule: a larger key wins, an equal key goes to the
    # canonically first member, and every member beats an empty holder.
    keys = (-1, 0, Fraction(1, 2), 1)
    for k1, k2 in itertools.product(keys, repeat=2):
        for a in range(16):
            assert core._beats(k1, a, None)
            for b in range(16):
                expected = k1 > k2 or k1 == k2 and positions(a) < positions(b)
                assert core._beats(k1, a, (k2, b)) == expected, (k1, a, k2, b)


@given(
    st.sets(st.integers(min_value=0, max_value=63), max_size=24),
    st.tuples(*[st.integers(min_value=0, max_value=1)] * 6),
    st.integers(min_value=0, max_value=63),
    st.sampled_from(GroundChoice),
    st.integers(min_value=-1, max_value=7),
)
@settings(max_examples=200, deadline=None)
def test_best_by_pattern_matches_brute_force(members, gains, leader_mask, ground, floor):
    # Gains of 0 and 1 make many members tie on their pattern's best gain;
    # the floor runs from below every gain to above every gain.
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
    assert best_by_pattern(base, ground, leader_mask, gains, 24, floor) == \
        {p: best for p, best in expected.items() if best[0] >= floor}
