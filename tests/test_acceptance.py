"""Acceptance suite: nine exact checks at desk scale.

Each test prints one pass/fail line (visible under pytest -s); every
comparison is exact rational or integer equality, nothing is toleranced.
Seeded corpora are deterministic, so reruns exercise identical instances.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from pricegame.compilers import (
    compile_qdnf_pricing,
    lift_feas,
    lift_max,
    lift_min,
    qdnf_holds,
    weight_lift,
)
from pricegame.core import (
    Element,
    ReductionArtifact,
    Sense,
    check_reduction,
    explicit_problem,
    identity_reduction,
    solution_set,
)
from pricegame.linprog import solve_lp
from pricegame.pricing import (
    Domain,
    GroundChoice,
    PricingInstance,
    decide_pricing,
    evaluate_prices,
    solve_pricing,
)
from pricegame.problems import (
    CnfFormula,
    sat_problem,
    sat_to_subset_sum,
    sat_to_vertex_cover,
)
from pricegame.sweep import exhaustive_one_pair_corpus, random_formula

from lp_oracle import (
    farkas_certificate,
    oracle_solve,
    rows_of,
    satisfies,
    verify_farkas,
    verify_ray,
)
from test_linprog import random_lp

SEED = 20250810


def report(number: int, description: str, passed: bool):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} {description}", flush=True)
    assert passed, f"criterion {number}: {description}"


def domain_variant(inst: PricingInstance, domain: Domain,
                   threshold=None) -> PricingInstance:
    return PricingInstance(
        inst.base,
        inst.leader_ids,
        inst.valuation,
        inst.ground,
        domain,
        inst.threshold if threshold is None else threshold,
    )


@pytest.fixture(scope="module")
def compiled_corpus():
    corpus = [("exh", q) for q in exhaustive_one_pair_corpus()]
    rng = random.Random(SEED)
    corpus += [("rand", random_formula(rng, 2, 3)) for _ in range(200)]
    return [(tag, q, compile_qdnf_pricing(q), qdnf_holds(q)) for tag, q in corpus]


def random_feas_sat_source(rng: random.Random, max_vars=4, max_clauses=3,
                           max_profit=5):
    """A satisfiable pricing-over-sat source with an all-follower solution.

    The second condition keeps the game bounded, matching the standing
    assumption of every lift.
    """
    while True:
        n = rng.randint(2, max_vars)
        clauses = set()
        for _ in range(rng.randint(1, max_clauses)):
            width = rng.randint(2, 3)
            variables = rng.sample(range(1, n + 1), min(width, n))
            clauses.add(frozenset(v if rng.randint(0, 1) else -v for v in variables))
        formula = CnfFormula(n, tuple(clauses))
        base = sat_problem(formula)
        solutions = base.solution_masks()
        if not solutions:
            continue
        ids = [e.id for e in base.universe]
        leader = frozenset(i for i in ids if rng.randint(0, 1))
        leader_mask = base.mask_of(leader)
        if all(s & leader_mask for s in solutions):
            continue
        valuation = {i: rng.randint(0, max_profit) for i in ids}
        return formula, PricingInstance(base, leader, valuation, GroundChoice.SOLUTIONS)


@pytest.fixture(scope="module")
def lifted_corpus():
    rng = random.Random(SEED + 1)
    corpus = []
    for _ in range(100):
        formula, source = random_feas_sat_source(rng)
        value = solve_pricing(source).leader_value
        vc_artifact = sat_to_vertex_cover(formula)
        min_lifted, min_params = lift_min(source, vc_artifact)
        ss_artifact = sat_to_subset_sum(formula)
        max_lifted, max_params = lift_max(source, ss_artifact)
        corpus.append({
            "formula": formula,
            "source": source,
            "value": value,
            "vc_artifact": vc_artifact,
            "min": (min_lifted, min_params),
            "max": (max_lifted, max_params),
        })
    return corpus


def test_criterion_1_compiler_equivalence_sweep(compiled_corpus):
    mismatches = [
        (tag, [sorted(t) for t in q.terms])
        for tag, q, compiled, expected in compiled_corpus
        if decide_pricing(compiled.pricing) is not expected
    ]
    report(1, f"oracle equivalence on {len(compiled_corpus)} compiled instances "
              f"(exhaustive one-pair corpus plus 200 seeded two-pair)",
           not mismatches)


def all_formulas(num_vars: int, max_clauses: int, max_width: int = 3):
    literals = [v for i in range(1, num_vars + 1) for v in (i, -i)]
    clauses = []
    for width in range(1, max_width + 1):
        for combo in itertools.combinations(literals, width):
            if any(-lit in combo for lit in combo):
                continue
            clauses.append(frozenset(combo))
    for count in range(max_clauses + 1):
        for chosen in itertools.combinations(clauses, count):
            yield CnfFormula(num_vars, tuple(chosen))


def test_criterion_2_reduction_certification():
    checked = 0
    failures = []
    for num_vars in (1, 2, 3):
        for formula in all_formulas(num_vars, max_clauses=3):
            source = sat_problem(formula)
            for build in (sat_to_vertex_cover, sat_to_subset_sum):
                outcome = check_reduction(source, build(formula))
                checked += 1
                if not outcome.passed:
                    failures.append((build.__name__, formula, outcome.failing_checks()))
    report(2, f"{checked} certifications over the exhaustive formula corpus "
              f"(three checks each)", not failures)


def test_criterion_3_lift_value_preservation(lifted_corpus):
    failures = []
    for entry in lifted_corpus:
        source, value = entry["source"], entry["value"]
        min_value = solve_pricing(entry["min"][0]).leader_value
        max_value = solve_pricing(entry["max"][0]).leader_value
        feas_lifted, _ = lift_feas(source, identity_reduction(source.base))
        feas_value = solve_pricing(feas_lifted).leader_value
        if not value == min_value == max_value == feas_value:
            failures.append((entry["formula"], value, min_value, max_value, feas_value))
    report(3, "exact leader-value preservation through the minimization, "
              "maximization and feasibility lifts on 100 seeded sources",
           not failures)


def sample_price_vector(rng: random.Random, leader, scale: int):
    prices = {}
    for e in sorted(leader):
        if rng.randint(0, 1):
            numerator = rng.randint(0, 2 * scale)
        else:
            numerator = rng.randint(-2 * scale, 2 * scale)
        prices[e] = Fraction(numerator, rng.randint(1, 7))
    return prices


def test_criterion_4_follower_bound_under_any_prices(lifted_corpus):
    rng = random.Random(SEED + 2)
    violations = 0
    for entry in lifted_corpus:
        for mode in ("min", "max"):
            lifted, params = entry[mode]
            bound = params.target_optimum * params.weight_scale
            for _ in range(50):
                prices = sample_price_vector(rng, lifted.leader_ids, params.weight_scale)
                outcome = evaluate_prices(lifted, prices)
                ok = outcome.follower_value <= bound if mode == "min" \
                    else outcome.follower_value >= bound
                violations += not ok
    report(4, "follower optimum bounded by target-optimum times scale for "
              "50 price vectors on each lifted instance", violations == 0)


def test_criterion_5_ground_set_collapse(lifted_corpus):
    rng = random.Random(SEED + 3)
    checked = 0
    failures = 0
    for entry in lifted_corpus:
        for mode in ("min", "max"):
            lifted, params = entry[mode]
            solutions = dataclasses.replace(lifted, ground=GroundChoice.SOLUTIONS)
            for _ in range(50):
                prices = sample_price_vector(rng, lifted.leader_ids, params.weight_scale)
                over_feasible = evaluate_prices(lifted, prices)
                if over_feasible.leader_value < 0:
                    continue
                over_solutions = evaluate_prices(solutions, prices)
                checked += 1
                failures += over_feasible.leader_value != over_solutions.leader_value
    report(5, f"optimistic value identical over feasible sets and solution sets "
              f"for {checked} reasonable price vectors", failures == 0 and checked > 1000)


def test_criterion_6_domain_restriction_robustness(compiled_corpus, lifted_corpus):
    disagreements = []
    for tag, q, compiled, expected in compiled_corpus:
        decisions = {
            domain: decide_pricing(domain_variant(compiled.pricing, domain))
            for domain in (Domain.FREE, Domain.NONNEG, Domain.CAPPED, Domain.BOX)
        }
        if set(decisions.values()) != {expected}:
            disagreements.append((tag, decisions))
    for entry in lifted_corpus:
        lifted, _ = entry["min"]
        for domain in (Domain.FREE, Domain.LOWER_CAP):
            if decide_pricing(domain_variant(lifted, domain, entry["value"])) is not True:
                disagreements.append(("lowercap", entry["formula"]))
    report(6, "identical decisions under free, nonnegative, capped and boxed "
              "prices on every compiled instance, and under the lower-capped "
              "domain on the minimization lifts", not disagreements)


def test_criterion_7_lp_against_bruteforce_oracle():
    rng = random.Random(SEED)
    failures = []
    for index in range(500):
        lp = random_lp(rng)
        out = solve_lp(lp)
        status, value, certificate = oracle_solve(lp)
        rows = rows_of(lp)
        ok = out.status.value == status
        if ok and status == "optimal":
            ok = out.optimal_value == value and satisfies(rows, out.witness)
        elif ok and status == "unbounded":
            point, ray = certificate
            ok = satisfies(rows, point) and verify_ray(rows, ray, lp.objective)
        elif ok and status == "infeasible":
            multipliers = farkas_certificate(rows, lp.num_vars)
            ok = multipliers is not None and verify_farkas(rows, multipliers)
        if not ok:
            failures.append(index)
    report(7, "500 seeded LPs match the basic-point oracle, with ray and "
              "multiplier certificates for unbounded and infeasible verdicts",
           not failures)


def test_criterion_8_weight_transform_preserves_solutions(lifted_corpus):
    failures = 0
    for entry in lifted_corpus:
        artifact = entry["vc_artifact"]
        target = artifact.target

        transformed = weight_lift(target, artifact.image_ids())
        exact = {
            m for m in target.feasible_masks()
            if target.weight_of_mask(m) == target.threshold
        }
        failures += set(transformed.solution_masks()) != exact

        # The same target with zero-weight embedded elements: its solution
        # family as an explicit minimization problem, then rescaled.
        family = solution_set(target)
        zero_view = explicit_problem(
            target.universe, family, {e.id: 0 for e in target.universe}, 0, Sense.MIN
        )
        zero_artifact = ReductionArtifact(
            artifact.source_universe, zero_view, dict(artifact.embedding)
        )
        rescaled = weight_lift(zero_view, zero_artifact.image_ids())
        exact_zero = {
            m for m in zero_view.feasible_masks() if zero_view.weight_of_mask(m) == 0
        }
        failures += set(rescaled.solution_masks()) != exact_zero

        # lift_min must apply the rescaling itself and still preserve value.
        relifted, _ = lift_min(entry["source"], zero_artifact)
        failures += solve_pricing(relifted).leader_value != entry["value"]
    report(8, "weight rescaling preserves the solution family on unit-weight "
              "and zero-weight cover targets, and the minimization lift "
              "rescales automatically", failures == 0)


def test_criterion_9_optimistic_tie_breaking():
    base = explicit_problem(
        [Element("e1"), Element("e2")],
        [frozenset({"e1", "e2"}), frozenset({"e2"})],
    )
    inst = PricingInstance(
        base, frozenset({"e1"}), {"e1": 4, "e2": 1}, GroundChoice.SOLUTIONS
    )
    outcome = solve_pricing(inst)
    passed = (
        outcome.leader_value == 4
        and outcome.response == frozenset({"e1", "e2"})
        and outcome.prices["e1"] == 4
        and outcome.follower_value == 1
    )
    report(9, "hand-built tie resolves toward the leader at value 4", passed)
