import dataclasses
import hashlib
import random

import pytest

from pricegame.compilers import (
    QdnfFormula,
    compile_qdnf_pricing,
    lift_feas,
    lift_max,
    lift_min,
    qdnf,
    qdnf_holds,
    weight_lift,
)
from pricegame.core import (
    CapExceededError,
    CertificationError,
    ReductionArtifact,
    identity_reduction,
    solution_set,
)
from pricegame.pricing import (
    Domain,
    GroundChoice,
    PricingInstance,
    decide_pricing,
    solve_pricing,
)
from pricegame.problems import cnf, sat_problem, sat_to_subset_sum, sat_to_vertex_cover
from pricegame.serialize import (
    decode_pricing,
    dump_document,
    encode_pricing,
    load_document,
    make_document,
    pricing_summary,
)
from pricegame.sweep import random_formula


def test_oracle_examples():
    assert qdnf_holds(qdnf(1, [{1}])) is True
    assert qdnf_holds(qdnf(1, [{1, 2}])) is False
    assert qdnf_holds(qdnf(1, [])) is False


def test_oracle_enumeration_bound():
    with pytest.raises(CapExceededError):
        qdnf_holds(qdnf(13, [{1}]))


def test_certification_cap_errors_name_the_lift_and_the_problem():
    compiled = compile_qdnf_pricing(qdnf(1, [{1}]))
    source = compiled.pricing
    cases = (
        (lift_min, sat_to_vertex_cover(compiled.formula), 24,
         "lift-min certification of the vertex-cover target: a universe of 67 elements", 67),
        (lift_max, sat_to_subset_sum(compiled.formula), 24,
         "lift-max certification of the subset-sum target: a universe of 56 elements", 56),
        (lift_feas, identity_reduction(source.base), 5,
         "lift-feas certification of the sat source: a search over 9 binary choices", 9),
    )
    for lift, artifact, cap, stage, size in cases:
        with pytest.raises(CapExceededError) as err:
            lift(source, artifact, cap)
        assert str(err.value) == f"{stage} exceeds the enumeration cap of {cap}"
        assert (err.value.size, err.value.cap) == (size, cap)


def test_formula_validation():
    with pytest.raises(ValueError):
        QdnfFormula(1, (frozenset({1, -1}),))
    with pytest.raises(ValueError):
        QdnfFormula(1, (frozenset({3}),))
    with pytest.raises(ValueError):
        QdnfFormula(0, ())


def test_compile_shape_for_one_pair():
    compiled = compile_qdnf_pricing(qdnf(1, [{1}]))
    assert compiled.price_unit == 2
    assert compiled.decision_threshold == 2 * 2 - 1
    assert len(compiled.pricing.base.universe) == 18
    assert compiled.pricing.ground is GroundChoice.SOLUTIONS
    assert compiled.pricing.domain is Domain.FREE
    leader = compiled.pricing.leader_ids
    assert leader == {"toll", "sel_true1", "sel_false1"}
    assert compiled.pricing.valuation["toll"] == 2
    assert compiled.pricing.valuation["fallback"] == 1
    assert compiled.pricing.valuation["dodge"] == 1
    assert compiled.pricing.valuation["sel_skip1"] == 1
    assert set(compiled.atlas) >= {"fallback", "engage", "toll", "dodge"}


def test_compile_decides_like_the_oracle_on_the_examples():
    for terms, expected in (([{1}], True), ([{1, 2}], False)):
        compiled = compile_qdnf_pricing(qdnf(1, terms))
        assert decide_pricing(compiled.pricing) is expected


def source_instance(formula, leader, valuation):
    base = sat_problem(formula)
    return PricingInstance(
        base, frozenset(leader), valuation, GroundChoice.SOLUTIONS
    )


def small_source():
    formula = cnf(2, [[1, 2]])
    valuation = {"x1": 3, "~x1": 0, "x2": 1, "~x2": 2}
    return formula, source_instance(formula, {"x1", "x2"}, valuation)


def test_lift_max_arithmetic():
    formula, src = small_source()
    artifact = sat_to_subset_sum(formula)
    lifted, params = lift_max(src, artifact)
    # Universe of 4 literals, valuations summing to 6.
    assert params.weight_scale == 4 * 4 * 6
    scale = params.weight_scale
    target = artifact.target
    for e in target.universe:
        expected = scale * target.weights[e.id]
        if e.id in artifact.image_ids():
            expected += src.valuation[e.id]
        assert lifted.valuation[e.id] == expected
    assert lifted.ground is GroundChoice.FEASIBLE
    assert lifted.threshold == src.threshold
    assert lifted.leader_ids == frozenset({"x1", "x2"})


def test_lift_min_arithmetic_on_unit_weight_target():
    formula, src = small_source()
    artifact = sat_to_vertex_cover(formula)
    lifted, params = lift_min(src, artifact)
    scale = params.weight_scale
    assert scale == 4 * 4 * 6
    for e in artifact.target.universe:
        cost = lifted.valuation[e.id]
        if e.id in artifact.image_ids():
            source_id = next(iter(artifact.pull_back({e.id})))
            assert cost == scale - src.valuation[source_id]
        else:
            assert cost == scale
        assert cost >= 0
    assert params.target_optimum == artifact.target.threshold


def test_lift_rejects_wrong_sense_and_uncertified_artifacts():
    formula, src = small_source()
    vc = sat_to_vertex_cover(formula)
    ss = sat_to_subset_sum(formula)
    with pytest.raises(ValueError):
        lift_max(src, vc)
    with pytest.raises(ValueError):
        lift_min(src, ss)
    broken_embedding = dict(ss.embedding)
    broken_embedding["x1"], broken_embedding["~x1"] = (
        broken_embedding["~x1"],
        broken_embedding["x1"],
    )
    broken = ReductionArtifact(ss.source_universe, ss.target, broken_embedding)
    with pytest.raises(CertificationError):
        lift_max(src, broken)


def test_lifts_report_the_weight_of_every_target_solution():
    # The lift takes the optimum from certification; listing the target's
    # solutions agrees, and an unsatisfiable source gives no optimum.
    unsatisfiable = cnf(1, [[1], [-1]])
    sources = [(unsatisfiable, source_instance(unsatisfiable, set(), {"x1": 1, "~x1": 2}))]
    sources += list(seeded_sat_sources(random.Random(5), 8))
    for formula, src in sources:
        for lift, artifact in ((lift_min, sat_to_vertex_cover(formula)),
                               (lift_max, sat_to_subset_sum(formula)),
                               (lift_feas, identity_reduction(src.base))):
            _, params = lift(src, artifact)
            target = artifact.target
            weights = {target.weight_of_mask(m) for m in target.solution_masks()}
            assert [params.target_optimum] == (sorted(weights) or [None])


def test_lift_feas_through_identity_preserves_instance():
    formula, src = small_source()
    lifted, params = lift_feas(src, identity_reduction(src.base))
    assert lifted.valuation == {k: int(v) for k, v in src.valuation.items()}
    assert lifted.leader_ids == src.leader_ids
    assert solve_pricing(lifted).leader_value == solve_pricing(src).leader_value


def test_weight_lift_formulas():
    # Two embedded zero-weight elements: weights become 1, threshold 0*3 + 1.
    base = sat_to_vertex_cover(cnf(1, [])).target
    problem = weight_lift(
        _with_weights(base, {v: 0 for v in _ids(base)}, 0), _ids(base)
    )
    assert all(problem.weights[i] == 1 for i in _ids(problem))
    assert problem.threshold == 0 * 3 + 1

    # Unit-weight single-edge instance: scale 3, plus 1 on the image.
    formula = cnf(1, [])
    artifact = sat_to_vertex_cover(formula)
    lifted = weight_lift(artifact.target, artifact.image_ids())
    assert lifted.threshold == 3 * artifact.target.threshold + 1
    for i in _ids(lifted):
        expected = 3 * artifact.target.weights[i] + (1 if i in artifact.image_ids() else 0)
        assert lifted.weights[i] == expected
    # Solution sets agree before and after.
    assert solution_set(artifact.target) == solution_set(lifted)


def test_weight_lift_requires_even_image_and_min_sense():
    formula = cnf(1, [])
    artifact = sat_to_vertex_cover(formula)
    with pytest.raises(ValueError):
        weight_lift(artifact.target, {"v:x1"})
    with pytest.raises(ValueError):
        weight_lift(sat_to_subset_sum(formula).target, frozenset())


def _ids(problem):
    return frozenset(e.id for e in problem.universe)


def _with_weights(problem, weights, threshold):
    from pricegame.core import GroundProblem, Sense

    clone = GroundProblem(
        universe=problem.universe,
        weights=weights,
        threshold=threshold,
        sense=Sense.MIN,
        feasible=problem.feasible,
        mask_enumerator=problem.mask_enumerator,
        name=problem.name,
        cost_bits=problem.cost_bits,
    )
    return clone


def test_compiled_instance_always_has_an_outside_option():
    rng = random.Random(11)
    for _ in range(10):
        q = random_formula(rng, 2, 3)
        compiled = compile_qdnf_pricing(q)
        solutions = solution_set(compiled.pricing.base)
        leader = compiled.pricing.leader_ids
        assert any(not (s & leader) for s in solutions)


def test_compiled_leader_value_never_exceeds_threshold():
    rng = random.Random(3)
    for _ in range(6):
        q = random_formula(rng, 1, 2)
        compiled = compile_qdnf_pricing(q)
        outcome = solve_pricing(compiled.pricing)
        assert outcome.leader_value <= compiled.decision_threshold


@pytest.mark.parametrize("seed, expected", [(0, True), (1, False), (2, True), (3, False)])
def test_three_pair_compiled_decision_matches_oracle(seed, expected):
    # Compiled bases of 19 satisfiability variables, a few hundred solutions.
    q = random_formula(random.Random(seed), 3, 3)
    assert qdnf_holds(q) is expected
    assert decide_pricing(compile_qdnf_pricing(q).pricing) is expected


# sha256 of the summaries and documents below, recorded before the weighing
# of ground families was batched; every lifted document and solve must keep
# these bytes.
LIFT_CHAIN_DIGEST = "e143e07e333d48923c591c5c63c1b78fb9800f77a40bda912f29c933bece21e7"


def seeded_sat_sources(rng, count):
    for _ in range(count):
        num_vars = rng.randint(2, 5)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            variables = rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))
            clauses.append([v if rng.randint(0, 1) else -v for v in variables])
        formula = cnf(num_vars, clauses)
        base = sat_problem(formula)
        leader = {e.id for e in base.universe if rng.randint(0, 2) == 0}
        valuation = {e.id: rng.randint(0, 5) for e in base.universe}
        yield formula, source_instance(formula, leader, valuation)


def test_lift_chain_writes_the_pinned_bytes():
    hasher = hashlib.sha256()
    for k, (formula, src) in enumerate(seeded_sat_sources(random.Random(5), 16)):
        for mode, lift, artifact in (
            ("min", lift_min, sat_to_vertex_cover(formula)),
            ("max", lift_max, sat_to_subset_sum(formula)),
            ("feas", lift_feas, identity_reduction(src.base)),
        ):
            lifted, params = lift(src, artifact)
            text = dump_document(make_document("pricing", encode_pricing(lifted)))
            decoded = decode_pricing(load_document(text)["payload"])
            lines = [f"source {k} lift {mode} optimum {params.target_optimum}"]
            lines += pricing_summary(decoded, solve_pricing(decoded))
            hasher.update(("\n".join(lines) + "\n" + text).encode())
    assert hasher.hexdigest() == LIFT_CHAIN_DIGEST


# sha256 of the summaries below, recorded before the LP moved to integer
# data.  Lower-cap prices are bounded below by minus the valuation, so these
# solves shift their variables by negative offsets; the printed prices and
# responses must keep these bytes.
LOWER_CAP_DIGEST = "97c2f3dbf3390d52004297773bf07621a785b1a8b36af068dfecab6ad9c48e97"


def test_lower_cap_solves_of_lifted_sources_are_pinned():
    lines = []
    for k, (formula, src) in enumerate(seeded_sat_sources(random.Random(5), 32)):
        lifted, _ = lift_min(src, sat_to_vertex_cover(formula))
        inst = dataclasses.replace(lifted, domain=Domain.LOWER_CAP)
        lines += [f"source {k} lowercap"]
        lines += pricing_summary(inst, solve_pricing(inst))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LOWER_CAP_DIGEST
