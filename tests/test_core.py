import dataclasses
import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import pricegame
from pricegame import core
from pricegame.compilers import compile_qdnf_pricing, qdnf, qdnf_holds, weight_lift
from pricegame.core import (
    CapExceededError,
    Element,
    GroundChoice,
    GroundProblem,
    ReductionArtifact,
    Sense,
    canonical_family,
    check_reduction,
    explicit_problem,
    identity_reduction,
    mask_sums,
    solution_set,
)
from pricegame.pricing import evaluate_prices, solve_pricing
from pricegame.problems import (
    VertexCoverProblem,
    cnf,
    sat_problem,
    sat_to_vertex_cover,
    vertex_cover_problem,
)
from pricegame.sweep import CorpusSpec, run_sweep


def test_single_edge_cover_solutions():
    problem = vertex_cover_problem(["u", "v"], [("u", "v")], threshold=1)
    assert solution_set(problem) == {frozenset({"u"}), frozenset({"v"})}


def test_forced_literal_solution():
    problem = sat_problem(cnf(1, [[1]]))
    assert solution_set(problem) == {frozenset({"x1"})}


def test_empty_clause_set_keeps_both_assignments():
    problem = sat_problem(cnf(1, []))
    assert solution_set(problem) == {frozenset({"x1"}), frozenset({"~x1"})}


class FirstElementOnly(GroundProblem):
    """A custom kind: only {e0} is feasible, listed by the default subset scan."""

    def feasible(self, mask):
        return mask == 1


def test_cap_is_enforced_and_names_the_cap():
    universe = tuple([Element(f"e{i}") for i in range(6)])
    problem = FirstElementOnly(universe, {e.id: 0 for e in universe}, 0, Sense.FEASIBILITY)
    assert problem.name == "custom" and problem.feasible_masks() == [1]
    with pytest.raises(CapExceededError) as err:
        solution_set(problem, cap=5)
    assert "cap of 5" in str(err.value)


def _path_cover():
    vertices = [f"v{i}" for i in range(10)]
    return vertex_cover_problem(vertices, list(zip(vertices, vertices[1:])), threshold=5)


def test_cap_verdict_does_not_depend_on_call_history():
    warm = _path_cover()
    assert warm.feasible_masks(cap=24)
    with pytest.raises(CapExceededError):
        warm.feasible_masks(cap=5)
    with pytest.raises(CapExceededError):
        warm.solution_masks(cap=5)

    cold = _path_cover()
    with pytest.raises(CapExceededError):
        cold.feasible_masks(cap=5)
    assert cold.feasible_masks(cap=24) == warm.feasible_masks(cap=24)


def test_cap_errors_name_what_they_counted():
    with pytest.raises(CapExceededError) as err:
        _path_cover().feasible_masks(cap=5)
    assert str(err.value) == "a universe of 10 elements exceeds the enumeration cap of 5"
    with pytest.raises(CapExceededError) as err:
        sat_problem(cnf(30, [[1, -30]])).feasible_masks()
    assert str(err.value) == "a search over 30 binary choices exceeds the enumeration cap of 24"
    assert (err.value.size, err.value.cap) == (30, 24)
    with pytest.raises(CapExceededError) as err:
        qdnf_holds(qdnf(13, [{1}]))
    assert str(err.value) == "a search over 26 binary choices exceeds the enumeration cap of 24"


def test_a_negative_cap_is_a_value_error_before_any_walk(monkeypatch):
    # One check in core: the oracle, the solver, the evaluation, the
    # certification and the sweep all refuse the cap itself, before its size
    # is compared or a pattern is asked for.  A cap that is not an int, a
    # bool included, is a TypeError naming it.
    def walked(*args):
        raise AssertionError("walked under a bad cap")

    inst = compile_qdnf_pricing(qdnf(1, [{1}])).pricing
    prices = dict.fromkeys(inst.leader_ids, 0)
    formula = cnf(2, [[1, -2], [2]])
    artifact = sat_to_vertex_cover(formula)
    for kind in (type(inst.base), type(artifact.target)):
        monkeypatch.setattr(kind, "patterns", walked)
        monkeypatch.setattr(kind, "mask_enumerator", walked)
    calls = [
        lambda cap: qdnf_holds(qdnf(13, [{1}]), cap=cap),
        lambda cap: solve_pricing(inst, cap),
        lambda cap: evaluate_prices(inst, prices, cap),
        lambda cap: check_reduction(sat_problem(formula), artifact, cap),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^the enumeration cap must be at least 0, got -1$"):
            call(-1)
        for cap in (2.5, True, "24"):
            with pytest.raises(TypeError) as err:
                call(cap)
            assert str(err.value) == f"the enumeration cap {cap!r} is not an int"
    with pytest.raises(ValueError, match="^the enumeration cap must be at least 0, got -1$"):
        run_sweep(CorpusSpec(pairs=1, max_terms=1, count=2, seed=0), cap=-1)


def test_a_fault_index_that_is_not_an_int_is_a_type_error():
    # True would compare equal to index 1 and corrupt that record.
    with pytest.raises(TypeError) as err:
        run_sweep(CorpusSpec(pairs=1, max_terms=1, count=2, seed=0), inject_fault=True)
    assert str(err.value) == "fault index True is not an int"


def test_pattern_memo_keeps_the_answer_in_use():
    # A question asked again in a row is answered from the memo; any other
    # question replaces it.
    asked = []

    class RecordingCover(VertexCoverProblem):
        def patterns(self, ground, leader_mask, gains, cap, floor=None):
            asked.append(gains)
            return super().patterns(ground, leader_mask, gains, cap, floor)

    base = _path_cover()
    problem = RecordingCover(base.universe, base.weights, base.threshold, base.edges)
    hot, cold = (1,) * problem.size, (2,) * problem.size
    answers = [core.best_by_pattern(problem, GroundChoice.FEASIBLE, 0b11, gains)
               for gains in (hot, hot, cold, cold, hot)]
    assert asked == [hot, cold, hot]
    assert answers[0] is answers[1] and answers[2] is answers[3]
    assert answers[4] == answers[0]


def test_pattern_memo_keys_the_floor():
    # The floored answer drops the patterns whose lightest cover weighs
    # over five, so sharing one entry would hand one query the other's answer.
    problem = _path_cover()
    gains = (-1,) * problem.size
    whole = core.best_by_pattern(problem, GroundChoice.FEASIBLE, 0b111, gains)
    floored = core.best_by_pattern(problem, GroundChoice.FEASIBLE, 0b111, gains, floor=-5)
    assert floored == {p: best for p, best in whole.items() if best[0] >= -5} != whole
    assert core.best_by_pattern(problem, GroundChoice.FEASIBLE, 0b111, gains) == whole


def test_ids_of_matches_the_scan_over_positions():
    problem = _path_cover()
    for mask in range(1 << problem.size):
        assert problem.ids_of(mask) == frozenset(
            problem.universe[i].id for i in range(problem.size) if mask >> i & 1
        )


def test_solution_set_within_enumerator_output():
    problem = vertex_cover_problem(["a", "b", "c"], [("a", "b"), ("b", "c")], threshold=2)
    feasible = {problem.ids_of(m) for m in problem.feasible_masks()}
    assert solution_set(problem) <= feasible
    assert all(problem.feasible(problem.mask_of(s)) for s in feasible)


def test_identity_reduction_passes_all_checks():
    problem = sat_problem(cnf(2, [[1, 2]]))
    report = check_reduction(problem, identity_reduction(problem))
    assert report.passed


def test_garey_johnson_image_passes_all_checks():
    formula = cnf(1, [[1]])
    report = check_reduction(sat_problem(formula), sat_to_vertex_cover(formula))
    assert (report.yes_equivalence, report.family_match, report.threshold_tight) == (
        True,
        True,
        True,
    )


def test_corrupted_embedding_fails_family_check():
    formula = cnf(2, [[1, 2]])
    artifact = sat_to_vertex_cover(formula)
    corrupted = dict(artifact.embedding)
    corrupted["x1"], corrupted["x2"] = corrupted["x2"], corrupted["x1"]
    broken = ReductionArtifact(
        source_universe=artifact.source_universe,
        target=artifact.target,
        embedding=corrupted,
    )
    report = check_reduction(sat_problem(formula), broken)
    assert not report.family_match
    assert "projected-family-equality" in report.failing_checks()
    assert report.detail == (
        "mapped-only=(('v:x1', 'v:~x1'), ('v:x2', 'v:~x2'))"
        " projected-only=(('v:x1', 'v:~x2'), ('v:x2', 'v:~x1'))"
    )


def _over_one_cheap_set(formula):
    """x1 and ~x1 embedded in a and b of a MIN problem whose one feasible
    set, {a}, weighs 1 against a threshold of 2."""
    universe = [Element("a"), Element("b")]
    target = explicit_problem(universe, [frozenset({"a"})], {"a": 1, "b": 1}, 2, Sense.MIN)
    artifact = ReductionArtifact(sat_problem(formula).universe, target, {"x1": "a", "~x1": "b"})
    return check_reduction(sat_problem(formula), artifact)


def test_a_slack_threshold_fails_tightness_alone():
    report = _over_one_cheap_set(cnf(1, [[1]]))
    assert (report.yes_equivalence, report.family_match, report.threshold_tight) == (
        True,
        True,
        False,
    )
    assert report.failing_checks() == ["threshold-tightness"]
    assert report.detail == "1 image patterns hold a feasible set strictly better than threshold"


def test_an_unsatisfiable_source_fails_all_three_checks():
    report = _over_one_cheap_set(cnf(1, [[1], [-1]]))
    assert report.failing_checks() == [
        "yes-equivalence", "projected-family-equality", "threshold-tightness"]


def test_embedding_domain_image_and_source_are_validated():
    formula = cnf(1, [[1]])
    artifact = sat_to_vertex_cover(formula)
    for embedding, message in (
        ({"x1": "v:x1"}, "embedding must be defined on exactly the source universe"),
        (dict(artifact.embedding, x1="nowhere"),
         "embedding image must lie inside the target universe"),
    ):
        with pytest.raises(ValueError) as err:
            ReductionArtifact(artifact.source_universe, artifact.target, embedding)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        check_reduction(sat_problem(cnf(2, [[1]])), artifact)
    assert str(err.value) == "artifact source universe does not match the given source problem"


def test_embedding_must_be_injective():
    formula = cnf(1, [[1]])
    artifact = sat_to_vertex_cover(formula)
    broken = dict(artifact.embedding)
    broken["~x1"] = broken["x1"]
    with pytest.raises(ValueError):
        ReductionArtifact(artifact.source_universe, artifact.target, broken)


def test_feasibility_sense_solutions_are_all_feasible_sets():
    problem = sat_problem(cnf(2, [[1], [2]]))
    assert set(problem.solution_masks()) == set(problem.feasible_masks())


def test_canonical_family_is_order_independent():
    fam1 = [frozenset({"b", "a"}), frozenset({"c"})]
    fam2 = [frozenset({"c"}), frozenset({"a", "b"})]
    assert canonical_family(fam1) == canonical_family(fam2)


def test_sense_invariants_are_validated():
    universe = (Element("e"),)
    with pytest.raises(ValueError):
        GroundProblem(universe, {"e": -1}, 0, Sense.MIN)
    with pytest.raises(ValueError):
        GroundProblem(universe, {"e": 1}, 0, Sense.FEASIBILITY)
    with pytest.raises(ValueError):
        GroundProblem(universe, {"e": 0}, -1, Sense.MIN)
    with pytest.raises(ValueError, match="^universe element ids must be unique$"):
        GroundProblem(universe * 2, {"e": 0}, 0, Sense.FEASIBILITY)
    with pytest.raises(ValueError,
                       match="^maximization problems are encoded with nonnegative weights$"):
        explicit_problem(universe, [frozenset({"e"})], {"e": -1}, 0, Sense.MAX)


def test_problems_are_frozen_and_a_replaced_copy_weighs_afresh():
    universe = [Element("a"), Element("b")]
    family = [frozenset({"a"}), frozenset({"a", "b"})]
    problem = explicit_problem(universe, family, {"a": 1, "b": 1}, 1, Sense.MIN)
    assert problem.solution_masks() == [0b01]
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.threshold = 2
    assert dataclasses.replace(problem, threshold=2).solution_masks() == [0b01, 0b11]
    assert problem.solution_masks() == [0b01]


@pytest.mark.parametrize("weights, threshold, message", [
    ({"a": 0.5, "b": 1}, 1, "weight 0.5 is not an int"),
    ({"a": True, "b": 1}, 1, "weight True is not an int"),
    ({"a": 1, "b": 1}, 1.0, "threshold 1.0 is not an int"),
    ({"a": 1, "b": 1}, False, "threshold False is not an int"),
])
def test_weights_and_threshold_must_be_ints(weights, threshold, message):
    universe = [Element("a"), Element("b")]
    family = [frozenset({"a"}), frozenset({"a", "b"})]
    with pytest.raises(TypeError, match=message):
        explicit_problem(universe, family, weights, threshold, Sense.MIN)


def test_weights_are_a_read_only_copy_of_the_given_dict():
    universe = [Element("a"), Element("b")]
    family = [frozenset({"a"}), frozenset({"a", "b"})]
    given_weights = {"a": 1, "b": 1}
    problem = explicit_problem(universe, family, given_weights, 1, Sense.MIN)
    with pytest.raises(TypeError):
        problem.weights["a"] = 2
    given_weights["a"] = 2
    assert problem.weights == {"a": 1, "b": 1}
    assert problem.solution_masks() == [0b01]
    # Weighed afresh, the new weight leaves no solution.
    assert dataclasses.replace(problem, weights=given_weights).solution_masks() == []


def test_every_dataclass_in_the_package_is_frozen():
    classes = [
        obj
        for info in pkgutil.iter_modules(pricegame.__path__)
        for _, obj in inspect.getmembers(importlib.import_module(f"pricegame.{info.name}"))
        if dataclasses.is_dataclass(obj) and obj.__module__.startswith("pricegame.")
    ]
    assert core.GroundProblem in classes
    assert [c.__name__ for c in classes if not c.__dataclass_params__.frozen] == []


families = st.sets(
    st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
    min_size=0,
    max_size=8,
)


@given(families, st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_explicit_problem_solution_set_matches_threshold_filter(family, threshold):
    universe = [Element(x) for x in "abcd"]
    weights = {x: 1 for x in "abcd"}
    problem = explicit_problem(universe, family, weights, threshold, Sense.MIN)
    expected = {frozenset(s) for s in family if len(s) <= threshold}
    assert solution_set(problem) == expected


@st.composite
def weighed_universes(draw):
    """Values over 0-40 elements, some whole bytes zero, some above 2^30."""
    size = draw(st.integers(min_value=0, max_value=40))
    value = st.one_of(st.just(0), st.integers(0, 9), st.integers(2**30, 2**62))
    values = draw(st.lists(value, min_size=size, max_size=size))
    for byte in draw(st.sets(st.integers(min_value=0, max_value=4))):
        values[8 * byte:8 * byte + 8] = [0] * len(values[8 * byte:8 * byte + 8])
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << size) - 1), max_size=30))
    return values, masks


@given(weighed_universes())
@settings(max_examples=150, deadline=None)
def test_mask_sums_match_the_bit_walk(drawn):
    values, masks = drawn
    universe = tuple(Element(f"e{i}") for i in range(len(values)))
    weights = {e.id: v for e, v in zip(universe, values)}
    problem = GroundProblem(universe, weights, 0, Sense.MAX)
    assert list(mask_sums(values, masks)) == [problem.weight_of_mask(m) for m in masks]
    assert list(mask_sums(tuple(values), iter(masks))) == list(mask_sums(values, masks))


@st.composite
def weighed_problems(draw):
    sense = draw(st.sampled_from(Sense))
    universe = [Element(x) for x in "abcdef"]
    family = draw(st.sets(st.frozensets(st.sampled_from("abcdef")), max_size=20))
    if sense is Sense.FEASIBILITY:
        weights, threshold = None, 0
    else:
        weights = {e.id: draw(st.integers(0, 5)) for e in universe}
        threshold = draw(st.integers(0, 20))
    return explicit_problem(universe, family, weights, threshold, sense)


def per_mask_oracle(problem):
    """Solutions, one weight_of_mask per member."""
    if problem.sense is Sense.FEASIBILITY:
        return problem.feasible_masks()
    minimizing, t = problem.sense is Sense.MIN, problem.threshold
    solutions = []
    for m in problem.feasible_masks():
        w = problem.weight_of_mask(m)
        if (w <= t) if minimizing else (w >= t):
            solutions.append(m)
    return solutions


@given(weighed_problems(), st.integers(0, 20))
@settings(max_examples=150, deadline=None)
def test_weighing_cache_matches_a_per_mask_oracle(problem, other_threshold):
    expected = per_mask_oracle(problem)
    returned = problem.solution_masks()
    assert returned == expected
    returned.append(-1)
    returned.reverse()
    assert problem.solution_masks() == expected
    if problem.sense is not Sense.FEASIBILITY:
        copy = dataclasses.replace(problem, threshold=other_threshold)
        assert copy.solution_masks() == per_mask_oracle(copy)
        assert problem.solution_masks() == expected


def test_weight_lift_copy_weighs_afresh():
    # Every feasible set weighs zero, so all three are solutions; the lift
    # makes a and b weigh one each under threshold one, which drops {a, b}.
    universe = [Element(x) for x in "abcd"]
    family = [frozenset("a"), frozenset("ab"), frozenset("cd")]
    problem = explicit_problem(universe, family, {x: 0 for x in "abcd"}, 0, Sense.MIN)
    assert len(problem.solution_masks()) == 3
    lifted = weight_lift(problem, {"a", "b"})
    assert solution_set(lifted) == {frozenset("a"), frozenset("cd")}
    # {c, d} is the one feasible set strictly lighter than the threshold.
    lighter = core.best_by_pattern(lifted, GroundChoice.FEASIBLE, 0b1111, (-1, -1, 0, 0))
    assert [m for gain, m in lighter.values() if gain > -lifted.threshold] == [0b1100]
    assert len(problem.solution_masks()) == 3
