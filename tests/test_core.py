import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from pricegame import core
from pricegame.compilers import qdnf, qdnf_holds, weight_lift
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
from pricegame.problems import cnf, sat_problem, sat_to_vertex_cover, vertex_cover_problem


def test_single_edge_cover_solutions():
    problem = vertex_cover_problem(["u", "v"], [("u", "v")], threshold=1)
    assert solution_set(problem) == {frozenset({"u"}), frozenset({"v"})}


def test_forced_literal_solution():
    problem = sat_problem(cnf(1, [[1]]))
    assert solution_set(problem) == {frozenset({"x1"})}


def test_empty_clause_set_keeps_both_assignments():
    problem = sat_problem(cnf(1, []))
    assert solution_set(problem) == {frozenset({"x1"}), frozenset({"~x1"})}


def test_cap_is_enforced_and_names_the_cap():
    universe = [Element(f"e{i}") for i in range(6)]
    problem = explicit_problem(universe, [frozenset({"e0"})])
    problem.mask_enumerator = None
    problem.cost_bits = None
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
    assert str(err.value) == "a formula of 13 exists/forall pairs exceeds the enumeration cap of 12"


def test_pattern_memo_keeps_the_answer_in_use(monkeypatch):
    # One answer asked for between every two new ones stays cached while
    # the new ones cycle out, least recently used first.
    problem = _path_cover()
    asked = []
    enumerate_family = core.best_by_enumeration
    monkeypatch.setattr(core, "best_by_enumeration",
                        lambda *args: asked.append(args[3]) or enumerate_family(*args))
    hot = (1,) * problem.size
    for k in range(3 * core._PATTERN_MEMO):
        core.best_by_pattern(problem, GroundChoice.FEASIBLE, 0b11, hot)
        core.best_by_pattern(problem, GroundChoice.FEASIBLE, 0b11, (k + 2,) * problem.size)
    assert asked.count(hot) == 1 and len(asked) == 1 + 3 * core._PATTERN_MEMO
    assert len(problem._pattern_cache) == core._PATTERN_MEMO


def test_solution_set_within_enumerator_output():
    problem = vertex_cover_problem(["a", "b", "c"], [("a", "b"), ("b", "c")], threshold=2)
    feasible = {problem.ids_of(m) for m in problem.feasible_masks()}
    assert solution_set(problem) <= feasible
    assert all(problem.feasible(s) for s in feasible)


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
        GroundProblem(universe, {"e": -1}, 0, Sense.MIN, lambda s: True)
    with pytest.raises(ValueError):
        GroundProblem(universe, {"e": 1}, 0, Sense.FEASIBILITY, lambda s: True)
    with pytest.raises(ValueError):
        GroundProblem(universe, {"e": 0}, -1, Sense.MIN, lambda s: True)


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
    problem = explicit_problem(
        universe, family, weights, threshold, Sense.MIN, name="random"
    )
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
    problem = GroundProblem(universe, weights, 0, Sense.MAX, lambda s: True)
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
