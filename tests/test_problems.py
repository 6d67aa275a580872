import dataclasses
import gc
import itertools
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from pricegame.core import (
    CapExceededError,
    GroundChoice,
    Sense,
    best_by_enumeration,
    best_by_pattern,
    check_reduction,
    solution_set,
    subset_sums,
)
from pricegame.problems import (
    CnfFormula,
    EmptyClauseError,
    cnf,
    sat_problem,
    sat_to_subset_sum,
    sat_to_vertex_cover,
    subset_sum_problem,
    vertex_cover_problem,
)

from reduction_oracle import listing_check_reduction


def projected_family(artifact):
    image = artifact.image_ids()
    return {s & image for s in solution_set(artifact.target)}


def test_formula_validation():
    with pytest.raises(ValueError):
        cnf(1, [[1, -1]])
    with pytest.raises(ValueError):
        cnf(1, [[2]])
    with pytest.raises(ValueError):
        CnfFormula(2, (frozenset({1}),), ("x", "x"))


def test_vertex_cover_budget_matches_classic_three_sat_count():
    # 3 variables and 2 three-literal clauses: budget n + 2m.
    formula = cnf(3, [[1, 2, 3], [-1, -2, 3]])
    artifact = sat_to_vertex_cover(formula)
    assert artifact.target.threshold == 3 + 2 * 2
    assert check_reduction(sat_problem(formula), artifact).passed


def test_singleton_clause_gets_padded_gadget():
    formula = cnf(1, [[1]])
    artifact = sat_to_vertex_cover(formula)
    assert len(artifact.target.universe) == 2 + 2
    assert artifact.target.threshold == 1 + 1
    assert projected_family(artifact) == {frozenset({"v:x1"})}


def test_unsatisfiable_formula_has_no_cheap_cover():
    formula = cnf(1, [[1], [-1]])
    artifact = sat_to_vertex_cover(formula)
    report = check_reduction(sat_problem(formula), artifact)
    assert report.passed
    assert solution_set(artifact.target) == frozenset()


def test_empty_clause_rejected_by_both_reductions():
    formula = CnfFormula(1, (frozenset(),))
    with pytest.raises(EmptyClauseError):
        sat_to_vertex_cover(formula)
    with pytest.raises(EmptyClauseError):
        sat_to_subset_sum(formula)


def test_wide_clause_rejected_by_subset_sum():
    formula = cnf(5, [[1, 2, 3, 4, 5]])
    with pytest.raises(ValueError):
        sat_to_subset_sum(formula)


def test_subset_sum_forced_literal():
    formula = cnf(1, [[1]])
    artifact = sat_to_subset_sum(formula)
    assert projected_family(artifact) == {frozenset({"x1"})}
    assert check_reduction(sat_problem(formula), artifact).passed


def test_subset_sum_tautology_keeps_both_literals():
    artifact = sat_to_subset_sum(cnf(1, []))
    assert projected_family(artifact) == {frozenset({"x1"}), frozenset({"~x1"})}


def test_subset_sum_two_variable_clause_family():
    formula = cnf(2, [[1, 2]])
    artifact = sat_to_subset_sum(formula)
    assert check_reduction(sat_problem(formula), artifact).passed
    assert projected_family(artifact) == {
        frozenset({"x1", "x2"}),
        frozenset({"x1", "~x2"}),
        frozenset({"~x1", "x2"}),
    }


def test_subset_sum_digits_never_carry():
    formula = cnf(3, [[1, 2, 3], [-1, 2], [3]])
    artifact = sat_to_subset_sum(formula)
    base = 10
    positions = 3 + len(formula.clauses)
    for pos in range(positions):
        column = sum(
            artifact.target.weights[e.id] // base**pos % base
            for e in artifact.target.universe
        )
        assert column < base


def test_subset_sum_solutions_hit_target_exactly():
    formula = cnf(2, [[1, -2]])
    target = sat_to_subset_sum(formula).target
    for s in solution_set(target):
        assert sum(target.weights[i] for i in s) == target.threshold


def test_vertex_cover_oracle_agrees_with_enumerator():
    problem = vertex_cover_problem(["a", "b", "c", "d"],
                                   [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
                                   threshold=2)
    listed = {problem.ids_of(m) for m in problem.feasible_masks()}
    for subset_size in range(5):
        for combo in itertools.combinations("abcd", subset_size):
            subset = frozenset(combo)
            assert problem.feasible(subset) == (subset in listed)


def test_subset_sum_problem_feasibility():
    problem = subset_sum_problem(["a", "b"], {"a": 2, "b": 3}, target=3)
    assert solution_set(problem) == {frozenset({"b"})}
    assert problem.feasible(frozenset({"a"}))
    assert not problem.feasible(frozenset({"a", "b"}))


def all_formulas(num_vars, max_clauses, max_width=3):
    """Every clause set with the given bounds, used by the exhaustive sweeps."""
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


def test_exhaustive_small_formulas_certify_both_reductions():
    # The one- and two-variable slices; the acceptance suite covers three.
    for num_vars in (1, 2):
        for formula in all_formulas(num_vars, max_clauses=2):
            source = sat_problem(formula)
            assert check_reduction(source, sat_to_vertex_cover(formula)).passed
            assert check_reduction(source, sat_to_subset_sum(formula)).passed


@st.composite
def small_cnfs(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    literal = st.integers(min_value=-num_vars, max_value=num_vars).filter(bool)
    clause = st.lists(literal, min_size=1, max_size=3, unique_by=abs)
    clauses = draw(st.lists(clause, max_size=8))
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        clauses.insert(draw(st.integers(min_value=0, max_value=len(clauses))), [])
    return cnf(num_vars, clauses)


@given(small_cnfs())
@example(cnf(3, []))
@example(cnf(2, [[1, -2], []]))
@settings(max_examples=150, deadline=None)
def test_pruned_sat_enumerator_matches_brute_force_scan(formula):
    problem = sat_problem(formula)
    raw = list(problem.mask_enumerator())
    assert len(raw) == len(set(raw))
    oracle = sat_problem(formula)
    oracle.mask_enumerator = None
    assert problem.feasible_masks() == oracle.feasible_masks()


@st.composite
def small_subset_sums(draw):
    # At most 12 items: the table-of-sums path, and a cheap brute-force scan.
    size = draw(st.integers(min_value=0, max_value=12))
    weights = {f"i{k}": draw(st.integers(min_value=0, max_value=40)) for k in range(size)}
    return subset_sum_problem(list(weights), weights, draw(st.integers(0, 120)))


@given(small_subset_sums())
@settings(max_examples=100, deadline=None)
def test_subset_sum_enumerator_matches_brute_force_scan(problem):
    raw = list(problem.mask_enumerator())
    assert len(raw) == len(set(raw))
    oracle = subset_sum_problem(
        [e.id for e in problem.universe], problem.weights, problem.threshold
    )
    oracle.mask_enumerator = None
    assert problem.feasible_masks() == oracle.feasible_masks()
    assert problem.solution_masks() == oracle.solution_masks()


def test_subset_sum_past_the_table_size_matches_the_table():
    # 21 items take the bulk mask_sums path instead of one table of sums.
    weights = {f"i{k}": k + 1 for k in range(21)}
    problem = subset_sum_problem(list(weights), weights, target=50)
    sums = subset_sums(list(weights.values()))
    assert problem.feasible_masks() == [m for m, total in enumerate(sums) if total <= 50]
    assert problem.solution_masks() == [m for m, total in enumerate(sums) if total == 50]


@st.composite
def subset_sum_pattern_queries(draw):
    """A subset sum of up to 10 items, a leader mask and gains of either sign."""
    size = draw(st.integers(min_value=0, max_value=10))
    value = st.one_of(st.just(0), st.integers(0, 6), st.integers(0, 40))
    weights = {f"i{k}": draw(value) for k in range(size)}
    total = sum(weights.values())
    target = draw(st.one_of(st.just(0), st.integers(0, total), st.integers(total + 1, total + 9)))
    full = (1 << size) - 1
    leader_mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    gains = tuple(draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)))
    return subset_sum_problem(list(weights), weights, target), leader_mask, gains


@given(subset_sum_pattern_queries(), st.sampled_from(GroundChoice), st.integers(-3, 3),
       st.sampled_from([Sense.MAX, Sense.MIN]))
@settings(max_examples=300, deadline=None)
def test_subset_sum_pattern_oracle_matches_the_enumeration(query, ground, moved, sense):
    # Values, members and pattern order all equal the enumeration's; a copy
    # given another threshold or sense keeps the feasible family but not the
    # solutions.
    problem, leader_mask, gains = query
    expected = best_by_enumeration(problem, ground, leader_mask, gains, 24)
    assert list(best_by_pattern(problem, ground, leader_mask, gains).items()) == \
        list(expected.items())
    threshold = problem.threshold + moved
    if sense is Sense.MIN:
        threshold = max(threshold, 0)
    copy = dataclasses.replace(problem, threshold=threshold, sense=sense)
    expected = best_by_enumeration(copy, ground, leader_mask, gains, 24)
    assert list(best_by_pattern(copy, ground, leader_mask, gains).items()) == \
        list(expected.items())


def test_subset_sum_pattern_oracle_keeps_the_cap():
    weights = {f"i{k}": 1 for k in range(30)}
    problem = subset_sum_problem(list(weights), weights, 5)
    with pytest.raises(CapExceededError) as err:
        best_by_pattern(problem, GroundChoice.FEASIBLE, 0, (1,) * 30)
    assert str(err.value) == "a universe of 30 elements exceeds the enumeration cap of 24"


def certification_cases(formula):
    """Both reductions of a formula, as built, with the first two images
    swapped, and with the threshold moved one step either way."""
    for artifact in (sat_to_vertex_cover(formula), sat_to_subset_sum(formula)):
        yield artifact
        first, second = sorted(artifact.embedding)[:2]
        swapped = dict(artifact.embedding, **{first: artifact.embedding[second],
                                              second: artifact.embedding[first]})
        yield dataclasses.replace(artifact, embedding=swapped)
        for step in (-1, 1):
            moved = artifact.target.threshold + step
            if moved >= 0:
                target = dataclasses.replace(artifact.target, threshold=moved)
                yield dataclasses.replace(artifact, target=target)


def test_certification_by_patterns_matches_the_listing_oracle():
    # The criterion-2 corpus, its three-variable part thinned to every
    # eighth formula to bound the listing oracle's time.
    corpus = [f for n in (1, 2) for f in all_formulas(n, max_clauses=3)]
    corpus += list(itertools.islice(all_formulas(3, max_clauses=3), 0, None, 8))
    verdicts = set()
    for formula in corpus:
        source = sat_problem(formula)
        for artifact in certification_cases(formula):
            report = check_reduction(source, artifact)
            expected = listing_check_reduction(source, artifact)
            verdict = (report.yes_equivalence, report.family_match, report.threshold_tight)
            assert verdict == (
                expected.yes_equivalence, expected.family_match, expected.threshold_tight
            ), (formula, artifact.target.name)
            verdicts.add(verdict)
    # Each of the three checks both passes and fails somewhere in the corpus.
    assert all({v[k] for v in verdicts} == {True, False} for k in range(3))


@st.composite
def small_graphs(draw):
    size = draw(st.integers(min_value=1, max_value=10))
    vertices = [f"v{k}" for k in range(size)]
    pairs = list(itertools.combinations(vertices, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return vertices, edges, draw(st.integers(min_value=0, max_value=size))


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_vertex_cover_enumerator_matches_brute_force_scan(graph):
    problem = vertex_cover_problem(*graph)
    raw = list(problem.mask_enumerator())
    assert len(raw) == len(set(raw))
    oracle = vertex_cover_problem(*graph)
    oracle.mask_enumerator = None
    assert problem.feasible_masks() == oracle.feasible_masks()
    assert problem.solution_masks() == oracle.solution_masks()


@pytest.mark.parametrize("build", [
    lambda: sat_problem(cnf(3, [[1, -2], [2, 3]])),
    lambda: vertex_cover_problem("abc", [("a", "b"), ("b", "c")], threshold=1),
    lambda: subset_sum_problem("abc", {"a": 1, "b": 2, "c": 3}, target=3),
], ids=["sat", "vertex-cover", "subset-sum"])
def test_problems_are_freed_without_the_cycle_collector(build):
    # A problem whose oracle closed over the problem itself would keep its
    # enumerated family alive until a full collection, after every operation.
    problem = build()
    problem.solution_masks()
    ref = weakref.ref(problem)
    gc.disable()
    try:
        del problem
        assert ref() is None
    finally:
        gc.enable()
