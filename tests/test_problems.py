import dataclasses
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pricegame import problems
from pricegame.compilers import compile_qdnf_pricing, lift_max, lift_min, weight_lift
from pricegame.core import (
    CapExceededError,
    Element,
    ExplicitProblem,
    GroundChoice,
    GroundProblem,
    Sense,
    best_by_enumeration,
    best_by_pattern,
    check_reduction,
    explicit_problem,
    solution_set,
    subset_sums,
)
from pricegame.pricing import PricingInstance, solve_pricing
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
from pricegame.serialize import decode_problem, encode_problem
from pricegame.sweep import random_formula

from reduction_oracle import (
    clause_walking_subset_sum,
    clause_walking_vertex_cover,
    listing_check_reduction,
    literal_universe,
)
from test_compilers import seeded_sat_sources


def scanned(problem):
    """The problem's feasible sets by the scan over all subsets, as an explicit
    problem with its weights, threshold and sense."""
    masks = [m for m in range(1 << problem.size) if problem.feasible(m)]
    return ExplicitProblem(problem.universe, problem.weights, problem.threshold, problem.sense,
                           frozenset(masks))


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
    for names in (("x", ""), ("x", "~y")):
        with pytest.raises(ValueError,
                           match="^variable names must be nonempty and not start with ~$"):
            CnfFormula(2, (frozenset({1}),), names)


def test_formula_rejects_a_bool_literal():
    with pytest.raises(TypeError, match="^literal True is not an int$"):
        cnf(2, [[True, 2]])


def test_formula_rejects_a_float_variable_count():
    with pytest.raises(TypeError, match=r"^num_vars 2\.0 is not an int$"):
        cnf(2.0, [[1, 2]])


def clause_loop_error(num_vars, clauses, var_names):
    """The error CnfFormula raised when it tested each clause for itself, or None."""
    if num_vars < 1:
        return ValueError("a formula needs at least one variable")
    for clause in clauses:
        for lit in clause:
            if lit == 0 or abs(lit) > num_vars:
                return ValueError(f"literal {lit} out of range")
        if any(-lit in clause for lit in clause):
            return ValueError("clause contains a literal and its negation")
    if var_names is not None:
        if len(var_names) != num_vars:
            return ValueError("var_names length must equal num_vars")
        if len(set(var_names)) != num_vars:
            return ValueError("variable names must be unique")
        if any(not name or name.startswith("~") for name in var_names):
            return ValueError("variable names must be nonempty and not start with ~")
    return None


@st.composite
def raw_formulas(draw):
    """CnfFormula arguments, valid or not: a literal 0 or out of range, a
    complementary pair, an empty clause, no variable, a bad list of names."""
    num_vars = draw(st.integers(min_value=0, max_value=5))
    literal = st.integers(min_value=-num_vars - 1, max_value=num_vars + 1)
    clauses = draw(st.lists(st.frozensets(literal, max_size=4), max_size=6))
    pool = st.sampled_from(["p", "q", "r", "s", "t", "u", "", "~w"])
    names = draw(st.none() | st.lists(pool, min_size=max(0, num_vars - 1),
                                      max_size=num_vars + 1))
    return num_vars, tuple(clauses), None if names is None else tuple(names)


@given(raw_formulas())
@settings(max_examples=400, deadline=None)
def test_formula_validation_raises_what_the_clause_loop_raised(raw):
    expected = clause_loop_error(*raw)
    try:
        CnfFormula(*raw)
    except ValueError as err:
        assert (type(err), str(err)) == (type(expected), str(expected))
    else:
        assert expected is None


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
            assert problem.feasible(problem.mask_of(subset)) == (subset in listed)


def test_subset_sum_problem_feasibility():
    problem = subset_sum_problem(["a", "b"], {"a": 2, "b": 3}, target=3)
    assert solution_set(problem) == {frozenset({"b"})}
    assert problem.feasible(problem.mask_of({"a"}))
    assert not problem.feasible(problem.mask_of({"a", "b"}))


def test_subset_sum_weights_must_cover_the_items():
    for weights in ({"a": 1}, {"a": 1, "b": 2, "c": 3}):
        with pytest.raises(ValueError) as err:
            subset_sum_problem(["a", "b"], weights, 2)
        assert str(err.value) == "weights must cover exactly the universe"


def test_problem_constructors_take_int_weights_only():
    with pytest.raises(TypeError, match="weight True is not an int"):
        subset_sum_problem(["a", "b"], {"a": True, "b": 2}, 3)
    with pytest.raises(TypeError, match="threshold 3.0 is not an int"):
        subset_sum_problem(["a", "b"], {"a": 1, "b": 2}, 3.0)
    with pytest.raises(TypeError, match="weight 1.5 is not an int"):
        vertex_cover_problem(["u", "v"], [("u", "v")], 1, {"u": 1.5, "v": 1})


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
def small_cnfs(draw, min_vars=1, max_vars=6):
    num_vars = draw(st.integers(min_value=min_vars, max_value=max_vars))
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
    oracle = scanned(problem)
    assert problem.feasible_masks() == oracle.feasible_masks()


@given(small_cnfs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_formula_tables_match_its_clauses(formula, named):
    n, clauses = formula.num_vars, formula.clauses
    if named:
        formula = CnfFormula(n, clauses, tuple(f"v{k}" for k in range(n, 0, -1)))
    literals = [lit for v in range(1, n + 1) for lit in (v, -v)]
    assert formula.clause_masks == tuple(
        sum(1 << literals.index(lit) for lit in clause) for clause in clauses)
    assert formula.literal_clauses == tuple(
        sum(1 << j for j, clause in enumerate(clauses) if lit in clause) for lit in literals)
    assert formula.closing_clauses == tuple(
        sum(1 << j for j, clause in enumerate(clauses) if clause and max(map(abs, clause)) == v)
        for v in range(1, n + 1))
    assert formula.has_empty_clause == (frozenset() in clauses)
    assert formula.universe == literal_universe(formula)
    assert [formula.literal_id(lit) for lit in literals] == [e.id for e in formula.universe]


def artifact_fields(build, formula):
    """Everything a reduction's artifact holds but the target's oracles, or its error."""
    try:
        artifact = build(formula)
    except ValueError as err:
        return type(err), str(err)
    target = artifact.target
    return (artifact.source_universe, list(artifact.embedding.items()), artifact.provenance,
            target.universe, list(target.weights.items()), target.threshold, target.sense,
            type(target), getattr(target, "edges", None))


def test_reductions_build_the_clause_walking_artifacts():
    edge_cases = [
        CnfFormula(1, (frozenset(),)),
        cnf(5, [[1, 2, 3, 4, 5], []]),
        cnf(5, [[], [1, 2, 3, 4, 5]]),
        cnf(1, [[1]], ["s1a"]),
        cnf(2, [[1, -2], [-1]], ["b", "a"]),
    ]
    formulas = [f for n in (1, 2, 3) for f in all_formulas(n, max_clauses=3)]
    for formula in formulas + edge_cases:
        for build, reference in ((sat_to_vertex_cover, clause_walking_vertex_cover),
                                 (sat_to_subset_sum, clause_walking_subset_sum)):
            assert artifact_fields(build, formula) == artifact_fields(reference, formula)


@st.composite
def small_problems(draw):
    """A sat, vertex-cover, subset-sum or explicit problem of at most 8 elements."""
    kind = draw(st.sampled_from(["sat", "vertex-cover", "subset-sum", "explicit"]))
    if kind == "sat":
        return sat_problem(draw(small_cnfs(max_vars=4)))
    size = draw(st.integers(min_value=0, max_value=8))
    names = [f"e{i}" for i in range(size)]
    if kind == "vertex-cover":
        pairs = list(itertools.combinations(names, 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return vertex_cover_problem(names, edges, threshold=size)
    if kind == "subset-sum":
        weights = {v: draw(st.integers(min_value=0, max_value=20)) for v in names}
        return subset_sum_problem(names, weights, draw(st.integers(0, 60)))
    masks = draw(st.lists(st.integers(0, (1 << size) - 1)))
    family = [frozenset(v for i, v in enumerate(names) if m >> i & 1) for m in masks]
    return explicit_problem([Element(v) for v in names], family)


@given(small_problems(), st.integers(min_value=1, max_value=255))
@settings(max_examples=200, deadline=None)
def test_feasible_takes_the_masks_the_enumerator_yields(problem, high):
    # The oracle agrees with the listed family on every mask of the
    # universe, and a bit past the universe makes any mask infeasible.
    listed = set(problem.feasible_masks())
    past = high << problem.size
    for mask in range(1 << problem.size):
        assert problem.feasible(mask) == (mask in listed)
        assert not problem.feasible(mask | past)


@st.composite
def changed_copies(draw):
    """A small problem of any kind and a replace copy given other weights,
    another threshold or another value of its kind's own field, as far as
    its kind admits them (a sat problem takes only a formula, of any size)."""
    problem = draw(small_problems())
    names = [e.id for e in problem.universe]
    if problem.name == "sat":
        options = {"formula": small_cnfs(max_vars=4)}
    else:
        options = {"weights": st.fixed_dictionaries({v: st.integers(0, 20) for v in names}),
                   "threshold": st.integers(0, 60)}
    if problem.name == "vertex-cover":
        pairs = list(itertools.combinations(names, 2))
        options["edges"] = st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    if problem.name == "explicit":
        options["masks"] = st.frozensets(st.integers(0, (1 << len(names)) - 1))
    keys = draw(st.lists(st.sampled_from(sorted(options)), min_size=1, unique=True))
    changes = {key: draw(options[key]) for key in keys}
    if problem.name == "explicit" and changes.keys() & {"weights", "threshold"}:
        changes["sense"] = draw(st.sampled_from([Sense.MIN, Sense.MAX]))
    return problem, dataclasses.replace(problem, **changes)


@given(changed_copies(), st.data())
@settings(max_examples=200, deadline=None)
def test_a_copy_is_served_by_its_own_fields(drawn, data):
    # The copy keeps its kind, lists the family that its own oracle scans
    # and that its kind's constructor builds from its data, and its pattern
    # oracle equals the enumeration on both grounds, with a floor and without.
    problem, copy = drawn
    assert type(copy) is type(problem)
    for reference in (scanned(copy), decode_problem(encode_problem(copy))):
        assert copy.feasible_masks() == sorted(reference.feasible_masks())
        assert copy.solution_masks() == sorted(reference.solution_masks())
    leader_mask = data.draw(st.integers(0, (1 << copy.size) - 1))
    gains = data.draw(st.tuples(*[st.integers(-4, 4)] * copy.size))
    for ground in GroundChoice:
        expected = best_by_enumeration(copy, ground, leader_mask, gains, 24)
        assert best_by_pattern(copy, ground, leader_mask, gains) == expected
        assert_floored_answers_filter(copy, ground, leader_mask, gains, expected,
                                      data.draw(st.integers(0, 63)))


@given(small_cnfs(max_vars=4), small_cnfs(max_vars=4), st.data())
@settings(max_examples=100, deadline=None)
def test_a_sat_copy_over_another_formula_is_that_formulas_problem(f, g, data):
    # A sat problem sets its universe, weights and threshold from its
    # formula, so a copy over a formula of another size is that formula's.
    assume(f.num_vars != g.num_vars)
    copy, fresh = dataclasses.replace(sat_problem(f), formula=g), sat_problem(g)
    assert (copy.universe, copy.weights, copy.threshold, copy.sense) == \
        (fresh.universe, fresh.weights, fresh.threshold, fresh.sense)
    leader_mask = data.draw(st.integers(0, (1 << copy.size) - 1))
    gains = data.draw(st.tuples(*[st.integers(-4, 4)] * copy.size))
    for ground in GroundChoice:
        assert best_by_pattern(copy, ground, leader_mask, gains) == \
            best_by_pattern(fresh, ground, leader_mask, gains)


@st.composite
def small_subset_sums(draw):
    # At most 12 items, so the brute-force scan stays cheap.
    size = draw(st.integers(min_value=0, max_value=12))
    weights = {f"i{k}": draw(st.integers(min_value=0, max_value=40)) for k in range(size)}
    return subset_sum_problem(list(weights), weights, draw(st.integers(0, 120)))


@given(small_subset_sums())
@settings(max_examples=100, deadline=None)
def test_subset_sum_enumerator_matches_brute_force_scan(problem):
    raw = list(problem.mask_enumerator())
    assert len(raw) == len(set(raw))
    oracle = scanned(problem)
    assert problem.feasible_masks() == oracle.feasible_masks()
    assert problem.solution_masks() == oracle.solution_masks()


def test_subset_sum_past_the_table_size_matches_the_table():
    # 21 items: the bulk mask_sums listing against one table of every sum.
    weights = {f"i{k}": k + 1 for k in range(21)}
    problem = subset_sum_problem(list(weights), weights, target=50)
    sums = subset_sums(list(weights.values()))
    assert problem.feasible_masks() == [m for m, total in enumerate(sums) if total <= 50]
    assert problem.solution_masks() == [m for m, total in enumerate(sums) if total == 50]


@st.composite
def subset_sum_pattern_queries(draw):
    """A subset sum of up to 10 items, a leader mask and gains of either sign,
    or gains equal to the item weights."""
    size = draw(st.integers(min_value=0, max_value=10))
    value = st.one_of(st.just(0), st.integers(0, 6), st.integers(0, 40))
    weights = {f"i{k}": draw(value) for k in range(size)}
    total = sum(weights.values())
    target = draw(st.one_of(st.just(0), st.integers(0, total), st.integers(total + 1, total + 9)))
    full = (1 << size) - 1
    leader_mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    gains = draw(st.one_of(st.just(tuple(weights.values())), st.lists(
        st.integers(-4, 4), min_size=size, max_size=size).map(tuple)))
    return subset_sum_problem(list(weights), weights, target), leader_mask, gains


def assert_floored_answers_filter(problem, ground, leader_mask, gains, expected, pick,
                                  also=()):
    """Floored at, below and above the picked pattern's best gain, at and
    just above the lowest and highest, and at each floor in also, the seam
    returns expected filtered."""
    bests = sorted({gain for gain, _ in expected.values()}) or [0]
    picked = bests[pick % len(bests)]
    for floor in (bests[0] - 1, bests[0], picked, picked + 1, bests[-1], bests[-1] + 1, *also):
        floored = best_by_pattern(problem, ground, leader_mask, gains, floor=floor)
        assert floored == {p: best for p, best in expected.items() if best[0] >= floor}


@given(subset_sum_pattern_queries(), st.sampled_from(GroundChoice), st.integers(-3, 3),
       st.integers(0, 63))
@settings(max_examples=300, deadline=None)
def test_subset_sum_pattern_oracle_matches_the_enumeration(query, ground, moved, pick):
    # Values and members equal the enumeration's, on the problem and on a
    # copy given another threshold, which moves the target and so both
    # families.  Floored answers equal the enumeration's filtered, also at
    # and above the target, where gains equal to the weights take the exact
    # search.
    problem, leader_mask, gains = query
    copy = dataclasses.replace(problem, threshold=problem.threshold + moved)
    for instance in (problem, copy):
        at_target = (instance.threshold, instance.threshold + 1)
        expected = best_by_enumeration(instance, ground, leader_mask, gains, 24)
        assert best_by_pattern(instance, ground, leader_mask, gains) == expected
        assert_floored_answers_filter(instance, ground, leader_mask, gains, expected, pick,
                                      at_target)


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


# A moved threshold moves the target: no feasible set weighs more than it,
# so the target stays tight, but it hits other subsets than the literal sets.
@pytest.mark.parametrize("step, verdict, detail", [
    (-1, (True, False, True),
     "mapped-only=(('x1', 'x2'), ('x1', '~x2'), ('x2', '~x1')) projected-only=(('x2',),)"),
    (1, (True, False, True),
     "mapped-only=(('x1', 'x2'), ('x1', '~x2'), ('x2', '~x1')) "
     "projected-only=(('x1', 'x2', '~x1'), ('x1', '~x1', '~x2'))"),
])
def test_moved_subset_sum_threshold_reports_the_families_apart(step, verdict, detail):
    formula = cnf(2, [[1, 2]])
    artifact = sat_to_subset_sum(formula)
    target = dataclasses.replace(artifact.target, threshold=artifact.target.threshold + step)
    report = check_reduction(sat_problem(formula), dataclasses.replace(artifact, target=target))
    assert (report.yes_equivalence, report.family_match, report.threshold_tight) == verdict
    assert report.detail == detail


def test_passing_certification_builds_no_id_sets(monkeypatch):
    # Both families are compared as masks; ids are only for a failure's detail.
    calls = []
    ids_of = GroundProblem.ids_of
    monkeypatch.setattr(GroundProblem, "ids_of",
                        lambda self, mask: calls.append(mask) or ids_of(self, mask))
    formula = cnf(3, [[1, -2], [2, 3], [-1, -3]])
    for artifact in (sat_to_vertex_cover(formula), sat_to_subset_sum(formula)):
        assert check_reduction(sat_problem(formula), artifact).passed
    assert calls == []


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
    oracle = scanned(problem)
    assert problem.feasible_masks() == oracle.feasible_masks()
    assert problem.solution_masks() == oracle.solution_masks()


@st.composite
def vertex_cover_pattern_queries(draw):
    """A graph of up to 10 vertices at one of five edge densities, a
    threshold, a leader mask and gains of either sign or all zero."""
    size = draw(st.integers(min_value=0, max_value=10))
    vertices = [f"v{k}" for k in range(size)]
    pairs = list(itertools.combinations(vertices, 2))
    density = draw(st.integers(0, 4))
    rolls = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, roll in zip(pairs, rolls) if roll < density]
    full = (1 << size) - 1
    leader_mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    gains = draw(st.one_of(st.just((0,) * size), st.tuples(*[st.integers(-4, 4)] * size)))
    problem = vertex_cover_problem(vertices, edges, draw(st.integers(0, size)))
    return problem, leader_mask, gains, draw(st.integers(0, size // 2))


@given(vertex_cover_pattern_queries(), st.sampled_from(GroundChoice), st.integers(0, 63))
# Patterns 0b1 and 0b100 are each reached by several covers, so their
# states merge, and each merge must keep the best gain and canonical part.
@example((vertex_cover_problem("abcd", [("a", "b"), ("b", "d")], 0), 0b101, (0,) * 4, 0),
         GroundChoice.FEASIBLE, 0)
# Floored at 2, the cover {a, b} is lost unless the bound counts what the
# positive gains left can still add.
@example((vertex_cover_problem("ab", [("a", "b")], 0), 0, (1, 1), 0), GroundChoice.FEASIBLE, 0)
# The cliques of consecutive vertices, {c, d}, {b} and {a}, are not a greedy
# clique cover's {a, c, d} and {b}; the floored queries' bound reads the former.
@example((vertex_cover_problem("abcd", [("a", "c"), ("a", "d"), ("c", "d"), ("b", "c")], 0),
          0b0110, (-3, 2, -1, -2), 1), GroundChoice.FEASIBLE, 0)
@settings(max_examples=300, deadline=None)
def test_vertex_cover_pattern_oracle_matches_the_enumeration(query, ground, pick):
    # Values and members equal the enumeration's, on the problem, on a
    # weight_lift copy, and on a copy given other edges.  Floored answers
    # equal the enumeration's filtered.
    problem, leader_mask, gains, pairs = query
    vertices = [e.id for e in problem.universe]
    copies = (
        problem,
        weight_lift(problem, vertices[:2 * pairs]),
        dataclasses.replace(problem, edges=list(zip(vertices, vertices[1:]))),
    )
    for copy in copies:
        expected = best_by_enumeration(copy, ground, leader_mask, gains, 24)
        assert best_by_pattern(copy, ground, leader_mask, gains) == expected
        assert_floored_answers_filter(copy, ground, leader_mask, gains, expected, pick)


@st.composite
def sat_pattern_queries(draw):
    """A formula of 1-7 variables, another over as many, a leader mask and
    gains in [-4, 4]."""
    formula = draw(small_cnfs(max_vars=7))
    n = formula.num_vars
    full = (1 << 2 * n) - 1
    leader_mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    gains = draw(st.tuples(*[st.integers(-4, 4)] * (2 * n)))
    return formula, draw(small_cnfs(min_vars=n, max_vars=n)), leader_mask, gains


@given(sat_pattern_queries(), st.sampled_from(GroundChoice), st.integers(0, 63),
       st.integers(-30, 30))
# The state that has satisfied the clause after x3 is reached first from x1
# but keeps the better part through ~x1, so the best members meet at x4 with
# the canonical one (x1, x2, ~x3, x4) second, on a tie it must win.
@example((cnf(4, [[-1, 3, 4]]), cnf(4, []), 0, (0, 0, 0, 0, 0, 1, 0, 0)),
         GroundChoice.FEASIBLE, 0, 0)
@example((cnf(1, [[1], []]), cnf(1, [[1]]), 0b01, (1, 0)), GroundChoice.SOLUTIONS, 0, 0)
@settings(max_examples=300, deadline=None)
def test_sat_pattern_oracle_matches_the_enumeration(query, ground, pick, floor):
    # Values and members equal the enumeration's, on the problem and on a
    # copy given another formula.  Floored answers equal the enumeration's
    # filtered.
    formula, other, leader_mask, gains = query
    problem = sat_problem(formula)
    for instance in (problem, dataclasses.replace(problem, formula=other)):
        expected = best_by_enumeration(instance, ground, leader_mask, gains, 24)
        assert best_by_pattern(instance, ground, leader_mask, gains) == expected
        assert_floored_answers_filter(instance, ground, leader_mask, gains, expected, pick,
                                      (floor,))


def thm2_query(pairs):
    """The compiled base of a thm2 instance, its leader mask and its gains."""
    inst = compile_qdnf_pricing(random_formula(random.Random(pairs), pairs, 3)).pricing
    base = inst.base
    gains = tuple(inst.valuation[e.id] for e in base.universe)
    return base, inst.ground, base.mask_of(inst.leader_ids), gains


@pytest.mark.parametrize("pairs", [1, 2, 3, 4, 5])
def test_sat_pattern_oracle_matches_the_enumeration_on_thm2_output(pairs):
    base, ground, leader_mask, gains = thm2_query(pairs)
    expected = best_by_enumeration(base, ground, leader_mask, gains, 40)
    assert best_by_pattern(base, ground, leader_mask, gains, 40) == expected
    fallback = expected[0][0]
    floored = best_by_pattern(base, ground, leader_mask, gains, 40, floor=fallback + 1)
    assert floored == {p: best for p, best in expected.items() if best[0] > fallback}


def test_sat_pattern_oracle_lists_no_assignment(monkeypatch):
    # 6 pairs: 34 variables and 262,913 satisfying assignments, none listed.
    base, ground, leader_mask, gains = thm2_query(6)

    def refuse(self, cap=24):
        raise AssertionError("the satisfying assignments were listed")

    monkeypatch.setattr(GroundProblem, "feasible_masks", refuse)
    assert len(best_by_pattern(base, ground, leader_mask, gains, 40)) == 762


def test_sat_pattern_states_are_bounded_by_assignments_not_solutions(monkeypatch):
    # With (x_i | x_n) and (~x_i | ~x_n) for every i < n, every clause stays
    # open until x_n: the layer before it holds 2^(n - 1) states, one per
    # choice of the others, and 2 assignments survive.
    n = 14
    formula = cnf(n, [[i, n] for i in range(1, n)] + [[-i, -n] for i in range(1, n)])
    problem = sat_problem(formula)
    widths = []
    frontiers = problems._frontier

    def measured(*args):
        for states in frontiers(*args):
            widths.append(len(states))
            yield states

    monkeypatch.setattr(problems, "_frontier", measured)
    gains = (0,) * (2 * n)
    expected = best_by_enumeration(problem, GroundChoice.FEASIBLE, 0, gains, 24)
    assert best_by_pattern(problem, GroundChoice.FEASIBLE, 0, gains) == expected
    assert len(problem.feasible_masks()) == 2
    assert widths == [2 << v for v in range(n - 1)] + [1]


def record_widths(monkeypatch):
    """Per call of the frontier engine, the number of states in each layer."""
    calls = []
    frontier = problems._frontier

    def measured(*args):
        widths = []
        calls.append(widths)
        for states in frontier(*args):
            widths.append(len(states))
            yield states

    monkeypatch.setattr(problems, "_frontier", measured)
    return calls


# Per-layer states of the SAT pattern DP on thm2 output, recorded before
# the SAT and vertex-cover DPs shared one engine; a change of order or key
# that grows them must show here.
THM2_SAT_WIDTHS = {
    1: [2, 2, 3, 3, 5, 7, 6, 6, 6],
    2: [2, 2, 3, 3, 5, 7, 6, 5, 5, 9, 13, 12, 12, 12],
    3: [2, 2, 3, 3, 5, 7, 6, 6, 6, 11, 16, 14, 14, 16, 31, 46, 40, 36, 36],
    4: [2, 2, 3, 3, 5, 7, 6, 6, 6, 11, 16, 14, 14, 14, 27, 40, 36, 36, 36, 71, 106, 98, 98,
        98],
}


@pytest.mark.parametrize("pairs", sorted(THM2_SAT_WIDTHS))
def test_sat_pattern_states_on_thm2_output_are_pinned(monkeypatch, pairs):
    base, ground, leader_mask, gains = thm2_query(pairs)
    calls = record_widths(monkeypatch)
    best_by_pattern(base, ground, leader_mask, gains, 40)
    assert calls == [THM2_SAT_WIDTHS[pairs]]


def at_clique_ends(per_vertex, problem):
    """A list of widths per vertex, highest first, read where each of the
    problem's cliques ends."""
    ends = itertools.accumulate([len(clique) for clique in problem._cliques])
    return [per_vertex[end - 1] for end in ends]


def test_cover_pattern_states_of_a_lift_min_target_are_pinned(monkeypatch):
    # Recorded with the SAT widths above, one layer per vertex: first the
    # floored query that certifies the lift, then the unfloored one that
    # solves it.  A layer per clique holds the same states at each clique's
    # end.
    formula = cnf(4, [[1, -2, 3], [-1, 2, 4], [2, -3], [-4]])
    valuation = {"x1": 3, "~x1": 1, "x2": 2, "~x2": 0, "x3": 4, "~x3": 2, "x4": 1, "~x4": 5}
    source = PricingInstance(sat_problem(formula), frozenset({"x1", "~x2", "x3", "~x4"}),
                             valuation, GroundChoice.SOLUTIONS)
    calls = record_widths(monkeypatch)
    lifted, _ = lift_min(source, sat_to_vertex_cover(formula))
    solve_pricing(lifted)
    per_vertex = [
        [2, 1, 2, 2, 4, 6, 6, 12, 18, 18, 18, 12, 15, 12, 16, 8, 7, 4],
        [2, 2, 4, 6, 12, 16, 20, 40, 60, 80, 68, 56, 48, 48, 48, 32, 16, 16],
    ]
    assert calls == [at_clique_ends(widths, lifted.base) for widths in per_vertex]
    assert calls == [[1, 2, 6, 18, 12, 12, 8, 4], [2, 6, 20, 80, 56, 48, 32, 16]]


# Per-vertex states of the floored query that certifies lift_min on the
# 1-pair thm2 output, recorded with one layer per vertex at cap 80.
THM2_COVER_WIDTHS = [
    2, 3, 3, 6, 9, 9, 18, 27, 27, 54, 67, 51, 96, 121, 78, 141, 157, 83, 166, 249, 332, 313,
    626, 882, 882, 1650, 2532, 2023, 4046, 5086, 3959, 7918, 7918, 15836, 9947, 17883, 9012,
    16948, 8492, 16428, 8232, 16168, 9352, 18504, 9252, 18404, 9216, 18432, 18432, 13952,
    9216, 7018, 4608, 4096, 3456, 2944, 2294, 1782, 1132, 868, 560, 432, 278, 278, 149, 149,
    11,
]


def test_cover_pattern_states_of_thm2_certification_are_pinned(monkeypatch):
    inst = compile_qdnf_pricing(random_formula(random.Random(1), 1, 3)).pricing
    artifact = sat_to_vertex_cover(inst.base.formula)
    calls = record_widths(monkeypatch)
    lift_min(inst, artifact, 80)
    target = artifact.target
    assert (target.size, len(target._cliques)) == (67, 28)
    assert calls == [at_clique_ends(THM2_COVER_WIDTHS, target)]


def test_no_frontier_move_touches_its_forbidden_bits(monkeypatch):
    # The engine tests a move's forbid bits with its close bits on the moved
    # key, which holds only while no move clears or puts a forbid bit and
    # no layer closes one.
    tables = []
    frontier = problems._frontier

    def recorded(layers, needs):
        tables.append(layers)
        return frontier(layers, needs)

    monkeypatch.setattr(problems, "_frontier", recorded)
    for pairs in (1, 2, 3):
        best_by_pattern(*thm2_query(pairs), 40)
    for formula, src in itertools.islice(seeded_sat_sources(random.Random(5), 16), 0, None, 3):
        solve_pricing(lift_min(src, sat_to_vertex_cover(formula))[0])
    layers = [layer for table in tables for layer in table]
    moves = [(close, *move) for close, layer_moves in layers for move in layer_moves]
    # Three SAT tables, which close clauses, and a certification and a solve
    # table per lift_min target, which forbid excluding forced vertices.
    assert len(tables) == 3 + 2 * 6
    assert any(close for close, *_ in moves) and any(forbid for _, forbid, *_ in moves)
    for close, forbid, clear, put, _, _ in moves:
        assert forbid & (clear | put) == 0
        assert forbid & close == 0


def lifted_queries(lift, artifact, src):
    """The certification query and the solve query of one lift's target:
    (problem, leader mask, gains, floor), under MIN with the weights and
    valuation negated."""
    lifted, _ = lift(src, artifact)
    target = lifted.base
    sign = -1 if target.sense is Sense.MIN else 1
    image_mask = target.mask_of(artifact.embedding.values())
    weights = tuple([sign * target.weights[e.id] for e in target.universe])
    valuation = tuple([sign * lifted.valuation[e.id] for e in target.universe])
    return [(target, image_mask, weights, sign * target.threshold),
            (target, target.mask_of(lifted.leader_ids), valuation, None)]


def test_pattern_oracles_match_the_enumeration_at_lift_chain_sizes():
    # Subset-sum targets of up to 16 items and vertex-cover targets of up
    # to 18 vertices, past the Hypothesis strategies' 10; item 1202 lifts to
    # 16 items, 10 of them images and 8 leaders.
    picked = {19, 63, 402, 484, 1202}
    sources = [source for k, source in enumerate(seeded_sat_sources(random.Random(5), 1203))
               if k in picked]
    sizes = set()
    for formula, src in sources:
        for lift, artifact in ((lift_max, sat_to_subset_sum(formula)),
                               (lift_min, sat_to_vertex_cover(formula))):
            for problem, leader_mask, gains, floor in lifted_queries(lift, artifact, src):
                expected = best_by_enumeration(problem, GroundChoice.FEASIBLE, leader_mask,
                                               gains, 24, floor)
                assert best_by_pattern(problem, GroundChoice.FEASIBLE, leader_mask, gains,
                                       floor=floor) == expected
                sizes.add((problem.name, problem.size, bin(leader_mask).count("1")))
    assert ("subset-sum", 16, 10) in sizes and ("subset-sum", 16, 8) in sizes


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
