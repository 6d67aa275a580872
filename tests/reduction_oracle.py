"""Reference reductions: certification by listing, and clause-walking constructions.

listing_check_reduction is check_reduction as it was before it read the
target's checks off best_by_pattern: it lists the target's solutions,
projects each onto the embedding image, and looks among them for one
strictly better than the threshold.  Its cost grows with the number of
target solutions, so it only serves as the reference at desk scale.

literal_universe, clause_walking_vertex_cover and clause_walking_subset_sum
build a formula's literal universe and its two reductions' artifacts the
way they were built before the formula carried incidence tables: from the
variable names and by testing each literal against each clause.
"""

from __future__ import annotations

import itertools

from pricegame.core import (
    DEFAULT_CAP,
    Element,
    GroundProblem,
    ReductionArtifact,
    ReductionReport,
    Sense,
    mask_sums,
    solution_set,
)
from pricegame.problems import (
    CnfFormula,
    EmptyClauseError,
    subset_sum_problem,
    vertex_cover_problem,
)


def map_set(artifact: ReductionArtifact, source_set) -> frozenset[str]:
    """A source set's image under the artifact's embedding."""
    return frozenset(artifact.embedding[i] for i in source_set)


def listing_check_reduction(
    source: GroundProblem, artifact: ReductionArtifact, cap: int = DEFAULT_CAP
) -> ReductionReport:
    """The three certification checks, each decided from listed families."""
    if {e.id for e in artifact.source_universe} != {e.id for e in source.universe}:
        raise ValueError("artifact source universe does not match the given source problem")
    src_solutions = solution_set(source, cap)
    target = artifact.target
    image_mask = target.mask_of(artifact.image_ids())
    tgt_solution_masks = target.solution_masks(cap)

    minimizing, t = target.sense is Sense.MIN, target.threshold
    weights = mask_sums([target.weights[e.id] for e in target.universe], tgt_solution_masks)
    tight = not any(w < t if minimizing else w > t for w in weights)

    mapped = frozenset(map_set(artifact, s) for s in src_solutions)
    projected = frozenset(target.ids_of(m & image_mask) for m in tgt_solution_masks)
    return ReductionReport(
        yes_equivalence=bool(src_solutions) == bool(tgt_solution_masks),
        family_match=mapped == projected,
        threshold_tight=tight,
    )


def _literal(formula: CnfFormula, lit: int) -> str:
    v = abs(lit)
    name = formula.var_names[v - 1] if formula.var_names is not None else f"x{v}"
    return name if lit > 0 else "~" + name


def literal_universe(formula: CnfFormula) -> tuple[Element, ...]:
    """A formula's 2n literals, the pairs interleaved: x1, ~x1, x2, ~x2, ..."""
    universe = []
    for v in range(1, formula.num_vars + 1):
        name = _literal(formula, v)
        universe.append(Element(name, name))
        universe.append(Element(_literal(formula, -v), "not " + name))
    return tuple(universe)


def clause_walking_vertex_cover(formula: CnfFormula) -> ReductionArtifact:
    """sat_to_vertex_cover's artifact, built from the clauses themselves."""
    for clause in formula.clauses:
        if not clause:
            raise EmptyClauseError("empty clause: formula is unsatisfiable by construction")
    n = formula.num_vars
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    embedding: dict[str, str] = {}
    for v in range(1, n + 1):
        pos, neg = _literal(formula, v), _literal(formula, -v)
        vertices += [f"v:{pos}", f"v:{neg}"]
        edges.append((f"v:{pos}", f"v:{neg}"))
        embedding[pos] = f"v:{pos}"
        embedding[neg] = f"v:{neg}"
    budget = n
    for j, clause in enumerate(formula.clauses, start=1):
        literals = sorted(clause)
        if len(literals) == 1:
            literals = literals * 2
        gadget = []
        for k, lit in enumerate(literals):
            node = f"c{j}.{k}"
            vertices.append(node)
            gadget.append(node)
            edges.append((node, f"v:{_literal(formula, lit)}"))
        edges.extend(itertools.combinations(gadget, 2))
        budget += len(gadget) - 1
    return ReductionArtifact(
        source_universe=literal_universe(formula),
        target=vertex_cover_problem(vertices, edges, budget),
        embedding=embedding,
        provenance=(
            {"step": "sat2vc", "params": {"threshold": budget, "vertices": len(vertices)}},
        ),
    )


_SLACK_DIGITS = {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (1, 2)}


def clause_walking_subset_sum(formula: CnfFormula) -> ReductionArtifact:
    """sat_to_subset_sum's artifact, testing every literal against every clause."""
    for clause in formula.clauses:
        if not clause:
            raise EmptyClauseError("empty clause: formula is unsatisfiable by construction")
        if len(clause) > 4:
            raise ValueError("clauses with more than four literals are not supported")
    n = formula.num_vars
    m = len(formula.clauses)
    base = max(10, max((len(c) for c in formula.clauses), default=0) + 3)
    digit = [base**k for k in range(n + m)]
    item_ids: list[str] = []
    weights: dict[str, int] = {}
    embedding: dict[str, str] = {}
    for v in range(1, n + 1):
        for lit in (v, -v):
            lid = _literal(formula, lit)
            value = digit[v - 1]
            for j, clause in enumerate(formula.clauses):
                if lit in clause:
                    value += digit[n + j]
            item_ids.append(lid)
            weights[lid] = value
            embedding[lid] = lid
    for j, clause in enumerate(formula.clauses, start=1):
        for slack, size in zip((f"s{j}a", f"s{j}b"), _SLACK_DIGITS[len(clause)]):
            if slack in weights:
                raise ValueError(f"variable {slack!r} clashes with the slack item {slack!r} "
                                 f"of clause {j}")
            item_ids.append(slack)
            weights[slack] = size * digit[n + j - 1]
    target_value = sum(digit[v] for v in range(n))
    for j, clause in enumerate(formula.clauses):
        target_value += len(clause) * digit[n + j]
    return ReductionArtifact(
        source_universe=literal_universe(formula),
        target=subset_sum_problem(item_ids, weights, target_value),
        embedding=embedding,
        provenance=(
            {"step": "sat2ss", "params": {"base": base, "target": target_value}},
        ),
    )
