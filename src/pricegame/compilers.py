"""Hardness-instance compilers and the exhaustive two-quantifier oracle.

compile_qdnf_pricing turns an exists/forall DNF formula over equal variable
blocks into a pricing instance over a satisfiability ground problem whose
decision at the emitted threshold agrees with the quantified formula.  The
gadget works as follows.  A fallback variable gives the follower a fixed
outside option worth n, so the leader can never push the follower's optimum
below n.  When the follower engages instead, a selector triple per block
position (true / false / skip) makes the follower reveal an assignment of
the exists block through whichever selector is cheaper, a toll element is
where the leader collects, and a dodge element lets the follower escape the
toll exactly when the revealed exists assignment fails against some forall
assignment.  Collecting the full toll plus the selector margins is possible
precisely when some exists assignment beats every forall assignment.

lift_max, lift_min and lift_feas transport a pricing instance over
satisfiability through a certified reduction into pricing over the
reduction's target problem.  They are one lift that differs only in the
target sense it accepts: the lifted valuation is scale * weight plus the
source value on embedded elements (minus it for a minimization target),
with the scale large enough that follower optimality is decided by the
weight digit first; feasibility targets have zero weights, so only the
source value remains.  weight_lift rescales a minimization target so every
embedded element has weight at least one, preserving the solution set;
lift_min applies it on demand and the CLI's weight-lift pipeline records it
as a provenance step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_CAP,
    CapExceededError,
    CertificationError,
    GroundProblem,
    ReductionArtifact,
    Sense,
    check_reduction,
    mask_sums,
)
from .pricing import Domain, GroundChoice, PricingInstance
from .problems import CnfFormula, sat_problem

QDNF_PAIR_LIMIT = 12


class CompileAnomalyError(RuntimeError):
    """A compiled instance violated one of the compiler's own guarantees."""


@dataclass(frozen=True)
class QdnfFormula:
    """An exists/forall formula in DNF over two equal variable blocks.

    Variables 1..num_pairs form the exists block, num_pairs+1..2*num_pairs
    the forall block.  Terms are conjunctions given as literal sets; the
    empty term list is the vacuous false formula.
    """

    num_pairs: int
    terms: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.num_pairs < 1:
            raise ValueError("need at least one variable pair")
        seen = set()
        for term in self.terms:
            for lit in term:
                if lit == 0 or abs(lit) > 2 * self.num_pairs:
                    raise ValueError(f"literal {lit} out of range")
            if any(-lit in term for lit in term):
                raise ValueError("term contains a literal and its negation")
            seen.add(term)
        if len(seen) != len(self.terms):
            raise ValueError("duplicate terms")


def qdnf(num_pairs: int, terms) -> QdnfFormula:
    """Constructor that deduplicates and canonically orders the terms."""
    unique = {frozenset(t) for t in terms}
    ordered = tuple(sorted(unique, key=lambda t: (len(t), sorted(t))))
    return QdnfFormula(num_pairs, ordered)


def qdnf_holds(q: QdnfFormula) -> bool:
    """Exhaustively decide the exists/forall DNF formula.

    True iff some exists-block assignment satisfies the formula under every
    forall-block assignment.  The walk is 4^n, so n is capped.
    """
    n = q.num_pairs
    if n > QDNF_PAIR_LIMIT:
        raise CapExceededError(n, QDNF_PAIR_LIMIT, f"a formula of {n} exists/forall pairs")
    terms = []
    for term in q.terms:
        pos = neg = 0
        for lit in term:
            bit = 1 << (abs(lit) - 1)
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        terms.append((pos, neg))
    for alpha in range(1 << n):
        for beta in range(1 << n):
            assign = alpha | beta << n
            if not any(
                assign & pos == pos and assign & neg == 0 for pos, neg in terms
            ):
                break
        else:
            return True
    return False


@dataclass(frozen=True)
class CompiledSatPricing:
    pricing: PricingInstance
    decision_threshold: int
    price_unit: int
    atlas: dict[str, str]
    formula: CnfFormula
    provenance: tuple[dict, ...]


def _exactly_one(guard: int, a: int, b: int, c: int):
    return [
        frozenset({guard, a, b, c}),
        frozenset({guard, -a, -b}),
        frozenset({guard, -a, -c}),
        frozenset({guard, -b, -c}),
    ]


def compile_qdnf_pricing(q: QdnfFormula) -> CompiledSatPricing:
    """Compile a quantified DNF formula into a pricing-over-sat instance.

    The decision at the returned threshold equals qdnf_holds(q).  Leader
    part: the true/false selectors and the toll, all priced at the unit;
    follower part: everything else, with the fallback worth n, the skip
    selectors and the dodge worth one each.
    """
    n = q.num_pairs
    unit = 2 * n
    threshold = (n + 1) * unit - n

    names = ["fallback", "engage", "toll", "dodge"]
    for i in range(1, n + 1):
        names += [f"sel_true{i}", f"sel_false{i}", f"sel_skip{i}", f"exists{i}", f"forall{i}"]
    var = {name: k + 1 for k, name in enumerate(names)}

    def mapped(lit: int) -> int:
        k = abs(lit)
        if k <= n:
            target = var[f"exists{k}"]
        else:
            target = var[f"forall{k - n}"]
        return target if lit > 0 else -target

    fallback, engage = var["fallback"], var["engage"]
    toll, dodge = var["toll"], var["dodge"]
    clauses = [frozenset({fallback, engage})]
    clauses += [frozenset({-fallback, -v}) for name, v in var.items() if name != "fallback"]
    clauses += [frozenset({-engage, toll, dodge}), frozenset({-engage, -toll, -dodge})]
    for term in q.terms:
        clauses.append(frozenset({-engage, -dodge} | {-mapped(lit) for lit in term}))
    for i in range(1, n + 1):
        st, sf, sk = var[f"sel_true{i}"], var[f"sel_false{i}"], var[f"sel_skip{i}"]
        ex = var[f"exists{i}"]
        clauses += _exactly_one(-engage, st, sf, sk)
        clauses += [
            frozenset({-engage, -st, ex}),
            frozenset({-engage, -sf, -ex}),
            frozenset({-engage, -sk, toll}),
        ]

    formula = CnfFormula(len(names), tuple(clauses), tuple(names))
    base = sat_problem(formula)

    leader = {"toll"}
    valuation = {e.id: 0 for e in base.universe}
    valuation["toll"] = unit
    valuation["fallback"] = n
    valuation["dodge"] = 1
    for i in range(1, n + 1):
        leader |= {f"sel_true{i}", f"sel_false{i}"}
        valuation[f"sel_true{i}"] = unit
        valuation[f"sel_false{i}"] = unit
        valuation[f"sel_skip{i}"] = 1

    pricing = PricingInstance(
        base=base,
        leader_ids=frozenset(leader),
        valuation=valuation,
        ground=GroundChoice.SOLUTIONS,
        domain=Domain.FREE,
        threshold=Fraction(threshold),
    )

    # The all-negative fallback response must satisfy the formula, live
    # entirely on the follower's side, and be worth exactly n; anything
    # else means the emitted instance does not behave as designed.
    outside = frozenset(
        {"fallback"} | {"~" + name for name in names if name != "fallback"}
    )
    if not base.feasible(outside):
        raise CompileAnomalyError("fallback response is not a solution of the emitted formula")
    if outside & pricing.leader_ids:
        raise CompileAnomalyError("fallback response touches the leader part")
    fallback_value = sum(valuation[e] for e in outside)
    if fallback_value != n:
        raise CompileAnomalyError(f"fallback response worth {fallback_value}, expected {n}")

    provenance = (
        {
            "step": "thm2",
            "params": {
                "pairs": n,
                "price_unit": unit,
                "decision_threshold": threshold,
                "fallback_value": fallback_value,
            },
        },
    )
    atlas = {name: name for name in names}
    return CompiledSatPricing(pricing, threshold, unit, atlas, formula, provenance)


@dataclass(frozen=True)
class LiftParameters:
    mode: str
    weight_scale: int
    target_optimum: int | None


def _weight_scale(sat_pricing: PricingInstance) -> int:
    n = len(sat_pricing.base.universe)
    return 4 * n * sum(sat_pricing.valuation.values())


def _target_optimum(target: GroundProblem, cap: int) -> int | None:
    solutions = target.solution_masks(cap)
    if not solutions:
        return None
    values = set(mask_sums([target.weights[e.id] for e in target.universe], solutions))
    if len(values) != 1:
        raise CompileAnomalyError("target solutions do not share a common weight")
    return values.pop()


# The lifted valuation is scale * w plus the source value on embedded
# elements, minus it for a minimization target; the ground is the feasible
# family, except for a feasibility target, whose feasible sets are already
# its solutions.
_LIFTS = {
    Sense.MAX: ("max", 1, GroundChoice.FEASIBLE),
    Sense.MIN: ("min", -1, GroundChoice.FEASIBLE),
    Sense.FEASIBILITY: ("feas", 1, GroundChoice.SOLUTIONS),
}


def _lift(
    sat_pricing: PricingInstance,
    artifact: ReductionArtifact,
    cap: int,
    sense: Sense,
) -> tuple[PricingInstance, LiftParameters]:
    mode, sign, ground = _LIFTS[sense]
    if artifact.target.sense is not sense:
        raise ValueError(f"lift_{mode} needs a {sense.value}-sense target")
    try:
        report = check_reduction(sat_pricing.base, artifact, cap)
    except CapExceededError as err:
        raise err.staged(f"lift-{mode} ") from err
    if not report.passed:
        raise CertificationError(report)
    target = artifact.target
    image_ids = artifact.image_ids()
    # Certified: the target has solutions iff the source does, and, being
    # tight, every one of them weighs exactly the threshold.
    optimum = target.threshold if sat_pricing.base.solution_masks(cap) else None
    if sense is Sense.MIN and any(target.weights[i] < 1 for i in image_ids):
        before = set(target.solution_masks(cap))
        target = weight_lift(target, image_ids)
        if set(target.solution_masks(cap)) != before:
            raise CompileAnomalyError("weight rescaling changed the target solution set")
        optimum = _target_optimum(target, cap)
    scale = _weight_scale(sat_pricing)
    image = {v: k for k, v in artifact.embedding.items()}
    valuation = {}
    for e in target.universe:
        valuation[e.id] = scale * target.weights[e.id]
        if e.id in image:
            valuation[e.id] += sign * sat_pricing.valuation[image[e.id]]
        if valuation[e.id] < 0:
            raise CompileAnomalyError("negative lifted cost; weight rescaling was skipped?")
    lifted = PricingInstance(
        base=target,
        leader_ids=frozenset(artifact.embedding[e] for e in sat_pricing.leader_ids),
        valuation=valuation,
        ground=ground,
        domain=sat_pricing.domain,
        threshold=sat_pricing.threshold,
    )
    return lifted, LiftParameters(mode, scale, optimum)


def lift_max(
    sat_pricing: PricingInstance,
    artifact: ReductionArtifact,
    cap: int = DEFAULT_CAP,
) -> tuple[PricingInstance, LiftParameters]:
    """Transport pricing over satisfiability to a maximization target.

    Target profits become scale * weight, plus the source profit on embedded
    elements, so the weight digit dominates and the source game replays on
    the embedded copy.  The decision threshold carries over unchanged.
    """
    return _lift(sat_pricing, artifact, cap, Sense.MAX)


def lift_min(
    sat_pricing: PricingInstance,
    artifact: ReductionArtifact,
    cap: int = DEFAULT_CAP,
) -> tuple[PricingInstance, LiftParameters]:
    """Transport pricing over satisfiability to a minimization target.

    Costs become scale * weight minus the source profit on embedded
    elements.  If any embedded element has weight zero the target is first
    rescaled by weight_lift, which leaves the solution set untouched; the
    lifted instance's base is then the rescaled target.
    """
    return _lift(sat_pricing, artifact, cap, Sense.MIN)


def lift_feas(
    sat_pricing: PricingInstance,
    artifact: ReductionArtifact,
    cap: int = DEFAULT_CAP,
) -> tuple[PricingInstance, LiftParameters]:
    """Transport pricing over satisfiability to a feasibility-only target.

    With all target weights zero the scaled term vanishes: embedded elements
    inherit the source profit, everything else is worth nothing, and the
    follower ranges over the target solution family.
    """
    return _lift(sat_pricing, artifact, cap, Sense.FEASIBILITY)


def weight_lift(problem: GroundProblem, image_ids) -> GroundProblem:
    """Rescale a minimization problem so embedded elements weigh at least 1.

    New weights are scale * w + 1 on the embedded elements and scale * w
    elsewhere, with scale one above the embedded-universe size; the new
    threshold is scale * t + half that size.  For targets of literal-universe
    reductions (every solution picks exactly half of the embedded elements)
    the solution set is unchanged.
    """
    if problem.sense is not Sense.MIN:
        raise ValueError("weight_lift applies to minimization problems")
    image = frozenset(image_ids)
    if not image <= {e.id for e in problem.universe}:
        raise ValueError("embedded elements must belong to the universe")
    n = len(image)
    if n % 2 != 0:
        raise ValueError("embedded universe size must be even (literal pairs)")
    scale = n + 1
    new_weights = {
        e.id: scale * problem.weights[e.id] + (1 if e.id in image else 0)
        for e in problem.universe
    }
    return dataclasses.replace(
        problem, weights=new_weights, threshold=scale * problem.threshold + n // 2
    )
