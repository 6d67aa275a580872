"""Exact laboratory for combinatorial Stackelberg pricing games.

Leaders price part of a finite universe, followers answer with an exact
combinatorial best response, and every number in between is a rational.
Ships the bilevel solver, the problem and reduction layer (satisfiability,
vertex cover, subset sum), the quantified-DNF hardness compiler with its
lifts, and a batch verification harness.
"""

from .rational import Rational, format_rational, parse_rational
from .linprog import LinearProgram, LpOutcome, LpStatus, make_lp, solve_lp
from .core import (
    CapExceededError,
    CertificationError,
    DEFAULT_CAP,
    Element,
    GroundProblem,
    ReductionArtifact,
    ReductionReport,
    Sense,
    best_by_pattern,
    check_reduction,
    explicit_problem,
    identity_reduction,
    solution_set,
)
from .problems import (
    CnfFormula,
    EmptyClauseError,
    cnf,
    sat_problem,
    sat_to_subset_sum,
    sat_to_vertex_cover,
    subset_sum_problem,
    vertex_cover_problem,
)
from .pricing import (
    Domain,
    GroundChoice,
    NoFollowerSolutionError,
    PriceEvaluation,
    PricingInstance,
    PricingSolution,
    SolveStatus,
    decide_pricing,
    evaluate_prices,
    incentive_to_price,
    solve_pricing,
)
from .compilers import (
    CompileAnomalyError,
    CompiledSatPricing,
    LiftParameters,
    QdnfFormula,
    compile_qdnf_pricing,
    lift_feas,
    lift_max,
    lift_min,
    qdnf,
    qdnf_holds,
    weight_lift,
)
