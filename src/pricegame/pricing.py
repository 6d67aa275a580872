"""Bilevel pricing over a ground problem, solved exactly.

The leader owns part of the universe and sets a rational price d(e) on each
owned element; the follower then picks, from a ground family of subsets, one
optimizing their own objective built from the fixed valuation:

    MAX / FEASIBILITY sense    maximize  valuation(X) - d(X)
    MIN sense                  minimize  valuation(X) + d(X)

Beyond the lower-cap domain's check, the solver reads the sense only as
`Sense.sign`, the sign of the follower's gain (-1 under MIN): the gain is
the valuation times it.  Both objectives are then one, maximize
gain(X) - d(X), and the reported follower value is that net gain times
the sign again.  Among follower-optimal responses the one best for the
leader is selected (optimistic tie-breaking), with remaining ties resolved
by canonical subset order over the universe: members compare as the tuples
of their sorted element positions, so a member precedes its extensions.
`core._beats` is the one rule for every such choice, asked by the solve
and, for an evaluation's ties, by the follower's oracle.

The solver reads the ground family only through `core.best_by_pattern`,
its collapse to leader patterns: each member's intersection with the leader
set, kept with the best gain of any member on that pattern and the
canonical such member.  The problem's patterns method answers; by default
it enumerates the family, and a kind may answer without listing it.
Every verdict is read off the patterns.  No pattern means the follower has
no solution.  If the price domain allows arbitrarily high prices and no
member avoids the leader's part (there is no pattern 0), revenue grows
without bound.  Otherwise one exact LP per candidate pattern, highest
revenue bound first, maximizes the pattern's price revenue subject to its
price lead over every other pattern staying within its gain lead, plus the
price-domain restriction.  A domain bounds each price by a multiple of its
valuation.  The LP takes only lower bounds, so the caps are rows
e_k <= cap_k after the pattern rows.  The simplex starts each price at its
lower bound, or at zero when it has none; capped prices started at zero
meet their cap rows and every row against a pattern of no larger gain.
The bilevel optimum is the best LP value.  An infeasible candidate LP just
means that pattern is never an optimal response.  Equal LP values go to the
canonically first member, so candidates are taken by bound, highest first,
and among equal bounds in canonical order of their members.  They stop at
the first candidate whose bound does not beat the incumbent: no candidate
from there on can win, so the result is the one that solving every
candidate would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_, sub
from types import MappingProxyType
from typing import Mapping

from .core import (
    CapExceededError,
    DEFAULT_CAP,
    GroundChoice,
    GroundProblem,
    Sense,
    _beats,
    best_by_pattern,
    bits,
    mask_sums,
)
from .linprog import LinearProgram, LpStatus, solve_lp
from .rational import require_ints


class Domain(Enum):
    FREE = "free"
    NONNEG = "nonneg"
    CAPPED = "capped"
    BOX = "box"
    LOWER_CAP = "lowercap"


# Each domain's (lower, upper) price bound as a multiple of the element's
# valuation, None for no bound.  A domain with no upper bound lets revenue
# grow without limit when no member avoids the leader's part.
_PRICE_BOUNDS = {
    Domain.FREE: (None, None),
    Domain.NONNEG: (0, None),
    Domain.CAPPED: (None, 1),
    Domain.BOX: (0, 1),
    Domain.LOWER_CAP: (-1, None),
}


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    NO_FOLLOWER_SOLUTION = "no-follower-solution"


class NoFollowerSolutionError(RuntimeError):
    """The follower's ground family is empty; the game is vacuous."""


@dataclass(frozen=True, eq=False)
class PricingInstance:
    """One pricing game over a base problem; derive variants with dataclasses.replace.

    valuation is a read-only copy of the mapping given, and its values are
    ints.  threshold is an int or a Fraction and is stored as a Fraction; a
    float or a bool in either raises TypeError.
    """

    base: GroundProblem
    leader_ids: frozenset[str]
    valuation: Mapping[str, int]
    ground: GroundChoice
    domain: Domain = Domain.FREE
    threshold: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "valuation", MappingProxyType(dict(self.valuation)))
        require_ints(self.valuation.values(), "valuation")
        if type(self.threshold) not in (int, Fraction):
            raise TypeError(f"threshold {self.threshold!r} is not an int or a Fraction")
        ids = self.base._index.keys()
        if not self.leader_ids <= ids:
            raise ValueError("leader elements must belong to the base universe")
        if self.valuation.keys() != ids:
            raise ValueError("valuation must cover exactly the base universe")
        if min(self.valuation.values(), default=0) < 0:
            raise ValueError("valuations must be nonnegative")
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        if self.threshold < 0:
            raise ValueError("decision threshold must be nonnegative")


@dataclass(frozen=True)
class PricingSolution:
    status: SolveStatus
    prices: dict[str, Fraction] | None = None
    response: frozenset[str] | None = None
    leader_value: Fraction | None = None
    follower_value: Fraction | None = None


def solve_pricing(inst: PricingInstance, cap: int = DEFAULT_CAP) -> PricingSolution:
    """Exact optimistic bilevel optimum of a pricing instance."""
    if inst.domain is Domain.LOWER_CAP and inst.base.sense is not Sense.MIN:
        raise ValueError("the lower-cap domain applies to minimization instances only")
    base = inst.base
    gains = tuple([base.sense.sign * inst.valuation[e.id] for e in base.universe])
    try:
        patterns = best_by_pattern(base, inst.ground, base.mask_of(inst.leader_ids), gains, cap)
    except CapExceededError as err:
        raise err.staged(f"solve of the {base.name} ground: ") from err
    if not patterns:
        return PricingSolution(SolveStatus.NO_FOLLOWER_SOLUTION)
    low_bound, high_bound = _PRICE_BOUNDS[inst.domain]
    if high_bound is None and 0 not in patterns:
        return PricingSolution(SolveStatus.UNBOUNDED)

    var_bits = bits(reduce(or_, patterns, 0))
    var_ids = [base.universe[b].id for b in var_bits]
    caps = [inst.valuation[e] for e in var_ids]
    lower = {} if low_bound is None else {k: low_bound * c for k, c in enumerate(caps)}
    # One e_k <= high_bound * cap_k row per priced element, after every
    # candidate's pattern rows.
    cap_rows = [] if high_bound is None else [
        (tuple([int(i == k) for i in range(len(caps))]), high_bound * c)
        for k, c in enumerate(caps)
    ]
    # Each pattern's 0/1 price vector over var_bits, built once per solve.
    vector = {p: tuple([p >> b & 1 for b in var_bits]) for p in patterns}
    # Bland's rule can reach another vertex of a degenerate LP when the rows
    # come in another order, so every candidate's rows follow the patterns
    # by value: the solve is a function of the answer's items alone.
    ordered = sorted(patterns.items())

    # A pattern's revenue is at most its gain lead over pattern 0, or, with
    # no all-follower member (only under price caps), the sum of its caps.
    if 0 in patterns:
        bound = {p: gain - patterns[0][0] for p, (gain, _) in patterns.items()}
    else:
        valuations = [inst.valuation[e.id] for e in base.universe]
        bound = dict(zip(patterns, mask_sums(valuations, patterns)))

    best = None  # the incumbent: (LP value, member, gain, witness)
    for pattern in sorted(patterns, key=lambda p: (-bound[p], bits(patterns[p][1]))):
        gain, member = patterns[pattern]
        if not _beats(bound[pattern], member, best):
            break  # no candidate from here on can win
        if not var_bits:
            # The one pattern is 0, which earns nothing.
            value, witness = Fraction(0), ()
        else:
            # Stay follower-optimal against every other pattern: the price
            # difference is at most the gain gap.
            objective = vector[pattern]
            rows = []
            for other, (other_gain, _) in ordered:
                if other != pattern:
                    gap = gain - other_gain
                    rows.append((tuple([*map(sub, objective, vector[other])]), gap))
            lp = LinearProgram(len(objective), objective, tuple(rows + cap_rows), lower)
            outcome = solve_lp(lp)
            if outcome.status is LpStatus.INFEASIBLE:
                continue  # this candidate is never a follower optimum
            if outcome.status is LpStatus.UNBOUNDED:
                raise RuntimeError("candidate LP unbounded despite structural bound")
            value, witness = outcome.optimal_value, outcome.witness
        if _beats(value, member, best):
            best = (value, member, gain, witness)

    if best is None:
        raise RuntimeError(
            "every candidate LP is infeasible, yet some pattern is follower-optimal"
            " at any admissible prices"
        )
    value, member, gain, witness = best
    prices = {e: Fraction(0) for e in inst.leader_ids}
    prices.update(zip(var_ids, witness))
    return PricingSolution(SolveStatus.OPTIMAL, prices, base.ids_of(member), value,
                           base.sense.sign * (gain - value))


def meets_threshold(inst: PricingInstance, outcome: PricingSolution) -> bool:
    """Whether a solve outcome secures the instance threshold for the leader.

    Unbounded revenue meets every threshold; an empty follower family has
    no decision and raises.
    """
    if outcome.status is SolveStatus.NO_FOLLOWER_SOLUTION:
        raise NoFollowerSolutionError("the follower has no admissible response")
    if outcome.status is SolveStatus.UNBOUNDED:
        return True
    return outcome.leader_value >= inst.threshold


def decide_pricing(inst: PricingInstance, cap: int = DEFAULT_CAP) -> bool:
    """Whether the leader can secure at least the instance threshold."""
    return meets_threshold(inst, solve_pricing(inst, cap))


def evaluate_prices(
    inst: PricingInstance, prices: dict[str, Fraction], cap: int = DEFAULT_CAP
) -> PricingSolution:
    """Exact optimistic follower response to one fixed price vector.

    One query to the follower's pattern oracle with leader mask 0, sharing
    no collapse and no remembered answer with the solve.  Each price is an
    int or a Fraction, else TypeError; the outcome is OPTIMAL at the given
    prices, and an OPTIMAL solve equals the evaluation at its own prices.
    """
    if set(prices) != set(inst.leader_ids):
        raise ValueError("prices must be given on exactly the leader elements")
    for e, price in prices.items():
        if type(price) not in (int, Fraction):
            raise TypeError(f"price {price!r} on {e!r} is not an int or a Fraction")
    prices = {e: Fraction(price) for e, price in prices.items()}
    base, sign = inst.base, inst.base.sense.sign
    # Payments in units of 1/d lie within ±big/2: big·net + payment ranks net, then payment.
    d = lcm(*[price.denominator for price in prices.values()])
    paid = [int(d * prices.get(e.id, 0)) for e in base.universe]
    big = 2 * sum(map(abs, paid)) + 1
    gains = tuple([big * (d * sign * inst.valuation[e.id] - c) + c
                   for e, c in zip(base.universe, paid)])
    try:
        base._check_cap(cap)
        answer = base.patterns(inst.ground, 0, gains, cap)
    except CapExceededError as err:
        raise err.staged(f"evaluation of the {base.name} ground: ") from err
    if not answer:
        raise NoFollowerSolutionError("the follower has no admissible response")
    key, response = answer[0]
    net, payment = divmod(key + big // 2, big)
    return PricingSolution(SolveStatus.OPTIMAL, prices, base.ids_of(response),
                           Fraction(payment - big // 2, d), sign * Fraction(net, d))
