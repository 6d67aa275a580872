"""Bilevel pricing over a ground problem, solved exactly.

The leader owns part of the universe and sets a rational price d(e) on each
owned element; the follower then picks, from a ground family of subsets, one
optimizing their own objective built from the fixed valuation:

    MAX / FEASIBILITY sense    maximize  valuation(X) - d(X)
    MIN sense                  minimize  valuation(X) + d(X)

The solver turns the sense into the sign of the follower's gain: the
valuation, negated under MIN.  Both objectives are then one, maximize
gain(X) - d(X), and the reported follower value is that net gain, negated
back under MIN.  Among follower-optimal responses the one best for the
leader is selected (optimistic tie-breaking), with remaining ties resolved
by canonical subset order over the universe: members compare as the
tuples of their sorted element positions, so a member precedes its
extensions.  `core._canon_before` is the one definition of that order.

The solver reads the ground family only through `core.best_by_pattern`,
its collapse to leader patterns: each member's intersection with the leader
set, kept with the best gain of any member on that pattern and the
canonical such member.  The problem enumerates its family for that, unless
its constructor installed an oracle that answers without listing it.
Every verdict is read off the patterns.  No pattern means the follower has
no solution.  If the price domain allows arbitrarily high prices and no
member avoids the leader's part (there is no pattern 0), revenue grows
without bound.  Otherwise one exact LP per candidate pattern, highest
revenue bound first, maximizes the pattern's price revenue subject to its
price lead over every other pattern staying within its gain lead, plus the
price-domain restriction.  The bilevel optimum is the best LP value.  An
infeasible candidate LP just means that pattern is never an optimal
response; candidates stop once the bound falls below the incumbent.
Candidates are taken in bound order alone: every candidate whose bound
reaches the optimum is solved whatever the order among equal bounds, and
equal LP values go to the canonically first member, so that order changes
neither the LPs solved nor the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import or_, sub

from .core import (
    DEFAULT_CAP,
    GroundChoice,
    GroundProblem,
    Sense,
    _canon_before,
    best_by_pattern,
    mask_sums,
)
from .linprog import LinearProgram, LpStatus, solve_lp


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
    """One pricing game over a base problem; derive variants with dataclasses.replace."""

    base: GroundProblem
    leader_ids: frozenset[str]
    valuation: dict[str, int]
    ground: GroundChoice
    domain: Domain = Domain.FREE
    threshold: Fraction = Fraction(0)

    def __post_init__(self):
        ids = {e.id for e in self.base.universe}
        if not self.leader_ids <= ids:
            raise ValueError("leader elements must belong to the base universe")
        if set(self.valuation) != ids:
            raise ValueError("valuation must cover exactly the base universe")
        if any(v < 0 for v in self.valuation.values()):
            raise ValueError("valuations must be nonnegative")
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        if self.threshold < 0:
            raise ValueError("decision threshold must be nonnegative")

    @property
    def minimizing(self) -> bool:
        return self.base.sense is Sense.MIN


@dataclass(frozen=True)
class PricingSolution:
    status: SolveStatus
    prices: dict[str, Fraction] | None = None
    response: frozenset[str] | None = None
    leader_value: Fraction | None = None
    follower_value: Fraction | None = None


@dataclass(frozen=True)
class PriceEvaluation:
    """Exact optimistic outcome of one fixed price vector."""

    follower_value: Fraction
    leader_value: Fraction
    response: frozenset[str]


def incentive_to_price(gross_profit: dict, incentive: dict) -> dict[str, Fraction]:
    """Convert per-element incentives into prices: d(e) = profit(e) - incentive(e)."""
    if set(gross_profit) != set(incentive):
        raise ValueError("profit and incentive maps must share the same key set")
    return {e: Fraction(gross_profit[e]) - Fraction(incentive[e]) for e in gross_profit}


def _bits(mask: int) -> list[int]:
    """The positions of a mask's set bits, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _collapse(inst: PricingInstance, ground: GroundChoice, cap: int) -> dict[int, tuple[int, int]]:
    sign = -1 if inst.minimizing else 1
    gains = tuple(sign * inst.valuation[e.id] for e in inst.base.universe)
    return best_by_pattern(inst.base, ground, inst.base.mask_of(inst.leader_ids), gains, cap)


def solve_pricing(inst: PricingInstance, cap: int = DEFAULT_CAP) -> PricingSolution:
    """Exact optimistic bilevel optimum of a pricing instance."""
    if inst.domain is Domain.LOWER_CAP and not inst.minimizing:
        raise ValueError("the lower-cap domain applies to minimization instances only")
    patterns = _collapse(inst, inst.ground, cap)
    if not patterns:
        return PricingSolution(SolveStatus.NO_FOLLOWER_SOLUTION)
    low_bound, high_bound = _PRICE_BOUNDS[inst.domain]
    if high_bound is None and 0 not in patterns:
        return PricingSolution(SolveStatus.UNBOUNDED)

    base = inst.base
    var_bits = _bits(reduce(or_, patterns, 0))
    var_ids = [base.universe[b].id for b in var_bits]
    caps = [inst.valuation[e] for e in var_ids]
    lower = {} if low_bound is None else {k: low_bound * c for k, c in enumerate(caps)}
    upper = {} if high_bound is None else {k: high_bound * c for k, c in enumerate(caps)}
    # Each pattern's 0/1 price vector over var_bits, built once per solve.
    vector = {p: tuple(p >> b & 1 for b in var_bits) for p in patterns}

    # A pattern's revenue is at most its gain lead over pattern 0, or, with
    # no all-follower member (only under price caps), the sum of its caps.
    if 0 in patterns:
        bound = {p: gain - patterns[0][0] for p, (gain, _) in patterns.items()}
    else:
        valuations = [inst.valuation[e.id] for e in base.universe]
        bound = dict(zip(patterns, mask_sums(valuations, patterns)))

    best_value: Fraction | None = None
    best_pattern: int | None = None
    best_witness: tuple[Fraction, ...] | None = None
    for pattern in sorted(patterns, key=bound.__getitem__, reverse=True):
        if best_value is not None and bound[pattern] < best_value:
            break  # bounds only fall from here on
        gain, member = patterns[pattern]
        if not var_bits:
            # The one pattern is 0, which earns nothing.
            value, witness = Fraction(0), ()
        else:
            # Stay follower-optimal against every other pattern: the price
            # difference is at most the gain gap.
            objective = vector[pattern]
            rows = []
            for other, (other_gain, _) in patterns.items():
                if other != pattern:
                    gap = gain - other_gain
                    rows.append((tuple(map(sub, objective, vector[other])), "<=", gap))
            lp = LinearProgram(len(objective), objective, tuple(rows), lower, upper)
            outcome = solve_lp(lp)
            if outcome.status is LpStatus.INFEASIBLE:
                continue  # this candidate is never a follower optimum
            if outcome.status is LpStatus.UNBOUNDED:
                raise RuntimeError("candidate LP unbounded despite structural bound")
            value, witness = outcome.optimal_value, outcome.witness
        if best_value is None or value > best_value or (
            value == best_value and _canon_before(member, patterns[best_pattern][1])
        ):
            best_value, best_pattern, best_witness = value, pattern, witness

    if best_value is None:
        raise RuntimeError(
            "every candidate LP is infeasible, yet some pattern is follower-optimal"
            " at any admissible prices"
        )
    prices = {e: Fraction(0) for e in inst.leader_ids}
    prices.update(zip(var_ids, best_witness))
    gain, member = patterns[best_pattern]
    net = gain - best_value
    follower_value = -net if inst.minimizing else net
    return PricingSolution(
        SolveStatus.OPTIMAL, prices, base.ids_of(member), best_value, follower_value
    )


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
    inst: PricingInstance,
    prices: dict[str, Fraction],
    cap: int = DEFAULT_CAP,
    ground: GroundChoice | None = None,
) -> PriceEvaluation:
    """Exact optimistic follower response to one fixed price vector.

    Independent of the LP machinery; used as a lower-bound oracle on the
    solver and for the scaled-bound experiments on lifted instances.
    """
    if set(prices) != set(inst.leader_ids):
        raise ValueError("prices must be given on exactly the leader elements")
    patterns = _collapse(inst, ground or inst.ground, cap)
    if not patterns:
        raise NoFollowerSolutionError("the follower has no admissible response")
    base = inst.base

    # The follower takes the best net gain, the leader the dearest of those
    # responses, and canonical order breaks the ties that remain.
    best_rank: tuple[Fraction, Fraction] | None = None
    response: int | None = None
    for pattern, (gain, member) in patterns.items():
        paid = sum((Fraction(prices[base.universe[b].id]) for b in _bits(pattern)),
                   Fraction(0))
        rank = (gain - paid, paid)
        if best_rank is None or rank > best_rank or (
            rank == best_rank and _canon_before(member, response)
        ):
            best_rank, response = rank, member
    net, leader_value = best_rank
    follower_value = -net if inst.minimizing else net
    return PriceEvaluation(follower_value, leader_value, base.ids_of(response))
