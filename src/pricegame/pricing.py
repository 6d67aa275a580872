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
by canonical subset order over the universe.

The solver enumerates the ground family once and collapses it to leader
patterns: each member's intersection with the leader set, kept with the
best gain of any member on that pattern and the canonical such member.
Every verdict is read off the patterns.  No pattern means the follower has
no solution.  If the price domain allows arbitrarily high prices and no
member avoids the leader's part (there is no pattern 0), revenue grows
without bound.  Otherwise one exact LP per candidate pattern, highest
revenue bound first, maximizes the pattern's price revenue subject to its
price lead over every other pattern staying within its gain lead, plus the
price-domain restriction.  The bilevel optimum is the best LP value.  An
infeasible candidate LP just means that pattern is never an optimal
response; candidates stop once the bound falls below the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import sub

from .core import DEFAULT_CAP, GroundProblem, Sense, mask_sums
from .linprog import LinearProgram, LpStatus, solve_lp


class Domain(Enum):
    FREE = "free"
    NONNEG = "nonneg"
    CAPPED = "capped"
    BOX = "box"
    LOWER_CAP = "lowercap"


# Domains with no upper limit on prices; under CAPPED and BOX the problem
# is always bounded and the structural check is skipped.
_UNBOUNDED_CAPABLE = {Domain.FREE, Domain.NONNEG, Domain.LOWER_CAP}


class GroundChoice(Enum):
    FEASIBLE = "feasible"
    SOLUTIONS = "solutions"


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


@dataclass(frozen=True)
class _Signatures:
    gain_of: dict[int, int]    # leader pattern -> best follower gain
    rep_of: dict[int, int]     # leader pattern -> canonical best member


def _canon_key(mask: int) -> tuple[int, ...]:
    key = []
    while mask:
        low = mask & -mask
        key.append(low.bit_length() - 1)
        mask ^= low
    return tuple(key)


def _signatures(
    base: GroundProblem, ground: GroundChoice, leader_mask: int,
    gains: tuple[int, ...], cap: int,
) -> _Signatures:
    # Memoised on the base problem under the other arguments, so fresh
    # instances over one base share the collapse.
    key = (ground, leader_mask, gains, cap)
    cached = base._signature_cache.get(key)
    if cached is not None:
        return cached

    if ground is GroundChoice.FEASIBLE:
        masks = base.feasible_masks(cap)
    else:
        masks = base.solution_masks(cap)
    gain_of: dict[int, int] = {}
    rep_of: dict[int, int] = {}
    for m, gain in zip(masks, mask_sums(gains, masks)):
        pattern = m & leader_mask
        best = gain_of.get(pattern)
        if best is None or gain > best:
            gain_of[pattern] = gain
            rep_of[pattern] = m
        elif gain == best and _canon_key(m) < _canon_key(rep_of[pattern]):
            rep_of[pattern] = m
    sig = _Signatures(gain_of, rep_of)
    base._signature_cache[key] = sig
    return sig


def _collapse(inst: PricingInstance, ground: GroundChoice, cap: int) -> _Signatures:
    sign = -1 if inst.minimizing else 1
    gains = tuple(sign * inst.valuation[e.id] for e in inst.base.universe)
    return _signatures(inst.base, ground, inst.base.mask_of(inst.leader_ids), gains, cap)


def _domain_bounds(inst: PricingInstance, var_ids: list[str]):
    lower: dict[int, int] = {}
    upper: dict[int, int] = {}
    for k, e in enumerate(var_ids):
        cap_value = inst.valuation[e]
        if inst.domain is Domain.NONNEG:
            lower[k] = 0
        elif inst.domain is Domain.CAPPED:
            upper[k] = cap_value
        elif inst.domain is Domain.BOX:
            lower[k] = 0
            upper[k] = cap_value
        elif inst.domain is Domain.LOWER_CAP:
            lower[k] = -cap_value
    return lower, upper


def solve_pricing(inst: PricingInstance, cap: int = DEFAULT_CAP) -> PricingSolution:
    """Exact optimistic bilevel optimum of a pricing instance."""
    if inst.domain is Domain.LOWER_CAP and not inst.minimizing:
        raise ValueError("the lower-cap domain applies to minimization instances only")
    sig = _collapse(inst, inst.ground, cap)
    gain_of = sig.gain_of
    if not gain_of:
        return PricingSolution(SolveStatus.NO_FOLLOWER_SOLUTION)
    if inst.domain in _UNBOUNDED_CAPABLE and 0 not in gain_of:
        return PricingSolution(SolveStatus.UNBOUNDED)

    base = inst.base
    union = 0
    for pattern in gain_of:
        union |= pattern
    var_bits = _canon_key(union)
    var_ids = [base.universe[b].id for b in var_bits]
    var_pos = {b: k for k, b in enumerate(var_bits)}

    # Each pattern's 0/1 price vector over var_bits, built once per solve.
    vector: dict[int, tuple[int, ...]] = {}
    for pattern in gain_of:
        coeffs = [0] * len(var_bits)
        for b in _canon_key(pattern):
            coeffs[var_pos[b]] = 1
        vector[pattern] = tuple(coeffs)

    # A pattern's revenue is at most its gain lead over pattern 0, or, with
    # no all-follower member (only under price caps), the sum of its caps.
    if 0 in gain_of:
        bound = {p: gain - gain_of[0] for p, gain in gain_of.items()}
    else:
        bound = {p: sum(inst.valuation[base.universe[b].id] for b in _canon_key(p))
                 for p in gain_of}

    best_value: Fraction | None = None
    best_pattern: int | None = None
    best_witness: tuple[Fraction, ...] | None = None
    lower, upper = _domain_bounds(inst, var_ids)
    canon = {p: _canon_key(sig.rep_of[p]) for p in gain_of}
    order = sorted(gain_of, key=lambda p: (-bound[p], canon[p]))
    for pattern in order:
        if best_value is not None and bound[pattern] < best_value:
            break  # bounds only fall from here on
        if not var_bits:
            # The one pattern is 0, which earns nothing.
            value, witness = Fraction(0), ()
        else:
            # Stay follower-optimal against every other pattern: the price
            # difference is at most the gain gap.
            objective = vector[pattern]
            rows = []
            for other, other_gain in gain_of.items():
                if other != pattern:
                    gap = gain_of[pattern] - other_gain
                    rows.append((tuple(map(sub, objective, vector[other])), "<=", gap))
            lp = LinearProgram(len(objective), objective, tuple(rows), lower, upper)
            outcome = solve_lp(lp)
            if outcome.status is LpStatus.INFEASIBLE:
                continue  # this candidate is never a follower optimum
            if outcome.status is LpStatus.UNBOUNDED:
                raise RuntimeError("candidate LP unbounded despite structural bound")
            value, witness = outcome.optimal_value, outcome.witness
        better = best_value is None or value > best_value or (
            value == best_value and canon[pattern] < canon[best_pattern]
        )
        if better:
            best_value, best_pattern, best_witness = value, pattern, witness

    if best_value is None:
        raise RuntimeError(
            "every candidate LP is infeasible, yet some pattern is follower-optimal"
            " at any admissible prices"
        )
    prices = {e: Fraction(0) for e in inst.leader_ids}
    prices.update(zip(var_ids, best_witness))
    response = base.ids_of(sig.rep_of[best_pattern])
    net = gain_of[best_pattern] - best_value
    follower_value = -net if inst.minimizing else net
    return PricingSolution(
        SolveStatus.OPTIMAL, prices, response, best_value, follower_value
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
    sig = _collapse(inst, ground or inst.ground, cap)
    if not sig.gain_of:
        raise NoFollowerSolutionError("the follower has no admissible response")
    base = inst.base

    # The follower takes the best net gain, the leader the dearest of those
    # responses, and canonical order breaks the ties that remain.
    best_rank: tuple[Fraction, Fraction] | None = None
    reps: list[int] = []
    for pattern, gain in sig.gain_of.items():
        paid = sum((Fraction(prices[base.universe[b].id]) for b in _canon_key(pattern)),
                   Fraction(0))
        rank = (gain - paid, paid)
        if best_rank is None or rank > best_rank:
            best_rank, reps = rank, [sig.rep_of[pattern]]
        elif rank == best_rank:
            reps.append(sig.rep_of[pattern])
    net, leader_value = best_rank
    follower_value = -net if inst.minimizing else net
    return PriceEvaluation(follower_value, leader_value, base.ids_of(min(reps, key=_canon_key)))
