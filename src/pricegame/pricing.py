"""Bilevel pricing over a ground problem, solved exactly.

The leader owns part of the universe and sets a rational price d(e) on each
owned element; the follower then picks, from a ground family of subsets, one
optimizing their own objective built from the fixed valuation:

    MAX / FEASIBILITY sense    maximize  valuation(X) - d(X)
    MIN sense                  minimize  valuation(X) + d(X)

Among follower-optimal responses the one best for the leader is selected
(optimistic tie-breaking), with remaining ties resolved by canonical subset
order over the universe.

The solver enumerates the ground family once, collapses it to the leader
signature of each member (its intersection with the leader set plus the
best follower base value for that intersection), and then solves one exact
LP per surviving candidate: maximize the candidate's price revenue subject
to the candidate staying follower-optimal against every signature, plus the
price-domain restriction.  The bilevel optimum is the best LP value.  An
infeasible candidate LP just means that candidate is never an optimal
response.  Unboundedness is recognized structurally up front: if the price
domain allows arbitrarily high prices and every ground member touches the
leader's part, revenue grows without bound.
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
    leader_mask: int
    value_of: dict[int, int]   # leader pattern -> best follower base value
    rep_of: dict[int, int]     # leader pattern -> canonical best member


def _canon_key(mask: int) -> tuple[int, ...]:
    key = []
    while mask:
        low = mask & -mask
        key.append(low.bit_length() - 1)
        mask ^= low
    return tuple(key)


def _ground_masks(inst: PricingInstance, ground: GroundChoice, cap: int) -> list[int]:
    if ground is GroundChoice.FEASIBLE:
        return inst.base.feasible_masks(cap)
    return inst.base.solution_masks(cap)


def _signatures(inst: PricingInstance, ground: GroundChoice, cap: int) -> _Signatures:
    # Memoised on the base problem, so fresh instances over one base share
    # the collapse whenever they agree on everything it reads.
    base = inst.base
    leader_mask = base.mask_of(inst.leader_ids)
    values = tuple(inst.valuation[e.id] for e in base.universe)
    key = (ground, leader_mask, values)
    cached = base._signature_cache.get(key)
    if cached is not None:
        return cached

    minimizing = inst.minimizing
    value_of: dict[int, int] = {}
    rep_of: dict[int, int] = {}
    masks = _ground_masks(inst, ground, cap)
    for m, val in zip(masks, mask_sums(values, masks)):
        pattern = m & leader_mask
        cur = value_of.get(pattern)
        if cur is None or (val < cur if minimizing else val > cur):
            value_of[pattern] = val
            rep_of[pattern] = m
        elif val == cur and _canon_key(m) < _canon_key(rep_of[pattern]):
            rep_of[pattern] = m
    sig = _Signatures(leader_mask, value_of, rep_of)
    base._signature_cache[key] = sig
    return sig


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
    masks = _ground_masks(inst, inst.ground, cap)
    if not masks:
        return PricingSolution(SolveStatus.NO_FOLLOWER_SOLUTION)

    sig = _signatures(inst, inst.ground, cap)
    leader_mask = sig.leader_mask
    if inst.domain in _UNBOUNDED_CAPABLE and all(m & leader_mask for m in masks):
        return PricingSolution(SolveStatus.UNBOUNDED)

    minimizing = inst.minimizing
    base = inst.base
    union = 0
    for pattern in sig.value_of:
        union |= pattern
    var_bits = _canon_key(union)
    var_ids = [base.universe[b].id for b in var_bits]
    var_pos = {b: k for k, b in enumerate(var_bits)}

    # Each pattern's 0/1 price vector over var_bits, built once per solve.
    vector: dict[int, tuple[int, ...]] = {}
    for pattern in sig.value_of:
        coeffs = [0] * len(var_bits)
        for b in _canon_key(pattern):
            coeffs[var_pos[b]] = 1
        vector[pattern] = tuple(coeffs)

    def upper_bound(pattern: int) -> int:
        if 0 in sig.value_of:
            return sig.value_of[0] - sig.value_of[pattern] if minimizing \
                else sig.value_of[pattern] - sig.value_of[0]
        # No all-follower member: only reachable under price caps.
        return sum(inst.valuation[base.universe[b].id] for b in _canon_key(pattern))

    best_value: Fraction | None = None
    best_pattern: int | None = None
    best_witness: tuple[Fraction, ...] | None = None
    lower, upper = _domain_bounds(inst, var_ids)

    bound = {p: upper_bound(p) for p in sig.value_of}
    canon = {p: _canon_key(sig.rep_of[p]) for p in sig.value_of}
    order = sorted(sig.value_of, key=lambda p: (-bound[p], canon[p]))
    for pattern in order:
        if best_value is not None and bound[pattern] < best_value:
            continue
        if not var_bits:
            value, witness = Fraction(0), ()
            feasible = all(
                (sig.value_of[p] >= sig.value_of[pattern] if minimizing
                 else sig.value_of[p] <= sig.value_of[pattern])
                for p in sig.value_of
            )
            if not feasible:
                continue
        else:
            # Stay follower-optimal against every other pattern: the price
            # difference is at most the base-value gap.
            objective = vector[pattern]
            rows = []
            for other, other_value in sig.value_of.items():
                if other == pattern:
                    continue
                gap = other_value - sig.value_of[pattern] if minimizing \
                    else sig.value_of[pattern] - other_value
                rows.append((tuple(list(map(sub, objective, vector[other]))), "<=", gap))
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
    for k, e in enumerate(var_ids):
        prices[e] = best_witness[k] if best_witness else Fraction(0)
    response = base.ids_of(sig.rep_of[best_pattern])
    base_value = Fraction(sig.value_of[best_pattern])
    follower_value = base_value + best_value if minimizing else base_value - best_value
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
    ground = ground or inst.ground
    if not _ground_masks(inst, ground, cap):
        raise NoFollowerSolutionError("the follower has no admissible response")
    sig = _signatures(inst, ground, cap)
    base = inst.base
    minimizing = inst.minimizing

    def price_of(pattern: int) -> Fraction:
        total = Fraction(0)
        for b in _canon_key(pattern):
            total += Fraction(prices[base.universe[b].id])
        return total

    follower_best: Fraction | None = None
    per_pattern: dict[int, Fraction] = {}
    for pattern, val in sig.value_of.items():
        d = price_of(pattern)
        per_pattern[pattern] = d
        obj = Fraction(val) + d if minimizing else Fraction(val) - d
        if follower_best is None or (obj < follower_best if minimizing else obj > follower_best):
            follower_best = obj
    winners = [
        p for p, val in sig.value_of.items()
        if (Fraction(val) + per_pattern[p] if minimizing else Fraction(val) - per_pattern[p])
        == follower_best
    ]
    leader_value = max(per_pattern[p] for p in winners)
    optimal = [p for p in winners if per_pattern[p] == leader_value]
    rep = min((sig.rep_of[p] for p in optimal), key=_canon_key)
    return PriceEvaluation(follower_best, leader_value, base.ids_of(rep))
