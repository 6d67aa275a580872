"""Solve-every-candidate and scan-every-pattern references for pricing.

The ground family is listed (`core.best_by_enumeration`, not a problem's
pattern oracle), and every candidate pattern gets its LP, with no revenue
bound and no early stop.  Under capped prices alone the reference keeps a
second formulation: each price is cap - y with y >= 0, the standard form
that the simplex built when it took upper bounds, where the solver passes
its caps as rows.  Under box prices the caps are unit rows after the
pattern rows, as in the solver, and the lower bounds are LP lower bounds.
The winner is the largest LP value, ties going to the member whose sorted
element positions come first.

Under every domain but the capped one the winner's LP has the solver's
standard form, so the prices agree too; under capped prices the two
formulations may reach different optimal vertices of the same region.

The evaluation reference scans every leader pattern of the listed family
with Fraction sums: the best net gain wins, then the larger payment to the
leader, then the member whose sorted element positions come first.
"""

from __future__ import annotations

from fractions import Fraction

from pricegame.core import DEFAULT_CAP, Sense, best_by_enumeration, bits
from pricegame.linprog import LinearProgram, LpStatus, solve_lp
from pricegame.pricing import (
    Domain,
    NoFollowerSolutionError,
    PricingInstance,
    PricingSolution,
    SolveStatus,
)

# Each domain's (lower, upper) price bound as a multiple of the valuation.
BOUNDS = {
    Domain.FREE: (None, None),
    Domain.NONNEG: (0, None),
    Domain.CAPPED: (None, 1),
    Domain.BOX: (0, 1),
    Domain.LOWER_CAP: (-1, None),
}


def solve_every_candidate(inst: PricingInstance, cap: int = DEFAULT_CAP) -> PricingSolution:
    if inst.domain is Domain.LOWER_CAP and inst.base.sense is not Sense.MIN:
        raise ValueError("the lower-cap domain applies to minimization instances only")
    base = inst.base
    sign = base.sense.sign
    gains = tuple(sign * inst.valuation[e.id] for e in base.universe)
    patterns = best_by_enumeration(base, inst.ground, base.mask_of(inst.leader_ids), gains, cap)
    if not patterns:
        return PricingSolution(SolveStatus.NO_FOLLOWER_SOLUTION)
    low, high = BOUNDS[inst.domain]
    if high is None and 0 not in patterns:
        return PricingSolution(SolveStatus.UNBOUNDED)

    union = 0
    for pattern in patterns:
        union |= pattern
    var_bits = bits(union)
    caps = [inst.valuation[base.universe[b].id] for b in var_bits]
    n = len(caps)
    offset, turn = [0] * n, 1  # price k is offset[k] + turn * (LP variable k)
    if low is None and high is not None:
        # Capped alone: each price is cap - y with y >= 0.
        offset, turn, low, high = [high * c for c in caps], -1, 0, None
    lower = {} if low is None else {k: low * c for k, c in enumerate(caps)}
    cap_rows = () if high is None else tuple(
        (tuple(int(i == k) for i in range(n)), high * c) for k, c in enumerate(caps))
    ordered = sorted(patterns.items())

    def vector(pattern):
        return tuple(pattern >> b & 1 for b in var_bits)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    best = None  # (value, sorted positions of the member, member, gain, witness)
    for pattern, (gain, member) in ordered:
        if var_bits:
            rows = []
            for other, (other_gain, _) in ordered:
                if other != pattern:
                    lead = [a - b for a, b in zip(vector(pattern), vector(other))]
                    rows.append((tuple(turn * a for a in lead),
                                 gain - other_gain - dot(lead, offset)))
            objective = tuple(turn * a for a in vector(pattern))
            outcome = solve_lp(LinearProgram(n, objective, (*rows, *cap_rows), lower))
            if outcome.status is LpStatus.INFEASIBLE:
                continue
            assert outcome.status is LpStatus.OPTIMAL
            value = dot(vector(pattern), offset) + outcome.optimal_value
            witness = tuple(o + turn * y for o, y in zip(offset, outcome.witness))
        else:
            value, witness = Fraction(0), ()
        key = (value, tuple(bits(member)))
        if best is None or key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = (*key, member, gain, witness)

    value, _, member, gain, witness = best
    prices = {e: Fraction(0) for e in inst.leader_ids}
    prices.update(zip([base.universe[b].id for b in var_bits], witness))
    return PricingSolution(SolveStatus.OPTIMAL, prices, base.ids_of(member), value,
                           sign * (gain - value))


def evaluate_every_pattern(inst: PricingInstance, prices: dict[str, Fraction],
                           cap: int = DEFAULT_CAP) -> PricingSolution:
    base = inst.base
    sign = base.sense.sign
    gains = tuple(sign * inst.valuation[e.id] for e in base.universe)
    patterns = best_by_enumeration(base, inst.ground, base.mask_of(inst.leader_ids), gains, cap)
    if not patterns:
        raise NoFollowerSolutionError("the follower has no admissible response")
    prices = {e: Fraction(price) for e, price in prices.items()}
    best = None  # ((net gain, payment), member)
    for pattern, (gain, member) in patterns.items():
        paid = sum((prices[base.universe[b].id] for b in bits(pattern)), Fraction(0))
        rank = (gain - paid, paid)
        if best is None or rank > best[0] or (rank == best[0] and bits(member) < bits(best[1])):
            best = (rank, member)
    (net, paid), member = best
    return PricingSolution(SolveStatus.OPTIMAL, prices, base.ids_of(member), paid, sign * net)
