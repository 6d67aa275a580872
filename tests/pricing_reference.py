"""Solve-every-candidate reference for the bilevel pricing solver.

The ground family is listed (`core.best_by_enumeration`, not a problem's
pattern oracle), every candidate pattern gets its LP, with no revenue bound
and no early stop, and each domain's price bounds go to the LP as lower and
upper variable bounds, where the solver passes its caps as rows.  The
winner is the largest LP value, ties going to the member whose sorted
element positions come first.

Under every domain but the capped one the winner's LP has the solver's
standard form, so the prices agree too; under capped prices the two
formulations may reach different optimal vertices of the same region.
"""

from __future__ import annotations

from fractions import Fraction

from pricegame.core import DEFAULT_CAP, Sense, best_by_enumeration, bits
from pricegame.linprog import LinearProgram, LpStatus, solve_lp
from pricegame.pricing import Domain, PricingInstance, PricingSolution, SolveStatus

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
    lower = {} if low is None else {k: low * c for k, c in enumerate(caps)}
    upper = {} if high is None else {k: high * c for k, c in enumerate(caps)}
    ordered = sorted(patterns.items())

    def vector(pattern):
        return tuple(pattern >> b & 1 for b in var_bits)

    best = None  # (value, sorted positions of the member, member, gain, witness)
    for pattern, (gain, member) in ordered:
        if var_bits:
            rows = tuple(
                (tuple(a - b for a, b in zip(vector(pattern), vector(other))), "<=",
                 gain - other_gain)
                for other, (other_gain, _) in ordered if other != pattern
            )
            lp = LinearProgram(len(var_bits), vector(pattern), rows, lower, upper)
            outcome = solve_lp(lp)
            if outcome.status is LpStatus.INFEASIBLE:
                continue
            assert outcome.status is LpStatus.OPTIMAL
            value, witness = outcome.optimal_value, outcome.witness
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
