"""Exact rational arithmetic.

Every number that can reach a threshold comparison in this package is an
int or a standard library Fraction, never a float: leader values, follower
values and prices are exact fractions, LP data are integers, and all
comparisons are exact.

Fraction keeps the canonical form we rely on: positive denominator,
gcd-reduced after every operation.  This module holds the one serialization
format for rationals, "numerator/denominator" with no decimal notation
anywhere, and the check that exact inputs are ints.
"""

from __future__ import annotations

from fractions import Fraction

_INT = frozenset({int})


def require_ints(values, what: str) -> None:
    """Raise TypeError unless every value is an int (not a bool).

    The common case, all exact ints, is one pass at C speed.
    """
    if iter(values) is values:  # one-shot: list it, so a bad value can be named
        values = list(values)
    if _INT.issuperset(map(type, values)):
        return
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"{what} {v!r} is not an int")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" (no decimal points allowed anywhere)."""
    if not isinstance(text, str):
        raise ValueError(f"a rational must be a string such as \"3/1\", not {text!r}")
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal notation is not accepted: {text!r}")
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError(f"a rational needs a nonzero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(x: Fraction | int) -> str:
    """Render as "numerator/denominator", always including the denominator."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"
