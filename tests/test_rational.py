from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pricegame.rational import format_rational, parse_rational, require_ints


def test_parse_and_format_round_trip():
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(5, 6)) == "5/6"
    assert format_rational(2) == "2/1"
    assert format_rational(Fraction(-3, 9)) == "-1/3"


def test_decimal_notation_rejected():
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_non_string_rejected_with_the_expected_type():
    for value in (3, [1, 2], None):
        with pytest.raises(ValueError, match="must be a string"):
            parse_rational(value)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=97
)


@given(rationals)
def test_format_parse_identity(x):
    assert parse_rational(format_rational(x)) == x


def test_zero_denominator_rejected_naming_the_text():
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="nonzero denominator: '"):
            parse_rational(text)


@pytest.mark.parametrize("values, bad", [
    ([1, 1.5], "1.5"),
    ((2, True), "True"),
    ({"a": 1.5}.values(), "1.5"),
    ((x for x in [1.5]), "1.5"),
    (iter([1, 2, "3"]), "'3'"),
], ids=["list", "tuple", "dict-view", "generator", "iterator"])
def test_require_ints_names_the_first_bad_value_of_any_iterable(values, bad):
    with pytest.raises(TypeError) as err:
        require_ints(values, "weight")
    assert str(err.value) == f"weight {bad} is not an int"
