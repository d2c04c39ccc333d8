from fractions import Fraction
from math import lcm

import pytest
from conftest import big_denominator_fractions
from hypothesis import given, settings, strategies as st

from vcgames import (
    AdditiveGroupsValuation,
    CategoryMaxValuation,
    PriceVector,
    TableValuation,
    Universe,
    counterexample_instance,
    pos_instance,
)
from vcgames.rationals import exact, format_rational, integers, parse_rational


def test_parse_decimal():
    assert parse_rational("2.503") == Fraction(2503, 1000)
    assert parse_rational("0") == 0
    assert parse_rational("-1.5") == Fraction(-3, 2)
    assert parse_rational("7.6045") == Fraction(76045, 10000)


def test_parse_slash():
    assert parse_rational("11/6") == Fraction(11, 6)
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("547/300") == Fraction(547, 300)


def test_parse_integer():
    assert parse_rational("42") == 42
    assert parse_rational("-9") == -9


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "2.5.3", "1//2", "1 2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["1e3", "2.5E1", "1/1e2"])
def test_parse_rejects_exponent_notation(bad):
    # a short literal with a large exponent would build a huge integer
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("text", ["0", "-0", "007", "-0.50", "12.30", "4000", "2.503", "-4"])
def test_plain_decimals_read_as_fraction_reads_them(text):
    assert parse_rational(text) == Fraction(text)
    assert type(parse_rational(text)) is Fraction


@pytest.mark.parametrize(
    "text, value",
    [
        (" 1.5 ", Fraction(3, 2)),
        ("+1.5", Fraction(3, 2)),
        ("1/3", Fraction(1, 3)),
        ("1_000", Fraction(1000)),
        (".5", Fraction(1, 2)),
        ("1.", Fraction(1)),
        ("12.30\n", Fraction(123, 10)),
        ("\u0661\u0662", Fraction(12)),  # Arabic-Indic digits
        ("\uff11.5", Fraction(3, 2)),  # a fullwidth digit
        ("\u0663/\u0664", Fraction(3, 4)),
    ],
)
def test_texts_off_the_plain_decimal_form_keep_their_reading(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["1e3", "- 1", "1 /3", "1.5/2", "0x10", "\u22121", "1.5.", "--1"])
def test_texts_off_the_plain_decimal_form_keep_their_refusal(bad):
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(bad)


def test_format_exact_decimal():
    assert format_rational(Fraction(2503, 1000)) == "2.503"
    assert format_rational(Fraction(21, 10)) == "2.1"
    assert format_rational(Fraction(76045, 10000)) == "7.6045"
    assert format_rational(Fraction(5, 2)) == "2.5"
    assert format_rational(Fraction(1, 4)) == "0.25"
    assert format_rational(Fraction(-3, 2)) == "-1.5"


def test_format_integer():
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-12)) == "-12"


def test_format_non_dyadic_falls_back_to_slash():
    assert format_rational(Fraction(11, 6)) == "11/6"
    assert format_rational(Fraction(547, 300)) == "547/300"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_format_never_rounds():
    # 1/3 printed as a decimal would have to round; must stay a fraction
    assert "/" in format_rational(Fraction(1, 3))


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
)


@given(rationals)
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.integers(-10**9, 10**9), st.integers(0, 12), st.integers(0, 12))
def test_dyadic_times_five_prints_as_decimal(n, a, b):
    q = Fraction(n, 2**a * 5**b)
    text = format_rational(q)
    assert "/" not in text
    assert parse_rational(text) == q


@given(st.integers(-10**9, 10**9), st.integers(0, 400), st.integers(0, 60))
def test_long_dyadic_decimals_keep_every_digit(n, a, b):
    # denominators up to 2^400 * 5^60, as in continuous dynamics; with n prime
    # to 10 the decimal needs exactly max(a, b) places
    n = 10 * n + 3
    text = format_rational(Fraction(n, 2**a * 5**b))
    assert parse_rational(text) == Fraction(n, 2**a * 5**b)
    assert len(text.partition(".")[2]) == max(a, b)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.integers(-50, 50)
        | st.fractions(max_denominator=24)
        | big_denominator_fractions(5),
        max_size=6,
    ),
    st.none() | st.integers(1, 10**30),
)
def test_integers_over_the_least_common_scale(values, scale):
    ints, common = integers(values) if scale is None else integers(values, scale)
    assert all(type(x) is int for x in ints)
    assert [Fraction(x, common) for x in ints] == values
    # the least positive multiple of scale that clears every denominator
    assert common == lcm(scale or 1, *(Fraction(q).denominator for q in values))


def test_exact_keeps_ints_and_fractions_and_parses_strings():
    third = Fraction(1, 3)
    assert exact(third) is third
    assert exact(7) == 7 and type(exact(7)) is Fraction
    assert exact("2.503") == Fraction(2503, 1000)
    with pytest.raises(ValueError, match="not a rational literal"):
        exact("1e400")


@pytest.mark.parametrize("bad", [0.1, 1.0, None, [1], (1, 2)], ids=repr)
def test_exact_refuses_what_is_not_exact(bad):
    with pytest.raises(ValueError, match="not an exact rational"):
        exact(bad)


U = Universe(("a", "b", "c"))
# one input per public entry point that takes rationals, each one the entry
# point must refuse: a float is already rounded, and an exponent string can
# build an integer of any size from a few characters
REFUSED = {
    "PriceVector": lambda: PriceVector(U, (0.1, 0, 0)),
    "PriceVector-exponent": lambda: PriceVector(U, ("1e200000", 0, 0)),
    "TableValuation": lambda: TableValuation(U, ["0", "1", "1", "2", "1e1", "3", "3", "4"]),
    "AdditiveGroupsValuation": lambda: AdditiveGroupsValuation(U, (0b011, 0b100), [0, 1, 1.5]),
    "CategoryMaxValuation": lambda: CategoryMaxValuation(U, (0b011, 0b100), [1, 0.25, 2]),
    "pos_instance": lambda: pos_instance(2, 3, 0.01),
    "GameInstance.pricing": lambda: counterexample_instance().pricing(0.1),
}


@pytest.mark.parametrize("build", REFUSED.values(), ids=REFUSED)
def test_entry_points_refuse_inexact_rationals(build):
    with pytest.raises(ValueError):
        build()


def test_pricing_reads_an_undercut_string_exactly():
    g = counterexample_instance()
    assert g.pricing("1/7") is g.pricing(Fraction(1, 7))
