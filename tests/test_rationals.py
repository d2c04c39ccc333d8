from fractions import Fraction
from math import lcm

import pytest
from conftest import big_denominator_fractions
from hypothesis import given, settings, strategies as st

from vcgames.rationals import format_rational, integers, parse_rational


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
