import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from doublezeta.rationals import binomial, factorial, format_rational, parse_rational


def test_binomial_direct_product():
    assert binomial(5, 2) == 10


def test_binomial_upper_smaller_than_lower_is_zero():
    assert binomial(3, 5) == 0


def test_binomial_k_zero_is_one():
    assert binomial(4, 0) == 1


def test_binomial_negative_k_is_zero():
    assert binomial(7, -1) == 0


def test_binomial_negative_upper_uses_falling_factorial():
    # (-1)(-2)/2! = 1, (-2)(-3)(-4)/3! = -4
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == 2432902008176640000


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_rational_arithmetic_examples():
    assert Fraction(1, 6) + Fraction(-1, 2) == Fraction(-1, 3)
    assert Fraction(2, 3) * Fraction(3, 2) == 1
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / Fraction(0)


def test_canonical_lowest_terms():
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2


@given(st.integers(-60, 60), st.integers(0, 60))
def test_binomial_symmetry_and_integrality(n, k):
    b = binomial(n, k)
    assert type(b) is int
    if n < 0:
        # falling-factorial definition n(n-1)...(n-k+1)/k!
        assert b == Fraction(math.prod(range(n - k + 1, n + 1)), math.factorial(k))
    elif k <= n:
        assert b == binomial(n, n - k)
        assert b.denominator == 1 and b >= 0


@given(st.integers(1, 60), st.integers(1, 60))
def test_pascal_recurrence(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@pytest.mark.parametrize("n", range(1, 41))
def test_even_odd_row_sums(n):
    # both the even-index and odd-index binomial row sums equal 2^(n-1)
    even = sum(binomial(n, 2 * k) for k in range(n // 2 + 1))
    odd = sum(binomial(n, 2 * k + 1) for k in range((n - 1) // 2 + 1))
    assert even == 2 ** (n - 1)
    assert odd == 2 ** (n - 1)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_serialization_round_trip():
    for s in ["3", "-11/2", "0", "691/2730", "-1/3"]:
        assert format_rational(parse_rational(s)) == s
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


@pytest.mark.parametrize("text", ["1/0", "abc"])
def test_parse_rational_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_rational(text)
