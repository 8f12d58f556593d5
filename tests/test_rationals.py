from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from doublezeta.bernoulli import bernoulli_number
from doublezeta.matrices import build_b_part, build_c_part
from doublezeta.rationals import format_rational, parse_rational


def test_rational_arithmetic_examples():
    assert Fraction(1, 6) + Fraction(-1, 2) == Fraction(-1, 3)
    assert Fraction(2, 3) * Fraction(3, 2) == 1
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / Fraction(0)


def test_canonical_lowest_terms():
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2


@pytest.mark.parametrize("n", range(1, 41))
def test_even_odd_row_sums(n):
    # both the even-index and odd-index binomial row sums equal 2^(m-1).
    # For K = n+1, column s of B holds the odd-index entries C(m, 2r-1) of
    # row m = 2K-2s, and column s of C its even-index entries C(m, 2K-2r)
    # except C(m, 0) = 1; the columns cover the even rows m = 2..2n.
    K = n + 1
    b, c = build_b_part(K), build_c_part(K)
    for s in range(1, K):
        m = 2 * K - 2 * s
        odd = sum(b.at(r, s - 1) for r in range(K - 1))
        even = 1 + sum(c.at(r, s - 1) for r in range(K - 1))
        assert odd == 2 ** (m - 1)
        assert even == 2 ** (m - 1)


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
    # the grammar's sign and leading zeros, and a ratio not in lowest terms
    assert parse_rational("+3") == 3
    assert parse_rational("007") == 7
    assert parse_rational("-6/014") == Fraction(-3, 7)


def test_format_rational_past_the_int_to_str_limit():
    # 5000 digits is past Python's default limit of 4300 for int-to-str
    big = 10**4999 + 1
    digits = "1" + "0" * 4998 + "1"
    assert format_rational(Fraction(-big, 3)) == f"-{digits}/3"
    assert format_rational(Fraction(big)) == digits
    assert format_rational(Fraction(3, big)) == f"3/{digits}"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_format_rational_of_a_ratio_matches_its_fraction(num, den):
    x = Fraction(num, den)
    assert format_rational(x) == str(x)
    assert parse_rational(format_rational(x)) == x


def test_format_rational_of_a_ratio_past_the_int_to_str_limit():
    big = 10**4999 + 1
    digits = "1" + "0" * 4998 + "1"
    assert format_rational(Fraction(-6 * big, 9)) == f"-2{digits[1:-1]}2/3"
    assert format_rational(Fraction(3 * big, 3)) == digits
    assert format_rational(Fraction(6, 2 * big)) == f"3/{digits}"


def test_parse_rational_past_the_int_to_str_limit():
    # B_2200's numerator has 4654 digits, past Python's default limit of 4300
    b = bernoulli_number(2200)
    assert parse_rational(format_rational(b)) == b
    assert parse_rational(format_rational(-1 / b)) == -1 / b


LONG = "1" * 5000


@pytest.mark.parametrize(
    "text",
    [
        "1/0",
        "abc",
        pytest.param(f"{LONG}/0", id="long/0"),
        pytest.param(f"{LONG}/00", id="long/00"),
        pytest.param(f"{LONG}/x", id="long/x"),
        pytest.param(f"{LONG}.5", id="long.5"),
    ],
)
def test_parse_rational_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1e400", "0.5", " 1/2", "1/2 ", "1_0", "1/-2", "+-1", "", "٣"])
def test_parse_rational_reads_only_the_written_grammar(monkeypatch, text):
    # an exponent, decimal point, space, underscore or non-ASCII digit is
    # rejected before any int is built from the text
    def no_int_work(*args):
        raise AssertionError(f"int work on {text!r}")

    monkeypatch.setattr("doublezeta.rationals.Decimal", no_int_work)
    monkeypatch.setattr("doublezeta.rationals.Fraction", no_int_work)
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(text)
