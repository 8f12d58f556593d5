import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from doublezeta import cli
from doublezeta.bernoulli import BernoulliCache
from doublezeta.rationals import binomial
from doublezeta.series import (
    Mismatch,
    TruncatedSeries,
    bernoulli_gf,
    build_fs,
    exp_series,
    first_mismatch,
    reflection_sides,
    series_from_coefficients,
    verify_carlitz,
    verify_reflection,
)


@pytest.fixture(scope="module")
def cache():
    return BernoulliCache()


def sympy_fs_coefficients(s: int, order: int) -> list[Fraction]:
    """Independent series expansion of t^{2s-1}/(e^t - 1) via sympy."""
    import sympy

    t = sympy.symbols("t")
    expr = t ** (2 * s - 1) / (sympy.exp(t) - 1)
    poly = sympy.series(expr, t, 0, order + 1).removeO()
    return [Fraction(str(poly.coeff(t, i))) for i in range(order + 1)]


def reference_sides(s: int, m: int, order: int, cache) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The reflection sides from TruncatedSeries arithmetic and Fraction sums."""
    fs = build_fs(s, order, cache)
    cmp_order = order - m
    lhs = exp_series(1, cmp_order) * fs.derivative(m)
    rhs = TruncatedSeries((Fraction(0),) * (cmp_order + 1))
    for p in range(m + 1):
        coeff = (-1) ** (m - p) * binomial(m, p)
        rhs = rhs + fs.derivative(p).truncate(cmp_order).scale(coeff)
    poly = [Fraction(0)] * (cmp_order + 1)
    for p in range(min(m, 2 * s - 1) + 1):
        deg = 2 * s - 1 - p
        if deg <= cmp_order:
            poly[deg] += (
                (-1) ** (m - p)
                * binomial(m, p)
                * Fraction(math.factorial(2 * s - 1), math.factorial(deg))
            )
    return lhs, rhs + TruncatedSeries(tuple(poly))


def carlitz_side(m: int, n: int, cache) -> Fraction:
    """(-1)^m sum_k C(m,k) B_{n+k} as a Fraction sum."""
    return (-1) ** m * sum(
        (binomial(m, k) * cache.get(n + k) for k in range(m + 1)), Fraction(0)
    )


def corrupted_cache(index: int) -> type[BernoulliCache]:
    """A BernoulliCache whose B_index is 1/29."""

    class Corrupted(BernoulliCache):
        def get(self, n: int) -> Fraction:
            return Fraction(1, 29) if n == index else super().get(n)

    return Corrupted


def test_series_from_coefficients():
    assert series_from_coefficients([1]).order == 0
    s = series_from_coefficients([0, 1])
    assert s.order == 1 and s[1] == 1
    e = series_from_coefficients([1, 1, Fraction(1, 2), Fraction(1, 6)])
    assert e.coefficients == exp_series(1, 3).coefficients


def test_exp_series():
    assert exp_series(1, 2).coefficients == (1, 1, Fraction(1, 2))
    assert exp_series(-1, 3).coefficients == (1, -1, Fraction(1, 2), Fraction(-1, 6))
    assert exp_series(1, 0).coefficients == (Fraction(1),)


def test_bernoulli_gf(cache):
    gf = bernoulli_gf(3, cache)
    assert gf.coefficients[:3] == (1, Fraction(-1, 2), Fraction(1, 12))
    assert gf[3] == 0
    assert bernoulli_gf(0, cache).coefficients == (Fraction(1),)


def test_build_fs(cache):
    assert build_fs(1, 2, cache) == bernoulli_gf(2, cache)
    assert build_fs(2, 4, cache).coefficients == (
        0,
        0,
        1,
        Fraction(-1, 2),
        Fraction(1, 12),
    )
    assert build_fs(3, 6, cache)[4] == 1
    with pytest.raises(ValueError):
        build_fs(3, 3, cache)


@pytest.mark.parametrize("s, order", [(1, 10), (2, 12), (3, 14)])
def test_build_fs_matches_sympy(cache, s, order):
    ours = build_fs(s, order, cache)
    theirs = sympy_fs_coefficients(s, order)
    assert list(ours.coefficients) == theirs


def test_multiply():
    a = series_from_coefficients([1, 1])
    b = series_from_coefficients([1, -1, 0])
    assert (a * b).coefficients == (1, 0)  # truncated to min order
    prod = series_from_coefficients([1, 1, 0]) * series_from_coefficients([1, -1, 0])
    assert prod.coefficients == (1, 0, -1)
    e = exp_series(1, 6) * exp_series(-1, 6)
    assert e.coefficients == (1, 0, 0, 0, 0, 0, 0)


def test_gf_defining_product(cache):
    # (e^t - 1)/t times the generating function is the constant series 1
    import math

    n = 4
    expm1_over_t = series_from_coefficients(
        [Fraction(1, math.factorial(i + 1)) for i in range(n + 1)]
    )
    prod = bernoulli_gf(n, cache) * expm1_over_t
    assert prod.coefficients == (1, 0, 0, 0, 0)


def test_derivative(cache):
    assert series_from_coefficients([1, 1, Fraction(1, 2)]).derivative().coefficients == (1, 1)
    t3 = series_from_coefficients([0, 0, 0, 1, 0, 0])
    assert t3.derivative(2).coefficients == (0, 6, 0, 0)
    d = bernoulli_gf(3, cache).derivative()
    assert d.coefficients == (Fraction(-1, 2), Fraction(1, 6), 0)
    with pytest.raises(ValueError):
        series_from_coefficients([1, 2]).derivative(3)


small_series = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    min_size=2,
    max_size=8,
).map(series_from_coefficients)


@given(small_series, small_series)
def test_leibniz_rule(a, b):
    lhs = (a * b).derivative()
    rhs = a.derivative() * b.truncate(min(a.order, b.order)) + a.truncate(
        min(a.order, b.order)
    ) * b.derivative()
    assert first_mismatch(lhs, rhs) is None


def test_reflection_examples(cache):
    assert verify_reflection(1, 1, 12, cache) == (True, None)
    assert verify_reflection(3, 5, 24, cache) == (True, None)


def test_reflection_negative_control(cache):
    # perturbing one polynomial coefficient of the right side must be caught
    lhs, rhs = reflection_sides(2, 3, 20, cache)
    bumped = list(rhs.coefficients)
    bumped[1] += 1
    bad = first_mismatch(lhs, TruncatedSeries(tuple(bumped)))
    assert bad is not None and bad.degree == 1
    assert bad.rhs - bad.lhs == 1


def test_reflection_rejects_tiny_order(cache):
    with pytest.raises(ValueError):
        verify_reflection(3, 4, 7, cache)


def test_carlitz_examples(cache):
    assert verify_carlitz(0, 2, cache)
    assert verify_carlitz(1, 2, cache)
    assert verify_carlitz(5, 5, cache)


def test_carlitz_sides_values(cache):
    # (0,2): both sides B_2 = 1/6; (1,2): both sides -1/6
    assert carlitz_side(0, 2, cache) == carlitz_side(2, 0, cache) == Fraction(1, 6)
    assert carlitz_side(1, 2, cache) == carlitz_side(2, 1, cache) == Fraction(-1, 6)


@pytest.mark.parametrize("index", [1, 4, 10])
def test_carlitz_matches_reference_under_a_corrupted_cache(index):
    bad, ref = corrupted_cache(index)(), corrupted_cache(index)()
    verdicts = []
    for n in range(61):
        for m in range(n + 1):
            expected = carlitz_side(m, n, ref) == carlitz_side(n, m, ref)
            assert verify_carlitz(m, n, bad) == expected, (m, n)
            verdicts.append(expected)
    assert not all(verdicts)


@pytest.mark.parametrize("index", [1, 4, 10])
def test_reflection_matches_reference_under_a_corrupted_cache(index):
    bad, ref = corrupted_cache(index)(), corrupted_cache(index)()
    failures = 0
    for s in range(1, 7):
        for m in range(1, 13):
            bad_at = first_mismatch(*reference_sides(s, m, 48, ref))
            assert verify_reflection(s, m, 48, bad) == (bad_at is None, bad_at), (s, m)
            failures += bad_at is not None
    assert failures


def test_reflection_sides_match_reference(cache):
    for s in range(1, 7):
        for m in range(1, 13):
            for order in (2 * s - 2 + m, 48):
                assert reflection_sides(s, m, order, cache) == reference_sides(s, m, order, cache)


@pytest.mark.parametrize("index", [1, 4, 10])
def test_cli_fail_lines_under_a_corrupted_cache(monkeypatch, capsys, index):
    monkeypatch.setattr(cli, "BernoulliCache", corrupted_cache(index))
    ref = corrupted_cache(index)()
    expected = [
        f"(m={m}, n={n}): FAIL"
        for n in range(13)
        for m in range(n + 1)
        if carlitz_side(m, n, ref) != carlitz_side(n, m, ref)
    ]
    assert expected
    assert cli.main(["verify", "carlitz", "--max", "12"]) == cli.EXIT_IDENTITY_FAILURE
    lines = capsys.readouterr().out.splitlines()
    assert lines == expected + ["carlitz m<=n<=12: FAIL"]

    expected = []
    for s in range(1, 3):
        for m in range(1, 4):
            bad_at = first_mismatch(*reference_sides(s, m, 16, ref))
            if bad_at is not None:
                expected.append(f"(s={s}, m={m}, order=16): FAIL {bad_at}")
    assert expected
    cli.main(["verify", "series", "--s-max", "2", "--m-max", "3", "--order", "16"])
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "FAIL" in line] == expected
