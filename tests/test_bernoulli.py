import math
from fractions import Fraction

import mpmath
import pytest

from doublezeta.bernoulli import BernoulliCache


def bernoulli_oracle(n: int) -> Fraction:
    """Independent double-sum (Worpitzky) formula, B_1 = -1/2 convention."""
    total = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for j in range(k + 1):
            inner += (-1) ** j * math.comb(k, j) * Fraction(j**n if n > 0 else 1)
        total += inner / (k + 1)
    return total


def bernoulli_recursion(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} by B_n = -n! * sum_{k<n} B_k / (k!(n-k+1)!)."""
    values = [Fraction(1)]
    for m in range(1, n_max + 1):
        if m % 2 == 1 and m >= 3:
            values.append(Fraction(0))
            continue
        total = Fraction(0)
        for k, bk in enumerate(values):
            if bk:
                total += Fraction(bk, math.factorial(k) * math.factorial(m - k + 1))
        values.append(-math.factorial(m) * total)
    return values


def bernoulli_values(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} read by get, in order, from one fresh cache."""
    cache = BernoulliCache()
    return [cache.get(n) for n in range(n_max + 1)]


def test_stated_values():
    assert BernoulliCache().get(0) == 1
    assert BernoulliCache().get(1) == Fraction(-1, 2)
    assert BernoulliCache().get(3) == 0


@pytest.mark.parametrize("n, expected", [(2, Fraction(1, 6)), (12, Fraction(-691, 2730))])
def test_derived_values_against_oracle(n, expected):
    assert bernoulli_oracle(n) == expected
    assert BernoulliCache().get(n) == expected


@pytest.mark.parametrize("n", range(0, 25))
def test_matches_oracle_entrywise(n):
    assert BernoulliCache().get(n) == bernoulli_oracle(n)


def test_matches_recursion_through_300():
    assert bernoulli_values(300) == bernoulli_recursion(300)


def test_von_staudt_clausen_denominators():
    cache = BernoulliCache()
    primes = [p for p in range(2, 402) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for n in range(2, 401, 2):
        expected = math.prod(p for p in primes if n % (p - 1) == 0)
        assert cache.get(n).denominator == expected, n


def test_range_examples():
    assert bernoulli_values(1) == [1, Fraction(-1, 2)]
    assert bernoulli_values(4) == [
        1,
        Fraction(-1, 2),
        Fraction(1, 6),
        0,
        Fraction(-1, 30),
    ]
    assert bernoulli_values(7)[-1] == 0


def test_rejects_negative():
    with pytest.raises(ValueError):
        BernoulliCache().get(-1)
    with pytest.raises(ValueError):
        BernoulliCache().scaled(-1)


def test_odd_vanishing_sweep():
    cache = BernoulliCache()
    for n in range(3, 120, 2):
        assert cache.get(n) == 0


def test_sign_alternation_of_even_values():
    cache = BernoulliCache()
    for m in range(1, 50):
        assert (1 if cache.get(2 * m) > 0 else -1) == (-1) ** (m + 1)


def test_cache_determinism_and_fill_order():
    # get(n) and scaled(n) read T_{n//2}: each call extends the store once,
    # through the largest index it reads, and no further
    for calls in (
        (("get", 7), ("get", 30), ("scaled", 30), ("get", 2), ("scaled", 19)),
        (("scaled", 401), ("get", 7), ("get", 500), ("scaled", 0), ("get", 250)),
        (("scaled", 0), ("get", 2), ("get", 1), ("scaled", 45), ("get", 80), ("get", 81)),
    ):
        cache = BernoulliCache()
        seen = 0
        for name, i in calls:
            value = getattr(cache, name)(i)
            seen = max(seen, i // 2)
            assert cache.high_water == 2 * seen + 1, (calls, name, i)
            assert value == getattr(BernoulliCache(), name)(i), (calls, name, i)
        top = 2 * seen + 1
        b, big = BernoulliCache().scaled(top)
        assert [cache.get(i) for i in range(top + 1)] == [Fraction(x, big) for x in b]
        assert cache.high_water == top


def test_generating_function_consistency():
    # t/(e^t - 1) times (e^t - 1)/t is 1: the Cauchy sum
    # sum_{k<=n} B_k / (k! (n-k+1)!) is 1 at n = 0 and 0 above
    cache = BernoulliCache()
    for n in range(65):
        total = sum(
            cache.get(k) / (math.factorial(k) * math.factorial(n - k + 1))
            for k in range(n + 1)
        )
        assert total == (1 if n == 0 else 0), n


def test_scaled_vector_through_300():
    cache = BernoulliCache()
    values = bernoulli_recursion(300)
    for n in range(301):
        b, big = cache.scaled(n)
        assert big == math.lcm(*(x.denominator for x in values[: n + 1])), n
        assert [Fraction(x, big) for x in b] == values[: n + 1], n


def test_scaled_vector_is_independent_of_call_order():
    fresh = {n: BernoulliCache().scaled(n) for n in (0, 1, 5, 10, 120, 300)}
    for order in ((300, 10, 300, 0, 120), (1, 5, 1, 300, 5), (120, 10, 0, 10)):
        cache = BernoulliCache()
        for n in order:
            assert cache.scaled(n) == fresh[n], (order, n)


def test_scaled_vector_uses_the_subclass_get():
    class Bad(BernoulliCache):
        def get(self, n: int) -> Fraction:
            return Fraction(1, 29) if n == 4 else super().get(n)

    b, big = Bad().scaled(10)
    assert big == math.lcm(2, 6, 29, 42, 30, 66)
    assert Fraction(b[4], big) == Fraction(1, 29)
    assert [Fraction(x, big) for i, x in enumerate(b) if i != 4] == [
        x for i, x in enumerate(bernoulli_values(10)) if i != 4
    ]
    with pytest.raises(ValueError):
        BernoulliCache().scaled(-1)


def bernfrac(n: int) -> Fraction:
    """B_n from mpmath, which shares no code with the package (B_1 = -1/2 there too)."""
    return Fraction(*mpmath.bernfrac(n))


def test_tangent_numbers_are_oeis_a000182():
    # the store holds T_1..T_8 once B_16 is read, and each B_2k is
    # (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    a000182 = [1, 2, 16, 272, 7936, 353792, 22368256, 1903757312]
    cache = BernoulliCache()
    assert [
        (-1) ** (k - 1) * cache.get(2 * k) * 4**k * (4**k - 1) / (2 * k) for k in range(8, 0, -1)
    ] == a000182[::-1]
    assert cache._tangents[1:] == a000182
    assert cache.high_water == 17


def test_get_scaled_and_range_match_mpmath_through_600():
    reference = [bernfrac(n) for n in range(601)]
    assert bernoulli_values(600) == reference
    cache = BernoulliCache()
    assert [cache.get(n) for n in range(600, -1, -1)] == reference[::-1]
    big = 1
    for n, x in enumerate(reference):
        big = math.lcm(big, x.denominator)
        scaled = tuple(y.numerator * (big // y.denominator) for y in reference[: n + 1])
        assert cache.scaled(n) == (scaled, big), n


def test_get_and_scaled_match_mpmath_on_a_sample_through_2200():
    sample = [*range(601, 2200, 97), 2199, 2200]
    cache = BernoulliCache()
    b, big = cache.scaled(2200)
    for n in sample:
        reference = bernfrac(n)
        assert cache.get(n) == reference, n
        assert Fraction(b[n], big) == reference, n
    assert big == math.prod(
        p for p in range(2, 2202) if all(p % q for q in range(2, math.isqrt(p) + 1))
    )


def test_scaled_bypasses_a_get_replaced_on_the_class(monkeypatch):
    # a tracer replaces BernoulliCache.get on the class with a wrapper; the
    # base class must still take the tangent-number path, not one Fraction
    # per index through the wrapper, and a subclass that overrides get must
    # still be read through it
    expected = BernoulliCache().scaled(300)
    calls = []
    get = BernoulliCache.get

    def counted_get(self, n):
        calls.append(n)
        return get(self, n)

    monkeypatch.setattr(BernoulliCache, "get", counted_get)
    assert BernoulliCache().scaled(300) == expected
    assert calls == []

    class Bad(BernoulliCache):
        def get(self, n: int) -> Fraction:
            return Fraction(1, 29) if n == 4 else super().get(n)

    b, big = Bad().scaled(300)
    assert Fraction(b[4], big) == Fraction(1, 29)
    assert sorted(calls) == [n for n in range(301) if n != 4]
