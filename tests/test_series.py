import functools
import math
from fractions import Fraction
from itertools import islice

import pytest

from doublezeta import cli, series
from doublezeta.bernoulli import BernoulliCache
from doublezeta.rationals import format_rational
from doublezeta.series import Mismatch, verify_carlitz, verify_reflection


@pytest.fixture(scope="module")
def cache():
    return BernoulliCache()


def build_fs(s: int, order: int, cache) -> list[Fraction]:
    """[t^k] t^{2s-1}/(e^t - 1) for k <= order: B_{k-2s+2}/(k-2s+2)!, and 0 below 2s-2."""
    shift = 2 * s - 2
    return [Fraction(0)] * shift + [
        cache.get(n) / math.factorial(n) for n in range(order - shift + 1)
    ]


def reference_sides(s: int, m: int, order: int, cache) -> tuple[list[Fraction], list[Fraction]]:
    """The [t^i] coefficients of both reflection sides, i <= order - m, as Fraction sums."""
    f = build_fs(s, order, cache)
    top = order - m

    def derivative(p: int) -> list[Fraction]:
        return [math.perm(i + p, p) * f[i + p] for i in range(top + 1)]

    fm = derivative(m)
    lhs = [sum(fm[j] / math.factorial(i - j) for j in range(i + 1)) for i in range(top + 1)]
    rhs = [Fraction(0)] * (top + 1)
    for p in range(m + 1):
        coeff = (-1) ** (m - p) * math.comb(m, p)
        rhs = [x + coeff * y for x, y in zip(rhs, derivative(p))]
        deg = 2 * s - 1 - p
        if 0 <= deg <= top:
            rhs[deg] += coeff * Fraction(math.factorial(2 * s - 1), math.factorial(deg))
    return lhs, rhs


def reference_mismatch(s: int, m: int, order: int, cache) -> Mismatch | None:
    lhs, rhs = reference_sides(s, m, order, cache)
    return next((Mismatch(i, x, y) for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)


def egf_sides(s: int, m: int, order: int, cache) -> tuple[list[Fraction], list[Fraction]]:
    """``series._reflection_sides``'s integer EGF entries as [t^i] coefficients x / (i! D)."""
    b, big = cache.scaled(order)
    lhs, rhs = series._reflection_sides(s, m, order, b, big)[m - 1]
    return tuple(
        [Fraction(x, math.factorial(i) * big) for i, x in enumerate(side)] for side in (lhs, rhs)
    )


def sympy_fs(s: int, order: int):
    """t^{2s-1}/(e^t - 1) expanded by ``sympy.series`` through t^order, and t."""
    import sympy

    t = sympy.Symbol("t")
    return sympy.series(t ** (2 * s - 1) / (sympy.exp(t) - 1), t, 0, order + 1).removeO(), t


def sympy_sides(s: int, m: int, order: int) -> tuple[list[Fraction], list[Fraction]]:
    """Both reflection sides from sympy: f_s and e^t expanded by ``sympy.series``.

    The derivatives of f_s truncated at the order are exact through order - m,
    and so is the product with e^t truncated there.
    """
    import sympy

    f, t = sympy_fs(s, order)
    top = order - m
    exp = sympy.series(sympy.exp(t), t, 0, top + 1).removeO()
    # the falling factorial ff(2s-1, p) is 0 for p > 2s-1, which ends the polynomial
    rhs = sum(
        (-1) ** (m - p) * sympy.binomial(m, p)
        * (sympy.diff(f, t, p) + sympy.ff(2 * s - 1, p) * t ** (2 * s - 1 - p))
        for p in range(m + 1)
    )
    sides = sympy.expand(exp * sympy.diff(f, t, m)), sympy.expand(rhs)
    return tuple([Fraction(str(side.coeff(t, i))) for i in range(top + 1)] for side in sides)


def carlitz_side(m: int, n: int, cache) -> Fraction:
    """(-1)^m sum_k C(m,k) B_{n+k} as a Fraction sum."""
    return (-1) ** m * sum(
        (math.comb(m, k) * cache.get(n + k) for k in range(m + 1)), Fraction(0)
    )


def pascal_reference(seq: list[int], sign: int, r: int) -> list[int]:
    """sum_k C(r,k) sign^(r-k) seq[i+k] for every i with i + r < len(seq)."""
    return [
        sum(math.comb(r, k) * sign ** (r - k) * seq[i + k] for k in range(r + 1))
        for i in range(len(seq) - r)
    ]


def corrupted_cache(index: int) -> type[BernoulliCache]:
    """A BernoulliCache whose B_index is 1/29."""

    class Corrupted(BernoulliCache):
        def get(self, n: int) -> Fraction:
            return Fraction(1, 29) if n == index else super().get(n)

    return Corrupted


@functools.cache
def carlitz_failures(index: int, n_max: int) -> list[tuple[int, int, Fraction, Fraction]]:
    """(m, n, lhs, rhs) for the pairs m <= n <= n_max, n outer, whose Fraction
    sides differ when B_index = 1/29."""
    ref = corrupted_cache(index)()
    return [
        (m, n, carlitz_side(m, n, ref), carlitz_side(n, m, ref))
        for n in range(n_max + 1)
        for m in range(n + 1)
        if carlitz_side(m, n, ref) != carlitz_side(n, m, ref)
    ]


@functools.cache
def reflection_results(index: int, s_max: int, m_max: int, order: int) -> list:
    """(s, m, first Fraction mismatch or None) per pair, s outer, when B_index = 1/29."""
    ref = corrupted_cache(index)()
    return [
        (s, m, reference_mismatch(s, m, order, ref))
        for s in range(1, s_max + 1)
        for m in range(1, m_max + 1)
    ]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("seq", [[], [7], [3, -1, 4], [1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9]])
def test_pascal_rows_match_binomial_sums(seq, sign):
    # ask for more rows than the sequence has: the rows stop before the empty one
    rows = list(islice(series._pascal_rows(seq, sign), len(seq) + 3))
    assert rows == [tuple(pascal_reference(seq, sign, r)) for r in range(len(seq))]
    if sign == 1:
        # the same table column by column, from the right
        columns = [[row[i] for row in rows if i < len(row)] for i in reversed(range(len(seq)))]
        assert list(series._pascal_columns(seq)) == columns


@pytest.mark.parametrize("s, order", [(1, 10), (2, 12), (3, 14)])
def test_build_fs_matches_sympy(cache, s, order):
    poly, t = sympy_fs(s, order)
    assert build_fs(s, order, cache) == [Fraction(str(poly.coeff(t, i))) for i in range(order + 1)]


@pytest.mark.parametrize("s, m, order", [(1, 1, 10), (1, 4, 12), (2, 3, 12), (3, 5, 20)])
def test_reflection_sides_match_sympy(cache, s, m, order):
    theirs = sympy_sides(s, m, order)
    assert reference_sides(s, m, order, cache) == theirs
    assert egf_sides(s, m, order, cache) == theirs


def test_reflection_examples(cache):
    assert verify_reflection(1, 1, 12, cache) == [(1, 1, None)]
    results = verify_reflection(3, 5, 24, cache)
    assert [(s, m) for s, m, _ in results] == [(s, m) for s in range(1, 4) for m in range(1, 6)]
    assert all(bad is None for _, _, bad in results)


def test_reflection_negative_control(cache, monkeypatch):
    # perturbing one polynomial coefficient of the right side by 1 must be caught
    sides = series._reflection_sides

    def bumped(s, m_max, order, b, big):
        out = sides(s, m_max, order, b, big)
        if s == 2:
            out[2][1][1] += big  # m = 3; entry i is [t^i] times i! D
        return out

    monkeypatch.setattr(series, "_reflection_sides", bumped)
    results = verify_reflection(2, 3, 20, cache)
    bad = {(s, m): mismatch for s, m, mismatch in results if mismatch is not None}
    assert list(bad) == [(2, 3)]
    assert bad[2, 3].degree == 1
    assert bad[2, 3].rhs - bad[2, 3].lhs == 1


def test_reflection_rejects_tiny_order(cache):
    # the error names the first pair, s outer and m inner, with no comparable coefficient
    for s_max, m_max, order, first in [
        (3, 4, 7, "s=3, m=4"),
        (6, 12, 10, "s=1, m=11"),
        (6, 3, 10, "s=5, m=3"),
        (1, 1, 0, "s=1, m=1"),
    ]:
        message = f"order {order} leaves no comparable coefficient for {first}$"
        with pytest.raises(ValueError, match=message):
            verify_reflection(s_max, m_max, order, cache)


def test_carlitz_examples(cache):
    assert verify_carlitz(0, cache) == []
    assert verify_carlitz(2, cache) == []
    assert verify_carlitz(5, cache) == []


def test_carlitz_sides_values(cache):
    # (0,2): both sides B_2 = 1/6; (1,2): both sides -1/6
    assert carlitz_side(0, 2, cache) == carlitz_side(2, 0, cache) == Fraction(1, 6)
    assert carlitz_side(1, 2, cache) == carlitz_side(2, 1, cache) == Fraction(-1, 6)


@pytest.mark.parametrize("index", [1, 4, 10])
def test_carlitz_matches_reference_under_a_corrupted_cache(index):
    # the failing pairs name the verdict of every pair m <= n <= 60
    expected = carlitz_failures(index, 60)
    assert expected
    assert verify_carlitz(60, corrupted_cache(index)()) == expected


@pytest.mark.parametrize("index", [1, 4, 10])
def test_reflection_matches_reference_under_a_corrupted_cache(index):
    expected = reflection_results(index, 6, 12, 48)
    assert any(bad is not None for _, _, bad in expected)
    assert verify_reflection(6, 12, 48, corrupted_cache(index)()) == expected


def test_reflection_sides_match_reference(cache):
    for s in range(1, 7):
        for m in range(1, 13):
            for order in (2 * s - 2 + m, 48):
                assert egf_sides(s, m, order, cache) == reference_sides(s, m, order, cache)


@pytest.mark.parametrize("index", [1, 4, 10])
def test_cli_fail_lines_under_a_corrupted_cache(monkeypatch, capsys, index):
    # one D and one Pascal table serve every pair of a sweep, so a small sweep
    # and the CLI defaults (--max 60; --s-max 6 --m-max 12 --order 48) are both run
    monkeypatch.setattr(cli, "BernoulliCache", corrupted_cache(index))
    for n_max, args in [(12, ["--max", "12"]), (60, [])]:
        expected = [
            f"(m={m}, n={n}): FAIL lhs={format_rational(lhs)} rhs={format_rational(rhs)}"
            for m, n, lhs, rhs in carlitz_failures(index, n_max)
        ]
        assert expected
        assert cli.main(["verify", "carlitz", *args]) == cli.EXIT_IDENTITY_FAILURE
        lines = capsys.readouterr().out.splitlines()
        assert lines == expected + [f"carlitz m<=n<={n_max}: FAIL"]

    for sizes, args in [
        ((2, 3, 16), ["--s-max", "2", "--m-max", "3", "--order", "16"]),
        ((6, 12, 48), []),
    ]:
        expected = [
            f"(s={s}, m={m}, order={sizes[2]}): " + ("pass" if bad is None else f"FAIL {bad}")
            for s, m, bad in reflection_results(index, *sizes)
        ]
        assert any("FAIL" in line for line in expected)
        assert cli.main(["verify", "series", *args]) == cli.EXIT_IDENTITY_FAILURE
        assert capsys.readouterr().out.splitlines() == expected
