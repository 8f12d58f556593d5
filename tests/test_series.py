import math
from fractions import Fraction

import pytest

from doublezeta import cli, series
from doublezeta.bernoulli import BernoulliCache
from doublezeta.rationals import binomial
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
        coeff = (-1) ** (m - p) * binomial(m, p)
        rhs = [x + coeff * y for x, y in zip(rhs, derivative(p))]
        deg = 2 * s - 1 - p
        if 0 <= deg <= top:
            rhs[deg] += coeff * Fraction(math.factorial(2 * s - 1), math.factorial(deg))
    return lhs, rhs


def reference_mismatch(s: int, m: int, order: int, cache) -> Mismatch | None:
    lhs, rhs = reference_sides(s, m, order, cache)
    return next((Mismatch(i, x, y) for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)


def egf_sides(s: int, m: int, order: int, cache) -> tuple[list[Fraction], list[Fraction]]:
    """``series._reflection_egf``'s integer EGF entries as [t^i] coefficients x / (i! D)."""
    lhs, rhs, big = series._reflection_egf(s, m, order, cache)
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
        (binomial(m, k) * cache.get(n + k) for k in range(m + 1)), Fraction(0)
    )


def corrupted_cache(index: int) -> type[BernoulliCache]:
    """A BernoulliCache whose B_index is 1/29."""

    class Corrupted(BernoulliCache):
        def get(self, n: int) -> Fraction:
            return Fraction(1, 29) if n == index else super().get(n)

    return Corrupted


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
    assert verify_reflection(1, 1, 12, cache) == (True, None)
    assert verify_reflection(3, 5, 24, cache) == (True, None)


def test_reflection_negative_control(cache, monkeypatch):
    # perturbing one polynomial coefficient of the right side by 1 must be caught
    egf = series._reflection_egf

    def bumped(*args):
        lhs, rhs, big = egf(*args)
        rhs[1] += big  # entry i is [t^i] times i! D
        return lhs, rhs, big

    monkeypatch.setattr(series, "_reflection_egf", bumped)
    passed, bad = verify_reflection(2, 3, 20, cache)
    assert not passed and bad.degree == 1
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
            bad_at = reference_mismatch(s, m, 48, ref)
            assert verify_reflection(s, m, 48, bad) == (bad_at is None, bad_at), (s, m)
            failures += bad_at is not None
    assert failures


def test_reflection_sides_match_reference(cache):
    for s in range(1, 7):
        for m in range(1, 13):
            for order in (2 * s - 2 + m, 48):
                assert egf_sides(s, m, order, cache) == reference_sides(s, m, order, cache)


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
            bad_at = reference_mismatch(s, m, 16, ref)
            if bad_at is not None:
                expected.append(f"(s={s}, m={m}, order=16): FAIL {bad_at}")
    assert expected
    cli.main(["verify", "series", "--s-max", "2", "--m-max", "3", "--order", "16"])
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "FAIL" in line] == expected
