import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

import doublezeta.numerics as numerics
from doublezeta.numerics import (
    BigFloat,
    audit_euler,
    audit_euler_constant,
    audit_h_ab,
    pi_value,
    rational_reconstruct,
    zeta_double,
    zeta_single,
)
from doublezeta import matrices, reductions
from doublezeta.reductions import euler_constant


def test_zeta_single_reference_values():
    z3 = zeta_single(3, 30)
    assert z3.error_bound <= mpf(10) ** -30
    with mp.workdps(50):
        assert abs(z3.value - mpmath.zeta(3)) <= z3.error_bound
        assert str(z3.value)[:23] == "1.202056903159594285399"
    z5 = zeta_single(5, 30)
    with mp.workdps(50):
        assert str(z5.value)[:20] == "1.036927755143369926"


def test_zeta_single_vs_mpmath_grid():
    for k in range(2, 12):
        z = zeta_single(k, 25)
        with mp.workdps(40):
            assert abs(z.value - mpmath.zeta(k)) <= z.error_bound


def test_zeta_single_pi_consistency():
    z2 = zeta_single(2, 30)
    z4 = zeta_single(4, 30)
    pi = pi_value(30)
    with mp.workdps(80):
        d2 = abs(z2.value - pi.value**2 / 6)
        d4 = abs(z4.value - pi.value**4 / 90)
    assert d2 <= z2.error_bound + 7 * pi.error_bound
    assert d4 <= z4.error_bound + 5 * pi.error_bound


def test_zeta_single_rejects_bad_args():
    with pytest.raises(ValueError):
        zeta_single(1, 30)
    with pytest.raises(ValueError):
        zeta_double(2, 1, 30)


@pytest.mark.parametrize("digits", [30, 80])
def test_zeta_double_k1_one(digits):
    # zeta(1, 2) = zeta(3) and zeta(1, 3) = pi^4/360 (Euler); for k >= 4 the
    # reference is sum_m H_{m-1} m^-k = 1/(k-1)! int_0^1 (-log t)^(k-1)
    # (-log(1-t)) / (1-t) dt by quadrature, independent of Euler's formula.
    target = mpf(10) ** -digits
    closed = {2: lambda: mpmath.zeta(3), 3: lambda: mp.pi**4 / 360}
    for k in range(2, 10):
        z = zeta_double(1, k, digits)
        with mp.workdps(digits + 30):
            if k in closed:
                ref = closed[k]()
            else:
                f = lambda t: (-mp.log(t)) ** (k - 1) * -mp.log1p(-t) / (1 - t)
                ref = mp.quad(f, [0, mpf(1) / 2, 1]) / mp.factorial(k - 1)
            assert abs(z.value - ref) <= z.error_bound <= target, k


def _reference_zeta2(k1, k2):
    # zeta(k1, k2) at odd weight from mpmath.zeta alone, at mp's precision:
    # Euler's odd-weight formula for even k1, the stuffle relation
    # zeta(a,b) + zeta(b,a) = zeta(a) zeta(b) - zeta(a+b) for odd k1
    w = k1 + k2
    assert w % 2 == 1
    if k1 % 2:
        return mpmath.zeta(k1) * mpmath.zeta(k2) - mpmath.zeta(w) - _reference_zeta2(k2, k1)
    K, r = (w - 1) // 2, k1 // 2
    total = sum(
        (math.comb(2 * K - 2 * s, 2 * r - 1) + math.comb(2 * K - 2 * s, 2 * K - 2 * r))
        * mpmath.zeta(2 * s)
        * mpmath.zeta(w - 2 * s)
        for s in range(1, K)
    )
    c = -(1 + math.comb(2 * K, 2 * r - 1) + math.comb(2 * K, 2 * K - 2 * r))
    return total + mpf(c) / 2 * mpmath.zeta(w)


@pytest.mark.parametrize("k1, k2", [(2, 3), (6, 5), (2, 9), (4, 7), (9, 2), (8, 9)])
def test_zeta_double_contract_sweep(k1, k2):
    # the returned bound covers the true error and meets 10^-digits at every
    # precision, not only at the 30 digits most tests use
    for digits in (1, 10, 30, 40, 60, 100, 200, 300):
        z = zeta_double(k1, k2, digits)
        with mp.workdps(digits + 40):
            err = abs(z.value - _reference_zeta2(k1, k2))
            assert err <= z.error_bound <= mpf(10) ** -digits, digits


def test_audit_euler_reconstructs_at_100_digits():
    (rep,) = audit_euler(2, 100)
    assert rep.lhs.error_bound <= mpf(10) ** -100
    assert rep.reconstructed == euler_constant(2, 1)


def test_zeta_double_reference_values():
    zd = zeta_double(2, 3, 30)
    assert str(zd.value).startswith("0.22881039")
    assert zd.error_bound <= mpf(10) ** -30
    assert str(zeta_double(3, 2, 30).value).startswith("0.71156619")
    assert str(zeta_double(2, 5, 30).value).startswith("0.038575")


@pytest.mark.parametrize("a, b", [(2, 3), (2, 5), (3, 4)])
def test_stuffle_relation(a, b):
    with mp.workdps(80):
        lhs = zeta_double(a, b, 30) + zeta_double(b, a, 30) + zeta_single(a + b, 30)
        rhs = zeta_single(a, 30) * zeta_single(b, 30)
        diff = lhs - rhs
    assert abs(diff.value) <= diff.error_bound


def test_monotone_refinement():
    # doubling the precision never leaves the previous error interval
    for k1, k2, digits in [(2, 3, 15), (3, 2, 20), (2, 7, 25)]:
        coarse = zeta_double(k1, k2, digits)
        fine = zeta_double(k1, k2, 2 * digits)
        assert abs(coarse.value - fine.value) <= coarse.error_bound


def test_rational_reconstruct():
    assert rational_reconstruct(BigFloat(mpf("0.5"), mpf("1e-30")), 10) == Fraction(1, 2)
    third = BigFloat(mpf(1) / 3, mpf("1e-30"))
    assert rational_reconstruct(third, 10) == Fraction(1, 3)
    assert rational_reconstruct(BigFloat(mpf("0.4"), mpf("0.2")), 10) is None


def test_audit_euler_k2():
    rep = audit_euler_constant(2, 1, 40)
    assert not rep.printed_constant_consistent
    assert rep.reconstructed == Fraction(-11, 2)
    with mp.workdps(80):
        assert abs(rep.residual_ratio.value + mpf("5.5")) <= rep.residual_ratio.error_bound


def test_audit_euler_k3():
    assert audit_euler_constant(3, 1, 40).reconstructed == Fraction(-11)
    assert audit_euler_constant(3, 2, 40).reconstructed == Fraction(-18)


def test_audit_euler_precision_stable():
    lo = audit_euler_constant(2, 1, 30)
    hi = audit_euler_constant(2, 1, 60)
    assert (
        abs(lo.residual_ratio.value - hi.residual_ratio.value)
        <= lo.residual_ratio.error_bound
    )


def test_audit_euler_low_precision_reports_absent():
    rep = audit_euler_constant(2, 1, 1)
    # completing without reconstruction is valid; no exception either way
    assert rep.reconstructed is None or rep.reconstructed == Fraction(-11, 2)


def _report_fields(rep):
    numbers = [rep.lhs, rep.rhs_products, rep.residual_ratio]
    return (
        rep.K,
        rep.r,
        rep.digits,
        [(x.value, x.error_bound) for x in numbers],
        rep.reconstructed,
        rep.printed_constant_consistent,
    )


@pytest.mark.parametrize("K, digits", [(K, 40) for K in range(2, 7)] + [(2, 100)])
def test_audit_euler_equals_single_rows(K, digits):
    rows = audit_euler(K, digits)
    assert [rep.r for rep in rows] == list(range(1, K))
    for rep in rows:
        single = audit_euler_constant(K, rep.r, digits)
        assert _report_fields(rep) == _report_fields(single)


@pytest.mark.parametrize(
    "call",
    [
        lambda: zeta_single(3, 0),
        lambda: zeta_double(2, 3, -1),
        lambda: zeta_double(1, 3, 0),
        lambda: pi_value(0),
        lambda: audit_euler(2, 0),
        lambda: audit_euler_constant(2, 1, -2),
        lambda: audit_h_ab(0, 0, 0),
    ],
    ids=[
        "zeta_single",
        "zeta_double",
        "zeta_double_k1_one",
        "pi_value",
        "audit_euler",
        "audit_euler_constant",
        "audit_h_ab",
    ],
)
def test_public_functions_reject_digits_below_one(call):
    with pytest.raises(ValueError, match="digits must be >= 1"):
        call()


def test_audit_euler_rejects_bad_rows():
    with pytest.raises(ValueError):
        audit_euler(1, 40)
    for r in (0, 3):
        with pytest.raises(ValueError):
            audit_euler_constant(3, r, 40)


# every public function that takes K, each going through matrices._check_k
TAKES_K = {
    "build_a": matrices.build_a,
    "build_p": matrices.build_p,
    "build_q": matrices.build_q,
    "verify_inverse": matrices.verify_inverse,
    "verify_closed_forms": matrices.verify_closed_forms,
    "euler_rhs_coefficients": reductions.euler_rhs_coefficients,
    "inverse_reduction_coefficients": lambda K: reductions.inverse_reduction_coefficients(K, []),
    "euler_constant": lambda K: reductions.euler_constant(K, 1),
    "audit_euler": audit_euler,
    "audit_euler_constant": lambda K: audit_euler_constant(K, 1),
}


@pytest.mark.parametrize("name", TAKES_K)
@pytest.mark.parametrize("K", [1, 0, -1])
def test_public_functions_reject_k_below_two(name, K):
    with pytest.raises(ValueError, match="K must be >= 2"):
        TAKES_K[name](K)


@pytest.mark.parametrize("K", range(2, 13))
def test_audit_euler_reconstructs_closed_form_constant(K):
    for rep in audit_euler(K, 40):
        c = euler_constant(K, rep.r)
        assert rep.reconstructed == c
        residual = rep.residual_ratio
        with mp.workdps(100):
            cv = mpf(c.numerator) / c.denominator
            assert abs(residual.value - cv) <= residual.error_bound


def test_audit_euler_evaluates_nothing_twice(monkeypatch):
    # one pass per K: every single zeta and every Euler-Maclaurin tail of the
    # audit is evaluated once, however many rows share it
    singles, tails = [], []
    zeta_single_orig, zeta_tail_orig = numerics._zeta_single, numerics._zeta_tail

    def counted_single(k, tables):
        singles.append((k, tables.digits))
        return zeta_single_orig(k, tables)

    def counted_tail(k, start, target, tables):
        tails.append((k, start, target, mp.prec))
        return zeta_tail_orig(k, start, target, tables)

    monkeypatch.setattr(numerics, "_zeta_single", counted_single)
    monkeypatch.setattr(numerics, "_zeta_tail", counted_tail)
    audit_euler(8, 40)
    # zeta(2..15) and zeta(17) at 40 digits; each row reads its zeta(2r) from
    # the same table as the products
    assert sorted(singles) == [(k, 40) for k in [*range(2, 16), 17]]
    assert tails and len(set(tails)) == len(tails)


def _reference_zeta_tail(k, start, target, cache):
    # the tail engine without shared tables: a pow, two full factorials per
    # rising factorial and a fresh B_2J conversion in every iteration
    def rising(k, j):
        return math.factorial(k + j - 1) // math.factorial(k - 1)

    M = mpf(start)
    tail = M ** (1 - k) / (k - 1) + M ** (-k) / 2
    prev_bound = mpf("inf")
    J = 1
    while True:
        b2j = cache.get(2 * J)
        b2j_f = mpf(b2j.numerator) / mpf(b2j.denominator)
        fact = mpf(math.factorial(2 * J))
        power = M ** (1 - k - 2 * J)
        bound = 2 * abs(b2j_f) / fact * rising(k, 2 * J) * power / (k + 2 * J - 1)
        if bound <= target or bound >= prev_bound or J > 400:
            return tail, bound + numerics._slack(tail) * (J + 4)
        tail += b2j_f / fact * rising(k, 2 * J - 1) * power
        prev_bound = bound
        J += 1


def test_zeta_tail_matches_reference_bit_for_bit():
    # a table serves one precision; the shuffled cases interleave the four
    # tables, and each serves a mixed sequence of exponents and starts, so a
    # memo keyed without the start returns a wrong value
    cases = [
        (k, start, digits)
        for k in range(2, 41)
        for start in (17, 41, 81, 201, 401)
        for digits in (30, 40, 100, 200)
    ]
    random.Random(0).shuffle(cases)
    tables = {}
    for k, start, digits in cases:
        with mp.workdps(2 * digits + 15):
            if digits not in tables:
                tables[digits] = numerics._EMTables(digits)
            t = tables[digits]
            got = numerics._zeta_tail(k, start, t.target, t)
            ref = _reference_zeta_tail(k, start, t.target, t.bernoulli)
            assert got == ref, (k, start, digits)


@pytest.mark.parametrize(
    "run",
    [lambda: zeta_double(6, 5, 200), lambda: audit_euler(8, 40)],
    ids=["zeta_double(6,5,200)", "audit_euler(8,40)"],
)
def test_tables_form_each_power_and_ratio_once(monkeypatch, run):
    powers, ratios = [], []
    power_orig, ratio_orig = numerics._power, numerics._bernoulli_ratio

    def counted_power(start, n):
        powers.append((start, n, mp.prec))
        return power_orig(start, n)

    def counted_ratio(b, n):
        ratios.append((n, mp.prec))
        return ratio_orig(b, n)

    monkeypatch.setattr(numerics, "_power", counted_power)
    monkeypatch.setattr(numerics, "_bernoulli_ratio", counted_ratio)
    run()
    assert powers and len(set(powers)) == len(powers)
    assert ratios and len(set(ratios)) == len(ratios)
    # and all at the call's one working precision
    assert len({p[2] for p in powers} | {r[1] for r in ratios}) == 1


@pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (0, 1)])
def test_audit_h_ab(a, b):
    rep = audit_h_ab(a, b, 30)
    assert rep.agrees_within_bounds
    assert rep.abs_difference <= mpf(10) ** -20


def test_audit_h_ab_scope():
    with pytest.raises(ValueError):
        audit_h_ab(2, 0, 30)
    with pytest.raises(ValueError):
        audit_h_ab(0, 2, 30)


def test_bigfloat_propagation_is_conservative():
    with mp.workdps(40):
        a = BigFloat(mpf(2), mpf("1e-20"))
        b = BigFloat(mpf(3), mpf("1e-21"))
        assert (a + b).error_bound >= mpf("1.1e-20")
        assert (a * b).error_bound >= 3 * mpf("1e-20")
        with pytest.raises(ZeroDivisionError):
            a / BigFloat(mpf(0), mpf("1e-3"))


@pytest.mark.parametrize(
    "value, bound", [("1", "inf"), ("nan", "0"), ("-inf", "0"), ("1", "-1e-30")]
)
def test_bigfloat_rejects_non_finite_value_or_bound(value, bound):
    with pytest.raises(ValueError, match="must be finite"):
        BigFloat(mpf(value), mpf(bound))
