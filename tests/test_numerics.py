import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

import doublezeta.numerics as numerics
from doublezeta.numerics import (
    BigFloat,
    audit_euler,
    audit_h_ab,
    rational_reconstruct,
    zeta_double,
    zeta_single,
)
from doublezeta import matrices, reductions
from doublezeta.bernoulli import BernoulliCache
from doublezeta.reductions import euler_constant


def exact(x):
    """The mpf x as an exact Fraction."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def starts_with(x, prefix):
    """The positive x truncates to the decimal ``prefix``."""
    low = Fraction(prefix)
    return low <= x < low + Fraction(1, 10 ** len(prefix.partition(".")[2]))


def test_zeta_single_reference_values():
    z3 = zeta_single(3, 30)
    assert z3.error_bound <= Fraction(1, 10**30)
    with mp.workdps(30 + 60):
        assert abs(z3.value - exact(mpmath.zeta(3))) <= z3.error_bound
    assert starts_with(z3.value, "1.202056903159594285399")
    z5 = zeta_single(5, 30)
    assert starts_with(z5.value, "1.036927755143369926")


def test_zeta_single_vs_mpmath_grid():
    # the reference carries 60 digits past the target: an even zeta's bound
    # of a few ulps lies near 10^-55 here, far below a 40-digit reference
    for k in range(2, 12):
        z = zeta_single(k, 25)
        with mp.workdps(25 + 60):
            assert abs(z.value - exact(mpmath.zeta(k))) <= z.error_bound


def test_zeta_single_pi_consistency():
    z2 = zeta_single(2, 30)
    z4 = zeta_single(4, 30)
    with mp.workdps(30 + 60):
        assert abs(z2.value - exact(mp.pi**2 / 6)) <= z2.error_bound
        assert abs(z4.value - exact(mp.pi**4 / 90)) <= z4.error_bound


@pytest.mark.parametrize(
    "k, digits", [(3, 100), (17, 40), (200, 100), (215, 100), (512, 1000)]
)
def test_direct_sum_stops_where_its_floors_are_zero(k, digits):
    # the direct sum forms no floor past m = 2^ceil(bits/k), where each is
    # 0, and still counts all M - 1 ulps: the value and bound of the full sum.
    # At 100 digits bits = 430 = 2 * 215, so the last floor formed, at m = 4,
    # is exactly 1
    table = numerics._EMTables(digits)
    one, M = 1 << table.bits, table.cutoff
    tail = table.tail(k, M).times(1, table.bits)
    full = sum(one // m**k for m in range(1, M))
    assert numerics._zeta_single(k, table) == (
        full + tail.value, M - 1 + tail.error, table.bits
    )


@pytest.mark.parametrize("k1, k2, digits", [(2, 3, 30), (4, 5, 100), (2, 9, 40)])
def test_double_direct_sum_counts_two_ulps_per_m(k1, k2, digits):
    # the direct part sums m = 2..M.  Each m contributes < 1 + (m-1)/m^k2
    # ulps: the inner partial sum is below the truth by < m - 1 ulps, which
    # m^-k2 scales, and the quotient's floor adds one; that is < 2 per m, so
    # 2 (M - 1) ulps.  zeta(k1, k2) is that part plus zeta(k1) tail(k2),
    # the two leading terms of the T(m) expansion and the derivative series
    # of the folded tails, here rebuilt from the same table.
    table = numerics._EMTables(digits)
    bits, M, w = table.bits, table.double_cutoff, k1 + k2
    one = 1 << bits
    inner = direct = 0
    for m in range(2, M + 1):
        inner += one // (m - 1) ** k1
        direct += inner // m**k2
    x = numerics._Fixed(direct, 2 * (M - 1), bits)
    x += table.zeta_fixed(k1) * table.tail(k2, M + 1)
    x -= table.tail(w - 1, M + 1).times(1, bits, k1 - 1)
    x -= table.tail(w, M + 1).times(1, bits, 2)
    series = numerics._folded_tails(k1, w, table)
    value, bound, ulps = numerics._derivative_sum(series, table.target, table)
    assert numerics._zeta_double(k1, k2, table) == (
        x.value - value, x.error + bound + ulps, bits
    )


@pytest.mark.parametrize("q", [8, 9, 10, 16, 31, 64, 100, 257, 1000, 4096, 20000])
def test_pi_encloses_mpmath(q):
    pi = numerics._pi(q)
    assert pi.scale == q
    # the reference carries 100 bits below the unit 2^-q
    with mp.workdps(q * 3 // 10 + 40):
        assert abs(pi.value - mp.ldexp(mp.pi, q)) <= pi.error


def routes(monkeypatch):
    """Record (k, digits) of each single zeta by the route that evaluates it:
    Euler's formula or Euler-Maclaurin."""
    seen = {"_zeta_even": [], "_zeta_single": []}
    for name, calls in seen.items():
        evaluate = getattr(numerics, name)

        def recorded(k, tables, evaluate=evaluate, calls=calls):
            calls.append((k, tables.digits))
            return evaluate(k, tables)

        monkeypatch.setattr(numerics, name, recorded)
    return seen


@pytest.mark.parametrize("digits", [1, 12, 40, 200, 1000, 2000])
def test_even_zeta_encloses_mpmath_on_both_sides_of_the_crossover(monkeypatch, digits):
    # Euler's formula up to the table's even limit, Euler-Maclaurin past it
    limit = numerics._EMTables(digits).even_limit
    below = limit - limit % 2
    seen = routes(monkeypatch)
    for k in (2, below, below + 2):
        z = zeta_single(k, digits)
        with mp.workdps(digits + 60):
            err = abs(z.value - exact(mpmath.zeta(k)))
        assert err <= z.error_bound <= Fraction(1, 10**digits), k
    assert seen == {
        "_zeta_even": [(2, digits), (below, digits)],
        "_zeta_single": [(below + 2, digits)],
    }


@pytest.mark.parametrize("digits", [1, 30, 200])
def test_h_encloses_its_pi_power(digits):
    # H(n) = pi^2n/(2n+1)!, from the table's pi^2n in the working unit
    table = numerics._EMTables(digits)
    for n in (0, 1, 2, 3, 8, 17, 40):
        h = numerics._h(n, table)
        assert h.scale == table.bits
        with mp.workdps(digits + 60):
            ref = mp.ldexp(mp.pi ** (2 * n) / mp.factorial(2 * n + 1), h.scale)
            assert abs(h.value - ref) <= h.error, n
    assert numerics._h(0, table) == (1 << table.bits, 0, table.bits)


@pytest.mark.parametrize("digits", [30, 400])
def test_ratios_are_the_floor_of_b_2j_over_its_factorial(digits):
    # rho_J = B_2J/(2J)!, with B_2J read off get(2J), floored in units of
    # 2^-ratio_bits: the ratios take the Bernoulli convention from the cache
    table, cache = numerics._EMTables(digits), BernoulliCache()
    for J in range(1, 81):
        rho = cache.get(2 * J) / math.factorial(2 * J)
        assert table.ratio(J) == math.floor(rho * 2**table.ratio_bits), (digits, J)


@pytest.mark.parametrize("digits", [1, 30, 200])
def test_even_zeta_is_eulers_formula_over_b_2n(digits):
    # zeta(2n) = |B_2n| (2 pi)^2n / (2 (2n)!), with B_2n read off get(2n):
    # one floor of that rational times the table's pi^2n, whose result
    # depends on the rational's value only
    table, cache = numerics._EMTables(digits), BernoulliCache()
    for k in range(2, 101, 2):
        c = abs(cache.get(k)) * 2**k / (2 * math.factorial(k))
        assert numerics._zeta_even(k, table) == table.pi_power(k // 2).times(
            c.numerator, table.bits, c.denominator
        ), (digits, k)


def test_an_even_k_past_the_crossover_forms_no_large_tangent_number(monkeypatch):
    # zeta(512) at 30 digits takes the Euler-Maclaurin route: the only
    # Bernoulli numbers read are those of its ratios, and B_512, whose
    # tangent number T_256 Euler's formula would need, is never formed
    tables, reads = [], []
    pairs = BernoulliCache._pairs

    def counted(self, start, stop):
        reads.extend(range(start, stop))
        return pairs(self, start, stop)

    class Tables(numerics._EMTables):
        def __init__(self, digits):
            super().__init__(digits)
            tables.append(self)

    monkeypatch.setattr(numerics, "_EMTables", Tables)
    monkeypatch.setattr(BernoulliCache, "_pairs", counted)
    zeta_single(512, 30)
    (table,) = tables
    assert reads == list(range(2, 2 * len(table._ratios) + 1, 2))
    assert table.bernoulli.high_water == 2 * len(table._ratios) + 1 < 2 * table.term_cap
    assert not table._pi_powers


def test_zeta_single_rejects_bad_args():
    with pytest.raises(ValueError):
        zeta_single(1, 30)
    with pytest.raises(ValueError):
        zeta_double(2, 1, 30)


@pytest.mark.parametrize("digits", [1, 10, 30, 80])
def test_zeta_double_k1_one(digits):
    # zeta(1, 2) = zeta(3) and zeta(1, 3) = pi^4/360 (Euler); for k >= 4 the
    # reference is sum_m H_{m-1} m^-k = 1/(k-1)! int_0^1 (-log t)^(k-1)
    # (-log(1-t)) / (1-t) dt by quadrature, independent of Euler's formula.
    target = Fraction(1, 10**digits)
    closed = {2: lambda: mpmath.zeta(3), 3: lambda: mp.pi**4 / 360}
    for k in range(2, 10):
        z = zeta_double(1, k, digits)
        with mp.workdps(digits + 30):
            if k in closed:
                ref = closed[k]()
            else:
                f = lambda t: (-mp.log(t)) ** (k - 1) * -mp.log1p(-t) / (1 - t)
                ref = mp.quad(f, [0, mpf(1) / 2, 1]) / mp.factorial(k - 1)
            assert abs(z.value - exact(ref)) <= z.error_bound <= target, k


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
            err = abs(z.value - exact(_reference_zeta2(k1, k2)))
            assert err <= z.error_bound <= Fraction(1, 10**digits), digits


def test_audit_euler_reconstructs_at_100_digits():
    (rep,) = audit_euler(2, 100)
    assert rep.lhs.error_bound <= Fraction(1, 10**100)
    assert rep.reconstructed == euler_constant(2, 1)


def test_zeta_double_reference_values():
    zd = zeta_double(2, 3, 30)
    assert starts_with(zd.value, "0.22881039")
    assert zd.error_bound <= Fraction(1, 10**30)
    assert starts_with(zeta_double(3, 2, 30).value, "0.71156619")
    assert starts_with(zeta_double(2, 5, 30).value, "0.038575")


@pytest.mark.parametrize("a, b", [(2, 3), (2, 5), (3, 4)])
def test_stuffle_relation(a, b):
    # zeta(a,b) + zeta(b,a) + zeta(a+b) = zeta(a) zeta(b), in exact
    # rationals from the returned values and bounds
    terms = [zeta_double(a, b, 30), zeta_double(b, a, 30), zeta_single(a + b, 30)]
    (va, ea), (vb, eb) = zeta_single(a, 30), zeta_single(b, 30)
    lhs = sum(t.value for t in terms)
    bound = sum(t.error_bound for t in terms) + abs(va) * eb + abs(vb) * ea + ea * eb
    assert abs(lhs - va * vb) <= bound


def test_monotone_refinement():
    # doubling the precision never leaves the previous error interval
    for k1, k2, digits in [(2, 3, 15), (3, 2, 20), (2, 7, 25)]:
        coarse = zeta_double(k1, k2, digits)
        fine = zeta_double(k1, k2, 2 * digits)
        assert abs(coarse.value - fine.value) <= coarse.error_bound


def test_rational_reconstruct():
    eps = Fraction(1, 10**30)
    assert rational_reconstruct(BigFloat(Fraction(1, 2), eps)) == Fraction(1, 2)
    third = BigFloat(Fraction(2**100 // 3, 2**100), eps)
    assert rational_reconstruct(third) == Fraction(1, 3)
    assert rational_reconstruct(BigFloat(Fraction(2, 5), Fraction(1, 5))) is None
    # a candidate is accepted within the exact bound, with no slack beyond it
    assert rational_reconstruct(BigFloat(Fraction(1, 2) + eps, eps)) == Fraction(1, 2)
    assert rational_reconstruct(BigFloat(Fraction(1, 2) + 2 * eps, eps)) is None
    # the denominator bound is 64: distinct p/q with q <= 64 are 1/64^2
    # apart, so an interval narrower than that names at most one of them
    below = Fraction(1, 2 * 64**2) - eps  # 2 error < 1/64^2
    assert rational_reconstruct(BigFloat(Fraction(1, 64), below)) == Fraction(1, 64)
    assert rational_reconstruct(BigFloat(Fraction(63, 64), below)) == Fraction(63, 64)
    assert rational_reconstruct(BigFloat(Fraction(1, 2), Fraction(1, 2 * 64**2))) is None
    assert rational_reconstruct(BigFloat(Fraction(1, 65), eps)) is None


def test_audit_euler_k2():
    rep = audit_euler(2, 40, 1)[0]
    assert not rep.printed_constant_consistent
    assert rep.reconstructed == Fraction(-11, 2)
    assert abs(rep.residual_ratio.value + Fraction(11, 2)) <= rep.residual_ratio.error_bound


def test_audit_euler_k3():
    assert audit_euler(3, 40, 1)[0].reconstructed == Fraction(-11)
    assert audit_euler(3, 40, 2)[0].reconstructed == Fraction(-18)


def test_audit_euler_precision_stable():
    lo = audit_euler(2, 30, 1)[0]
    hi = audit_euler(2, 60, 1)[0]
    assert (
        abs(lo.residual_ratio.value - hi.residual_ratio.value)
        <= lo.residual_ratio.error_bound
    )


def test_audit_euler_low_precision_reports_absent():
    rep = audit_euler(2, 1, 1)[0]
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
        (single,) = audit_euler(K, digits, rep.r)
        assert _report_fields(rep) == _report_fields(single)


@pytest.mark.parametrize(
    "call",
    [
        lambda: zeta_single(3, 0),
        lambda: zeta_double(2, 3, -1),
        lambda: zeta_double(1, 3, 0),
        lambda: audit_euler(2, 0),
        lambda: audit_euler(2, -2, 1),
        lambda: audit_h_ab(0, 0, 0),
    ],
    ids=[
        "zeta_single",
        "zeta_double",
        "zeta_double_k1_one",
        "audit_euler",
        "audit_euler_constant",
        "audit_h_ab",
    ],
)
def test_public_functions_reject_digits_below_one(call):
    with pytest.raises(ValueError, match="digits must be >= 1"):
        call()


PUBLIC_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda d: zeta_single(3, d),
        lambda d: zeta_double(2, 3, d),
        lambda d: zeta_double(1, 3, d),
        lambda d: audit_euler(2, d),
        lambda d: audit_euler(2, d, 1),
        lambda d: audit_h_ab(0, 0, d),
    ],
    ids=[
        "zeta_single",
        "zeta_double",
        "zeta_double_k1_one",
        "audit_euler",
        "audit_euler_constant",
        "audit_h_ab",
    ],
)


@PUBLIC_CALLS
def test_public_functions_reject_digits_too_large_for_a_float(monkeypatch, call):
    # a digits past a float's range is a ValueError naming digits, raised
    # before any work (no Bernoulli cache) and before any float maths
    monkeypatch.setattr(numerics, "BernoulliCache", None)
    with pytest.raises(ValueError, match="^digits is too large: its bit count passes sys.maxsize$"):
        call(10**400)


@PUBLIC_CALLS
def test_public_functions_reject_digits_past_the_largest_bit_count(monkeypatch, call):
    # a float holds this bit count, but no int has that many bits, and
    # 10^(digits + 10) would not return: rejected at once, before any work
    digits = 5 * 10**307
    assert math.ceil((digits + 10) * math.log2(10)) + 64 > sys.maxsize
    monkeypatch.setattr(numerics, "BernoulliCache", None)
    with pytest.raises(ValueError, match="^digits is too large: its bit count passes sys.maxsize$"):
        call(digits)


def test_the_digits_limit_is_the_last_bit_count_within_sys_maxsize():
    # the limit is one int comparison, made before the float maths of the
    # bit count; here that count is bracketed by 60 digits of log2 10
    below = Fraction(3321928094887362347870319429489390175864831393024580612054756, 10**60)
    above = below + Fraction(1, 10**60)
    assert math.ceil((numerics._MAX_DIGITS + 10) * above) + 64 <= sys.maxsize
    assert math.ceil((numerics._MAX_DIGITS + 11) * below) + 64 > sys.maxsize


def test_audit_euler_rejects_bad_rows():
    with pytest.raises(ValueError):
        audit_euler(1, 40)
    for r in (0, 3):
        with pytest.raises(ValueError):
            audit_euler(3, 40, r)


# every public function that takes K, each going through matrices._check_k;
# the audit of one row's constant is audit_euler with r, and the one-K
# checks are the sweeps over K..K
TAKES_K = {
    "build_a": matrices.build_a,
    "build_p": matrices.build_p,
    "build_q": matrices.build_q,
    "verify_inverse": lambda K: matrices.verify_inverse_sweep(K, K),
    "verify_closed_forms": lambda K: matrices.verify_closed_forms_sweep(K, K),
    "euler_rhs_coefficients": reductions.euler_rhs_coefficients,
    "inverse_reduction_coefficients": lambda K: reductions.inverse_reduction_coefficients(K, []),
    "euler_constant": lambda K: reductions.euler_constant(K, 1),
    "audit_euler": lambda K: audit_euler(K, 40),
    "audit_euler_constant": lambda K: audit_euler(K, 40, r=1),
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
        assert abs(residual.value - c) <= residual.error_bound


def test_audit_euler_evaluates_nothing_twice(monkeypatch):
    # one pass per K: every single zeta and every Euler-Maclaurin tail of the
    # audit is evaluated once, however many rows share it.  A single zeta
    # comes by Euler's formula (even k) or by Euler-Maclaurin (odd k), and
    # each k by one route, once
    tails = []
    zeta_tail_orig = numerics._zeta_tail

    def counted_tail(k, start, target, tables):
        tails.append((k, start, target, tables.bits))
        return zeta_tail_orig(k, start, target, tables)

    seen = routes(monkeypatch)
    monkeypatch.setattr(numerics, "_zeta_tail", counted_tail)
    audit_euler(8, 40)
    # zeta(2..15) and zeta(17) at 40 digits; each row reads its zeta(2r) from
    # the same table as the products
    assert sorted(seen["_zeta_even"]) == [(k, 40) for k in range(2, 16, 2)]
    assert sorted(seen["_zeta_single"]) == [(k, 40) for k in [*range(3, 16, 2), 17]]
    assert tails and len(set(tails)) == len(tails)


def test_zeta_tail_encloses_mpmath_reference():
    # each int tail, as value +- error in units of 2^-scale, encloses the
    # Hurwitz zeta sum_{m >= start} m^-k.  A table serves one precision; the
    # shuffled cases interleave the four tables, and each serves a mixed
    # sequence of exponents and starts.  17 and 31 have the same bit length,
    # so the same shift and target: a memo keyed without the start returns
    # a wrong value
    cases = [
        (k, start, digits)
        for k in range(2, 41)
        for start in (17, 31, 41, 81, 201, 401)
        for digits in (30, 40, 100, 200)
    ]
    random.Random(0).shuffle(cases)
    tables = {}
    for k, start, digits in cases:
        if digits not in tables:
            tables[digits] = numerics._EMTables(digits)
        tail = tables[digits].tail(k, start)
        # the reference carries more bits than the tail's value
        with mp.workdps(digits + 60):
            ref = mp.ldexp(mpmath.zeta(k, start), tail.scale)
            assert abs(tail.value - ref) <= tail.error, (k, start, digits)


@pytest.mark.parametrize("k1, k2", [(2, 3), (6, 5), (2, 9), (4, 7), (9, 2), (3, 4), (8, 9)])
def test_zeta_double_fixed_result_encloses_reference(monkeypatch, k1, k2):
    # the int result of _zeta_double, as value +- error in units of 2^-bits,
    # encloses the double zeta.  Its error is counted in ulps far finer
    # than 10^-digits, so the expansion remainder must be in it
    converted = []
    to_bigfloat = numerics._Fixed.to_bigfloat

    def recorded(self):
        converted.append(self)
        return to_bigfloat(self)

    monkeypatch.setattr(numerics._Fixed, "to_bigfloat", recorded)
    for digits in (10, 30, 100, 200):
        converted.clear()
        zeta_double(k1, k2, digits)
        (fixed,) = converted
        assert fixed.scale == numerics._EMTables(digits).bits
        with mp.workdps(digits + 60):
            ref = mp.ldexp(_reference_zeta2(k1, k2), fixed.scale)
            assert abs(fixed.value - ref) <= fixed.error, digits


@pytest.mark.parametrize(
    "run",
    [lambda: zeta_double(6, 5, 200), lambda: audit_euler(8, 40)],
    ids=["zeta_double(6,5,200)", "audit_euler(8,40)"],
)
def test_tables_form_each_tail_once(monkeypatch, run):
    # and every tail of the call, and the T(m) fold, reads rho_J =
    # B_2J/(2J)! from the call's one table, which forms each on first use
    # from B_2J, and none past the term cap.  The ratios and Euler's
    # formula for the even zetas read B_2J from the table's one Bernoulli
    # cache, which forms each tangent number T_J once and none that is not
    # read
    tails, formed, tables, extended = [], [], [], []
    reads, caches = set(), set()
    zeta_tail_orig, pairs = numerics._zeta_tail, BernoulliCache._pairs
    extend = BernoulliCache._extend

    def counted_extend(self, k):
        start = len(self._tangents)
        extend(self, k)
        extended.extend(range(start, len(self._tangents)))

    def counted_pairs(self, start, stop):
        reads.update(n // 2 for n in range(start, stop))
        caches.add(id(self))
        return pairs(self, start, stop)

    def counted_tail(k, start, target, tables):
        tails.append((k, start, target, tables.bits))
        return zeta_tail_orig(k, start, target, tables)

    class Recorded(list):
        def append(self, ratio):
            formed.append(len(self) + 1)
            super().append(ratio)

    class Tables(numerics._EMTables):
        def __init__(self, digits):
            super().__init__(digits)
            self._ratios = Recorded()
            tables.append(self)

    monkeypatch.setattr(numerics, "_zeta_tail", counted_tail)
    monkeypatch.setattr(numerics, "_EMTables", Tables)
    monkeypatch.setattr(BernoulliCache, "_pairs", counted_pairs)
    monkeypatch.setattr(BernoulliCache, "_extend", counted_extend)
    run()
    assert tails and len(set(tails)) == len(tails)
    # and all in the call's one unit 2^-bits
    assert len({t[3] for t in tails}) == 1
    (table,) = tables
    assert formed == list(range(1, len(table._ratios) + 1))
    assert 0 < len(table._ratios) <= table.term_cap + 1
    assert caches == {id(table.bernoulli)}
    assert sorted(reads) == extended == list(range(1, len(table.bernoulli._tangents)))


@pytest.mark.parametrize("k, start, scale", [(40, 17, 200), (60, 5, 200), (100, 120, 794)])
def test_tail_terms_count_the_error_of_d(k, start, scale):
    # with the true ratios, (|r_J|+1) e_J stays far below one ulp, so no
    # real tail sees an undercount of e_J, the error of the d_J recurrence.
    # A stand-in table with huge exact ratios r_J = 2^(160 + 12 (30 - J)) in
    # units of 2^-100 magnifies it; they fall faster than d_J grows, so the
    # bound falls and the term cap n sets how many terms are summed.  The
    # sums of n and n - 1 terms differ by term n, and their counts by its
    # count, which must cover it on its own: the far larger counts of the
    # first terms would hide its undercount in the sum.  At the first two
    # starts f_J exceeds 1, so e_J grows by its factor; at start 120,
    # k = 100 (scale 200 + the tail's shift) f_J runs from below 1 to above
    # it, where the + 1 of each step adds up.  The stand-in's bits put the
    # tail at its full scale bits + shift, so r_J is floored no coarser
    count = 30

    class Table:
        ratio_bits = 100
        bits = scale - numerics._tail_shift(k, start)

        def __init__(self, term_cap):
            self.term_cap = term_cap

        def ratio(self, J):
            return 1 << (160 + 12 * (count - J))

    exact, previous, previous_ulps = Fraction(0), 0, 0
    for n in range(1, count + 1):
        table = Table(n)
        factors = numerics._tail_factors(k, start, scale, table)
        value, _, ulps = numerics._derivative_sum(factors, 0, table)
        rising = math.prod(range(k, k + 2 * n - 1))
        term = Fraction(rising << (160 + 12 * (count - n) + scale), start ** (k - 1 + 2 * n) << 100)
        exact += term
        assert abs(value - exact) <= ulps, n
        assert abs(value - previous - term) <= ulps - previous_ulps, n
        previous, previous_ulps = value, ulps


def test_derivative_sum_stops_where_its_bound_stops_falling():
    # an asymptotic series: no tail the tests run gets this far.  Here
    # x_J = 3^J 2^20 within 1 and r_J = 2^(40 - 6J) for J <= 4, so the
    # bound falls, and r_5 = 2^18 makes it rise at J = 5: the sum is terms
    # 1..4, and its error that bound plus their counted ulps
    ratios, drop, read = [2**34, 2**28, 2**22, 2**16, 2**18, 2**30, 2**40], 8, []

    class Table:
        term_cap = 100

    def x(J):
        return 3**J << 20

    def factors():
        for J, r in enumerate(ratios, start=1):
            read.append(r)
            yield r, x(J), 1, drop

    def term(J):  # the floor of r_J x_J / 2^drop and its count
        r = ratios[J - 1]
        return math.floor(Fraction(r * x(J), 2**drop)), math.ceil(Fraction(r + 1 + x(J), 2**drop)) + 1

    bounds = [2 * (abs(t) + c) for t, c in map(term, range(1, 6))]
    assert bounds[:4] == sorted(bounds[:4], reverse=True) and bounds[4] > bounds[3]
    value, bound, ulps = numerics._derivative_sum(factors(), 0, Table())
    assert value == sum(term(J)[0] for J in range(1, 5))
    assert (bound, ulps) == (bounds[4], sum(term(J)[1] for J in range(1, 5)))
    assert read == ratios[:5]


def test_a_capped_tail_forms_no_ratio_past_the_cap():
    # the tails of these calls stop before the cap; here it binds
    table = numerics._EMTables(200)
    table.term_cap = 5
    table.tail(3, 401)
    assert len(table._ratios) == table.term_cap + 1


@pytest.mark.parametrize(
    "k, start, weight",
    [(40, 17, None), (3, 401, None), (30, 401, 11)],
    ids=["40-17", "3-401", "30-401-folded"],
)
def test_tail_rounding_is_counted(k, start, weight):
    # the remainder bound dwarfs a tail's rounding, so the enclosure tests
    # cannot see an undercount of it.  Here the first n terms are summed
    # exactly, B_2J (k)_{2J-1}/(2J)! start^(1-k-2J), for every n up to the
    # terms the tail took, and the loop's sum of them (the term cap n stops
    # it) must lie within its counted rounding of that sum, and its term n
    # within that term's count.  The first term not taken sets the
    # remainder bound: it is checked against its count too, and the bound
    # must cover twice its exact value.  At start 17 the factor
    # (k+2J-1)(k+2J)/start^2 of the d_J recurrence exceeds 1 at k = 40, so
    # d's error grows with J, and that term has the largest e_J.  With a
    # weight, the tail is term J = 10 of the T(m) fold of zeta_double(6, 5,
    # 200), requested with the fold's coefficient: its target leaves it
    # held some but not all of its shift coarser, with r_J floored as
    # much coarser
    digits = 200
    table = numerics._EMTables(digits)
    num = den = 1
    if weight is not None:
        J = (k - weight + 1) // 2
        r = numerics._EMTables(digits).ratio(J)
        num = (abs(r) + 1) * math.prod(range(weight - 2, weight + 2 * J - 3))
        den = 1 << table.ratio_bits
    tail = table.tail(k, start, num, den)
    shift = numerics._tail_shift(k, start)
    cut = table.bits + shift - tail.scale
    assert 0 < cut < shift if weight else cut == shift
    # the target in the tail's units: 64 bits above its unit
    target = (den << (table.bits + shift)) // (10 ** (digits + 10) * num) >> cut
    assert target.bit_length() == 65
    taken = len(table._ratios) - 1  # the first term not taken formed the last ratio
    one = 1 << tail.scale
    bernoulli = BernoulliCache()

    def exact_term(n):
        c = bernoulli.get(2 * n) * math.prod(range(k, k + 2 * n - 1)) / math.factorial(2 * n)
        return c * Fraction(one, start ** (k - 1 + 2 * n))

    exact = Fraction(one, (k - 1) * start ** (k - 1)) + Fraction(one, 2 * start**k)
    lead = one // ((k - 1) * start ** (k - 1)) + one // (2 * start**k)
    fresh = numerics._EMTables(digits)
    value = ulps = 0
    for n in range(1, taken + 1):
        term = exact_term(n)
        exact += term
        fresh.term_cap = n
        factors = numerics._tail_factors(k, start, tail.scale, fresh)
        previous, previous_ulps = value, ulps
        value, bound, ulps = numerics._derivative_sum(factors, 0, fresh)
        # term n within its own count; the two leading terms are one floor each
        assert abs(value - previous - term) <= ulps - previous_ulps, n
        assert abs(lead + value - exact) <= ulps + 2, n
    assert tail.value == lead + value
    assert tail.error == bound + ulps + 2
    # the term after them, formed from its factors as the loop forms it
    factors = numerics._tail_factors(k, start, tail.scale, fresh)
    r, x, e, drop = next(itertools.islice(factors, taken, None))
    untaken, count = r * x >> drop, -(-((abs(r) + 1) * e + abs(x)) >> drop) + 1
    assert bound == 2 * (abs(untaken) + count)
    assert abs(untaken - exact_term(taken + 1)) <= count
    assert bound >= 2 * abs(exact_term(taken + 1))
    # and the count stays below the remainder bound that follows it.  At
    # start 17 the series turns before it meets the target; the others meet
    # it, and their rounding stays far below it
    assert ulps + 2 < bound
    if start > 17:
        assert bound <= target and (ulps + 2) << 48 <= target


def test_a_tail_coarser_than_its_ratios_encloses_the_reference():
    # sum_{m >= 100} m^-200 lies far below 10^-110: its target leaves the
    # tail a cut past ratio_bits, so r_J is floored to units of 1, no
    # coarser, and the tail and zeta(200) still enclose their values
    digits, k, start = 100, 200, 100
    table = numerics._EMTables(digits)
    tail = table.tail(k, start)
    assert table.bits + numerics._tail_shift(k, start) - tail.scale > table.ratio_bits
    with mp.workdps(digits + 60):
        ref = mp.ldexp(mpmath.zeta(k, start), tail.scale)
        assert abs(tail.value - ref) <= tail.error
    z = zeta_single(k, digits)
    with mp.workdps(digits + 60):
        assert abs(z.value - exact(mpmath.zeta(k))) <= z.error_bound <= Fraction(1, 10**digits)


def test_tail_target_is_the_floor_of_the_exact_coefficient(monkeypatch):
    # the int target of a tail is the one the exact Fraction coefficient
    # gives, floor(2^(bits+shift) / (10^(digits+10) max(1, num/den))); a
    # coefficient below 1, num < den, counts as 1
    targets = []

    def recorded(k, start, target, tables):
        targets.append(target)

    monkeypatch.setattr(numerics, "_zeta_tail", recorded)
    rng = random.Random(1)
    digits = 40
    table = numerics._EMTables(digits)
    for _ in range(300):
        k, start = rng.randrange(2, 60), rng.randrange(2, 500)
        if rng.random() < 0.5:  # the fold's denominator
            den = 1 << table.ratio_bits
        else:
            den = rng.randrange(1, 1 << rng.randrange(1, 300))
        num = rng.choice([den, den - 1, den + 1, rng.randrange(1, 1 << rng.randrange(1, 600))])
        num = max(num, 1)
        table._tails.clear()
        table.tail(k, start, num, den)
        c = max(Fraction(1), Fraction(num, den))
        units = table.bits + (k - 1) * (start.bit_length() - 1)
        expected = (c.denominator << units) // (10 ** (digits + 10) * c.numerator)
        assert targets.pop() == expected, (k, start, num, den)


@pytest.mark.parametrize("digits", [400, 600])
def test_contract_holds_at_high_precision(digits):
    # the true error is within the bound, and the bound within 10^-digits,
    # well past the precisions of the sweep above
    results = {
        (3,): zeta_single(3, digits),
        (2, 3): zeta_double(2, 3, digits),
        (4, 5): zeta_double(4, 5, digits),
        (1, 2): zeta_double(1, 2, digits),
    }
    with mp.workdps(digits + 40):
        refs = {
            (3,): mpmath.zeta(3),
            (1, 2): mpmath.zeta(3),
            (2, 3): _reference_zeta2(2, 3),
            (4, 5): _reference_zeta2(4, 5),
        }
        for key, z in results.items():
            err = abs(z.value - exact(refs[key]))
            assert err <= z.error_bound <= Fraction(1, 10**digits), key


@pytest.mark.parametrize("digits", [1100, 2000])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_single_contract_holds_past_a_fixed_term_cap(k, digits):
    # a tail needs about 0.37 digits derivative terms: a cap of 400 terms
    # missed the target from 1090 digits on.  k = 3 and 5 take the
    # Euler-Maclaurin route; k = 2 is Euler's formula at the same digits
    z = zeta_single(k, digits)
    with mp.workdps(digits + 60):
        err = abs(z.value - exact(mpmath.zeta(k)))
    assert err <= z.error_bound <= Fraction(1, 10**digits)


def test_the_t_fold_runs_to_its_target_at_one_digit():
    # the fold stops where its remainder meets the target, as a tail does;
    # a cap of J = digits terms left 5.51e-10 here
    assert zeta_double(2, 2, 1).error_bound < Fraction(1, 10**11)


def test_double_contract_holds_past_a_fixed_term_cap():
    digits = 1200
    z = zeta_double(2, 3, digits)
    with mp.workdps(digits + 40):
        err = abs(z.value - exact(_reference_zeta2(2, 3)))
    assert err <= z.error_bound <= Fraction(1, 10**digits)


@pytest.mark.parametrize("digits", [1, 12, 40])
def test_public_bound_is_the_engine_count(digits):
    # the enclosure tests cannot see a bound that is too small by a factor
    # of 2, since the counted bounds sit well above the true errors; so the
    # bound handed out must be the engine's count itself, recounted here on
    # a fresh table
    def fresh():
        return numerics._EMTables(digits)

    cases = [
        (zeta_single(5, digits), fresh().zeta_fixed(5)),
        (zeta_single(4, digits), fresh().zeta_fixed(4)),
        (zeta_double(3, 4, digits), numerics._zeta_double(3, 4, fresh())),
        (zeta_double(1, 4, digits), numerics._zeta_one(4, fresh())),
        (audit_h_ab(1, 0, digits).direct_value, numerics._zeta_double(2, 3, fresh())),
        (audit_h_ab(0, 1, digits).direct_value, numerics._zeta_double(3, 2, fresh())),
    ]
    for public, x in cases:
        assert x.error > 0
        assert public.error_bound == Fraction(x.error, 2**x.scale)
        assert public.value == Fraction(x.value, 2**x.scale)


@pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (0, 1)])
def test_audit_h_ab(a, b):
    rep = audit_h_ab(a, b, 30)
    assert rep.agrees_within_bounds
    assert rep.abs_difference <= Fraction(1, 10**20)


@pytest.mark.parametrize("digits", [1, 30, 200])
def test_audit_h_00_compares_one_zeta3_with_itself(digits):
    # the formula is H(0) zeta(3) with H(0) = 1, from the same table as the
    # direct zeta(3): the audit checks the coefficient table only
    rep = audit_h_ab(0, 0, digits)
    assert rep.abs_difference == 0
    assert rep.formula_value.value == rep.direct_value.value


@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("a, b", [(1, 0), (0, 1)])
def test_audit_h_ab_detects_a_wrong_coefficient(monkeypatch, a, b, index):
    # negative control: (1, 0) and (0, 1) compare the formula with an
    # independent double-zeta sum, so one doubled coefficient must show
    h_ab_coefficients = numerics.h_ab_coefficients

    def wrong_coefficients(a, b):
        table = h_ab_coefficients(a, b)
        (row,) = table.rows
        nums = list(row.numerators)
        nums[index] *= 2
        row = reductions._row(row.target, row.bases, nums, row.denominator, row.flags)
        return table._replace(rows=(row,))

    monkeypatch.setattr(numerics, "h_ab_coefficients", wrong_coefficients)
    assert audit_h_ab(a, b, 30).agrees_within_bounds is False


def test_audit_h_ab_scope():
    with pytest.raises(ValueError):
        audit_h_ab(2, 0, 30)
    with pytest.raises(ValueError):
        audit_h_ab(0, 2, 30)


# where a true value lies in its interval: -1 and 1 are the two ends
POSITIONS = st.sampled_from([-1, 1]) | st.fractions(-1, 1)
SCALES = st.integers(0, 100)


@st.composite
def fixeds(draw, scale=SCALES, divisor=False):
    error = draw(st.integers(0, 3) | st.integers(0, 2**80))
    if divisor:
        # the interval excludes 0, at times by a single ulp
        size = error + draw(st.integers(1, 3) | st.integers(1, 2**120))
        value = draw(st.sampled_from([-1, 1])) * size
    else:
        value = draw(st.integers(-(2**120), 2**120))
    return numerics._Fixed(value, error, draw(scale))


def point(x, t):
    """The true value at position t of the interval of x."""
    return Fraction(x.value + t * x.error, 1 << x.scale)


def encloses(r, true):
    return abs(true - Fraction(r.value, 1 << r.scale)) <= Fraction(r.error, 1 << r.scale)


@given(st.data(), SCALES, POSITIONS, POSITIONS)
def test_fixed_sum_and_difference_enclose(data, scale, tx, ty):
    x = data.draw(fixeds(scale=st.just(scale)))
    y = data.draw(fixeds(scale=st.just(scale)))
    assert encloses(x + y, point(x, tx) + point(y, ty))
    assert encloses(x - y, point(x, tx) - point(y, ty))


@given(fixeds(), fixeds(), POSITIONS, POSITIONS)
def test_fixed_product_encloses(x, y, tx, ty):
    assert encloses(x * y, point(x, tx) * point(y, ty))


@given(fixeds(), fixeds(divisor=True), POSITIONS, POSITIONS)
def test_fixed_quotient_encloses(x, y, tx, ty):
    assert encloses(x / y, point(x, tx) / point(y, ty))


@given(fixeds(), st.integers(0, 2**80), SCALES)
def test_fixed_quotient_rejects_a_divisor_interval_with_zero(x, error, scale):
    for value in (0, error, -error):
        with pytest.raises(ZeroDivisionError):
            x / numerics._Fixed(value, error, scale)


@given(
    fixeds(),
    st.integers(-(2**40), 2**40) | st.fractions(max_denominator=2**40),
    st.integers(0, 100),
    POSITIONS,
)
def test_fixed_times_encloses(x, c, coarser, t):
    scale = max(0, x.scale - coarser)
    c = Fraction(c)
    assert encloses(x.times(c.numerator, scale, c.denominator), c * point(x, t))


def fraction_times(x, c, scale):
    """The reference: c times x in units of 2^-scale, c read as a reduced Fraction."""
    c = Fraction(c)
    den = c.denominator << (x.scale - scale)
    value, rest = divmod(c.numerator * x.value, den)
    return numerics._Fixed(value, -(-abs(c.numerator) * x.error // den) + (rest != 0), scale)


@given(
    fixeds(),
    st.integers(-(2**40), 2**40),
    st.integers(1, 3) | st.integers(1, 2**40),
    st.integers(1, 2**8),
    st.integers(0, 100),
)
def test_fixed_times_of_an_int_ratio_matches_its_fraction(x, num, den, common, coarser):
    # the floor and the rounded-up error depend on num/den only, also when
    # num and den share a factor
    scale = max(0, x.scale - coarser)
    expected = fraction_times(x, Fraction(num, den), scale)
    assert x.times(num * common, scale, den * common) == expected
    assert x.times(num, scale, den) == expected


def test_bigfloat_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="error bound must be >= 0"):
        BigFloat(Fraction(1), Fraction(-1, 10**30))
    assert BigFloat(1, 0) == (Fraction(1), Fraction(0))


def test_audit_euler_k12_bounds_meet_the_target_and_enclose_references():
    # every bound of every row meets 10^-digits, also where A's entries and
    # the products are large, and encloses an mpmath reference
    digits, K = 40, 12
    reports = audit_euler(K, digits)
    a = matrices.build_a(K).numerators
    with mp.workdps(digits + 60):
        products = [mpmath.zeta(2 * s) * mpmath.zeta(2 * K + 1 - 2 * s) for s in range(1, K)]
        for rep in reports:
            r = rep.r
            refs = {
                "lhs": exact(_reference_zeta2(2 * r, 2 * K + 1 - 2 * r)),
                "rhs_products": exact(mpmath.fsum(c * p for c, p in zip(a[r - 1], products))),
                "residual_ratio": euler_constant(K, r),
            }
            for name, ref in refs.items():
                x = getattr(rep, name)
                assert abs(x.value - ref) <= x.error_bound <= Fraction(1, 10**digits), (r, name)


@st.composite
def dyadics(draw, positive=False):
    man = draw(st.integers(1, 2**300) | st.integers(1, 10**6))
    sign = 1 if positive else draw(st.sampled_from([-1, 1]))
    return sign * man, draw(st.integers(-1100, 300))


@given(dyadics(), st.sampled_from([1, 2, 3, 5, 15, 30, 40, 100, 200]))
def test_nstr_matches_mpmath(x, digits):
    man, exp = x
    with mp.workprec(man.bit_length() + 8):
        expected = mp.nstr(mp.ldexp(mpf(man), exp), digits)
    assert numerics._nstr(Fraction(man) * Fraction(2) ** exp, digits) == expected


@pytest.mark.parametrize(
    "x, digits, text",
    [
        ("0", 3, "0.0"),
        ("9.9996", 4, "10.0"),
        ("-0.000012345", 3, "-1.23e-5"),
        ("123456", 3, "1.23e+5"),
        ("5/7", 3, "0.714"),  # the bit lengths put 5/7 one decade too high
    ],
)
def test_nstr_examples(x, digits, text):
    assert numerics._nstr(Fraction(x), digits) == text


@given(dyadics(positive=True))
def test_printed_bound_never_understates(x):
    man, exp = x
    bound = Fraction(man) * Fraction(2) ** exp
    text = BigFloat(0, bound).to_string(5).split(" ± ")[1]
    assert text == numerics._nstr(bound, 3, round_up=True)
    assert bound <= Fraction(text) <= bound * Fraction(101, 100)
