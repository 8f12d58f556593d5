import collections
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
    audit_euler_constant,
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
    with mp.workdps(50):
        assert abs(z3.value - exact(mpmath.zeta(3))) <= z3.error_bound
    assert starts_with(z3.value, "1.202056903159594285399")
    z5 = zeta_single(5, 30)
    assert starts_with(z5.value, "1.036927755143369926")


def test_zeta_single_vs_mpmath_grid():
    for k in range(2, 12):
        z = zeta_single(k, 25)
        with mp.workdps(40):
            assert abs(z.value - exact(mpmath.zeta(k))) <= z.error_bound


def test_zeta_single_pi_consistency():
    z2 = zeta_single(2, 30)
    z4 = zeta_single(4, 30)
    with mp.workdps(80):
        assert abs(z2.value - exact(mp.pi**2 / 6)) <= z2.error_bound
        assert abs(z4.value - exact(mp.pi**4 / 90)) <= z4.error_bound


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
    assert rational_reconstruct(BigFloat(Fraction(1, 2), eps), 10) == Fraction(1, 2)
    third = BigFloat(Fraction(2**100 // 3, 2**100), eps)
    assert rational_reconstruct(third, 10) == Fraction(1, 3)
    assert rational_reconstruct(BigFloat(Fraction(2, 5), Fraction(1, 5)), 10) is None
    # a candidate is accepted within the exact bound, with no slack beyond it
    assert rational_reconstruct(BigFloat(Fraction(1, 2) + eps, eps), 10) == Fraction(1, 2)
    assert rational_reconstruct(BigFloat(Fraction(1, 2) + 2 * eps, eps), 10) is None


def test_audit_euler_k2():
    rep = audit_euler_constant(2, 1, 40)
    assert not rep.printed_constant_consistent
    assert rep.reconstructed == Fraction(-11, 2)
    assert abs(rep.residual_ratio.value + Fraction(11, 2)) <= rep.residual_ratio.error_bound


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
        lambda: audit_euler(2, 0),
        lambda: audit_euler_constant(2, 1, -2),
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
        lambda d: audit_euler_constant(2, 1, d),
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
        assert abs(residual.value - c) <= residual.error_bound


def test_audit_euler_evaluates_nothing_twice(monkeypatch):
    # one pass per K: every single zeta and every Euler-Maclaurin tail of the
    # audit is evaluated once, however many rows share it
    singles, tails = [], []
    zeta_single_orig, zeta_tail_orig = numerics._zeta_single, numerics._zeta_tail

    def counted_single(k, tables):
        singles.append((k, tables.digits))
        return zeta_single_orig(k, tables)

    def counted_tail(k, start, target, tables):
        tails.append((k, start, target, tables.bits))
        return zeta_tail_orig(k, start, target, tables)

    monkeypatch.setattr(numerics, "_zeta_single", counted_single)
    monkeypatch.setattr(numerics, "_zeta_tail", counted_tail)
    audit_euler(8, 40)
    # zeta(2..15) and zeta(17) at 40 digits; each row reads its zeta(2r) from
    # the same table as the products
    assert sorted(singles) == [(k, 40) for k in [*range(2, 16), 17]]
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
    # B_2J/(2J)! from the call's one table, which forms each on first use,
    # and none past the term cap: no B_2J is read twice
    tails, formed, tables = [], [], []
    reads = collections.Counter()
    zeta_tail_orig, get = numerics._zeta_tail, BernoulliCache.get

    def counted_get(self, n):
        reads[n] += 1
        return get(self, n)

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
    monkeypatch.setattr(BernoulliCache, "get", counted_get)
    run()
    assert reads and max(reads.values()) == 1
    assert tails and len(set(tails)) == len(tails)
    # and all in the call's one unit 2^-bits
    assert len({t[3] for t in tails}) == 1
    (table,) = tables
    assert formed == list(range(1, len(table._ratios) + 1))
    assert 0 < len(table._ratios) <= table.term_cap + 1


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

        def ratios(self):
            return (1 << (160 + 12 * (count - J)) for J in itertools.count(1))

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
        r = next(itertools.islice(numerics._EMTables(digits).ratios(), J - 1, None))
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
@pytest.mark.parametrize("k", [2, 3])
def test_single_contract_holds_past_a_fixed_term_cap(k, digits):
    # a tail needs about 0.37 digits derivative terms: a cap of 400 terms
    # missed the target from 1090 digits on
    z = zeta_single(k, digits)
    with mp.workdps(digits + 40):
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
        terms = list(table.rows[0].terms)
        terms[index] = terms[index]._replace(coeff=2 * terms[index].coeff)
        row = reductions.TableRow.from_terms(table.rows[0].target, terms)
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
    assert encloses(x.times(c, scale), c * point(x, t))


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
    [("0", 3, "0.0"), ("9.9996", 4, "10.0"), ("-0.000012345", 3, "-1.23e-5"), ("123456", 3, "1.23e+5")],
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
