"""Arbitrary-precision zeta evaluation with rigorous error bounds.

Public results are a :class:`BigFloat`: an exact dyadic value paired with
an absolute error bound that covers series truncation and accumulated
rounding.  The bound, not the precision, is the contract: the zeta engines
raise ``ValueError`` rather than return a bound above 10^-digits.

The zeta engine works in fixed point on Python ints.  A call for a
10^-digits target uses p = ceil((digits + 10) log2 10) + 64 bits: an int X
stands for X 2^-p, and 2^-p is the working unit.  Each term of the direct
sums is formed as one exact floor quotient, so it adds less than one
ulp, always downwards; a term of a derivative series counts its own ulps
(below).  The engine counts those ulps: the rounding part
of a bound is count 2^-p, not an allowance per operation.  Truncation
bounds are rounded up to whole ulps.  What is built from those values runs
on the same ints: Euler's formula for zeta(1, k), the audits' products,
A-weighted sums, residuals and ratios, and the H(n) = pi^2n/(2n+1)! of the
H(a,b) audit, taken from zeta(2n).  A product or quotient is one floor, so
one more ulp; a sum, or a multiple by an int, is exact.  A public result
is the engine's value and error read as exact Fractions X/2^p and E/2^p,
with no rounding, so its bound is exactly the engine's count; BigFloat
only holds such results.  Printing rounds the value half up to the
requested digits and the bound up to three significant digits, in
mpmath's ``nstr`` text form.

Single zeta tails use Euler-Maclaurin with the classical periodic-
Bernoulli remainder bound; a double zeta expands its inner partial sum
T(m) by the same machinery into a finite combination of single-zeta
tails.  A tail sum_{m >= start} m^-k carries its own scale, sized to its
own target.  The target is an int in units of 2^-(p + shift), shift =
(k - 1)(bitlen(start) - 1), a unit in which the tail's value would use the
whole p bits however small start^(1-k) is.  The tail is held only as
finely as its target needs: in units of 2^-q with q = p + shift - cut and
cut = min(shift, bitlen(target) - 65), at least 0.  That keeps 64 guard
bits below the target, and 2^-q is never coarser than 2^-p.  A folded
tail is then multiplied by its expansion coefficient before it drops to
2^-p, and the coefficient scales an ulp error that is 2^(shift - cut)
times smaller.  A tail's derivative terms and the T(m) expansion are both
series sum_J rho_J x_J, summed by one loop, ``_derivative_sum``:

- rho_J = B_2J/(2J)!, about 2/(2 pi)^(2J), is floored once per J per call
  to r_J in units of 2^-(p + 64), shared by every series of the call.  A
  tail floors r_J cut bits coarser again, but never coarser than units of
  1: the floor of a floor is still within one of its units;
- the caller's generator reads r_J from the table and gives it with x_J,
  an int x within e of x_J, and the shift drop into its units.  A tail's
  x_J is d_J = (k)_{2J-1} start^(1-k-2J), held in units of 2^-(q + 16)
  and carried by d_{J+1} = floor(d_J f_J) with f_J = (k+2J-1)(k+2J)/start^2,
  one multiply and one divide by word-sized ints, so e_1 = 1 and
  e_{J+1} = ceil(e_J f_J) + 1 (f_J may exceed 1: at start 17 and k = 40).

Term J is floor(r_J x / 2^drop), within ceil(((|r_J| + 1) e + |x|) /
2^drop) + 1 ulps of rho_J x_J.  Terms 1..J-1 are added until the
remainder bound, twice |term J| plus twice that count, meets the target,
stops falling (the series is asymptotic), or J passes the one term cap.

Every public function runs at one working precision and builds one
:class:`_EMTables` for it, with its own :class:`BernoulliCache`, and drops
it on return; the module keeps no state between calls.  The table fixes
every size of the call before any work: its digits, bits p, truncation
target, direct-sum lengths and the term cap.  It memoises what the
evaluations of one call share: the ratios rho_J, the tails and the single
zetas.  A memoised value is a function of its key alone, so sharing
changes no value or bound.  A double zeta reads zeta(k1) from the table too.

The Euler audit runs one pass per K: every row r = 1..K-1 of weight 2K+1
uses the same single zetas, products and zeta(2K+1), so they are evaluated
once, and row r's zeta(2r) is the one its products use.  The outer tails
that the T(m) expansion of zeta(k1, k2) folds into, sums over m > M of
m^-e with e = w - 1, w, w + 1, w + 3, ..., depend on the weight w only,
so every row reads them from the call's table.  Term J of the expansion
is rho_J (k1)_{2J-1} t_J, with t_J the tail of e = w + 2J - 1: a
derivative series with x_J = (k1)_{2J-1} t_J and the call's target.  Each
t_J is evaluated to the target divided by (|r_J| + 1) (w-2)_{2J-1}
2^-(p + 64), a bound on the coefficient that any k1 of the weight gives
it, so its target, too, depends on the weight only.  The table takes
that coefficient as two ints, (|r_J| + 1) (w-2)_{2J-1} and 2^(p + 64),
and forms the tail's target from them with one floor quotient, memo hits
included, and no Fraction.

The audits accept every digits >= 1, as the zeta functions do, and have no
floor of their own.  A residual's bound covers its true error at any
precision, and ``rational_reconstruct`` returns None unless the bound
names one constant, so a low precision gives a coarser report, never a
wrong one.  No floor on digits could promise a reconstruction either: the
residual's bound grows with K (at K = 30 and 10 digits it is about 2e-4).
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

from .bernoulli import BernoulliCache
from .matrices import _check_k, _check_row, build_a
from .rationals import format_rational
from .reductions import PRINTED_CONSTANT, h_ab_coefficients

__all__ = [
    "BigFloat",
    "zeta_single",
    "zeta_double",
    "rational_reconstruct",
    "AuditReport",
    "audit_euler",
    "audit_euler_constant",
    "HAuditReport",
    "audit_h_ab",
]


def _checked(x: _Fixed, digits: int, label: str) -> BigFloat:
    """x as a BigFloat, or ValueError if its bound misses the 10^-digits
    contract."""
    out = x.to_bigfloat()
    if x.error * 10**digits > 1 << x.scale:
        raise ValueError(
            f"{label}: error bound {_nstr(out.error_bound, 3, round_up=True)} "
            f"misses the target 1e-{digits}"
        )
    return out


def _nstr(x: Fraction, digits: int, round_up: bool = False) -> str:
    """x to ``digits`` significant digits, as mpmath's ``nstr`` prints it.

    As mpmath does, |x| is floored to digits + 3 significant digits and
    rounded half up at ``digits``; with ``round_up`` it is rounded up at
    ``digits`` instead, so a printed bound never understates.  The text is
    fixed-point while the exponent of the leading digit lies strictly
    between min(-(digits // 3), -5) and digits, with trailing zeros
    stripped, and ``d.ddde-n`` otherwise.
    """
    if not x:
        return "0.0"
    p, q = abs(x.numerator), x.denominator

    def scaled(k: int) -> tuple[int, int]:  # |x| 10^k as (floor, remainder)
        return divmod(p * 10**k, q) if k >= 0 else divmod(p, q * 10**-k)

    # 10^e <= |x| < 10^(e+1); the bit lengths give e to within one
    e = math.floor((p.bit_length() - q.bit_length()) * math.log10(2))
    while scaled(-e)[0] < 1:
        e -= 1
    while scaled(-e - 1)[0] >= 1:
        e += 1
    if round_up:
        n, rest = scaled(digits - 1 - e)
        n += rest != 0
    else:
        n = (scaled(digits + 2 - e)[0] + 500) // 1000
    if n == 10**digits:
        n //= 10
        e += 1
    text = format_rational(n)
    if min(-(digits // 3), -5) < e < digits:
        if e < 0:
            text = "0" * -e + text
        split, e = max(e, 0) + 1, 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    text = ("-" if x < 0 else "") + text + ("0" if text.endswith(".") else "")
    return text if e == 0 else f"{text}e{e:+d}"


class BigFloat(NamedTuple("BigFloat", [("value", Fraction), ("error_bound", Fraction)])):
    """An exact dyadic value with a conservative absolute error bound: the
    true value lies within error_bound of value."""

    __slots__ = ()

    def __new__(cls, value: Fraction, error_bound: Fraction) -> BigFloat:
        if error_bound < 0:
            raise ValueError("error bound must be >= 0")
        return super().__new__(cls, Fraction(value), Fraction(error_bound))

    def to_string(self, digits: int) -> str:
        return f"{_nstr(self.value, digits)} ± {_nstr(self.error_bound, 3, round_up=True)}"


class _Fixed(NamedTuple):
    """A value of the int engine: the true value is within error * 2^-scale
    of value * 2^-scale.

    Sums and differences take operands of one scale and are exact.  A
    product or a quotient is in the units of its left operand, with one
    floor, so one more ulp.
    """

    value: int
    error: int
    scale: int

    def __add__(self, other: _Fixed) -> _Fixed:
        assert other.scale == self.scale
        return _Fixed(self.value + other.value, self.error + other.error, self.scale)

    def __sub__(self, other: _Fixed) -> _Fixed:
        assert other.scale == self.scale
        return _Fixed(self.value - other.value, self.error + other.error, self.scale)

    def __mul__(self, other: _Fixed) -> _Fixed:
        # |xy - XY| <= |X| e_y + |Y| e_x + e_x e_y, in units of
        # 2^-(scale + other.scale), rounded up to this value's units
        spread = (
            abs(self.value) * other.error
            + abs(other.value) * self.error
            + self.error * other.error
        )
        return _Fixed(
            self.value * other.value >> other.scale,
            -(-spread >> other.scale) + 1,
            self.scale,
        )

    def __truediv__(self, other: _Fixed) -> _Fixed:
        # |x/y - X/Y| <= (|X| e_y + |Y| e_x) / (|Y| (|Y| - e_y)) when the
        # divisor's interval excludes 0
        y = abs(other.value)
        if y <= other.error:
            raise ZeroDivisionError("divisor interval contains zero")
        spread = (abs(self.value) * other.error + y * self.error) << other.scale
        return _Fixed(
            (self.value << other.scale) // other.value,
            -(-spread // (y * (y - other.error))) + 1,
            self.scale,
        )

    def times(self, num: int, scale: int, den: int = 1) -> _Fixed:
        """num/den times this value in units of 2^-scale, for den > 0 and
        scale <= self.scale.

        One floor quotient, so one more ulp unless it is exact, as for
        den = 1 at the same scale; num/den scales the error while it is
        still in the finer units.  The floor and the rounded-up error depend
        on the value num/den only, so it need not be in lowest terms.
        """
        den <<= self.scale - scale
        value, rest = divmod(num * self.value, den)
        return _Fixed(value, -(-abs(num) * self.error // den) + (rest != 0), scale)

    def to_bigfloat(self) -> BigFloat:
        """This value and its error as exact Fractions: nothing is rounded."""
        unit = 1 << self.scale
        return BigFloat(Fraction(self.value, unit), Fraction(self.error, unit))


def _tail_shift(k: int, start: int) -> int:
    # start^(1-k) <= 2^-shift: the extra scale of the tail of exponent k
    return (k - 1) * (start.bit_length() - 1)


# the largest digits whose bit count ceil((digits + 10) log2 10) + 64 is
# within sys.maxsize, the most bits of an int (10^30 log2 10, rounded up)
_MAX_DIGITS = (sys.maxsize - 64) * 10**30 // 3321928094887362347870319429490 - 10


class _EMTables:
    """Values shared by the direct sums and tails of one public call.

    A public function creates one, passes it down, and drops it on return.
    The table holds the call's digits, the engine's bits p (its unit is
    2^-p), the truncation target 10^-(digits+10), the direct-sum lengths
    and the term cap: every size of the call, fixed before any work.
    """

    def __init__(self, digits: int) -> None:
        # every public function builds its table before any work: this is
        # the one check of digits
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if digits > _MAX_DIGITS:
            raise ValueError("digits is too large: its bit count passes sys.maxsize")
        self.bits = math.ceil((digits + 10) * math.log2(10)) + 64
        self.digits = digits
        self._ten = 10 ** (digits + 10)
        # the absolute target of each truncation term, in units of 2^-bits
        self.target = (1 << self.bits) // self._ten
        # Euler-Maclaurin converges once 2*pi*M exceeds the term count;
        # M near the digit count keeps both the direct sum and J small.
        self.cutoff = max(16, digits)
        # the direct-sum length of a double zeta
        self.double_cutoff = max(self.cutoff, 2 * digits)
        # the last term J of a derivative series.  From start M >= digits, term J
        # falls roughly as (2J/(2 pi e M))^(2J), so a 10^-digits target needs
        # J near 0.37 digits: a cap of 400 alone would bite near 1090 digits.
        self.term_cap = max(400, digits)
        self.bernoulli = BernoulliCache()
        # the unit of the ratios rho_J, 64 bits finer than the working unit
        self.ratio_bits = self.bits + 64
        self._ratios: list[int] = []
        self._tails: dict[tuple[int, int, int], _Fixed] = {}
        self._fixed: dict[int, _Fixed] = {}

    def ratios(self) -> Iterator[int]:
        """rho_J = B_2J/(2J)! floored in units of 2^-ratio_bits, J = 1, 2, ...

        Each is formed on first use and kept for the call.  |rho_J| is about
        2/(2 pi)^(2J); each derivative term counts the floor's error of one
        unit in its rounding.
        """
        for J in itertools.count(1):
            if J > len(self._ratios):
                b = self.bernoulli.get(2 * J)
                self._ratios.append(
                    (b.numerator << self.ratio_bits) // (b.denominator * math.factorial(2 * J))
                )
            yield self._ratios[J - 1]

    def tail(self, k: int, start: int, num: int = 1, den: int = 1) -> _Fixed:
        """_zeta_tail(k, start, target): its truncation times the coefficient
        num/den stays within the target; a coefficient below 1 counts as 1.

        The target is the floor of 2^(bits+shift) den / (10^(digits+10) num),
        the truncation target in units of 2^-(bits+shift), taken from the
        exact ints with no Fraction.  The memo is keyed on it, so tails whose
        coefficients give the same target are one evaluation.  The tail
        comes back in the units its target sizes (``_zeta_tail``), never
        coarser than 2^-bits.
        """
        if num <= den:
            num = den = 1
        target = (den << (self.bits + _tail_shift(k, start))) // (self._ten * num)
        key = (k, start, target)
        if key not in self._tails:
            self._tails[key] = _zeta_tail(k, start, target, self)
        return self._tails[key]

    def zeta_fixed(self, k: int) -> _Fixed:
        """zeta(k) in units of 2^-bits."""
        if k not in self._fixed:
            self._fixed[k] = _zeta_single(k, self)
        return self._fixed[k]


# guard bits of the tails' derivative factors d_J
_GUARD = 16
# the factors (r, x, e, drop) of a derivative series, J = 1, 2, ...
_Factors = Iterator[tuple[int, int, int, int]]


def _derivative_sum(factors: _Factors, target: int, tables: _EMTables) -> tuple[int, int, int]:
    """sum_J rho_J x_J, J = 1, 2, ..., in the caller's units (see above).

    (r_J, x, e, drop) is read from ``factors``, r_J from the table's ratios.
    Term J is floor(r_J x / 2^drop), counted as within
    ceil(((|r_J| + 1) e + |x|) / 2^drop) + 1 ulps; the loop stops at the
    first J whose remainder bound meets ``target``, stops falling or passes
    the table's term cap.  Returns the sum of terms 1..J-1, that remainder
    bound and the counted rounding of those terms.
    """
    value = ulps = 0
    prev_bound = math.inf
    for J, (r, x, e, drop) in enumerate(factors, start=1):
        term = r * x >> drop
        rounding = -(-((abs(r) + 1) * e + abs(x)) >> drop) + 1
        bound = 2 * (abs(term) + rounding)
        if bound <= target or bound >= prev_bound or J > tables.term_cap:
            return value, bound, ulps
        value += term
        ulps += rounding
        prev_bound = bound
    raise AssertionError("a derivative series ran out of factors")


def _tail_factors(k: int, start: int, scale: int, tables: _EMTables) -> _Factors:
    """r_J and d_J = (k)_{2J-1} start^(1-k-2J) within e_J, J = 1, 2, ...,
    carried by d_{J+1} = floor(d_J f_J) as above, for the derivative terms
    rho_J d_J of sum_{m >= start} m^-k in units of 2^-scale.

    A scale cut bits coarser than bits + shift floors r_J cut bits coarser
    too, but never coarser than units of 1; r_J is still within one unit.
    """
    square = start * start
    cut = min(tables.bits + _tail_shift(k, start) - scale, tables.ratio_bits)
    drop = tables.ratio_bits - cut + _GUARD  # r d >> drop is in units of 2^-scale
    d, e = (k << (scale + _GUARD)) // start ** (k + 1), 1
    for J, r in enumerate(tables.ratios(), start=1):
        yield r >> cut, d, e, drop
        f = (k + 2 * J - 1) * (k + 2 * J)
        d, e = d * f // square, -(-e * f // square) + 1


def _zeta_tail(k: int, start: int, target: int, tables: _EMTables) -> _Fixed:
    """sum_{m >= start} m^{-k} by Euler-Maclaurin, with ``target`` in units of
    2^-(bits+shift): the derivative series' remainder bound is the
    periodic-Bernoulli 2|B_{2J}|/(2J)! int |f^(2J)|.

    The tail is held in units of 2^-(bits+shift-cut), cut = min(shift,
    bitlen(target) - 65) and at least 0: 64 guard bits below its target,
    and never coarser than the working unit 2^-bits.
    """
    shift = _tail_shift(k, start)
    cut = max(0, min(shift, target.bit_length() - 65))
    scale = tables.bits + shift - cut
    one = 1 << scale
    power = start ** (k - 1)
    factors = _tail_factors(k, start, scale, tables)
    value, bound, ulps = _derivative_sum(factors, target >> cut, tables)
    value += one // ((k - 1) * power) + one // (2 * power * start)
    return _Fixed(value, bound + ulps + 2, scale)


def zeta_single(k: int, digits: int = 30) -> BigFloat:
    """Riemann zeta at an integer k >= 2, |error| <= 10^-digits."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return _checked(_EMTables(digits).zeta_fixed(k), digits, f"zeta({k})")


def _zeta_single(k: int, tables: _EMTables) -> _Fixed:
    bits = tables.bits
    M = tables.cutoff
    one = 1 << bits
    # m = 1..M-1, each floor quotient one ulp at most
    partial = sum(one // m**k for m in range(1, M))
    tail = tables.tail(k, M).times(1, bits)
    return _Fixed(partial + tail.value, M - 1 + tail.error, bits)


def zeta_double(k1: int, k2: int, digits: int = 30) -> BigFloat:
    """Double zeta sum_{j < m} j^{-k1} m^{-k2}, |error| <= 10^-digits.

    Requires k2 >= 2 (convergence of the outer sum).  For k1 >= 2 the outer
    tail is written as zeta(k1) * tail(k2) minus sum_{m > M} m^{-k2} T(m)
    with T(m) = sum_{j >= m} j^{-k1}; T is expanded by Euler-Maclaurin into
    powers of m, so the correction is again a sum of single-zeta tails.
    k1 = 1 is evaluated by Euler's formula instead.
    """
    if k2 < 2:
        raise ValueError(f"k2 must be >= 2, got {k2}")
    if k1 < 1:
        raise ValueError(f"k1 must be >= 1, got {k1}")
    tables = _EMTables(digits)
    x = _zeta_one(k2, tables) if k1 == 1 else _zeta_double(k1, k2, tables)
    return _checked(x, digits, f"zeta({k1},{k2})")


def _zeta_double(k1: int, k2: int, tables: _EMTables) -> _Fixed:
    """zeta_double for k1 >= 2, its outer tails and zeta(k1) from ``tables``.

    The outer tails start at M + 1 and their targets depend on the weight
    w = k1 + k2 and digits only, so evaluations of one weight that share
    the table reuse every tail of the T(m) expansion.
    """
    bits = tables.bits
    M = tables.double_cutoff
    w = k1 + k2
    one = 1 << bits

    # direct part: m = 2..M with incremental inner partial sums.  The inner
    # sum is below the truth by < m - 1 ulps, which m^-k2 shrinks below one,
    # and the quotient adds one more: < 2 ulps per m.
    inner = direct = 0
    for m in range(2, M + 1):
        inner += one // (m - 1) ** k1
        direct += inner // m**k2
    result = _Fixed(direct, 2 * (M - 1), bits)

    # zeta(k1) * tail(k2), with the tail's error still in its finer units
    result += tables.zeta_fixed(k1) * tables.tail(k2, M + 1)

    # Euler-Maclaurin expansion of T(m) = sum_{j>=m} j^{-k1} in powers
    # of 1/m; each power m^-(k1+alpha) folds into the outer tail of
    # exponent w + alpha.  The leading two terms come first.
    result -= tables.tail(w - 1, M + 1).times(1, bits, k1 - 1)
    result -= tables.tail(w, M + 1).times(1, bits, 2)
    # Term J is rho_J (k1)_{2J-1} m^-(k1+2J-1), and the remainder of T(m)
    # after terms 1..J-1 is at most twice it, which sums over m > M to twice
    # rho_J (k1)_{2J-1} t_J, t_J the outer tail of exponent w + 2J - 1: the
    # derivative series of x_J = (k1)_{2J-1} t_J, summed as a tail's is.
    value, bound, ulps = _derivative_sum(_folded_tails(k1, w, tables), tables.target, tables)
    return _Fixed(result.value - value, result.error + bound + ulps, bits)


def _folded_tails(k1: int, w: int, tables: _EMTables) -> _Factors:
    """r_J and (k1)_{2J-1} t_J, J = 1, 2, ..., with the drop that puts r_J
    times it in units of 2^-bits.  (|r_J| + 1)(w-2)_{2J-1} bounds every
    coefficient of the weight (k2 >= 2), so tail targets ignore k1."""
    rise, rise_max = k1, w - 2  # (k)_{2J-1} = k (k+1) ... (k+2J-2)
    one = 1 << tables.ratio_bits
    for J, r in enumerate(tables.ratios(), start=1):
        coefficient = (abs(r) + 1) * rise_max
        t = tables.tail(w + 2 * J - 1, tables.double_cutoff + 1, coefficient, one)
        yield r, rise * t.value, rise * t.error, tables.ratio_bits + t.scale - tables.bits
        rise *= (k1 + 2 * J - 1) * (k1 + 2 * J)
        rise_max *= (w + 2 * J - 3) * (w + 2 * J - 2)


def _zeta_one(k: int, tables: _EMTables) -> _Fixed:
    """zeta(1, k) = (k zeta(k+1) - sum_{j=1}^{k-2} zeta(j+1) zeta(k-j)) / 2."""
    z = tables.zeta_fixed
    total = z(k + 1).times(k, tables.bits)
    for j in range(1, k - 1):
        total -= z(j + 1) * z(k - j)
    return total.times(1, tables.bits, 2)


def rational_reconstruct(x: BigFloat, max_denominator: int = 64) -> Fraction | None:
    """The unique p/q with q <= max_denominator inside the error interval.

    Distinct rationals with denominators <= D differ by at least 1/D^2,
    so a candidate is unique whenever the interval is shorter than that.
    Returns None when no candidate fits or uniqueness cannot be shown.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    if 2 * x.error_bound >= Fraction(1, max_denominator * max_denominator):
        return None
    candidate = x.value.limit_denominator(max_denominator)
    return candidate if abs(candidate - x.value) <= x.error_bound else None


class AuditReport(NamedTuple):
    """Numeric audit of one row of the Euler odd-weight reduction."""

    K: int
    r: int
    digits: int
    lhs: BigFloat
    rhs_products: BigFloat
    residual_ratio: BigFloat
    reconstructed: Fraction | None
    printed_constant_consistent: bool


def audit_euler(K: int, digits: int = 40) -> list[AuditReport]:
    """audit_euler_constant for every row r = 1..K-1, in one pass over K."""
    return _audit_rows(K, range(1, K), digits)


def audit_euler_constant(K: int, r: int, digits: int = 40) -> AuditReport:
    """Compare zeta(2r, 2K+1-2r) against the A-weighted product sum.

    residual_ratio = (lhs - sum_s A_{r,s} products_s) / zeta(2K+1); the
    printed constant is consistent iff reductions.PRINTED_CONSTANT (-1/2)
    lies within the residual's error bound.  Disagreement is reported,
    never raised.
    """
    return _audit_rows(K, [r], digits)[0]


def _audit_rows(K: int, rows: Sequence[int], digits: int) -> list[AuditReport]:
    # A, the single zetas, the products and zeta(2K+1) are shared by every
    # row; so are the outer tails, since every row has weight 2K+1.
    _check_k(K)
    for r in rows:
        _check_row(K, r)
    tables = _EMTables(digits)
    bits = tables.bits
    z = tables.zeta_fixed
    a = build_a(K).numerators
    products = [z(2 * s) * z(2 * K + 1 - 2 * s) for s in range(1, K)]
    z_odd = z(2 * K + 1)
    printed = PRINTED_CONSTANT * (1 << bits)  # in units of 2^-bits
    reports = []
    for r in rows:
        k1, k2 = 2 * r, 2 * K + 1 - 2 * r
        lhs = _zeta_double(k1, k2, tables)
        # the entries of A are ints, so the weighted sum is exact
        rhs = sum(
            (p.times(c, bits) for p, c in zip(products, a[r - 1])),
            _Fixed(0, 0, bits),
        )
        residual = (lhs - rhs) / z_odd
        residual_ratio = residual.to_bigfloat()
        consistent = abs(residual.value - printed) <= residual.error
        reports.append(
            AuditReport(
                K=K,
                r=r,
                digits=digits,
                lhs=_checked(lhs, digits, f"zeta({k1},{k2})"),
                rhs_products=rhs.to_bigfloat(),
                residual_ratio=residual_ratio,
                reconstructed=rational_reconstruct(residual_ratio),
                printed_constant_consistent=consistent,
            )
        )
    return reports


class HAuditReport(NamedTuple):
    """Numeric audit of the H(a,b) odd-zeta expansion."""

    a: int
    b: int
    digits: int
    formula_value: BigFloat
    direct_value: BigFloat
    abs_difference: Fraction
    agrees_within_bounds: bool


def audit_h_ab(a: int, b: int, digits: int = 30) -> HAuditReport:
    """Check the H(a,b) coefficient formula against direct summation.

    Supported scope: (a, b) in {(0,0), (1,0), (0,1)} - the depth-1 and
    depth-2 targets zeta(3), zeta(2,3), zeta(3,2).  Deeper targets would
    need an independent depth >= 3 summation engine and are rejected.
    For (0, 0) both sides are the same zeta(3) from the call's table (the
    formula is H(0) = 1 times it), so ``abs_difference`` is exactly 0 and
    that audit cannot fail on its numbers: it checks only the coefficient
    table (one H(0)*zeta(3) term with coefficient 1), never the summation.
    """
    supported = {(0, 0), (1, 0), (0, 1)}
    if (a, b) not in supported:
        raise ValueError(f"(a, b) must be one of {sorted(supported)}, got ({a}, {b})")
    tables = _EMTables(digits)
    bits = tables.bits
    K = a + b + 1
    formula = _Fixed(0, 0, bits)
    row = h_ab_coefficients(a, b).rows[0]
    for r, x in enumerate(row.numerators, start=1):
        h = _h(K - r, tables) * tables.zeta_fixed(2 * r + 1)
        formula += h.times(x, bits, row.denominator)

    if (a, b) == (0, 0):
        direct, label = tables.zeta_fixed(3), "zeta(3)"
    elif (a, b) == (1, 0):
        direct, label = _zeta_double(2, 3, tables), "zeta(2,3)"
    else:
        direct, label = _zeta_double(3, 2, tables), "zeta(3,2)"

    diff = abs(formula.value - direct.value)
    return HAuditReport(
        a=a,
        b=b,
        digits=digits,
        formula_value=formula.to_bigfloat(),
        direct_value=_checked(direct, digits, label),
        abs_difference=Fraction(diff, 1 << bits),
        agrees_within_bounds=diff <= formula.error + direct.error,
    )


def _h(n: int, tables: _EMTables) -> _Fixed:
    """H(n) = pi^2n/(2n+1)! = 2 zeta(2n)/(|B_2n| 4^n (2n+1)), and H(0) = 1."""
    if n == 0:
        return _Fixed(1 << tables.bits, 0, tables.bits)
    b = abs(tables.bernoulli.get(2 * n))
    return tables.zeta_fixed(2 * n).times(
        2 * b.denominator, tables.bits, (b.numerator << 2 * n) * (2 * n + 1)
    )
