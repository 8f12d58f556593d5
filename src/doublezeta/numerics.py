"""Arbitrary-precision zeta evaluation with rigorous error bounds.

Values are carried as a :class:`BigFloat`: an mpmath float paired with
an absolute error bound that covers series truncation and accumulated
rounding.  The bound, not the precision, is the contract: every
arithmetic helper propagates bounds conservatively, and the zeta engines
raise ``ValueError`` rather than return a bound above 10^-digits.

Rounding is charged relative to the magnitudes involved (8 eps per
operation), never as an absolute eps, so a value scaled by a huge
coefficient does not inflate the bound.  That makes a working precision of
digits plus a small guard enough: the guard covers the M + J + 16
roundings of a double zeta (direct terms, T-expansion terms and the final
combination), each of relative size 8 eps.

Single zeta tails use Euler-Maclaurin with the classical periodic-
Bernoulli remainder bound; double zeta tails expand the inner partial
sum by the same machinery, reducing the outer tail to a finite
combination of single-zeta tails plus a rigorously bounded remainder.

Every public function runs at one working precision and builds one
:class:`_EMTables` for it, with its own :class:`BernoulliCache`, and drops
it on return; the module keeps no state between calls.  The table holds
the call's digits and truncation target and memoises what the evaluations
of one call share: the powers m^n of the direct sums and of each tail
start, the ratios B_2J/(2J)!, the tails themselves and the single zetas.
A memoised value is the same mpf operation at the same precision as the
one it replaces, so sharing changes no bit of any value or bound.  A
double zeta reads zeta(k1) from the table too.

The Euler audit runs one pass per K: every row r = 1..K-1 of weight 2K+1
uses the same single zetas, products and zeta(2K+1), so they are evaluated
once, and row r's zeta(2r) is the one its products use.  The outer tails
that the T(m) expansion of zeta(k1, k2) folds into are sums over m > M of
m^-(k2+alpha) with k2 + alpha running over k1 + k2 - 1, k1 + k2, ..., so
they depend on the weight only; every row reads them from the call's
table.  Each folded tail is evaluated to the target divided by its
coefficient, and the coefficient taken is the largest that any k1 of the
weight gives to that exponent, so the target, too, depends on the weight
only.  The T(m) expansion stops as soon as its remainder meets the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp, mpf

from .bernoulli import BernoulliCache
from .matrices import _check_k, build_a
from .reductions import PRINTED_CONSTANT, h_ab_coefficients, h_value

__all__ = [
    "BigFloat",
    "zeta_single",
    "zeta_double",
    "pi_value",
    "rational_reconstruct",
    "AuditReport",
    "audit_euler",
    "audit_euler_constant",
    "HAuditReport",
    "audit_h_ab",
]


def _slack(x) -> mpf:
    # generous rounding allowance for one operation on magnitude |x| at the
    # current precision; relative, so it scales with the value it covers
    return abs(x) * mp.eps * 8


def _work_dps(digits: int) -> int:
    """The working precision for a 10^-digits target: digits plus a guard.

    A double zeta rounds M + J + 16 times (M = 2 digits, J <= digits), each
    charged 8 eps relative; the guard keeps that total below 10^-(digits+1)
    for values up to 10 in magnitude (eps is about 2 * 10^-(dps+1)).  Every
    public function calls this before any work: it is the one check that
    digits >= 1.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return digits + len(str(160 * (_double_cutoff(digits) + digits + 16)))


def _checked(x: BigFloat, digits: int, label: str) -> BigFloat:
    """x, or ValueError if its bound misses the 10^-digits contract."""
    if not x.error_bound <= mpf(10) ** -digits:
        raise ValueError(
            f"{label}: error bound {mp.nstr(x.error_bound, 3)} misses the "
            f"target 1e-{digits}"
        )
    return x


@dataclass(frozen=True)
class BigFloat:
    """Arbitrary-precision value with a conservative absolute error bound."""

    value: mpf
    error_bound: mpf

    def __post_init__(self) -> None:
        if not mp.isfinite(self.value):
            raise ValueError("value must be finite")
        if not (mp.isfinite(self.error_bound) and self.error_bound >= 0):
            raise ValueError("error bound must be finite and >= 0")

    def __add__(self, other: BigFloat) -> BigFloat:
        return self._sum(self.value + other.value, other)

    def __sub__(self, other: BigFloat) -> BigFloat:
        return self._sum(self.value - other.value, other)

    def _sum(self, v: mpf, other: BigFloat) -> BigFloat:
        # rounding charged on |a| + |b|, so cancellation in v stays covered
        slack = _slack(abs(self.value) + abs(other.value))
        return BigFloat(v, self.error_bound + other.error_bound + slack)

    def __mul__(self, other: BigFloat) -> BigFloat:
        v = self.value * other.value
        e = (
            abs(self.value) * other.error_bound
            + abs(other.value) * self.error_bound
            + self.error_bound * other.error_bound
            + _slack(v)
        )
        return BigFloat(v, e)

    def __truediv__(self, other: BigFloat) -> BigFloat:
        denom = abs(other.value) - other.error_bound
        if not denom > 0:
            raise ZeroDivisionError("divisor interval contains zero")
        v = self.value / other.value
        e = (abs(self.value) * other.error_bound + abs(other.value) * self.error_bound) / (
            abs(other.value) * denom
        ) + _slack(v)
        return BigFloat(v, e)

    def scale(self, c: Fraction | int) -> BigFloat:
        """Multiply by an exact rational (no extra error beyond rounding)."""
        cf = mpf(c.numerator) / mpf(c.denominator) if isinstance(c, Fraction) else mpf(c)
        exact = isinstance(c, int) or c.denominator == 1
        v = self.value * cf
        extra = 0 if exact else _slack(v)
        return BigFloat(v, abs(cf) * self.error_bound + _slack(v) + extra)

    def to_string(self, digits: int) -> str:
        return f"{mp.nstr(self.value, digits)} ± {mp.nstr(self.error_bound, 3)}"


# The two mpf values that _EMTables memoises by their arguments, each
# formed only here (the tests count these calls).
def _power(start: int, n: int) -> mpf:
    return mpf(start) ** n


def _bernoulli_ratio(b: Fraction, n: int) -> mpf:
    # B_n / n! for b = B_n
    return mpf(b.numerator) / mpf(b.denominator) / mpf(math.factorial(n))


class _EMTables:
    """Values shared by the direct sums and tails of one public call.

    A public function creates one inside its working precision, passes it
    down, and drops it on return.  The table owns that precision: it holds
    the call's digits and truncation target, and its memos are valid only
    at the precision it was built at.
    """

    def __init__(self, digits: int) -> None:
        self.digits = digits
        # the absolute target of each truncation term
        self.target = mpf(10) ** (-(digits + 10))
        self.bernoulli = BernoulliCache()
        self._powers: dict[tuple[int, int], mpf] = {}
        self._ratios: dict[int, mpf] = {}
        self._tails: dict[tuple[int, int, mpf], tuple[mpf, mpf]] = {}
        self._zetas: dict[int, BigFloat] = {}

    def power(self, start: int, n: int) -> mpf:
        """mpf(start) ** n."""
        key = (start, n)
        value = self._powers.get(key)
        if value is None:
            value = self._powers[key] = _power(start, n)
        return value

    def ratio(self, n: int) -> mpf:
        """B_n / n!."""
        value = self._ratios.get(n)
        if value is None:
            value = self._ratios[n] = _bernoulli_ratio(self.bernoulli.get(n), n)
        return value

    def tail(self, k: int, start: int, target: mpf) -> tuple[mpf, mpf]:
        """_zeta_tail(k, start, target)."""
        key = (k, start, target)
        if key not in self._tails:
            self._tails[key] = _zeta_tail(k, start, target, self)
        return self._tails[key]

    def zeta(self, k: int) -> BigFloat:
        """zeta(k) within 10^-digits."""
        if k not in self._zetas:
            self._zetas[k] = _zeta_single(k, self)
        return self._zetas[k]


def _zeta_tail(
    k: int, start: int, target: mpf, tables: _EMTables
) -> tuple[mpf, mpf]:
    """sum_{m >= start} m^{-k} by Euler-Maclaurin, with remainder bound.

    Derivative terms j = 1..J-1 are added until the periodic-Bernoulli
    remainder bound 2|B_{2J}|/(2J)! * int |f^(2J)| drops below target
    (or stops improving; the asymptotic series eventually diverges).
    """
    tail = tables.power(start, 1 - k) / (k - 1) + tables.power(start, -k) / 2
    prev_bound = mpf("inf")
    rising = k  # the rising factorial (k)_{2J-1} = k (k+1) ... (k+2J-2)
    J = 1
    while True:
        ratio = tables.ratio(2 * J)
        power = tables.power(start, 1 - k - 2 * J)
        rising_next = rising * (k + 2 * J - 1)  # (k)_{2J}
        # remainder bound valid for the state with terms j = 1..J-1 included
        bound = 2 * abs(ratio) * rising_next * power / (k + 2 * J - 1)
        if bound <= target or bound >= prev_bound or J > 400:
            return tail, bound + _slack(tail) * (J + 4)
        tail += ratio * rising * power
        prev_bound = bound
        rising = rising_next * (k + 2 * J)
        J += 1


def _choose_cutoff(digits: int) -> int:
    # Euler-Maclaurin converges once 2*pi*M exceeds the term count;
    # M near the digit count keeps both the direct sum and J small.
    return max(16, digits)


def _double_cutoff(digits: int) -> int:
    # the direct-sum length of a double zeta
    return max(_choose_cutoff(digits), 2 * digits)


def zeta_single(k: int, digits: int = 30) -> BigFloat:
    """Riemann zeta at an integer k >= 2, |error| <= 10^-digits."""
    if k < 2:
        raise ValueError(f"zeta_single requires k >= 2, got {k}")
    with mp.workdps(_work_dps(digits)):
        return _zeta_single(k, _EMTables(digits))


def _zeta_single(k: int, tables: _EMTables) -> BigFloat:
    M = _choose_cutoff(tables.digits)
    partial = mpf(0)
    for m in range(1, M):
        partial += tables.power(m, -k)
    tail, bound = tables.tail(k, M, tables.target)
    value = partial + tail
    err = bound + _slack(value) * (M + 4)
    return _checked(BigFloat(value, err), tables.digits, f"zeta({k})")


def zeta_double(k1: int, k2: int, digits: int = 30) -> BigFloat:
    """Double zeta sum_{j < m} j^{-k1} m^{-k2}, |error| <= 10^-digits.

    Requires k2 >= 2 (convergence of the outer sum).  For k1 >= 2 the outer
    tail is written as zeta(k1) * tail(k2) minus sum_{m > M} m^{-k2} T(m)
    with T(m) = sum_{j >= m} j^{-k1}; T is expanded by Euler-Maclaurin into
    powers of m, so the correction is again a sum of single-zeta tails.
    k1 = 1 is evaluated by Euler's formula instead.
    """
    if k2 < 2:
        raise ValueError(f"zeta_double requires k2 >= 2, got k2={k2}")
    if k1 < 1:
        raise ValueError(f"zeta_double requires k1 >= 1, got k1={k1}")
    dps = _work_dps(digits)  # checked here: _zeta_one's digits + 5 would pass 0
    if k1 == 1:
        return _zeta_one(k2, digits)
    with mp.workdps(dps):
        return _zeta_double(k1, k2, _EMTables(digits))


def _zeta_double(k1: int, k2: int, tables: _EMTables) -> BigFloat:
    """zeta_double for k1 >= 2, its outer tails and zeta(k1) from ``tables``.

    The outer tails start at M + 1 and their targets depend on the weight
    w = k1 + k2 and digits only, so evaluations of one weight that share
    the table reuse every tail of the T(m) expansion.
    """
    digits, target = tables.digits, tables.target
    M = _double_cutoff(digits)
    w = k1 + k2

    def outer_tail(exponent: int, coefficient: mpf = 1) -> tuple[mpf, mpf]:
        # a tail multiplied by `coefficient` still contributes <= target
        return tables.tail(exponent, M + 1, target / max(1, coefficient))

    # direct part: m = 2..M with incremental inner partial sums
    inner = mpf(0)
    direct = mpf(0)
    for m in range(2, M + 1):
        inner += tables.power(m - 1, -k1)
        direct += tables.power(m, -k2) * inner

    z1 = tables.zeta(k1)
    t2, t2_bound = outer_tail(k2)

    # Euler-Maclaurin expansion of T(m) = sum_{j>=m} j^{-k1} in powers
    # of 1/m; each power m^-(k1+alpha) folds into the outer tail of
    # exponent w + alpha.  The leading two terms come first.
    correction = mpf(0)
    corr_bound = mpf(0)
    for alpha, c in ((k1 - 1, mpf(1) / (k1 - 1)), (k1, mpf("0.5"))):
        tv, tb = outer_tail(k2 + alpha)
        correction += c * tv
        corr_bound += c * tb
    # Term j has c_j = B_2j/(2j)! (k1)_{2j-1}; with terms 1..J-1 in, the
    # remainder of T(m) is at most 2|c_J| m^-(k1+2J-1), which sums over
    # m > M to 2|c_J| times the tail that term J would use.  (w-2)_{2J-1}
    # is the largest rising factorial of the weight (k2 >= 2), so the
    # tail targets do not depend on k1.
    rising, rising_max = k1, w - 2  # (k1)_{2J-1}, (w-2)_{2J-1}
    J = 1
    while True:
        ratio = tables.ratio(2 * J)
        c = ratio * rising
        tv, tb = outer_tail(w + 2 * J - 1, abs(ratio) * rising_max)
        remainder = 2 * abs(c) * (tv + tb)
        # J <= digits is what the working precision's guard assumes;
        # a remainder still above the target there fails the final check
        if remainder <= target or J > digits:
            break
        correction += c * tv
        corr_bound += abs(c) * tb
        rising *= (k1 + 2 * J - 1) * (k1 + 2 * J)
        rising_max *= (w + 2 * J - 3) * (w + 2 * J - 2)
        J += 1

    value = direct + z1.value * t2 - correction
    err = (
        z1.error_bound * (t2 + t2_bound)
        + abs(z1.value) * t2_bound
        + corr_bound
        + remainder
        + _slack(value) * (M + J + 16)
    )
    return _checked(BigFloat(value, err), digits, f"zeta({k1},{k2})")


def _zeta_one(k: int, digits: int) -> BigFloat:
    """zeta(1, k) = (k/2) zeta(k+1) - 1/2 sum_{j=1}^{k-2} zeta(j+1) zeta(k-j)."""
    inner = digits + 5
    with mp.workdps(_work_dps(inner)):
        z = _EMTables(inner).zeta
        value = z(k + 1).scale(Fraction(k, 2))
        for j in range(1, k - 1):
            value = value - (z(j + 1) * z(k - j)).scale(Fraction(1, 2))
        return _checked(value, digits, f"zeta(1,{k})")


def pi_value(digits: int = 30) -> BigFloat:
    """pi with an error bound of a few ulps at the working precision."""
    with mp.workdps(_work_dps(digits)):
        v = +mp.pi
        return BigFloat(v, _slack(v))


def rational_reconstruct(x: BigFloat, max_denominator: int = 64) -> Fraction | None:
    """The unique p/q with q <= max_denominator inside the error interval.

    Distinct rationals with denominators <= D differ by at least 1/D^2,
    so a candidate is unique whenever the interval is shorter than that.
    Returns None when no candidate fits or uniqueness cannot be shown.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    if 2 * x.error_bound >= mpf(1) / (max_denominator * max_denominator):
        return None
    sign, man, exp, _ = x.value._mpf_
    exact = Fraction((-1) ** sign * man) * Fraction(2) ** exp
    candidate = exact.limit_denominator(max_denominator)
    cv = mpf(candidate.numerator) / mpf(candidate.denominator)
    if abs(cv - x.value) <= x.error_bound + _slack(cv):
        return candidate
    return None


@dataclass(frozen=True)
class AuditReport:
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
        if not 1 <= r <= K - 1:
            raise ValueError(f"row r={r} out of range for K={K}")
    with mp.workdps(_work_dps(digits)):
        tables = _EMTables(digits)
        z = tables.zeta
        a = build_a(K)
        products = [z(2 * s) * z(2 * K + 1 - 2 * s) for s in range(1, K)]
        z_odd = z(2 * K + 1)
        printed = mpf(PRINTED_CONSTANT.numerator) / PRINTED_CONSTANT.denominator
        reports = []
        for r in rows:
            lhs = _zeta_double(2 * r, 2 * K + 1 - 2 * r, tables)
            rhs = products[0].scale(a.at(r - 1, 0))
            for s in range(2, K):
                rhs = rhs + products[s - 1].scale(a.at(r - 1, s - 1))
            residual = (lhs - rhs) / z_odd
            reconstructed = rational_reconstruct(residual, 64)
            consistent = bool(
                abs(residual.value - printed) <= residual.error_bound
            )
            reports.append(
                AuditReport(
                    K=K,
                    r=r,
                    digits=digits,
                    lhs=lhs,
                    rhs_products=rhs,
                    residual_ratio=residual,
                    reconstructed=reconstructed,
                    printed_constant_consistent=consistent,
                )
            )
        return reports


@dataclass(frozen=True)
class HAuditReport:
    """Numeric audit of the H(a,b) odd-zeta expansion."""

    a: int
    b: int
    digits: int
    formula_value: BigFloat
    direct_value: BigFloat
    abs_difference: mpf
    agrees_within_bounds: bool


def audit_h_ab(a: int, b: int, digits: int = 30) -> HAuditReport:
    """Check the H(a,b) coefficient formula against direct summation.

    Supported scope: (a, b) in {(0,0), (1,0), (0,1)} - the depth-1 and
    depth-2 targets zeta(3), zeta(2,3), zeta(3,2).  Deeper targets would
    need an independent depth >= 3 summation engine and are rejected.
    """
    supported = {(0, 0), (1, 0), (0, 1)}
    if (a, b) not in supported:
        raise ValueError(
            f"audit_h_ab supports (a,b) in {sorted(supported)}, got ({a}, {b})"
        )
    with mp.workdps(_work_dps(digits)):
        tables = _EMTables(digits)
        K = a + b + 1
        table = h_ab_coefficients(a, b)
        pi_bf = pi_value(digits)
        formula = None
        for r, term in enumerate(table.rows[0].terms, start=1):
            n = K - r
            h_num = _pi_power(pi_bf, 2 * n).scale(h_value(n))
            contrib = (h_num * tables.zeta(2 * r + 1)).scale(term.coeff)
            formula = contrib if formula is None else formula + contrib
        assert formula is not None

        if (a, b) == (0, 0):
            direct = tables.zeta(3)
        elif (a, b) == (1, 0):
            direct = _zeta_double(2, 3, tables)
        else:
            direct = _zeta_double(3, 2, tables)

        diff = abs(formula.value - direct.value)
        agrees = bool(diff <= formula.error_bound + direct.error_bound)
        return HAuditReport(
            a=a,
            b=b,
            digits=digits,
            formula_value=formula,
            direct_value=direct,
            abs_difference=diff,
            agrees_within_bounds=agrees,
        )


def _pi_power(pi_bf: BigFloat, m: int) -> BigFloat:
    out = BigFloat(mpf(1), mpf(0))
    for _ in range(m):
        out = out * pi_bf
    return out
