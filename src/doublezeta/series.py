"""Truncated formal power series, and the reflection and Carlitz checks.

A series knows its coefficients up to a truncation order N; terms of
degree > N are *unknown*, not zero.  Arithmetic therefore never claims
coefficients beyond the minimum order of its inputs, and identity checks
only compare degrees both sides actually know.

``TruncatedSeries`` is the public and reference type.  The checks
themselves run in integers, on one Bernoulli vector b_n = D B_n from
``BernoulliCache.scaled``: Carlitz's identity compares binomial sums of
the b_n, and the reflection identity compares exponential-generating-
function (EGF) coefficients a_k = k! [t^k] f scaled by D, in which a
derivative is a shift and a product with e^t is a binomial sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from operator import mul
from typing import Sequence

from .bernoulli import BernoulliCache
from .rationals import format_rational

__all__ = [
    "TruncatedSeries",
    "series_from_coefficients",
    "exp_series",
    "bernoulli_gf",
    "build_fs",
    "reflection_sides",
    "verify_reflection",
    "Mismatch",
    "verify_carlitz",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite prefix of a formal power series; coefficients[i] is [t^i]."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("a truncated series needs at least one coefficient")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coefficients[i]

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coefficients[: order + 1])

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coefficients[i] + other.coefficients[i] for i in range(n + 1))
        )

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        a, b = self.coefficients, other.coefficients
        out = []
        for i in range(n + 1):
            out.append(sum((a[j] * b[i - j] for j in range(i + 1)), Fraction(0)))
        return TruncatedSeries(tuple(out))

    def scale(self, c: Fraction) -> TruncatedSeries:
        return TruncatedSeries(tuple(c * x for x in self.coefficients))

    def derivative(self, times: int = 1) -> TruncatedSeries:
        """m-fold derivative; the truncation order drops by m."""
        if times < 0:
            raise ValueError("derivative count must be >= 0")
        if times > self.order:
            raise ValueError(
                f"cannot differentiate {times} times at order {self.order}"
            )
        m = times
        out = tuple(
            Fraction(math.factorial(i + m), math.factorial(i)) * self.coefficients[i + m]
            for i in range(self.order - m + 1)
        )
        return TruncatedSeries(out)


def series_from_coefficients(coeffs: Sequence[Fraction | int]) -> TruncatedSeries:
    """Series with the given coefficients; order = len - 1."""
    return TruncatedSeries(tuple(Fraction(c) for c in coeffs))


def exp_series(sign: int, order: int) -> TruncatedSeries:
    """e^{sign*t} truncated at the given order (sign is +1 or -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries(
        tuple(Fraction(sign**i, math.factorial(i)) for i in range(order + 1))
    )


def bernoulli_gf(order: int, cache: BernoulliCache | None = None) -> TruncatedSeries:
    """t/(e^t - 1) truncated at the given order: [t^n] = B_n / n!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if cache is None:
        cache = BernoulliCache()
    return TruncatedSeries(
        tuple(cache.get(n) / math.factorial(n) for n in range(order + 1))
    )


def build_fs(s: int, order: int, cache: BernoulliCache | None = None) -> TruncatedSeries:
    """t^{2s-1}/(e^t - 1) = t^{2s-2} * t/(e^t - 1), truncated.

    Coefficient of t^{n+2s-2} is B_n/n!; everything below degree 2s-2 is 0.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    shift = 2 * s - 2
    if order < shift:
        raise ValueError(f"order {order} too small for s={s} (need >= {shift})")
    gf = bernoulli_gf(order - shift, cache)
    return TruncatedSeries((Fraction(0),) * shift + gf.coefficients)


def _reflection_egf(
    s: int, m: int, order: int, cache: BernoulliCache | None
) -> tuple[list[int], list[int], int]:
    """Both sides of the reflection identity as integer EGF coefficients, and D.

    With (b, D) = cache.scaled(order), f_s has the EGF coefficients
    a_k = k!/(k-2s+2)! b_{k-2s+2} for k >= 2s-2 and 0 below.  So f_s^(p) has
    a_{i+p}, e^t f_s^(m) has sum_j C(i,j) a_{j+m}, and the polynomial term
    of degree 2s-1-p has (-1)^{m-p} C(m,p) (2s-1)! D.  Entry i of either
    side is its [t^i] coefficient times i! D, for i <= order - m.
    """
    if s < 1 or m < 1:
        raise ValueError("s and m must be >= 1")
    if order < 2 * s - 2 + m:
        raise ValueError(
            f"order {order} leaves no comparable coefficient for s={s}, m={m}"
        )
    if cache is None:
        cache = BernoulliCache()
    b, big = cache.scaled(order)
    shift = 2 * s - 2
    a = [0] * shift + [perm(k, shift) * b[k - shift] for k in range(shift, order + 1)]
    cmp_order = order - m

    lhs = [sum(comb(i, j) * a[j + m] for j in range(i + 1)) for i in range(cmp_order + 1)]
    signed = [(-1) ** (m - p) * comb(m, p) for p in range(m + 1)]
    rhs = [sum(map(mul, signed, a[i : i + m + 1])) for i in range(cmp_order + 1)]
    for p in range(min(m, 2 * s - 1) + 1):
        deg = 2 * s - 1 - p
        if deg <= cmp_order:
            rhs[deg] += signed[p] * factorial(2 * s - 1) * big
    return lhs, rhs, big


def reflection_sides(
    s: int, m: int, order: int, cache: BernoulliCache | None = None
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the e^t f_s^(m) reflection identity, comparable order.

    Left side: e^t * f_s^(m)(t).  Right side: the signed binomial
    combination of f_s^(p) for p <= m plus the finite polynomial
    sum_{p<=min(m,2s-1)} (-1)^{m-p} C(m,p) (2s-1)!/(2s-1-p)! t^{2s-1-p}.
    Both are truncated to order N - m, the largest degree both know.
    """
    lhs, rhs, big = _reflection_egf(s, m, order, cache)
    return tuple(
        TruncatedSeries(tuple(Fraction(x, factorial(i) * big) for i, x in enumerate(side)))
        for side in (lhs, rhs)
    )


@dataclass(frozen=True)
class Mismatch:
    """First degree at which two series disagree, with both values."""

    degree: int
    lhs: Fraction
    rhs: Fraction

    def __str__(self) -> str:
        return (
            f"mismatch at degree {self.degree}: "
            f"lhs={format_rational(self.lhs)} rhs={format_rational(self.rhs)}"
        )


def first_mismatch(a: TruncatedSeries, b: TruncatedSeries) -> Mismatch | None:
    """Compare two series up to their common order; None means equal."""
    n = min(a.order, b.order)
    for i in range(n + 1):
        if a[i] != b[i]:
            return Mismatch(i, a[i], b[i])
    return None


def verify_reflection(
    s: int, m: int, order: int, cache: BernoulliCache | None = None
) -> tuple[bool, Mismatch | None]:
    """Check the reflection identity coefficient-wise up to order - m."""
    lhs, rhs, big = _reflection_egf(s, m, order, cache)
    for i, (x, y) in enumerate(zip(lhs, rhs)):
        if x != y:
            den = factorial(i) * big
            return False, Mismatch(i, Fraction(x, den), Fraction(y, den))
    return True, None


def verify_carlitz(m: int, n: int, cache: BernoulliCache | None = None) -> bool:
    """Carlitz's symmetric Bernoulli identity for nonnegative m, n.

    (-1)^m sum_k C(m,k) B_{n+k}  ==  (-1)^n sum_k C(n,k) B_{m+k}, compared
    as integers b = D B over the vector through 2 max(m, n): it covers both
    sides' indices and stays the same across a sweep over m <= n.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if cache is None:
        cache = BernoulliCache()
    b, _ = cache.scaled(2 * max(m, n))

    def side(p: int, q: int) -> int:
        return (-1) ** p * sum(comb(p, k) * b[q + k] for k in range(p + 1))

    return side(m, n) == side(n, m)
