"""The reflection and Carlitz identities, checked exactly in integers.

The reflection identity for f_s(t) = t^{2s-1}/(e^t - 1) and m >= 1 is

    e^t f_s^(m)(t) = sum_{p<=m} (-1)^{m-p} C(m,p) f_s^(p)(t)
                     + sum_{p<=min(m,2s-1)} (-1)^{m-p} C(m,p) (2s-1)!/(2s-1-p)! t^{2s-1-p}.

f_s is known through a truncation order N, so f_s^(m) is known through
N - m, and the check compares the coefficients of degree <= N - m only.

Both checks run on one Bernoulli vector b_n = D B_n from
``BernoulliCache.scaled``: Carlitz's identity compares binomial sums of
the b_n, and the reflection identity compares exponential-generating-
function (EGF) coefficients a_k = k! [t^k] f scaled by D, in which a
derivative is a shift and a product with e^t is a binomial sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from operator import mul
from typing import NamedTuple

from .bernoulli import BernoulliCache
from .rationals import format_rational

__all__ = [
    "verify_reflection",
    "Mismatch",
    "verify_carlitz",
]


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


class Mismatch(NamedTuple):
    """First degree at which the two reflection sides disagree, with both values."""

    degree: int
    lhs: Fraction
    rhs: Fraction

    def __str__(self) -> str:
        return (
            f"mismatch at degree {self.degree}: "
            f"lhs={format_rational(self.lhs)} rhs={format_rational(self.rhs)}"
        )


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
