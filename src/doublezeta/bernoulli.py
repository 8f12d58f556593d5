"""Exact Bernoulli numbers in the B_1 = -1/2 convention.

Even-index values come from the tangent numbers T_k (OEIS A000182:
1, 2, 16, 272, ...), kept as ints.  They are computed one column at a
time by Brent and Harvey's recurrence:

    t(1,j) = (j-1) t(1,j-1),
    t(i,j) = (j-i) t(i,j-1) + (j-i+2) t(i-1,j)   for 2 <= i <= j,
    T_j = t(j,j),

so column j needs only column j-1, and each new T_j costs about j
small-by-big products.  Then B_0 = 1, B_1 = -1/2, B_n = 0 for odd n >= 3,
and

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

By von Staudt-Clausen the lcm D of the denominators of B_0..B_n is the
product of the primes p <= n+1, so each D B_n is one exact int quotient
(``BernoulliCache.scaled``).  See Brent and Harvey, "Fast computation of
Bernoulli, tangent and secant numbers" (2013, arXiv:1108.0286).  Note the
convention: B_1 = -1/2 (the "first" Bernoulli numbers).  Every
downstream formula in this package assumes it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod

__all__ = ["BernoulliCache", "bernoulli_range"]


class BernoulliCache:
    """Append-only store of the tangent numbers T_1, T_2, ... owned by a single task.

    The cache is a value, not global state: independent instances always
    agree entrywise because the recurrence is deterministic.  Besides
    T_1..T_m it keeps only the last Brent-Harvey column, column m, and
    each B_n as a Fraction once ``get`` has been asked for it.
    """

    def __init__(self) -> None:
        self._tangents: list[int] = [0]  # T_k at index k; index 0 is unused
        self._column: list[int] = []
        self._values: dict[int, Fraction] = {}

    @property
    def high_water(self) -> int:
        """Largest index known so far: T_1..T_m give B_0..B_{2m+1}."""
        return 2 * len(self._tangents) - 1

    def tangent(self, k: int) -> int:
        """T_k for k >= 1, extending the store through index k if needed."""
        if k < 1:
            raise ValueError(f"tangent index must be >= 1, got {k}")
        tangents = self._tangents
        if k >= len(tangents):
            self._extend(k)
        return tangents[k]

    def get(self, n: int) -> Fraction:
        """B_n, extending the store through index n if needed."""
        value = self._values.get(n)
        if value is None:
            if n < 0:
                raise ValueError(f"Bernoulli index must be >= 0, got {n}")
            k = n // 2
            if k >= len(self._tangents):
                self._extend(k)
            if n == 0:
                value = Fraction(1)
            elif n == 1:
                value = Fraction(-1, 2)
            elif n % 2:
                value = Fraction(0)
            else:
                four = 1 << n
                sign = 1 if k % 2 else -1
                value = Fraction(sign * n * self._tangents[k], four * (four - 1))
            self._values[n] = value
        return value

    def scaled(self, n: int) -> tuple[tuple[int, ...], int]:
        """(b, D) with b_k = D B_k for k <= n, D the lcm of the denominators of B_0..B_n.

        D is the product of the primes <= n+1 and each b_k one exact quotient
        of T_k.  A subclass that overrides ``get`` is read through ``get``.
        """
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if type(self).get is not BernoulliCache.get:
            bern = [self.get(k) for k in range(n + 1)]
            big = lcm(*(x.denominator for x in bern))
            return tuple(x.numerator * (big // x.denominator) for x in bern), big
        big = _primorial(n + 1)
        if n == 0:
            return (big,), big
        if n // 2 >= len(self._tangents):
            self._extend(n // 2)
        tangents = self._tangents
        b = [big, -big // 2]
        for m in range(2, n + 1):
            if m % 2:
                b.append(0)
            else:
                four = 1 << m
                x = m * tangents[m // 2] * big // (four * (four - 1))
                b.append(x if m % 4 == 2 else -x)
        return tuple(b), big

    def _extend(self, k: int) -> None:
        """Append T_j to the store for every j <= k, one column at a time."""
        tangents, col = self._tangents, self._column
        for j in range(len(tangents), k + 1):
            if j == 1:
                col = [1]
            else:
                prev = (j - 1) * col[0]
                new = [prev]
                for a, c in zip(range(j - 2, 0, -1), col[1:]):
                    prev = a * c + (a + 2) * prev
                    new.append(prev)
                new.append(2 * prev)
                col = new
            tangents.append(col[-1])
        self._column = col


def _primorial(m: int) -> int:
    """The product of the primes <= m, for m >= 1 (1 at m = 1)."""
    sieve = bytearray(2) + bytearray([1]) * (m - 1)
    for p in range(2, isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return prod(p for p in range(m + 1) if sieve[p])


def bernoulli_range(n_max: int) -> list[Fraction]:
    """B_0 ... B_{n_max} as a list, from one fresh ``BernoulliCache``."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    cache = BernoulliCache()
    return [cache.get(i) for i in range(n_max + 1)]
