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
downstream formula in this package assumes it, and reads it from one
place, ``BernoulliCache._pairs``: the P/Q kernel and the export through
``scaled``, and ``numerics`` directly for rho_J = B_2J/(2J)! and Euler's
formula for zeta(2n).  No other code turns T_k into B_n.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import isqrt, lcm, prod

__all__ = ["BernoulliCache"]


class BernoulliCache:
    """Append-only store of the tangent numbers T_1, T_2, ... owned by a single task.

    The cache is a value, not global state: independent instances always
    agree entrywise because the recurrence is deterministic.  Besides
    T_1..T_m it keeps only the last Brent-Harvey column, column m.  ``get``
    and ``scaled`` read B_n off T_{n/2} through one formula, ``_pairs``,
    when they are asked, and keep no B_n.
    """

    def __init__(self) -> None:
        self._tangents: list[int] = [0]  # T_k at index k; index 0 is unused
        self._column: list[int] = []

    @property
    def high_water(self) -> int:
        """Largest index known so far: T_1..T_m give B_0..B_{2m+1}."""
        return 2 * len(self._tangents) - 1

    def get(self, n: int) -> Fraction:
        """B_n, extending the store through index n if needed."""
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        return Fraction(*next(self._pairs(n, n + 1)))

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
        return tuple(num * big // den for num, den in self._pairs(0, n + 1)), big

    def _pairs(self, start: int, stop: int) -> Iterator[tuple[int, int]]:
        """B_n as an unreduced (numerator, denominator) for start <= n < stop.

        The store is extended once, before the first pair; each pair then
        reads T_{n//2}.  The only place that writes the convention.
        """
        self._extend((stop - 1) // 2)
        tangents = self._tangents
        for n in range(start, stop):
            if n % 2:
                yield (-1, 2) if n == 1 else (0, 1)
            elif n:
                four = 1 << n
                x = n * tangents[n // 2]
                yield x if n % 4 == 2 else -x, four * (four - 1)
            else:
                yield 1, 1

    def _extend(self, k: int) -> None:
        """Append T_j for every j <= k not yet stored, one column at a time."""
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

