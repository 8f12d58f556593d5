"""Exact Bernoulli numbers in the B_1 = -1/2 convention.

Even-index values come from the zigzag numbers A_n, the last entries of
the rows of the Seidel boustrophedon (Entringer) triangle: E(0,0) = 1,
E(m,0) = 0, E(m,k) = E(m,k-1) + E(m-1,m-k), A_m = E(m,m).  For even m >= 2,

    B_m = (-1)^(m/2-1) * m * A_{m-1} / (2^m (2^m - 1)),

so each new index costs m integer additions and one Fraction.  See
Millar, Sloane and Young, J. Combin. Theory Ser. A 76 (1996), and Brent
and Harvey, "Fast computation of Bernoulli, tangent and secant numbers"
(2011).  Note the convention: B_1 = -1/2 (the "first" Bernoulli numbers).
Every downstream formula in this package assumes it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm

__all__ = ["BernoulliCache", "bernoulli_range"]


class BernoulliCache:
    """Append-only cache of B_0, B_1, ... owned by a single task.

    The cache is a value, not global state: independent instances always
    agree entrywise because the triangle is deterministic.  Besides the
    values it keeps only the last boustrophedon row, row ``high_water``.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        self._row: list[int] = [1]

    @property
    def high_water(self) -> int:
        """Largest index computed so far."""
        return len(self._values) - 1

    def get(self, n: int) -> Fraction:
        """B_n, extending the cache through index n if needed."""
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        self._extend(n)
        return self._values[n]

    def scaled(self, n: int) -> tuple[tuple[int, ...], int]:
        """(b, D) with b_k = D B_k for k <= n, D the lcm of the denominators of B_0..B_n.

        The values come from ``get``.
        """
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        bern = [self.get(k) for k in range(n + 1)]
        big = lcm(*(x.denominator for x in bern))
        return tuple(x.numerator * (big // x.denominator) for x in bern), big

    def _extend(self, n: int) -> None:
        values, row = self._values, self._row
        while len(values) <= n:
            m = len(values)
            zigzag = row[-1]  # A_{m-1}
            row = list(accumulate(reversed(row), initial=0))
            if m == 1:
                values.append(Fraction(-1, 2))
            elif m % 2:
                values.append(Fraction(0))
            else:
                sign = 1 if m % 4 == 2 else -1
                values.append(Fraction(sign * m * zigzag, (1 << m) * ((1 << m) - 1)))
        self._row = row


def bernoulli_range(n_max: int) -> list[Fraction]:
    """B_0 ... B_{n_max} as a list, from one fresh ``BernoulliCache``."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    cache = BernoulliCache()
    cache.get(n_max)  # one extension to n_max is faster than one per index
    return [cache.get(i) for i in range(n_max + 1)]
