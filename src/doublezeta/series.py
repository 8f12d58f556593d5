"""The reflection and Carlitz identities, checked exactly in integers.

Both checks are sweeps, and both read every binomial sum they compare off
one Pascal table: ``_pascal_rows(seq, sign)`` yields the rows

    row_r[i] = sum_k C(r,k) sign^(r-k) seq[i+k],   sign = +1 or -1,

each built from the last by row_{r+1}[i] = row_r[i+1] + sign row_r[i], so
an entry costs one addition and no binomial coefficient.  ``matrices``
reads P and Q off the same sign +1 table of lane-packed ints, column by
column (``_pascal_columns``), so that a sweep over K holds one column of
it at a time.  Each
sweep takes one Bernoulli vector b_n = D B_n from ``BernoulliCache.scaled``,
with one D for all of its pairs.

Carlitz's symmetric identity for 0 <= m <= n <= max is

    (-1)^m sum_k C(m,k) B_{n+k}  ==  (-1)^n sum_k C(n,k) B_{m+k},

and with sign +1 on b the left side times D is (-1)^m row_m[n].  The sweep
takes b through 2 max, keeps rows m <= max to their first max + 1 columns,
and compares that block with its transpose: memory is O(max^2) ints.

The reflection identity for f_s(t) = t^{2s-1}/(e^t - 1) and m >= 1 is

    e^t f_s^(m)(t) = sum_{p<=m} (-1)^{m-p} C(m,p) f_s^(p)(t)
                     + sum_{p<=min(m,2s-1)} (-1)^{m-p} C(m,p) (2s-1)!/(2s-1-p)! t^{2s-1-p}.

f_s is known through a truncation order N, so f_s^(m) is known through
N - m, and the check compares the coefficients of degree <= N - m only.
It compares exponential-generating-function (EGF) coefficients
a_k = k! [t^k] f_s scaled by D, in which a derivative is a shift and a
product with e^t is a binomial sum.  Entry i of the left side is entry m
of row i of the sign +1 table of a; entry i of the binomial sum on the
right is entry i of row m of the sign -1 table, the m-th forward
difference of a.  So the sweep builds a once per s, and its two tables
serve every m.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, islice
from math import comb, factorial, perm
from operator import add, sub
from typing import NamedTuple

from .bernoulli import BernoulliCache
from .rationals import format_rational

__all__ = [
    "verify_reflection",
    "Mismatch",
    "verify_carlitz",
]


def _pascal_rows(seq: Sequence[int], sign: int) -> Iterator[tuple[int, ...]]:
    """Rows r = 0, 1, ... with row_r[i] = sum_k C(r,k) sign^(r-k) seq[i+k], for sign = +-1.

    Row r has len(seq) - r entries; the rows stop before the first empty one.
    """
    step = add if sign == 1 else sub
    row = tuple(seq)
    while row:
        yield row
        row = tuple(map(step, row[1:], row))


def _pascal_columns(seq: Sequence[int]) -> Iterator[list[int]]:
    """Columns i = len(seq)-1, ..., 0 of the sign +1 table; column i lists row_r[i] for every r.

    row_r[i] = row_{r-1}[i] + row_{r-1}[i+1], so column i is
    accumulate(column i+1, initial=seq[i]): the same additions as the rows,
    with one column held at a time.
    """
    col: list[int] = []
    for x in reversed(seq):
        col = list(accumulate(col, initial=x))
        yield col


def _reflection_sides(
    s: int, m_max: int, order: int, b: Sequence[int], big: int
) -> list[tuple[list[int], list[int]]]:
    """Both sides of the reflection identity for m = 1..m_max, as integer EGF entries.

    b_k = D B_k for k <= order - 2s + 2, and big = D.  f_s has the EGF
    coefficients a_k = k!/(k-2s+2)! b_{k-2s+2} for k >= 2s-2 and 0 below.
    So f_s^(p) has a_{i+p}, e^t f_s^(m) has sum_j C(i,j) a_{j+m}, and the
    polynomial term of degree 2s-1-p has (-1)^{m-p} C(m,p) (2s-1)! D.
    Entry i of either side is its [t^i] coefficient times i! D, for
    i <= order - m; the caller checks that order >= 2s - 2 + m_max.
    """
    shift = 2 * s - 2
    a = [0] * shift + [perm(k, shift) * b[k - shift] for k in range(shift, order + 1)]
    # entry m of row i of the sign +1 table, for 1 <= m <= m_max
    sums = [row[1 : m_max + 1] for row in _pascal_rows(a, 1)]
    poly = factorial(2 * s - 1) * big
    sides = []
    for m, diff in enumerate(islice(_pascal_rows(a, -1), 1, m_max + 1), 1):
        top = order - m
        lhs = [row[m - 1] for row in sums[: top + 1]]
        rhs = list(diff)
        for p in range(min(m, 2 * s - 1) + 1):
            deg = 2 * s - 1 - p
            if deg <= top:
                rhs[deg] += (-1) ** (m - p) * comb(m, p) * poly
        sides.append((lhs, rhs))
    return sides


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
    s_max: int, m_max: int, order: int, cache: BernoulliCache
) -> list[tuple[int, int, Mismatch | None]]:
    """Check the reflection identity coefficient-wise up to order - m.

    Returns (s, m, first mismatch or None) for 1 <= s <= s_max and
    1 <= m <= m_max, s outer and m inner.  An order that leaves some pair no
    comparable coefficient (order < 2s - 2 + m) is a ValueError naming the
    first such pair, raised before any work.
    """
    if s_max < 1 or m_max < 1:
        raise ValueError("s_max and m_max must be >= 1")
    for s in range(1, s_max + 1):
        for m in range(1, m_max + 1):
            if order < 2 * s - 2 + m:
                raise ValueError(
                    f"order {order} leaves no comparable coefficient for s={s}, m={m}"
                )
    b, big = cache.scaled(order)
    results = []
    for s in range(1, s_max + 1):
        for m, (lhs, rhs) in enumerate(_reflection_sides(s, m_max, order, b, big), 1):
            bad = None
            i = next((i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)
            if i is not None:
                den = factorial(i) * big
                bad = Mismatch(i, Fraction(lhs[i], den), Fraction(rhs[i], den))
            results.append((s, m, bad))
    return results


def verify_carlitz(
    n_max: int, cache: BernoulliCache
) -> list[tuple[int, int, Fraction, Fraction]]:
    """Carlitz's symmetric Bernoulli identity for 0 <= m <= n <= n_max.

    Returns (m, n, lhs, rhs) for each failing pair, n outer and m inner,
    with lhs = (-1)^m sum_k C(m,k) B_{n+k} and rhs = (-1)^n sum_k C(n,k)
    B_{m+k} as exact rationals; an empty list means every pair passed.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    b, big = cache.scaled(2 * n_max)
    width = n_max + 1
    # rows[m][n] = D sum_k C(m,k) B_{n+k}, so the side (m, n) is (-1)^m rows[m][n] / D
    rows = [row[:width] for row in islice(_pascal_rows(b, 1), width)]
    return [
        (m, n, Fraction((-1) ** m * rows[m][n], big), Fraction((-1) ** n * rows[n][m], big))
        for n in range(width)
        for m in range(n + 1)
        if rows[m][n] != (-1) ** (m + n) * rows[n][m]
    ]
