"""Exact rational scalars and binomial-coefficient conventions.

The universal scalar is ``fractions.Fraction``: arbitrary precision,
always in lowest terms with positive denominator, so structural equality
is semantic equality.  Values serialize as ``"p/q"`` (or ``"p"`` when the
denominator is 1) everywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "binomial",
    "factorial",
    "format_rational",
    "parse_rational",
]


def factorial(n: int) -> int:
    """n! as an exact integer.  Rejects negative n."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient C(n, k) for integer arguments.

    Defined by the falling-factorial product n(n-1)...(n-k+1)/k! for
    k >= 1 and by 1 for k = 0, so it is always an integer.  For an
    integer 0 <= n < k this vanishes.  k < 0 returns 0 (empty-selection
    convention), making the function total so identity sweeps never
    fault on out-of-range indices.
    """
    if k < 0:
        return 0
    if n >= 0:
        # math.comb already implements the 0 <= n < k -> 0 convention
        return math.comb(n, k)
    # upper negation: C(n, k) = (-1)^k C(k-n-1, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def format_rational(x: Fraction) -> str:
    """Canonical text form: "p/q" in lowest terms, or "p" when q = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational`.  Raises ValueError on malformed text."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
