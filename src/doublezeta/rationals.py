"""Exact rational scalars and binomial-coefficient conventions.

The universal scalar is ``fractions.Fraction``: arbitrary precision,
always in lowest terms with positive denominator, so structural equality
is semantic equality.  Values serialize as ``"p/q"`` (or ``"p"`` when the
denominator is 1) everywhere in this package.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "binomial",
    "format_rational",
    "parse_rational",
]


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
    """Canonical text form: "p/q" in lowest terms, or "p" when q = 1.

    Integers of any length are written out, past Python's int-to-str limit.
    """
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        # more digits than sys.get_int_max_str_digits(): Decimal converts an
        # int exactly and without that limit, and prints exponent 0 as digits
        num, den = (str(Decimal(n)) for n in (x.numerator, x.denominator))
        return num if den == "1" else f"{num}/{den}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational` within Python's int-to-str digit limit.

    Raises ValueError on malformed text.
    """
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
