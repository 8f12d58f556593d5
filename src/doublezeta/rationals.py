"""Exact rational scalars and their ``"p/q"`` text format.

The scalar is ``fractions.Fraction`` (a matrix row is ints over one
denominator): always in lowest terms with positive denominator, so
structural equality is semantic equality.  Values serialize as ``"p/q"``
(or ``"p"`` when the denominator is 1) everywhere in this package.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

__all__ = [
    "format_rational",
    "parse_rational",
]

_PLAIN = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def format_rational(x: Fraction | int, den: int = 1) -> str:
    """Canonical text form of x / den, den > 0: "p/q" in lowest terms, or "p" if q = 1.

    Integers of any length are written out, past Python's int-to-str limit.
    """
    g = gcd(x.numerator, den)
    num, den = x.numerator // g, x.denominator * den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        # more digits than sys.get_int_max_str_digits(): Decimal converts an
        # int exactly and without that limit, and prints exponent 0 as digits
        num, den = (str(Decimal(n)) for n in (num, den))
        return num if den == "1" else f"{num}/{den}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational`, at any length.

    Accepts what ``Fraction(str)`` accepts, and plain "p/q" or "p" past
    Python's int-to-str limit.  Raises ValueError on malformed text.
    """
    try:
        try:
            return Fraction(s)
        except ValueError:
            if not _PLAIN.fullmatch(s):
                raise
            # more digits than sys.get_int_max_str_digits(): Decimal reads
            # them exactly and without that limit
            num, _, den = s.partition("/")
            if den and not den.strip("0"):
                raise ZeroDivisionError
            return Fraction(int(Decimal(num)), int(Decimal(den or "1")))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
