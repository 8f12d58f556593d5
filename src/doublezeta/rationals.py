"""Exact rational scalars and their ``"p/q"`` text format.

The scalar is ``fractions.Fraction`` (a matrix row is ints over one
denominator): always in lowest terms with positive denominator, so
structural equality is semantic equality.  Values serialize as ``"p/q"``
(or ``"p"`` when the denominator is 1) everywhere in this package.  A row
of ints over one denominator is put in lowest terms by one gcd
(``_lowest_terms``) and formatted in one call (``_format_row``).
``format_rational`` writes one value itself and hands a value past
Python's int-to-str limit to ``_format_row``, so the Decimal fallback for
such ints lives in one place.  ``parse_rational`` reads back that text
format and nothing else.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from math import gcd

__all__ = [
    "format_rational",
    "parse_rational",
]

_PLAIN = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def format_rational(x: Fraction | int) -> str:
    """Canonical text form of x: "p/q" in lowest terms, or "p" if q = 1.

    Integers of any length are written out, past Python's int-to-str limit:
    such a value is written by ``_format_row``, as a row of one.
    """
    num, den = x.numerator, x.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        return _format_row((num,), den)[0]


def _lowest_terms(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den in lowest terms, for den > 0: one gcd for the whole row.

    A row whose gcd with den is 1 is kept as it is.
    """
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [x // g for x in nums], den // g
    return tuple(nums), den


def _format_row(nums: Sequence[int], den: int) -> list[str]:
    """The canonical texts of x / den for each x in nums, den > 0.

    Over den = 1 each text is ``str(x)``; otherwise x and den are divided by
    their gcd.  Every text matches ``-?[0-9]+(/[0-9]+)?``, so it needs no
    escaping in JSON or CSV.  A row with an int past Python's int-to-str
    limit is written through Decimal, which converts an int exactly and
    without that limit, and prints exponent 0 as digits.
    """
    try:
        if den == 1:
            return list(map(str, nums))
        texts = []
        for x in nums:
            g = gcd(x, den)
            texts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return texts
    except ValueError:
        texts = []
        for x in nums:
            g = gcd(x, den)
            num, q = (str(Decimal(n)) for n in (x // g, den // g))
            texts.append(num if q == "1" else f"{num}/{q}")
        return texts


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational`, at any length.

    Reads only ``[+-]?[0-9]+(/[0-9]+)?``, the texts format_rational
    writes with an optional sign: no spaces, ``_``, decimal point or
    exponent, so a short text never asks for a long int.  Each int is
    read through Decimal, which converts it exactly and without Python's
    int-to-str limit.  Raises ValueError on any other text and on a zero
    denominator.
    """
    if not _PLAIN.fullmatch(s):
        raise ValueError(f"not a rational p/q or p: {s!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
