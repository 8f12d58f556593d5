"""Zeta-reduction coefficient tables over a canonical label grammar.

Labels: ``zeta(k)``, ``zeta(k1,k2)``, ``zeta(a)*zeta(b)``, ``H(n)``,
``pi^m``, and products thereof joined by ``*``.  H(n) = pi^{2n}/(2n+1)!,
which ``expand_h_to_pi`` writes out.

A table row holds its coefficients as ``RationalMatrix`` holds a matrix
row: int numerators over one positive row denominator, reduced once by
gcd (``rationals._lowest_terms``), so == is value equality.  Beside them
are the row's basis labels and flags; a builder makes each column's label
once per table, not once per entry.  The Euler rows are A's int rows,
the inverse rows P's int rows with the zeta(2K+1) term put over the same
row denominator.  No Fraction is made per coefficient: the exports
format each row's numerators over its denominator in one call
(``rationals._format_row``), and the JSON export joins strings, with
json.dumps only for the header, the targets, the labels and the flags.
Coefficients are serialized as ``"p/q"`` in lowest terms, so tables are
diffable, and a reader that puts each row back over the lcm of its
denominators gets the same canonical row.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .matrices import _check_k, _check_row, _p_rows, build_a
from .rationals import _format_row, _lowest_terms, format_rational

__all__ = [
    "TableRow",
    "CoefficientTable",
    "euler_rhs_coefficients",
    "inverse_reduction_coefficients",
    "h_ab_coefficients",
    "expand_h_to_pi",
    "euler_constant",
    "table_to_json",
    "table_to_csv",
    "PRINTED_CONSTANT",
]

# the constant multiplying zeta(2K+1) as printed in the Euler reduction;
# the numeric audit questions it, so it is a default, never hard-coded
PRINTED_CONSTANT = Fraction(-1, 2)


class TableRow(NamedTuple):
    """One target and its terms: term i is bases[i] times numerators[i] / denominator.

    Built only by ``_row``, which puts the row in lowest terms over a
    positive denominator, so == is value equality.  flags[i] is the
    provenance of term i, or None.
    """

    target: str
    bases: tuple[str, ...]
    numerators: tuple[int, ...]
    denominator: int
    flags: tuple[str | None, ...]


def _row(
    target: str,
    bases: tuple[str, ...],
    nums: Sequence[int],
    den: int,
    flags: tuple[str | None, ...],
) -> TableRow:
    """nums / den in lowest terms, for den > 0."""
    return TableRow(target, bases, *_lowest_terms(nums, den), flags)


class CoefficientTable(NamedTuple):
    kind: str
    params: dict
    rows: tuple[TableRow, ...] = ()


def euler_constant(K: int, r: int) -> Fraction:
    """The exact zeta(2K+1) constant of Euler row r, in the j < m convention.

    c_r = -(1 + C(2K, 2r-1) + C(2K, 2K-2r)) / 2: the printed -1/2 plus the
    s = 0 column of A weighted by zeta(0) = -1/2.  That the numeric audit
    reconstructs this value on every row is checked, not proved: for
    K = 2..12 at 40 digits in the tests, and for K = 2..8 in the benchmark
    oracle.
    """
    _check_row(K, r)
    s0 = math.comb(2 * K, 2 * r - 1) + math.comb(2 * K, 2 * K - 2 * r)
    return Fraction(-(1 + s0), 2)


def euler_rhs_coefficients(
    K: int,
    constants: Sequence[Fraction] | None = None,
    constants_flag: str | None = None,
) -> CoefficientTable:
    """Row r: zeta(2r, 2K+1-2r) as products plus a zeta(2K+1) constant.

    Product coefficients are the rows of A_K.  The zeta(2K+1) constant
    defaults to the printed -1/2 per row, flagged "as printed"; callers
    may supply per-row constants (e.g. the audit's reconstructed ones)
    instead.  Row r is A's int row over the denominator of its constant c_r.
    """
    _check_k(K)
    if constants is None:
        constants = [PRINTED_CONSTANT] * (K - 1)
        flag = "as printed"
    else:
        constants = list(constants)
        flag = constants_flag
    if len(constants) != K - 1:
        raise ValueError(f"need {K - 1} constants, got {len(constants)}")
    bases = (
        f"zeta({2 * K + 1})",
        *(f"zeta({2 * s})*zeta({2 * K + 1 - 2 * s})" for s in range(1, K)),
    )
    flags = (flag,) + (None,) * (K - 1)
    rows = tuple(
        _row(
            f"zeta({2 * r},{2 * K + 1 - 2 * r})",
            bases,
            [c.numerator, *(x * c.denominator for x in a_row)],
            c.denominator,
            flags,
        )
        for r, (c, a_row) in enumerate(zip(constants, build_a(K).numerators), start=1)
    )
    return CoefficientTable(kind="euler_reduction", params={"K": K}, rows=rows)


def inverse_reduction_coefficients(K: int, constants: Sequence[Fraction]) -> CoefficientTable:
    """Row s: zeta(2s) zeta(2K+1-2s) over double zetas and zeta(2K+1).

    Applies P to the Euler rows with per-row constants c: the product
    equals sum_r P_{s,r} zeta(2r, 2K+1-2r) minus (sum_r P_{s,r} c_r)
    times zeta(2K+1).  A vanishing constant term is suppressed.  The sum
    runs in integers: c over one common denominator e, each row of P as
    P's int row n_s over its row denominator d_s, so row s is n_s e and
    -n_s . (e c) over d_s e.  The rows of P are read before any gcd, and
    ``_row`` puts each table row in lowest terms once.
    """
    _check_k(K)
    constants = list(constants)
    if len(constants) != K - 1:
        raise ValueError(f"need {K - 1} constants, got {len(constants)}")
    c_den = math.lcm(*(c.denominator for c in constants))
    c_num = [c.numerator * (c_den // c.denominator) for c in constants]
    p_rows, p_denoms = _p_rows(K, None)
    bases = tuple(f"zeta({2 * r},{2 * K + 1 - 2 * r})" for r in range(1, K))
    with_const = (*bases, f"zeta({2 * K + 1})")
    flags = (None,) * K
    rows = []
    for s, (p_row, p_den) in enumerate(zip(p_rows, p_denoms), start=1):
        target = f"zeta({2 * s})*zeta({2 * K + 1 - 2 * s})"
        const = -sum(map(mul, p_row, c_num))
        if const:
            nums = [x * c_den for x in p_row]
            nums.append(const)
            rows.append(_row(target, with_const, nums, p_den * c_den, flags))
        else:
            rows.append(_row(target, bases, p_row, p_den, flags[1:]))
    return CoefficientTable(
        kind="inverse_reduction",
        params={"K": K, "constants": [format_rational(c) for c in constants]},
        rows=tuple(rows),
    )


def h_ab_coefficients(a: int, b: int) -> CoefficientTable:
    """H(a,b) as a combination of H(K-r) zeta(2r+1), K = a+b+1.

    Coefficient of H(K-r) zeta(2r+1) is
    2 (-1)^r [C(2r, 2a+2) - (1 - 2^{-2r}) C(2r, 2b+1)], which is
    2 (-1)^r [4^K (C(2r, 2a+2) - C(2r, 2b+1)) + 4^(K-r) C(2r, 2b+1)]
    over the row denominator 4^K.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be >= 0")
    K = a + b + 1
    nums = []
    for r in range(1, K + 1):
        c1, c2 = math.comb(2 * r, 2 * a + 2), math.comb(2 * r, 2 * b + 1)
        x = 2 * (((c1 - c2) << 2 * K) + (c2 << 2 * (K - r)))
        nums.append(-x if r % 2 else x)
    bases = tuple(f"H({K - r})*zeta({2 * r + 1})" for r in range(1, K + 1))
    return CoefficientTable(
        kind="h_ab",
        params={"a": a, "b": b, "K": K},
        rows=(_row(f"H({a},{b})", bases, nums, 1 << 2 * K, (None,) * K),),
    )


def expand_h_to_pi(table: CoefficientTable) -> CoefficientTable:
    """Rewrite H(n) factors as pi^{2n} scaled by 1/(2n+1)!.

    Only h_ab tables carry H factors; any other table is returned as it
    is.  In an h_ab row, term r is H(K-r) zeta(2r+1), so it becomes
    pi^{2(K-r)} zeta(2r+1), or zeta(2K+1) at r = K where H(0) = 1, with its
    coefficient divided by (2K-2r+1)!.  The row goes over its denominator
    times (2K-1)!, the largest of those factorials, with numerator r times
    (2K-1)!/(2K-2r+1)!.
    """
    if table.kind != "h_ab":
        return table
    K = table.params["K"]
    big = math.factorial(2 * K - 1)
    bases = tuple(
        f"pi^{2 * (K - r)}*zeta({2 * r + 1})" if r < K else f"zeta({2 * K + 1})"
        for r in range(1, K + 1)
    )
    rows = []
    for row in table.rows:
        nums = [
            x * (big // math.factorial(2 * (K - r) + 1))
            for r, x in enumerate(row.numerators, start=1)
        ]
        rows.append(_row(row.target, bases, nums, row.denominator * big, row.flags))
    return CoefficientTable(table.kind, dict(table.params), tuple(rows))


def table_to_json(table: CoefficientTable) -> str:
    """Deterministic JSON: fixed key order, canonical "p/q" rationals.

    The text is what ``json.dumps`` writes with separators ", " and ": ",
    built by joining strings.  json.dumps encodes the header, each target,
    label and flag; a row's "p/q" texts need no escaping and go in as they
    are.  The rows of a table share their label and flag tuples, so the
    text around each coefficient, ``{"basis": ..., "coeff": "`` before it
    and its flag after it, is encoded once per pair of tuples.
    """
    head = json.dumps({"kind": table.kind, "params": table.params}, separators=(", ", ": "))
    around: dict[tuple, list[tuple[str, str]]] = {}
    rows = []
    for row in table.rows:
        key = (row.bases, row.flags)
        parts = around.get(key)
        if parts is None:
            parts = around[key] = [
                (
                    f'{{"basis": {json.dumps(b)}, "coeff": "',
                    '"}' if f is None else f'", "flag": {json.dumps(f)}}}',
                )
                for b, f in zip(*key)
            ]
        texts = _format_row(row.numerators, row.denominator)
        terms = ", ".join([p + c + e for (p, e), c in zip(parts, texts)])
        rows.append(f'{{"target": {json.dumps(row.target)}, "terms": [{terms}]}}')
    return f'{head[:-1]}, "rows": [{", ".join(rows)}]}}'


def table_to_csv(table: CoefficientTable) -> str:
    """Flatten to CSV, one term per line: target,basis,coeff[,flag]."""
    lines = ["target,basis,coeff,flag"]
    for row in table.rows:
        target = row.target
        texts = _format_row(row.numerators, row.denominator)
        for b, c, f in zip(row.bases, texts, row.flags):
            lines.append(f"{target},{b},{c},{f or ''}")
    return "\n".join(lines) + "\n"
