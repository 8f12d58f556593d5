"""Zeta-reduction coefficient tables over a canonical label grammar.

Labels: ``zeta(k)``, ``zeta(k1,k2)``, ``zeta(a)*zeta(b)``, ``H(n)``,
``pi^m``, and products thereof joined by ``*``.  H(n) = pi^{2n}/(2n+1)!,
so ``h_value(n)`` is the rational 1/(2n+1)! that multiplies pi^{2n}.
Coefficients are exact rationals serialized as ``"p/q"``, so tables are
diffable and round-trip bit-exactly through the JSON export.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bernoulli import BernoulliCache
from .matrices import _check_k, build_a, build_p
from .rationals import format_rational, parse_rational

__all__ = [
    "Term",
    "TableRow",
    "CoefficientTable",
    "h_value",
    "euler_rhs_coefficients",
    "inverse_reduction_coefficients",
    "h_ab_coefficients",
    "expand_h_to_pi",
    "euler_constant",
    "table_to_json",
    "table_from_json",
    "table_to_csv",
    "PRINTED_CONSTANT",
]

# the constant multiplying zeta(2K+1) as printed in the Euler reduction;
# the numeric audit questions it, so it is a default, never hard-coded
PRINTED_CONSTANT = Fraction(-1, 2)


@dataclass(frozen=True)
class Term:
    """One basis label with its exact coefficient and optional provenance."""

    basis: str
    coeff: Fraction
    flag: str | None = None


@dataclass(frozen=True)
class TableRow:
    target: str
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class CoefficientTable:
    kind: str
    params: dict
    rows: tuple[TableRow, ...] = field(default_factory=tuple)


def h_value(n: int) -> Fraction:
    """Exact rational coefficient of pi^{2n} in H(n): 1/(2n+1)!."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Fraction(1, math.factorial(2 * n + 1))


def euler_constant(K: int, r: int) -> Fraction:
    """The exact zeta(2K+1) constant of Euler row r, in the j < m convention.

    c_r = -(1 + C(2K, 2r-1) + C(2K, 2K-2r)) / 2: the printed -1/2 plus the
    s = 0 column of A weighted by zeta(0) = -1/2.  The numeric audit
    reconstructs exactly this value on every row.
    """
    _check_k(K)
    if not 1 <= r <= K - 1:
        raise ValueError(f"row r={r} out of range for K={K}")
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
    may supply per-row constants (e.g. audited ones) instead.
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
    rows = []
    for r, a_row in enumerate(build_a(K).numerators, start=1):
        terms = [Term(f"zeta({2 * K + 1})", constants[r - 1], flag)]
        for s, a_rs in enumerate(a_row, start=1):
            terms.append(Term(f"zeta({2 * s})*zeta({2 * K + 1 - 2 * s})", Fraction(a_rs)))
        rows.append(TableRow(f"zeta({2 * r},{2 * K + 1 - 2 * r})", tuple(terms)))
    return CoefficientTable(
        kind="euler_reduction", params={"K": K}, rows=tuple(rows)
    )


def inverse_reduction_coefficients(
    K: int,
    constants: Sequence[Fraction],
    cache: BernoulliCache | None = None,
) -> CoefficientTable:
    """Row s: zeta(2s) zeta(2K+1-2s) over double zetas and zeta(2K+1).

    Applies P to the Euler rows with per-row constants c: the product
    equals sum_r P_{s,r} zeta(2r, 2K+1-2r) minus (sum_r P_{s,r} c_r)
    times zeta(2K+1).  A vanishing constant term is suppressed.  The sum
    runs in integers: c over one common denominator, each row of P as
    build_p's int row over its row denominator.
    """
    _check_k(K)
    constants = list(constants)
    if len(constants) != K - 1:
        raise ValueError(f"need {K - 1} constants, got {len(constants)}")
    c_den = math.lcm(*(c.denominator for c in constants))
    c_num = [c.numerator * (c_den // c.denominator) for c in constants]
    p = build_p(K, cache)
    rows = []
    for s, (p_row, p_den) in enumerate(zip(p.numerators, p.denominators), start=1):
        terms = [
            Term(f"zeta({2 * r},{2 * K + 1 - 2 * r})", Fraction(x, p_den))
            for r, x in enumerate(p_row, start=1)
        ]
        const = Fraction(-sum(x * c for x, c in zip(p_row, c_num)), p_den * c_den)
        if const:
            terms.append(Term(f"zeta({2 * K + 1})", const))
        rows.append(
            TableRow(f"zeta({2 * s})*zeta({2 * K + 1 - 2 * s})", tuple(terms))
        )
    return CoefficientTable(
        kind="inverse_reduction",
        params={"K": K, "constants": [format_rational(c) for c in constants]},
        rows=tuple(rows),
    )


def h_ab_coefficients(a: int, b: int) -> CoefficientTable:
    """H(a,b) as a combination of H(K-r) zeta(2r+1), K = a+b+1.

    Coefficient of H(K-r) zeta(2r+1) is
    2 (-1)^r [C(2r, 2a+2) - (1 - 2^{-2r}) C(2r, 2b+1)].
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be >= 0")
    K = a + b + 1
    terms = []
    for r in range(1, K + 1):
        coeff = (
            2
            * (-1) ** r
            * (
                math.comb(2 * r, 2 * a + 2)
                - (1 - Fraction(1, 4**r)) * math.comb(2 * r, 2 * b + 1)
            )
        )
        terms.append(Term(f"H({K - r})*zeta({2 * r + 1})", coeff))
    return CoefficientTable(
        kind="h_ab",
        params={"a": a, "b": b, "K": K},
        rows=(TableRow(f"H({a},{b})", tuple(terms)),),
    )


def expand_h_to_pi(table: CoefficientTable) -> CoefficientTable:
    """Rewrite H(n) factors as pi^{2n} scaled by 1/(2n+1)!.

    H(0) disappears (it is 1); other factors become pi^{2n} labels with
    the coefficient absorbed.  Only h_ab tables carry H factors.
    """
    rows = []
    for row in table.rows:
        terms = []
        for term in row.terms:
            factors = term.basis.split("*")
            coeff = term.coeff
            out_factors = []
            for f in factors:
                if f.startswith("H(") and f.endswith(")"):
                    n = int(f[2:-1])
                    coeff *= h_value(n)
                    if n > 0:
                        out_factors.append(f"pi^{2 * n}")
                else:
                    out_factors.append(f)
            basis = "*".join(out_factors) if out_factors else "1"
            terms.append(Term(basis, coeff, term.flag))
        rows.append(TableRow(row.target, tuple(terms)))
    return CoefficientTable(table.kind, dict(table.params), tuple(rows))


def table_to_json(table: CoefficientTable) -> str:
    """Deterministic JSON: fixed key order, canonical "p/q" rationals."""
    payload = {
        "kind": table.kind,
        "params": table.params,
        "rows": [
            {
                "target": row.target,
                "terms": [
                    {
                        "basis": t.basis,
                        "coeff": format_rational(t.coeff),
                        **({"flag": t.flag} if t.flag is not None else {}),
                    }
                    for t in row.terms
                ],
            }
            for row in table.rows
        ],
    }
    return json.dumps(payload, separators=(", ", ": "))


def table_from_json(text: str) -> CoefficientTable:
    """Parse the JSON export back to an exact table (bit-exact round trip)."""
    payload = json.loads(text)
    rows = tuple(
        TableRow(
            row["target"],
            tuple(
                Term(t["basis"], parse_rational(t["coeff"]), t.get("flag"))
                for t in row["terms"]
            ),
        )
        for row in payload["rows"]
    )
    return CoefficientTable(payload["kind"], payload["params"], rows)


def table_to_csv(table: CoefficientTable) -> str:
    """Flatten to CSV, one term per line: target,basis,coeff[,flag]."""
    lines = ["target,basis,coeff,flag"]
    for row in table.rows:
        for t in row.terms:
            lines.append(
                f"{row.target},{t.basis},{format_rational(t.coeff)},{t.flag or ''}"
            )
    return "\n".join(lines) + "\n"
