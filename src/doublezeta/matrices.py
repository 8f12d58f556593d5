"""The (K-1)x(K-1) matrices A, B, C and the inverse formulas P, Q.

Mathematical indices r, s run 1..K-1 and map to zero-based storage by
subtracting 1; that mapping lives entirely in this module.  A is the
integer matrix of Euler-reduction coefficients, B and C its binomial
split (A = B + C), and P, Q the two Bernoulli-sum formulas for A^{-1}
that the package verifies are equal and do invert A.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable

from .bernoulli import BernoulliCache
from .rationals import binomial, format_rational

__all__ = [
    "RationalMatrix",
    "build_a",
    "build_b_part",
    "build_c_part",
    "build_p",
    "build_q",
    "identity_matrix",
    "matrix_multiply",
    "determinant_fraction_free",
    "InverseReport",
    "verify_inverse",
    "pb_closed",
    "pc_closed",
    "verify_closed_forms",
    "matrix_to_json",
]


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    def at(self, i: int, j: int) -> Fraction:
        """Zero-based entry access."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[Fraction]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]


def _from_rows(rows: list[list[int | Fraction]]) -> RationalMatrix:
    return RationalMatrix(
        len(rows), len(rows[0]), tuple(Fraction(x) for row in rows for x in row)
    )


def _check_k(K: int) -> None:
    if K < 2:
        raise ValueError(f"K must be >= 2 (matrices are (K-1)x(K-1)), got {K}")


def build_a(K: int) -> RationalMatrix:
    """A_{r,s} = C(2K-2s, 2r-1) + C(2K-2s, 2K-2r), indices 1..K-1."""
    _check_k(K)
    rows = [
        [
            binomial(2 * K - 2 * s, 2 * r - 1) + binomial(2 * K - 2 * s, 2 * K - 2 * r)
            for s in range(1, K)
        ]
        for r in range(1, K)
    ]
    return _from_rows(rows)


def build_b_part(K: int) -> RationalMatrix:
    """B_{r,s} = C(2K-2s, 2r-1); vanishes when r + s > K."""
    _check_k(K)
    rows = [
        [binomial(2 * K - 2 * s, 2 * r - 1) for s in range(1, K)] for r in range(1, K)
    ]
    return _from_rows(rows)


def build_c_part(K: int) -> RationalMatrix:
    """C_{r,s} = C(2K-2s, 2K-2r); vanishes when r < s."""
    _check_k(K)
    rows = [
        [binomial(2 * K - 2 * s, 2 * K - 2 * r) for s in range(1, K)]
        for r in range(1, K)
    ]
    return _from_rows(rows)


def _bernoulli_weights(K: int, s: int, cache: BernoulliCache) -> tuple[list[int], int]:
    """(2/(2s-1)) C(n+2s-2, n) B_n for n = 0..2K-2s, as integers over one denominator.

    These weights are the part shared by the P, Q, (PB) and (PC) sums;
    only the binomial factor in front of them changes between those.
    """
    terms = [comb(n + 2 * s - 2, n) * cache.get(n) for n in range(2 * K - 2 * s + 1)]
    denom = lcm(*(t.denominator for t in terms))
    return [2 * t.numerator * (denom // t.denominator) for t in terms], (2 * s - 1) * denom


def _bernoulli_sum(
    weights: tuple[list[int], int], coeff: Callable[[int], int], n_start: int = 0
) -> Fraction:
    """sum_{n >= n_start} coeff(n) * weights[n], exactly."""
    nums, denom = weights
    total = sum(coeff(n) * nums[n] for n in range(n_start, len(nums)) if nums[n])
    return Fraction(total, denom)


def build_p(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """P_{s,r} = (2/(2s-1)) sum_n C(2r-1, 2K-2s-n+1) C(n+2s-2, n) B_n.

    The sum runs n = 0..2K-2s; odd-n terms vanish through B_n = 0.
    """
    _check_k(K)
    if cache is None:
        cache = BernoulliCache()
    rows = []
    for s in range(1, K):
        w, top = _bernoulli_weights(K, s, cache), 2 * K - 2 * s + 1
        rows.append(
            [_bernoulli_sum(w, lambda n: comb(2 * r - 1, top - n)) for r in range(1, K)]
        )
    return _from_rows(rows)


def build_q(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """Q_{s,r} = -(2/(2s-1)) sum_n C(2K-2r, 2K-2s-n+1) C(n+2s-2, n) B_n."""
    _check_k(K)
    if cache is None:
        cache = BernoulliCache()
    rows = []
    for s in range(1, K):
        w, top = _bernoulli_weights(K, s, cache), 2 * K - 2 * s + 1
        rows.append(
            [-_bernoulli_sum(w, lambda n: comb(2 * K - 2 * r, top - n)) for r in range(1, K)]
        )
    return _from_rows(rows)


def identity_matrix(n: int) -> RationalMatrix:
    return RationalMatrix(
        n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n))
    )


def matrix_multiply(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )
    out = []
    for i in range(a.rows):
        arow = a.entries[i * a.cols : (i + 1) * a.cols]
        for j in range(b.cols):
            out.append(
                sum(
                    (arow[k] * b.entries[k * b.cols + j] for k in range(a.cols)),
                    Fraction(0),
                )
            )
    return RationalMatrix(a.rows, b.cols, tuple(out))


def determinant_fraction_free(a: RationalMatrix) -> Fraction:
    """Exact determinant by Bareiss (fraction-free) elimination.

    Rows are scaled to integers first; elimination then stays in the
    integers, which keeps intermediate growth under control for the
    integer matrices A_K.
    """
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    scale = Fraction(1)
    m: list[list[int]] = []
    for row in a.row_lists():
        d = lcm(*(x.denominator for x in row))
        scale *= d
        m.append([int(x * d) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1]) / scale


@dataclass(frozen=True)
class InverseReport:
    """Exact verdicts of the inverse-conjecture checks for one K."""

    K: int
    p_eq_q: bool
    pa_is_identity: bool
    ap_is_identity: bool
    det_nonzero: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.p_eq_q
            and self.pa_is_identity
            and self.ap_is_identity
            and self.det_nonzero
        )


def verify_inverse(K: int, cache: BernoulliCache | None = None) -> InverseReport:
    """Exact check that P = Q and P A = A P = I and det A != 0."""
    _check_k(K)
    if cache is None:
        cache = BernoulliCache()
    a = build_a(K)
    p = build_p(K, cache)
    q = build_q(K, cache)
    ident = identity_matrix(K - 1)
    return InverseReport(
        K=K,
        p_eq_q=p == q,
        pa_is_identity=matrix_multiply(p, a) == ident,
        ap_is_identity=matrix_multiply(a, p) == ident,
        det_nonzero=determinant_fraction_free(a) != 0,
    )


def _check_indices(K: int, s: int, sp: int) -> None:
    _check_k(K)
    if not (1 <= s <= K - 1 and 1 <= sp <= K - 1):
        raise IndexError(f"indices (s={s}, s'={sp}) out of range for K={K}")


def _closed_coeff(K: int, s: int, sp: int) -> Callable[[int], int]:
    """n -> C(2K-2s', 2s-2s'+n-1) 2^(2s-2s'+n-2), the (PB)/(PC) binomial factor."""
    top, e = 2 * K - 2 * sp, 2 * s - 2 * sp
    return lambda n: comb(top, e + n - 1) << (e + n - 2)


def pb_closed(K: int, s: int, sp: int, cache: BernoulliCache | None = None) -> Fraction:
    """(P B)_{s,s'} from the closed-form Bernoulli sum, no matrix product.

    For s <= s' the sum starts at n = 2s'-2s+2; for s > s' it starts at
    n = 0 and picks up the B_1 term through the merged power of two.
    """
    _check_indices(K, s, sp)
    if cache is None:
        cache = BernoulliCache()
    n_start = 2 * sp - 2 * s + 2 if s <= sp else 0
    return _bernoulli_sum(_bernoulli_weights(K, s, cache), _closed_coeff(K, s, sp), n_start)


def pc_closed(K: int, s: int, sp: int, cache: BernoulliCache | None = None) -> Fraction:
    """(P C)_{s,s'} from the closed-form case analysis.

    The diagonal case carries the extra 1 contributed by the r = s,
    n = 1 term; off-diagonal cases are the negated companion sums so
    that PB + PC is exactly the identity.
    """
    _check_indices(K, s, sp)
    if cache is None:
        cache = BernoulliCache()
    weights, coeff = _bernoulli_weights(K, s, cache), _closed_coeff(K, s, sp)
    if s == sp:
        return 1 - _bernoulli_sum(weights, coeff, 2)
    if s < sp:
        return -_bernoulli_sum(weights, coeff, 2 * sp - 2 * s + 2)
    return -_bernoulli_sum(weights, coeff, 0)


def verify_closed_forms(
    K: int, cache: BernoulliCache | None = None
) -> list[tuple[int, int, Fraction, Fraction, Fraction, Fraction]]:
    """Exact check that the closed forms equal P B and P C and sum to I.

    Returns every offending entry, in row-major order, as a tuple
    (s, s', pb_closed, pc_closed, (PB)_{s,s'}, (PC)_{s,s'}); an empty
    list means the check passed.
    """
    if cache is None:
        cache = BernoulliCache()
    p = build_p(K, cache)
    pb = matrix_multiply(p, build_b_part(K))
    pc = matrix_multiply(p, build_c_part(K))
    bad = []
    for s in range(1, K):
        for sp in range(1, K):
            vb = pb_closed(K, s, sp, cache)
            vc = pc_closed(K, s, sp, cache)
            pb_sp, pc_sp = pb.at(s - 1, sp - 1), pc.at(s - 1, sp - 1)
            if vb != pb_sp or vc != pc_sp or vb + vc != (1 if s == sp else 0):
                bad.append((s, sp, vb, vc, pb_sp, pc_sp))
    return bad


def matrix_to_json(K: int, name: str, matrix: RationalMatrix) -> str:
    """Serialize to the published JSON schema (row-major, "p/q" entries)."""
    payload = {
        "K": K,
        "name": name,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [
            [format_rational(x) for x in row] for row in matrix.row_lists()
        ],
    }
    return json.dumps(payload, sort_keys=False, separators=(", ", ": "))
