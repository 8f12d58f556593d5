"""The (K-1)x(K-1) matrices A, B, C and the inverse formulas P, Q.

Mathematical indices r, s run 1..K-1 and map to zero-based storage by
subtracting 1; that mapping lives entirely in this module.  A is the
integer matrix of Euler-reduction coefficients, B and C its binomial
split (A = B + C), and P, Q the two Bernoulli-sum formulas for A^{-1}
that the package verifies are equal and do invert A.  P, Q and the (PB)
closed form are int products W G of a Bernoulli weight matrix W (one
denominator per row) with a binomial matrix G.  RationalMatrix keeps that
form, int rows over one denominator per row, and has no algebra.  The
product and the determinant are private helpers on int row lists: every
product skips the zero entries of its left factor (about 3/4 of W), and
the inverse check takes det A != 0 from its exact P A = I check, which
proves it; only when that check fails does Bareiss elimination decide.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .bernoulli import BernoulliCache
from .rationals import format_rational

__all__ = [
    "RationalMatrix",
    "build_a",
    "build_b_part",
    "build_c_part",
    "build_p",
    "build_q",
    "InverseReport",
    "verify_inverse",
    "pb_closed",
    "pc_closed",
    "verify_closed_forms",
    "matrix_to_json",
]


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of exact rationals, (i, j) = numerators[i][j] / denominators[i].

    Built only by ``_from_rows``, which puts each row in lowest terms over a
    positive denominator, so == is value equality.  A, B and C have every
    denominator 1.
    """

    numerators: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]

    @property
    def rows(self) -> int:
        return len(self.numerators)

    @property
    def cols(self) -> int:
        return len(self.numerators[0])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """All entries in row-major order, as reduced Fractions."""
        pairs = zip(self.numerators, self.denominators)
        return tuple(Fraction(x, d) for row, d in pairs for x in row)

    def at(self, i: int, j: int) -> Fraction:
        """Zero-based entry access, as a reduced Fraction."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return Fraction(self.numerators[i][j], self.denominators[i])


def _from_rows(rows: list[list[int]], denoms: list[int] | None = None) -> RationalMatrix:
    """rows[i] / denoms[i] in lowest terms; the denominators are positive and default to 1."""
    denoms = denoms or [1] * len(rows)
    gs = [gcd(d, *row) for row, d in zip(rows, denoms)]
    nums = tuple(tuple(x // g for x in row) for row, g in zip(rows, gs))
    return RationalMatrix(nums, tuple(d // g for d, g in zip(denoms, gs)))


def _check_k(K: int) -> None:
    if K < 2:
        raise ValueError(f"K must be >= 2 (matrices are (K-1)x(K-1)), got {K}")


def _b_rows(K: int) -> list[list[int]]:
    _check_k(K)
    return [[comb(2 * K - 2 * s, 2 * r - 1) for s in range(1, K)] for r in range(1, K)]


def _c_rows(K: int) -> list[list[int]]:
    _check_k(K)
    return [[comb(2 * K - 2 * s, 2 * K - 2 * r) for s in range(1, K)] for r in range(1, K)]


def _a_rows(K: int) -> list[list[int]]:
    return [
        [b + c for b, c in zip(b_row, c_row)]
        for b_row, c_row in zip(_b_rows(K), _c_rows(K))
    ]


def build_a(K: int) -> RationalMatrix:
    """A_{r,s} = C(2K-2s, 2r-1) + C(2K-2s, 2K-2r), indices 1..K-1."""
    return _from_rows(_a_rows(K))


def build_b_part(K: int) -> RationalMatrix:
    """B_{r,s} = C(2K-2s, 2r-1); vanishes when r + s > K."""
    return _from_rows(_b_rows(K))


def build_c_part(K: int) -> RationalMatrix:
    """C_{r,s} = C(2K-2s, 2K-2r); vanishes when r < s."""
    return _from_rows(_c_rows(K))


def _weight_rows(
    K: int, cache: BernoulliCache | None, s_values: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """Rows s of the Bernoulli weight matrix W, and their denominators d_s.

    W[s][j] = 2 C(j-2, j-2s) b_{j-2s} for 2s <= j <= 2K and 0 below, where
    b_n = D B_n over D = lcm of the denominators of B_0..B_{2K-2}, so row s
    is over d_s = (2s-1) D.  j = n + 2s: the binomial factor in front of B_n
    in P, Q and the (PB) closed form depends on j and the column only.
    """
    _check_k(K)
    if cache is None:
        cache = BernoulliCache()
    b, big = cache.scaled(2 * K - 2)
    rows = [
        [2 * comb(j - 2, j - 2 * s) * b[j - 2 * s] if j >= 2 * s else 0 for j in range(2 * K + 1)]
        for s in s_values
    ]
    return rows, [(2 * s - 1) * big for s in s_values]


def _g_p(K: int) -> list[list[int]]:
    """G_P[j][r] = C(2r-1, 2K+1-j), so that P = W G_P."""
    return [[comb(2 * r - 1, 2 * K + 1 - j) for r in range(1, K)] for j in range(2 * K + 1)]


def _g_q(K: int) -> list[list[int]]:
    """G_Q[j][r] = -C(2K-2r, 2K+1-j), so that Q = W G_Q."""
    return [[-comb(2 * K - 2 * r, 2 * K + 1 - j) for r in range(1, K)] for j in range(2 * K + 1)]


def _g_pb(K: int, sp_values: Sequence[int]) -> list[list[int]]:
    """G_PB[j][s'] = C(2K-2s', j-2s'-1) 2^(j-2s'-2) for j >= 2s'+2, and 0 below.

    The zeros are where the closed-form sum starts: at j = 2s'+2 for s <= s';
    for s > s' (sum from n = 0) every nonzero weight has j >= 2s >= 2s'+2.
    """
    return [
        [comb(2 * K - 2 * sp, j - 2 * sp - 1) << (j - 2 * sp - 2) if j >= 2 * sp + 2 else 0
         for sp in sp_values]
        for j in range(2 * K + 1)
    ]


def build_p(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """P_{s,r} = (2/(2s-1)) sum_n C(2r-1, 2K-2s-n+1) C(n+2s-2, n) B_n.

    The sum runs n = 0..2K-2s; odd-n terms vanish through B_n = 0.
    """
    w, denoms = _weight_rows(K, cache, range(1, K))
    return _from_rows(_product(w, _g_p(K)), denoms)


def build_q(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """Q_{s,r} = -(2/(2s-1)) sum_n C(2K-2r, 2K-2s-n+1) C(n+2s-2, n) B_n."""
    w, denoms = _weight_rows(K, cache, range(1, K))
    return _from_rows(_product(w, _g_q(K)), denoms)


def _diagonal(diag: list[int]) -> list[list[int]]:
    return [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]


def _product(a: list[list], b: list[list]) -> list[list]:
    """Product of two matrices given as row lists (int or Fraction entries).

    Each row of a is multiplied only over its nonzero entries.
    """
    width = len(b[0])
    out = []
    for row in a:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            out.append([0] * width)
            continue
        xs = [row[j] for j in nz]
        out.append([sum(map(mul, xs, col)) for col in zip(*(b[j] for j in nz))])
    return out


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square int matrix by Bareiss (fraction-free) elimination, on a copy."""
    m = [list(row) for row in rows]
    n = len(m)
    sign = prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class InverseReport:
    """Exact verdicts of the inverse-conjecture checks for one K.

    ``offending`` holds, for each failed check in the order p_eq_q,
    pa_is_identity, ap_is_identity, its first offending entry in row-major
    order as (check, i, j, value, expected) with one-based indices:
    (s, r) of P against Q, (s, s') of P A and (r, r') of A P against I.
    ``det_nonzero`` and ``ap_is_identity`` are True whenever
    ``pa_is_identity`` is, which proves both (P and A are square);
    otherwise they are the exact verdicts of Bareiss elimination on A and
    of the product A P.
    """

    K: int
    p_eq_q: bool
    pa_is_identity: bool
    ap_is_identity: bool
    det_nonzero: bool
    offending: tuple[tuple[str, int, int, Fraction, Fraction], ...] = ()

    @property
    def all_pass(self) -> bool:
        return (
            self.p_eq_q
            and self.pa_is_identity
            and self.ap_is_identity
            and self.det_nonzero
        )


def _first_offending(
    check: str, x: list[list[int]], y: list[list[int]], denoms: list[int]
) -> tuple[str, int, int, Fraction, Fraction] | None:
    """The first entry where x and y differ, both over the row denominators, or None."""
    if x == y:
        return None
    return next(
        (check, i, j, Fraction(u, d), Fraction(v, d))
        for i, (x_row, y_row, d) in enumerate(zip(x, y, denoms), 1)
        for j, (u, v) in enumerate(zip(x_row, y_row), 1)
        if u != v
    )


def verify_inverse(K: int, cache: BernoulliCache | None = None) -> InverseReport:
    """Exact check that P = Q and P A = A P = I and det A != 0.

    All in integers, with row s of P and of Q as numerators n_s over d_s
    and L = lcm of the d_s: P = Q by equal n_s, P A = I by n_s A = d_s e_s,
    A P = I by A (L P) = L I.  The products skip the zero entries of their
    left factor.  A passing P A = I proves det A != 0 (det P det A = 1),
    and for square matrices it also proves A P = I, so A (L P) and Bareiss
    elimination on A's rows run only when P A = I fails; the verdicts are
    exact either way.
    """
    a = _a_rows(K)
    w, denoms = _weight_rows(K, cache, range(1, K))
    p, q = _product(w, _g_p(K)), _product(w, _g_q(K))
    pq = _first_offending("p_eq_q", p, q, denoms)
    pa = _first_offending("pa_is_identity", _product(p, a), _diagonal(denoms), denoms)
    ap = None
    if pa is not None:
        big = lcm(*denoms)
        lp = [[big // d * x for x in row] for row, d in zip(p, denoms)]
        scale = [big] * (K - 1)
        ap = _first_offending("ap_is_identity", _product(a, lp), _diagonal(scale), scale)
    return InverseReport(
        K=K,
        p_eq_q=pq is None,
        pa_is_identity=pa is None,
        ap_is_identity=ap is None,
        det_nonzero=pa is None or _bareiss(a) != 0,
        offending=tuple(m for m in (pq, pa, ap) if m is not None),
    )


def _check_indices(K: int, s: int, sp: int) -> None:
    _check_k(K)
    if not (1 <= s <= K - 1 and 1 <= sp <= K - 1):
        raise IndexError(f"indices (s={s}, s'={sp}) out of range for K={K}")


def pb_closed(K: int, s: int, sp: int, cache: BernoulliCache | None = None) -> Fraction:
    """(P B)_{s,s'} from the closed-form Bernoulli sum, no matrix product.

    (2/(2s-1)) sum_n C(2K-2s', 2s-2s'+n-1) 2^(2s-2s'+n-2) C(n+2s-2, n) B_n,
    which is row s of W times column s' of G_PB.
    """
    _check_indices(K, s, sp)
    (w,), (denom,) = _weight_rows(K, cache, [s])
    return Fraction(_product([w], _g_pb(K, [sp]))[0][0], denom)


def pc_closed(K: int, s: int, sp: int, cache: BernoulliCache | None = None) -> Fraction:
    """(P C)_{s,s'} = delta_{s,s'} - (P B)_{s,s'}, because P C = P A - P B = I - P B.

    The delta is the extra 1 contributed by the r = s, n = 1 term.
    """
    return (1 if s == sp else 0) - pb_closed(K, s, sp, cache)


def verify_closed_forms(
    K: int, cache: BernoulliCache | None = None
) -> list[tuple[int, int, Fraction, Fraction, Fraction, Fraction]]:
    """Exact check that the closed forms equal P B and P C.

    Compares integer numerators over d_s, row by row.  Returns every
    offending entry, in row-major order, as a tuple
    (s, s', pb_closed, pc_closed, (PB)_{s,s'}, (PC)_{s,s'}); an empty
    list means the check passed.
    """
    w, denoms = _weight_rows(K, cache, range(1, K))
    p = _product(w, _g_p(K))
    pb, pc = _product(p, _b_rows(K)), _product(p, _c_rows(K))
    closed = _product(w, _g_pb(K, range(1, K)))
    bad = []
    for s, (cb_row, pb_row, pc_row, denom) in enumerate(zip(closed, pb, pc, denoms), 1):
        for sp, (vb, xb, xc) in enumerate(zip(cb_row, pb_row, pc_row), 1):
            vc = (denom if s == sp else 0) - vb
            if vb != xb or vc != xc:
                bad.append((s, sp, *(Fraction(x, denom) for x in (vb, vc, xb, xc))))
    return bad


def matrix_to_json(K: int, name: str, matrix: RationalMatrix) -> str:
    """Serialize to the published JSON schema (row-major, "p/q" entries)."""
    payload = {
        "K": K,
        "name": name,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [
            [format_rational(x, d) for x in row]
            for row, d in zip(matrix.numerators, matrix.denominators)
        ],
    }
    return json.dumps(payload, sort_keys=False, separators=(", ", ": "))
