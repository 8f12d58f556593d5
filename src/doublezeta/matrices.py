"""The (K-1)x(K-1) matrices A, B, C and the inverse formulas P, Q.

Mathematical indices r, s run 1..K-1 and map to zero-based storage by
subtracting 1; that mapping lives entirely in this module.  A is the
integer matrix of Euler-reduction coefficients, B and C its binomial
split (A = B + C), and P, Q the two Bernoulli-sum formulas for A^{-1}
that the package verifies are equal and do invert A.  RationalMatrix
holds int rows over one denominator per row, and has no algebra.

Row s of P and of Q is a binomial transform of row s of a Bernoulli
weight matrix W (over d_s), and P A, P B and P C are binomial transforms
of P's columns.  So the exact checks pack each column of W into one int
whose lane s holds row s (``_Lanes``: signed lanes of whole bytes, each
as wide as a proven bound on every value it must hold) and read P, Q,
P A, P B and P C off Pascal tables of those ints (``series._pascal_rows``):
one big-int addition per table entry serves every row at once, and no
entry is multiplied by a binomial.  With every lane value inside its
bound, packed == is entry-wise ==, so each check compares K-1 ints, and
lanes are unpacked only to build a RationalMatrix or to name the entries
of a failed check.  The inverse check takes det A != 0 from its exact
P A = I check, which proves it; only when that check fails do the int
product A (L P) and Bareiss elimination run.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from .bernoulli import BernoulliCache
from .rationals import format_rational
from .series import _pascal_rows

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


class RationalMatrix(NamedTuple):
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


class _Lanes:
    """Signed lanes of whole bytes packed into one int, lane 0 lowest.

    A lane of b bytes holds any v with |v| < 2^(8b-1): the packed int is
    sum_i v_i 2^(8 o_i), o_i the byte offset of lane i, and adding the bias
    sum_i 2^(8b_i - 1) 2^(8 o_i) turns every lane into a digit in
    [1, 2^(8b_i) - 1].  So when every lane value fits, the packed int
    determines the values (== is lane-wise equality).  A packed int is an
    exact sum, so an integer combination of packed ints packs the same
    combination of their lanes, and dividing by 2^k a packed int whose
    lanes are all multiples of 2^k divides each lane.
    """

    def __init__(self, nbytes: Sequence[int]) -> None:
        self.nbytes = tuple(nbytes)
        self.halves = tuple(1 << (8 * b - 1) for b in self.nbytes)
        self.shifts = tuple(8 * o for o in accumulate(self.nbytes, initial=0))
        self.size = self.shifts[-1] // 8
        self.bias = sum(h << t for h, t in zip(self.halves, self.shifts))

    def pack(self, values: Sequence[int]) -> int:
        return sum(v << t for v, t in zip(values, self.shifts) if v)

    def unpack(self, x: int) -> list[int]:
        raw = (x + self.bias).to_bytes(self.size, "little")
        return [
            int.from_bytes(raw[t // 8 : t // 8 + b], "little") - h
            for t, b, h in zip(self.shifts, self.nbytes, self.halves)
        ]

    def unit(self, i: int, v: int) -> int:
        """v in lane i, 0 in every other."""
        return v << self.shifts[i]

    def rows(self, columns: Sequence[int]) -> list[list[int]]:
        """The matrix whose column j is the lanes of columns[j], as row lists."""
        return [list(row) for row in zip(*map(self.unpack, columns))]


def _transform(
    K: int, cache: BernoulliCache | None, scale_bits: int
) -> tuple[list[int], _Lanes, list[int], list[int]]:
    """The d_s, their lanes, y, and T(N) = sum_t C(N,t) y_t for N = 0..2K-2.

    y_0 = 0 and y_t is column 2K+1-t of W packed, so lane s of T(N) is
    sum_j W[s][j] C(N, 2K+1-j): column r of P is T(2r-1), column r of Q is
    -T(2K-2r).  Lane s holds any value of size at most
    2^scale_bits max_j|W[s][j]| + d_s; |T_s(N)| <= 2^N max_j|W[s][j]|, so
    scale_bits >= 2K-2 covers T.
    """
    w, denoms = _weight_rows(K, cache, range(1, K))
    lanes = _Lanes(
        [((max(map(abs, row)) << scale_bits) + d).bit_length() // 8 + 1
         for row, d in zip(w, denoms)]
    )
    y = [0, *map(lanes.pack, list(zip(*w))[: 2 : -1])]
    return denoms, lanes, y, [row[0] for row in _pascal_rows(y, 1)]


def _times_a(K: int, p_cols: Sequence[int], odd: bool = True, even: bool = True) -> list[int]:
    """Columns s' of P A (of P B with even=False, of P C with odd=False), packed as P.

    A_{r,s'} = C(N, 2r-1) + C(N, 2K-2r) with N = 2K-2s', so with c_{2r-1}
    and c_{2K-2r} both column r of P, column s' of P A is
    sum_k C(N,k) c_k.  Its lane s is at most 2^(2K-2) max_r|P[s][r]|.
    """
    c = [0] * (2 * K - 1)
    for r, col in enumerate(p_cols, 1):
        if odd:
            c[2 * r - 1] = col
        if even:
            c[2 * K - 2 * r] = col
    t = [row[0] for row in _pascal_rows(c, 1)]
    return [t[2 * K - 2 * sp] for sp in range(1, K)]


def build_p(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """P_{s,r} = (2/(2s-1)) sum_n C(2r-1, 2K-2s-n+1) C(n+2s-2, n) B_n.

    The sum runs n = 0..2K-2s; odd-n terms vanish through B_n = 0.
    """
    denoms, lanes, _, t = _transform(K, cache, 2 * K - 2)
    return _from_rows(lanes.rows([t[2 * r - 1] for r in range(1, K)]), denoms)


def build_q(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """Q_{s,r} = -(2/(2s-1)) sum_n C(2K-2r, 2K-2s-n+1) C(n+2s-2, n) B_n."""
    denoms, lanes, _, t = _transform(K, cache, 2 * K - 2)
    return _from_rows(lanes.rows([-t[2 * K - 2 * r] for r in range(1, K)]), denoms)


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


class InverseReport(NamedTuple):
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


def _inverse_columns(
    K: int, cache: BernoulliCache | None
) -> tuple[list[int], _Lanes, list[int], list[int], list[int]]:
    """The d_s, their lanes, and the packed columns of P, Q and P A.

    |P[s][r]| = |T_s(2r-1)| <= 2^(2K-3) max|W_s|, so every lane holds
    |(P A)_s| <= 2^(2K-2) 2^(2K-3) max|W_s| and d_s.
    """
    denoms, lanes, _, t = _transform(K, cache, 4 * K - 5)
    p_cols = [t[2 * r - 1] for r in range(1, K)]
    q_cols = [-t[2 * K - 2 * r] for r in range(1, K)]
    return denoms, lanes, p_cols, q_cols, _times_a(K, p_cols)


def verify_inverse(K: int, cache: BernoulliCache | None = None) -> InverseReport:
    """Exact check that P = Q and P A = A P = I and det A != 0.

    All in integers, with row s of P and of Q as numerators n_s over d_s
    and L = lcm of the d_s: P = Q by equal n_s, P A = I by n_s A = d_s e_s,
    A P = I by A (L P) = L I.  P, Q and P A are read off two Pascal
    transforms of packed columns (``_inverse_columns``), so each check
    compares K-1 packed ints, and the rows are unpacked only to name the
    first offending entry of a failed check.  A passing P A = I proves
    det A != 0 (det P det A = 1), and for square matrices it also proves
    A P = I, so A (L P) and Bareiss elimination on A's rows run only when
    P A = I fails; the verdicts are exact either way.
    """
    denoms, lanes, p_cols, q_cols, pa_cols = _inverse_columns(K, cache)
    pq = pa = ap = None
    if p_cols != q_cols:
        pq = _first_offending("p_eq_q", lanes.rows(p_cols), lanes.rows(q_cols), denoms)
    if pa_cols != [lanes.unit(i, d) for i, d in enumerate(denoms)]:
        pa = _first_offending("pa_is_identity", lanes.rows(pa_cols), _diagonal(denoms), denoms)
        a, big = _a_rows(K), lcm(*denoms)
        lp = [[big // d * x for x in row] for row, d in zip(lanes.rows(p_cols), denoms)]
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
    return Fraction(sum(map(mul, w, (g for g, in _g_pb(K, [sp])))), denom)


def pc_closed(K: int, s: int, sp: int, cache: BernoulliCache | None = None) -> Fraction:
    """(P C)_{s,s'} = delta_{s,s'} - (P B)_{s,s'}, because P C = P A - P B = I - P B.

    The delta is the extra 1 contributed by the r = s, n = 1 term.
    """
    return (1 if s == sp else 0) - pb_closed(K, s, sp, cache)


def _closed_form_columns(
    K: int, cache: BernoulliCache | None
) -> tuple[list[int], _Lanes, list[int], list[int], list[int]]:
    """The d_s, their lanes, and the packed columns of the (PB) closed form, P B and P C.

    With N = 2K-2s' and j = 2K+1-N+m, G_PB[j][s'] = C(N,m) 2^(m-1) for
    m >= 1, so column s' of the closed form is
    sum_{m>=1} C(N,m) 2^(m-1) y_{N-m} = (S(N) - y_N) / 2 with
    S(N) = sum_k C(N,k) 2^(N-k) y_k, which is 2^(N-2K+2) times entry 0 of
    row N of the Pascal table of y_k 2^(2K-2-k).  Its lane s is at most
    3^N max|W_s| / 2; P B and P C are bounded as P A is, and d_s - closed
    fits as well.
    """
    _check_k(K)
    top = 2 * K - 2
    denoms, lanes, y, t = _transform(K, cache, max(4 * K - 5, (3**top).bit_length()))
    s_table = [row[0] for row in _pascal_rows([x << (top - k) for k, x in enumerate(y)], 1)]
    closed = [((s_table[n] >> (top - n)) - y[n]) >> 1 for n in range(top, 0, -2)]
    p_cols = [t[2 * r - 1] for r in range(1, K)]
    pb, pc = _times_a(K, p_cols, even=False), _times_a(K, p_cols, odd=False)
    return denoms, lanes, closed, pb, pc


def verify_closed_forms(
    K: int, cache: BernoulliCache | None = None
) -> list[tuple[int, int, Fraction, Fraction, Fraction, Fraction]]:
    """Exact check that the closed forms equal P B and P C.

    Compares packed columns of integer numerators over d_s
    (``_closed_form_columns``), and unpacks them only when one differs.
    Returns every offending entry, in row-major order, as a tuple
    (s, s', pb_closed, pc_closed, (PB)_{s,s'}, (PC)_{s,s'}); an empty
    list means the check passed.
    """
    denoms, lanes, closed, pb, pc = _closed_form_columns(K, cache)
    ones = [lanes.unit(i, d) for i, d in enumerate(denoms)]
    if pb == closed and pc == list(map(sub, ones, closed)):
        return []
    bad = []
    rows = zip(lanes.rows(closed), lanes.rows(pb), lanes.rows(pc), denoms)
    for s, (cb_row, pb_row, pc_row, denom) in enumerate(rows, 1):
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
