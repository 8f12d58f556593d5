"""The (K-1)x(K-1) matrices A, B, C and the inverse formulas P, Q.

Mathematical indices r, s run 1..K-1 and map to zero-based storage by
subtracting 1; that mapping lives entirely in this module.  A is the
integer matrix of Euler-reduction coefficients, B and C its binomial
split (A = B + C), and P, Q the two Bernoulli-sum formulas for A^{-1}
that the package verifies are equal and do invert A.  RationalMatrix
holds int rows over one denominator per row, and has no algebra.

Row s of P and of Q is a binomial transform of row s of a Bernoulli
weight matrix W (over d_s).  So the exact checks pack each column of W
into one int whose lane s holds row s (``_Lanes``: signed lanes of whole
bytes, each as wide as a proven bound on every value it must hold) and
read P and Q off one Pascal table of those ints (``series._pascal_rows``):
one big-int addition per table entry serves every row at once, and no
entry is multiplied by a binomial.  With every lane value inside its
bound, packed == is entry-wise ==, so each compare is K-1 ints, and lanes
are unpacked only to build a RationalMatrix or to name the entries of a
failed check.  Unpacking (``_Lanes.rows``) turns each packed column into
bytes once and reads row s as lane s's bytes of every column.  Neither
check needs a product to pass: for any Bernoulli values
P A = (P - Q) C - Y with Y[s][s'] = W[s][2s'+1], and P B is the (PB)
closed form, so P = Q and Y = -diag(d_s) on that one table prove
P A = I, P C = I - P B and P B = closed (``_proves_inverse``).  P A = I
proves det A != 0 as well.  Only when a compare fails are P A, P B, P C
and the closed form formed from their definitions, and Bareiss
elimination run on A.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul
from typing import NamedTuple

from .bernoulli import BernoulliCache
from .rationals import _format_row, _lowest_terms
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
    nums, dens = zip(*map(_lowest_terms, rows, denoms))
    return RationalMatrix(nums, dens)


def _check_k(K: int) -> None:
    if K < 2:
        raise ValueError(f"K must be >= 2 (matrices are (K-1)x(K-1)), got {K}")


def _check_row(K: int, r: int) -> None:
    _check_k(K)
    if not 1 <= r <= K - 1:
        raise ValueError(f"row r={r} out of range for K={K}")


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
    Only the n with b_n != 0 (0, 1 and the even n, for the true B_n) take a
    binomial and a product; every other entry is a plain 0.
    """
    _check_k(K)
    if cache is None:
        cache = BernoulliCache()
    b, big = cache.scaled(2 * K - 2)
    nonzero = [(n, x) for n, x in enumerate(b) if x]
    rows = []
    for s in s_values:
        row = [0] * (2 * K + 1)
        for n, x in nonzero:
            if n > 2 * K - 2 * s:
                break
            row[n + 2 * s] = 2 * comb(n + 2 * s - 2, n) * x
        rows.append(row)
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
        self.offsets = tuple(accumulate(self.nbytes, initial=0))
        self.shifts = tuple(8 * o for o in self.offsets)
        self.size = self.offsets[-1]
        self.bias = sum(h << t for h, t in zip(self.halves, self.shifts))

    def pack(self, values: Sequence[int]) -> int:
        return sum(v << t for v, t in zip(values, self.shifts) if v)

    def unit(self, i: int, v: int) -> int:
        """v in lane i, 0 in every other."""
        return v << self.shifts[i]

    def rows(self, columns: Sequence[int]) -> list[list[int]]:
        """The matrix whose column j is the lanes of columns[j], as row lists.

        Each column is turned to bytes once; row i reads lane i's bytes,
        from offsets[i] on, of every column.
        """
        bias, size = self.bias, self.size
        raws = [(x + bias).to_bytes(size, "little") for x in columns]
        return [
            [int.from_bytes(raw[o : o + b], "little") - h for raw in raws]
            for o, b, h in zip(self.offsets, self.nbytes, self.halves)
        ]


def _pqy_columns(
    K: int, cache: BernoulliCache | None
) -> tuple[list[int], _Lanes, list[int], list[int], list[int]]:
    """The d_s, their lanes, and the packed columns of P, Q and Y.

    With y_0 = 0 and y_t column 2K+1-t of W packed, lane s of
    T(N) = sum_t C(N,t) y_t is sum_j W[s][j] C(N, 2K+1-j): column r of P is
    T(2r-1), column r of Q is -T(2K-2r), and column s' of Y is y_N = column
    2s'+1 of W, with N = 2K-2s'.  Lane s holds any value of size at most
    2^(2K-2) max_j|W[s][j]| + d_s, and |T_s(N)| <= 2^N max_j|W[s][j]|, so
    every value a check compares (an entry of P, Q or W, or d_s) fits.
    """
    w, denoms = _weight_rows(K, cache, range(1, K))
    lanes = _Lanes(
        [((max(map(abs, row)) << (2 * K - 2)) + d).bit_length() // 8 + 1
         for row, d in zip(w, denoms)]
    )
    y = [0, *map(lanes.pack, list(zip(*w))[: 2 : -1])]
    t = [row[0] for row in _pascal_rows(y, 1)]
    p_cols = [t[2 * r - 1] for r in range(1, K)]
    q_cols = [-t[2 * K - 2 * r] for r in range(1, K)]
    return denoms, lanes, p_cols, q_cols, [y[2 * K - 2 * sp] for sp in range(1, K)]


def _proves_inverse(
    denoms: list[int], lanes: _Lanes, p_cols: list[int], q_cols: list[int], y_cols: list[int]
) -> bool:
    """P = Q and Y = -diag(d_s), as packed compares: then P A = I (``verify_inverse``)."""
    return p_cols == q_cols and y_cols == [-lanes.unit(i, d) for i, d in enumerate(denoms)]


def build_p(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """P_{s,r} = (2/(2s-1)) sum_n C(2r-1, 2K-2s-n+1) C(n+2s-2, n) B_n.

    The sum runs n = 0..2K-2s; odd-n terms vanish through B_n = 0.
    """
    denoms, lanes, p_cols, _, _ = _pqy_columns(K, cache)
    return _from_rows(lanes.rows(p_cols), denoms)


def build_q(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """Q_{s,r} = -(2/(2s-1)) sum_n C(2K-2r, 2K-2s-n+1) C(n+2s-2, n) B_n."""
    denoms, lanes, _, q_cols, _ = _pqy_columns(K, cache)
    return _from_rows(lanes.rows(q_cols), denoms)


def _diagonal(diag: list[int]) -> list[list[int]]:
    return [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]


def _product(a: list[list], b: list[list]) -> list[list]:
    """Product of two matrices given as row lists (int or Fraction entries)."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


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
    pa_is_identity, its first offending entry in row-major order as
    (check, i, j, value, expected) with one-based indices: (s, r) of P
    against Q and (s, s') of P A against I.  P and A are square, so
    P A = I is A P = I as well.  ``det_nonzero`` is True whenever
    ``pa_is_identity`` is, which proves it; otherwise it is the exact
    verdict of Bareiss elimination on A.
    """

    K: int
    p_eq_q: bool
    pa_is_identity: bool
    det_nonzero: bool
    offending: tuple[tuple[str, int, int, Fraction, Fraction], ...] = ()

    @property
    def all_pass(self) -> bool:
        return self.p_eq_q and self.pa_is_identity and self.det_nonzero


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
    """Exact check that P = Q and P A = I and det A != 0.

    All in integers, with row s of P and of Q as numerators n_s over d_s:
    P = Q by equal n_s, P A = I by n_s A = d_s e_s.  P and A are square,
    so P A = I is A P = I as well.  Passing needs no product, because

        P A = (P - Q) C - Y,   Y[s][s'] = W[s][2s'+1],

    for any Bernoulli values.  Proof: with N = 2K-2s', T(2r-1) = P_r and
    T(2K-2r) = -Q_r, column s' of P A is
    sum_r P_r (C(N,2r-1) + C(N,2K-2r)) = sum_r (P_r - Q_r) C(N,2K-2r)
    - sum_k (-1)^k C(N,k) T(k), and the last sum is (-1)^N y_N = y_N by
    binomial inversion (T(0) = y_0 = 0, N even).  For the true B_n,
    W[s][2s'+1] = 2 C(2s'-1, n) b_n with n = 2s'+1-2s vanishes unless
    n = 1, where it is 2 (2s-1) D B_1 = -d_s: so P = Q and Y = -diag(d_s)
    give P A = I.  Both are checked as K-1 packed compares each
    (``_proves_inverse``), and a passing P A = I proves det A != 0
    (det P det A = 1).  Only when a compare fails are P and Q unpacked,
    P A formed from its definition with A's rows, Bareiss elimination run
    on those rows if P A = I fails, and the first offending entries
    named; the verdicts are exact either way.
    """
    columns = _pqy_columns(K, cache)
    if _proves_inverse(*columns):
        return InverseReport(K, True, True, True)
    denoms, lanes, p_cols, q_cols, _ = columns
    p, q, a = lanes.rows(p_cols), lanes.rows(q_cols), _a_rows(K)
    pq = _first_offending("p_eq_q", p, q, denoms)
    pa = _first_offending("pa_is_identity", _product(p, a), _diagonal(denoms), denoms)
    return InverseReport(
        K=K,
        p_eq_q=pq is None,
        pa_is_identity=pa is None,
        det_nonzero=pa is None or _bareiss(a) != 0,
        offending=tuple(m for m in (pq, pa) if m is not None),
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


def verify_closed_forms(
    K: int, cache: BernoulliCache | None = None
) -> list[tuple[int, int, Fraction, Fraction, Fraction, Fraction]]:
    """Exact check that the closed forms equal P B and P C.

    Passes on the inverse check's compares (``_proves_inverse``), because
    P A = I, hence P C = I - P B, and P B = closed for any W.  Proof of the
    last: with N = 2K-2s', column s' of P B is sum_{k odd} C(N,k) T(k);
    sum_k C(N,k) T(k) = sum_t C(N,t) 2^(N-t) y_t = S(N), as
    sum_k C(N,k) C(k,t) = C(N,t) 2^(N-t), and sum_k (-1)^k C(N,k) T(k) = y_N
    (``verify_inverse``), so it is (S(N) - y_N) / 2; and the closed form is
    sum_{m>=1} C(N,m) 2^(m-1) y_{N-m} = (S(N) - y_N) / 2, as
    G_PB[j][s'] = C(N,m) 2^(m-1) at j = 2K+1-N+m >= 2s'+2.  Only when a
    compare fails are P unpacked and the closed form W G_PB, P B and P C
    formed from their definitions.  Returns every offending entry, in
    row-major order, as a tuple (s, s', pb_closed, delta_{s,s'} - pb_closed,
    (PB)_{s,s'}, (PC)_{s,s'}); an empty list means the check passed.
    """
    columns = _pqy_columns(K, cache)
    if _proves_inverse(*columns):
        return []
    denoms, lanes, p_cols, _, _ = columns
    p = lanes.rows(p_cols)
    w, _ = _weight_rows(K, cache, range(1, K))
    closed = _product(w, _g_pb(K, range(1, K)))
    rows = zip(closed, _product(p, _b_rows(K)), _product(p, _c_rows(K)), denoms)
    bad = []
    for s, (cb_row, pb_row, pc_row, denom) in enumerate(rows, 1):
        for sp, (vb, xb, xc) in enumerate(zip(cb_row, pb_row, pc_row), 1):
            vc = (denom if s == sp else 0) - vb
            if vb != xb or vc != xc:
                bad.append((s, sp, *(Fraction(x, denom) for x in (vb, vc, xb, xc))))
    return bad


def matrix_to_json(K: int, name: str, matrix: RationalMatrix) -> str:
    """Serialize to the published JSON schema (row-major, "p/q" entries).

    The text is what ``json.dumps`` writes with separators ", " and ": ",
    built by joining strings: json.dumps encodes only the header, and each
    row's "p/q" texts, which need no escaping, are joined in as they are.
    """
    head = json.dumps(
        {"K": K, "name": name, "rows": matrix.rows, "cols": matrix.cols},
        separators=(", ", ": "),
    )
    rows = "], [".join(
        '"' + '", "'.join(texts) + '"' if texts else ""
        for texts in map(_format_row, matrix.numerators, matrix.denominators)
    )
    return f'{head[:-1]}, "entries": [[{rows}]]}}'
