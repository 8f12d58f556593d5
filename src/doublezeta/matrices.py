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
bytes), adding each entry into its column as its row is built, and read
P and Q off one Pascal table of those ints (``series._pascal_columns``),
which stops at T(2K-2), the last binomial sum P and Q read: one big-int
addition per table entry serves every row at once, and no entry is
multiplied by a binomial.  Lane s is as wide as a proven bound on every
value it must hold (``_lane_bytes``): T_s(N), N <= 2K-2, is a sum of
count_s terms C(N, t) W[s][2K+1-t] with C(N, t) <= C(2K-2, t), so
|T_s(N)| < count_s 2^top_s, top_s the largest bitlen W[s][j] +
bitlen C(2K-2, 2K+1-j) over the row's packed entries, and the entries of
W and d_s fit as well.  With every lane value inside its bound, packed
== is entry-wise ==, so each compare is K-1 ints, and lanes
are unpacked only to build a RationalMatrix or to name the entries of a
failed check.  Unpacking (``_Lanes.rows``) turns each packed column into
bytes once and reads row s as lane s's bytes of every column.  Neither
check needs a product to pass: for any Bernoulli values
P A = (P - Q) C - Y with Y[s][s'] = W[s][2s'+1], and P B is the (PB)
closed form, so P = Q and Y = -diag(d_s) on that one table prove
P A = I, P C = I - P B and P B = closed (``_sweep``; the proofs are in
``verify_inverse_sweep`` and ``verify_closed_forms_sweep``).  P A = I
proves det A != 0 as well.  Only when a compare fails are P, Q and W
unpacked from the table the compares read, P A, P B, P C and the closed
form formed from their definitions, and Bareiss elimination run on A.

A sweep over K = k_min..k_max reads every K off the one table of k_max
(``_sweep``), a failing K included, so it costs about as much as k_max
alone.  Shift identity: W[s][j] = 2 C(j-2, j-2s) b_{j-2s} does not depend
on K, so with k_max's scale D for every K, K's packed columns are k_max's
columns y_t shifted by c = 2(k_max-K): y^K_t = y_{t+c} on the lanes s < K
for t >= 1 (both hold column 2K+1-t of W), and y^K_0 = 0 leaves out the
column 2K+1 that y_c holds.  So for N <= 2K-2, on the lanes s < K,

    T_K(N) = row_N[c] - y_c,   row_N[c] = sum_t C(N, t) y_{c+t},

as C(N, t) = 0 for t > N, and c + N <= 2 k_max - 2 keeps the read inside
k_max's table.  The lanes s >= K hold other rows, so K's compares are
read modulo 2^(8 o_K), o_K the byte offset of lane K.  That is exact:
k_max's lane s bounds each value K compares in it, as K's row packs a
subset of k_max's entries and C(N, t) <= C(2K-2, t) <= C(2k_max-2, t+c);
so the lanes s < K of both sides fit with a spare sign bit, and then the
two sides agree modulo 2^(8 o_K) exactly when they agree lane by lane,
and K's lanes unpack each side modulo 2^(8 o_K) (``_k_columns``).
Scaling by k_max's D instead of K's multiplies P, Q, W and d_s alike, so
no verdict and no reported value changes.  The table is read column by
column from the right, column_i = accumulate(column_{i+1}, initial=y_i),
and K is checked as soon as column c exists: one column, O(k_max) ints,
is held at a time.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb
from operator import mul
from typing import NamedTuple

from .bernoulli import BernoulliCache
from .rationals import _format_row, _lowest_terms
from .series import _pascal_columns

__all__ = [
    "RationalMatrix",
    "build_a",
    "build_b_part",
    "build_c_part",
    "build_p",
    "build_q",
    "InverseReport",
    "verify_inverse_sweep",
    "verify_closed_forms_sweep",
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


def _g_pb(K: int) -> list[list[int]]:
    """Rows j = 2K, ..., 3 of G_PB, the closed form's binomial weights.

    G_PB[j][s'] = C(2K-2s', j-2s'-1) 2^(j-2s'-2) for j >= 2s'+2, and 0
    below.  The zeros are where the closed-form sum starts: at j = 2s'+2
    for s <= s'; for s > s' (sum from n = 0) every nonzero weight has
    j >= 2s >= 2s'+2.  So G_PB is 0 on the rows j < 4, and the closed form
    W G_PB is W's columns 2K, ..., 3 (y_1, ..., y_{2K-2}) times these rows.
    """
    return [
        [comb(2 * K - 2 * sp, j - 2 * sp - 1) << (j - 2 * sp - 2) if j >= 2 * sp + 2 else 0
         for sp in range(1, K)]
        for j in range(2 * K, 2, -1)
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

    @cached_property
    def bias(self) -> int:
        """sum_i 2^(8b_i - 1) 2^(8 o_i), read only to unpack (``rows``)."""
        return sum(h << t for h, t in zip(self.halves, self.shifts))

    def unit(self, i: int, v: int) -> int:
        """v in lane i, 0 in every other."""
        return v << self.shifts[i]

    def rows(self, columns: Sequence[int]) -> list[list[int]]:
        """The matrix whose column j is the lanes of columns[j], as row lists.

        Each column is turned to bytes once, modulo 2^(8 size), so any int
        whose low lanes hold these lanes' values unpacks to them: a table
        packed with more lanes is read on its first ones.  Row i reads lane
        i's bytes, from offsets[i] on, of every column.
        """
        bias, size = self.bias, self.size
        mask = (1 << 8 * size) - 1
        raws = [((x + bias) & mask).to_bytes(size, "little") for x in columns]
        return [
            [int.from_bytes(raw[o : o + b], "little") - h for raw in raws]
            for o, b, h in zip(self.offsets, self.nbytes, self.halves)
        ]


# K's d_s, lanes s < K and the packed columns of P, Q and W (``_k_columns``)
_KColumns = tuple[list[int], _Lanes, list[int], list[int], list[int]]


def _lane_bytes(top: int, count: int, d: int) -> int:
    """Bytes of the lane of a W row over d, packed as count entries W[s][j], j >= 3.

    top is the largest bitlen W[s][j] + bitlen C(2K-2, 2K+1-j) over those
    entries.  For N <= 2K-2, C(N, t) <= C(2K-2, t), so every T_s(N) has
    |T_s(N)| <= sum_t C(2K-2, t) |W[s][2K+1-t]| < count 2^top; with
    |W[s][j]| < 2^top and d < 2^bitlen(d), a lane of
    (max(top, bitlen d) + bitlen count) // 8 + 1 bytes holds each of them
    with a spare sign bit, whatever the Bernoulli values.
    """
    return (max(top, d.bit_length()) + count.bit_length()) // 8 + 1


def _packed_weights(K: int, cache: BernoulliCache | None) -> tuple[list[int], _Lanes, list[int]]:
    """The d_s, their lanes, and W's columns packed: y_0 = 0 and y_t = column 2K+1-t, t = 1..2K-2.

    W[s][j] = 2 C(j-2, j-2s) b_{j-2s} for 2s <= j <= 2K and 0 below, where
    b_n = D B_n over D = lcm of the denominators of B_0..B_{2K-2}, so row s
    is over d_s = (2s-1) D.  j = n + 2s: the binomial factor in front of B_n
    in P, Q and the (PB) closed form depends on j and the column only.
    Only the n with b_n != 0 (0, 1 and the even n, for the true B_n) take a
    binomial and a product.  Row s is packed as it is built: each nonzero
    W[s][j], j >= 3, is added into y_{2K+1-j} shifted to lane s, whose
    offset is known once rows 1..s-1 are sized, so W is never held as a
    matrix.  Lane s is sized by ``_lane_bytes`` from the row's packed
    entries: their count, and the largest bitlen W[s][j] +
    bitlen C(2K-2, 2K+1-j), which bounds every value a check compares and
    every value ``_k_columns`` unpacks.
    """
    _check_k(K)
    if cache is None:
        cache = BernoulliCache()
    b, big = cache.scaled(2 * K - 2)
    nonzero = [(n, x) for n, x in enumerate(b) if x]
    cbits = [comb(2 * K - 2, t).bit_length() for t in range(2 * K - 1)]
    y = [0] * (2 * K - 1)
    nbytes, denoms, shift = [], [], 0
    for s in range(1, K):
        d = (2 * s - 1) * big
        top = count = 0
        for n, x in nonzero:
            t = 2 * K + 1 - 2 * s - n  # W[s][j], j = n + 2s, goes to y_t
            if t < 1:
                break
            if t <= 2 * K - 2:
                v = 2 * comb(2 * s - 2 + n, n) * x
                y[t] += v << shift
                bits = v.bit_length() + cbits[t]
                if bits > top:
                    top = bits
                count += 1
        nbytes.append(_lane_bytes(top, count, d))
        denoms.append(d)
        shift += 8 * nbytes[-1]
    return denoms, _Lanes(nbytes), y


def _k_columns(denoms: list[int], lanes: _Lanes, y: list[int], col: list[int]) -> _KColumns:
    """K's d_s, its lanes, and the packed columns of P, Q and W, off column c of y's table.

    y, denoms and lanes are k_max's (k_max >= K), and col is column
    c = 2(k_max-K) of y's table (``_sweep``), so len(col) = 2K-1.
    On the lanes s < K, T_K(N) = col[N] - y_c (the module docstring's shift
    identity): column r of P is T_K(2r-1), column r of Q is -T_K(2K-2r),
    and W's columns 2K, ..., 3 are K's y_1, ..., y_{2K-2}, which are
    y_{c+1}, ..., y_{c+2K-2}.  K's lanes, the first K-1 of k_max's, unpack
    these ints modulo 2^(8 o_K) (``_Lanes.rows``).  Everything is in
    k_max's scale, the d_s too, so each row over its d_s is K's own.
    """
    K = (len(col) + 1) // 2
    c = len(y) - len(col)
    y_c = y[c]
    return (
        denoms[: K - 1],
        _Lanes(lanes.nbytes[: K - 1]),
        [x - y_c for x in col[1::2]],
        [y_c - x for x in col[:0:-2]],
        y[c + 1 : c + 2 * K - 1],
    )


def _sweep(
    k_min: int, k_max: int, cache: BernoulliCache | None
) -> Iterator[tuple[int, _KColumns | None]]:
    """(K, None) for each K = k_min..k_max whose compares pass, else (K, ``_k_columns``).

    All are read off the Pascal table of y, k_max's packed columns: K's
    column is row_N[c], N = 0..2K-2, c = 2(k_max-K), and row_N[c] - y_c is
    T_K(N) on the lanes s < K (the shift identity of the module docstring).
    The compares are P = Q and Y = -diag(d_s): P_r - Q_r = row_{2r-1}[c] +
    row_{2K-2r}[c] - 2 y_c and column s' of Y is y_{2 k_max - 2s'} on the
    lanes s < K, each compared modulo 2^(8 o_K) (the module docstring).  A
    failing K is read off the same column, so the table is built once
    whatever the verdicts.  Every K is checked (K >= 2) before any work;
    an empty range yields nothing.
    """
    _check_k(k_min)
    if k_max < k_min:
        return
    denoms, lanes, y = _packed_weights(k_max, cache)
    y_pairs = [(x, -lanes.unit(i, d)) for i, (x, d) in enumerate(zip(y[:0:-2], denoms))]
    for col in _pascal_columns(y):
        c = len(y) - len(col)
        if c % 2 == 0 and c <= 2 * (k_max - k_min):
            K = k_max - c // 2
            mask = (1 << lanes.shifts[K - 1]) - 1
            twice_yc = (2 * y[c]) & mask
            passes = all(
                (u + v) & mask == twice_yc for u, v in zip(col[1::2], col[:0:-2])
            ) and all((x - e) & mask == 0 for x, e in y_pairs[: K - 1])
            yield K, None if passes else _k_columns(denoms, lanes, y, col)


def _own_columns(K: int, cache: BernoulliCache | None) -> _KColumns:
    """``_k_columns`` at c = 0: K's own table, whose last column is row_N[0].

    The table is walked holding one column at a time, not stored.
    """
    denoms, lanes, y = _packed_weights(K, cache)
    (col,) = deque(_pascal_columns(y), maxlen=1)
    return _k_columns(denoms, lanes, y, col)


def _p_rows(K: int, cache: BernoulliCache | None) -> tuple[list[list[int]], list[int]]:
    """P's int rows n_s over their row denominators d_s, not yet in lowest terms."""
    denoms, lanes, p_cols, _, _ = _own_columns(K, cache)
    return lanes.rows(p_cols), denoms


def build_p(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """P_{s,r} = (2/(2s-1)) sum_n C(2r-1, 2K-2s-n+1) C(n+2s-2, n) B_n.

    The sum runs n = 0..2K-2s; odd-n terms vanish through B_n = 0.
    """
    return _from_rows(*_p_rows(K, cache))


def build_q(K: int, cache: BernoulliCache | None = None) -> RationalMatrix:
    """Q_{s,r} = -(2/(2s-1)) sum_n C(2K-2r, 2K-2s-n+1) C(n+2s-2, n) B_n."""
    denoms, lanes, _, q_cols, _ = _own_columns(K, cache)
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


def verify_inverse_sweep(
    k_min: int, k_max: int, cache: BernoulliCache | None = None
) -> list[InverseReport]:
    """Exact check that P = Q and P A = I and det A != 0, for K = k_min..k_max.

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
    give P A = I.  Both are checked as K-1 packed compares each, and a
    passing P A = I proves det A != 0 (det P det A = 1).  Every K is read
    off the one table of k_max (``_sweep``, by the module docstring's shift
    identity), so the range costs about as much as k_max alone.

    Only when a compare fails are P and Q unpacked, from the column the
    compares read (``_k_columns``), P A formed from its definition with
    A's rows, Bareiss elimination run on those rows if P A = I fails, and
    the first offending entries named; the verdicts are exact either way.
    """
    return [InverseReport(K, True, True, True) if cols is None else _inverse_failure(K, cols)
            for K, cols in _sweep(k_min, k_max, cache)]


def _inverse_failure(K: int, cols: _KColumns) -> InverseReport:
    """The report of a K whose compares failed, from P and Q unpacked and P A formed."""
    denoms, lanes, p_cols, q_cols, _ = cols
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


def verify_closed_forms_sweep(
    k_min: int, k_max: int, cache: BernoulliCache | None = None
) -> list[list[tuple[int, int, Fraction, Fraction, Fraction, Fraction]]]:
    """Exact check that the closed forms equal P B and P C, for K = k_min..k_max.

    Passes on the inverse check's compares (``_sweep``), because
    P A = I, hence P C = I - P B, and P B = closed for any W.  Proof of the
    last: with N = 2K-2s', column s' of P B is sum_{k odd} C(N,k) T(k);
    sum_k C(N,k) T(k) = sum_t C(N,t) 2^(N-t) y_t = S(N), as
    sum_k C(N,k) C(k,t) = C(N,t) 2^(N-t), and sum_k (-1)^k C(N,k) T(k) = y_N
    (``verify_inverse_sweep``), so it is (S(N) - y_N) / 2; and the closed
    form is sum_{m>=1} C(N,m) 2^(m-1) y_{N-m} = (S(N) - y_N) / 2, as
    G_PB[j][s'] = C(N,m) 2^(m-1) at j = 2K+1-N+m >= 2s'+2.  Only when a
    compare fails are P and W unpacked, from the column the compares read
    (``_k_columns``), and the closed form W G_PB, P B and P C formed from
    their definitions.  Returns, for each K, every offending entry in
    row-major order, as a tuple (s, s', closed, delta_{s,s'} - closed,
    (PB)_{s,s'}, (PC)_{s,s'}), closed = (W G_PB)_{s,s'} / d_s; an empty
    list means K passed.
    """
    return [[] if cols is None else _closed_forms_failure(K, cols)
            for K, cols in _sweep(k_min, k_max, cache)]


def _closed_forms_failure(
    K: int, cols: _KColumns
) -> list[tuple[int, int, Fraction, Fraction, Fraction, Fraction]]:
    """The offending entries of a K whose compares failed, from the products formed."""
    denoms, lanes, p_cols, _, w_cols = cols
    p = lanes.rows(p_cols)
    closed = _product(lanes.rows(w_cols), _g_pb(K))
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
