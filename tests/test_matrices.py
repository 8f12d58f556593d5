import itertools
import json
import math
import random
import sys
from fractions import Fraction
from operator import mul

import pytest

import doublezeta.matrices as matrices
from doublezeta.bernoulli import BernoulliCache
from doublezeta.matrices import (
    RationalMatrix,
    build_a,
    build_b_part,
    build_c_part,
    build_p,
    build_q,
    matrix_to_json,
    verify_closed_forms_sweep,
    verify_inverse_sweep,
)
from doublezeta.rationals import format_rational


@pytest.fixture(scope="module")
def cache():
    return BernoulliCache()


class BadBernoulliCache(BernoulliCache):
    """B_4 is -1/30; returning 1/29 must fail every check that uses B_4."""

    def get(self, n: int) -> Fraction:
        return Fraction(1, 29) if n == 4 else super().get(n)


def corrupted(index: int, value: Fraction) -> type[BernoulliCache]:
    """A BernoulliCache class whose B_index is value."""

    class Corrupted(BernoulliCache):
        def get(self, n: int) -> Fraction:
            return value if n == index else super().get(n)

    return Corrupted


BadB1Cache = corrupted(1, Fraction(-1, 3))
BadB3Cache = corrupted(3, Fraction(1, 7))
CACHES = {"cache": BernoulliCache, "bad-cache": BadBernoulliCache,
          "bad-b1": BadB1Cache, "bad-b3": BadB3Cache}


def mat(rows):
    """RationalMatrix of rows of rationals, each row over the lcm of its denominators.

    That lcm leaves each row in lowest terms, so this is the canonical form.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    denoms = [math.lcm(*(x.denominator for x in row)) for row in rows]
    return RationalMatrix(
        tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row, d in zip(rows, denoms)),
        tuple(denoms),
    )


def fraction_rows(m: RationalMatrix) -> list[list[Fraction]]:
    return [[m.at(i, j) for j in range(m.cols)] for i in range(m.rows)]


def naive_determinant(m: RationalMatrix) -> Fraction:
    """Permutation-expansion oracle, independent of the Bareiss path."""
    n = m.rows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m.at(i, perm[i])
        total += sign * prod
    return total


def gauss_inverse(m: RationalMatrix) -> list[list[Fraction]]:
    """Plain rational Gauss-Jordan oracle, independent of build_p."""
    n = m.rows
    a = fraction_rows(m)
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        inv[col] = [x / pv for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def test_build_a_small():
    assert build_a(2) == mat([[3]])
    assert build_a(3) == mat([[5, 2], [10, 1]])
    assert build_a(3).at(0, 1) == 2  # exercises the n<k zero convention


def test_build_a_rejects_small_k():
    with pytest.raises(ValueError):
        build_a(1)


def test_b_c_split():
    assert build_b_part(3) == mat([[4, 2], [4, 0]])
    assert build_c_part(3) == mat([[1, 0], [6, 1]])
    for K in range(2, 12):
        b, c, a = build_b_part(K), build_c_part(K), build_a(K)
        assert [x + y for x, y in zip(b.entries, c.entries)] == list(a.entries)


def test_structural_zeros():
    for K in range(2, 16):
        b, c = build_b_part(K), build_c_part(K)
        for r in range(1, K):
            for s in range(1, K):
                if r + s > K:
                    assert b.at(r - 1, s - 1) == 0
                if r < s:
                    assert c.at(r - 1, s - 1) == 0


def test_build_p_q_small(cache):
    assert build_p(2, cache) == mat([[Fraction(1, 3)]])
    assert build_q(2, cache) == mat([[Fraction(1, 3)]])
    assert build_p(3, cache) == mat(
        [[Fraction(-1, 15), Fraction(2, 15)], [Fraction(2, 3), Fraction(-1, 3)]]
    )


def test_p_is_gauss_inverse_of_a(cache):
    for K in range(2, 13):
        inverse = mat(gauss_inverse(build_a(K)))
        assert build_p(K, cache) == inverse
        assert build_q(K, cache) == inverse


def test_determinant_examples():
    assert matrices._bareiss([[3]]) == 3
    assert matrices._bareiss(matrices._a_rows(3)) == -15
    assert matrices._bareiss([[1, 2], [2, 4]]) == 0
    assert matrices._bareiss([[0, 1], [1, 0]]) == -1  # a row swap flips the sign
    assert matrices._bareiss([[0, 1], [0, 2]]) == 0  # no pivot in the first column


def test_determinant_against_permutation_oracle():
    for K in range(2, 7):
        assert matrices._bareiss(matrices._a_rows(K)) == naive_determinant(build_a(K))
    pivot_swap = [[0, 2, 1, 7], [3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]
    assert matrices._bareiss(pivot_swap) == naive_determinant(mat(pivot_swap))


def test_determinant_is_signed_double_factorial():
    # Observed, not stated in the paper: det A_K = eps_K (2K-1)!!, eps_K = -1 iff K = 3 mod 4.
    for K in range(2, 41):
        sign = -1 if K % 4 == 3 else 1
        assert matrices._bareiss(matrices._a_rows(K)) == sign * math.prod(range(1, 2 * K, 2)), K


def det_mod(rows, p):
    """det(rows) mod the prime p by plain Gaussian elimination over GF(p).

    Runs from the last row and column (reversing both keeps the determinant):
    there A's columns are sparse, so most multipliers are 0.
    """
    m = [[x % p for x in reversed(row)] for row in reversed(rows)]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        top = m[k][k + 1 :]
        for row in m[k + 1 :]:
            if row[k]:
                f = row[k] * inv % p
                row[k + 1 :] = [(x - f * y) % p for x, y in zip(row[k + 1 :], top)]
    return det % p


def test_determinant_residue_is_signed_double_factorial():
    # The same observation modulo 2^61 - 1, where Bareiss would take minutes.
    p = (1 << 61) - 1
    for K in range(41, 101):
        sign = -1 if K % 4 == 3 else 1
        assert det_mod(matrices._a_rows(K), p) == sign * math.prod(range(1, 2 * K, 2)) % p, K


def _count_bareiss(monkeypatch):
    calls = []
    original = matrices._bareiss

    def bareiss(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(matrices, "_bareiss", bareiss)
    return calls


def test_passing_pa_check_proves_det_without_bareiss(monkeypatch):
    calls = _count_bareiss(monkeypatch)
    for K in (2, 5, 12):
        report = verify_inverse_sweep(K, K)[0]
        assert report.pa_is_identity and report.det_nonzero
    assert calls == []


def test_pa_product_is_formed_only_when_a_check_fails(monkeypatch):
    # P and Q are Pascal reads and a passing check forms no product; a
    # failing one forms P A alone, with P's rows on the left and A's on the right
    calls = []
    original = matrices._product

    def product(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(matrices, "_product", product)
    assert verify_inverse_sweep(6, 6)[0].all_pass
    assert calls == []
    bad = BadBernoulliCache()
    report = verify_inverse_sweep(6, 6, bad)[0]
    assert not report.pa_is_identity
    _, ref = reference_products(6, bad)
    assert calls == [(ref["P"], matrices._a_rows(6))]


def test_fallback_reports_a_singular_stand_in(monkeypatch):
    # the corrupted cache makes P A fail; Bareiss then runs on the stand-in,
    # the same rows P A was formed with
    def singular_a(K):
        rows = original(K)
        rows[-1] = list(rows[0])
        return rows

    original = matrices._a_rows
    monkeypatch.setattr(matrices, "_a_rows", singular_a)
    report = verify_inverse_sweep(6, 6, BadBernoulliCache())[0]
    assert not report.pa_is_identity
    assert not report.det_nonzero
    assert not report.all_pass


def old_product(a, b):
    """The textbook row-by-column product, the reference for every product below."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def g_p(K: int) -> list[list[int]]:
    """G_P[j][r] = C(2r-1, 2K+1-j), so that P = W G_P: the product form, kept as the reference."""
    return [[math.comb(2 * r - 1, 2 * K + 1 - j) for r in range(1, K)] for j in range(2 * K + 1)]


def g_q(K: int) -> list[list[int]]:
    """G_Q[j][r] = -C(2K-2r, 2K+1-j), so that Q = W G_Q."""
    return [[-math.comb(2 * K - 2 * r, 2 * K + 1 - j) for r in range(1, K)]
            for j in range(2 * K + 1)]


def g_pb(K: int) -> list[list[int]]:
    """G_PB[j][s'] = C(2K-2s', j-2s'-1) 2^(j-2s'-2) for j >= 2s'+2, so that (P B) = W G_PB."""
    return [[math.comb(2 * K - 2 * sp, j - 2 * sp - 1) << (j - 2 * sp - 2) if j >= 2 * sp + 2
             else 0 for sp in range(1, K)] for j in range(2 * K + 1)]


def weight_rows(K, cache):
    """W's rows s = 1..K-1 and their d_s, by definition, as dense int lists.

    W[s][j] = 2 C(j-2, j-2s) b_{j-2s} for 2s <= j <= 2K and 0 below, with
    b_n = D B_n, so row s is over d_s = (2s-1) D.
    """
    b, big = (cache or BernoulliCache()).scaled(2 * K - 2)
    w = [[2 * math.comb(j - 2, j - 2 * s) * b[j - 2 * s] if j >= 2 * s else 0
          for j in range(2 * K + 1)] for s in range(1, K)]
    return w, [(2 * s - 1) * big for s in range(1, K)]


def reference_pqy(K, w):
    """The int numerator rows of P = W G_P, Q = W G_Q and Y, W's columns 2s'+1."""
    return {
        "P": old_product(w, g_p(K)),
        "Q": old_product(w, g_q(K)),
        "Y": [[row[2 * sp + 1] for sp in range(1, K)] for row in w],
    }


def reference_products(K, cache):
    """The d_s and the int numerator rows of P, Q, Y, P A, P B, P C and the closed form.

    All by the reference product: ``reference_pqy``, then P times A, B
    and C, and W G_PB, the (PB) closed form.
    """
    w, denoms = weight_rows(K, cache)
    ref = reference_pqy(K, w)
    return denoms, {
        **ref,
        "PA": old_product(ref["P"], matrices._a_rows(K)),
        "PB": old_product(ref["P"], matrices._b_rows(K)),
        "PC": old_product(ref["P"], matrices._c_rows(K)),
        "closed": old_product(w, g_pb(K)),
    }


def closed_form_report(K, cache):
    """verify_closed_forms_sweep(K, K)[0], entry by entry from the reference products."""
    denoms, ref = reference_products(K, cache)
    bad = []
    rows = zip(ref["closed"], ref["PB"], ref["PC"], denoms)
    for s, (closed_row, pb_row, pc_row, d) in enumerate(rows, 1):
        for sp, (vb, xb, xc) in enumerate(zip(closed_row, pb_row, pc_row), 1):
            vc = (d if s == sp else 0) - vb
            if (vb, vc) != (xb, xc):
                bad.append((s, sp, *(Fraction(x, d) for x in (vb, vc, xb, xc))))
    return bad


def random_bernoulli(seed: int) -> type[BernoulliCache]:
    """A BernoulliCache class whose every B_n is a seeded random rational."""

    class RandomValues(BernoulliCache):
        def get(self, n: int) -> Fraction:
            rng = random.Random(seed * 100003 + n)
            return Fraction(rng.randint(-50, 50), rng.randint(1, 40))

    return RandomValues


class TinyWeights(BernoulliCache):
    """B_0 = 1/(2^61-1) and every other B_n = 0: W is tiny beside d_s, which alone sizes the lanes."""

    def get(self, n: int) -> Fraction:
        return Fraction(1, (1 << 61) - 1) if n == 0 else Fraction(0)


ZeroB1Cache = corrupted(1, Fraction(0))
ANY_CACHES = {**CACHES, "zero-b1": ZeroB1Cache, "tiny-weights": TinyWeights,
              **{f"random-{seed}": random_bernoulli(seed) for seed in range(10)}}


@pytest.mark.parametrize("make_cache", ANY_CACHES.values(), ids=ANY_CACHES.keys())
def test_closed_forms_pass_exactly_when_pa_is_identity(make_cache):
    # W G_PB = P B for any Bernoulli values, so P C = I - P B fails exactly
    # where P A = I does, and the check may pass on the inverse check's compares
    cache = make_cache()
    for K in range(2, 21):
        _, ref = reference_products(K, cache)
        assert ref["closed"] == ref["PB"], K
        report = verify_closed_forms_sweep(K, K, cache)[0]
        assert report == closed_form_report(K, cache), K
        assert (report == []) == verify_inverse_sweep(K, K, cache)[0].pa_is_identity, K


def test_closed_forms_form_products_only_when_the_compares_fail(monkeypatch):
    # a pass reads one Pascal table (P and Q's) and multiplies nothing; a
    # range reads every K off the one table of its largest K, and a failing
    # K is reported off that table too: W is packed once per range
    calls, tables, packed = [], [], []
    product, pascal_columns = matrices._product, matrices._pascal_columns
    packed_weights = matrices._packed_weights

    def counted_product(x, y):
        calls.append(y)
        return product(x, y)

    def counted_pascal_columns(seq):
        tables.append(len(seq))
        return pascal_columns(seq)

    def counted_packed_weights(K, cache):
        packed.append(K)
        return packed_weights(K, cache)

    monkeypatch.setattr(matrices, "_product", counted_product)
    monkeypatch.setattr(matrices, "_pascal_columns", counted_pascal_columns)
    monkeypatch.setattr(matrices, "_packed_weights", counted_packed_weights)
    assert verify_closed_forms_sweep(6, 6)[0] == []
    assert (calls, tables) == ([], [11])  # one table, of y_0 .. y_{2K-2}
    assert matrices.verify_closed_forms_sweep(2, 12) == [[]] * 11
    assert matrices.verify_inverse_sweep(5, 12) == [
        matrices.InverseReport(K, True, True, True) for K in range(5, 13)
    ]
    assert (calls, tables) == ([], [11, 23, 23])  # one table per range, K = 12's
    assert verify_closed_forms_sweep(6, 6, BadBernoulliCache())[0]
    assert calls == [matrices._g_pb(6), matrices._b_rows(6), matrices._c_rows(6)]
    inverse = matrices.verify_inverse_sweep
    closed_forms = matrices.verify_closed_forms_sweep
    for sweep, failed in [(inverse, lambda rep: not rep.all_pass), (closed_forms, bool)]:
        tables.clear()
        packed.clear()
        reports = sweep(2, 12, BadBernoulliCache())
        assert [K for K, rep in enumerate(reports, 2) if failed(rep)] == list(range(3, 13))
        assert (packed, tables) == ([12], [23]), sweep.__name__


SWEEPS = [(2, 2), (2, 3), (2, 16), (5, 16), (9, 9), (11, 13)]
# an odd B_n != 0 with n >= 3 first enters W's column 2K+1, which a K reads
# off a larger K's table as y_c, at K = (n+1)/2, before its own P and Q
SWEEP_CACHES = {**ANY_CACHES, "bad-b7": corrupted(7, Fraction(2, 5)),
                "bad-b9": corrupted(9, Fraction(-3, 11))}


@pytest.mark.parametrize("make_cache", SWEEP_CACHES.values(), ids=SWEEP_CACHES.keys())
def test_sweeps_report_what_each_k_reports_alone(make_cache):
    # every K of a range is read off the table of its largest K, a failing
    # K's report too, in k_max's scale; each report is the one-K report, and
    # the compares on the shared table pass exactly where K passes alone
    cache = make_cache()
    for k_min, k_max in SWEEPS:
        ks = range(k_min, k_max + 1)
        alone = [verify_inverse_sweep(K, K, cache)[0] for K in ks]
        assert [(K, cols is None) for K, cols in matrices._sweep(k_min, k_max, cache)] == [
            (rep.K, rep.all_pass) for rep in alone
        ], (k_min, k_max)
        assert matrices.verify_inverse_sweep(k_min, k_max, cache) == alone, (k_min, k_max)
        assert matrices.verify_closed_forms_sweep(k_min, k_max, make_cache()) == [
            verify_closed_forms_sweep(K, K, cache)[0] for K in ks
        ], (k_min, k_max)


@pytest.mark.parametrize("make_cache", SWEEP_CACHES.values(), ids=SWEEP_CACHES.keys())
def test_every_k_reads_its_pascal_sums_off_the_largest_ks_table(make_cache):
    # shift identity: on the lanes s < K, T_K(N) = row_N[c] - y_c of the
    # table of k_max, c = 2(k_max-K), in k_max's scale of the Bernoulli values;
    # K's lanes, the first K-1 of k_max's, read P, Q and W's columns 2K..3
    # off the table modulo 2^(8 o_K) (matrices._k_columns)
    cache = make_cache()
    k_max = 14
    denoms, lanes, y = matrices._packed_weights(k_max, cache)
    seen = []
    for col in matrices._pascal_columns(y):
        c = len(y) - len(col)
        K = k_max - c // 2
        if c % 2 or K < 3:
            continue
        assert len(col) == 2 * K - 1
        k_denoms, k_lanes, p_cols, q_cols, w_cols = matrices._k_columns(denoms, lanes, y, col)
        assert k_lanes.nbytes == lanes.nbytes[: K - 1]
        assert k_lanes.rows([col[0] - y[c]]) == [[0]] * (K - 1)  # T_K(0) = 0
        w, own_denoms = weight_rows(K, cache)
        scale = denoms[0] // own_denoms[0]
        assert k_denoms == [d * scale for d in own_denoms]
        ref = reference_pqy(K, w)
        for cols, want in [(p_cols, ref["P"]), (q_cols, ref["Q"]),
                           (w_cols, [row[:2:-1] for row in w])]:
            assert k_lanes.rows(cols) == [[v * scale for v in row] for row in want], K
        seen.append(K)
    assert seen == list(range(3, k_max + 1))


def test_sweeps_check_every_k_before_any_work(monkeypatch):
    def no_work(K, cache):
        raise AssertionError("packed W before checking K")

    monkeypatch.setattr(matrices, "_packed_weights", no_work)
    for sweep in (matrices.verify_inverse_sweep, matrices.verify_closed_forms_sweep):
        with pytest.raises(ValueError, match="got 1"):
            sweep(1, 5)
        assert sweep(6, 5) == []


def test_weight_rows_follow_their_definition_for_any_cache():
    # W's packed columns 2K..3 unpack to the rows of its definition; only
    # zero b_n are skipped, so a corrupted odd B_n still reaches W
    for make_cache in CACHES.values():
        cache = make_cache()
        for K in range(2, 31):
            w, denoms = weight_rows(K, cache)
            d, lanes, _, _, w_cols = matrices._own_columns(K, cache)
            assert (lanes.rows(w_cols), d) == ([row[:2:-1] for row in w], denoms), K


def lane_bytes(K, row, d):
    """matrices._lane_bytes of a dense W row over d: its nonzero entries W[s][j], j >= 3.

    y_t holds column 2K+1-t, so W[s][j] is summed with weight C(N, t) <= C(2K-2, t).
    """
    packed = [(v, math.comb(2 * K - 2, t)) for t, v in enumerate(row[: 2 : -1], 1) if v]
    top = max((v.bit_length() + c.bit_length() for v, c in packed), default=0)
    return matrices._lane_bytes(top, len(packed), d)


def packed_columns(K, cache):
    """matrices._packed_weights from the dense rows of weight_rows, packed column by column.

    The reference for packing each row as it is built; a test that replaces
    ``weight_rows`` here and ``matrices._packed_weights`` with this feeds
    the checks any W.
    """
    w, denoms = weight_rows(K, cache)
    lanes = matrices._Lanes([lane_bytes(K, row, d) for row, d in zip(w, denoms)])
    columns = list(zip(*w))[: 2 : -1]  # columns 2K..3 of W: y_1 .. y_{2K-2}
    y = [0, *(sum(v << t for v, t in zip(col, lanes.shifts)) for col in columns)]
    return denoms, lanes, y


@pytest.mark.parametrize("make_cache", ANY_CACHES.values(), ids=ANY_CACHES.keys())
def test_columns_packed_while_built_match_column_by_column_packing(make_cache):
    cache = make_cache()
    for K in range(2, 31):
        denoms, lanes, y = matrices._packed_weights(K, cache)
        ref_denoms, ref_lanes, ref_y = packed_columns(K, cache)
        assert (denoms, lanes.nbytes, y) == (ref_denoms, ref_lanes.nbytes, ref_y), K


def inverse_rows(K, cache):
    """The d_s and the rows of P, Q, Y and P A = (P - Q) C - Y decoded from the inverse check.

    A passing check relies on that identity and forms no product, so it is
    checked here against the reference P A.
    """
    def minus(x, y):
        return [[u - v for u, v in zip(*rows)] for rows in zip(x, y)]

    denoms, lanes, *cols = matrices._own_columns(K, cache)
    p, q, w = map(lanes.rows, cols)
    y = [row[::-2] for row in w]  # W's columns 3, 5, ..., 2K-1 of columns 2K..3
    pa = minus(old_product(minus(p, q), matrices._c_rows(K)), y)
    return denoms, {"P": p, "Q": q, "Y": y, "PA": pa}


@pytest.mark.parametrize("make_cache", CACHES.values(), ids=CACHES.keys())
def test_lanes_decode_to_the_reference_products(make_cache):
    cache = make_cache()
    for K in range(2, 31):
        denoms, ref = reference_products(K, cache)
        d, got = inverse_rows(K, cache)
        assert d == denoms
        for name in ("P", "Q", "Y", "PA"):
            assert got[name] == ref[name], (K, name)


@pytest.mark.parametrize("make_cache", ANY_CACHES.values(), ids=ANY_CACHES.keys())
def test_every_compared_value_fits_its_lane_with_a_spare_sign_bit(make_cache):
    # a b-byte lane holds |v| < 2^(8b-1); then packed == is entry-wise ==.
    # The inverse check compares P with Q and Y with -diag(d_s) in T's lanes;
    # the lane bound holds for any Bernoulli values, odd B_n != 0 included
    cache = make_cache()
    for K in range(2, 51 if make_cache is BernoulliCache else 31):
        w, denoms = weight_rows(K, cache)
        ref = reference_pqy(K, w)
        one = [[d if i == j else 0 for j in range(K - 1)] for i, d in enumerate(denoms)]
        lanes = matrices._packed_weights(K, cache)[1]
        for m in [ref["P"], ref["Q"], ref["Y"], one, [row[:2:-1] for row in w]]:
            for row, b in zip(m, lanes.nbytes, strict=True):
                assert all(abs(x).bit_length() < 8 * b for x in row), K


def test_lanes_hold_the_worst_case_weights(monkeypatch):
    # every entry of a W row at the row's largest size, one sign per row,
    # makes T_s(2K-2) = sum_t C(2K-2, t) |W[s][2K+1-t]|, the sum that
    # _lane_bytes bounds by count 2^top: the bound's one inequality that
    # depends on the weights is then an equality
    original = weight_rows

    def extreme_rows(K, cache):
        rows, denoms = original(K, cache)
        sizes = [max(map(abs, row)) * (-1) ** s for s, row in enumerate(rows)]
        return [[m] * len(row) for m, row in zip(sizes, rows)], denoms

    monkeypatch.setitem(globals(), "weight_rows", extreme_rows)
    monkeypatch.setattr(matrices, "_packed_weights", packed_columns)
    cache = BernoulliCache()
    for K in range(2, 21):
        _, ref = reference_products(K, cache)
        _, got = inverse_rows(K, cache)
        assert got == {name: ref[name] for name in got}, K


@pytest.mark.parametrize("K", [45, 60])
def test_inverse_and_lanes_hold_beyond_the_sweep(cache, K):
    w, denoms = weight_rows(K, cache)
    ref = reference_pqy(K, w)
    assert verify_inverse_sweep(K, K, cache)[0].all_pass
    assert build_p(K, cache) == matrices._from_rows(ref["P"], denoms)
    assert build_q(K, cache) == matrices._from_rows(ref["Q"], denoms)


def test_lanes_are_narrower_than_the_old_uniform_bound(cache):
    # the old rule sized lane s as 2^(2K-2) max_j|W[s][j]| + d_s; weighting
    # each entry by its own C(2K-2, t) saves about a fifth of the bytes
    for K in (20, 30, 40):
        w, denoms = weight_rows(K, cache)
        old = sum(((max(map(abs, row)) << (2 * K - 2)) + d).bit_length() // 8 + 1
                  for row, d in zip(w, denoms))
        assert matrices._packed_weights(K, cache)[1].size <= 0.85 * old, K


def test_p_equal_to_q_with_a_wrong_weight_column_fails_pa(monkeypatch):
    # One entry of W's column 2s'+1 alone cannot keep P = Q: it moves
    # Q[s][1] and no entry of P.  So row s moves by the inverse binomial
    # transform of f(1) = 1, f(2K-2) = -1, whose T is f: it keeps
    # T(2r-1) = -T(2K-2r), hence P = Q, and moves every W[s][2s'+1].
    # Then P A = -Y, and only the W column read can fail the check; the
    # closed forms, which pass on the same compares, must fail as well.
    K, s = 6, 2
    f = {1: 1, 2 * K - 2: -1}
    delta = [sum((-1) ** (t + k) * math.comb(t, k) * v for k, v in f.items())
             for t in range(2 * K - 1)]
    original = weight_rows

    def perturbed_rows(k, cache):
        rows, denoms = original(k, cache)
        for t in range(1, 2 * K - 1):
            rows[s - 1][2 * K + 1 - t] += delta[t]
        return rows, denoms

    monkeypatch.setitem(globals(), "weight_rows", perturbed_rows)
    monkeypatch.setattr(matrices, "_packed_weights", packed_columns)
    p, q, a = build_p(K), build_q(K), build_a(K)
    assert p == q
    calls = _count_bareiss(monkeypatch)
    report = verify_inverse_sweep(K, K)[0]
    assert report.p_eq_q and not report.pa_is_identity
    pa = times(p, a)
    i, j = next((i, j) for i in range(K - 1) for j in range(K - 1)
                if pa.at(i, j) != int(i == j))
    assert report.offending[0] == ("pa_is_identity", i + 1, j + 1, pa.at(i, j), int(i == j))
    assert calls == [K - 1]
    offending = verify_closed_forms_sweep(K, K)[0]
    assert offending and offending == closed_form_report(K, None)


@pytest.mark.parametrize("make_cache", [BadB1Cache, BadB3Cache], ids=["bad-b1", "bad-b3"])
def test_report_matches_the_reference_under_a_corrupted_odd_bernoulli(make_cache):
    # B_1 and B_3 enter P, Q and W's odd columns
    for K in range(2, 13):
        bad = make_cache()
        p, q, a = build_p(K, bad), build_q(K, bad), build_a(K)
        one = identity(K - 1)
        expected = [
            (check, i + 1, j + 1, x.at(i, j), y.at(i, j))
            for check, x, y in [
                ("p_eq_q", p, q), ("pa_is_identity", times(p, a), one),
            ]
            for i, j in itertools.islice(
                ((i, j) for i in range(K - 1) for j in range(K - 1)
                 if x.at(i, j) != y.at(i, j)), 1)
        ]
        report = verify_inverse_sweep(K, K, bad)[0]
        assert report.offending == tuple(expected), K
        assert report.det_nonzero


def pack(lanes, values):
    """values[i] in lane i: the packed int is sum_i v_i 2^(8 o_i)."""
    return sum(v << t for v, t in zip(values, lanes.shifts))


def test_lanes_round_trip_at_the_edges():
    nbytes = [1, 3, 2, 1, 5]
    lanes = matrices._Lanes(nbytes)
    edges = [[0, 1, -1, (1 << (8 * b - 1)) - 1, 1 - (1 << (8 * b - 1))] for b in nbytes]
    assert lanes.shifts[:-1] == tuple(8 * sum(nbytes[:i]) for i in range(len(nbytes)))
    for values in itertools.product(*edges):
        assert lanes.rows([pack(lanes, values)]) == [[v] for v in values]
    # packed sums are lane-wise sums while every lane still fits
    rng = random.Random(3)
    for _ in range(200):
        u = [rng.randint(-(1 << (8 * b - 2)) + 1, (1 << (8 * b - 2)) - 1) for b in nbytes]
        v = [rng.randint(-(1 << (8 * b - 2)) + 1, (1 << (8 * b - 2)) - 1) for b in nbytes]
        assert lanes.rows([pack(lanes, u) + pack(lanes, v)]) == [[x + y] for x, y in zip(u, v)]
        assert lanes.rows([pack(lanes, u) - pack(lanes, v)]) == [[x - y] for x, y in zip(u, v)]
    assert lanes.rows([lanes.unit(3, -5)]) == [[0], [0], [0], [-5], [0]]
    assert lanes.rows([pack(lanes, [1, 2, 3, 4, 5]), pack(lanes, [-1, -2, -3, -4, -5])]) == [
        [1, -1], [2, -2], [3, -3], [4, -4], [5, -5]
    ]


def test_lane_rows_match_unpacking_column_by_column():
    nbytes = [1, 3, 2, 1, 5]
    lanes = matrices._Lanes(nbytes)
    rng = random.Random(7)

    def lane_value(b):
        top = (1 << (8 * b - 1)) - 1
        return rng.choice([0, 1, -1, top, -top, rng.randint(-top, top)])

    assert "bias" not in vars(lanes)  # built on the first unpacking, which a pass never does
    assert lanes.rows([]) == [[] for _ in nbytes]
    for ncols in (1, 2, 9):
        for _ in range(100):
            columns = [[lane_value(b) for b in nbytes] for _ in range(ncols)]
            packed = [pack(lanes, c) for c in columns]
            expected = [list(row) for row in zip(*columns)]
            assert lanes.rows(packed) == expected
            assert [[v for v, in lanes.rows([x])] for x in packed] == columns


def test_matrix_json_matches_json_dumps_past_the_int_to_str_limit():
    big = 10**4999 + 7  # 5000 digits, past Python's default limit of 4300
    rows = ((big, -3, 0), (1, 2 * big, -big))
    name = 'M "\\ \u03b6'
    for den in (1, 3):
        m = RationalMatrix(rows, (den, den))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            entries = [
                [
                    str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
                    for f in (Fraction(x, den) for x in row)
                ]
                for row in rows
            ]
            expected = json.dumps(
                {"K": 3, "name": name, "rows": 2, "cols": 3, "entries": entries},
                separators=(", ", ": "),
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert matrix_to_json(3, name, m) == expected, den


def times(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """x y by the reference product."""
    return mat(old_product(fraction_rows(x), fraction_rows(y)))


def identity(n: int) -> RationalMatrix:
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


def _product_cases():
    rng = random.Random(7)

    def ints(n, m, zeros=0.5):
        return [[0 if rng.random() < zeros else rng.randint(-50, 50) for _ in range(m)]
                for _ in range(n)]

    def fracs(n, m, zeros=0.5):
        return [[Fraction(x, rng.randint(1, 9)) for x in row] for row in ints(n, m, zeros)]

    for n, k, m in [(1, 1, 1), (3, 4, 2), (5, 5, 5), (2, 7, 1), (6, 3, 4)]:
        yield ints(n, k), ints(k, m)
        yield fracs(n, k), fracs(k, m)
        yield ints(n, k), fracs(k, m)
        yield ints(n, k, zeros=1.0), ints(k, m)
        yield fracs(n, k, zeros=1.0), fracs(k, m)
        yield ints(n, k, zeros=0.0), ints(k, m, zeros=0.0)
    rows = ints(4, 5)
    rows[1] = [0] * 5
    rows[3] = [Fraction(0)] * 5
    yield rows, fracs(5, 3)


def test_product_matches_reference():
    for a, b in _product_cases():
        got = matrices._product(a, b)
        assert got == old_product(a, b)
        assert len(got) == len(a) and all(len(row) == len(b[0]) for row in got)


def test_product_of_exported_matrices_matches_reference(cache):
    for K in range(2, 9):
        p, a, b = build_p(K, cache), build_a(K), build_b_part(K)
        for x, y in [(p, a), (a, p), (p, b), (b, p), (identity(K - 1), p)]:
            xs, ys = fraction_rows(x), fraction_rows(y)
            assert matrices._product(xs, ys) == old_product(xs, ys)


@pytest.mark.parametrize("K", [2, 3, 10])
def test_verify_inverse(cache, K):
    report = verify_inverse_sweep(K, K, cache)[0]
    assert report.all_pass


def closed_form(K, cache):
    """(P B) from the closed-form Bernoulli sum W G_PB, no matrix product, as a RationalMatrix."""
    denoms, ref = reference_products(K, cache)
    return matrices._from_rows(ref["closed"], denoms)


def test_pb_pc_closed_examples(cache):
    closed = closed_form(3, cache)
    assert closed.at(0, 0) == Fraction(4, 15)
    pc = times(build_p(3, cache), build_c_part(3))
    assert pc.at(0, 0) == Fraction(11, 15)
    assert closed.at(0, 1) + pc.at(0, 1) == 0


def test_closed_forms_match_products(cache):
    for K in range(2, 9):
        p = build_p(K, cache)
        pb = times(p, build_b_part(K))
        pc = times(p, build_c_part(K))
        closed = closed_form(K, cache)
        for s in range(1, K):
            for sp in range(1, K):
                assert closed.at(s - 1, sp - 1) == pb.at(s - 1, sp - 1)
                assert int(s == sp) - closed.at(s - 1, sp - 1) == pc.at(s - 1, sp - 1)
        assert verify_closed_forms_sweep(K, K, cache)[0] == []


@pytest.mark.parametrize("K", [3, 5, 8])
def test_checks_fail_under_a_corrupted_cache(K):
    bad = BadBernoulliCache()
    report = verify_inverse_sweep(K, K, bad)[0]
    assert not report.p_eq_q
    assert not report.pa_is_identity
    assert report.det_nonzero
    offending = verify_closed_forms_sweep(K, K, bad)[0]
    assert offending
    p = build_p(K, bad)
    pb = times(p, build_b_part(K))
    pc = times(p, build_c_part(K))
    closed = closed_form(K, bad)
    for s, sp, *values in offending:
        vb = closed.at(s - 1, sp - 1)
        assert values == [
            vb,
            int(s == sp) - vb,
            pb.at(s - 1, sp - 1),
            pc.at(s - 1, sp - 1),
        ]


@pytest.mark.parametrize("K", [3, 5, 8])
def test_failing_pa_check_runs_bareiss_once(monkeypatch, K):
    calls = _count_bareiss(monkeypatch)
    report = verify_inverse_sweep(K, K, BadBernoulliCache())[0]
    assert not report.pa_is_identity
    assert report.det_nonzero
    assert calls == [K - 1]


@pytest.mark.parametrize("K", [3, 5, 8])
def test_report_names_the_first_offending_entries(K):
    bad = BadBernoulliCache()
    report = verify_inverse_sweep(K, K, bad)[0]
    p, q, a = build_p(K, bad), build_q(K, bad), build_a(K)
    one = identity(K - 1)
    expected = []
    for check, x, y in [
        ("p_eq_q", p, q),
        ("pa_is_identity", times(p, a), one),
    ]:
        i, j = next((i, j) for i in range(K - 1) for j in range(K - 1) if x.at(i, j) != y.at(i, j))
        expected.append((check, i + 1, j + 1, x.at(i, j), y.at(i, j)))
    assert report.offending == tuple(expected)
    assert verify_inverse_sweep(K, K)[0].offending == ()


def test_matrix_json_schema():
    payload = json.loads(matrix_to_json(3, "A", build_a(3)))
    assert payload == {
        "K": 3,
        "name": "A",
        "rows": 2,
        "cols": 2,
        "entries": [["5", "2"], ["10", "1"]],
    }


def test_from_rows_puts_each_row_in_lowest_terms():
    rows, denoms = [[3, -6, 0], [0, 0, 0], [5, 7, 1], [4, 8, 12]], [9, 4, 2, 4]
    m = matrices._from_rows(rows, denoms)
    assert m.numerators == ((1, -2, 0), (0, 0, 0), (5, 7, 1), (1, 2, 3))
    assert m.denominators == (3, 1, 2, 1)
    assert m == matrices._from_rows([[6 * x for x in row] for row in rows], [6 * d for d in denoms])
    # scaling one row only gives the same matrix too
    assert m == matrices._from_rows([rows[0], rows[1], [6 * x for x in rows[2]], rows[3]],
                                    [9, 4, 12, 4])
    assert m == mat([[Fraction(1, 3), Fraction(-2, 3), 0], [0, 0, 0],
                     [Fraction(5, 2), Fraction(7, 2), Fraction(1, 2)], [1, 2, 3]])
    assert m.entries[:3] == (Fraction(1, 3), Fraction(-2, 3), 0)
    assert (m.rows, m.cols) == (4, 3)


def test_rows_are_in_lowest_terms_over_positive_denominators(cache):
    for K in range(2, 31):
        for m in (build_a(K), build_b_part(K), build_c_part(K)):
            assert m.denominators == (1,) * (K - 1)
        for m in (build_p(K, cache), build_q(K, cache)):
            assert len(m.numerators) == len(m.denominators) == K - 1
            for row, d in zip(m.numerators, m.denominators):
                assert len(row) == K - 1 and d > 0 and math.gcd(d, *row) == 1


def test_p_and_q_json_match_the_gauss_inverse(cache):
    # every P and Q export byte for byte against the Fraction oracle
    for K in range(2, 31):
        inverse = gauss_inverse(build_a(K))
        for name, build in [("P", build_p), ("Q", build_q)]:
            expected = json.dumps(
                {
                    "K": K,
                    "name": name,
                    "rows": K - 1,
                    "cols": K - 1,
                    "entries": [[format_rational(x) for x in row] for row in inverse],
                },
                separators=(", ", ": "),
            )
            assert matrix_to_json(K, name, build(K, cache)) == expected, (K, name)
