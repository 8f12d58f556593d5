import itertools
import json
import math
import random
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
    determinant_fraction_free,
    identity_matrix,
    matrix_multiply,
    matrix_to_json,
    pb_closed,
    pc_closed,
    verify_closed_forms,
    verify_inverse,
)


@pytest.fixture(scope="module")
def cache():
    return BernoulliCache()


def mat(rows):
    flat = tuple(Fraction(x) for row in rows for x in row)
    return RationalMatrix(len(rows), len(rows[0]), flat)


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


def gauss_inverse(m: RationalMatrix) -> RationalMatrix:
    """Plain rational Gauss-Jordan oracle, independent of build_p."""
    n = m.rows
    a = [list(m.entries[i * n : (i + 1) * n]) for i in range(n)]
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
    return mat(inv)


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
        inverse = gauss_inverse(build_a(K))
        assert build_p(K, cache) == inverse
        assert build_q(K, cache) == inverse


def test_matrix_multiply(cache):
    assert matrix_multiply(mat([[3]]), mat([[Fraction(1, 3)]])) == mat([[1]])
    assert matrix_multiply(build_p(3, cache), build_a(3)) == identity_matrix(2)
    a = build_a(5)
    assert matrix_multiply(identity_matrix(4), a) == a
    with pytest.raises(ValueError):
        matrix_multiply(mat([[1, 2]]), mat([[1, 2]]))


def test_determinant_examples():
    assert determinant_fraction_free(mat([[3]])) == 3
    assert determinant_fraction_free(build_a(3)) == -15
    assert determinant_fraction_free(mat([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        determinant_fraction_free(mat([[1, 2]]))


def test_determinant_against_permutation_oracle(cache):
    for K in range(2, 7):
        a = build_a(K)
        assert determinant_fraction_free(a) == naive_determinant(a)
    rational = mat([[Fraction(1, 2), 3], [Fraction(-2, 7), Fraction(5, 3)]])
    assert determinant_fraction_free(rational) == naive_determinant(rational)


def test_determinant_is_signed_double_factorial():
    # Observed, not stated in the paper: det A_K = eps_K (2K-1)!!, eps_K = -1 iff K = 3 mod 4.
    for K in range(2, 41):
        sign = -1 if K % 4 == 3 else 1
        assert determinant_fraction_free(build_a(K)) == sign * math.prod(range(1, 2 * K, 2)), K


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
        report = verify_inverse(K)
        assert report.pa_is_identity and report.det_nonzero
    assert calls == []


def test_ap_product_runs_only_when_pa_check_fails(monkeypatch):
    # a passing P A = I proves A P = I for square matrices; products are
    # P, Q and P A, then A (L P) only on failure
    calls = []
    original = matrices._product

    def product(x, y):
        calls.append(len(x))
        return original(x, y)

    monkeypatch.setattr(matrices, "_product", product)
    assert verify_inverse(6).all_pass
    assert len(calls) == 3
    calls.clear()
    report = verify_inverse(6, BadBernoulliCache())
    assert not report.ap_is_identity
    assert len(calls) == 4


def test_fallback_reports_a_singular_stand_in(monkeypatch):
    def singular_a(K):
        rows = original(K)
        rows[-1] = list(rows[0])
        return rows

    original = matrices._a_rows
    monkeypatch.setattr(matrices, "_a_rows", singular_a)
    report = verify_inverse(6)
    assert not report.det_nonzero
    assert not report.all_pass


def old_product(a, b):
    """The product before zero entries were skipped, kept as the reference."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


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


def test_matrix_multiply_unchanged_by_zero_skipping(cache):
    for K in range(2, 9):
        p, a, b = build_p(K, cache), build_a(K), build_b_part(K)
        for x, y in [(p, a), (a, p), (p, b), (b, p), (identity_matrix(K - 1), p)]:
            expected = old_product(x.row_lists(), y.row_lists())
            assert matrix_multiply(x, y).row_lists() == expected


@pytest.mark.parametrize("K", [2, 3, 10])
def test_verify_inverse(cache, K):
    report = verify_inverse(K, cache)
    assert report.all_pass


def test_pb_pc_closed_examples(cache):
    assert pb_closed(3, 1, 1, cache) == Fraction(4, 15)
    assert pc_closed(3, 1, 1, cache) == Fraction(11, 15)
    assert pb_closed(3, 1, 2, cache) + pc_closed(3, 1, 2, cache) == 0


def test_closed_forms_match_products(cache):
    for K in range(2, 9):
        p = build_p(K, cache)
        pb = matrix_multiply(p, build_b_part(K))
        pc = matrix_multiply(p, build_c_part(K))
        for s in range(1, K):
            for sp in range(1, K):
                assert pb_closed(K, s, sp, cache) == pb.at(s - 1, sp - 1)
                assert pc_closed(K, s, sp, cache) == pc.at(s - 1, sp - 1)
        assert verify_closed_forms(K, cache) == []


class BadBernoulliCache(BernoulliCache):
    """B_4 is -1/30; returning 1/29 must fail every check that uses B_4."""

    def get(self, n: int) -> Fraction:
        return Fraction(1, 29) if n == 4 else super().get(n)


@pytest.mark.parametrize("K", [3, 5, 8])
def test_checks_fail_under_a_corrupted_cache(K):
    bad = BadBernoulliCache()
    report = verify_inverse(K, bad)
    assert not report.p_eq_q
    assert not report.pa_is_identity
    assert not report.ap_is_identity
    assert report.det_nonzero
    offending = verify_closed_forms(K, bad)
    assert offending
    p = build_p(K, bad)
    pb = matrix_multiply(p, build_b_part(K))
    pc = matrix_multiply(p, build_c_part(K))
    for s, sp, *values in offending:
        assert values == [
            pb_closed(K, s, sp, bad),
            pc_closed(K, s, sp, bad),
            pb.at(s - 1, sp - 1),
            pc.at(s - 1, sp - 1),
        ]


@pytest.mark.parametrize("K", [3, 5, 8])
def test_failing_pa_check_runs_bareiss_once(monkeypatch, K):
    calls = _count_bareiss(monkeypatch)
    report = verify_inverse(K, BadBernoulliCache())
    assert not report.pa_is_identity
    assert report.det_nonzero
    assert calls == [K - 1]


@pytest.mark.parametrize("K", [3, 5, 8])
def test_report_names_the_first_offending_entries(K):
    bad = BadBernoulliCache()
    report = verify_inverse(K, bad)
    p, q, a = build_p(K, bad), build_q(K, bad), build_a(K)
    one = identity_matrix(K - 1)
    expected = []
    for check, x, y in [
        ("p_eq_q", p, q),
        ("pa_is_identity", matrix_multiply(p, a), one),
        ("ap_is_identity", matrix_multiply(a, p), one),
    ]:
        i, j = next((i, j) for i in range(K - 1) for j in range(K - 1) if x.at(i, j) != y.at(i, j))
        expected.append((check, i + 1, j + 1, x.at(i, j), y.at(i, j)))
    assert report.offending == tuple(expected)
    assert verify_inverse(K).offending == ()


def test_closed_form_index_errors(cache):
    with pytest.raises(IndexError):
        pb_closed(3, 0, 1, cache)
    with pytest.raises(IndexError):
        pc_closed(3, 1, 3, cache)


def test_matrix_json_schema():
    payload = json.loads(matrix_to_json(3, "A", build_a(3)))
    assert payload == {
        "K": 3,
        "name": "A",
        "rows": 2,
        "cols": 2,
        "entries": [["5", "2"], ["10", "1"]],
    }
