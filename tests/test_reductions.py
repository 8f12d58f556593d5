from fractions import Fraction

import pytest

from doublezeta.bernoulli import BernoulliCache
from doublezeta.matrices import build_a, build_p
from doublezeta.reductions import (
    PRINTED_CONSTANT,
    euler_constant,
    euler_rhs_coefficients,
    expand_h_to_pi,
    h_ab_coefficients,
    h_value,
    inverse_reduction_coefficients,
    table_from_json,
    table_to_csv,
    table_to_json,
)


@pytest.fixture(scope="module")
def cache():
    return BernoulliCache()


def coeff_of(row, basis):
    matches = [t.coeff for t in row.terms if t.basis == basis]
    assert len(matches) <= 1
    return matches[0] if matches else Fraction(0)


def test_h_value():
    assert h_value(0) == 1
    assert h_value(1) == Fraction(1, 6)
    assert h_value(3) == Fraction(1, 5040)


def test_euler_table_k2():
    table = euler_rhs_coefficients(2)
    (row,) = table.rows
    assert row.target == "zeta(2,3)"
    assert coeff_of(row, "zeta(2)*zeta(3)") == 3
    const = [t for t in row.terms if t.basis == "zeta(5)"]
    assert const[0].coeff == PRINTED_CONSTANT == Fraction(-1, 2)
    assert const[0].flag == "as printed"


def test_euler_table_k3_row1():
    table = euler_rhs_coefficients(3)
    row = table.rows[0]
    assert coeff_of(row, "zeta(2)*zeta(5)") == 5
    assert coeff_of(row, "zeta(4)*zeta(3)") == 2


def test_euler_table_custom_constants():
    table = euler_rhs_coefficients(
        3, [Fraction(-11), Fraction(-18)], constants_flag="audited"
    )
    assert coeff_of(table.rows[0], "zeta(7)") == -11
    assert table.rows[1].terms[0].flag == "audited"
    with pytest.raises(ValueError):
        euler_rhs_coefficients(3, [Fraction(0)])


def test_inverse_table_k2_printed():
    table = inverse_reduction_coefficients(2, [Fraction(-1, 2)])
    (row,) = table.rows
    assert row.target == "zeta(2)*zeta(3)"
    assert coeff_of(row, "zeta(2,3)") == Fraction(1, 3)
    assert coeff_of(row, "zeta(5)") == Fraction(1, 6)


def test_inverse_table_k3_matrix_part(cache):
    table = inverse_reduction_coefficients(3, [Fraction(0), Fraction(0)], cache)
    p = build_p(3, cache)
    for s in (1, 2):
        row = table.rows[s - 1]
        for r in (1, 2):
            label = f"zeta({2 * r},{7 - 2 * r})"
            assert coeff_of(row, label) == p.at(s - 1, r - 1)
        # zero constants are suppressed entirely
        assert all("*" in t.basis or "," in t.basis for t in row.terms)


def _reference_inverse_constants(K, constants, cache):
    # the constant term -(P c)_s as a Fraction sum, one entry at a time
    p = build_p(K, cache)
    return [
        -sum((p.at(s - 1, r - 1) * constants[r - 1] for r in range(1, K)), Fraction(0))
        for s in range(1, K)
    ]


def _constant_sets(K):
    mixed = [Fraction(-7, 6), Fraction(0), Fraction(5), Fraction(13, 10), Fraction(-1, 4)]
    return [
        [Fraction(-1, 2)] * (K - 1),
        [Fraction(-11, 2)] * (K - 1),
        [Fraction(1, 3)] * (K - 1),
        [mixed[r % len(mixed)] for r in range(K - 1)],
        [euler_constant(K, r) for r in range(1, K)],
    ]


@pytest.mark.parametrize("K", range(2, 13))
def test_inverse_table_constant_matches_fraction_sum(K, cache):
    label = f"zeta({2 * K + 1})"
    for constants in _constant_sets(K):
        table = inverse_reduction_coefficients(K, constants, cache)
        expected = _reference_inverse_constants(K, constants, cache)
        for row, want in zip(table.rows, expected, strict=True):
            assert coeff_of(row, label) == want
            assert (label in [t.basis for t in row.terms]) == (want != 0)


@pytest.mark.parametrize("K", range(3, 7))
def test_inverse_table_suppresses_vanishing_constant(K, cache):
    # c = A e_1 gives (P c)_s = 1 for s = 1 and 0 otherwise, since PA = I
    a = build_a(K)
    constants = [a.at(r - 1, 0) for r in range(1, K)]
    assert _reference_inverse_constants(K, constants, cache) == [-1] + [0] * (K - 2)
    table = inverse_reduction_coefficients(K, constants, cache)
    label = f"zeta({2 * K + 1})"
    assert coeff_of(table.rows[0], label) == -1
    for row in table.rows[1:]:
        assert label not in [t.basis for t in row.terms]


def test_h_ab_examples():
    t00 = h_ab_coefficients(0, 0)
    (row,) = t00.rows
    assert [(t.basis, t.coeff) for t in row.terms] == [("H(0)*zeta(3)", Fraction(1))]

    t10 = h_ab_coefficients(1, 0)
    assert coeff_of(t10.rows[0], "H(1)*zeta(3)") == 3
    assert coeff_of(t10.rows[0], "H(0)*zeta(5)") == Fraction(-11, 2)

    t01 = h_ab_coefficients(0, 1)
    assert coeff_of(t01.rows[0], "H(1)*zeta(3)") == -2
    assert coeff_of(t01.rows[0], "H(0)*zeta(5)") == Fraction(9, 2)


def test_expand_h_to_pi():
    table = expand_h_to_pi(h_ab_coefficients(1, 0))
    row = table.rows[0]
    assert coeff_of(row, "pi^2*zeta(3)") == Fraction(3, 6)
    assert coeff_of(row, "zeta(5)") == Fraction(-11, 2)


def test_composition_recovers_products(cache):
    # substituting the Euler rows into the inverse table is P*A = I at
    # the table level: the product row collapses to its own label
    for K in range(2, 12):
        constants = [Fraction(-1, 2)] * (K - 1)
        euler = euler_rhs_coefficients(K, constants, constants_flag="x")
        inverse = inverse_reduction_coefficients(K, constants, cache)
        for s in range(1, K):
            row = inverse.rows[s - 1]
            acc: dict[str, Fraction] = {}
            for term in row.terms:
                if term.basis.startswith("zeta(") and "," in term.basis:
                    r = next(
                        i + 1
                        for i, er in enumerate(euler.rows)
                        if er.target == term.basis
                    )
                    for et in euler.rows[r - 1].terms:
                        acc[et.basis] = acc.get(et.basis, Fraction(0)) + term.coeff * et.coeff
                else:
                    acc[term.basis] = acc.get(term.basis, Fraction(0)) + term.coeff
            target = row.target
            for basis, value in acc.items():
                assert value == (1 if basis == target else 0), (K, s, basis)


def test_json_round_trip(cache):
    for table in [
        euler_rhs_coefficients(4),
        inverse_reduction_coefficients(4, [Fraction(-1, 2)] * 3, cache),
        h_ab_coefficients(2, 1),
    ]:
        assert table_from_json(table_to_json(table)) == table


def test_csv_flatten():
    csv = table_to_csv(h_ab_coefficients(0, 0))
    lines = csv.strip().split("\n")
    assert lines[0] == "target,basis,coeff,flag"
    assert lines[1] == "H(0,0),H(0)*zeta(3),1,"


def test_rejects_bad_params():
    with pytest.raises(ValueError):
        euler_rhs_coefficients(1)
    with pytest.raises(ValueError):
        h_ab_coefficients(-1, 0)
    with pytest.raises(ValueError):
        inverse_reduction_coefficients(3, [Fraction(1)])


def test_euler_constant():
    assert euler_constant(2, 1) == Fraction(-11, 2)
    assert [euler_constant(3, r) for r in (1, 2)] == [Fraction(-11), Fraction(-18)]
    assert euler_constant(8, 4) == Fraction(-24311, 2)
    for K, r in [(1, 1), (3, 0), (3, 3)]:
        with pytest.raises(ValueError):
            euler_constant(K, r)
