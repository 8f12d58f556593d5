import json
import math
from fractions import Fraction

import pytest

from doublezeta.bernoulli import BernoulliCache
from doublezeta.matrices import build_a, build_p
from doublezeta.rationals import format_rational
from doublezeta.reductions import (
    PRINTED_CONSTANT,
    CoefficientTable,
    TableRow,
    Term,
    euler_constant,
    euler_rhs_coefficients,
    expand_h_to_pi,
    h_ab_coefficients,
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
    table = inverse_reduction_coefficients(3, [Fraction(0), Fraction(0)])
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
        table = inverse_reduction_coefficients(K, constants)
        expected = _reference_inverse_constants(K, constants, cache)
        for row, want in zip(table.rows, expected, strict=True):
            assert coeff_of(row, label) == want
            assert (label in [t.basis for t in row.terms]) == (want != 0)


@pytest.mark.parametrize("K", [3, 4, 5, 6, 12, 30])
def test_inverse_table_suppresses_vanishing_constant(K, cache):
    # c = A e_1 gives (P c)_s = 1 for s = 1 and 0 otherwise, since PA = I
    a = build_a(K)
    constants = [a.at(r - 1, 0) for r in range(1, K)]
    assert _reference_inverse_constants(K, constants, cache) == [-1] + [0] * (K - 2)
    table = inverse_reduction_coefficients(K, constants)
    label = f"zeta({2 * K + 1})"
    assert coeff_of(table.rows[0], label) == -1
    for row in table.rows[1:]:
        assert label not in [t.basis for t in row.terms]
        assert label not in row.bases and len(row.numerators) == K - 1
    assert_same_exports(table, old_inverse(K, constants, cache))


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


def test_expand_h_to_pi_leaves_other_tables_as_they_are():
    # only h_ab tables carry H factors
    for table in (
        euler_rhs_coefficients(5),
        inverse_reduction_coefficients(5, [Fraction(-1, 2)] * 4),
    ):
        assert expand_h_to_pi(table) == table


def test_composition_recovers_products():
    # substituting the Euler rows into the inverse table is P*A = I at
    # the table level: the product row collapses to its own label
    for K in range(2, 12):
        constants = [Fraction(-1, 2)] * (K - 1)
        euler = euler_rhs_coefficients(K, constants, constants_flag="x")
        inverse = inverse_reduction_coefficients(K, constants)
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


def test_json_round_trip():
    for table in [
        euler_rhs_coefficients(4),
        inverse_reduction_coefficients(4, [Fraction(-1, 2)] * 3),
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


# The Fraction-per-coefficient builders and serializers that the int-row
# tables replaced, kept as the reference: a table is (kind, params, rows),
# a row (target, [Term, ...]), every coefficient a Fraction.


def old_euler(K, constants=None, constants_flag=None):
    if constants is None:
        constants, flag = [PRINTED_CONSTANT] * (K - 1), "as printed"
    else:
        flag = constants_flag
    a = build_a(K)
    rows = []
    for r in range(1, K):
        terms = [Term(f"zeta({2 * K + 1})", constants[r - 1], flag)]
        for s in range(1, K):
            terms.append(
                Term(f"zeta({2 * s})*zeta({2 * K + 1 - 2 * s})", Fraction(a.at(r - 1, s - 1)))
            )
        rows.append((f"zeta({2 * r},{2 * K + 1 - 2 * r})", terms))
    return "euler_reduction", {"K": K}, rows


def old_inverse(K, constants, cache):
    p = build_p(K, cache)
    rows = []
    for s in range(1, K):
        terms = [
            Term(f"zeta({2 * r},{2 * K + 1 - 2 * r})", p.at(s - 1, r - 1)) for r in range(1, K)
        ]
        const = -sum((p.at(s - 1, r - 1) * constants[r - 1] for r in range(1, K)), Fraction(0))
        if const:
            terms.append(Term(f"zeta({2 * K + 1})", const))
        rows.append((f"zeta({2 * s})*zeta({2 * K + 1 - 2 * s})", terms))
    params = {"K": K, "constants": [format_rational(c) for c in constants]}
    return "inverse_reduction", params, rows


def old_h_ab(a, b):
    K = a + b + 1
    terms = [
        Term(
            f"H({K - r})*zeta({2 * r + 1})",
            2 * (-1) ** r * (
                math.comb(2 * r, 2 * a + 2)
                - (1 - Fraction(1, 4**r)) * math.comb(2 * r, 2 * b + 1)
            ),
        )
        for r in range(1, K + 1)
    ]
    return "h_ab", {"a": a, "b": b, "K": K}, [(f"H({a},{b})", terms)]


def old_expand_h_to_pi(table):
    kind, params, rows = table
    out_rows = []
    for target, terms in rows:
        out_terms = []
        for term in terms:
            coeff, out_factors = term.coeff, []
            for f in term.basis.split("*"):
                if f.startswith("H(") and f.endswith(")"):
                    n = int(f[2:-1])
                    coeff /= math.factorial(2 * n + 1)
                    if n > 0:
                        out_factors.append(f"pi^{2 * n}")
                else:
                    out_factors.append(f)
            basis = "*".join(out_factors) if out_factors else "1"
            out_terms.append(Term(basis, coeff, term.flag))
        out_rows.append((target, out_terms))
    return kind, dict(params), out_rows


def old_to_json(table):
    kind, params, rows = table
    payload = {
        "kind": kind,
        "params": params,
        "rows": [
            {
                "target": target,
                "terms": [
                    {
                        "basis": t.basis,
                        "coeff": format_rational(t.coeff),
                        **({"flag": t.flag} if t.flag is not None else {}),
                    }
                    for t in terms
                ],
            }
            for target, terms in rows
        ],
    }
    return json.dumps(payload, separators=(", ", ": "))


def old_to_csv(table):
    lines = ["target,basis,coeff,flag"]
    for target, terms in table[2]:
        for t in terms:
            lines.append(f"{target},{t.basis},{format_rational(t.coeff)},{t.flag or ''}")
    return "\n".join(lines) + "\n"


def assert_same_exports(table, reference):
    assert table_to_json(table) == old_to_json(reference)
    assert table_to_csv(table) == old_to_csv(reference)
    assert table_from_json(table_to_json(table)) == table
    assert [(row.target, list(row.terms)) for row in table.rows] == reference[2]


# more digits than Python's int-to-str limit of 4300
HUGE = Fraction(-(10**4400) - 7, 3)


def _export_constant_sets(K):
    # -1/2, -11/2, 1/3, a mix with 0 and an integer, c_r, and one set with
    # a constant past the int-to-str limit
    huge = [Fraction(1, 3)] * (K - 1)
    huge[(K - 1) // 2] = HUGE
    return _constant_sets(K) + [huge]


@pytest.mark.parametrize("K", range(2, 31))
def test_inverse_exports_match_the_fraction_reference(K, cache):
    for constants in _export_constant_sets(K):
        table = inverse_reduction_coefficients(K, constants)
        assert_same_exports(table, old_inverse(K, constants, cache))


@pytest.mark.parametrize("K", range(2, 31))
def test_euler_exports_match_the_fraction_reference(K):
    assert_same_exports(euler_rhs_coefficients(K), old_euler(K))
    for constants in _export_constant_sets(K):
        table = euler_rhs_coefficients(K, constants, constants_flag="audited")
        assert_same_exports(table, old_euler(K, constants, "audited"))
    # custom constants without a flag
    mixed = _constant_sets(K)[3]
    assert_same_exports(euler_rhs_coefficients(K, mixed), old_euler(K, mixed))


@pytest.mark.parametrize("K", [2, 5, 12])
def test_exports_write_a_flag_as_json_does(K):
    # json.dumps encodes every label and flag of the built text, so a quote,
    # a backslash and a non-ASCII character are escaped as in the reference
    flag = 'audited "at 40" \\ digits, \u03b6'
    for constants in _export_constant_sets(K):
        table = euler_rhs_coefficients(K, constants, constants_flag=flag)
        assert_same_exports(table, old_euler(K, constants, flag))


def test_json_export_of_empty_tables_and_rows():
    empty = CoefficientTable("euler_reduction", {"K": 2})
    assert table_to_json(empty) == old_to_json(("euler_reduction", {"K": 2}, []))
    table = CoefficientTable("h_ab", {}, (TableRow.from_terms("t", []),))
    assert table_to_json(table) == old_to_json(("h_ab", {}, [("t", [])]))
    assert table_from_json(table_to_json(table)) == table


@pytest.mark.parametrize("a, b", [(a, b) for a in range(8) for b in range(8 - a)])
def test_h_exports_match_the_fraction_reference(a, b):
    table, reference = h_ab_coefficients(a, b), old_h_ab(a, b)
    assert_same_exports(table, reference)
    assert_same_exports(expand_h_to_pi(table), old_expand_h_to_pi(reference))


def test_rows_are_canonical():
    # lowest terms over a positive denominator, as TableRow.from_terms builds them
    tables = [
        euler_rhs_coefficients(6),
        euler_rhs_coefficients(6, [Fraction(4, 6), 2, Fraction(0), HUGE, Fraction(-5, 8)]),
        inverse_reduction_coefficients(6, [Fraction(-1, 2)] * 5),
        inverse_reduction_coefficients(6, [build_a(6).at(r, 0) for r in range(5)]),
        h_ab_coefficients(2, 1),
        expand_h_to_pi(h_ab_coefficients(2, 1)),
    ]
    for table in tables:
        for row in table.rows:
            assert row.denominator > 0
            assert math.gcd(row.denominator, *row.numerators) == 1
            assert TableRow.from_terms(row.target, row.terms) == row
