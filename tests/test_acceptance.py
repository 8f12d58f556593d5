"""Acceptance sweep: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All exact criteria use zero tolerance; numeric criteria state theirs.
"""

import json
import math
from fractions import Fraction

import jsonschema
import pytest

from doublezeta import matrices, numerics, reductions, series
from doublezeta.bernoulli import BernoulliCache
from doublezeta.cli import main as cli_main
from test_matrices import closed_form, times
from test_reductions import plain, table_from_json, terms


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


@pytest.fixture(scope="module")
def cache():
    return BernoulliCache()


def test_criterion_1_conjecture_sweep(cache):
    reports = matrices.verify_inverse_sweep(2, 40, cache)
    ok = [rep.K for rep in reports] == list(range(2, 41))
    ok &= all(rep.all_pass for rep in reports)
    report("1. conjecture sweep K=2..40: P=Q, PA=AP=I, det(A)!=0 (exact)", ok)


def test_criterion_2_closed_form_cross_check(cache):
    ok = True
    for K in range(2, 21):
        p = matrices.build_p(K, cache)
        pb = times(p, matrices.build_b_part(K))
        pc = times(p, matrices.build_c_part(K))
        closed = closed_form(K, cache)
        for s in range(1, K):
            for sp in range(1, K):
                vb = closed.at(s - 1, sp - 1)
                ok &= vb == pb.at(s - 1, sp - 1)
                ok &= int(s == sp) - vb == pc.at(s - 1, sp - 1)
    report("2. closed-form PB/PC cross-check K=2..20 (exact)", ok)


def test_criterion_3_series_identity(cache):
    results = series.verify_reflection(6, 12, 48, cache)
    ok = len(results) == 72 and all(bad is None for _, _, bad in results)
    report("3. reflection identity 1<=s<=6, 1<=m<=12, order 48 (exact)", ok)


def test_criterion_4_carlitz_sweep(cache):
    ok = series.verify_carlitz(60, cache) == []
    report("4. Carlitz identity 0<=m<=n<=60 (exact)", ok)


def test_criterion_5_bernoulli_fidelity(cache):
    ok = cache.get(0) == 1 and cache.get(1) == Fraction(-1, 2)
    ok &= all(cache.get(2 * k + 1) == 0 for k in range(1, 41))
    # (t/(e^t - 1)) ((e^t - 1)/t) = 1 as a Cauchy product, coefficient by coefficient
    ok &= all(
        sum(cache.get(k) / (math.factorial(k) * math.factorial(n - k + 1)) for k in range(n + 1))
        == (1 if n == 0 else 0)
        for n in range(65)
    )
    report("5. Bernoulli fidelity and generating-function product, order 64", ok)


@pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (0, 1)])
def test_criterion_6_h_ab_numeric_audit(a, b):
    rep = numerics.audit_h_ab(a, b, 30)
    ok = rep.agrees_within_bounds and rep.abs_difference <= Fraction(1, 10**20)
    report(f"6. H({a},{b}) formula vs direct summation, |diff| <= 1e-20", ok)


def test_criterion_7_euler_audit_behavior():
    ok = True
    for K in (2, 3):
        for r in range(1, K):
            (rep,) = numerics.audit_euler(K, 40, r)
            (fine,) = numerics.audit_euler(K, 80, r)
            stable = (
                abs(rep.residual_ratio.value - fine.residual_ratio.value)
                <= rep.residual_ratio.error_bound
            )
            ok &= stable and rep.reconstructed is not None
            # consistency with the printed -1/2 is a finding, not an assertion
            print(
                f"   audit K={K} r={r}: reconstructed={rep.reconstructed}, "
                f"printed_constant_consistent={rep.printed_constant_consistent}"
            )
    report("7. Euler-constant audit completes, stable, reconstructs (K=2,3)", ok)


def test_criterion_8_inverse_reduction_numeric_closure():
    # each product zeta(2s) zeta(2K+1-2s) equals its inverse-reduction row
    # with the audited constants, evaluated on the audit's double zetas,
    # within the bound propagated from the values' own error bounds
    digits = 40
    ok = True
    for K in range(2, 9):
        reports = numerics.audit_euler(K, digits)
        audited = [rep.reconstructed for rep in reports]
        ok &= audited == [reductions.euler_constant(K, r) for r in range(1, K)]
        values = {f"zeta({2 * r},{2 * K + 1 - 2 * r})": rep.lhs for r, rep in enumerate(reports, 1)}
        values[f"zeta({2 * K + 1})"] = numerics.zeta_single(2 * K + 1, digits)
        table = reductions.inverse_reduction_coefficients(K, audited)
        for s, row in enumerate(table.rows, start=1):
            pairs = [(term.coeff, values[term.basis]) for term in terms(row)]
            acc = sum(c * x.value for c, x in pairs)
            bound = sum(abs(c) * x.error_bound for c, x in pairs)
            x = numerics.zeta_single(2 * s, digits)
            y = numerics.zeta_single(2 * K + 1 - 2 * s, digits)
            # |xy - XY| <= |X| e_y + |Y| e_x + e_x e_y
            bound += (
                abs(x.value) * y.error_bound
                + abs(y.value) * x.error_bound
                + x.error_bound * y.error_bound
            )
            ok &= abs(acc - x.value * y.value) <= bound
    report("8. inverse reduction with audited constants closes within its bounds, K=2..8", ok)


MATRIX_SCHEMA = {
    "type": "object",
    "properties": {
        "K": {"type": "integer", "minimum": 2},
        "name": {"enum": ["A", "B", "C", "P", "Q"]},
        "rows": {"type": "integer", "minimum": 1},
        "cols": {"type": "integer", "minimum": 1},
        "entries": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "string", "pattern": r"^-?[0-9]+(/[0-9]+)?$"},
            },
        },
    },
    "required": ["K", "name", "rows", "cols", "entries"],
    "additionalProperties": False,
}

TABLE_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["euler_reduction", "inverse_reduction", "h_ab"]},
        "params": {"type": "object"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "target": {"type": "string"},
                    "terms": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "basis": {"type": "string"},
                                "coeff": {
                                    "type": "string",
                                    "pattern": r"^-?[0-9]+(/[0-9]+)?$",
                                },
                                "flag": {"type": "string"},
                            },
                            "required": ["basis", "coeff"],
                            "additionalProperties": False,
                        },
                    },
                },
                "required": ["target", "terms"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["kind", "params", "rows"],
    "additionalProperties": False,
}


def test_criterion_9_determinism_and_schema(capsys):
    ok = True

    def run(argv):
        code = cli_main(argv)
        out, _ = capsys.readouterr()
        return code, out

    for argv in [
        ["matrix", "--K", "5", "--which", "P"],
        ["reduce", "euler", "--K", "4"],
        ["reduce", "h", "--a", "1", "--b", "1"],
    ]:
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        ok &= code1 == code2 == 0 and out1 == out2
        payload = json.loads(out1)
        schema = MATRIX_SCHEMA if argv[0] == "matrix" else TABLE_SCHEMA
        jsonschema.validate(payload, schema)

    for table in [
        reductions.euler_rhs_coefficients(5),
        reductions.inverse_reduction_coefficients(5, [Fraction(-1, 2)] * 4),
        reductions.h_ab_coefficients(2, 1),
    ]:
        ok &= table_from_json(reductions.table_to_json(table)) == plain(table)
    report("9. byte-identical reruns and schema-valid exports", ok)
