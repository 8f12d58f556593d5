"""Independent checks of doublezeta's outputs.

Nothing here imports doublezeta.  A is rebuilt from ``math.comb``; the
double zeta reference is the classical odd-weight evaluation (Borwein,
Borwein and Girgensohn, "Explicit evaluation of Euler sums", 1995) with
the package's convention zeta(k1, k2) = sum_{j < m} j^-k1 m^-k2:

    zeta(2r, 2K+1-2r) = sum_s A_{r,s} zeta(2s) zeta(2K+1-2s) + c_r zeta(2K+1),
    c_r = -(1 + C(2K, 2r-1) + C(2K, 2K-2r)) / 2,

evaluated with ``mpmath.zeta``; odd k1 goes through the stuffle relation
zeta(a,b) + zeta(b,a) = zeta(a) zeta(b) - zeta(a+b) first.

A verdict is OK, CONTRACT or WRONG.  CONTRACT means the output is right
but misses the documented precision: an error bound above 10^-digits, or
an audit row whose constant could not be reconstructed.  WRONG means the
output itself is wrong.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

OK, CONTRACT, WRONG = "ok", "contract", "wrong"
_RANK = {OK: 0, CONTRACT: 1, WRONG: 2}

# log10(bound / 10^-digits) is capped here so an infinite bound stays a
# finite JSON number
LOG10_CAP = 1e6


@dataclass
class Verdict:
    status: str = OK
    detail: str = ""
    bound_log10_over_target: float | None = None
    rows_ok: int = 0
    rows: int = 0

    def flag(self, status: str, detail: str) -> None:
        if _RANK[status] > _RANK[self.status]:
            self.status, self.detail = status, detail


# ------------------------------------------------------------ exact algebra


def comb_a(K: int) -> list[list[int]]:
    """A_{r,s} = C(2K-2s, 2r-1) + C(2K-2s, 2K-2r) for r, s = 1..K-1."""
    return [
        [
            math.comb(2 * K - 2 * s, 2 * r - 1) + math.comb(2 * K - 2 * s, 2 * K - 2 * r)
            for s in range(1, K)
        ]
        for r in range(1, K)
    ]


def is_left_inverse(p: list[list[Fraction]], a: list[list[int]]) -> bool:
    """P A = I, checked in integers one row of P at a time."""
    n = len(a)
    if len(p) != n or any(len(row) != n for row in p):
        return False
    for i, row in enumerate(p):
        d = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (d // x.denominator) for x in row]
        for j in range(n):
            if sum(ints[k] * a[k][j] for k in range(n)) != (d if i == j else 0):
                return False
    return True


@functools.lru_cache(maxsize=None)
def inverse_a(K: int) -> tuple[tuple[Fraction, ...], ...]:
    """A^-1 by Gauss-Jordan elimination over the rationals."""
    n = K - 1
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(comb_a(K))]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def euler_constant(K: int, r: int) -> Fraction:
    return Fraction(-(1 + math.comb(2 * K, 2 * r - 1) + math.comb(2 * K, 2 * K - 2 * r)), 2)


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def bernoulli_reference(n_max: int) -> list[Fraction]:
    """B_0..B_n_max by the Akiyama-Tanigawa algorithm, with B_1 = -1/2."""
    out, a = [], []
    for m in range(n_max + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n_max >= 1:
        out[1] = -out[1]
    return out


# ------------------------------------------------------------ numeric oracle


def zeta2(k1: int, k2: int) -> mpf:
    """zeta(k1, k2) = sum_{j<m} j^-k1 m^-k2 at odd weight, at mp's precision."""
    w = k1 + k2
    if w % 2 == 0 or k1 < 2 or k2 < 2:
        raise ValueError(f"no closed form used for zeta({k1},{k2})")
    if k1 % 2:
        return mp.zeta(k1) * mp.zeta(k2) - mp.zeta(w) - zeta2(k2, k1)
    K, r = (w - 1) // 2, k1 // 2
    row = comb_a(K)[r - 1]
    total = sum(row[s - 1] * mp.zeta(2 * s) * mp.zeta(w - 2 * s) for s in range(1, K))
    c = euler_constant(K, r)
    return total + mpf(c.numerator) / c.denominator * mp.zeta(w)


@functools.lru_cache(maxsize=None)
def reference(k: tuple[int, ...], digits: int) -> mpf:
    with mp.workdps(digits + 40):
        return +(mp.zeta(k[0]) if len(k) == 1 else zeta2(*k))


def _encloses(value: str, bound: str, ref: mpf, digits: int) -> bool:
    """ref lies in value +- bound, widened by the rounding of the printed text.

    The value is printed to ``digits`` significant digits and the bound to
    three, so half a unit in the value's last digit and half a percent of
    the bound are allowed on top.
    """
    with mp.workdps(digits + 40):
        v, b = mpf(value), mpf(bound)
        half_ulp = mpf(5) * mpf(10) ** (mp.floor(mp.log10(abs(v))) - digits) if v else 0
        return abs(v - ref) <= b * mpf("1.005") + half_ulp


def _log10_over_target(bound: str, digits: int) -> float:
    b = mpf(bound)
    if not mp.isfinite(b):
        return LOG10_CAP
    return min(LOG10_CAP, float(mp.log10(b)) + digits) if b > 0 else -LOG10_CAP


_ZETA_LINE = re.compile(r"zeta\((\d+(?:,\d+)?)\) = (\S+) ± (\S+)\n\Z")


def check_zeta(digits: int, text: str) -> Verdict:
    v = Verdict()
    m = _ZETA_LINE.match(text)
    if m is None:
        v.flag(WRONG, f"unparsable output {text[:80]!r}")
        return v
    k = tuple(int(x) for x in m.group(1).split(","))
    value, bound = m.group(2), m.group(3)
    v.bound_log10_over_target = _log10_over_target(bound, digits)
    if not _encloses(value, bound, reference(k, digits), digits):
        v.flag(WRONG, f"zeta{k} at {digits} digits: reference outside {value} ± {bound}")
    elif v.bound_log10_over_target > 0:
        v.flag(CONTRACT, f"zeta{k} at {digits} digits: bound {bound} > 1e-{digits}")
    return v


def check_audit_euler(K: int, digits: int, text: str) -> Verdict:
    v = Verdict()
    payload = json.loads(text)
    rows = payload.get("rows", [])
    if [row.get("r") for row in rows] != list(range(1, K)):
        v.flag(WRONG, f"audit K={K}: rows {[row.get('r') for row in rows]}")
        return v
    for row in rows:
        r = row["r"]
        v.rows += 1
        lhs = row["lhs"]
        ref = reference((2 * r, 2 * K + 1 - 2 * r), digits)
        if not _encloses(lhs["value"], lhs["error_bound"], ref, digits):
            v.flag(WRONG, f"audit K={K} r={r}: lhs misses the reference")
        rec = row["reconstructed"]
        if rec is None:
            v.flag(CONTRACT, f"audit K={K} r={r} at {digits} digits: reconstructed null")
        elif Fraction(rec) != euler_constant(K, r):
            v.flag(WRONG, f"audit K={K} r={r}: reconstructed {rec}, c_r = {fmt(euler_constant(K, r))}")
        else:
            v.rows_ok += 1
    return v


_H_TARGET = {(0, 0): (3,), (1, 0): (2, 3), (0, 1): (3, 2)}


def check_audit_h(a: int, b: int, digits: int, text: str) -> Verdict:
    v = Verdict()
    payload = json.loads(text)
    ref = reference(_H_TARGET[(a, b)], digits)
    for key in ("formula_value", "direct_value"):
        field = payload[key]
        if not _encloses(field["value"], field["error_bound"], ref, digits):
            v.flag(WRONG, f"audit h ({a},{b}): {key} misses the reference")
    if payload["agrees_within_bounds"] is not True:
        v.flag(WRONG, f"audit h ({a},{b}): agrees_within_bounds is false")
    return v


def _arg(argv: list[str], flag: str, default: str | None = None) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_numeric(argv: list[str], text: str) -> Verdict:
    """Check a `zeta` or `audit` op against the numeric oracle."""
    digits = int(_arg(argv, "--digits"))
    if argv[0] == "zeta":
        return check_zeta(digits, text)
    if argv[1] == "euler":
        return check_audit_euler(int(_arg(argv, "--K")), digits, text)
    return check_audit_h(int(_arg(argv, "--a")), int(_arg(argv, "--b")), digits, text)


# ------------------------------------------------------------- exact checks


def _matrix(text: str) -> tuple[int, str, list[list[Fraction]]]:
    payload = json.loads(text)
    return payload["K"], payload["name"], [[Fraction(x) for x in row] for row in payload["entries"]]


def check_matrix(text: str) -> str | None:
    """A equals comb_a; P and Q satisfy P A = I.  None means the check passed."""
    K, name, entries = _matrix(text)
    a = comb_a(K)
    if name == "A":
        ok = entries == [[Fraction(x) for x in row] for row in a]
    else:
        ok = is_left_inverse(entries, a)
    return None if ok else f"matrix {name} K={K} fails the independent check"


def check_verify_lines(text: str) -> str | None:
    lines = text.splitlines()
    if lines and all(line.endswith(": pass") for line in lines):
        return None
    return "a verify line does not read pass"


def _inverse_rows(K: int, constants: list[Fraction]) -> list[tuple[str, list[tuple[str, Fraction]]]]:
    p = inverse_a(K)
    rows = []
    for s in range(1, K):
        terms = [(f"zeta({2 * r},{2 * K + 1 - 2 * r})", p[s - 1][r - 1]) for r in range(1, K)]
        const = -sum((p[s - 1][r - 1] * constants[r - 1] for r in range(1, K)), Fraction(0))
        if const:
            terms.append((f"zeta({2 * K + 1})", const))
        rows.append((f"zeta({2 * s})*zeta({2 * K + 1 - 2 * s})", terms))
    return rows


def _h_pi_rows(a: int, b: int) -> list[tuple[str, Fraction]]:
    K = a + b + 1
    terms = []
    for r in range(1, K + 1):
        n = K - r
        c = 2 * (-1) ** r * (
            math.comb(2 * r, 2 * a + 2) - (1 - Fraction(1, 4**r)) * math.comb(2 * r, 2 * b + 1)
        ) / math.factorial(2 * n + 1)
        basis = f"zeta({2 * r + 1})" if n == 0 else f"pi^{2 * n}*zeta({2 * r + 1})"
        terms.append((basis, c))
    return terms


def _table_terms(payload: dict) -> list[tuple[str, list[tuple[str, Fraction]]]]:
    return [
        (row["target"], [(t["basis"], Fraction(t["coeff"])) for t in row["terms"]])
        for row in payload["rows"]
    ]


def validate_exact(argv: list[str], text: str) -> str | None:
    """Full independent check of an exact op's output, used before a digest
    is recorded.  None means the output is right."""
    kind = argv[0]
    if kind == "verify":
        what = argv[1]
        if what == "conjecture":
            K = int(_arg(argv, "--k-min"))
            expect = f"K={K}: pass\n"
        elif what == "closed-forms":
            lo, hi = int(_arg(argv, "--k-min")), int(_arg(argv, "--k-max"))
            expect = "".join(f"K={K}: pass\n" for K in range(lo, hi + 1))
        elif what == "carlitz":
            expect = f"carlitz m<=n<={_arg(argv, '--max')}: pass\n"
        else:
            expect = "".join(
                f"(s={s}, m={m}, order=48): pass\n" for s in range(1, 7) for m in range(1, 13)
            )
        return None if text == expect else f"{what}: unexpected output"
    if kind == "bernoulli":
        values = json.loads(text)["values"]
        ref = [fmt(x) for x in bernoulli_reference(int(_arg(argv, "--max")))]
        return None if values == ref else "Bernoulli numbers differ from Akiyama-Tanigawa"
    if kind == "matrix":
        K, name, entries = _matrix(text)
        if name == "A":
            return check_matrix(text)
        if entries != [list(row) for row in inverse_a(K)]:
            return f"matrix {name} K={K} is not A^-1"
        return check_matrix(text)
    if argv[1] == "euler":
        K = int(_arg(argv, "--K"))
        a = comb_a(K)
        payload = json.loads(text)
        flags = [row["terms"][0].get("flag") for row in payload["rows"]]
        expect = [
            (
                f"zeta({2 * r},{2 * K + 1 - 2 * r})",
                [(f"zeta({2 * K + 1})", Fraction(-1, 2))]
                + [(f"zeta({2 * s})*zeta({2 * K + 1 - 2 * s})", Fraction(a[r - 1][s - 1])) for s in range(1, K)],
            )
            for r in range(1, K)
        ]
        ok = _table_terms(payload) == expect and flags == ["as printed"] * (K - 1)
        return None if ok else f"euler table K={K} differs"
    if argv[1] == "inverse":
        K = int(_arg(argv, "--K"))
        constants = [Fraction(c) for c in _arg(argv, "--constants")[len("explicit:"):].split(",")]
        rows = _inverse_rows(K, constants)
        if _arg(argv, "--format", "json") == "csv":
            expect = "target,basis,coeff,flag\n" + "".join(
                f"{target},{basis},{fmt(c)},\n" for target, terms in rows for basis, c in terms
            )
            return None if text == expect else f"inverse CSV K={K} differs"
        payload = json.loads(text)
        ok = _table_terms(payload) == rows and payload["params"]["constants"] == [fmt(c) for c in constants]
        return None if ok else f"inverse table K={K} differs"
    # reduce h --pi-basis
    a, b = int(_arg(argv, "--a")), int(_arg(argv, "--b"))
    payload = json.loads(text)
    if _table_terms(payload) != [(f"H({a},{b})", _h_pi_rows(a, b))]:
        return f"H({a},{b}) pi-basis table differs"
    if (a, b) in _H_TARGET:
        with mp.workdps(80):
            total = sum(
                mpf(c.numerator) / c.denominator
                * mp.pi ** (int(basis.split("*")[0][3:]) if basis.startswith("pi^") else 0)
                * mp.zeta(int(basis.rsplit("(", 1)[1][:-1]))
                for basis, c in _h_pi_rows(a, b)
            )
            if abs(total - reference(_H_TARGET[(a, b)], 40)) > mpf(10) ** -60:
                return f"H({a},{b}) pi-basis table does not evaluate to its target"
    return None
