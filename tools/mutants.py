#!/usr/bin/env python3
"""Mutation gate: every counted bound and every exact compare is seen by a test.

Usage: python tools/mutants.py [NAME ...]

Copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory.  A mutant is one exact string replacement in one file of
``src/``; its anchor must occur there exactly once, so a mutant whose code
has moved or changed is reported, never skipped.  The named tests are
first run on the unmutated copy, where they must pass.  Then each mutant
is applied in turn, its tests are run with ``pytest -x`` and the file is
restored.  A mutant is killed when pytest reports a failed test (exit 1);
any other exit, a collection error or no test selected, is an error.

Prints one line per mutant and exits 1 on a survivor that is not listed in
``EQUIVALENT``, a missing or repeated anchor, or an error.  With names,
runs only those mutants.  Needs pytest and the test dependencies; the
package is imported from the copy.  Bytecode is not written, so a mutant
of the same size as its anchor cannot be read from a stale cache.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/doublezeta
    anchor: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the copy's root


MUTANTS = (
    Mutant(
        "lane one byte narrower",
        "matrices.py",
        "count.bit_length()) // 8 + 1",
        "count.bit_length()) // 8",
        ("tests/test_matrices.py::test_lanes_hold_the_worst_case_weights",),
    ),
    Mutant(
        "sweep mask one lane short",
        "matrices.py",
        "mask = (1 << lanes.shifts[K - 1]) - 1",
        "mask = (1 << lanes.shifts[K - 2]) - 1",
        ("tests/test_matrices.py::test_closed_forms_pass_exactly_when_pa_is_identity",),
    ),
    Mutant(
        "Y compare dropped",
        "matrices.py",
        ") and all((x - e) & mask == 0 for x, e in y_pairs[: K - 1])",
        ")",
        ("tests/test_matrices.py::test_closed_forms_pass_exactly_when_pa_is_identity",),
    ),
    Mutant(
        "sweep skips k_min",
        "matrices.py",
        "c <= 2 * (k_max - k_min)",
        "c < 2 * (k_max - k_min)",
        ("tests/test_matrices.py::test_sweeps_report_what_each_k_reports_alone",),
    ),
    Mutant(
        "Bareiss pivot keeps its sign",
        "matrices.py",
        "sign = -sign",
        "sign = sign",
        ("tests/test_matrices.py::test_determinant_examples",),
    ),
    Mutant(
        "Euler constant without its -1/2",
        "reductions.py",
        "Fraction(-(1 + s0), 2)",
        "Fraction(-s0, 2)",
        ("tests/test_reductions.py::test_euler_constant",),
    ),
    Mutant(
        "pi's counted error set to 0",
        "numerics.py",
        "error += abs(weight) * (n // 2 + 1)",
        "error += 0",
        ("tests/test_numerics.py::test_pi_encloses_mpmath",),
    ),
    Mutant(
        "product without its ulp",
        "numerics.py",
        "-(-spread >> other.scale) + 1,",
        "-(-spread >> other.scale),",
        ("tests/test_numerics.py::test_fixed_product_encloses",),
    ),
    Mutant(
        "tail guard cut from 64 to 8 bits",
        "numerics.py",
        "target.bit_length() - 65",
        "target.bit_length() - 9",
        ("tests/test_numerics.py::test_tail_rounding_is_counted",),
    ),
    Mutant(
        "double direct sum counts one ulp per m",
        "numerics.py",
        "_Fixed(direct, 2 * (M - 1), bits)",
        "_Fixed(direct, M - 1, bits)",
        ("tests/test_numerics.py::test_double_direct_sum_counts_two_ulps_per_m",),
    ),
    Mutant(
        "rho_J over (2J-1)! for (2J)!",
        "numerics.py",
        "den * math.factorial(n))",
        "den * math.factorial(n - 1))",
        ("tests/test_numerics.py::test_ratios_are_the_floor_of_b_2j_over_its_factorial",),
    ),
    Mutant(
        "Euler's formula with 2^(2n-1) for 4^n",
        "numerics.py",
        "abs(num) << k,",
        "abs(num) << k - 1,",
        ("tests/test_numerics.py::test_even_zeta_is_eulers_formula_over_b_2n",),
    ),
    Mutant(
        "--out opened after the command runs",
        "cli.py",
        "        if args.out is not None:\n"
        "            out = _OutFile(args.out)\n"
        "        try:\n"
        "            code, text = args.func(args)\n",
        "        try:\n"
        "            code, text = args.func(args)\n"
        "            if args.out is not None:\n"
        "                out = _OutFile(args.out)\n",
        ("tests/test_cli.py::test_unwritable_out_fails_before_the_command_runs",),
    ),
    Mutant(
        "reconstruction bound 65",
        "numerics.py",
        "_DENOMINATOR_BOUND = 64",
        "_DENOMINATOR_BOUND = 65",
        ("tests/test_numerics.py::test_rational_reconstruct",),
    ),
    Mutant(
        "reconstruction bound 63",
        "numerics.py",
        "_DENOMINATOR_BOUND = 64",
        "_DENOMINATOR_BOUND = 63",
        ("tests/test_numerics.py::test_rational_reconstruct",),
    ),
    Mutant(
        "Euler table's printed constant unflagged",
        "reductions.py",
        'flags = ("as printed",) + (None,) * (K - 1)',
        "flags = (None,) + (None,) * (K - 1)",
        ("tests/test_reductions.py::test_euler_table_k2",),
    ),
    Mutant(
        "pi's counted error 2 ulps lower per arctangent",
        "numerics.py",
        "error += abs(weight) * (n // 2 + 1)",
        "error += abs(weight) * (n // 2 - 1)",
        ("tests/test_numerics.py::test_pi_encloses_mpmath",),
    ),
    Mutant(
        "Bareiss reads a zero column as determinant 1",
        "matrices.py",
        "            else:\n                return 0\n",
        "            else:\n                return 1\n",
        ("tests/test_matrices.py::test_determinant_examples",),
    ),
    Mutant(
        "_nstr never lowers its exponent",
        "numerics.py",
        "    while scaled(-e)[0] < 1:\n        e -= 1\n",
        "    while scaled(-e)[0] < 1:\n        break\n",
        ("tests/test_numerics.py::test_nstr_examples",),
    ),
    Mutant(
        "Carlitz skips m = 0",
        "series.py",
        "        if rows[m][n] != (-1) ** (m + n) * rows[n][m]",
        "        if m and rows[m][n] != (-1) ** (m + n) * rows[n][m]",
        ("tests/test_series.py::test_carlitz_matches_reference_under_a_corrupted_cache",),
    ),
    Mutant(
        "reflection order bound one lower",
        "series.py",
        "if order < 2 * s - 2 + m:",
        "if order < 2 * s - 3 + m:",
        ("tests/test_series.py::test_reflection_rejects_tiny_order",),
    ),
    Mutant(
        "reflection compares from degree 1",
        "series.py",
        "if x != y), None)",
        "if x != y and i), None)",
        ("tests/test_series.py::test_reflection_matches_reference_under_a_corrupted_cache",),
    ),
    Mutant(
        "tangent recurrence with a + 1 for a + 2",
        "bernoulli.py",
        "prev = a * c + (a + 2) * prev",
        "prev = a * c + (a + 1) * prev",
        ("tests/test_bernoulli.py::test_tangent_numbers_are_oeis_a000182",),
    ),
    Mutant(
        "B_2k's sign rule flipped",
        "bernoulli.py",
        "x if n % 4 == 2 else -x",
        "x if n % 4 == 0 else -x",
        (
            "tests/test_numerics.py::test_zeta_single_reference_values",
            "tests/test_bernoulli.py::test_sign_alternation_of_even_values",
        ),
    ),
    Mutant(
        "B_1 = +1/2",
        "bernoulli.py",
        "(-1, 2)",
        "(1, 2)",
        ("tests/test_bernoulli.py::test_stated_values",),
    ),
)

# mutants that no test can kill, each with the reason
EQUIVALENT = {
    "pi's counted error 2 ulps lower per arctangent": (
        "the count is conservative: the arctangent floors' errors alternate in sign"
    ),
}


def run_pytest(copy: Path, env: dict, tests: tuple[str, ...]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, failed[0][len("FAILED ") :] if failed else proc.stdout[-300:]


def main(names: list[str]) -> int:
    unknown = (set(names) | set(EQUIVALENT)) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    mutants = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)

        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import doublezeta; print(doublezeta.__file__)"],
            env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(copy)):
            print(f"doublezeta is imported from {where or 'nowhere'}, not from the copy")
            return 1
        baseline = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        code, detail = run_pytest(copy, env, baseline)
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exit {code}): {detail}")
            return 1

        for m in mutants:
            path = copy / "src" / "doublezeta" / m.path
            original = path.read_text()
            count = original.count(m.anchor)
            if count != 1:
                print(f"ANCHOR: {m.name}: found {count} times in {m.path}")
                bad += 1
                continue
            path.write_text(original.replace(m.anchor, m.replacement))
            start = time.perf_counter()
            try:
                code, detail = run_pytest(copy, env, m.tests)
            finally:
                path.write_text(original)
            seconds = time.perf_counter() - start
            equivalent = EQUIVALENT.get(m.name)
            if code == 1 and equivalent is None:
                verdict = "killed"
            elif code == 0 and equivalent is not None:
                verdict, detail = "equivalent", equivalent
            elif code == 1:
                verdict = "KILLED BUT LISTED AS EQUIVALENT"
            elif code == 0:
                verdict, detail = "SURVIVED", " ".join(m.tests)
            else:
                verdict, detail = "ERROR", f"pytest exit {code}: {detail}"
            bad += verdict not in ("killed", "equivalent")
            print(f"{verdict}: {m.name} ({seconds:.1f} s): {detail}")
    print(f"{len(mutants)} mutants, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
