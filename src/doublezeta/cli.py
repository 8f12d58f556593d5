"""Command-line front end: verification sweeps, table exports, audits.

Exit codes: 0 success / all checks passed; 1 at least one identity
failed; 2 usage error (argparse's usage block, or one ``error:`` line
when the library rejects a value); 3 missing prerequisite artifact
(e.g. audited constants requested without an audit file);
141 (128 + SIGPIPE) the reader closed standard output before all of the
output was written.  An ``--out`` path that cannot be opened, written or
closed is a usage error (exit 2, one ``error: cannot write ...`` line).
Numeric disagreement with the printed Euler constant is reported in the
output, never turned into a failing exit code: the audit's job is to
report, not to judge.

``main`` parses with one parser per process: ``build_parser()`` builds it
on its first call and returns that same object afterwards.  No parser state
carries from one ``main`` call to the next (each parse makes a fresh
namespace), so many in-process calls give the same results as separate
runs.  Callers must not mutate the parser that ``build_parser()`` returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from mpmath import mp

from . import matrices, numerics, reductions, series
from .bernoulli import BernoulliCache, bernoulli_range
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISSING_PREREQUISITE = 3
EXIT_BROKEN_PIPE = 141


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        # opening, writing and the flush at close can each fail (a missing
        # directory, a full device such as /dev/full): all are a usage error
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_USAGE, f"error: cannot write {out_path!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


# ---------------------------------------------------------------- bernoulli


def cmd_bernoulli(args: argparse.Namespace) -> int:
    values = bernoulli_range(args.max)
    if args.format == "json":
        payload = {
            "kind": "bernoulli",
            "max": args.max,
            "values": [format_rational(v) for v in values],
        }
        text = json.dumps(payload, separators=(", ", ": ")) + "\n"
    elif args.format == "csv":
        text = "\n".join(f"{n},{format_rational(v)}" for n, v in enumerate(values)) + "\n"
    else:
        text = "\n".join(f"B_{n} = {format_rational(v)}" for n, v in enumerate(values)) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ verify


# index and value names of the first offending entry of each failed inverse check
_OFFENDING_LABELS = {
    "p_eq_q": ("s", "r", "P", "Q"),
    "pa_is_identity": ("s", "s'", "PA", "I"),
    "ap_is_identity": ("r", "r'", "AP", "I"),
}


def cmd_verify(args: argparse.Namespace) -> int:
    lines: list[str] = []
    ok = True
    if args.kind == "conjecture":
        cache = BernoulliCache()
        for K in range(args.k_min, args.k_max + 1):
            rep = matrices.verify_inverse(K, cache)
            ok &= rep.all_pass
            if rep.all_pass:
                lines.append(f"K={K}: pass")
                continue
            line = (
                f"K={K}: FAIL p_eq_q={rep.p_eq_q} pa_is_identity={rep.pa_is_identity} "
                f"ap_is_identity={rep.ap_is_identity} det_nonzero={rep.det_nonzero}"
            )
            for check, i, j, value, expected in rep.offending:
                row, col, name, ref = _OFFENDING_LABELS[check]
                line += (
                    f"; {check} at ({row}={i}, {col}={j}): "
                    f"{name}={format_rational(value)} {ref}={format_rational(expected)}"
                )
            lines.append(line)
    elif args.kind == "carlitz":
        cache = BernoulliCache()
        for n in range(args.max + 1):
            for m in range(n + 1):
                passed = series.verify_carlitz(m, n, cache)
                ok &= passed
                if not passed:
                    lines.append(f"(m={m}, n={n}): FAIL")
        lines.append(f"carlitz m<=n<={args.max}: {'pass' if ok else 'FAIL'}")
    elif args.kind == "series":
        cache = BernoulliCache()
        for s in range(1, args.s_max + 1):
            for m in range(1, args.m_max + 1):
                passed, bad = series.verify_reflection(s, m, args.order, cache)
                ok &= passed
                lines.append(
                    f"(s={s}, m={m}, order={args.order}): "
                    + ("pass" if passed else f"FAIL {bad}")
                )
    elif args.kind == "closed-forms":
        cache = BernoulliCache()
        for K in range(args.k_min, args.k_max + 1):
            bad = matrices.verify_closed_forms(K, cache)
            for s, sp, vb, vc, pb, pc in bad:
                lines.append(
                    f"K={K} (s={s}, s'={sp}): FAIL closed="
                    f"{format_rational(vb)}+{format_rational(vc)} "
                    f"product={format_rational(pb)}+{format_rational(pc)}"
                )
            ok &= not bad
            lines.append(f"K={K}: {'FAIL' if bad else 'pass'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_IDENTITY_FAILURE


# ------------------------------------------------------------------ matrix


def cmd_matrix(args: argparse.Namespace) -> int:
    builders = {
        "A": matrices.build_a,
        "B": matrices.build_b_part,
        "C": matrices.build_c_part,
        "P": matrices.build_p,
        "Q": matrices.build_q,
    }
    matrix = builders[args.which](args.K)
    _emit(matrices.matrix_to_json(args.K, args.which, matrix) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------ reduce


def _load_audited_constants(K: int, path: str | None) -> list[Fraction]:
    if not path:
        raise CliError(
            EXIT_MISSING_PREREQUISITE,
            "audited constants need --audit-file pointing at the JSON output "
            f"of `audit euler --K {K}`",
        )
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError:
        raise CliError(
            EXIT_MISSING_PREREQUISITE,
            f"audit file {path!r} not found; run `audit euler --K {K} "
            f"--digits 40 --out {path}` first",
        )
    except ValueError as exc:
        raise _unusable(path, f"it is not JSON ({exc})")
    if not isinstance(payload, dict):
        raise _unusable(path, "it is not a JSON object")
    if payload.get("K") != K:
        raise CliError(
            EXIT_MISSING_PREREQUISITE,
            f"audit file {path!r} is for K={payload.get('K')}, need K={K}",
        )
    rows = payload.get("rows")
    if not (
        isinstance(rows, list)
        and len(rows) == K - 1
        and all(isinstance(row, dict) for row in rows)
    ):
        raise _unusable(path, f"'rows' must be a list of {K - 1} row objects")
    constants = []
    for i, row in enumerate(rows, 1):
        if row.get("r") != i:
            raise _unusable(path, f"row {i} has r={row.get('r')!r}, expected r={i}")
        rec = row.get("reconstructed")
        if rec is None:
            raise CliError(
                EXIT_MISSING_PREREQUISITE,
                f"audit file {path!r} has no reconstructed constant for "
                f"row r={i}; rerun the audit at higher precision",
            )
        try:
            constants.append(parse_rational(rec))
        except (TypeError, ValueError):
            raise _unusable(path, f"its reconstructed constant {rec!r} is not a rational")
    return constants


def _unusable(path: str, reason: str) -> CliError:
    return CliError(EXIT_MISSING_PREREQUISITE, f"audit file {path!r} is not usable: {reason}")


class CliError(SystemExit):
    """SystemExit carrying a stderr message and a specific exit code."""

    def __init__(self, code: int, message: str) -> None:
        sys.stderr.write(message + "\n")
        super().__init__(code)


def cmd_reduce(args: argparse.Namespace) -> int:
    if args.kind == "euler":
        table = reductions.euler_rhs_coefficients(args.K)
    elif args.kind == "inverse":
        spec = args.constants
        if spec == "printed":
            constants = [reductions.PRINTED_CONSTANT] * (args.K - 1)
        elif spec == "audited":
            constants = _load_audited_constants(args.K, args.audit_file)
        elif spec.startswith("explicit:"):
            constants = [parse_rational(c) for c in spec[len("explicit:") :].split(",")]
        else:
            raise CliError(
                EXIT_USAGE,
                "--constants must be printed, audited, or explicit:<c1,c2,...>",
            )
        table = reductions.inverse_reduction_coefficients(args.K, constants)
    else:
        table = reductions.h_ab_coefficients(args.a, args.b)
        if args.pi_basis:
            table = reductions.expand_h_to_pi(table)
    if args.format == "csv":
        text = reductions.table_to_csv(table)
    else:
        text = reductions.table_to_json(table) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# ------------------------------------------------------------------- audit


def _bigfloat_fields(x: numerics.BigFloat, digits: int) -> dict:
    return {
        "value": mp.nstr(x.value, digits),
        "error_bound": mp.nstr(x.error_bound, 3),
    }


def cmd_audit(args: argparse.Namespace) -> int:
    if args.kind == "euler":
        if args.r is None:
            reports = numerics.audit_euler(args.K, args.digits)
        else:
            reports = [numerics.audit_euler_constant(args.K, args.r, args.digits)]
        rows = []
        for rep in reports:
            rows.append(
                {
                    "r": rep.r,
                    "lhs": _bigfloat_fields(rep.lhs, args.digits),
                    "rhs_products": _bigfloat_fields(rep.rhs_products, args.digits),
                    "residual_ratio": _bigfloat_fields(rep.residual_ratio, args.digits),
                    "reconstructed": (
                        format_rational(rep.reconstructed)
                        if rep.reconstructed is not None
                        else None
                    ),
                    "printed_constant_consistent": rep.printed_constant_consistent,
                }
            )
        payload = {"kind": "euler_audit", "K": args.K, "digits": args.digits, "rows": rows}
    else:
        rep = numerics.audit_h_ab(args.a, args.b, args.digits)
        payload = {
            "kind": "h_audit",
            "a": args.a,
            "b": args.b,
            "digits": args.digits,
            "formula_value": _bigfloat_fields(rep.formula_value, args.digits),
            "direct_value": _bigfloat_fields(rep.direct_value, args.digits),
            "abs_difference": mp.nstr(rep.abs_difference, 3),
            "agrees_within_bounds": rep.agrees_within_bounds,
        }
    _emit(json.dumps(payload, separators=(", ", ": ")) + "\n", args.out)
    return EXIT_OK


# -------------------------------------------------------------------- zeta


def cmd_zeta(args: argparse.Namespace) -> int:
    if args.k is not None:
        value = numerics.zeta_single(args.k, args.digits)
        label = f"zeta({args.k})"
    elif args.k1 is not None and args.k2 is not None:
        value = numerics.zeta_double(args.k1, args.k2, args.digits)
        label = f"zeta({args.k1},{args.k2})"
    else:
        raise CliError(EXIT_USAGE, "zeta needs --k, or both --k1 and --k2")
    _emit(f"{label} = {value.to_string(args.digits)}\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------ parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublezeta",
        description="Exact verification and numeric audit of the double-zeta "
        "reduction matrices A, P, Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="export Bernoulli numbers B_0..B_max")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("verify", help="exact identity sweeps")
    p.add_argument("kind", choices=["conjecture", "carlitz", "series", "closed-forms"])
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=40)
    p.add_argument("--max", type=int, default=60, help="carlitz sweep bound")
    p.add_argument("--s-max", type=int, default=6)
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--order", type=int, default=48)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("matrix", help="export one of the matrices A, B, C, P, Q")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--which", choices=["A", "B", "C", "P", "Q"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("reduce", help="emit reduction coefficient tables")
    p.add_argument("kind", choices=["euler", "inverse", "h"])
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument(
        "--constants",
        default="printed",
        help="printed | audited | explicit:<c1,c2,...> (inverse only)",
    )
    p.add_argument("--audit-file", help="JSON output of `audit euler` (for audited)")
    p.add_argument(
        "--pi-basis",
        action="store_true",
        help="expand H(n) factors into pi powers (h only)",
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("audit", help="numeric audits of the reduction formulas")
    p.add_argument("kind", choices=["euler", "h"])
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--r", type=int, help="single row (default: all rows)")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--digits", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("zeta", help="high-precision zeta values with bounds")
    p.add_argument("--k", type=int)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--out")
    p.set_defaults(func=cmd_zeta)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    # the library rejects K < 2 too, but only after the audit file, which can exit 3
    if args.command == "reduce" and args.kind == "inverse" and args.K < 2:
        parser.error("--K must be >= 2")
    if args.command == "verify" and args.kind in ("conjecture", "closed-forms"):
        if args.k_min < 2:
            parser.error("--k-min must be >= 2")
        if args.k_max < args.k_min:
            parser.error("--k-max must be >= --k-min")
    if args.command == "verify" and args.kind == "carlitz" and args.max < 0:
        parser.error("--max must be >= 0")
    if args.command == "verify" and args.kind == "series":
        if args.s_max < 1 or args.m_max < 1:
            parser.error("--s-max and --m-max must be >= 1")
    if args.command == "audit" and args.digits < 10:
        parser.error("--digits must be >= 10 for audits")
    if args.command == "zeta" and args.k is not None and (args.k1, args.k2) != (None, None):
        parser.error("give --k, or both --k1 and --k2, not both forms")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except CliError as exc:
        return int(exc.code)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit stays quiet (the SIGPIPE recipe of the Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
