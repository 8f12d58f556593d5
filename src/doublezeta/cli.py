"""Command-line front end: verification sweeps, table exports, audits.

Exit codes: 0 success / all checks passed; 1 at least one identity
failed; 2 usage error (argparse's usage block, or one ``error:`` line
when the library rejects a value); 3 missing prerequisite artifact
(e.g. audited constants requested without an audit file);
141 (128 + SIGPIPE) the reader closed standard output before all of the
output was written.  An ``--out`` path that cannot be opened, written or
closed is a usage error (exit 2, one ``error: cannot write ...`` line).
The ``--out`` file is opened before the command runs, so an unusable path
fails at once.  A regular file (or a new path) is written through a
temporary file beside it, which replaces it only when the command has
finished and all of its text is written, so a failed run leaves the old
file as it was; a path that exists but is not a regular file (a device
such as /dev/full, a FIFO) is written in place.
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
from stat import S_IMODE, S_ISREG

from . import matrices, numerics, reductions, series
from .bernoulli import BernoulliCache, bernoulli_range
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISSING_PREREQUISITE = 3
EXIT_BROKEN_PIPE = 141


class _OutFile:
    """The ``--out`` file, opened before the command runs.

    A regular file, or a path that does not exist yet, is written through a
    temporary file in its directory, which ``commit`` moves onto it with
    ``os.replace``; ``discard`` removes the temporary file if that never
    happened.  An existing path that is not a regular file (a device, a
    FIFO, /dev/stdout) is opened and written in place: replacing it would
    replace the node itself.  A symbolic link is followed, as ``open``
    would.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.file = self.temp = None
        try:
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not S_ISREG(mode):
                self.file = open(path, "w", encoding="utf-8")
                return
            # the file a symbolic link names is replaced, not the link
            self.target = os.path.realpath(path)
            head, tail = os.path.split(self.target)
            temp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            self.temp = temp
            self.file = open(fd, "w", encoding="utf-8")
            if mode is not None:
                # as open() would, keep the mode of the file it replaces
                os.fchmod(fd, S_IMODE(mode))
        except OSError as exc:
            self.discard()
            raise self._error(exc)

    def _error(self, exc: OSError) -> CliError:
        return CliError(EXIT_USAGE, f"error: cannot write {self.path!r}: {exc.strerror}")

    def commit(self, text: str) -> None:
        # writing and the flush at close can each fail (a full device such
        # as /dev/full): a usage error, like a path that cannot be opened
        try:
            with self.file as fh:
                fh.write(text)
            if self.temp:
                os.replace(self.temp, self.target)
                self.temp = None
        except OSError as exc:
            raise self._error(exc)

    def discard(self) -> None:
        if self.file:
            try:
                self.file.close()
            except OSError:
                pass
        if self.temp:
            try:
                os.unlink(self.temp)
            except FileNotFoundError:
                pass
            self.temp = None


# ---------------------------------------------------------------- bernoulli


def cmd_bernoulli(args: argparse.Namespace) -> tuple[int, str]:
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
    return EXIT_OK, text


# ------------------------------------------------------------------ verify


# index and value names of the first offending entry of each failed inverse check
_OFFENDING_LABELS = {
    "p_eq_q": ("s", "r", "P", "Q"),
    "pa_is_identity": ("s", "s'", "PA", "I"),
    "ap_is_identity": ("r", "r'", "AP", "I"),
}


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
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
        bad = series.verify_carlitz(args.max, BernoulliCache())
        ok = not bad
        lines += [
            f"(m={m}, n={n}): FAIL lhs={format_rational(lhs)} rhs={format_rational(rhs)}"
            for m, n, lhs, rhs in bad
        ]
        lines.append(f"carlitz m<=n<={args.max}: {'pass' if ok else 'FAIL'}")
    elif args.kind == "series":
        results = series.verify_reflection(args.s_max, args.m_max, args.order, BernoulliCache())
        for s, m, bad in results:
            ok &= bad is None
            lines.append(
                f"(s={s}, m={m}, order={args.order}): "
                + ("pass" if bad is None else f"FAIL {bad}")
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
    return (EXIT_OK if ok else EXIT_IDENTITY_FAILURE), "\n".join(lines) + "\n"


# ------------------------------------------------------------------ matrix


def cmd_matrix(args: argparse.Namespace) -> tuple[int, str]:
    builders = {
        "A": matrices.build_a,
        "B": matrices.build_b_part,
        "C": matrices.build_c_part,
        "P": matrices.build_p,
        "Q": matrices.build_q,
    }
    matrix = builders[args.which](args.K)
    return EXIT_OK, matrices.matrix_to_json(args.K, args.which, matrix) + "\n"


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
        if not isinstance(rec, str):  # `audit euler` writes "p/q" text or null
            raise _unusable(path, f"its reconstructed constant {rec!r} is not \"p/q\" text")
        try:
            constants.append(parse_rational(rec))
        except ValueError:
            raise _unusable(path, f"its reconstructed constant {rec!r} is not a rational")
    return constants


def _unusable(path: str, reason: str) -> CliError:
    return CliError(EXIT_MISSING_PREREQUISITE, f"audit file {path!r} is not usable: {reason}")


class CliError(SystemExit):
    """SystemExit carrying a stderr message and a specific exit code."""

    def __init__(self, code: int, message: str) -> None:
        sys.stderr.write(message + "\n")
        super().__init__(code)


def cmd_reduce(args: argparse.Namespace) -> tuple[int, str]:
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
    return EXIT_OK, text


# ------------------------------------------------------------------- audit


def _bigfloat_fields(x: numerics.BigFloat, digits: int) -> dict:
    return {
        "value": numerics._nstr(x.value, digits),
        "error_bound": numerics._nstr(x.error_bound, 3, round_up=True),
    }


def cmd_audit(args: argparse.Namespace) -> tuple[int, str]:
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
            "abs_difference": numerics._nstr(rep.abs_difference, 3, round_up=True),
            "agrees_within_bounds": rep.agrees_within_bounds,
        }
    return EXIT_OK, json.dumps(payload, separators=(", ", ": ")) + "\n"


# -------------------------------------------------------------------- zeta


def cmd_zeta(args: argparse.Namespace) -> tuple[int, str]:
    if args.k is not None:
        value = numerics.zeta_single(args.k, args.digits)
        label = f"zeta({args.k})"
    elif args.k1 is not None and args.k2 is not None:
        value = numerics.zeta_double(args.k1, args.k2, args.digits)
        label = f"zeta({args.k1},{args.k2})"
    else:
        raise CliError(EXIT_USAGE, "zeta needs --k, or both --k1 and --k2")
    return EXIT_OK, f"{label} = {value.to_string(args.digits)}\n"


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
    p.add_argument("--s-max", type=int, default=6, help="series sweep bound on s")
    p.add_argument("--m-max", type=int, default=12, help="series sweep bound on m")
    p.add_argument("--order", type=int, default=48, help="series truncation order of f_s")
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
    # the library rejects K < 2; an empty range it would accept silently
    if args.command == "verify" and args.kind in ("conjecture", "closed-forms"):
        if args.k_max < args.k_min:
            parser.error("--k-max must be >= --k-min")
    if args.command == "verify" and args.kind == "carlitz" and args.max < 0:
        parser.error("--max must be >= 0")
    if args.command == "verify" and args.kind == "series":
        if args.s_max < 1 or args.m_max < 1:
            parser.error("--s-max and --m-max must be >= 1")
    if args.command == "zeta" and args.k is not None and (args.k1, args.k2) != (None, None):
        parser.error("give --k, or both --k1 and --k2, not both forms")


def _write_stdout(text: str) -> None:
    """Write all of text to standard output, or raise (BrokenPipeError for a closed reader).

    Unbuffered text output (``python -u``, PYTHONUNBUFFERED) hands its bytes
    to a raw file and ignores a short write, so it could drop the rest of
    the text without an error.  So the encoded text goes to the binary
    layer, written again from where a short write stopped.  A stdout with
    no binary layer (an ``io.StringIO``) takes the text as it is.
    """
    stdout = sys.stdout
    buffer = getattr(stdout, "buffer", None)
    if buffer is None:
        stdout.write(text)
        stdout.flush()
        return
    stdout.flush()
    data = memoryview(text.encode(stdout.encoding, stdout.errors))
    while data:
        data = data[buffer.write(data) :]
    buffer.flush()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    out = None
    try:
        if args.out:
            out = _OutFile(args.out)
        code, text = args.func(args)
        if out:
            out.commit(text)
        else:
            _write_stdout(text)
        return code
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
    finally:
        if out:
            out.discard()


if __name__ == "__main__":
    sys.exit(main())
