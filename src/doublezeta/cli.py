"""Command-line front end: verification sweeps, table exports, audits.

Exit codes: 0 success / all checks passed; 1 at least one identity
failed; 2 usage error; 141 (128 + SIGPIPE) the reader closed standard
output before all of the output was written.  Every error with exit 2
prints one ``error: <reason>`` line on stderr, whether argparse, the
library or the CLI rejects the value.  One rule in ``main`` reports a
value the library rejects, a ``ValueError`` the command raises:
``error: <options as typed>: <message>``, where the options as typed are
the arguments from the first one that starts with ``-``, so
``zeta --k 1`` prints ``error: --k 1: k must be >= 2, got 1``.
Argparse's errors and the CLI's own name their options themselves and
get no prefix.  Each kind of ``verify``, ``reduce`` and ``audit`` has a
parser of its own that accepts only the options it reads: ``--r`` for
``audit h`` is an unrecognized argument, and so is an abbreviation such
as ``--m`` for ``--max``.  An ``--out`` path that cannot be opened,
written or closed is a usage error too (``error: cannot write ...``); it
is opened before the command runs.  So is a standard output that cannot
be written or cannot encode the text (``error: cannot write standard
output: <reason>``).  A regular file (or a new path) is written through a
temporary file beside it, which replaces it only when all of the
command's text is written, so a failed run leaves the old file as it
was; a path that exists but is not a regular file (a device such as
/dev/full, a FIFO) is written in place.  Numeric disagreement with the
printed Euler constant is reported in the output, never turned into a
failing exit code: the audit's job is to report, not to judge.
``reduce inverse --constants exact`` takes each row's constant from the
closed form ``reductions.euler_constant``, the value ``audit euler``
reconstructs; no command reads its input from a file.

``main`` parses with one parser per process: ``build_parser()`` builds it
on its first call and returns that same object afterwards.  Each parse
makes a fresh namespace, so many in-process calls give the same results
as separate runs.  Callers must not mutate the parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from stat import S_IMODE, S_ISREG
from typing import NoReturn

from . import matrices, numerics, reductions, series
from .bernoulli import BernoulliCache, bernoulli_range
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    """An error the CLI reports as one ``error:`` line, with its exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


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
                # realpath would read "" as the working directory, and drop
                # the final "/", "." or ".." that names a missing directory
                if os.path.basename(path) in ("", os.curdir, os.pardir):
                    raise
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
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            self.discard()
            raise self._error(exc)

    def _error(self, exc: OSError | ValueError) -> CliError:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        return CliError(EXIT_USAGE, f"cannot write {self.path!r}: {reason}")

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
}


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    lines: list[str] = []
    ok = True
    cache = BernoulliCache()
    # the library rejects K < 2, but an empty range it would accept silently
    if args.kind in ("conjecture", "closed-forms") and args.k_max < args.k_min:
        raise CliError(EXIT_USAGE, "--k-max must be >= --k-min")
    if args.kind == "conjecture":
        for rep in matrices.verify_inverse_sweep(args.k_min, args.k_max, cache):
            ok &= rep.all_pass
            if rep.all_pass:
                lines.append(f"K={rep.K}: pass")
                continue
            line = (
                f"K={rep.K}: FAIL p_eq_q={rep.p_eq_q} pa_is_identity={rep.pa_is_identity} "
                f"det_nonzero={rep.det_nonzero}"
            )
            for check, i, j, value, expected in rep.offending:
                row, col, name, ref = _OFFENDING_LABELS[check]
                line += (
                    f"; {check} at ({row}={i}, {col}={j}): "
                    f"{name}={format_rational(value)} {ref}={format_rational(expected)}"
                )
            lines.append(line)
    elif args.kind == "carlitz":
        bad = series.verify_carlitz(args.max, cache)
        ok = not bad
        lines += [
            f"(m={m}, n={n}): FAIL lhs={format_rational(lhs)} rhs={format_rational(rhs)}"
            for m, n, lhs, rhs in bad
        ]
        lines.append(f"carlitz m<=n<={args.max}: {'pass' if ok else 'FAIL'}")
    elif args.kind == "series":
        for s, m, bad in series.verify_reflection(args.s_max, args.m_max, args.order, cache):
            ok &= bad is None
            lines.append(
                f"(s={s}, m={m}, order={args.order}): "
                + ("pass" if bad is None else f"FAIL {bad}")
            )
    elif args.kind == "closed-forms":
        sweep = matrices.verify_closed_forms_sweep(args.k_min, args.k_max, cache)
        for K, bad in enumerate(sweep, args.k_min):
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


def cmd_reduce(args: argparse.Namespace) -> tuple[int, str]:
    if args.kind == "euler":
        table = reductions.euler_rhs_coefficients(args.K)
    elif args.kind == "inverse":
        # before the constants are read, so --K 1 is reported whatever they are
        matrices._check_k(args.K)
        spec = args.constants
        if spec == "printed":
            constants = [reductions.PRINTED_CONSTANT] * (args.K - 1)
        elif spec == "exact":
            constants = [reductions.euler_constant(args.K, r) for r in range(1, args.K)]
        elif spec.startswith("explicit:"):
            constants = [parse_rational(c) for c in spec[len("explicit:") :].split(",")]
        else:
            raise CliError(
                EXIT_USAGE, "--constants must be printed, exact, or explicit:<c1,c2,...>"
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
        reports = numerics.audit_euler(args.K, args.digits, args.r)
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
    if args.k is not None and args.k1 is None and args.k2 is None:
        value = numerics.zeta_single(args.k, args.digits)
        label = f"zeta({args.k})"
    elif args.k is None and args.k1 is not None and args.k2 is not None:
        value = numerics.zeta_double(args.k1, args.k2, args.digits)
        label = f"zeta({args.k1},{args.k2})"
    else:
        raise CliError(EXIT_USAGE, "zeta needs --k, or both --k1 and --k2, not both forms")
    return EXIT_OK, f"{label} = {value.to_string(args.digits)}\n"


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are usage errors with one ``error:`` line.

    Options must be spelled in full: a prefix such as ``--m`` for ``--max``
    is an unrecognized argument.  Subparsers are of this class too.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise CliError(EXIT_USAGE, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doublezeta",
        description="Exact verification and numeric audit of the double-zeta "
        "reduction matrices A, P, Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out, k_range, K, ab, table, digits = (_Parser(add_help=False) for _ in range(6))
    out.add_argument("--out")
    k_range.add_argument("--k-min", type=int, default=2)
    k_range.add_argument("--k-max", type=int, default=40)
    K.add_argument("--K", type=int, default=2)
    ab.add_argument("--a", type=int, default=0)
    ab.add_argument("--b", type=int, default=0)
    table.add_argument("--format", choices=["json", "csv"], default="json")
    digits.add_argument("--digits", type=int, default=40)

    def kinds(name: str, func, help: str) -> argparse._SubParsersAction:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p.add_subparsers(dest="kind", required=True)

    p = sub.add_parser("bernoulli", parents=[out], help="export Bernoulli numbers B_0..B_max")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=cmd_bernoulli)

    verify = kinds("verify", cmd_verify, "exact identity sweeps")
    verify.add_parser("conjecture", parents=[k_range, out])
    p = verify.add_parser("carlitz", parents=[out])
    p.add_argument("--max", type=int, default=60, help="carlitz sweep bound")
    p = verify.add_parser("series", parents=[out])
    p.add_argument("--s-max", type=int, default=6, help="series sweep bound on s")
    p.add_argument("--m-max", type=int, default=12, help="series sweep bound on m")
    p.add_argument("--order", type=int, default=48, help="series truncation order of f_s")
    verify.add_parser("closed-forms", parents=[k_range, out])

    p = sub.add_parser("matrix", parents=[out], help="export one of the matrices A, B, C, P, Q")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--which", choices=["A", "B", "C", "P", "Q"], required=True)
    p.set_defaults(func=cmd_matrix)

    reduce = kinds("reduce", cmd_reduce, "emit reduction coefficient tables")
    reduce.add_parser("euler", parents=[K, table, out])
    p = reduce.add_parser("inverse", parents=[K, table, out])
    p.add_argument("--constants", default="printed", help="printed | exact | explicit:<c1,...>")
    p = reduce.add_parser("h", parents=[ab, table, out])
    p.add_argument("--pi-basis", action="store_true", help="expand H(n) factors into pi powers")

    audit = kinds("audit", cmd_audit, "numeric audits of the reduction formulas")
    p = audit.add_parser("euler", parents=[K, digits, out])
    p.add_argument("--r", type=int, help="single row (default: all rows)")
    audit.add_parser("h", parents=[ab, digits, out])

    p = sub.add_parser("zeta", parents=[out], help="high-precision zeta values with bounds")
    p.add_argument("--k", type=int)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--digits", type=int, default=30)
    p.set_defaults(func=cmd_zeta)

    return parser


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
    argv = sys.argv[1:] if argv is None else argv
    out = None
    try:
        args = build_parser().parse_args(argv)
        if args.out is not None:
            out = _OutFile(args.out)
        try:
            code, text = args.func(args)
        except ValueError as exc:
            # a value the library rejects, named by the options as typed
            first = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
            raise CliError(EXIT_USAGE, f"{' '.join(argv[first:])}: {exc}")
        if out:
            out.commit(text)
            return code
        try:
            _write_stdout(text)
        except UnicodeEncodeError as exc:
            raise CliError(EXIT_USAGE, f"cannot write standard output: {exc}")
        except OSError as exc:
            # point stdout at devnull so that the flush at interpreter exit
            # stays quiet (the SIGPIPE recipe of the Python docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):  # the reader closed stdout
                return EXIT_BROKEN_PIPE
            raise CliError(EXIT_USAGE, f"cannot write standard output: {exc.strerror}")
        return code
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    finally:
        if out:
            out.discard()


if __name__ == "__main__":
    sys.exit(main())
