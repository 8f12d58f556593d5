import argparse
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import doublezeta.cli as cli
import doublezeta.matrices as matrices
import doublezeta.numerics as numerics
from doublezeta.bernoulli import BernoulliCache
from doublezeta.cli import EXIT_BROKEN_PIPE, build_parser, main
from doublezeta.rationals import format_rational, parse_rational

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


def test_bernoulli_csv(capsys):
    code, out, _ = run(["bernoulli", "--max", "4", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "4,-1/30"
    assert "1,-1/2" in lines


def test_bernoulli_past_the_int_to_str_limit(capsys):
    # B_2200's numerator has more digits than Python's int-to-str limit of 4300
    code, out, err = run(["bernoulli", "--max", "2200", "--format", "csv"], capsys)
    assert code == 0 and err == ""
    n, value = out.splitlines()[-1].split(",")
    num, den = value.split("/")
    assert len(num) > 4300
    assert n == "2200"
    assert parse_rational(value) == BernoulliCache().get(2200)


def test_closed_stdout_exits_quietly():
    # the output (about 400 kB) is far more than a pipe buffer, so the write
    # meets the closed pipe, buffered or not: unbuffered text output would
    # ignore the raw file's short write if main did not retry it
    argv = [sys.executable, "-m", "doublezeta.cli", "bernoulli", "--max", "1000", "--format", "csv"]
    for unbuffered in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.read(1) == b"0"
            proc.stdout.close()
            # stderr holds at most a traceback, well inside its pipe buffer
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141, unbuffered
            assert proc.stderr.read() == b"", unbuffered


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "argv",
    [["bernoulli", "--max", "3"], ["verify", "conjecture", "--k-max", "3"]],
    ids=["bernoulli", "verify-conjecture"],
)
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target):
    path = str(tmp_path / "missing" / "x" if target == "missing-directory" else tmp_path)
    code, out, err = run([*argv, "--out", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path!r}: ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_out_is_a_usage_error(capsys):
    # /dev/full opens, but the write fails when the file is flushed and
    # closed; exit 1 would claim that an identity failed
    code, out, err = run(["bernoulli", "--max", "3", "--out", "/dev/full"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: cannot write '/dev/full': No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["verify", "conjecture", "--k-min", "2", "--k-max", "3"], ["zeta", "--k", "3"]],
    ids=["verify-conjecture", "zeta"],
)
def test_failed_write_to_stdout_is_a_usage_error(argv):
    # every identity passed, so exit 1 would be a lie; the bytes left in the
    # buffer must not fail again at interpreter exit (exit 120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    for unbuffered in (None, "1"):
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "doublezeta.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        assert proc.returncode == 2, (unbuffered, proc.stderr)
        assert proc.stderr == b"error: cannot write standard output: No space left on device\n"


def test_stdout_that_cannot_encode_the_output_is_a_usage_error(capsys, monkeypatch):
    # zeta writes "±", which ascii cannot encode: the output encoding is at
    # fault, not the value of --k
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["zeta", "--k", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(
        "error: cannot write standard output: 'ascii' codec can't encode character '\\xb1'"
    ), err
    assert err.count("\n") == 1
    assert stdout.buffer.getvalue() == b""


def test_out_path_with_a_nul_is_a_usage_error(capsys):
    # os.stat raises ValueError, not OSError, for such a path: it is the
    # path that cannot be written, not a value of --max
    code, out, err = run(["bernoulli", "--max", "1", "--out", "a\x00b"], capsys)
    assert (code, out, err) == (2, "", "error: cannot write 'a\\x00b': embedded null byte\n")


@pytest.mark.parametrize("parent", ["missing-directory", "regular-file"])
def test_unwritable_out_fails_before_the_command_runs(capsys, monkeypatch, tmp_path, parent):
    # the --out file is made before any work, so an unusable path is
    # reported at once
    def not_called(*args):
        raise AssertionError("verify_inverse ran before --out was opened")

    monkeypatch.setattr(matrices, "verify_inverse", not_called)
    (tmp_path / "regular-file").write_text("")
    path = str(tmp_path / parent / "x")
    argv = ["verify", "conjecture", "--k-min", "100", "--k-max", "100", "--out", path]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path!r}: ")
    assert err.count("\n") == 1


def test_empty_out_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # "" names no file; read as the working directory, it would put a
    # temporary file in the directory above it
    def not_called(n_max):
        raise AssertionError("bernoulli_range ran before --out was opened")

    monkeypatch.setattr(cli, "bernoulli_range", not_called)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code, out, err = run(["bernoulli", "--max", "2", "--out", ""], capsys)
    assert (code, out, err) == (2, "", "error: cannot write '': No such file or directory\n")
    assert os.listdir(tmp_path) == ["cwd"]
    assert os.listdir(cwd) == []


@pytest.mark.parametrize("path", ["newdir/", "newdir/.", "newdir/.."])
def test_out_naming_a_missing_directory_is_a_usage_error(capsys, monkeypatch, tmp_path, path):
    # the path names a directory that does not exist; read through realpath
    # it would name the file newdir (or the working directory itself)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["bernoulli", "--max", "2", "--out", path], capsys)
    assert (code, out, err) == (
        2,
        "",
        f"error: cannot write {path!r}: No such file or directory\n",
    )
    assert os.listdir(tmp_path) == []


def test_failed_run_leaves_the_old_out_file(capsys, monkeypatch, tmp_path):
    # a command that fails writes nothing: the old file keeps its bytes and
    # no temporary file is left beside it
    target = tmp_path / "out.json"
    target.write_bytes(b"old bytes\n")
    missing = str(tmp_path / "missing.json")
    failing = [
        (["zeta", "--k", "1"], 2),
        (["reduce", "inverse", "--K", "3", "--constants", "audited", "--audit-file", missing], 3),
    ]
    for argv, expected in failing:
        code, out, _ = run([*argv, "--out", str(target)], capsys)
        assert (code, out) == (expected, "")
    # an error that is not the CLI's own propagates, and still writes nothing
    def broken(K):
        raise RuntimeError("broken builder")

    monkeypatch.setattr(matrices, "build_a", broken)
    with pytest.raises(RuntimeError):
        main(["matrix", "--K", "3", "--which", "A", "--out", str(target)])
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_out_replaces_a_regular_file_and_keeps_its_mode(capsys, tmp_path):
    argv = ["bernoulli", "--max", "6", "--format", "csv"]
    _, expected, _ = run(argv, capsys)
    target = tmp_path / "b.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    for path in (target, link):
        code, out, err = run([*argv, "--out", str(path)], capsys)
        assert (code, out, err) == (0, "", "")
        assert target.read_text() == expected
        assert target.stat().st_mode & 0o777 == 0o640
    assert link.is_symlink()
    assert sorted(os.listdir(tmp_path)) == ["b.csv", "link.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_writes_a_fifo_in_place(capsys, tmp_path):
    # a path that is not a regular file is written where it is, never
    # replaced; the reader blocks until the CLI opens the FIFO
    argv = ["bernoulli", "--max", "6"]
    _, expected, _ = run(argv, capsys)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, out, err = run([*argv, "--out", str(fifo)], capsys)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert (code, out, err) == (0, "", "")
    assert received == [expected]
    assert os.listdir(tmp_path) == ["fifo"]


def test_main_leaves_no_parser_state(capsys):
    assert build_parser() is build_parser()
    sequence = [
        ["zeta", "--k", "3"],
        ["zeta", "--k1", "2", "--k2", "3"],
        ["reduce", "inverse", "--K", "3", "--constants", "explicit:-1/2,-1/2"],
        ["reduce", "inverse", "--K", "3"],
        ["zeta", "--k", "3", "--k1", "2", "--k2", "3"],
        ["reduce", "inverse", "--K", "3", "--constants", "audited"],
        ["verify", "conjecture", "--k-min", "3", "--k-max", "4"],
        ["verify", "conjecture", "--k-max", "3"],
    ]
    shared = [run(argv, capsys) for argv in sequence]
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 3, 0, 0]
    for argv, result in zip(sequence, shared):
        build_parser.cache_clear()
        assert run(argv, capsys) == result, argv


def test_bernoulli_usage_error(capsys):
    code, _, _ = run(["bernoulli", "--max", "-1"], capsys)
    assert code == 2


def test_verify_conjecture_small(capsys):
    code, out, _ = run(
        ["verify", "conjecture", "--k-min", "2", "--k-max", "6"], capsys
    )
    assert code == 0
    assert "K=6: pass" in out


def test_verify_conjecture_fail_line_names_first_offending_entries(capsys, monkeypatch):
    from test_matrices import BadBernoulliCache

    import doublezeta.cli as cli

    monkeypatch.setattr(cli, "BernoulliCache", BadBernoulliCache)
    code, out, _ = run(["verify", "conjecture", "--k-min", "2", "--k-max", "3"], capsys)
    assert code == 1
    # with B_4 = 1/29: P_11 = 2 B_4 and Q_11 = -2 (4 B_4 + 4 B_2 + B_1) by the defining sums
    assert out.splitlines() == [
        "K=2: pass",
        "K=3: FAIL p_eq_q=False pa_is_identity=False det_nonzero=True"
        "; p_eq_q at (s=1, r=1): P=2/29 Q=-53/87"
        "; pa_is_identity at (s=1, s'=1): PA=500/87 I=1",
    ]


def test_verify_carlitz(capsys):
    code, out, _ = run(["verify", "carlitz", "--max", "12"], capsys)
    assert code == 0
    assert "pass" in out


def test_verify_carlitz_fail_lines_name_both_sides(capsys, monkeypatch):
    from test_matrices import BadBernoulliCache

    import doublezeta.cli as cli

    code, out, _ = run(["verify", "carlitz", "--max", "4"], capsys)
    assert code == 0 and out == "carlitz m<=n<=4: pass\n"
    monkeypatch.setattr(cli, "BernoulliCache", BadBernoulliCache)
    code, out, _ = run(["verify", "carlitz", "--max", "4"], capsys)
    assert code == 1
    # with B_4 = 1/29, (m, n) = (2, 3): lhs = B_3 + 2 B_4 + B_5 = 2/29 and
    # rhs = -(B_2 + 3 B_3 + 3 B_4 + B_5) = -47/174
    assert out.splitlines() == [
        "(m=2, n=3): FAIL lhs=2/29 rhs=-47/174",
        "(m=1, n=4): FAIL lhs=-1/29 rhs=53/174",
        "(m=2, n=4): FAIL lhs=71/1218 rhs=242/609",
        "(m=3, n=4): FAIL lhs=-43/406 rhs=142/609",
        "carlitz m<=n<=4: FAIL",
    ]


def test_verify_series(capsys):
    code, _, _ = run(
        ["verify", "series", "--s-max", "2", "--m-max", "3", "--order", "16"], capsys
    )
    assert code == 0


def test_verify_closed_forms(capsys):
    code, _, _ = run(
        ["verify", "closed-forms", "--k-min", "2", "--k-max", "5"], capsys
    )
    assert code == 0


def test_matrix_a(capsys):
    code, out, _ = run(["matrix", "--K", "3", "--which", "A"], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == [["5", "2"], ["10", "1"]]


def test_matrix_p(capsys):
    code, out, _ = run(["matrix", "--K", "3", "--which", "P"], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == [["-1/15", "2/15"], ["2/3", "-1/3"]]


def test_matrix_usage_error(capsys):
    code, _, _ = run(["matrix", "--K", "1", "--which", "A"], capsys)
    assert code == 2


# usage errors the library raises as ValueError: one error: line on stderr
LIBRARY_CHECKED = [
    ["reduce", "inverse", "--K", "2", "--constants", "explicit:1/0"],
    ["audit", "euler", "--K", "1"],
    ["audit", "euler", "--K", "0"],
    ["bernoulli", "--max", "-1"],
    ["matrix", "--K", "1", "--which", "P"],
    ["matrix", "--K", "0", "--which", "A"],
    ["reduce", "euler", "--K", "1"],
    ["audit", "euler", "--K", "1", "--r", "1"],
]

# options must be spelled in full: a prefix of an option is not that option
ABBREVIATIONS = {
    "--m 3": ["verify", "carlitz", "--m", "3"],
    "--dig 5": ["audit", "euler", "--K", "3", "--dig", "5"],
    "--o x": ["matrix", "--K", "3", "--which", "P", "--o", "x"],
    # --a is not --audit-file: reduce inverse does not read --a
    "--a 3": ["reduce", "inverse", "--K", "2", "--a", "3"],
}

# argparse's own syntax errors: one error: line too, with no usage block
SYNTAX_ERRORS = [
    ["verify", "conjecture", "--k-max", "3", "--parallel", "2"],
    ["matrix", "--K", "3", "--which", "A", "--format", "json"],
]


def assert_one_error_line(err):
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "usage:" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "conjecture", "--k-min", "5", "--k-max", "3"],
        ["verify", "closed-forms", "--k-min", "5", "--k-max", "3"],
        *SYNTAX_ERRORS,
        ["verify", "carlitz", "--max", "-3"],
        ["verify", "series", "--s-max", "0"],
        ["verify", "series", "--m-max", "0"],
        ["zeta", "--k", "3", "--k1", "2", "--k2", "3"],
        *LIBRARY_CHECKED,
        # checked in the CLI: the audit file would be read before the library
        # could reject K, and a missing one exits 3
        ["reduce", "inverse", "--K", "1", "--constants", "audited"],
        ["zeta", "--k", "3", "--k1", "2"],
        ["zeta", "--k", "3", "--k2", "2"],
        ["zeta", "--k1", "2"],
        ["zeta"],
        ["reduce", "inverse", "--constants", "bogus"],
        ["reduce", "inverse", "--constants", ""],
    ],
)
def test_verify_and_matrix_usage_errors(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--constants", ["reduce", "euler", "--K", "2", "--constants", "audited",
                         "--audit-file", "/nonexistent.json"]),
        ("--constants", ["reduce", "euler", "--constants", "printed"]),
        ("--constants", ["reduce", "h", "--constants", "explicit:-1/2"]),
        ("--audit-file", ["reduce", "euler", "--audit-file", "audit.json"]),
        ("--audit-file", ["reduce", "h", "--audit-file", "audit.json"]),
        ("--pi-basis", ["reduce", "euler", "--pi-basis"]),
        ("--pi-basis", ["reduce", "inverse", "--pi-basis"]),
        ("--r", ["audit", "h", "--a", "1", "--r", "2"]),
        ("--a", ["reduce", "euler", "--K", "2", "--a", "3"]),
        ("--K", ["audit", "h", "--K", "9", "--digits", "5"]),
        ("--k-min", ["verify", "carlitz", "--k-min", "5", "--max", "3"]),
        ("--max", ["verify", "conjecture", "--k-max", "3", "--max", "3", "--order", "2"]),
        # the audit file is read only for audited constants
        ("--audit-file", ["reduce", "inverse", "--K", "2", "--audit-file", "/nonexistent.json"]),
        ("--audit-file", ["reduce", "inverse", "--K", "2", "--constants", "explicit:-1/2",
                          "--audit-file", "x.json"]),
    ],
    ids=[
        "euler-audited", "euler-printed", "h-constants", "euler-audit-file",
        "h-audit-file", "euler-pi-basis", "inverse-pi-basis", "audit-h-r",
        "reduce-euler-a", "audit-h-K", "carlitz-k-min", "conjecture-max",
        "printed-audit-file", "explicit-audit-file",
    ],
)
def test_an_option_of_another_kind_is_a_usage_error(capsys, option, argv):
    # each kind rejects the options it does not read, even one whose value
    # equals the default
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert option in err


# every option each command, or each kind of verify, reduce and audit, accepts
LEAF_OPTIONS = {
    ("bernoulli",): {"--max", "--format"},
    ("verify", "conjecture"): {"--k-min", "--k-max"},
    ("verify", "carlitz"): {"--max"},
    ("verify", "series"): {"--s-max", "--m-max", "--order"},
    ("verify", "closed-forms"): {"--k-min", "--k-max"},
    ("matrix",): {"--K", "--which"},
    ("reduce", "euler"): {"--K", "--format"},
    ("reduce", "inverse"): {"--K", "--constants", "--audit-file", "--format"},
    ("reduce", "h"): {"--a", "--b", "--pi-basis", "--format"},
    ("audit", "euler"): {"--K", "--r", "--digits"},
    ("audit", "h"): {"--a", "--b", "--digits"},
    ("zeta",): {"--k", "--k1", "--k2", "--digits"},
}


def leaf_options(parser, path=()):
    """(command path, option strings) of every parser below parser with no subcommand."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, {s for a in parser._actions for s in a.option_strings}
    for action in subparsers:
        for name, child in action.choices.items():
            yield from leaf_options(child, (*path, name))


@pytest.mark.parametrize("option, argv", ABBREVIATIONS.items(), ids=list(ABBREVIATIONS))
def test_an_abbreviated_option_is_unrecognized(capsys, option, argv):
    # one error: line that names what was typed, not the option it abbreviates
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: {option}\n"


def parsers(parser):
    """parser and every parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from parsers(child)


def test_each_kind_accepts_only_the_options_it_reads():
    # no parser of the tree reads a prefix of an option as that option
    assert all(not p.allow_abbrev for p in parsers(build_parser()))
    leaves = dict(leaf_options(build_parser()))
    assert leaves == {
        path: options | {"-h", "--help", "--out"} for path, options in LEAF_OPTIONS.items()
    }
    # the (kind, option) pairs of verify, reduce and audit, --out included
    assert sum(len(leaves[path]) - 2 for path in leaves if len(path) == 2) == 33


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--max -3", ["verify", "carlitz", "--max", "-3"]),
        ("--s-max 0", ["verify", "series", "--s-max", "0"]),
        ("--m-max 0", ["verify", "series", "--m-max", "0"]),
        ("--max -1", ["bernoulli", "--max", "-1"]),
        ("--K 2 --constants explicit:",
         ["reduce", "inverse", "--K", "2", "--constants", "explicit:"]),
        ("--K 2 --constants explicit:1/2,x",
         ["reduce", "inverse", "--K", "2", "--constants", "explicit:1/2,x"]),
        ("--K 2 --constants explicit:1e400",
         ["reduce", "inverse", "--K", "2", "--constants", "explicit:1e400"]),
        ("--K 3 --constants explicit:1/2",
         ["reduce", "inverse", "--K", "3", "--constants", "explicit:1/2"]),
    ],
)
def test_a_value_the_library_rejects_names_its_option(capsys, option, argv):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert err.startswith(f"error: {option}: "), err


# main reports every ValueError of the library by one rule: the options as
# typed, from the first argument that starts with "-", then the message
LIBRARY_REJECTIONS = {
    "audit euler --K 2 --r 0": "error: --K 2 --r 0: row r=0 out of range for K=2",
    "zeta --k 1": "error: --k 1: k must be >= 2, got 1",
    "zeta --k1 0 --k2 3": "error: --k1 0 --k2 3: k1 must be >= 1, got 0",
    "audit euler --K 2 --digits 0": "error: --K 2 --digits 0: digits must be >= 1",
    "matrix --K 1 --which A":
        "error: --K 1 --which A: K must be >= 2 (matrices are (K-1)x(K-1)), got 1",
    "reduce euler --K 1": "error: --K 1: K must be >= 2 (matrices are (K-1)x(K-1)), got 1",
    "reduce h --a -1": "error: --a -1: a and b must be >= 0",
    "audit h --a 2 --b 0":
        "error: --a 2 --b 0: (a, b) must be one of [(0, 0), (0, 1), (1, 0)], got (2, 0)",
    "verify series --order 0":
        "error: --order 0: order 0 leaves no comparable coefficient for s=1, m=1",
    "verify series --s-max 0": "error: --s-max 0: s_max and m_max must be >= 1",
}

# the CLI's own usage errors name their options themselves: no prefix
CLI_REJECTIONS = {
    "verify conjecture --k-min 5 --k-max 3": "error: --k-max must be >= --k-min",
    "reduce inverse --K 2 --audit-file x.json": "error: --audit-file needs --constants audited",
    "reduce inverse --K 2 --constants bogus":
        "error: --constants must be printed, audited, or explicit:<c1,c2,...>",
    "zeta --k 3 --k1 2 --k2 3": "error: zeta needs --k, or both --k1 and --k2, not both forms",
}


@pytest.mark.parametrize("argv", LIBRARY_REJECTIONS)
def test_a_library_rejection_names_the_options_as_typed(capsys, argv):
    assert run(argv.split(), capsys) == (2, "", LIBRARY_REJECTIONS[argv] + "\n")


@pytest.mark.parametrize("argv", CLI_REJECTIONS)
def test_the_clis_own_errors_get_no_options_prefix(capsys, argv):
    assert run(argv.split(), capsys) == (2, "", CLI_REJECTIONS[argv] + "\n")


def test_printed_constants_are_the_default(capsys):
    default = run(["reduce", "inverse", "--K", "4"], capsys)
    assert default[0] == 0
    assert run(["reduce", "inverse", "--K", "4", "--constants", "printed"], capsys) == default


@pytest.mark.parametrize("kind", ["conjecture", "closed-forms"])
@pytest.mark.parametrize("k_min", ["1", "0", "-3"])
def test_verify_k_min_below_two_is_a_usage_error(capsys, kind, k_min):
    # the library's check: one error: line, no usage text
    code, out, err = run(["verify", kind, "--k-min", k_min, "--k-max", "3"], capsys)
    assert (code, out, err) == (
        2,
        "",
        f"error: --k-min {k_min} --k-max 3: "
        f"K must be >= 2 (matrices are (K-1)x(K-1)), got {k_min}\n",
    )


def test_reduce_h(capsys):
    code, out, _ = run(["reduce", "h", "--a", "1", "--b", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    terms = {t["basis"]: t["coeff"] for t in payload["rows"][0]["terms"]}
    assert terms == {"H(1)*zeta(3)": "3", "H(0)*zeta(5)": "-11/2"}


def test_reduce_euler(capsys):
    code, out, _ = run(["reduce", "euler", "--K", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    terms = payload["rows"][0]["terms"]
    assert {"basis": "zeta(5)", "coeff": "-1/2", "flag": "as printed"} in terms
    assert {"basis": "zeta(2)*zeta(3)", "coeff": "3"} in terms


def test_reduce_inverse_explicit(capsys):
    code, out, _ = run(
        ["reduce", "inverse", "--K", "2", "--constants", "explicit:-1/2"], capsys
    )
    assert code == 0
    terms = {
        t["basis"]: t["coeff"] for t in json.loads(out)["rows"][0]["terms"]
    }
    assert terms == {"zeta(2,3)": "1/3", "zeta(5)": "1/6"}


def test_reduce_inverse_explicit_past_the_int_to_str_limit(capsys):
    # the text `bernoulli --format csv` writes for B_2200 reads back as a constant
    b = BernoulliCache().get(2200)
    argv = ["reduce", "inverse", "--K", "2", "--constants", f"explicit:{format_rational(b)}"]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    terms = {
        t["basis"]: t["coeff"] for t in json.loads(out)["rows"][0]["terms"]
    }
    assert terms["zeta(2,3)"] == "1/3"
    assert parse_rational(terms["zeta(5)"]) == -b / 3


def test_reduce_inverse_audited_missing_file(capsys, tmp_path):
    code, _, err = run(
        [
            "reduce",
            "inverse",
            "--K",
            "2",
            "--constants",
            "audited",
            "--audit-file",
            str(tmp_path / "missing.json"),
        ],
        capsys,
    )
    assert code == 3
    assert "audit euler" in err
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "K, content",
    [
        (2, "[1, 2]"),
        (2, '{"K": 2}'),
        (2, '{"K": 2, "rows": {"r": 1}}'),
        (3, '{"K": 3, "rows": [{"r": 1, "reconstructed": "-11"}]}'),
        (2, '{"K": 2, "rows": [["-11/2"]]}'),
        (2, '{"K": 2, "rows": [{"r": 1, "reconstructed": "1/0"}]}'),
        (2, '{"K": 2, "rows": [{"r": 1, "reconstructed": "abc"}]}'),
        (2, '{"K": 2, "rows": [{"r": 1, "reconstructed": true}]}'),
        (2, '{"K": 2, "rows": [{"r": 1, "reconstructed": 0.1}]}'),
        (2, '{"K": 2, "rows": [{"r": 1, "reconstructed": -1}]}'),
        (2, "not json"),
    ],
    ids=[
        "not-an-object",
        "no-rows",
        "rows-not-a-list",
        "too-few-rows",
        "row-not-an-object",
        "zero-denominator",
        "not-a-rational",
        "boolean",
        "float",
        "number",
        "not-json",
    ],
)
def test_reduce_inverse_audited_unusable_file(capsys, tmp_path, K, content):
    path = tmp_path / "audit.json"
    path.write_text(content)
    code, out, err = run(
        [
            "reduce",
            "inverse",
            "--K",
            str(K),
            "--constants",
            "audited",
            "--audit-file",
            str(path),
        ],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert str(path) in err
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "need --audit-file"),
        ('{"K": 3, "rows": []}', "is for K=3, need K=2"),
        ('{"K": 2, "rows": [{"r": 1, "reconstructed": null}]}', "no reconstructed constant"),
    ],
    ids=["no-audit-file", "other-K", "not-reconstructed"],
)
def test_missing_prerequisites_are_one_error_line(capsys, tmp_path, content, reason):
    argv = ["reduce", "inverse", "--K", "2", "--constants", "audited"]
    if content is not None:
        path = tmp_path / "audit.json"
        path.write_text(content)
        argv += ["--audit-file", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert_one_error_line(err)
    assert reason in err


def test_audit_then_audited_inverse(capsys, tmp_path):
    audit_path = tmp_path / "audit_k2.json"
    code, _, _ = run(
        ["audit", "euler", "--K", "2", "--digits", "40", "--out", str(audit_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(audit_path.read_text())
    assert payload["rows"][0]["reconstructed"] == "-11/2"
    assert payload["rows"][0]["printed_constant_consistent"] is False

    code, out, _ = run(
        [
            "reduce",
            "inverse",
            "--K",
            "2",
            "--constants",
            "audited",
            "--audit-file",
            str(audit_path),
        ],
        capsys,
    )
    assert code == 0
    terms = {t["basis"]: t["coeff"] for t in json.loads(out)["rows"][0]["terms"]}
    # -(1/3) * (-11/2) = 11/6
    assert terms == {"zeta(2,3)": "1/3", "zeta(5)": "11/6"}


@pytest.mark.parametrize(
    "reorder, bad_row",
    [(lambda rows: rows[::-1], "row 1 has r=2"), (lambda rows: [rows[0], rows[0]], "row 2 has r=1")],
    ids=["reversed-rows", "duplicated-rows"],
)
def test_reduce_inverse_audited_rows_must_be_in_r_order(capsys, tmp_path, reorder, bad_row):
    path = tmp_path / "audit_k3.json"
    code, _, _ = run(["audit", "euler", "--K", "3", "--out", str(path)], capsys)
    assert code == 0
    payload = json.loads(path.read_text())
    payload["rows"] = reorder(payload["rows"])
    path.write_text(json.dumps(payload))
    argv = ["reduce", "inverse", "--K", "3", "--constants", "audited", "--audit-file", str(path)]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert str(path) in err and bad_row in err


def test_audit_euler_rows_equal_single_row_runs(capsys):
    code, out, _ = run(["audit", "euler", "--K", "4", "--digits", "40"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [row["r"] for row in payload["rows"]] == [1, 2, 3]
    for row in payload["rows"]:
        argv = ["audit", "euler", "--K", "4", "--r", str(row["r"]), "--digits", "40"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        single = json.loads(out)
        assert single["rows"] == [row]
        assert {k: v for k, v in single.items() if k != "rows"} == {
            k: v for k, v in payload.items() if k != "rows"
        }


def test_audit_h(capsys):
    code, out, _ = run(["audit", "h", "--a", "0", "--b", "0", "--digits", "30"], capsys)
    assert code == 0
    assert json.loads(out)["agrees_within_bounds"] is True


def test_audit_digits_floor(capsys):
    # the floor is the library's digits >= 1: one error: line, no usage text
    for options in ("--K 2 --digits 0", "--digits 0"):
        argv = ["audit", "euler" if "--K" in options else "h", *options.split()]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {options}: digits must be >= 1\n")
    # below it an audit is coarser, not wrong: the verdicts are the 40-digit ones
    verdicts = []
    for digits in ("5", "40"):
        code, out, _ = run(["audit", "euler", "--K", "4", "--digits", digits], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        verdicts.append([(r["reconstructed"], r["printed_constant_consistent"]) for r in rows])
    assert verdicts[0] == verdicts[1]
    assert all(rec is not None for rec, _ in verdicts[0])


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--k", "3"],
        ["zeta", "--k1", "2", "--k2", "3"],
        ["audit", "euler", "--K", "3"],
        ["audit", "h"],
    ],
)
def test_digits_too_large_for_a_float_is_a_usage_error(capsys, argv):
    # not a traceback and exit 1, which would read as a failed identity
    digits = str(10**400)
    options = " ".join([*argv[2 if argv[0] == "audit" else 1 :], "--digits", digits])
    code, out, err = run([*argv, "--digits", digits], capsys)
    assert (code, out, err) == (
        2, "", f"error: {options}: digits is too large: its bit count passes sys.maxsize\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--k", "3"],
        ["zeta", "--k1", "2", "--k2", "3"],
        ["audit", "euler", "--K", "3"],
        ["audit", "h"],
    ],
)
def test_digits_past_the_largest_bit_count_is_a_usage_error(capsys, argv):
    # a float holds its bit count, but no int has that many bits: rejected
    # at once, where 10^(digits + 10) would not return
    digits = str(5 * 10**307)
    options = " ".join([*argv[2 if argv[0] == "audit" else 1 :], "--digits", digits])
    code, out, err = run([*argv, "--digits", digits], capsys)
    assert (code, out, err) == (
        2, "", f"error: {options}: digits is too large: its bit count passes sys.maxsize\n"
    )


def test_zeta_single(capsys):
    code, out, _ = run(["zeta", "--k", "3", "--digits", "20"], capsys)
    assert code == 0
    assert out.startswith("zeta(3) = 1.2020569031595942854")
    assert "±" in out


def test_zeta_usage(capsys):
    code, _, _ = run(["zeta"], capsys)
    assert code == 2


@pytest.mark.parametrize("k1", ["1", "2"])
def test_zeta_bound_above_target_is_an_error(capsys, monkeypatch, k1):
    # a truncation bound of 1 cannot meet 1e-30: the engine raises instead
    # of printing the value, and the CLI reports it without a traceback
    zeta_tail = numerics._zeta_tail

    def loose_tail(k, start, target, tables):
        tail = zeta_tail(k, start, target, tables)
        # one more unit, 2^scale ulps of the tail's own scale
        return tail._replace(error=tail.error + (1 << tail.scale))

    monkeypatch.setattr(numerics, "_zeta_tail", loose_tail)
    code, out, err = run(["zeta", "--k1", k1, "--k2", "4", "--digits", "30"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --k1 {k1} --k2 4 --digits 30: zeta({k1},4): error bound ")
    assert err.endswith(" misses the target 1e-30\n") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--K", "4", "--which", "Q"],
        ["reduce", "euler", "--K", "3"],
        ["reduce", "h", "--a", "2", "--b", "1", "--format", "csv"],
        ["bernoulli", "--max", "8", "--format", "json"],
        ["audit", "euler", "--K", "2", "--digits", "30"],
    ],
)
def test_byte_identical_reruns(capsys, argv):
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
