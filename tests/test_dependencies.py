import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "doublezeta").glob("*.py"))

# the package runs on the standard library alone (pyproject.toml declares
# no runtime dependency); mpmath is for the tests and the benchmark's oracle
ALLOWED = set(sys.stdlib_module_names) | {"doublezeta"}
# modules that the command line must not load: they cost start-up time
# that commands without numerics (verify, matrix, reduce) would pay too
NOT_AT_START = ("mpmath", "dataclasses", "inspect")


def _imported_packages(path: Path) -> set[str]:
    """Top-level package names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_stdlib():
    assert SOURCES
    offending = {
        path.name: sorted(_imported_packages(path) - ALLOWED) for path in SOURCES
    }
    assert {name: pkgs for name, pkgs in offending.items() if pkgs} == {}


def test_cli_start_up_loads_no_mpmath_dataclasses_or_inspect():
    code = (
        "import sys, doublezeta.cli; doublezeta.cli.build_parser(); "
        f"print(sorted(set({NOT_AT_START!r}) & set(sys.modules)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCES[0].parents[1]), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "[]\n"
