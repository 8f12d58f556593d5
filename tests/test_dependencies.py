import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "doublezeta").glob("*.py"))

# mpmath is the one declared runtime dependency (pyproject.toml); numpy and
# the rest of the scientific stack must not creep in.
ALLOWED = set(sys.stdlib_module_names) | {"mpmath", "doublezeta"}


def _imported_packages(path: Path) -> set[str]:
    """Top-level package names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_stdlib_and_mpmath():
    assert SOURCES
    offending = {
        path.name: sorted(_imported_packages(path) - ALLOWED) for path in SOURCES
    }
    assert {name: pkgs for name, pkgs in offending.items() if pkgs} == {}
