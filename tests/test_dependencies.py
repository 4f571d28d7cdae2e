"""The runtime needs numpy alone: every absolute import in the package names
a standard-library module or numpy."""

import ast
from pathlib import Path
import sys

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oris"
ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    outside = [f"{path.name}:{line}: {mod}" for line, mod in absolute_imports(path)
               if mod not in ALLOWED]
    assert not outside, outside


def test_the_import_scan_sees_what_it_checks(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path\nfrom numpy import linalg\nfrom . import envs\n"
                     "def f():\n    import scipy.stats\n")
    assert absolute_imports(probe) == [(1, "os"), (2, "numpy"), (5, "scipy")]
