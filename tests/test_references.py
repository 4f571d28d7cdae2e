"""No public API that only tests call: every public top-level function and
class in the package, and every public method of a public class, is
referenced outside its own definition by the package or by the benchmark
(perfbench/*.py). A reference is a name, an attribute, an imported name or
a string that is an identifier, so the method names perfbench's spans wrap
count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "oris").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def definitions(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public top-level function and
    class, and each public method of a public class, in one source file."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f.lineno, f.end_lineno) for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


def references(path: Path) -> list[tuple[str, int]]:
    """(identifier, line) of each name, attribute, imported name and
    identifier string in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.append((node.value, node.lineno))
    return found


def unreferenced(sources, users) -> list[str]:
    """`file:line: name` of each definition in `sources` that no file of
    `users` references outside the definition's own lines."""
    refs = {path: references(path) for path in users}
    out = []
    for path in sources:
        for name, first, last in definitions(path):
            if not any(ident == name and (user != path or not first <= line <= last)
                       for user, found in refs.items() for ident, line in found):
                out.append(f"{path.name}:{first}: {name}")
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    assert not unreferenced(SOURCES, USERS)


def test_the_reference_scan_sees_what_it_checks(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("def used(): pass\n"
                   "def recursive():\n    return recursive()\n"
                   "def _private(): pass\n"
                   "class Box:\n"
                   "    def wrapped(self): pass\n"
                   "    def called(self): return self.unused_elsewhere\n"
                   "    def unused_elsewhere(self): pass\n"
                   "    def orphan(self): pass\n")
    user.write_text("from lib import used\nSPANS = [(Box, 'wrapped')]\n"
                    "Box().called()\n")
    assert unreferenced([lib], [lib, user]) == ["lib.py:2: recursive", "lib.py:9: orphan"]
