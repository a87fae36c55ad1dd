"""Every top-level function and class of the package has a caller outside the tests.

A name counts as called when a module under src/, scripts/ or perfbench/
reads it (as a name, an attribute, an imported name, or a string naming an
attribute, as the benchmark's tracer does) anywhere but inside its own
definition.  Dunder names such as a module ``__getattr__`` are called by the
interpreter.  Code that only tests call belongs under tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nlinvade"
CALLERS = ("src", "scripts", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)
    return names


def uncalled_definitions() -> list[str]:
    """``module.name`` of every top-level definition in the package that no caller reads."""
    # (file, name the statement defines or "") -> names the statement reads
    read: dict[tuple[Path, str], set[str]] = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                own = stmt.name if isinstance(stmt, DEFINITIONS) else ""
                read.setdefault((path, own), set()).update(_names_read(stmt))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("__") and not any(
                stmt.name in names for key, names in read.items() if key != (path, stmt.name)
            ):
                missing.append(f"{path.stem}.{stmt.name}")
    return missing


def test_every_definition_has_a_caller_outside_tests():
    assert uncalled_definitions() == []
