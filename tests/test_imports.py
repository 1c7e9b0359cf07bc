"""Static gate: no module in the package or the tests imports a name it never uses."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    """Names bound by import statements that no expression in the module reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "fogsim").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in files if path.name != "__init__.py"
                 for line, name in unused_imports(path.read_text())]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)
