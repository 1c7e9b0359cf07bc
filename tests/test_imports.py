"""Static gates: no module imports a name it never uses, and no function in
the package takes a parameter it never reads."""
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


# Kernel handlers receive the event whether or not they read it.
UNREAD_OK = {"self", "cls", "event", "e"}


def unused_parameters(source: str):
    """(line, function, parameter) for each parameter its function body never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [a for a in (args.vararg, args.kwarg) if a is not None]]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read.add(sub.id)
                elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                    read.add(sub.target.id)
        name = getattr(node, "name", "<lambda>")
        out.extend((node.lineno, name, p) for p in params
                   if p not in read and p not in UNREAD_OK and not p.startswith("_"))
    return sorted(out)


def test_checker_flags_an_unused_parameter():
    assert unused_parameters("def f(self, a, b, _c):\n    return b\n") == [(1, "f", "a")]
    assert unused_parameters("g = lambda x, y: y\n") == [(1, "<lambda>", "x")]


def test_no_unused_parameters():
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}({param})"
                 for path in sorted((ROOT / "src" / "fogsim").glob("*.py"))
                 for line, name, param in unused_parameters(path.read_text())]
    assert not offenders, "unused parameters:\n" + "\n".join(offenders)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "fogsim").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in files if path.name != "__init__.py"
                 for line, name in unused_imports(path.read_text())]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)
