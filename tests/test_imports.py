"""Static gates: no module imports a name it never uses, no function in the
package takes a parameter it never reads, no package module but cost_model
names a private cost_model helper, no module-level definition in the
package goes unnamed by the rest of the code, no package code but
`Topology.held` builds a device's (parent, 0) cache key, and no package code
but `scenario.py` and the CLI's `--optimality` guard tests or keys by a policy's
name."""
import ast
from collections import Counter
from pathlib import Path

from fogsim.scenario import POLICIES

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


UNREAD_OK = {"self", "cls"}


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


def private_cost_model_names(source: str):
    """(line, name) of each private `cost_model` name a module reads, as
    `cost_model._x` (or through an alias of the module) or by
    `from .cost_model import _x`."""
    tree = ast.parse(source)
    aliases = {"cost_model"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            from_cost_model = (isinstance(node, ast.ImportFrom)
                               and (node.module or "").split(".")[-1] == "cost_model")
            for alias in node.names:
                if alias.name.split(".")[-1] == "cost_model":
                    aliases.add(alias.asname or alias.name)
                elif from_cost_model and alias.name.startswith("_"):
                    out.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_checker_flags_a_private_cost_model_name():
    sample = ("from . import cost_model as cm\nfrom .cost_model import _transfer, route\n"
              "x = cost_model._cached_route\ny = cm._TIME_ONLY\nz = cost_model.route\n")
    assert private_cost_model_names(sample) == [
        (2, "_transfer"), (3, "_cached_route"), (4, "_TIME_ONLY")]


def test_only_cost_model_names_its_private_helpers():
    # Pricing helpers stay behind cost_model's public functions, so a faster
    # kernel there cannot be bypassed or half-copied elsewhere.
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in sorted((ROOT / "src" / "fogsim").glob("*.py"))
                 if path.name != "cost_model.py"
                 for line, name in private_cost_model_names(path.read_text())]
    assert not offenders, "private cost_model names outside cost_model:\n" + "\n".join(offenders)


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every identifier a statement mentions: variables, attributes, imported
    names and strings (the benchmark tracer patches functions by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unreferenced_definitions(sources, package):
    """(file, name) of each module-level function or class in a `package` file
    that no top-level statement of `sources` names, apart from its own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    mentions = Counter(n for tree in trees.values() for stmt in tree.body
                       for n in _names(stmt))
    return sorted((name, stmt.name) for name in package for stmt in trees[name].body
                  if isinstance(stmt, DEFINITIONS)
                  and mentions[stmt.name] == int(stmt.name in _names(stmt)))


def test_checker_flags_an_unreferenced_definition():
    sample = {"m.py": "def f(): return f()\ndef g(): return f()\n"}
    assert unreferenced_definitions(sample, ["m.py"]) == [("m.py", "g")]


def test_no_unreferenced_definitions():
    files = [path for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in files}
    package = [name for name in sources if name.startswith("src/fogsim/")]
    offenders = unreferenced_definitions(sources, package)
    assert not offenders, "definitions nothing names:\n" + "\n".join(
        f"{name}: {definition}" for name, definition in offenders)


def held_key_builders(source: str):
    """(line, enclosing qualified name) of each `(<x>.parent, 0)` tuple a module builds."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and isinstance(node.elts[0], ast.Attribute) and node.elts[0].attr == "parent"
              and isinstance(node.elts[1], ast.Constant) and node.elts[1].value == 0):
            out.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return out


def test_checker_flags_a_held_key():
    sample = ("class T:\n    def held(self, n):\n        return (n.parent, 0)\n"
              "def f(n):\n    return [(n.parent, 1), (n.node.parent, 0)]\n")
    assert held_key_builders(sample) == [(3, "T.held"), (5, "f")]


def test_only_topology_held_builds_a_device_cache_key():
    # Routes, cost rows and cost orders key a device by its parent; one
    # owner keeps those keys from drifting apart.
    offenders = [f"{path.relative_to(ROOT)}:{line}: {scope}"
                 for path in sorted((ROOT / "src" / "fogsim").glob("*.py"))
                 for line, scope in held_key_builders(path.read_text())
                 if (path.name, scope) != ("topology.py", "Topology.held")]
    assert not offenders, "device cache keys built outside Topology.held:\n" + "\n".join(
        offenders)


NAME_TESTS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def policy_name_tests(source: str):
    """(line, kind) of each comparison (==, !=, in, not in) with a policy-name
    literal, each `case` on one, and each dict display keyed by one."""
    def named(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(e, ast.Constant) and e.value in POLICIES for e in elts)

    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(op, NAME_TESTS) and (named(a) or named(b))
                   for op, a, b in zip(node.ops, sides, sides[1:])):
                out.append((node.lineno, "comparison"))
        elif isinstance(node, ast.MatchValue) and named(node.value):
            out.append((node.lineno, "case"))
        elif isinstance(node, ast.Dict) and any(k is not None and named(k) for k in node.keys):
            out.append((node.lineno, "dict"))
    return sorted(out)


def test_checker_flags_a_policy_name_test():
    sample = ("if p == 'urmila' or 'maas' != p or x < 1: pass\n"
              "ok = p in ('proposed', 'maas') and p not in POLICIES\n"
              "table = {'proposed': 1, **rest}\nkw = dict(policy='maas')\n"
              "match p:\n    case 'maas': pass\n")
    assert policy_name_tests(sample) == [(1, "comparison"), (1, "comparison"),
                                         (2, "comparison"), (3, "dict"), (6, "case")]


def test_only_scenario_names_a_policy_in_a_test():
    # What sets a policy apart lives in its `scenario.Policy` record; the
    # CLI's --optimality guard names the one policy that study measures.
    offenders = [f"{path.relative_to(ROOT)}:{line}: {kind}"
                 for path in sorted((ROOT / "src" / "fogsim").glob("*.py"))
                 if path.name not in ("scenario.py", "cli.py")
                 for line, kind in policy_name_tests(path.read_text())]
    assert not offenders, "policy-name tests outside scenario:\n" + "\n".join(offenders)
