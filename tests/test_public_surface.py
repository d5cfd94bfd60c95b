"""Every name that ``arithgenus/__init__.py`` exports is used by another
module of the package or wrapped by the benchmark tracer, and every private
function, class or module-level constant is referenced somewhere in the
package, so the package carries no code that only the tests call.
Test-only references live in ``tests/oracles.py``."""

import ast
from pathlib import Path

import arithgenus
from test_trace_targets import load_spans

PACKAGE = Path(arithgenus.__file__).resolve().parent


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used_by_package():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def traced_names():
    return {attr.split(".")[0] for attrs in load_spans().TARGETS.values() for attr in attrs}


def test_every_export_is_used_or_traced():
    exported = exported_names()
    assert exported and all(hasattr(arithgenus, name) for name in exported)
    reached = names_used_by_package() | traced_names()
    assert [name for name in exported if name not in reached] == []


def _registered_verb(node):
    # handlers that @_verb(...) puts into the CLI verb table
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_verb"
               for d in node.decorator_list)


def _module_assignments(tree):
    # names bound by `NAME = ...` or `NAME: T = ...` at module level
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target] if isinstance(node, ast.AnnAssign) else []
        yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_private_definition_is_referenced():
    # private functions, classes and module-level constants alike
    used = names_used_by_package()
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = list(_module_assignments(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _registered_verb(node):
                    names.append(node.name)
        unreferenced += [f"{path.name}:{name}" for name in names
                         if name.startswith("_") and not name.endswith("__") and name not in used]
    assert unreferenced == []
