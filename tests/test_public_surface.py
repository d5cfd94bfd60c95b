"""Every name that ``arithgenus/__init__.py`` exports is reached from the CLI
or from a name the benchmark tracer wraps, through the module-level
definitions of the package, every private function, class or module-level
constant is referenced somewhere in the package, and every public member of
a class is read by name somewhere in the package, so the package carries no
code that only the tests call.  Test-only references live in
``tests/oracles.py``."""

import ast
from pathlib import Path

import arithgenus
from test_trace_targets import load_spans

PACKAGE = Path(arithgenus.__file__).resolve().parent


def exported_names():
    # the export table of __init__.py, which resolves each name on first use
    return list(arithgenus._EXPORTS)


def package_modules():
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _loads(node):
    # the names and attribute names that the code under `node` loads
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _assigned(node):
    # names bound by the statement `NAME = ...` or `NAME: T = ...`
    targets = node.targets if isinstance(node, ast.Assign) else [
        node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def names_used_by_package():
    # __init__.py's own names count too: its export table is read by its hooks
    return {name for path in PACKAGE.glob("*.py") for name in _loads(ast.parse(path.read_text()))}


def traced_names():
    return {attr.split(".")[0] for attrs in load_spans().TARGETS.values() for attr in attrs}


def names_reached():
    """The names reached from every definition in cli.py, every traced name
    and the code a module runs at import: a module-level definition that is
    reached (by name, across the package's modules) adds what it loads."""
    loads, todo = {}, list(traced_names())
    for module, tree in package_modules():
        for node in tree.body:
            defined = [node.name] if isinstance(node, DEFINITIONS) else _assigned(node)
            for name in defined:
                loads.setdefault(name, set()).update(_loads(node))
            if module == "cli.py" or not defined:
                todo += [*defined, *_loads(node)]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += loads.get(name, ())
    return reached


def test_every_export_is_used_or_traced():
    exported = exported_names()
    assert exported and all(hasattr(arithgenus, name) for name in exported)
    reached = names_used_by_package() | traced_names()
    assert [name for name in exported if name not in reached] == []


def test_every_export_is_reached_from_the_cli_or_the_tracer():
    # loaded by some module is not enough: the loading definition must be
    # reached too
    reached = names_reached()
    assert [name for name in exported_names() if name not in reached] == []


def _registered_verb(node):
    # handlers that @_verb(...) puts into the CLI verb table
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_verb"
               for d in node.decorator_list)


def test_every_private_definition_is_referenced():
    # private functions, classes and module-level constants alike
    used = names_used_by_package()
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [name for node in tree.body for name in _assigned(node)]
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not _registered_verb(node):
                names.append(node.name)
        unreferenced += [f"{path.name}:{name}" for name in names
                         if name.startswith("_") and not name.endswith("__") and name not in used]
    assert unreferenced == []


def test_every_class_member_is_read_by_the_package():
    # public methods, properties and fields of the package's classes, read by
    # name somewhere in the package; a helper that only tests call lives in
    # tests/oracles.py
    used = names_used_by_package()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                names = [name for node in cls.body for name in (
                    [node.name] if isinstance(node, DEFINITIONS) else _assigned(node))]
                unread += [f"{path.name}:{cls.name}.{name}" for name in names
                           if not name.startswith("_") and name not in used]
    assert unread == []
