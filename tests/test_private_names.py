"""Every name the package binds has a reader: a private top-level name
defined in src/fraccount/*.py is read somewhere in src/ outside its own
definition, and every name a module imports is read in that module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fraccount"


def _defined(stmt):
    # the names a top-level statement binds
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {node.id for target in targets if target is not None
            for node in ast.walk(target) if isinstance(node, ast.Name)}


def _read(stmt):
    # the names a statement reads, bare or as a module attribute
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_top_level_name_is_read_outside_its_definition():
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            defined += [(path.name, name) for name in sorted(names) if _private(name)]
            read |= _read(stmt) - names
    assert defined
    assert [entry for entry in defined if entry[1] not in read] == []


def _imported(tree):
    # the names a module's imports bind, __future__ features aside
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def _exported(tree):
    # the names a module lists in __all__, which re-exports them
    return {elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            for target in stmt.targets if isinstance(target, ast.Name) and target.id == "__all__"
            for elt in stmt.value.elts}


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(path.name, name) for name in sorted(_imported(tree) - loaded - _exported(tree))]
    assert unread == []
