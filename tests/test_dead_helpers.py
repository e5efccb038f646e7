"""Every module-level function or class of the package has a use, and the
decisions made in one place stay there.

A private name is one that starts with a single underscore.  A use is a load
of the name, or an attribute access by that name, anywhere in the package
outside the name's own definition, so recursion alone does not count.  A
public name needs a use too unless the package's `__init__.py` imports it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qweylab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions_and_uses(package: Path):
    """({name: ["module.name", ...]} of the top-level functions and classes,
    [(used name, enclosing top-level definition as "module.name" or None)])."""
    defined = {}
    uses = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{stmt.name}"
                defined.setdefault(stmt.name, []).append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, owner))
    return defined, uses


def _unused(package: Path, keep) -> list[str]:
    """The definitions whose name passes keep and has no use outside them."""
    defined, uses = _definitions_and_uses(package)
    unused = []
    for name, owners in defined.items():
        if not keep(name):
            continue
        for owner in owners:
            if not any(used == name and where != owner for used, where in uses):
                unused.append(owner)
    return sorted(unused)


def unused_private_definitions(package: Path) -> list[str]:
    return _unused(package, _private)


def unused_public_definitions(package: Path) -> list[str]:
    init = package / "__init__.py"
    exported = {
        alias.name
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return _unused(package, lambda name: not name.startswith("_") and name not in exported)


def test_every_private_helper_has_a_use():
    assert unused_private_definitions(PACKAGE) == []


def test_every_public_definition_is_exported_or_used():
    assert unused_public_definitions(PACKAGE) == []


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _used(n):\n    return _used(n - 1) if n else 0\n\n\n"
        "def _recursive_only(n):\n    return _recursive_only(n - 1) if n else 0\n\n\n"
        "class _Kept:\n    pass\n\n\n"
        "def public():\n    return _used(2), _Kept()\n"
    )
    assert unused_private_definitions(tmp_path) == ["mod._recursive_only"]


def test_guard_flags_an_unused_public_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "mod.py").write_text(
        "def exported():\n    return Used()\n\n\n"
        "class Used:\n    pass\n\n\n"
        "def recursive_only(n):\n    return recursive_only(n - 1) if n else 0\n\n\n"
        "def never_loaded():\n    return 0\n"
    )
    assert unused_public_definitions(tmp_path) == ["mod.never_loaded", "mod.recursive_only"]


def test_one_enumerator_and_one_hnf_per_torus():
    # qweyl alone enumerates over itertools.product: exponent_vectors and monomials
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    importers = sorted(
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "itertools" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "itertools")
    )
    assert importers == ["qweyl"]
    # the column HNF of A is computed in TorusData.hnf only, which also
    # decides the rank of A
    calls = [
        (module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "column_hnf" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    (torus,) = [
        node for node in trees["moment"].body
        if isinstance(node, ast.ClassDef) and node.name == "TorusData"
    ]
    (hnf,) = [node for node in torus.body if getattr(node, "name", None) == "hnf"]
    assert len(calls) == 1
    module, line = calls[0]
    assert module == "moment" and hnf.lineno <= line <= hnf.end_lineno
