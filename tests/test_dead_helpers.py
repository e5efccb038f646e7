"""Every private module-level function or class of the package has a use.

A private name is one that starts with a single underscore.  A use is a load
of the name, or an attribute access by that name, anywhere in the package
outside the name's own definition, so recursion alone does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qweylab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_definitions(package: Path) -> list[str]:
    defined = {}  # name -> ["module.name", ...]
    uses = []  # (name, enclosing top-level definition as "module.name" or None)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{stmt.name}"
                if _private(stmt.name):
                    defined.setdefault(stmt.name, []).append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, owner))
    unused = []
    for name, owners in defined.items():
        for owner in owners:
            if not any(used == name and where != owner for used, where in uses):
                unused.append(owner)
    return sorted(unused)


def test_every_private_helper_has_a_use():
    assert unused_private_definitions(PACKAGE) == []


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _used(n):\n    return _used(n - 1) if n else 0\n\n\n"
        "def _recursive_only(n):\n    return _recursive_only(n - 1) if n else 0\n\n\n"
        "class _Kept:\n    pass\n\n\n"
        "def public():\n    return _used(2), _Kept()\n"
    )
    assert unused_private_definitions(tmp_path) == ["mod._recursive_only"]
