"""Every function and method the benchmark's tracer wraps must exist under
the name it uses, so a rename fails here rather than in a traced run.

The tracer's target lists are read from `perfbench/tracer.py` as literals;
the file is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _literals() -> dict:
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "CACHES", "SCALAR_TIMED"):
                out[target.id] = ast.literal_eval(node.value)
    return out


HOOKS = _literals()


def _resolve(module_name: str, path: str):
    """(owner, attribute name, value) of a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def test_spanned_targets_resolve():
    assert HOOKS["SPANNED"]
    for _, module_name, path in HOOKS["SPANNED"]:
        owner, attr, value = _resolve(module_name, path)
        assert callable(value), path
        if isinstance(owner, type):
            # the tracer replaces the method on this very class
            assert attr in vars(owner), path


def test_cache_targets_are_lru_caches():
    assert HOOKS["CACHES"]
    for _, module_name, attr in HOOKS["CACHES"]:
        _, _, value = _resolve(module_name, attr)
        assert callable(getattr(value, "cache_info", None)), attr
        assert callable(getattr(value, "cache_clear", None)), attr


def test_scalar_and_eliminator_hooks_resolve():
    from qweylab.exactla import SparseEliminator
    from qweylab.scalars import Scalar

    for attr in list(HOOKS["SCALAR_TIMED"]) + ["is_zero"]:
        assert attr in vars(Scalar), attr
    assert callable(vars(SparseEliminator)["add"])
