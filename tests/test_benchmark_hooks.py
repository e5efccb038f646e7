"""Every function and method the benchmark's tracer wraps must exist under
the name it uses, so a rename fails here rather than in a traced run; and
the benchmark's output checker must accept the CLI's outputs.

The tracer's target lists are read from `perfbench/tracer.py` as literals;
the file is neither imported nor changed.  `perfbench/outputs.py` is loaded
by its path, unchanged.
"""

import ast
import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qweylab import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _load_outputs():
    spec = importlib.util.spec_from_file_location("perfbench_outputs", ROOT / "perfbench" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "command, expression",
    [("eval", "a1^-1*x1 + 2*d2*a2^-2"), ("reduce", "a1^-1*x1*d2 + x2*d1")],
)
def test_session_checker_accepts_the_cli_outputs(command, expression):
    # as the expression session records them: stdout, stripped
    configs = {name: ROOT / "configs" / f"{name}.json" for name in ("generic_q", "n2_l3")}
    checker = _load_outputs().SessionChecker(configs)
    for path in map(str, configs.values()):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main([command, "--config", path, "--", expression]) == 0
        output = out.getvalue().strip()
        if command == "eval":
            assert "^-" in output
        assert checker.check(command, expression, path, output) is None
        assert checker.check(command, expression, path, output + " + 1") is not None
