"""tests/test_properties.py needs hypothesis, which qweylab does not declare:
without it the module must skip, not fail."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

# a finder ahead of the others fails every import of hypothesis; the run
# loads no plugin from an entry point, so hypothesis's plugin stays out and
# pytest's assertion rewriter does not claim the hypothesis package
RUN_WITHOUT_HYPOTHESIS = """
import sys


class NoHypothesis:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "hypothesis":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NoHypothesis())
import pytest
sys.exit(pytest.main(
    ["-q", "-rs", "-p", "no:cacheprovider", "test_properties.py"]
))
"""


def test_property_module_skips_without_hypothesis():
    env = dict(os.environ)
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    run = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_HYPOTHESIS],
        cwd=TESTS,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    # the module skips at import, before any of its tests is collected: one
    # skip for the module, and nothing passed, failed or errored
    assert run.returncode == pytest.ExitCode.NO_TESTS_COLLECTED, run.stdout + run.stderr
    assert "could not import 'hypothesis'" in run.stdout
    summary = run.stdout.strip().splitlines()[-1]
    assert re.fullmatch(r"1 skipped in [0-9.]+s", summary), summary
