"""The verbose reports of the bundled configs, pinned byte for byte apart
from the `elapsed` timings.

Regenerate the files under `golden/` only for a change that is meant to
alter a verdict or a detail string.
"""

import json
from pathlib import Path

import pytest

from qweylab.checks import run_verification_suite
from qweylab.config import load_config

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"


@pytest.mark.parametrize("name", ["generic_q", "n1_l3", "n2_l3"])
def test_verbose_report_matches_golden(name):
    report = run_verification_suite(load_config(str(CONFIGS / f"{name}.json")), verbose=True)
    for rec in report["checks"]:
        del rec["elapsed"]
    want = json.loads((TESTS / "golden" / f"{name}.json").read_text())
    assert json.loads(json.dumps(report)) == want
