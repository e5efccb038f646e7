"""The verbose reports of the bundled configs and of the benchmark's verify
configs, pinned byte for byte apart from the `elapsed` timings.

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
# read only: the benchmark owns these files
BENCH_CONFIGS = TESTS.parent / "perfbench" / "configs"


@pytest.mark.parametrize(
    "path",
    [CONFIGS / f"{name}.json" for name in ("generic_q", "n1_l3", "n2_l3")]
    + [BENCH_CONFIGS / f"{name}.json" for name in ("verify_qq", "verify_l5")],
    ids=lambda path: path.stem,
)
def test_verbose_report_matches_golden(path):
    report = run_verification_suite(load_config(str(path)), verbose=True)
    for rec in report["checks"]:
        del rec["elapsed"]
    want = json.loads((TESTS / "golden" / f"{path.stem}.json").read_text())
    assert json.loads(json.dumps(report)) == want
