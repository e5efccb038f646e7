"""The verbose reports of every bundled config (`configs/*.json`), of the
benchmark's two verify configs and of every test config
(`tests/configs/*.json`), and the moment checks of the non-uniform-diagonal
variants of the Q(q) config, pinned byte for byte apart from the `elapsed`
timings.

Regenerate the files under `golden/` only for a change that is meant to
alter a verdict or a detail string.
"""

import json
from pathlib import Path

import pytest

from conftest import NON_UNIFORM, verify_qq_variant
from qweylab.checks import run_verification_suite
from qweylab.config import load_config

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"
# read only: the benchmark owns these files
BENCH_CONFIGS = TESTS.parent / "perfbench" / "configs"


@pytest.mark.parametrize(
    "path",
    sorted(CONFIGS.glob("*.json"))
    + [BENCH_CONFIGS / f"{name}.json" for name in ("verify_qq", "verify_l5")]
    + sorted((TESTS / "configs").glob("*.json")),
    ids=lambda path: path.stem,
)
def test_verbose_report_matches_golden(path):
    assert_matches_golden(run_verification_suite(load_config(str(path)), verbose=True), path.stem)


def variant_name(diagonal, column):
    name = "verify_qq_diag_" + "_".join(map(str, diagonal))
    return name if column is None else name + "_A_" + "_".join(map(str, column))


@pytest.mark.parametrize(
    "diagonal, column", NON_UNIFORM, ids=[variant_name(*v) for v in NON_UNIFORM]
)
def test_non_uniform_moment_checks_match_golden(diagonal, column):
    report = run_verification_suite(
        verify_qq_variant(diagonal, column),
        only={"moment-identity", "moment-reduction"},
        verbose=True,
    )
    assert_matches_golden(report, variant_name(diagonal, column))


def assert_matches_golden(report, name):
    for rec in report["checks"]:
        del rec["elapsed"]
    want = json.loads((TESTS / "golden" / f"{name}.json").read_text())
    assert json.loads(json.dumps(report)) == want
