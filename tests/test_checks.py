"""The verification suite: its requirement table, the skips and verdicts it
gives on configs that reach them, and internals its reports do not show."""

import json
import random
from pathlib import Path

import pytest

from conftest import VERIFY_QQ
from qweylab.checks import CHECKS, NEEDS, _random_element, run_verification_suite
from qweylab.config import load_config, parse_config
from qweylab.reduction import compatible_eta_grid

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SPEC_CONFIGS = {
    "generic_q": CONFIGS / "generic_q.json",
    "verify_qq": VERIFY_QQ,
    "n2_l3": CONFIGS / "n2_l3.json",
}


def folded_random_element(rng, spec, max_degree=3, max_terms=3, drawn=None):
    """The reference: the same draws, summed as monomial elements.  Each
    drawn (key, coefficient) is appended to ``drawn``, when given."""
    out = spec.zero()
    for _ in range(rng.randint(1, max_terms)):
        a = [0] * spec.n
        b = [0] * spec.n
        for _ in range(rng.randint(0, max_degree)):
            if rng.random() < 0.5:
                a[rng.randrange(spec.n)] += 1
            else:
                b[rng.randrange(spec.n)] += 1
        c = rng.randint(-3, 3)
        if drawn is not None:
            drawn.append(((tuple(a), tuple(b)), c))
        out = out + spec.monomial(a, b, c)
    return out


def cancellations(drawn):
    """(a key's sum fell to zero, such a key was drawn again after it)."""
    sums, cancelled, redrawn = {}, set(), False
    for key, c in drawn:
        redrawn = redrawn or (key in cancelled and c != 0)
        prev = sums.get(key, 0)
        sums[key] = prev + c
        if prev and not sums[key]:
            cancelled.add(key)
    return bool(cancelled), redrawn


@pytest.mark.parametrize("name", sorted(SPEC_CONFIGS))
def test_random_element_equals_the_monomial_fold(name):
    spec = load_config(str(SPEC_CONFIGS[name])).spec
    got_rng, want_rng = random.Random(f"random element:{name}"), random.Random(f"random element:{name}")
    zero = cancelled = redrawn = 0
    for max_degree, max_terms in [(3, 3), (4, 3), (1, 6)] * 200:
        drawn = []
        got = _random_element(got_rng, spec, max_degree, max_terms)
        want = folded_random_element(want_rng, spec, max_degree, max_terms, drawn)
        assert got == want
        assert list(got.terms) == list(want.terms)
        assert got_rng.getstate() == want_rng.getstate()
        zero += got.is_zero()
        shape = cancellations(drawn)
        cancelled += shape[0]
        redrawn += shape[1]
    # the draws reach zero elements, cancelled keys and keys drawn again
    # after cancelling, where the key order of the fold is the subtle part
    assert zero and cancelled and redrawn


# n2_l3 with one or two changes each: together they leave every requirement
# of NEEDS unmet, and the last one two at once (cyclotomic before subtorus).
# A rational field takes no reps, so both rational variants drop them.
GUARD_VARIANTS = {
    "unscaled": {"normalization": "unscaled"},
    "no-reps": {"reps": []},
    "no-subtorus": {"d": 0, "A": None, "eta": None},
    "rational": {"field": "rational", "l": None, "reps": []},
    "matrix-M": {"M": [[2, 1], [-1, 1]]},
    "rational-no-subtorus": {
        "field": "rational", "l": None, "reps": [], "d": 0, "A": None, "eta": None
    },
}

# (check_id, status, detail) of each variant's verbose report
GUARD_RECORDS = {
    "unscaled": [
        ("engine-soundness", "pass", "40 triples, 20 reassociations"),
        ("euler-commutativity", "skipped", "needs the rescaled normalization"),
        ("power-identities", "skipped", "needs the rescaled normalization"),
        ("hopf-axioms", "pass", "48 cases"),
        ("double-presentation", "pass", "233 cases"),
        ("classical-limit", "pass", "2 coordinates"),
        ("moment-identity", "skipped", "needs the rescaled normalization"),
        ("moment-reduction", "skipped", "needs the rescaled normalization"),
        ("delta-power", "skipped", "needs the rescaled normalization"),
        ("center-truncation", "skipped", "needs the rescaled normalization"),
        ("lcenter-freeness", "skipped", "needs the rescaled normalization"),
        ("rep-build", "skipped", "needs the rescaled normalization"),
        ("rep-irreducibility", "skipped", "needs the rescaled normalization"),
        ("fiber-weights", "skipped", "needs the rescaled normalization"),
        ("fiber-restriction", "skipped", "needs the rescaled normalization"),
        ("fiber-reduced-endos", "skipped", "needs the rescaled normalization"),
        ("cover-degree", "pass", "10 seeded instances, 3 points each"),
    ],
    "no-reps": [
        ("engine-soundness", "pass", "40 triples, 20 reassociations"),
        ("euler-commutativity", "pass", "1 cases"),
        ("power-identities", "pass", "32 cases"),
        ("hopf-axioms", "pass", "48 cases"),
        ("double-presentation", "pass", "233 cases"),
        ("classical-limit", "pass", "2 coordinates"),
        ("moment-identity", "pass", "16 cases"),
        ("moment-reduction", "pass", "10 seeded elements"),
        ("delta-power", "pass", "1 cases"),
        ("center-truncation", "pass", "49 cases"),
        ("lcenter-freeness", "pass", "6 cases"),
        ("rep-build", "skipped", "no representations configured"),
        ("rep-irreducibility", "skipped", "no representations configured"),
        ("fiber-weights", "skipped", "no representations configured"),
        ("fiber-restriction", "skipped", "no representations configured"),
        ("fiber-reduced-endos", "skipped", "no representations configured"),
        ("cover-degree", "pass", "10 seeded instances, 3 points each"),
    ],
    "no-subtorus": [
        ("engine-soundness", "pass", "40 triples, 20 reassociations"),
        ("euler-commutativity", "pass", "1 cases"),
        ("power-identities", "pass", "32 cases"),
        ("hopf-axioms", "pass", "48 cases"),
        ("double-presentation", "pass", "233 cases"),
        ("classical-limit", "pass", "2 coordinates"),
        ("moment-identity", "pass", "12 cases"),
        ("moment-reduction", "skipped", "no subtorus configured"),
        ("delta-power", "pass", "1 cases"),
        ("center-truncation", "pass", "49 cases"),
        ("lcenter-freeness", "pass", "6 cases"),
        ("rep-build", "pass", "dim 9, azumaya=yes; dim 9, azumaya=yes"),
        ("rep-irreducibility", "pass", "configured reps plus 10 seeded rank-1 dichotomies"),
        ("fiber-weights", "skipped", "no subtorus configured"),
        ("fiber-restriction", "skipped", "no subtorus configured"),
        ("fiber-reduced-endos", "skipped", "no subtorus configured"),
        ("cover-degree", "skipped", "no subtorus configured"),
    ],
    "rational": [
        ("engine-soundness", "pass", "40 triples, 20 reassociations"),
        ("euler-commutativity", "pass", "1 cases"),
        ("power-identities", "pass", "32 cases"),
        ("hopf-axioms", "pass", "50 cases"),
        ("double-presentation", "pass", "233 cases"),
        ("classical-limit", "pass", "2 coordinates"),
        ("moment-identity", "pass", "16 cases"),
        ("moment-reduction", "pass", "10 seeded elements"),
        ("delta-power", "skipped", "needs a cyclotomic field"),
        ("center-truncation", "skipped", "needs a cyclotomic field"),
        ("lcenter-freeness", "skipped", "needs a cyclotomic field"),
        ("rep-build", "skipped", "needs a cyclotomic field"),
        ("rep-irreducibility", "skipped", "needs a cyclotomic field"),
        ("fiber-weights", "skipped", "needs a cyclotomic field"),
        ("fiber-restriction", "skipped", "needs a cyclotomic field"),
        ("fiber-reduced-endos", "skipped", "needs a cyclotomic field"),
        ("cover-degree", "skipped", "needs a cyclotomic field"),
    ],
    "matrix-M": [
        ("engine-soundness", "pass", "40 triples, 20 reassociations"),
        ("euler-commutativity", "pass", "1 cases"),
        ("power-identities", "pass", "32 cases"),
        ("hopf-axioms", "pass", "48 cases"),
        ("double-presentation", "pass", "233 cases"),
        ("classical-limit", "pass", "2 coordinates"),
        ("moment-identity", "pass", "16 cases"),
        ("moment-reduction", "pass", "10 seeded elements"),
        ("delta-power", "skipped", "needs the single-parameter preset"),
        ("center-truncation", "skipped", "needs the single-parameter preset"),
        ("lcenter-freeness", "skipped", "needs the single-parameter preset"),
        ("rep-build", "skipped", "needs the single-parameter preset"),
        ("rep-irreducibility", "skipped", "needs the single-parameter preset"),
        ("fiber-weights", "skipped", "needs the single-parameter preset"),
        ("fiber-restriction", "skipped", "needs the single-parameter preset"),
        ("fiber-reduced-endos", "skipped", "needs the single-parameter preset"),
        ("cover-degree", "pass", "10 seeded instances, 3 points each"),
    ],
    "rational-no-subtorus": [
        ("engine-soundness", "pass", "40 triples, 20 reassociations"),
        ("euler-commutativity", "pass", "1 cases"),
        ("power-identities", "pass", "32 cases"),
        ("hopf-axioms", "pass", "50 cases"),
        ("double-presentation", "pass", "233 cases"),
        ("classical-limit", "pass", "2 coordinates"),
        ("moment-identity", "pass", "12 cases"),
        ("moment-reduction", "skipped", "no subtorus configured"),
        ("delta-power", "skipped", "needs a cyclotomic field"),
        ("center-truncation", "skipped", "needs a cyclotomic field"),
        ("lcenter-freeness", "skipped", "needs a cyclotomic field"),
        ("rep-build", "skipped", "needs a cyclotomic field"),
        ("rep-irreducibility", "skipped", "needs a cyclotomic field"),
        ("fiber-weights", "skipped", "needs a cyclotomic field"),
        ("fiber-restriction", "skipped", "needs a cyclotomic field"),
        ("fiber-reduced-endos", "skipped", "needs a cyclotomic field"),
        ("cover-degree", "skipped", "needs a cyclotomic field"),
    ],
}


@pytest.mark.parametrize("name", list(GUARD_VARIANTS))
def test_unmet_requirements_skip_in_table_order(tmp_path, name):
    raw = json.loads((CONFIGS / "n2_l3.json").read_text())
    for key, value in GUARD_VARIANTS[name].items():
        if value is None:
            del raw[key]
        else:
            raw[key] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    report = run_verification_suite(load_config(str(path)), verbose=True)
    records = [(rec["check_id"], rec["status"], rec["detail"]) for rec in report["checks"]]
    assert records == GUARD_RECORDS[name]


def test_each_check_names_requirements_of_the_table_in_its_order():
    order = list(NEEDS)
    assert order == ["cyclotomic", "rescaled", "preset", "reps", "subtorus"]
    for _, _, needs, _ in CHECKS:
        assert list(needs) == sorted(needs, key=order.index)
    # each skip reason is written once, in the table
    sources = "".join(path.read_text() for path in (ROOT / "src" / "qweylab").glob("*.py"))
    for _, reason in NEEDS.values():
        assert sources.count(f'"{reason}"') == 1


def test_readme_checks_table_copies_the_registry():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| id | needs | verifies |\n| --- | --- | --- |\n", 1)[1]
    rows = [line.split("|")[1:-1] for line in table.split("\n\n", 1)[0].splitlines()]
    assert [cells[0].strip(" `") for cells in rows] == [cid for cid, _, _, _ in CHECKS]
    for cells, (_, _, needs, _) in zip(rows, CHECKS):
        named = [name.strip(" `") for name in cells[1].split(",")]
        assert named == (list(needs) or [""])


def test_off_locus_reps_have_an_empty_eta_grid():
    raw = json.loads((CONFIGS / "n1_l3.json").read_text())
    slot = [{"kind": "diag", "lambda": "2", "b": ["0", "0", "0"]}]
    # the moment scalar of an off-locus rank-1 rep is 0, and eta = 0 is no
    # torus point: the rep is recorded with no eta values
    mixed = parse_config(dict(raw, reps=raw["reps"] + [slot]))
    report = run_verification_suite(mixed, only={"fiber-weights"}, verbose=True)
    assert [(rec["status"], rec["detail"]) for rec in report["checks"]] == [
        ("pass", "3 eta values, total 3; 3 eta values, total 3; 0 eta values, total 0")
    ]
    # a rep on the locus whose moment scalar has no rational root skips
    on_locus = [{"kind": "diag", "lambda": "1", "b": ["1", "1", "2"]}]
    no_root = parse_config(dict(raw, reps=[on_locus]))
    report = run_verification_suite(no_root, only={"fiber-weights"}, verbose=True)
    assert [(rec["status"], rec["detail"]) for rec in report["checks"]] == [
        ("skipped", "character values have no rational-root eta grid")
    ]
    configs = [load_config(str(path)) for path in sorted(CONFIGS.glob("*.json"))] + [mixed]
    grids = [
        compatible_eta_grid(rep, config.torus)
        for config in configs
        if config.rep_slots and config.torus.d
        for rep in config.build_reps()
    ]
    assert len(grids) == 7 and grids[-1] == []
    assert not any(value.is_zero() for grid in grids for eta in grid for value in eta)


def test_fiber_weights_skips_only_when_no_rep_has_an_eta_grid():
    raw = json.loads((CONFIGS / "n1_l3.json").read_text())
    # on the locus, but its moment scalar has no rational l-th root
    no_root = [{"kind": "diag", "lambda": "1", "b": ["1", "1", "2"]}]
    off_locus = [{"kind": "diag", "lambda": "1", "b": ["0", "0", "0"]}]
    cases = [
        (raw["reps"] + [no_root],
         ("pass", "3 eta values, total 3; 3 eta values, total 3; no rational-root eta grid")),
        ([off_locus, no_root], ("pass", "0 eta values, total 0; no rational-root eta grid")),
        ([no_root], ("skipped", "character values have no rational-root eta grid")),
        ([no_root, no_root], ("skipped", "character values have no rational-root eta grid")),
    ]
    for reps, record in cases:
        report = run_verification_suite(
            parse_config(dict(raw, reps=reps)), only={"fiber-weights"}, verbose=True
        )
        assert [(rec["status"], rec["detail"]) for rec in report["checks"]] == [record]
