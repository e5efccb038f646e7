"""Repeated `qweylab.cli.main` calls in one process, as a session serves
requests: the argument parser is built only for an argv that is not of the
exact form, and then once, each config text is parsed once, and every call
answers exactly as a fresh process would."""

import argparse
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qweylab import cli, config
from qweylab.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GENERIC_Q = CONFIGS / "generic_q.json"
N2_L3 = CONFIGS / "n2_l3.json"


def run(argv):
    """(exit code, stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def clear_request_caches():
    cli._build_parser.cache_clear()
    config._config_of_text.cache_clear()


def test_main_builds_the_parser_once(monkeypatch):
    inits = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        inits.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    cli._build_parser()
    per_build = len(inits)
    cli._build_parser.cache_clear()
    inits.clear()
    for expression in ("x1", "d1*x1", "x1^2", "a1", "q*x2"):
        assert run(["eval", expression, "--config", str(GENERIC_Q)])[0] == 0
    assert per_build > 0
    assert inits == []
    # an abbreviated option goes to argparse: the parser is built once
    for expression in ("x1", "d1*x1"):
        assert run(["eval", expression, "--conf", str(GENERIC_Q)])[0] == 0
    assert len(inits) == per_build


def seeded_requests(rng: random.Random, count: int, bad_config: str) -> list[list[str]]:
    """[command, expression, config] triples over generic_q and n2_l3: seeded
    words in x, d and a with small exponents and coefficients, their sums and
    squares, plus a negative power of x1, a parse error and a bad config."""
    coefficients = {
        str(GENERIC_Q): ["", "3*", "-2*", "q^2*", "(q-1)*", "1/q*"],
        str(N2_L3): ["", "3*", "-2*", "zeta*", "(zeta+1)*"],
    }
    atoms = ["x1", "x2", "d1", "d2", "a1", "a2"]

    def word():
        return "*".join(
            f"{rng.choice(atoms)}^{rng.randint(1, 3)}" for _ in range(rng.randint(1, 3))
        )

    requests = []
    for _ in range(count):
        cfg = rng.choice(sorted(coefficients))
        expression = rng.choice(coefficients[cfg]) + word()
        shape = rng.random()
        if shape < 0.25:
            expression = f"{expression} + {word()}"
        elif shape < 0.4:
            expression = f"({expression} + {word()})^2"
        requests.append([rng.choice(["eval", "reduce"]), expression, cfg])
    specials = [
        ["eval", "x1^-1", str(GENERIC_Q)],
        ["reduce", "x1^-1", str(N2_L3)],
        ["reduce", "a1^-1*x1*d2", str(N2_L3)],
        ["eval", "x1 +", str(GENERIC_Q)],
        ["eval", "x1", bad_config],
        ["reduce", "d1*x1", bad_config],
    ]
    for request in specials:
        requests.insert(rng.randrange(len(requests) + 1), request)
    return requests


def test_warm_session_answers_as_cold_calls(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "cyclotomic", "l": 2, "n": 1}))
    requests = seeded_requests(random.Random(1010), 54, str(bad))
    argvs = [[command, "--config", cfg, "--", expression] for command, expression, cfg in requests]
    clear_request_caches()
    warm = [run(argv) for argv in argvs]
    cold = []
    for argv in argvs:
        clear_request_caches()
        cold.append(run(argv))
    assert warm == cold
    codes = [code for code, _, _ in warm]
    assert len(codes) == 60 and codes.count(2) == 5 and codes.count(0) == 55
    assert sum("invalid config" in err for _, _, err in warm) == 2


# Sums and differences with a scalar, PBW or localized (a_i^-k) operand on
# either side: expression -> eval and reduce outputs on generic_q, then on
# n2_l3.  Python's reflected operators let the PBW or localized operand add.
MIXED_SUMS = {
    "3 + x1": ("x1 + 3", "x1 + 3", "x1 + 3", "x1 + 3"),
    "x1 + 3": ("x1 + 3", "x1 + 3", "x1 + 3", "x1 + 3"),
    "3 - x1": ("-x1 + 3", "-x1 + 3", "-x1 + 3", "-x1 + 3"),
    "x1 - 3": ("x1 - 3", "x1 - 3", "x1 - 3", "x1 - 3"),
    "2 + a1^-1": ("(2*x1*d1 + 3)*a1^-1", "2 + a1^-1", "(2*x1*d1 + 3)*a1^-1", "2 + a1^-1"),
    "a1^-1 + 2": ("(2*x1*d1 + 3)*a1^-1", "2 + a1^-1", "(2*x1*d1 + 3)*a1^-1", "2 + a1^-1"),
    "2 - a1^-1": ("(2*x1*d1 + 1)*a1^-1", "2 - a1^-1", "(2*x1*d1 + 1)*a1^-1", "2 - a1^-1"),
    "a1^-1 - x1": (
        "(-x1^2*d1 - x1 + 1)*a1^-1",
        "-x1 + a1^-1",
        "(-x1^2*d1 - x1 + 1)*a1^-1",
        "-x1 + a1^-1",
    ),
    "x1 + a2^-1": (
        "(x1*x2*d2 + x1 + 1)*a2^-1",
        "x1 + 1/q^3*a1",
        "(x1*x2*d2 + x1 + 1)*a2^-1",
        "x1 + 1/3*a1",
    ),
    "x1*d1 - a2^-2 + 5": (
        "(q^3*x1*x2^2*d1*d2^2 + (q^2+q)*x1*x2*d1*d2 + x1*d1"
        " + 5*q*x2^2*d2^2 + (5*q+5)*x2*d2 + 4)*a2^-2",
        "-1/q^6*a1^2 + a1 + 4",
        "(x1*x2^2*d1*d2^2 - x1*x2*d1*d2 + x1*d1 + 5*zeta*x2^2*d2^2 + (5*zeta+5)*x2*d2 + 4)*a2^-2",
        "-1/9*a1^2 + a1 + 4",
    ),
    "1 - a1^-1 - a2^-1": (
        "(q*x1*x2*d1*d2 - 1)*a1^-1*a2^-1",
        "-1/q^3*a1 + 1 - a1^-1",
        "(zeta*x1*x2*d1*d2 - 1)*a1^-1*a2^-1",
        "-1/3*a1 + 1 - a1^-1",
    ),
    # a fraction prints in lowest terms, so these values print no a_i^-k
    "a1^-1*0": ("0", "0", "0", "0"),
    "a1^-1 - a1^-1": ("0", "0", "0", "0"),
    "a1^-1*a1": ("1", "1", "1", "1"),
    "(a1^-1 + x2) - (3 + a1^-1)": ("x2 - 3", "x2 - 3", "x2 - 3", "x2 - 3"),
}


@pytest.mark.parametrize("expression", list(MIXED_SUMS))
def test_mixed_sums_and_differences(expression):
    calls = [(command, cfg) for cfg in (GENERIC_Q, N2_L3) for command in ("eval", "reduce")]
    for (command, cfg), output in zip(calls, MIXED_SUMS[expression]):
        assert run([command, expression, "--config", str(cfg)]) == (0, output + "\n", "")


def test_edited_config_file_is_parsed_again(tmp_path):
    path = tmp_path / "cfg.json"
    raw = json.loads(GENERIC_Q.read_text())
    path.write_text(json.dumps(raw))
    assert run(["eval", "d1*x1", "--config", str(path)]) == (0, "q*x1*d1 + (q-1)\n", "")
    raw["M"] = [[2, 1], [-1, 1]]
    path.write_text(json.dumps(raw))
    assert run(["eval", "d1*x1", "--config", str(path)]) == (0, "q^2*x1*d1 + (q^2-1)\n", "")


def test_each_load_parses_a_text_once_and_returns_an_independent_config(monkeypatch):
    parses = []
    original = config.parse_config

    def counted(raw):
        parses.append(raw)
        return original(raw)

    monkeypatch.setattr(config, "parse_config", counted)
    config._config_of_text.cache_clear()
    first = load_config(str(N2_L3))
    first_reps = first.build_reps()
    first.bounds["random_cases"] = 1
    first.raw["seed"] = -1
    first.raw["reps"].pop()
    first.rep_slots[0][0][1][0] = None
    first.rep_slots.pop()
    second = load_config(str(N2_L3))
    assert len(parses) == 1
    assert second.spec is first.spec
    fresh = original(json.loads(N2_L3.read_text()))
    assert second.raw == fresh.raw
    assert second.bounds == fresh.bounds
    assert second.rep_slots == fresh.rep_slots
    # the reps are built again, from the unmutated slots
    second_reps = second.build_reps()
    assert [rep.dim for rep in second_reps] == [9, 9]
    assert not any(a is b for a, b in zip(first_reps, second_reps))


def test_loads_own_their_bounds_slots_and_reps_and_leave_the_shared_config_alone():
    config._config_of_text.cache_clear()
    first, second = load_config(str(N2_L3)), load_config(str(N2_L3))
    shared = config._config_of_text(N2_L3.read_bytes().decode())
    before = (dict(shared.bounds), repr(shared.rep_slots), shared._reps)
    assert first.bounds is not second.bounds and first.bounds is not shared.bounds
    assert first.rep_slots is not second.rep_slots
    assert all(
        a is not b and (sa is None or sa[1] is not sb[1])
        for a, b in zip(first.rep_slots, second.rep_slots)
        for sa, sb in zip(a, b)
    )
    first.bounds["degree_bound"] = 1
    first.rep_slots[0][0][1][0] = None
    reps = second.build_reps()
    assert second.bounds == shared.bounds and first._reps is None
    assert second._reps is not None and shared._reps is None
    assert load_config(str(N2_L3))._reps is None
    assert (dict(shared.bounds), repr(shared.rep_slots), shared._reps) == before
    assert [rep.dim for rep in reps] == [9, 9]


def test_validation_errors_name_their_config_file(tmp_path):
    # two bad configs served in one session, each with one problem and then
    # again, cached and after the good config: stderr names the file
    l_bad, n_bad = tmp_path / "l_bad.json", tmp_path / "n_bad.json"
    l_bad.write_text(json.dumps({"field": "cyclotomic", "l": 2, "n": 1}))
    raw = json.loads(N2_L3.read_text())
    raw["n"] = 0
    n_bad.write_text(json.dumps(raw))
    clear_request_caches()
    answers = [
        run(["eval", "x1", "--config", str(path)]) for path in (l_bad, N2_L3, n_bad, l_bad)
    ]
    assert [code for code, _, _ in answers] == [2, 0, 2, 2]
    l_error = (
        f"invalid config {l_bad}:\n"
        "  field/l: cyclotomic order l must be odd and > 1\n"
    )
    assert answers[0] == (2, "", l_error)
    assert answers[3] == answers[0]
    assert answers[2][2].startswith(f"invalid config {n_bad}:\n  n: must be >= 1\n")
    # a raw dict has no file to name
    with pytest.raises(config.ConfigError) as info:
        config.parse_config({"field": "cyclotomic", "l": 2, "n": 1})
    assert str(info.value) == "invalid config:\n  field/l: cyclotomic order l must be odd and > 1"


G, N1 = "configs/generic_q.json", "configs/n1_l3.json"
# (argv, exit code, stdout, stderr) of one main call from the repository
# root, at 80 columns, as the full argparse parser gives them.  An exit
# through argparse's SystemExit is written "SystemExit(code)".
EDGE_ARGV = [
    (
        [],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab [-h] [--version] {eval,verify,rep,reduce} ...\n"
            "qweylab: error: the following arguments are required: command\n"
        ),
    ),
    (
        ["--version"],
        "SystemExit(0)",
        "qweylab 0.1.0\n",
        "",
    ),
    (
        ["-h"],
        "SystemExit(0)",
        (
            "usage: qweylab [-h] [--version] {eval,verify,rep,reduce} ...\n"
            "\n"
            "exact q-Weyl algebra workbench\n"
            "\n"
            "positional arguments:\n"
            "  {eval,verify,rep,reduce}\n"
            "    eval                normal-order an expression\n"
            "    verify              run the verification suite\n"
            "    rep                 representation commands\n"
            "    reduce              canonical form modulo the moment ideal\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --version             show program's version number and exit\n"
        ),
        "",
    ),
    (
        ["eval", "-h"],
        "SystemExit(0)",
        (
            "usage: qweylab eval [-h] --config CONFIG expression\n"
            "\n"
            "positional arguments:\n"
            "  expression\n"
            "\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --config CONFIG\n"
        ),
        "",
    ),
    (
        ["eval"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab eval [-h] --config CONFIG expression\n"
            "qweylab eval: error: the following arguments are required: expression, --config\n"
        ),
    ),
    (
        ["eval", "x1"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab eval [-h] --config CONFIG expression\n"
            "qweylab eval: error: the following arguments are required: --config\n"
        ),
    ),
    (
        ["eval", "x1", "--conf", G],
        0,
        "x1\n",
        "",
    ),
    (
        ["eval", f"--config={G}", "d1*x1"],
        0,
        "q*x1*d1 + (q-1)\n",
        "",
    ),
    (
        ["eval", "x1", "x2", "--config", G],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab [-h] [--version] {eval,verify,rep,reduce} ...\n"
            "qweylab: error: unrecognized arguments: x2\n"
        ),
    ),
    (
        ["evaluate", "x1", "--config", G],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab [-h] [--version] {eval,verify,rep,reduce} ...\n"
            "qweylab: error: argument command: invalid choice: 'evaluate' (choose from 'eval', 'verify', 'rep', 'reduce')\n"
        ),
    ),
    (
        ["eval", "x1", "--config", G, "--fast"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab [-h] [--version] {eval,verify,rep,reduce} ...\n"
            "qweylab: error: unrecognized arguments: --fast\n"
        ),
    ),
    (
        ["eval", "x1", "--config", G, "--version"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab [-h] [--version] {eval,verify,rep,reduce} ...\n"
            "qweylab: error: unrecognized arguments: --version\n"
        ),
    ),
    (
        ["reduce", "--config", N1, "--", "-x1^2*d1^2"],
        0,
        "(2*zeta+3)\n",
        "",
    ),
    (
        ["verify"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab [-h] [--version] {eval,verify,rep,reduce} ...\n"
            "qweylab: error: --config is required\n"
        ),
    ),
    (
        ["verify", "--list-checks"],
        0,
        (
            "engine-soundness: pbw-product-associativity-confluence-grading\n"
            "euler-commutativity: euler-operators-commute\n"
            "power-identities: euler-power-identities\n"
            "hopf-axioms: braided-hopf-structure-axioms\n"
            "double-presentation: smash-product-matches-presentation\n"
            "classical-limit: trivial-braiding-gives-weyl-algebra\n"
            "moment-identity: comoment-conjugation-grading\n"
            "moment-reduction: moment-ideal-canonical-form\n"
            "delta-power: euler-product-lth-power-closed-form\n"
            "center-truncation: bounded-centralizer-is-lth-power-span\n"
            "lcenter-freeness: residue-monomials-free-over-lth-powers\n"
            "rep-build: representation-relations-hold\n"
            "rep-irreducibility: commutant-detects-matrix-algebra-locus\n"
            "fiber-weights: weight-space-dimension-law\n"
            "fiber-restriction: restriction-kernel-equals-moment-ideal\n"
            "fiber-reduced-endos: reduced-algebra-is-weight-endomorphisms\n"
            "cover-degree: root-cover-point-count\n"
        ),
        "",
    ),
    (
        ["rep"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab rep [-h] {build} ...\n"
            "qweylab rep: error: the following arguments are required: rep_command\n"
        ),
    ),
    (
        ["rep", "build", "--config", N1],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab rep build [-h] --config CONFIG --out OUT\n"
            "qweylab rep build: error: the following arguments are required: --out\n"
        ),
    ),
    (
        ["rep", "build", "--config", N1, "--out", "reps.json", "extra"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab [-h] [--version] {eval,verify,rep,reduce} ...\n"
            "qweylab: error: unrecognized arguments: extra\n"
        ),
    ),
    (
        ["reduce", "x1", "--conf", N1],
        0,
        "x1\n",
        "",
    ),
    (
        ["reduce", f"--config={N1}", "x1^3"],
        0,
        "x1^3\n",
        "",
    ),
    (
        ["verify", "--conf", N1, "--only", "delta-power"],
        0,
        "pass    delta-power\n1 passed, 0 failed, 0 skipped\n",
        "",
    ),
    (
        ["verify", f"--config={N1}", "--only", "delta-power"],
        0,
        "pass    delta-power\n1 passed, 0 failed, 0 skipped\n",
        "",
    ),
    (
        ["reduce", "-h"],
        "SystemExit(0)",
        (
            "usage: qweylab reduce [-h] --config CONFIG expression\n"
            "\n"
            "positional arguments:\n"
            "  expression\n"
            "\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --config CONFIG\n"
        ),
        "",
    ),
    (
        ["eval", "-x1", "--config", G],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab eval [-h] --config CONFIG expression\n"
            "qweylab eval: error: the following arguments are required: expression\n"
        ),
    ),
    (
        ["eval", "--config", "-x1", "x1"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab eval [-h] --config CONFIG expression\n"
            "qweylab eval: error: argument --config: expected one argument\n"
        ),
    ),
    (
        ["verify", "--config", N1, "--only", "-delta-power"],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab verify [-h] [--config CONFIG] [--only ONLY] [--verbose]\n"
            "                      [--out OUT] [--list-checks]\n"
            "qweylab verify: error: argument --only: expected one argument\n"
        ),
    ),
    (
        ["eval", "x1", "--config", G, "--config", G],
        0,
        "x1\n",
        "",
    ),
    (
        ["eval", "--", "x1", "--config", G],
        "SystemExit(2)",
        "",
        (
            "usage: qweylab eval [-h] --config CONFIG expression\n"
            "qweylab eval: error: the following arguments are required: --config\n"
        ),
    ),
]


def run_exiting(argv):
    """run(argv), with argparse's SystemExit recorded as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, code, out, err", EDGE_ARGV, ids=[" ".join(case[0]) or "no-args" for case in EDGE_ARGV]
)
def test_edge_argv_answer_as_the_full_parser(monkeypatch, argv, code, out, err):
    monkeypatch.chdir(CONFIGS.parent)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_exiting(argv) == (code, out, err)


# The EDGE_ARGV cases of the exact form, which skip argparse; argparse
# parses every other one.
EXACT_EDGE_ARGV = [
    ["verify"],
    ["verify", "--list-checks"],
    ["reduce", "--config", N1, "--", "-x1^2*d1^2"],
]


def full_parse(parser, argv):
    """parser.parse_args(argv), or None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


def test_exact_form_declines_every_other_edge_argv():
    parser = cli._build_parser()
    for argv, *_ in EDGE_ARGV:
        args = cli._parse_exact(argv)
        if argv in EXACT_EDGE_ARGV:
            assert args is not None and vars(args) == vars(full_parse(parser, argv))
        else:
            assert args is None, argv


# tokens the generated argvs give each option and positional
VALUES = {
    "--config": ["configs/n1_l3.json", "", "a b=c", "-c", "--", "--out"],
    "--only": ["delta-power", "-x", "1,2"],
    "--out": ["report.json", "-", "--verbose"],
    "expression": ["x1", "x1 + d1^2", "", "-x1^2", "-", "--", "--config", "a=b"],
}


def generated_argvs():
    """Every subcommand of the exact form with every subset of its arguments
    (and all of them with one twice) in every order, the positional both as a
    token of its own and after ``--``: once with the first value in VALUES of
    each argument, once with seeded draws from VALUES."""
    rng = random.Random(2424)
    for command, form in cli._EXACT_FORMS.items():
        names = list(form.options) + ([form.positional] if form.positional else [])
        pools = [list(c) for k in range(len(names) + 1) for c in itertools.combinations(names, k)]
        pools.append(names + names[:1])
        for pool in pools:
            for order, dashdash, draw in itertools.product(
                itertools.permutations(pool), (False, True), (False, True)
            ):
                argv = [command]
                for name in order:
                    if name != form.positional and not form.options[name][1]:
                        argv.append(name)
                        continue
                    value = rng.choice(VALUES[name]) if draw else VALUES[name][0]
                    if name == form.positional:
                        argv += ["--", value] if dashdash else [value]
                    else:
                        argv += [name, value]
                if dashdash and form.positional not in order:
                    argv.append("--")
                yield argv


def test_exact_form_parses_as_argparse():
    parser = cli._build_parser()
    argvs = list(generated_argvs())
    accepted = 0
    for argv in argvs:
        args = cli._parse_exact(argv)
        if args is not None:
            accepted += 1
            assert vars(args) == vars(full_parse(parser, argv)), argv
    assert len(argvs) > 4000 and accepted > 300
    # the session's request form
    argv = ["reduce", "--config", str(N2_L3), "--", "-x1^2*d1"]
    assert vars(cli._parse_exact(argv)) == {
        "command": "reduce", "config": str(N2_L3), "expression": "-x1^2*d1"
    }
