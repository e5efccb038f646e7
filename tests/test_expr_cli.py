import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from qweylab.config import ConfigError, parse_config
from qweylab.cli import main
from qweylab.errors import DomainError, ExprError
from qweylab.expr import format_localized, format_pbw, parse_expression, parse_scalar
from qweylab.qweyl import AlgebraSpec, LocalizedElement
from qweylab.scalars import make_field

QQ_Q = make_field("rational_function_q")
Z3 = make_field("cyclotomic", 3)
S1 = AlgebraSpec.single_parameter(1, QQ_Q)
S2 = AlgebraSpec.single_parameter(2, QQ_Q)
q = QQ_Q.q

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_parse_basic():
    assert parse_expression("d1*x1", S1) == q * S1.x(1) * S1.d(1) + (q - 1)
    assert parse_expression("x1*x1", S1) == S1.x(1, 2)
    assert parse_expression("x1^3", S1) == S1.x(1, 3)
    assert parse_expression("2*x1 - x1", S1) == S1.x(1)
    assert parse_expression("(x1+d1)^2", S1) == (S1.x(1) + S1.d(1)) ** 2
    assert parse_expression("a1", S1) == S1.alpha(1)
    assert parse_expression("-3/4*q^2", S1) == QQ_Q.from_fraction(Fraction(-3, 4)) * q * q


def test_parse_localized():
    v = parse_expression("a1^-2", S1)
    assert isinstance(v, LocalizedElement)
    assert v.denom == (2,)
    w = parse_expression("x1 * a1^-1 + d1", S1)
    assert isinstance(w, LocalizedElement)
    assert w.equals(LocalizedElement(S1.x(1) + S1.d(1) * S1.alpha(1), (1,)))


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_expression("x1^-1", S1)
    with pytest.raises(ExprError):
        parse_expression("x3", S2)
    with pytest.raises(ExprError):
        parse_expression("y1", S1)
    with pytest.raises(ExprError):
        parse_expression("x1 +", S1)
    with pytest.raises(ExprError):
        parse_expression("zeta", S1)
    err = None
    try:
        parse_expression("x1 * %", S1)
    except ExprError as exc:
        err = exc
    assert err is not None and err.column == 6


@pytest.mark.parametrize("rescaled", [True, False], ids=["rescaled", "unscaled"])
@pytest.mark.parametrize(
    "field",
    [make_field("rational"), QQ_Q, Z3, make_field("cyclotomic", 5)],
    ids=["Q", "Q(q)", "Q(zeta_3)", "Q(zeta_5)"],
)
def test_generator_powers_are_the_pbw_powers(field, rescaled):
    # x_i^e and d_i^e are read as one monomial and a_i^e from the alpha-power
    # cache: the same terms, in the same key order, as PBW powering
    spec = AlgebraSpec.from_rows([[2, 1], [-1, 1]], field, rescaled)
    for i in (1, 2):
        for e in range(13):
            for head, base in (("x", spec.x(i)), ("d", spec.d(i)), ("a", spec.alpha(i))):
                got = parse_expression(f"{head}{i}^{e}", spec)
                want = base**e
                assert list(got.terms.items()) == list(want.terms.items()), (head, i, e)


@pytest.mark.parametrize(
    "text, column",
    [("x1^\u00b2", 4), ("x1\u00b2", 3), ("\u0663*x1", 1), ("x\u0661", 2), ("x1 + \uff11", 6)],
)
def test_only_ascii_digits_and_names(text, column):
    # superscripts and other scripts' digits were read as digits: x1^2 in
    # superscript ended in a ValueError, Arabic-Indic 3 and 1 read as 3 and 1
    with pytest.raises(ExprError) as info:
        parse_expression(text, S1)
    assert info.value.column == column
    assert str(info.value).startswith(f"unexpected character {text[column - 1]!r}")


def test_integer_literal_past_the_digit_limit_is_an_expr_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ExprError) as info:
        parse_expression("x1 + " + "7" * (limit + 1), S1)
    assert info.value.column == 6
    assert str(info.value) == f"integer literal longer than {limit} digits (column 6)"
    assert parse_expression("7" * limit, S1) == S1.scalar_element(int("7" * limit))


@pytest.mark.parametrize(
    "field", [make_field("rational"), QQ_Q, Z3], ids=["Q", "Q(q)", "Q(zeta_3)"]
)
def test_numbers_too_long_to_print_are_a_domain_error(field):
    limit = sys.get_int_max_str_digits()
    big = field.from_int(10**limit)
    for value in (big, big * field.from_fraction(Fraction(1, 3)), big.inv()):
        with pytest.raises(DomainError, match=f"more than {limit} digits"):
            str(value)
    spec = AlgebraSpec.single_parameter(1, field)
    with pytest.raises(DomainError):
        format_pbw(spec.x(1, 10**limit))
    assert str(field.from_int(10 ** (limit - 1))) == "1" + "0" * (limit - 1)


def test_cli_errors_on_long_numbers_and_non_ascii_digits(capsys):
    cfg = str(CONFIGS / "generic_q.json")
    limit = sys.get_int_max_str_digits()
    cases = [
        ("2^20000", f"error: a number in the result has more than {limit} digits, too many to print\n"),
        ("7" * 5000, f"error: integer literal longer than {limit} digits (column 1)\n"),
        ("x1\u00b2", "error: unexpected character '\u00b2' (column 3)\n"),
    ]
    for text, err in cases:
        assert main(["eval", "--config", cfg, "--", text]) == 2
        assert capsys.readouterr() == ("", err)


DEEP = {
    "parentheses": "(" * 300 + "x1" + ")" * 300,
    "minus-signs": "-" * 1200 + "x1",
    "mixed": "(-" * 150 + "x1" + ")" * 150,
}


@pytest.mark.parametrize("text", list(DEEP.values()), ids=list(DEEP))
def test_deep_nesting_is_an_error_at_its_column(capsys, text):
    cfg = str(CONFIGS / "generic_q.json")
    assert main(["eval", "--config", cfg, "--", text]) == 2
    assert capsys.readouterr() == ("", "error: nested deeper than 100 levels (column 101)\n")
    with pytest.raises(ExprError) as info:
        parse_expression(text, S1)
    assert info.value.column == 101


def test_nesting_up_to_the_limit_parses():
    assert parse_expression("(" * 100 + "x1" + ")" * 100, S1) == S1.x(1)
    assert parse_expression("-" * 100 + "x1", S1) == S1.x(1)
    assert parse_expression("(-" * 50 + "x1" + ")" * 50, S1) == S1.x(1)
    assert parse_scalar("(" * 100 + "2" + ")" * 100, Z3) == Z3.from_int(2)


def test_deep_config_literal_is_a_config_error_naming_its_field(tmp_path, capsys):
    raw = json.loads((CONFIGS / "n1_l3.json").read_text())
    raw["eta"] = ["(" * 300 + "2" + ")" * 300]
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(raw))
    assert main(["eval", "x1", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == (
        "",
        f"invalid config {cfg}:\n  eta[0]: nested deeper than 100 levels (column 101)\n",
    )


def test_parse_scalar():
    assert parse_scalar("3/4", QQ_Q) == QQ_Q.from_fraction(Fraction(3, 4))
    assert parse_scalar("q^2 - q", QQ_Q) == q * q - q
    assert parse_scalar("zeta+1", Z3) == Z3.zeta + 1
    with pytest.raises(ExprError):
        parse_scalar("x1", QQ_Q)


def test_format_pbw():
    assert format_pbw(parse_expression("d1*x1", S1)) == "q*x1*d1 + (q-1)"
    assert format_pbw(parse_expression("x1*x1", S1)) == "x1^2"
    assert format_pbw(S1.zero()) == "0"
    assert format_pbw(S1.x(1) - S1.d(1)) == "x1 - d1"
    assert format_localized(LocalizedElement(S1.x(1), (2,))) == "x1*a1^-2"
    assert format_localized(LocalizedElement(S1.one(), (1,))) == "a1^-1"


def test_roundtrip_print_parse():
    import random

    rng = random.Random(4)
    from conftest import random_element

    for _ in range(30):
        u = random_element(rng, S2, 3, 3)
        assert parse_expression(format_pbw(u), S2) == u


def test_roundtrip_one_term_denominator_with_coefficient():
    for c in (1, -3, 5):
        for k in (2, 3, 12):
            for m in (1, 2, 16):
                v = QQ_Q.from_polys((c,), (0,) * m + (k,))
                assert parse_scalar(str(v), QQ_Q) == v
                u = v * S2.x(1, 4) * S2.d(2, 4)
                assert parse_expression(format_pbw(u), S2) == u
    v = parse_expression("3/2*d2^4*x1^4", S2)
    assert format_pbw(v) == "3/(2*q^16)*x1^4*d2^4"


def test_config_validation_collects_problems():
    with pytest.raises(ConfigError) as info:
        parse_config({"field": "cyclotomic", "l": 2, "n": 0, "d": 1})
    msg = str(info.value)
    assert "field/l" in msg and "n:" in msg and "A:" in msg


def test_config_l2_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config(
            {"field": "cyclotomic", "l": 2, "n": 1, "d": 1, "A": [[1]]}
        )
    assert "l" in str(info.value)


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("M", "foo", "M: expected a list of integer rows"),
        ("M", [[1.5, 1], [-1, 1]], "M[0][0]: expected an integer"),
        ("M", [[1, True], [-1, 1]], "M[0][1]: expected an integer"),
        ("A", [[1], [0.5]], "A[1][0]: expected an integer"),
    ],
)
def test_config_rejects_non_integer_matrix_entries(key, value, problem):
    raw = json.loads((CONFIGS / "n2_l3.json").read_text())
    raw[key] = value
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert info.value.problems == [problem]


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (["l"], "3", "l: expected an integer"),
        (["reps", 0, 0, "b"], 5, "reps[0][0]: b must be a list"),
        (["bounds", "degree_bound"], True, "bounds.degree_bound: expected a nonnegative integer"),
        (["bounds", "degree_bound"], 0, "bounds.degree_bound: must be at least 1"),
        (["bounds", "random_cases"], 0, "bounds.random_cases: must be at least 1"),
        (["reps", 0, 0, "lambda"], "0", "reps[0][0].lambda: must be nonzero"),
        (
            ["reps", 0, 0, "b"],
            ["1", "x1", "1"],
            "reps[0][0].b[1]: generators are not allowed in a scalar literal (column 1)",
        ),
        (["reps", 0, 0, "mu"], "zeta^", "reps[0][0].mu: exponent must be an integer (column 6)"),
        (["reps", 0, 0], {"kind": "diag", "lambda": "1", "b": None}, "reps[0][0]: need b or mu"),
        (["eta", 0], "0^-1", "eta[0]: division by zero in the cyclotomic field"),
        (["seed"], True, "seed: expected an integer"),
        (["chi"], [True], "chi: expected a list of integers"),
        (["field"], "rationalfunctioninq", "field/l: unknown field kind 'rationalfunctioninq'"),
        (["d"], -1, "d: must be between 0 and n"),
        (["d"], 3, "d: must be between 0 and n"),
    ],
    ids=[
        "l-string",
        "b-int",
        "bound-bool",
        "degree-bound-zero",
        "random-cases-zero",
        "lambda-zero",
        "b-entry-generator",
        "mu-bad-exponent",
        "b-null-without-mu",
        "eta-division-by-zero",
        "seed-bool",
        "chi-bool",
        "field-alias",
        "d-negative",
        "d-above-n",
    ],
)
def test_config_type_errors_name_their_field(tmp_path, capsys, path, value, problem):
    raw = json.loads((CONFIGS / "n1_l3.json").read_text())
    owner = raw
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert info.value.problems == [problem]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"field": ', "invalid JSON: Expecting value: line 1 column 11 (char 10)"),
        (None, "No such file or directory"),
        ("[1, 2]", "the top level must be a JSON object"),
        (b'{"field": "rational\xff"}', "not UTF-8 text"),
    ],
    ids=["invalid-json", "missing-file", "top-level-list", "not-utf8"],
)
def test_config_file_faults_exit_2_naming_the_file(tmp_path, capsys, text, problem):
    cfg = tmp_path / "bad.json"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text)
    assert main(["eval", "x1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid config {cfg}: {problem}\n"


def test_json_past_the_decoder_limits_is_an_unreadable_config(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    cases = [
        ('{"seed": ' + "7" * (limit + 1) + "}", f"Exceeds the limit ({limit} digits)"),
        ('{"chi": ' + "[" * 100000 + "]" * 100000 + "}", "maximum recursion depth exceeded"),
    ]
    cfg = tmp_path / "bad.json"
    for text, problem in cases:
        cfg.write_text(text)
        assert main(["eval", "x1", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"invalid config {cfg}: invalid JSON: {problem}")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "key, value, need, problem, summary",
    [
        ("normalization", "unscaled", "rescaled",
         "normalization: representations need the rescaled normalization", (5, 12)),
        ("M", [[2, 1], [-1, 1]], "preset",
         "M: representations need the single-parameter preset", (9, 8)),
    ],
    ids=["unscaled", "non-preset-M"],
)
def test_rep_build_refuses_configs_of_other_algebras(
    tmp_path, capsys, key, value, need, problem, summary
):
    from qweylab.checks import CHECKS, NEEDS

    raw = json.loads((CONFIGS / "n2_l3.json").read_text())
    raw[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out_path = tmp_path / "reps.json"
    assert main(["rep", "build", "--config", str(cfg), "--out", str(out_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {problem}\n")
    assert not out_path.exists()
    # verify skips every rep check on these configs before any rep is built
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [(rec["check_id"], rec["status"], rec["detail"]) for rec in report["checks"]] == [
        (cid, "skipped", NEEDS[need][1]) if need in needs else (cid, "pass", "")
        for cid, _, needs, _ in CHECKS
    ]
    assert (report["summary"]["pass"], report["summary"]["skipped"]) == summary
    _ = capsys.readouterr()


def test_cli_eval_and_exit_codes(tmp_path, capsys):
    cfg = str(CONFIGS / "n1_l3.json")
    assert main(["eval", "d1*x1", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "zeta*x1*d1 + (zeta-1)"
    assert main(["eval", "x1^-1", "--config", cfg]) == 2


def test_cli_eval_deep_power(capsys):
    # d1^1500 x1 needs the d-exponent table at s = 1500, past the default
    # recursion limit; d1^750 (d1^750 x1) is the same element, reached
    # through the tables at s = 750
    cfg = str(CONFIGS / "generic_q.json")
    assert main(["eval", "d1^1500*x1", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "q^1500*x1*d1^1500 + (q^1500-1)*d1^1499"
    assert main(["eval", "d1^750*(d1^750*x1)", "--config", cfg]) == 0
    assert capsys.readouterr().out == out


def test_cli_eval_large_q_powers_keep_their_exponent(capsys):
    # a q-power is a valuation, not a padded tuple of its exponent's length
    cfg = str(CONFIGS / "generic_q.json")
    for text, want in [
        ("q^100000000*x1", "q^100000000*x1"),
        ("q^-100000000*x1", "1/q^100000000*x1"),
    ]:
        assert main(["eval", "--config", cfg, "--", text]) == 0
        assert capsys.readouterr().out == want + "\n"
    # the parser and the config are cached by the calls above
    tracemalloc.start()
    try:
        assert main(["eval", "--config", cfg, "--", "q^1000000*x1"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "q^1000000*x1\n"
    assert peak < 256 * 1024


def test_cli_reduce_deep_power_under_low_recursion_limit(capsys):
    # x1^e d1^e = prod_(j<e) (zeta^-j alpha1 - 1), and alpha1 = eta = 2 on
    # n1_l3, so it reduces to ((2-1)(2 zeta^2-1)(2 zeta-1))^(e/3) = 7^(e/3).
    # The alpha tables form a chain of length e; with room for fewer than e
    # more frames, only a bottom-up fill of the chain gets through.
    cfg = str(CONFIGS / "n1_l3.json")
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 400)
    try:
        code = main(["reduce", "x1^390*d1^390", "--config", cfg])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert capsys.readouterr().out.strip() == str(7**130)


def test_cli_verify_report(tmp_path, capsys):
    cfg = str(CONFIGS / "n1_l3.json")
    out_path = tmp_path / "report.json"
    code = main(
        ["verify", "--config", cfg, "--only", "power-identities,delta-power", "--out", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["summary"] == {"pass": 2, "fail": 0, "skipped": 0, "total": 2, "ok": True}
    ids = [rec["check_id"] for rec in report["checks"]]
    assert ids == ["power-identities", "delta-power"]
    _ = capsys.readouterr()


@pytest.mark.parametrize("only", ["", "engine-soundness,,", ",power-identities"])
def test_cli_verify_rejects_an_empty_check_id(tmp_path, capsys, only):
    out_path = tmp_path / "report.json"
    cfg = str(CONFIGS / "n1_l3.json")
    assert main(["verify", "--config", cfg, "--only", only, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --only: empty check id\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["verify", "--only", "cover-degree"], ""),
        (["rep", "build"], ""),
    ],
    ids=["verify", "rep-build"],
)
def test_cli_unwritable_out_path_is_an_error(tmp_path, capsys, argv, stdout):
    # verify tests the path before its first check, so it prints no check line
    out_path = tmp_path / "missing" / "r.json"
    cfg = str(CONFIGS / "n2_l3.json")
    assert main(argv + ["--config", cfg, "--out", str(out_path)]) == 2
    assert capsys.readouterr() == (
        stdout,
        f"error: cannot write {out_path}: No such file or directory\n",
    )
    assert not out_path.parent.exists()


def test_cli_verify_determinism(tmp_path):
    cfg = str(CONFIGS / "n1_l3.json")
    reports = []
    for k in range(2):
        out_path = tmp_path / f"r{k}.json"
        assert main(["verify", "--config", cfg, "--out", str(out_path)]) == 0
        rep = json.loads(out_path.read_text())
        for rec in rep["checks"]:
            rec.pop("elapsed")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_cli_failure_exit_code(tmp_path, capsys):
    # a config whose reps include an off-locus rep with trivial commutant is
    # not constructible from the builders; instead break a check by feeding
    # an incompatible A shape
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "cyclotomic", "l": 2, "n": 1, "d": 0}))
    assert main(["verify", "--config", str(bad)]) == 2
    _ = capsys.readouterr()


def test_cli_offlocus_reps_pass_rep_irreducibility(tmp_path, capsys):
    # off the locus a rep is reducible but may be indecomposable: the rank-1
    # rep with b = (1, 0, 1) has a trivial commutant, and the invariant
    # ker alpha certifies it; the all-zero rep has alpha = 0 and passes
    # through its commutant
    raw = json.loads((CONFIGS / "n1_l3.json").read_text())
    raw["reps"] = [
        [{"kind": "diag", "lambda": "1", "b": ["1", "0", "1"]}],
        [{"kind": "diag", "lambda": "1", "b": ["0", "0", "0"]}],
    ]
    cfg = tmp_path / "offlocus.json"
    cfg.write_text(json.dumps(raw))
    out_path = tmp_path / "report.json"
    only = "rep-build,rep-irreducibility"
    code = main(
        ["verify", "--config", str(cfg), "--only", only, "--verbose", "--out", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    records = [(rec["check_id"], rec["status"]) for rec in report["checks"]]
    assert records == [("rep-build", "pass"), ("rep-irreducibility", "pass")]
    assert report["checks"][0]["detail"] == "dim 3, azumaya=no; dim 3, azumaya=no"
    _ = capsys.readouterr()


def test_unexpected_exception_is_an_error_record(tmp_path, capsys, monkeypatch):
    from qweylab import checks

    def broken(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(
        checks,
        "CHECKS",
        [
            (cid, law, needs, broken if cid == "power-identities" else run)
            for cid, law, needs, run in checks.CHECKS
        ],
    )
    out_path = tmp_path / "report.json"
    cfg = str(CONFIGS / "n1_l3.json")
    only = "power-identities,delta-power"
    assert main(["verify", "--config", cfg, "--only", only, "--out", str(out_path)]) == 1
    report = json.loads(out_path.read_text())
    records = [(rec["check_id"], rec["status"], rec["detail"]) for rec in report["checks"]]
    assert records == [
        ("power-identities", "error", "RuntimeError: boom"),
        ("delta-power", "pass", ""),
    ]
    assert report["summary"] == {"pass": 1, "fail": 1, "skipped": 0, "total": 2, "ok": False}
    assert "error   power-identities  [RuntimeError: boom]" in capsys.readouterr().out


def test_cli_bundled_n2_config(tmp_path, capsys):
    cfg = str(CONFIGS / "n2_l3.json")
    out_path = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["ok"]
    assert report["summary"]["fail"] == 0
    _ = capsys.readouterr()


def test_cli_entrypoint_subprocess():
    cfg = str(CONFIGS / "n1_l3.json")
    proc = subprocess.run(
        [sys.executable, "-m", "qweylab.cli", "eval", "x1*x1", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x1^2"


def cold_verify(args, stdout=subprocess.PIPE):
    """(exit code, stdout, stderr, imported modules) of a cold
    ``python -m qweylab.cli verify`` process; the modules are read from
    its ``-X importtime`` lines, which are cut from its stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qweylab.cli", "verify", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")},
    )
    lines = proc.stderr.splitlines(keepends=True)
    modules = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    err = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, err, modules


def test_cold_verify_process_answers_without_argparse(tmp_path, capsys):
    # exit 0 with a report, 1 on a failing check and 2 on a config error or
    # a closed stdout, each with the stdout and stderr of an in-process call
    raw = json.loads((CONFIGS / "n2_l3.json").read_text())
    raw["reps"][0][0]["b"] = ["0", "0", "0"]
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps(raw))
    n2_l3 = ["--config", str(CONFIGS / "n2_l3.json")]
    cases = [
        (n2_l3 + ["--out", str(tmp_path / "cold.json")], 0),
        (["--config", str(singular), "--only", "rep-build,cover-degree"], 1),
        (["--config", str(tmp_path / "missing.json")], 2),
    ]
    for args, code in cases:
        cold_code, out, err, modules = cold_verify(args)
        assert cold_code == code, err
        assert not modules & {"argparse", "gettext", "locale"}
        assert "qweylab.checks" in modules
        warm_args = [str(tmp_path / "warm.json") if a.endswith("cold.json") else a for a in args]
        assert main(["verify", *warm_args]) == code
        assert capsys.readouterr() == (out, err)
    reports = []
    for name in ("cold.json", "warm.json"):
        report = json.loads((tmp_path / name).read_text())
        for rec in report["checks"]:
            rec.pop("elapsed")
        reports.append(report)
    assert reports[0] == reports[1] and reports[0]["summary"]["pass"] == 17
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err, modules = cold_verify(n2_l3 + ["--only", "cover-degree"], stdout=write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (2, "error: cannot write stdout: Broken pipe\n")
    assert not modules & {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv",
    [["eval", "x1*d1"], ["verify", "--only", "cover-degree"]],
    ids=["eval", "verify"],
)
def test_cli_closed_stdout_is_an_output_error(argv):
    cfg = str(CONFIGS / "n2_l3.json")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qweylab.cli", *argv, "--config", cfg],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"
    assert "Traceback" not in proc.stderr
