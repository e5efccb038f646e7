"""Correctness checks of the outputs the benchmark timed.  They run after
the timed work, in the benchmark's own process, through the public API of
the checkout's `qweylab` (its `src` must be on sys.path)."""

from __future__ import annotations

import json
from pathlib import Path

from qweylab.config import load_config
from qweylab.errors import QWeylError
from qweylab.expr import parse_expression
from qweylab.moment import moment_ideal_reduce
from qweylab.qweyl import LocalizedElement, PBWElement
from qweylab.scalars import Scalar, specialize_at_root


def check_verify_report(report: Path, code: int, expected: dict) -> tuple[int, int, list[str]]:
    """Compare one verify report's verdicts with the expected ones.

    Returns (attempted, failed, problems).  Attempted counts the checks that
    are expected to run (skipped ones are not attempted); every check whose
    verdict differs from the expected one counts as failed."""
    attempted = sum(1 for status in expected.values() if status != "skipped")
    try:
        records = json.loads(report.read_text())["checks"]
    except (OSError, ValueError, KeyError) as exc:
        return attempted, attempted, [f"no readable report ({exc})"]
    got = {rec["check_id"]: rec["status"] for rec in records}
    problems = [
        f"{cid}: {got.get(cid, 'missing')}, expected {want}"
        for cid, want in expected.items()
        if got.get(cid) != want
    ]
    problems += [f"{cid}: unexpected check in report" for cid in got if cid not in expected]
    if code != 0 and not problems:
        problems.append(f"exit code {code}")
    return attempted, min(len(problems), attempted), problems


class SessionChecker:
    """Checks `eval` and `reduce` outputs of the expression session.

    * `eval`: the printed result is parsed back in its own config; the Q(q)
      value, specialized at q = zeta_3, must equal the n2_l3 value of the same
      expression (Euler-operator denominators are kept, numerators specialized
      coefficient by coefficient).
    * `reduce`: the printed canonical form must equal the reduction computed
      in the reverse elimination order (`coord_order`).
    """

    def __init__(self, configs: dict):
        self.by_path = {str(p): load_config(str(p)) for p in configs.values()}
        loaded = self.by_path.values()
        self.generic = next(c for c in loaded if c.field.kind == "rational_function_q")
        self.cyclo = next(c for c in loaded if c.field.kind == "cyclotomic")

    def check(self, command: str, expression: str, config_path: str, output: str) -> str | None:
        """None when the output is right, else a one-line description."""
        try:
            if command == "reduce":
                return self._check_reduce(expression, self.by_path[config_path], output)
            return self._check_eval(expression, self.by_path[config_path], output)
        except QWeylError as exc:
            return f"{command} {expression!r}: checker error {type(exc).__name__}: {exc}"

    def _check_reduce(self, expression, config, output):
        value = parse_expression(expression, config.spec)
        if isinstance(value, Scalar):
            value = config.spec.scalar_element(value)
        reverse = range(config.spec.n - 1, -1, -1)
        want = str(moment_ideal_reduce(value, config.datum(), coord_order=reverse))
        return None if output == want else f"reduce {expression!r}: {output!r} != {want!r}"

    def _check_eval(self, expression, config, output):
        printed = parse_expression(output, config.spec)
        if config is self.generic:
            generic = printed
            cyclo = parse_expression(expression, self.cyclo.spec)
        else:
            generic = parse_expression(expression, self.generic.spec)
            cyclo = printed
        special = _specialize(_localized(generic, self.generic.spec), self.cyclo.spec)
        if special.equals(_localized(cyclo, self.cyclo.spec)):
            return None
        return f"eval {expression!r}: specialization at zeta_3 differs from n2_l3"


def _localized(value, spec):
    if isinstance(value, Scalar):
        value = spec.scalar_element(value)
    if isinstance(value, PBWElement):
        value = LocalizedElement.from_pbw(value)
    return value


def _specialize(value, spec):
    terms = {k: specialize_at_root(c, spec.field) for k, c in value.numerator.terms.items()}
    return LocalizedElement(PBWElement(spec, terms), value.denom)
