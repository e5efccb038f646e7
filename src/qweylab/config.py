"""Workbench configuration: JSON schema, validation, and object resolution.

A config file fixes the coefficient field, the algebra (n, M, normalization),
the subtorus embedding A with target point eta, representation builder
descriptors, bounds for the bounded checks, and the random seed.  Validation
collects every problem (with a field path) before aborting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

from .errors import ExprError, ParameterError
from .expr import parse_scalar
from .moment import ReductionDatum, TorusData
from .qweyl import AlgebraSpec
from .rootofunity import MatrixRep, build_irrep, build_irrep_nilpotent, build_irrep_rank1
from .scalars import CyclotomicField, Field, make_field

DEFAULT_BOUNDS = {
    "degree_bound": 3,
    "exponent_bound": 4,
    "random_cases": 100,
    "enumeration_cap": 10000,
}


@dataclass
class WorkbenchConfig:
    field: Field
    spec: AlgebraSpec
    torus: TorusData
    eta_literals: list[str]
    reps_raw: list
    bounds: dict
    seed: int
    raw: dict
    _reps: list | None = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )

    def datum(self) -> ReductionDatum:
        eta = tuple(parse_scalar(lit, self.field) for lit in self.eta_literals)
        return ReductionDatum(self.torus, eta)

    def build_reps(self) -> list[MatrixRep]:
        """Build (and thereby fully verify) every configured representation.

        The reps are built once per config and shared by later calls.  A build
        that raises keeps nothing, so every later call raises the same error.
        """
        if self._reps is None:
            self._reps = [self._build_rep(slots_raw) for slots_raw in self.reps_raw]
        return list(self._reps)

    def _build_rep(self, slots_raw) -> MatrixRep:
        f = self.field
        if not isinstance(f, CyclotomicField):
            raise ParameterError("representations need a cyclotomic field")
        l = f.l
        slots = []
        for slot in slots_raw:
            kind = slot.get("kind")
            if kind == "nilpotent":
                slots.append(build_irrep_nilpotent(l, f))
                continue
            lam = parse_scalar(str(slot["lambda"]), f)
            if "b" in slot and slot["b"] is not None:
                b = [parse_scalar(str(v), f) for v in slot["b"]]
            else:
                mu = parse_scalar(str(slot["mu"]), f)
                b = [mu / (lam * f.zeta_power(m)) for m in range(l)]
            slots.append(build_irrep_rank1(lam, b, l))
        if len(slots) == 1:
            return slots[0]
        return build_irrep(slots, l)


class ConfigError(ParameterError):
    """Raised with the full list of validation problems."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid config:\n  " + "\n  ".join(problems))


def _integer_rows_problems(key: str, rows) -> list[str]:
    """Problems of a value that must be a list of rows of JSON integers."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        return [f"{key}: expected a list of integer rows"]
    return [
        f"{key}[{i}][{j}]: expected an integer"
        for i, row in enumerate(rows)
        for j, c in enumerate(row)
        if not isinstance(c, int) or isinstance(c, bool)
    ]


def load_config(path: str) -> WorkbenchConfig:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return parse_config(raw)


def parse_config(raw: dict) -> WorkbenchConfig:
    problems: list[str] = []

    def need(key, typ, default=None):
        if key not in raw:
            if default is not None:
                return default
            problems.append(f"{key}: missing")
            return None
        val = raw[key]
        if typ is int and isinstance(val, bool):
            problems.append(f"{key}: expected an integer")
            return None
        if not isinstance(val, typ):
            problems.append(f"{key}: expected {typ.__name__}")
            return None
        return val

    kind = need("field", str)
    l = raw.get("l")
    field_obj = None
    if l is not None and (not isinstance(l, int) or isinstance(l, bool)):
        problems.append("l: expected an integer")
    elif kind is not None:
        try:
            field_obj = make_field(kind, l)
        except ParameterError as exc:
            problems.append(f"field/l: {exc}")
    n = need("n", int)
    if n is not None and n < 1:
        problems.append("n: must be >= 1")
        n = None
    d = need("d", int, default=0)
    normalization = raw.get("normalization", "rescaled")
    if normalization not in ("rescaled", "unscaled"):
        problems.append("normalization: must be 'rescaled' or 'unscaled'")
        normalization = "rescaled"

    spec = None
    m_raw = raw.get("M", "single_parameter")
    m_problems = [] if m_raw == "single_parameter" else _integer_rows_problems("M", m_raw)
    problems.extend(m_problems)
    if field_obj is not None and n is not None and not m_problems:
        try:
            if m_raw == "single_parameter":
                spec = AlgebraSpec.single_parameter(
                    n, field_obj, normalization == "rescaled"
                )
            else:
                spec = AlgebraSpec.from_rows(m_raw, field_obj, normalization == "rescaled")
                if spec.n != n:
                    problems.append("M: size does not match n")
                    spec = None
        except (ParameterError, TypeError) as exc:
            problems.append(f"M: {exc}")

    torus = None
    a_raw = raw.get("A")
    a_problems = [] if a_raw is None else _integer_rows_problems("A", a_raw)
    problems.extend(a_problems)
    if d and a_raw is None:
        problems.append("A: missing (required when d > 0)")
    if n is not None and d is not None and not a_problems:
        try:
            if d == 0:
                torus = TorusData(n, 0, tuple(() for _ in range(n)))
            elif a_raw is not None:
                torus = TorusData.from_rows(a_raw)
                if torus.n != n or torus.d != d:
                    problems.append("A: shape does not match n x d")
                    torus = None
        except (ParameterError, TypeError) as exc:
            problems.append(f"A: {exc}")

    eta_literals = raw.get("eta")
    if eta_literals is None:
        eta_literals = [str(j + 2) for j in range(d or 0)]
    if not isinstance(eta_literals, list) or (d is not None and len(eta_literals) != d):
        problems.append("eta: expected a list of d scalar literals")
        eta_literals = [str(j + 2) for j in range(d or 0)]
    if field_obj is not None:
        for idx, lit in enumerate(eta_literals):
            try:
                val = parse_scalar(str(lit), field_obj)
                if val.is_zero():
                    problems.append(f"eta[{idx}]: must be nonzero")
            except ExprError as exc:
                problems.append(f"eta[{idx}]: {exc}")

    reps_raw = raw.get("reps", [])
    if not isinstance(reps_raw, list):
        problems.append("reps: expected a list")
        reps_raw = []
    else:
        for ridx, slots in enumerate(reps_raw):
            if not isinstance(slots, list) or (n is not None and len(slots) != n):
                problems.append(f"reps[{ridx}]: expected a list of n slot descriptors")
                continue
            for sidx, slot in enumerate(slots):
                if not isinstance(slot, dict) or slot.get("kind") not in ("diag", "nilpotent"):
                    problems.append(
                        f"reps[{ridx}][{sidx}]: kind must be 'diag' or 'nilpotent'"
                    )
                elif slot["kind"] == "diag":
                    if "lambda" not in slot:
                        problems.append(f"reps[{ridx}][{sidx}]: missing lambda")
                    if "b" not in slot and "mu" not in slot:
                        problems.append(f"reps[{ridx}][{sidx}]: need b or mu")
                    if field_obj is not None and isinstance(field_obj, CyclotomicField):
                        blist = slot.get("b")
                        if blist is not None and not isinstance(blist, list):
                            problems.append(f"reps[{ridx}][{sidx}]: b must be a list")
                        elif blist is not None and len(blist) != field_obj.l:
                            problems.append(
                                f"reps[{ridx}][{sidx}]: b must have length l"
                            )
        if reps_raw and field_obj is not None and not isinstance(field_obj, CyclotomicField):
            problems.append("reps: need a cyclotomic field")

    bounds = dict(DEFAULT_BOUNDS)
    braw = raw.get("bounds", {})
    if not isinstance(braw, dict):
        problems.append("bounds: expected an object")
    else:
        for key, val in braw.items():
            if key not in DEFAULT_BOUNDS:
                problems.append(f"bounds.{key}: unknown bound")
            elif not isinstance(val, int) or isinstance(val, bool) or val < 0:
                problems.append(f"bounds.{key}: expected a nonnegative integer")
            else:
                bounds[key] = val

    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        problems.append("seed: expected an integer")
        seed = 0

    # character data: validated and echoed in the report, used by no check
    chi = raw.get("chi", [])
    if not isinstance(chi, list) or not all(isinstance(c, int) for c in chi):
        problems.append("chi: expected a list of integers")

    if problems:
        raise ConfigError(problems)
    return WorkbenchConfig(
        field=field_obj,
        spec=spec,
        torus=torus,
        eta_literals=[str(x) for x in eta_literals],
        reps_raw=reps_raw,
        bounds=bounds,
        seed=seed,
        raw=raw,
    )
