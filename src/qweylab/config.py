"""Workbench configuration: JSON schema, validation, and object resolution.

A config file fixes the coefficient field, the algebra (n, M, normalization),
the subtorus embedding A with target point eta, representation builder
descriptors, bounds for the bounded checks, and the random seed.  Validation
collects every problem (with a field path) before aborting.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import ExprError, ParameterError, ZeroDivisorError
from .expr import parse_scalar
from .moment import ReductionDatum, TorusData
from .qweyl import AlgebraSpec
from .records import Record
from .rootofunity import MatrixRep, build_irrep, build_irrep_nilpotent, build_irrep_rank1
from .scalars import CyclotomicField, Field, Scalar, make_field

DEFAULT_BOUNDS = {
    "degree_bound": 3,
    "exponent_bound": 4,
    "random_cases": 100,
    "enumeration_cap": 10000,
}
# the bounds at 0 would leave their checks nothing to check
NONZERO_BOUNDS = ("degree_bound", "random_cases")
# the top-level keys of the schema; any other key is a problem
KNOWN_KEYS = frozenset("field l n d M normalization A eta chi reps bounds seed".split())
# the keys of a rep slot descriptor of each kind
SLOT_KEYS = {"nilpotent": ("kind",), "diag": ("kind", "lambda", "b", "mu")}


class WorkbenchConfig(Record):
    _fields = ("field", "spec", "torus", "eta", "rep_slots", "bounds", "seed")

    def __init__(
        self,
        field: Field,
        spec: AlgebraSpec,
        torus: TorusData,
        eta: tuple[Scalar, ...],
        rep_slots: list,
        bounds: dict,
        seed: int,
        _raw: dict | None = None,
        _text: str | None = None,
    ):
        self.field = field
        self.spec = spec
        self.torus = torus
        self.eta = eta
        # per configured rep, its slots: None for a nilpotent slot, (lambda, b)
        # for a diag slot
        self.rep_slots = rep_slots
        self.bounds = bounds
        self.seed = seed
        # not compared: the JSON object `raw` returns, or None until it
        # decodes `_text`; the file text; the reps `build_reps` built
        self._raw = _raw
        self._text = _text
        self._reps = None

    @property
    def raw(self) -> dict:
        """The config's JSON object.  A loaded config decodes its file text
        when this is first read, into an object of its own."""
        if self._raw is None:
            self._raw = json.loads(self._text)
        return self._raw

    def datum(self) -> ReductionDatum:
        return ReductionDatum(self.torus, self.eta)

    def build_reps(self) -> list[MatrixRep]:
        """Build (and thereby certify) every configured representation.

        The reps are built once per config and shared by later calls.  A build
        that raises keeps nothing, so every later call raises the same error.
        The builders follow the rescaled single-parameter conventions, so a
        config of another algebra is a ParameterError naming its field.
        """
        if not self.spec.rescaled:
            raise ParameterError("normalization: representations need the rescaled normalization")
        if not self.spec.is_single_parameter:
            raise ParameterError("M: representations need the single-parameter preset")
        if self._reps is None:
            self._reps = [self._build_rep(slots) for slots in self.rep_slots]
        return list(self._reps)

    def _build_rep(self, slots) -> MatrixRep:
        l = self.field.l
        built = [
            build_irrep_nilpotent(l, self.field) if slot is None else build_irrep_rank1(*slot, l)
            for slot in slots
        ]
        return build_irrep(built, l)


class ConfigError(ParameterError):
    """Raised with the full list of validation problems, one indented line
    each, after the config file's path when there is one.  A file that
    cannot be read as a JSON object is one problem, reported on one line
    with the file's path (``unreadable``)."""

    def __init__(self, problems: list[str], path=None, unreadable: bool = False):
        self.problems = problems
        self.unreadable = unreadable
        where = "" if path is None else f" {path}"
        if unreadable:
            message = f"invalid config{where}: " + "; ".join(problems)
        else:
            message = f"invalid config{where}:\n  " + "\n  ".join(problems)
        super().__init__(message)


def _is_int(value) -> bool:
    """True for a JSON integer; JSON true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer_rows_problems(key: str, rows) -> list[str]:
    """Problems of a value that must be a list of rows of JSON integers."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        return [f"{key}: expected a list of integer rows"]
    return [
        f"{key}[{i}][{j}]: expected an integer"
        for i, row in enumerate(rows)
        for j, c in enumerate(row)
        if not _is_int(c)
    ]


def _parse_literal(value, field: Field, path: str, problems: list[str]) -> Scalar | None:
    """The scalar a config literal denotes, or None with its problem recorded."""
    try:
        return parse_scalar(str(value), field)
    except (ExprError, ZeroDivisorError) as exc:
        problems.append(f"{path}: {exc}")
        return None


def _parse_slot(slot, field: CyclotomicField | None, path: str, problems: list[str]):
    """A rep slot descriptor as None (nilpotent) or (lambda, b) (diag), with
    its problems recorded.  Without a cyclotomic field only its keys are
    checked.  The value returned after a problem is meaningless."""
    if not isinstance(slot, dict) or slot.get("kind") not in SLOT_KEYS:
        problems.append(f"{path}: kind must be 'diag' or 'nilpotent'")
        return None
    keys = SLOT_KEYS[slot["kind"]]
    problems.extend(f"{path}.{key}: unknown key" for key in slot if key not in keys)
    if slot["kind"] == "nilpotent":
        return None
    blist = slot.get("b")
    if "lambda" not in slot:
        problems.append(f"{path}: missing lambda")
    if blist is None and "mu" not in slot:
        problems.append(f"{path}: need b or mu")
    if "b" in slot and "mu" in slot:
        problems.append(f"{path}: give b or mu, not both")
    if field is None:
        return None
    lam = None
    if "lambda" in slot:
        lam = _parse_literal(slot["lambda"], field, f"{path}.lambda", problems)
        if lam is not None and lam.is_zero():
            problems.append(f"{path}.lambda: must be nonzero")
            lam = None
    if blist is None:
        mu = _parse_literal(slot["mu"], field, f"{path}.mu", problems) if "mu" in slot else None
        if lam is None or mu is None:
            return None
        return lam, [mu / (lam * field.zeta_power(m)) for m in range(field.l)]
    if not isinstance(blist, list):
        problems.append(f"{path}: b must be a list")
        return None
    if len(blist) != field.l:
        problems.append(f"{path}: b must have length l")
    return lam, [_parse_literal(v, field, f"{path}.b[{k}]", problems) for k, v in enumerate(blist)]


def load_config(path: str) -> WorkbenchConfig:
    """The config in the file at path, read on every call.

    Each distinct file text is decoded, validated and resolved once (see
    `_config_of_text`), so an edited file is parsed again and a text seen
    before costs no JSON decoding.  Each call returns a config of its own:
    its `bounds` and `rep_slots` are new objects, its reps are built on first
    use, and its `raw` is decoded from the text when it is first read (by
    the verify report); only the immutable field, spec, torus, eta and slot
    scalars are shared between calls."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ConfigError([exc.strerror or type(exc).__name__], path, unreadable=True) from None
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise ConfigError(["not UTF-8 text"], path, unreadable=True) from None
    try:
        shared = _config_of_text(text)
    except ConfigError as exc:
        raise ConfigError(exc.problems, path, exc.unreadable) from None
    rep_slots = [
        [slot if slot is None else (slot[0], list(slot[1])) for slot in slots]
        for slots in shared.rep_slots
    ]
    return WorkbenchConfig(
        shared.field, shared.spec, shared.torus, shared.eta, rep_slots,
        dict(shared.bounds), shared.seed, _text=text,
    )


@lru_cache(maxsize=16)
def _config_of_text(text: str) -> WorkbenchConfig:
    """The config a file text holds, decoded and validated: the one place a
    config text is parsed.  Shared by every load of that text, so never
    handed out.  A text that is not a JSON object raises an `unreadable`
    ConfigError."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer past the int-to-str digit limit, or
        # arrays or objects nested past the interpreter's recursion limit
        raise ConfigError([f"invalid JSON: {exc}"], unreadable=True) from None
    if not isinstance(raw, dict):
        raise ConfigError(["the top level must be a JSON object"], unreadable=True)
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
    if l is not None and not _is_int(l):
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
    if d is not None and (d < 0 or (n is not None and d > n)):
        # the A and eta checks read d, so they are skipped
        problems.append("d: must be between 0 and n")
        d = None
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
    elif n is not None and d is not None and not a_problems:
        rows = [[]] * n if a_raw is None else a_raw
        if len(rows) != n or any(len(row) != d for row in rows):
            problems.append("A: shape does not match n x d")
        else:
            try:
                torus = TorusData(n, d, tuple(map(tuple, rows)))
            except ParameterError as exc:
                problems.append(f"A: {exc}")

    eta_literals = raw.get("eta")
    if eta_literals is None:
        eta_literals = [str(j + 2) for j in range(d or 0)]
    if not isinstance(eta_literals, list) or (d is not None and len(eta_literals) != d):
        problems.append("eta: expected a list of d scalar literals")
        eta_literals = [str(j + 2) for j in range(d or 0)]
    eta = []
    if field_obj is not None:
        for idx, lit in enumerate(eta_literals):
            val = _parse_literal(lit, field_obj, f"eta[{idx}]", problems)
            if val is not None and val.is_zero():
                problems.append(f"eta[{idx}]: must be nonzero")
            eta.append(val)

    rep_slots = []
    reps_raw = raw.get("reps", [])
    if not isinstance(reps_raw, list):
        problems.append("reps: expected a list")
    else:
        cyclotomic = field_obj if isinstance(field_obj, CyclotomicField) else None
        for ridx, slots in enumerate(reps_raw):
            if not isinstance(slots, list) or (n is not None and len(slots) != n):
                problems.append(f"reps[{ridx}]: expected a list of n slot descriptors")
                continue
            rep_slots.append(
                [
                    _parse_slot(slot, cyclotomic, f"reps[{ridx}][{sidx}]", problems)
                    for sidx, slot in enumerate(slots)
                ]
            )
        if reps_raw and field_obj is not None and cyclotomic is None:
            problems.append("reps: need a cyclotomic field")

    bounds = dict(DEFAULT_BOUNDS)
    braw = raw.get("bounds", {})
    if not isinstance(braw, dict):
        problems.append("bounds: expected an object")
    else:
        for key, val in braw.items():
            if key not in DEFAULT_BOUNDS:
                problems.append(f"bounds.{key}: unknown bound")
            elif not _is_int(val) or val < 0:
                problems.append(f"bounds.{key}: expected a nonnegative integer")
            elif val < 1 and key in NONZERO_BOUNDS:
                problems.append(f"bounds.{key}: must be at least 1")
            else:
                bounds[key] = val

    seed = raw.get("seed", 0)
    if not _is_int(seed):
        problems.append("seed: expected an integer")

    # character data: validated and echoed in the report, used by no check
    chi = raw.get("chi", [])
    if not isinstance(chi, list) or not all(_is_int(c) for c in chi):
        problems.append("chi: expected a list of integers")

    problems.extend(f"{key}: unknown key" for key in raw if key not in KNOWN_KEYS)
    if problems:
        raise ConfigError(problems)
    return WorkbenchConfig(
        field=field_obj,
        spec=spec,
        torus=torus,
        eta=tuple(eta),
        rep_slots=rep_slots,
        bounds=bounds,
        seed=seed,
        _raw=raw,
    )
