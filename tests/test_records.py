"""The package's records: plain classes with the constructors, equality,
hashing and immutability the rest of the package relies on, defined
without importing ``dataclasses``."""

import copy
import subprocess
import sys
from pathlib import Path

import pytest

from qweylab.config import WorkbenchConfig, load_config
from qweylab.moment import ReductionDatum, TorusData
from qweylab.qweyl import AlgebraSpec, CheckOutcome
from qweylab.reduction import ReducedAlgebraResult, RestrictionKernelReport, WeightSpaceResult
from qweylab.rootofunity import CentralCharacter, MatrixRep, build_irrep_rank1
from qweylab.scalars import make_field

ROOT = Path(__file__).resolve().parent.parent
Z3 = make_field("cyclotomic", 3)
FROZEN = {AlgebraSpec, TorusData, ReductionDatum, CentralCharacter, MatrixRep}


def records():
    """(class, its compared fields in constructor order, with valid values)
    for each of the ten records."""
    torus = TorusData(1, 1, ((1,),))
    rep = build_irrep_rank1(Z3.one, [Z3.one] * 3, 3)
    config = load_config(str(ROOT / "configs" / "n1_l3.json"))
    return [
        (AlgebraSpec, dict(n=1, m=((1,),), rescaled=True, field=Z3)),
        (CheckOutcome, dict(passed=False, cases=2, failures=["x1 x1"])),
        (TorusData, dict(n=1, d=1, a=((1,),))),
        (ReductionDatum, dict(torus=torus, eta=(Z3.from_int(2),))),
        (WeightSpaceResult, dict(basis=[{0: Z3.one}], eta=(Z3.one,), moment_ops=[])),
        (
            RestrictionKernelReport,
            dict(dim_ideal=6, dim_expected=6, passed=True, weight_dim=1),
        ),
        (ReducedAlgebraResult, dict(dimension=1, weight_dim=1, iso_verified=True)),
        (CentralCharacter, dict(a=(Z3.one,), omega=(Z3.zero,))),
        (
            MatrixRep,
            dict(spec=rep.spec, l=3, dim=3, xs=rep.xs, ys=rep.ys, character=rep.character),
        ),
        (
            WorkbenchConfig,
            dict(
                field=config.field,
                spec=config.spec,
                torus=config.torus,
                eta=config.eta,
                rep_slots=config.rep_slots,
                bounds=config.bounds,
                seed=config.seed,
            ),
        ),
    ]


RECORDS = records()
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in fields} == fields
    assert by_position == by_keyword and not by_position != by_keyword


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_compared_fields(cls, fields):
    record = cls(**fields)
    if cls is MatrixRep:
        # a frozen record hashes its compared fields, and a Mat has no hash
        with pytest.raises(TypeError, match="unhashable type: 'Mat'"):
            hash(record)
    elif cls in FROZEN:
        assert hash(record) == hash(cls(**fields)) == hash(tuple(fields.values()))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    # a record of another class with the same attributes is not equal
    other_class = type("Other", (), {})()
    vars(other_class).update(vars(record))
    assert record != other_class and other_class != record
    for name in fields:
        changed = copy.copy(record)
        vars(changed)[name] = object()
        assert record != changed, name


def test_uncompared_fields_are_left_out():
    rep = build_irrep_rank1(Z3.one, [Z3.one] * 3, 3)
    twin = MatrixRep(rep.spec, rep.l, rep.dim, rep.xs, rep.ys, rep.character)
    rep.alpha_matrices()
    assert rep.cache and not twin.cache
    assert rep == twin

    path = str(ROOT / "configs" / "n1_l3.json")
    loaded, other = load_config(path), load_config(path)
    assert loaded.raw is not None and other._raw is None
    loaded.build_reps()
    assert loaded._reps is not None and other._reps is None
    bare = WorkbenchConfig(
        other.field, other.spec, other.torus, other.eta, other.rep_slots, other.bounds, other.seed
    )
    assert bare._raw is None and bare._text is None and bare._reps is None
    assert loaded == other == bare


def test_each_instance_gets_its_own_list_and_dict():
    first, second = CheckOutcome(), CheckOutcome()
    assert (first.passed, first.cases, first.failures) == (True, 0, [])
    first.record(False, "broken")
    assert second.failures == [] and second.passed
    rep = build_irrep_rank1(Z3.one, [Z3.one] * 3, 3)
    fields = (rep.spec, rep.l, rep.dim, rep.xs, rep.ys, rep.character)
    assert MatrixRep(*fields).cache is not MatrixRep(*fields).cache


@pytest.mark.parametrize(
    "cls, fields", [(cls, fields) for cls, fields in RECORDS if cls in FROZEN],
    ids=[cls.__name__ for cls, _ in RECORDS if cls in FROZEN],
)
def test_frozen_records_refuse_assignment_and_deletion(cls, fields):
    record = cls(**fields)
    for name in list(fields) + (["cache"] if cls is MatrixRep else []):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_unscaled_twin_and_hnf_are_computed_once():
    spec = AlgebraSpec.single_parameter(2, Z3)
    twin = spec.unscaled_twin()
    assert twin is spec.unscaled_twin() and not twin.rescaled
    assert twin.unscaled_twin() is twin
    torus = TorusData(2, 1, ((1,), (1,)))
    assert torus.hnf is torus.hnf


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses and the modules it loads made up most of `import qweylab`
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qweylab.cli; "
        "print(sorted(set(sys.argv[2:]) & set(sys.modules)))"
    )
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"), *heavy],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
