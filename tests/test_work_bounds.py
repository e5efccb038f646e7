"""Bounds on the work done, by counting calls of the layer functions.

Each count is fixed by the algorithm, so an algorithmic regression fails here
on any machine, however fast.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from qweylab import checks, config, exactla, hopf, moment, qweyl, reduction, rootofunity, scalars
from qweylab.checks import run_verification_suite
from qweylab.config import load_config, parse_config
from qweylab.moment import ReducedElement, invariant_monomials, moment_ideal_reduce, reduced_product
from qweylab.qweyl import AlgebraSpec, PBWElement
from qweylab.scalars import Scalar, make_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N2_L3 = CONFIGS / "n2_l3.json"
N3_L5 = Path(__file__).resolve().parent / "configs" / "n3_l5.json"
VERIFY_QQ = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "verify_qq.json"
Z3 = make_field("cyclotomic", 3)
REP_CHECKS = [
    "rep-build",
    "rep-irreducibility",
    "fiber-weights",
    "fiber-restriction",
    "fiber-reduced-endos",
]


def counting(monkeypatch, owner, name, log):
    """Replace owner.name by a wrapper that appends its arguments to log."""
    original = getattr(owner, name)

    def wrapper(*args):
        log.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)


def test_mat_pow_skips_the_last_squaring(monkeypatch):
    a = exactla.matrix(2, 2, Z3, {(0, 0): Z3.one, (0, 1): Z3.zeta, (1, 1): Z3.from_int(2)})
    calls = []
    counting(monkeypatch, exactla, "mat_mul", calls)
    got = exactla.mat_pow(a, 5)
    assert len(calls) == 4
    want = a
    for _ in range(4):
        want = exactla.mat_mul(want, a)
    assert got == want


@pytest.mark.parametrize(
    "make, cls",
    [
        (lambda: Z3.zeta + 2, Scalar),
        (lambda: AlgebraSpec.single_parameter(1, Z3).x(1) + 1, PBWElement),
    ],
)
def test_pow_skips_the_last_squaring(monkeypatch, make, cls):
    u = make()
    want = u * u * u * u * u
    calls = []
    counting(monkeypatch, cls, "__mul__", calls)
    assert u**5 == want
    assert len(calls) == 4


def test_verify_run_shares_reps_and_derived_data(monkeypatch):
    builds, moment_ops, kernels, ranks = [], [], [], []
    counting(monkeypatch, config, "build_irrep", builds)

    def logged_rank(rows, field):
        ranks.append(exactla.modular_rank(rows, field))
        return ranks[-1]

    monkeypatch.setattr(rootofunity, "modular_rank", logged_rank)
    counting(monkeypatch, reduction, "moment_operators", moment_ops)
    for module in (exactla, rootofunity):
        counting(monkeypatch, module, "sparse_kernel", kernels)
    # the sizes of the kernels solved inside fiber-reduced-endos
    reduced_endos_sizes = []

    def marked(fn):
        def run(cfg):
            start = len(kernels)
            try:
                return fn(cfg)
            finally:
                reduced_endos_sizes.extend(args[1] for args in kernels[start:])

        return run

    monkeypatch.setattr(
        checks,
        "CHECKS",
        [
            (cid, law, marked(fn) if cid == "fiber-reduced-endos" else fn)
            for cid, law, fn in checks.CHECKS
        ],
    )
    report = run_verification_suite(load_config(str(N2_L3)))
    assert report["summary"]["ok"] and report["summary"]["pass"] == 17
    assert len(builds) == 2
    per_rep = Counter(id(args[0]) for args in moment_ops)
    assert len(per_rep) == 2 and set(per_rep.values()) == {1}
    # both configured reps (dim 9) lie on the locus: each 81-unknown commutant
    # system is certified once by its rank 80 mod p, and none is solved exactly
    assert ranks.count(80) == 2
    assert not any(args[1] == 81 for args in kernels)
    assert max(reduced_endos_sizes, default=0) <= 81


def test_n3_l5_reps_and_commutants_stay_sparse(monkeypatch):
    # dense rep matrices and exact commutant kernels took 1,342,122 scalar
    # multiplications here; sparse products and the commutant certified mod p
    # take 31,884
    calls = []
    counting(monkeypatch, Scalar, "__mul__", calls)
    reps = load_config(str(N3_L5)).build_reps()
    assert [rep.dim for rep in reps] == [125, 125]
    assert [rootofunity.commutant_dimension(rep) for rep in reps] == [1, 1]
    assert len(calls) < 100_000


def test_weight_space_is_computed_once_per_point(monkeypatch):
    kernels = []
    counting(monkeypatch, reduction, "matrix_kernel", kernels)
    report = run_verification_suite(load_config(str(N2_L3)))
    assert report["summary"]["ok"]
    # two reps, three eta values each; fiber-weights, fiber-restriction and
    # fiber-reduced-endos share each weight space
    assert len(kernels) == 6


def test_failed_rep_build_fails_every_rep_check():
    # valid as a config, but the slot's Euler operator is singular, so the
    # tensor builder rejects it
    raw = json.loads(N2_L3.read_text())
    raw["reps"][0][0] = {"kind": "diag", "lambda": "1", "b": ["0", "0", "0"]}
    report = run_verification_suite(parse_config(raw))
    by_id = {rec["check_id"]: rec for rec in report["checks"]}
    for cid in REP_CHECKS:
        assert by_id[cid]["status"] == "fail"
        assert by_id[cid]["detail"] == (
            "DomainError: slot 1 has a singular Euler operator; it cannot carry "
            "tensor twists (off the invertible locus)"
        )
    assert report["summary"]["fail"] == len(REP_CHECKS)


def test_generic_q_suite_runs_no_polynomial_gcd(monkeypatch):
    # every Q(q) denominator on this suite is one-term, c*q^k, whose gcd
    # with a numerator needs no polynomial Euclid
    calls = []
    counting(monkeypatch, scalars, "_pgcd", calls)
    report = run_verification_suite(load_config(str(CONFIGS / "generic_q.json")))
    assert report["summary"]["ok"] and report["summary"]["pass"] == 8
    assert calls == []


def clear_layer_caches():
    """Empty every lru_cache of the PBW, hopf and moment layers, so that a
    count does not depend on what ran before it."""
    for module in (qweyl, hopf, moment):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.mark.parametrize(
    "check_id, bound",
    # scalar multiplications from cold caches: 20,487 and 14,425 with the
    # reduced product in the alpha basis and no products by one; 75,774 and
    # 59,385 through Ore fractions
    [("moment-reduction", 40_000), ("double-presentation", 20_000)],
)
def test_verify_qq_check_work(monkeypatch, check_id, bound):
    cfg = load_config(str(VERIFY_QQ))
    clear_layer_caches()
    calls = []
    counting(monkeypatch, Scalar, "__mul__", calls)
    report = run_verification_suite(cfg, only={check_id})
    assert report["summary"]["pass"] == 1
    assert len(calls) < bound


def test_product_of_monomials_multiplies_no_scalars(monkeypatch):
    spec = load_config(str(VERIFY_QQ)).spec
    words = [(spec.x(1), spec.d(2)), (spec.d(2), spec.x(1))]
    want = [u * v for u, v in words]
    calls = []
    counting(monkeypatch, Scalar, "__mul__", calls)
    assert [u * v for u, v in words] == want
    assert calls == []
    # d2 x1 = q_21 x1 d2: the cached reordering carries the twist
    assert want[1] == want[0].scale(spec.q_power(spec.m[1][0]))


def test_reduced_product_stays_in_the_alpha_basis(monkeypatch):
    cfg = load_config(str(VERIFY_QQ))
    spec, datum = cfg.spec, cfg.datum()
    monos = invariant_monomials(datum.torus, spec, 3)
    elements = [
        moment_ideal_reduce(spec.monomial(*monos[i]) + spec.monomial(*monos[-1 - i]), datum)
        for i in range(1, 6)
    ]
    fractions = []
    counting(monkeypatch, ReducedElement, "to_localized", fractions)
    for u, v in zip(elements, elements[1:]):
        assert not reduced_product(u, v, datum).is_zero()
    assert fractions == []
