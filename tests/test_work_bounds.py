"""Bounds on the work done, by counting calls of the layer functions.

Each count is fixed by the algorithm, so an algorithmic regression fails here
on any machine, however fast.
"""

import argparse
import itertools
import json
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from conftest import seeded_invariant, verify_qq_variant
from qweylab import (
    checks, cli, config, exactla, hopf, moment, qweyl, reduction, rootofunity, scalars,
)
from qweylab.checks import run_verification_suite
from qweylab.config import load_config, parse_config
from qweylab.expr import parse_expression
from qweylab.moment import ReducedElement, invariant_monomials, moment_ideal_reduce, reduced_product
from qweylab.qweyl import AlgebraSpec, PBWElement
from qweylab.scalars import Scalar, make_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N2_L3 = CONFIGS / "n2_l3.json"
N3_L5 = Path(__file__).resolve().parent / "configs" / "n3_l5.json"
N4_L3 = Path(__file__).resolve().parent / "configs" / "n4_l3.json"
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
    # a^2, a^4 and a * a^4: no product by the identity
    assert len(calls) == 3
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
    # u^2, u^4 and u * u^4: no product by one
    assert len(calls) == 3


def eliminated_blocks(monkeypatch):
    """The unknowns of the rows added to each SparseEliminator, as a dict
    eliminator -> set of columns that fills as the code runs."""
    blocks = {}
    original = exactla.SparseEliminator.add

    def add(elim, vec):
        blocks.setdefault(elim, set()).update(vec)
        return original(elim, vec)

    monkeypatch.setattr(exactla.SparseEliminator, "add", add)
    return blocks


def test_verify_run_shares_reps_and_derived_data(monkeypatch):
    builds, moment_ops, kernels, root_kernels = [], [], [], []
    counting(monkeypatch, config, "build_irrep", builds)
    counting(monkeypatch, reduction, "moment_operators", moment_ops)
    counting(monkeypatch, reduction, "sparse_kernel", kernels)
    counting(monkeypatch, rootofunity, "sparse_kernel", root_kernels)
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
            (cid, law, needs, marked(run) if cid == "fiber-reduced-endos" else run)
            for cid, law, needs, run in checks.CHECKS
        ],
    )
    report = run_verification_suite(load_config(str(N2_L3)))
    assert report["summary"]["ok"] and report["summary"]["pass"] == 17
    assert len(builds) == 2
    per_rep = Counter(id(args[0]) for args in moment_ops)
    assert len(per_rep) == 2 and set(per_rep.values()) == {1}
    # the 36-unknown centralizer system, then the commutants: both
    # configured reps (dim 9) and the 20 seeded rank-1 reps (dim 3) are split
    # by weight, so each system has dim unknowns, not dim^2
    assert [args[1] for args in root_kernels] == [36, 9, 9] + [3] * 20
    # the weight spaces, one per (rep, eta)
    assert [args[1] for args in kernels] == [9] * 6
    # fiber-reduced-endos reads the commutants that rep-irreducibility solved
    assert reduced_endos_sizes == []


def test_n3_l5_reps_and_commutants_stay_sparse(monkeypatch):
    # dense rep matrices and exact commutant kernels took 1,342,122 scalar
    # multiplications here; sparse products and the exact commutants by
    # weight take 32,773 field products, 45,555 with the products by one
    calls, kernels = [], []
    counting(monkeypatch, scalars.CyclotomicField, "_mul", calls)
    counting(monkeypatch, rootofunity, "sparse_kernel", kernels)
    blocks = eliminated_blocks(monkeypatch)
    reps = load_config(str(N3_L5)).build_reps()
    assert [rep.dim for rep in reps] == [125, 125]
    assert [rootofunity.commutant_dimension(rep) for rep in reps] == [1, 1]
    assert len(calls) < 100_000
    # each commutant system has one unknown per weight, dim = 125 of them
    assert [args[1] for args in kernels] == [125, 125]
    assert max(len(cols) for cols in blocks.values()) <= 125


@pytest.mark.parametrize("path, unknowns", [(N3_L5, 512), (N4_L3, 1_296)], ids=["n3_l5", "n4_l3"])
def test_center_truncation_acts_by_generators_and_solves_small_blocks(monkeypatch, path, unknowns):
    # only the alpha-invariant monomials are unknowns, not all (B+1)^(2n):
    # 512 of 46,656 on n3_l5 (8 alpha-invariant exponent pairs per
    # coordinate at B = l = 5, cubed) and 1,296 of 65,536 on n4_l3; each
    # takes the products g m and m g for the 2n generators g
    products, kernels = [], []
    inside = []
    original = PBWElement.__mul__

    def product(self, other):
        if inside:
            products.append(other)
        return original(self, other)

    monkeypatch.setattr(PBWElement, "__mul__", product)
    counting(monkeypatch, rootofunity, "sparse_kernel", kernels)
    centralizer = rootofunity.centralizer_basis

    def marked(spec, bound):
        inside.append(True)
        try:
            return centralizer(spec, bound)
        finally:
            inside.pop()

    monkeypatch.setattr(rootofunity, "centralizer_basis", marked)
    blocks = eliminated_blocks(monkeypatch)
    cfg = load_config(str(path))
    report = run_verification_suite(cfg, only={"center-truncation"})
    assert report["summary"]["ok"] and report["summary"]["pass"] == 1
    assert [args[1] for args in kernels] == [unknowns]
    assert len(products) <= 2 * (2 * cfg.spec.n) * unknowns
    assert max((len(cols) for cols in blocks.values()), default=0) <= 256


def test_center_truncation_subtracts_without_negated_copies(monkeypatch):
    # each commutator row g m - m g was g m + (-(m g)), a negated copy of
    # every subtrahend: 3,072 copies on n3_l5
    negations = []
    counting(monkeypatch, qweyl.TermElement, "__neg__", negations)
    report = run_verification_suite(load_config(str(N3_L5)), only={"center-truncation"})
    assert report["summary"]["ok"] and report["summary"]["pass"] == 1
    assert negations == []


@pytest.mark.parametrize("path, bound", [(N2_L3, 45), (N3_L5, 875)], ids=["n2_l3", "n3_l5"])
def test_lcenter_freeness_forms_one_product_per_block_and_x_residue(monkeypatch, path, bound):
    # each of the 2n+1 blocks z takes the l^n products z x^r; the
    # (2n+1) l^(2n) products z x^r d^s (109,375 on n3_l5) are read off
    # their keys
    cfg = load_config(str(path))
    n, l = cfg.spec.n, cfg.field.l
    assert bound == (2 * n + 1) * l**n
    products = []
    counting(monkeypatch, PBWElement, "__mul__", products)
    blocks = eliminated_blocks(monkeypatch)
    report = run_verification_suite(cfg, only={"lcenter-freeness"})
    assert report["summary"]["ok"] and report["summary"]["pass"] == 1
    assert len(products) <= bound
    assert blocks == {}


@pytest.mark.parametrize("path, degrees", [(N3_L5, 1_331), (N4_L3, 2_401)], ids=["n3_l5", "n4_l3"])
def test_centralizer_basis_decides_each_degree_once(monkeypatch, path, degrees):
    # the alpha-invariance of x^a d^b depends on a - b alone: one weight per
    # candidate degree, (2B + 1)^n of them, where a test of every pair made
    # (B + 1)^(2n), 46,656 on n3_l5 and 65,536 on n4_l3
    cfg = load_config(str(path))
    bound = cfg.bounds["exponent_bound"]
    assert degrees == (2 * bound + 1) ** cfg.spec.n
    weights = []
    counting(monkeypatch, AlgebraSpec, "weight", weights)
    assert rootofunity.centralizer_basis(cfg.spec, bound)
    assert len(weights) <= degrees


@pytest.mark.parametrize("path", [N3_L5, N4_L3], ids=["n3_l5", "n4_l3"])
def test_lcenter_freeness_counts_keys_without_building_them(path):
    # the keys (A, B + s) filled sets of 109,375 (n3_l5) and 59,049 (n4_l3)
    # tuples, a peak of 16.4 MB and 11.5 MB
    spec = load_config(str(path)).spec
    assert rootofunity.verify_lcenter_freeness(spec).passed
    tracemalloc.start()
    try:
        out = rootofunity.verify_lcenter_freeness(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.passed
    assert peak < 2_000_000


@pytest.mark.parametrize("n, l", [(1, 3), (2, 3), (1, 5)])
def test_lcenter_freeness_eliminates_when_key_boxes_overlap(monkeypatch, n, l):
    # a faulty product x^T d^U * x^r d^s = x^T d^(U + r + s) gives one-term
    # heads z x^r whose d-parts U + r differ by less than l: their key boxes
    # overlap, so the ranks come from elimination, and they are the number
    # of distinct keys (T, U + r + s), counted here by brute force
    spec = AlgebraSpec.single_parameter(n, make_field("cyclotomic", l))

    def faulty(self, other):
        ((t, u), c), = self.terms.items()
        ((r, s), c2), = other.terms.items()
        return PBWElement(self.spec, {(t, tuple(map(sum, zip(u, r, s)))): c * c2})

    monkeypatch.setattr(PBWElement, "__mul__", faulty)
    blocks = eliminated_blocks(monkeypatch)
    out = rootofunity.verify_lcenter_freeness(spec)
    assert blocks
    residues = list(itertools.product(range(l), repeat=n))
    zero = (0,) * n
    units = [tuple(l * (j == i) for j in range(n)) for i in range(n)]
    zs = [(zero, zero)] + [z for e in units for z in ((e, zero), (zero, e))]
    keys = [
        {(t, tuple(map(sum, zip(u, r, s)))) for r in residues for s in residues} for t, u in zs
    ]
    full = l ** (2 * n)
    records = [(len(k) == full, f"block {t},{u} rank {len(k)}") for (t, u), k in zip(zs, keys)]
    union = len(set().union(*keys))
    records.append((union == len(zs) * full, f"union of {len(zs)} blocks stays independent"))
    assert (out.passed, out.cases, out.failures) == (
        all(ok for ok, _ in records),
        len(records),
        [label for ok, label in records if not ok],
    )
    assert not out.passed


def test_scaling_by_one_forms_no_product(monkeypatch):
    spec = load_config(str(VERIFY_QQ)).spec
    u = spec.x(1) * spec.d(2) + spec.x(2).scale(spec.q_power(3))
    calls = []
    counting(monkeypatch, scalars.RationalFunctionField, "_mul", calls)
    for one in (1, spec.field.one):
        v = u.scale(one)
        assert v == u and v.terms is not u.terms
    assert calls == []


def test_powers_and_scaling_by_one_form_no_product_by_one(monkeypatch):
    # square-and-multiply from the lowest power of two in e: e.bit_length() - 1
    # squarings and popcount(e) - 1 products into the accumulator, none of
    # them by one; the parent started from one and formed one more each
    u = Z3.zeta + 2
    a = exactla.matrix(2, 2, Z3, {(0, 0): Z3.one, (0, 1): Z3.zeta, (1, 1): Z3.from_int(2)})
    ident = exactla.identity(2, Z3)
    powers = [(reduce(operator.mul, [u] * e, Z3.one), reduce(exactla.mat_mul, [a] * e, ident))
              for e in range(10)]
    scalar_calls, mat_calls = [], []
    counting(monkeypatch, scalars.CyclotomicField, "_mul", scalar_calls)
    counting(monkeypatch, exactla, "mat_mul", mat_calls)
    for e, (u_e, a_e) in enumerate(powers):
        scalar_calls.clear()
        mat_calls.clear()
        want = e.bit_length() + bin(e).count("1") - 2 if e else 0
        assert u**e == u_e
        assert len(scalar_calls) == want
        assert all(Z3.one.v not in args for args in scalar_calls)
        got = exactla.mat_pow(a, e)
        assert got == a_e and len(mat_calls) == want
        assert all(not exactla.mat_eq(m, ident) for args in mat_calls for m in args)
        # a new matrix even for e = 1: callers hold cached rep matrices
        assert got is not a and all(got[r] is not a[r] for r in a)
    scalar_calls.clear()
    scaled = exactla.mat_scale(a, Z3.one)
    assert scaled == a and scaled is not a and all(scaled[r] is not a[r] for r in a)
    assert scalar_calls == []


def test_weight_space_is_computed_once_per_point(monkeypatch):
    kernels = []
    counting(monkeypatch, reduction, "sparse_kernel", kernels)
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


def test_off_locus_last_slot_reaches_the_rep_checks():
    # the last slot twists no later factor, so its singular Euler operator
    # needs no inverse: the rep is built, lies off the locus, and the
    # off-locus law of rep-irreducibility decides it: its commutant is
    # trivial, but the kernel of that Euler operator is invariant
    raw = json.loads(N2_L3.read_text())
    raw["reps"] = [[{"kind": "nilpotent"}, {"kind": "diag", "lambda": "1", "b": ["1", "0", "1"]}]]
    report = run_verification_suite(parse_config(raw), verbose=True)
    by_id = {rec["check_id"]: rec for rec in report["checks"]}
    assert by_id["rep-build"]["status"] == "pass"
    assert by_id["rep-build"]["detail"] == "dim 9, azumaya=no"
    assert by_id["rep-irreducibility"]["status"] == "pass"
    assert by_id["rep-irreducibility"]["detail"] == (
        "configured reps plus 10 seeded rank-1 dichotomies"
    )
    assert report["summary"]["fail"] == 0


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
    counting(monkeypatch, scalars.RationalFunctionField, "_mul", calls)
    report = run_verification_suite(cfg, only={check_id})
    assert report["summary"]["pass"] == 1
    assert len(calls) < bound


def test_product_of_monomials_multiplies_no_scalars(monkeypatch):
    spec = load_config(str(VERIFY_QQ)).spec
    words = [(spec.x(1), spec.d(2)), (spec.d(2), spec.x(1))]
    want = [u * v for u, v in words]
    calls = []
    counting(monkeypatch, scalars.RationalFunctionField, "_mul", calls)
    assert [u * v for u, v in words] == want
    assert calls == []
    # d2 x1 = q_21 x1 d2: the cached reordering carries the twist
    assert want[1] == want[0].scale(spec.q_power(spec.m[1][0]))


def test_generator_powers_parse_without_pbw_powers(monkeypatch):
    spec = load_config(str(VERIFY_QQ)).spec
    products, powers = [], []
    counting(monkeypatch, qweyl, "_ordered_product", products)
    counting(monkeypatch, PBWElement, "__pow__", powers)
    # x1^7 and d2^5 are one monomial each: only their product is formed
    assert parse_expression("x1^7*d2^5", spec) == spec.monomial((7, 0, 0), (0, 5, 0))
    assert len(products) == 1 and powers == []
    # a1^3 is read from the alpha-power cache, built once
    qweyl._alpha_power.cache_clear()
    first = parse_expression("a1^3", spec)
    assert products and powers == []
    products.clear()
    assert parse_expression("a1^3", spec) is first
    assert products == []


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


# Scalar.__mul__ calls per verify_qq check from cold caches before twists
# went through Field.twist; the combined count of products and twists must
# stay below them.  A product is counted on the field's _mul: a
# Scalar.__mul__ call with a factor one forms none.  A twist is counted on
# the value-level _twist, which Field.twist wraps and the term-dict kernels
# call directly.  Counts now (products + twists): engine-soundness
# 13,692 + 6,073, hopf-axioms 493 + 164, double-presentation 595 + 2,284,
# moment-reduction 5,546 + 953.
PRODUCTS_BEFORE_TWISTS = {
    "engine-soundness": 20_602,
    "euler-commutativity": 21,
    "power-identities": 384,
    "hopf-axioms": 8_362,
    "double-presentation": 14_425,
    "classical-limit": 59,
    "moment-identity": 206,
    "moment-reduction": 20_487,
}


@pytest.mark.parametrize("check_id", list(PRODUCTS_BEFORE_TWISTS))
def test_verify_qq_products_and_twists(monkeypatch, check_id):
    cfg = load_config(str(VERIFY_QQ))
    clear_layer_caches()
    calls = []
    counting(monkeypatch, scalars.RationalFunctionField, "_mul", calls)
    counting(monkeypatch, scalars.RationalFunctionField, "_twist", calls)
    report = run_verification_suite(cfg, only={check_id})
    assert report["summary"]["pass"] == 1
    assert len(calls) < PRODUCTS_BEFORE_TWISTS[check_id]


def test_verify_qq_takes_each_lattice_step_and_invariance_once(monkeypatch):
    # 2,375 hnf_reduce and 1,554 comoment_weights calls while each reduction
    # took its own lattice steps and each invariance test its own weights;
    # 35 and 77 distinct ones
    cfg = load_config(str(VERIFY_QQ))
    clear_layer_caches()
    steps, weights = [], []
    counting(monkeypatch, moment, "hnf_reduce", steps)
    counting(monkeypatch, moment.TorusData, "comoment_weights", weights)
    report = run_verification_suite(cfg)
    assert report["summary"]["ok"] and report["summary"]["pass"] == 8
    assert len(steps) <= 50 and len(weights) <= 100
    assert len(steps) == len({args[0] for args in steps})


def test_rep_checks_form_no_product_by_one(monkeypatch):
    # 3,406 cyclotomic products, 977 of them by a factor equal to one, while
    # only some callers skipped such a product; with Scalar.__mul__ deciding
    # for all of them, 2,319 and none
    cfg = load_config(str(N2_L3))
    clear_layer_caches()
    calls = []
    counting(monkeypatch, scalars.CyclotomicField, "_mul", calls)
    report = run_verification_suite(cfg, only=set(REP_CHECKS))
    assert report["summary"]["pass"] == len(REP_CHECKS)
    one = cfg.field.one.v
    assert [args for args in calls if one in args[1:]] == []
    assert len(calls) < 2_500


def test_verify_qq_run_compares_specs_by_identity(monkeypatch):
    # 14,112 field-by-field AlgebraSpec comparisons of two distinct objects
    # while every unscaled_twin() call built a new spec; the rest of the
    # 33,702 __eq__ calls compared a spec with itself
    cfg = load_config(str(VERIFY_QQ))
    clear_layer_caches()
    calls = []
    original = AlgebraSpec.__eq__

    def eq(self, other):
        if self is not other:
            calls.append(other)
        return original(self, other)

    monkeypatch.setattr(AlgebraSpec, "__eq__", eq)
    report = run_verification_suite(cfg)
    assert report["summary"]["ok"] and report["summary"]["pass"] == 8
    assert len(calls) < 1_000


def test_moment_reduction_expands_each_alpha_form_once():
    # 3,759 expansions without the cache, of 338 distinct (spec, a, b, order)
    cfg = load_config(str(VERIFY_QQ))
    clear_layer_caches()
    report = run_verification_suite(cfg, only={"moment-reduction"})
    assert report["summary"]["pass"] == 1
    assert qweyl._alpha_form_terms.cache_info().misses <= 400


@pytest.mark.parametrize(
    "module, name",
    [
        (qweyl, "_merge_vectors"),
        (qweyl, "_alpha_power"),
        (qweyl, "_alpha_form_terms"),
        (qweyl, "_alpha_product"),
        (config, "_config_of_text"),
        (moment, "_lattice_step"),
        (moment, "_is_invariant"),
    ],
)
def test_product_kernel_caches_are_bounded(module, name):
    assert getattr(module, name).cache_info().maxsize is not None


def test_double_presentation_reads_each_core_once(monkeypatch):
    # the pairs are decided at their commutation cores: 14,112 element
    # products (7,056 pairs on both sides) became 400 core comparisons
    spec = load_config(str(VERIFY_QQ)).spec
    n, bound = spec.n, 3
    doubles, engine, smash, reorder = [], [], [], []
    counting(monkeypatch, hopf.DoubleElement, "__mul__", doubles)
    counting(monkeypatch, PBWElement, "__mul__", engine)
    counting(monkeypatch, hopf, "_smash_core", smash)
    counting(monkeypatch, hopf, "_reorder", reorder)
    assert hopf.verify_double_presentation(spec, bound).passed
    # only the closed-form relations multiply elements: d_i x_j, x_j d_i,
    # and for i != j also x_i x_j, x_j x_i, d_i d_j, d_j d_i
    assert len(doubles) == 2 * n * n + 4 * n * (n - 1) and engine == []
    cores = [args[1:] for args in reorder]
    exps = [v for t in range(bound + 1) for v in qweyl.exponent_vectors(n, t, total=t)]
    assert len(cores) == len(set(cores)) == len(exps) ** 2 == 400
    assert set(cores) == {(b, a) for b in exps for a in exps}
    # each relation product reads one core, the pair part one per (b, a)
    assert len(smash) == len(doubles) + len(cores)
    assert set(cores) <= {args[1:] for args in smash}
    # the engine's cores come from the unscaled twin of the rescaled spec
    assert spec.rescaled and {args[0] for args in reorder} == {spec.unscaled_twin()}


def test_fraction_round_trips_form_pbw_products_only_on_structure_constant_misses(monkeypatch):
    # The 16 Ore round trips of the (2,1,1)/(1,2,1) variant from cold caches:
    # 269 PBW products when a fraction was a PBW numerator over alpha^k (the
    # alpha parts of each fraction lifted to a common denominator, then one
    # numerator product per round trip).  In the alpha basis a PBW product
    # is formed only for a structure constant the cache misses: 47.
    cfg = verify_qq_variant((2, 1, 1), (1, 2, 1))
    spec, datum = cfg.spec, cfg.datum()
    rng = random.Random("alpha-basis product:verify_qq-diag(2, 1, 1)-A(1, 2, 1)")
    elements = [seeded_invariant(rng, spec, datum) for _ in range(8)]
    rotated = elements[1:] + elements[:1]
    products = [reduced_product(u, v, datum) for u, v in zip(elements, rotated)]
    pairs = list(zip(elements, rotated)) + list(zip(products, elements[2:] + elements[:2]))
    want = [reduced_product(u, v, datum) for u, v in pairs]
    clear_layer_caches()
    calls = []
    counting(monkeypatch, PBWElement, "__mul__", calls)
    got = [moment_ideal_reduce(u.to_localized() * v.to_localized(), datum) for u, v in pairs]
    assert got == want
    assert len(calls) == qweyl._alpha_product.cache_info().misses <= 50


def test_warm_exact_form_request_skips_argparse_json_and_fractions(monkeypatch, capsys):
    # the session's request form, on a result with coefficients over 2 and 4
    argv = ["eval", "--config", str(N2_L3), "--", "(zeta*x1 + 3)/2*d2^2 - x2*a1^-1/4"]
    assert cli.main(argv) == 0
    warm = capsys.readouterr()
    assert "1/2*zeta*x1^2" in warm.out and "- 1/4*x2" in warm.out
    parses, decodes = [], []
    counting(monkeypatch, argparse.ArgumentParser, "parse_known_args", parses)
    counting(monkeypatch, json, "loads", decodes)

    class Forbidden(Fraction):
        def __new__(cls, *args):
            raise AssertionError("Fraction built in a warm n2_l3 request")

    monkeypatch.setattr(scalars, "Fraction", Forbidden)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == warm
    assert parses == [] and decodes == []
