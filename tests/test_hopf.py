import math
import random
from pathlib import Path

import pytest

from conftest import VERIFY_QQ, random_spec
from qweylab import hopf
from qweylab.config import load_config
from qweylab.hopf import (
    DoubleElement,
    antipode,
    antipode_coeff,
    coproduct,
    left_regular_action,
    pairing,
    verify_double_presentation,
    verify_hopf_axioms,
)
from qweylab.checks import run_verification_suite
from qweylab.qweyl import AlgebraSpec, PBWElement, exponent_vectors, graded_monomials
from qweylab.scalars import make_field

TEST_CONFIGS = Path(__file__).resolve().parent / "configs"
QQ_Q = make_field("rational_function_q")
S1 = AlgebraSpec.single_parameter(1, QQ_Q, rescaled=False)
S2 = AlgebraSpec.single_parameter(2, QQ_Q, rescaled=False)
q = QQ_Q.q
one = QQ_Q.one


def x(spec, exp):
    """x^exp in the braided symmetric algebra: the unscaled engine's monomial
    with zero d-part."""
    return spec.monomial(exp, (0,) * spec.n)


def test_coproduct_examples():
    d = coproduct(S1, (1,))
    assert dict(d) == {((1,), (0,)): one, ((0,), (1,)): one}
    d2 = coproduct(S1, (2,))
    assert dict(d2) == {
        ((2,), (0,)): one,
        ((1,), (1,)): one + q,
        ((0,), (2,)): one,
    }
    assert coproduct(S1, (0,)) == ((((0,), (0,)), one),)


def test_antipode_examples():
    assert antipode(x(S1, (1,))) == x(S1, (1,)).scale(-one)
    assert antipode(x(S1, (2,))) == x(S1, (2,)).scale(q)
    assert antipode(x(S1, (0,))) == S1.one()


def test_pairing_examples():
    assert pairing(S1, (1,)) == one
    assert pairing(S2, (1, 1)) == S2.qij(1, 2)
    assert pairing(S1, (2,)) == one + q**-1


def test_left_regular_action_examples():
    assert left_regular_action((1,), x(S1, (1,))) == S1.one()
    assert left_regular_action((0,), x(S1, (1,))) == x(S1, (1,))
    # the inverse middle crossing gives (1 + q^-1); the direct crossing
    # (q (1+q)) fails presentation agreement, which is the arbiter here
    act = left_regular_action((1,), x(S1, (2,)))
    assert act == x(S1, (1,)).scale(1 + q**-1)
    # d^a pairs with no x-monomial of another multidegree
    assert left_regular_action((1, 0), x(S2, (0, 2))).is_zero()


def test_heisenberg_product_examples():
    d1 = DoubleElement.d(S1, 1)
    x1 = DoubleElement.x(S1, 1)
    prod = d1 * x1
    assert prod.terms == {
        ((1,), (1,)): q**-1,
        ((0,), (0,)): one,
    }
    d1 = DoubleElement.d(S2, 1)
    x2 = DoubleElement.x(S2, 2)
    assert (d1 * x2).terms == {((0, 1), (1, 0)): S2.qij(1, 2).inv()}
    x1 = DoubleElement.x(S2, 1)
    d2 = DoubleElement.d(S2, 2)
    assert (x1 * d2).terms == {((1, 0), (0, 1)): one}


def test_double_associativity_random():
    rng = random.Random(2024)
    for _ in range(25):
        spec = random_spec(rng, rng.randint(1, 3), rescaled=False)

        def rand_double():
            out = DoubleElement(spec, {})
            for _ in range(2):
                a = tuple(rng.randint(0, 2) for _ in range(spec.n))
                b = tuple(rng.randint(0, 2) for _ in range(spec.n))
                out = out + DoubleElement.monomial(
                    spec, a, b, spec.field.from_int(rng.randint(-2, 2))
                )
            return out

        u, v, w = rand_double(), rand_double(), rand_double()
        assert (u * v) * w == u * (v * w)


def test_hopf_axioms():
    out = verify_hopf_axioms(S1, 5)
    assert out.passed, out.failures[:5]
    out = verify_hopf_axioms(S2, 5)
    assert out.passed, out.failures[:5]
    rng = random.Random(31)
    out = verify_hopf_axioms(random_spec(rng, 2, rescaled=False), 3)
    assert out.passed, out.failures[:5]


@pytest.mark.parametrize(
    "spec, orders",
    [
        (load_config(str(TEST_CONFIGS / "n1_l9.json")).spec, (3,)),
        (load_config(str(TEST_CONFIGS / "n2_l15.json")).spec, (3, 5)),
        (AlgebraSpec(2, ((3, 1), (-1, 2)), False, make_field("cyclotomic", 3)), (1, 3)),
    ],
    ids=["n1_l9", "n2_l15", "l_divides_m11"],
)
def test_pairing_nondegeneracy_stops_at_the_order_of_q_mii(spec, orders):
    # [k]_Q! of Q = q^(m_ii) vanishes from the order o_i = l / gcd(m_ii, l)
    # of Q on, not from l; for o_i = 1 the q-integers are integers and it
    # never does.  hopf-axioms records <d^a, x^a> != 0 exactly where it
    # holds; the two configs failed hopf-axioms when the cap was l
    bound = 4
    l = spec.field.l
    assert orders == tuple(l // math.gcd(spec.m[i][i], l) for i in range(spec.n))
    out = verify_hopf_axioms(spec, bound)
    assert out.passed, out.failures[:5]
    exps = [e for e in exponent_vectors(spec.n, bound) if sum(e) <= bound]
    nonzero = [e for e in exps if not pairing(spec.unscaled_twin(), e).is_zero()]
    assert out.cases == 4 * len(exps) + len(nonzero)
    assert nonzero == [e for e in exps if all(a < o for a, o in zip(e, orders) if o > 1)]


def test_double_presentation():
    assert verify_double_presentation(S1, 4).passed
    rng = random.Random(17)
    spec = random_spec(rng, 3, rescaled=False)
    out = verify_double_presentation(spec, 2)
    assert out.passed, out.failures[:5]
    assert verify_double_presentation(S2, 1).passed


def test_double_presentation_at_root_of_unity():
    z3 = make_field("cyclotomic", 3)
    for n in (1, 2):
        spec = AlgebraSpec.single_parameter(n, z3, rescaled=False)
        out = verify_double_presentation(spec, 3)
        assert out.passed, out.failures[:5]


def all_pairs_sweep(spec, bound):
    """The reference for the pair part of `verify_double_presentation`:
    every pair of basis monomials multiplied in the double and in the
    unscaled engine, as [((mono1, mono2), products agree)] in check order."""
    twin = spec.unscaled_twin()
    built = [
        (mono, DoubleElement.monomial(spec, *mono), twin.monomial(*mono))
        for mono in graded_monomials(spec.n, bound)
    ]
    return [
        ((m1, m2), (du * dv).terms == (pu * pv).terms)
        for m1, du, pu in built
        for m2, dv, pv in built
    ]


def check_verdicts(spec, bound):
    """The per-pair verdicts of the check, read from its failure labels, in
    the sweep's order; the check records one case per pair after the
    closed-form relations."""
    out = verify_double_presentation(spec, bound)
    monos = graded_monomials(spec.n, bound)
    failed = set(out.failures)
    n = spec.n
    assert out.cases == n * n + 2 * n * (n - 1) + len(monos) ** 2
    return [((m1, m2), f"pair {m1} * {m2}" not in failed) for m1 in monos for m2 in monos]


def _z3_spec():
    return AlgebraSpec.single_parameter(2, make_field("cyclotomic", 3), rescaled=False)


@pytest.mark.parametrize(
    "make_spec, bound",
    [
        (lambda: load_config(str(VERIFY_QQ)).spec, 3),
        (lambda: S1, 4),
        (lambda: random_spec(random.Random(17), 3, rescaled=False), 2),
        (_z3_spec, 3),
    ],
    ids=["verify_qq", "S1", "random_skew_n3", "z3_n2"],
)
def test_double_presentation_cores_match_the_all_pairs_sweep(make_spec, bound):
    spec = make_spec()
    assert check_verdicts(spec, bound) == all_pairs_sweep(spec, bound)


def test_a_corrupted_core_fails_the_same_pairs_in_check_and_sweep(monkeypatch):
    spec = load_config(str(VERIFY_QQ)).spec
    bound, target = 3, ((1, 1, 0), (0, 2, 0))
    original = hopf._smash_core

    def corrupted(spec_, dexp, xexp):
        terms = original(spec_, dexp, xexp)
        if (dexp, xexp) != target:
            return terms
        (key, c), *rest = terms
        return ((key, c + 1), *rest)

    monkeypatch.setattr(hopf, "_smash_core", corrupted)
    sweep = all_pairs_sweep(spec, bound)
    assert check_verdicts(spec, bound) == sweep
    failed = {pair for pair, ok in sweep if not ok}
    # the pairs whose d-part of the left and x-part of the right meet at the
    # corrupted core, and only those
    assert failed == {
        (m1, m2) for (m1, m2), _ in sweep if (m1[1], m2[0]) == target
    }
    # 4 monomials x^a1 d^(1,1,0) and 4 monomials x^(0,2,0) d^b2 at bound 3
    assert len(failed) == 4 * 4
    # the closed-form relations read generator cores only, so they still hold
    out = verify_double_presentation(spec, bound)
    assert not any("relation" in label for label in out.failures)


def test_classical_degeneration():
    zero_m = tuple(tuple(0 for _ in range(2)) for _ in range(2))
    spec = AlgebraSpec(2, zero_m, False, QQ_Q)
    for i in (1, 2):
        di = DoubleElement.d(spec, i)
        xi = DoubleElement.x(spec, i)
        lhs = di * xi
        rhs = xi * di + DoubleElement.one(spec)
        assert lhs == rhs
    # cross pairs commute on the nose
    assert DoubleElement.d(spec, 1) * DoubleElement.x(spec, 2) == DoubleElement.x(
        spec, 2
    ) * DoubleElement.d(spec, 1)


def test_antipode_of_a_high_power_needs_no_deep_recursion():
    spec = AlgebraSpec(2, ((2, 1), (-1, -1)), False, QQ_Q)
    # q^(m_11 * 1500 * 1499 / 2), q^(m_22 * 1500 * 1499 / 2), and both for
    # (700, 800); the sign is (-1)^1500
    assert antipode_coeff(spec, (1500, 0)) == q**2248500
    assert antipode_coeff(spec, (0, 1500)) == q**-1124250
    assert antipode_coeff(spec, (700, 800)) == q ** (489300 - 319600)


# Test-owned copies of the constructions the Hopf layer used before its
# products went through `_ordered_product`: the hand-written product loop of
# the braided tensor square, the coproduct as repeated products with one
# generator, and the pairing recursion over every coproduct term.


def _ref_braid(spec, dv, dw):
    return sum(dv[i] * spec.m[i][j] * dw[j] for i in range(spec.n) for j in range(spec.n))


def _ref_merge(spec, left, right):
    n = spec.n
    return sum(spec.m[i][j] * left[j] * right[i] for i in range(n) for j in range(i + 1, n))


def _ref_tensor_product(spec, left, right):
    """(a (x) b)(c (x) d) = braid(deg b, deg c) ac (x) bd, bilinearly, with
    the merge twists q^(-_ref_merge)."""
    out = {}
    for (a, b), c1 in left.items():
        for (c, d), c2 in right.items():
            e = _ref_braid(spec, b, c)
            e -= _ref_merge(spec, a, c) + _ref_merge(spec, b, d)
            key = (tuple(p + r for p, r in zip(a, c)), tuple(p + r for p, r in zip(b, d)))
            v = spec.field.twist(c1 * c2, e)
            out[key] = out[key] + v if key in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _ref_coproduct(spec, exp):
    one, zero = spec.field.one, (0,) * spec.n
    out = {(zero, zero): one}
    for i in range(spec.n):
        g = tuple(int(k == i) for k in range(spec.n))
        for _ in range(exp[i]):
            out = _ref_tensor_product(spec, out, {(g, zero): one, (zero, g): one})
    return out


def _ref_pairing(spec, dexp, xexp):
    f = spec.field
    total = sum(dexp)
    if total == 0:
        return f.one if not any(xexp) else f.zero
    if total == 1:
        return f.one if xexp == dexp else f.zero
    if dexp != xexp:
        return f.zero
    i = next(k for k in range(spec.n) if dexp[k])
    rest = tuple(v - (k == i) for k, v in enumerate(dexp))
    acc = f.zero
    for (h1, h2), c in _ref_coproduct(spec, xexp).items():
        if sum(h1) == 1 and h1[i] == 1:
            e = _ref_braid(spec, [-v for v in rest], h1)
            acc = acc + f.twist(c * _ref_pairing(spec, rest, h2), e)
    return acc


REF_FIELDS = [make_field("rational"), QQ_Q, make_field("cyclotomic", 5)]


def test_coproduct_and_pairing_match_the_old_constructions():
    rng = random.Random(12)
    for field in REF_FIELDS:
        for n in (1, 2, 3):
            for rescaled in (False, True):
                spec = random_spec(rng, n, field, rescaled)
                exps = list(exponent_vectors(n, 4))
                for exp in (e for e in exps if sum(e) <= 4):
                    assert dict(coproduct(spec, exp)) == _ref_coproduct(spec, exp), (spec, exp)
                    assert pairing(spec, exp) == _ref_pairing(spec, exp, exp), (spec, exp)
                    # the reference construction certifies that the pairing
                    # preserves the multidegree
                    for dexp in exps:
                        if sum(dexp) == sum(exp) and dexp != exp:
                            assert _ref_pairing(spec, dexp, exp).is_zero(), (spec, dexp, exp)


def test_antipode_satisfies_the_antipode_axiom():
    # S is the convolution inverse of the identity, so the axiom fixes it
    # from the coproduct
    rng = random.Random(19)
    for field in REF_FIELDS:
        for n in (1, 2, 3):
            for rescaled in (False, True):
                spec = random_spec(rng, n, field, rescaled)
                out = verify_hopf_axioms(spec, 4)
                assert out.passed, (spec, out.failures[:5])


def test_side_products_match_the_old_product_loop():
    # x^e1 x^e2 = q^(-_ref_merge(e1, e2)) x^(e1 + e2)
    rng = random.Random(13)
    for field in REF_FIELDS:
        for n in (1, 2, 3):
            spec = random_spec(rng, n, field, rescaled=False)
            for _ in range(10):
                u, v = (
                    {tuple(rng.randint(0, 2) for _ in range(n)): field.from_int(rng.randint(1, 3))
                     for _ in range(2)}
                    for _ in range(2)
                )
                want = {}
                for e1, c1 in u.items():
                    for e2, c2 in v.items():
                        key = tuple(p + r for p, r in zip(e1, e2))
                        c = field.twist(c1 * c2, -_ref_merge(spec, e1, e2))
                        want[key] = want[key] + c if key in want else c
                want = {k: c for k, c in want.items() if not c.is_zero()}
                zero = (0,) * n
                left, right = (
                    PBWElement(spec, {(e, zero): c for e, c in w.items()}) for w in (u, v)
                )
                assert (left * right).terms == {(e, zero): c for e, c in want.items()}


def test_hopf_axioms_build_one_coproduct_per_monomial():
    spec = load_config(str(VERIFY_QQ)).spec.unscaled_twin()
    for cached in (coproduct, antipode_coeff, pairing):
        cached.cache_clear()
    bound = 4
    assert verify_hopf_axioms(spec, bound).passed
    monomials = sum(1 for e in exponent_vectors(spec.n, bound) if sum(e) <= bound)
    assert coproduct.cache_info().misses == monomials


@pytest.mark.parametrize("field", [QQ_Q, make_field("cyclotomic", 7)], ids=["qq", "z7"])
def test_pairing_builds_no_coproduct(field):
    spec = AlgebraSpec(2, ((2, 3), (-3, -1)), False, field)
    pairing.cache_clear()
    before = coproduct.cache_info().misses
    # at q = zeta_7 the braided factorial [30]! has the factor [7] = 0
    assert pairing(spec, (30, 20)).is_zero() == (field is not QQ_Q)
    assert coproduct.cache_info().misses == before


def test_a_spec_and_its_twin_share_the_hopf_caches():
    # hopf-axioms runs on the unscaled twin of the rescaled config and
    # double-presentation on the config's spec: 59 coproduct and 781 pairing
    # misses when each kept its own entries and the pairing took two
    # exponents
    for cached in (coproduct, antipode_coeff, pairing, hopf._smash_core):
        cached.cache_clear()
    cfg = load_config(str(VERIFY_QQ))
    assert cfg.spec.rescaled
    assert run_verification_suite(cfg)["summary"]["ok"]
    assert coproduct.cache_info().misses <= 39
    assert pairing.cache_info().misses <= 39
    assert hopf._smash_core.cache_info().misses == 404
    # and the two are one double
    assert DoubleElement.x(cfg.spec, 1) == DoubleElement.x(cfg.spec.unscaled_twin(), 1)
