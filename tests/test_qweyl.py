import random
import re

import pytest

from conftest import random_element, random_spec
from qweylab.errors import ParameterError
from qweylab.qweyl import (
    AlgebraSpec,
    LocalizedElement,
    _ordered_product,
    _reorder,
    normal_form,
    verify_alpha_commutativity,
    verify_power_identities,
)
from qweylab.scalars import make_field

QQ_Q = make_field("rational_function_q")
S1 = AlgebraSpec.single_parameter(1, QQ_Q)
S2 = AlgebraSpec.single_parameter(2, QQ_Q)
U1 = AlgebraSpec.single_parameter(1, QQ_Q, rescaled=False)
U2 = AlgebraSpec.single_parameter(2, QQ_Q, rescaled=False)
q = QQ_Q.q


def test_spec_validation():
    with pytest.raises(ParameterError):
        AlgebraSpec(2, ((1, 1), (1, 1)), True, QQ_Q)
    AlgebraSpec(2, ((1, 1), (-1, -4)), True, QQ_Q)  # diagonal unconstrained


def test_generator_powers_are_monomials_with_coefficient_one():
    for spec in (S2, U2):
        for i in (1, 2):
            for e in range(4):
                unit = tuple(e if k == i - 1 else 0 for k in range(2))
                assert spec.x(i, e).terms == spec.monomial(unit, (0, 0)).terms
                assert spec.d(i, e).terms == spec.monomial((0, 0), unit).terms
                assert spec.x(i, e) == spec.x(i) ** e
                assert spec.d(i, e) == spec.d(i) ** e
        for gen in (spec.x, spec.d):
            with pytest.raises(ParameterError, match="^exponents must be nonnegative$"):
                gen(1, -1)
            with pytest.raises(ParameterError, match=r"^generator index 3 out of range 1\.\.2$"):
                gen(3, -1)


def test_unscaled_twin_is_one_object_per_spec():
    spec = AlgebraSpec.single_parameter(2, QQ_Q)
    twin = spec.unscaled_twin()
    assert twin is spec.unscaled_twin()
    assert twin == U2 and twin != spec
    assert twin.unscaled_twin() is twin
    # equality stays structural: an equal spec built apart meets it in a cache
    assert AlgebraSpec.single_parameter(2, QQ_Q).unscaled_twin() == twin


@pytest.mark.parametrize(
    "rows, entry",
    [([[1.5, 1], [-1, 1]], "M[0][0]"), ([[1, True], [-1, 1]], "M[0][1]")],
)
def test_from_rows_rejects_non_integer_entries(rows, entry):
    with pytest.raises(ParameterError, match=rf"^{re.escape(entry)}: expected an integer"):
        AlgebraSpec.from_rows(rows, QQ_Q)
    assert AlgebraSpec.from_rows([[1, 1], [-1, 1]], QQ_Q).m == ((1, 1), (-1, 1))


def test_defining_relation_rescaled():
    assert S1.d(1) * S1.x(1) == q * S1.x(1) * S1.d(1) + (q - 1)
    lhs = S1.d(1) * S1.x(1, 2)
    assert lhs == q**2 * S1.x(1, 2) * S1.d(1) + (q**2 - 1) * S1.x(1)


def test_defining_relation_unscaled():
    # d1 x1 = q^-1 x1 d1 + 1
    assert U1.d(1) * U1.x(1) == q**-1 * U1.x(1) * U1.d(1) + 1
    # cross relations for n = 2: d1 x2 = q^-1 x2 d1, d2 x1 = q x1 d2
    assert U2.d(1) * U2.x(2) == q**-1 * U2.x(2) * U2.d(1)
    assert U2.d(2) * U2.x(1) == q * U2.x(1) * U2.d(2)
    assert U2.x(2) * U2.x(1) == q**-1 * U2.x(1) * U2.x(2)


def test_cross_relations_rescaled():
    assert S2.d(1) * S2.x(2) == q * S2.x(2) * S2.d(1)
    assert S2.d(2) * S2.x(1) == q**-1 * S2.x(1) * S2.d(2)
    assert S2.x(2) * S2.x(1) == q * S2.x(1) * S2.x(2)
    assert S2.d(2) * S2.d(1) == q * S2.d(1) * S2.d(2)


def test_multiply_examples():
    e = S1.x(1) * S1.d(1)
    assert e * e == q * S1.x(1, 2) * S1.d(1, 2) + (q - 1) * S1.x(1) * S1.d(1)
    u = random_element(random.Random(1), S2)
    assert u * S2.one() == u
    assert S2.x(1) * S2.x(2) == S2.monomial((1, 1), (0, 0))


def test_normal_form_word():
    w = normal_form([S1.d(1), S1.x(1)], S1)
    assert w == q * S1.x(1) * S1.d(1) + (q - 1)
    assert normal_form([S1.x(1)], S1) == S1.x(1)


def test_grading_degree():
    assert (S2.x(1) * S2.d(2)).grading_degree() == (1, -1)
    assert (S1.x(1) + S1.d(1)).grading_degree() is None
    assert S2.one().grading_degree() == (0, 0)
    assert S2.zero().grading_degree() == (0, 0)


def test_grading_multiplicative():
    rng = random.Random(5)
    for _ in range(50):
        spec = random_spec(rng, rng.randint(1, 3))
        u = spec.monomial(
            [rng.randint(0, 2) for _ in range(spec.n)],
            [rng.randint(0, 2) for _ in range(spec.n)],
            1,
        )
        v = spec.monomial(
            [rng.randint(0, 2) for _ in range(spec.n)],
            [rng.randint(0, 2) for _ in range(spec.n)],
            1,
        )
        w = u * v
        if not w.is_zero():
            assert w.grading_degree() == tuple(
                p + r for p, r in zip(u.grading_degree(), v.grading_degree())
            )


def test_associativity_random():
    rng = random.Random(42)
    for _ in range(60):
        spec = random_spec(rng, rng.randint(1, 3))
        u = random_element(rng, spec)
        v = random_element(rng, spec)
        w = random_element(rng, spec)
        assert (u * v) * w == u * (v * w)


def test_confluence_reassociation():
    rng = random.Random(43)
    for _ in range(30):
        spec = random_spec(rng, rng.randint(1, 3))
        gens = []
        for _ in range(rng.randint(2, 6)):
            i = rng.randint(1, spec.n)
            gens.append(spec.x(i) if rng.random() < 0.5 else spec.d(i))

        def eval_random(lo, hi):
            if hi - lo == 1:
                return gens[lo]
            cut = rng.randint(lo + 1, hi - 1)
            return eval_random(lo, cut) * eval_random(cut, hi)

        ref = normal_form(gens, spec)
        for _ in range(3):
            assert eval_random(0, len(gens)) == ref


def test_power_identities():
    out = verify_power_identities(S1, 6)
    assert out.passed, out.failures
    rng = random.Random(7)
    for _ in range(3):
        spec = random_spec(rng, 3)
        out = verify_power_identities(spec, 4)
        assert out.passed, out.failures


def test_alpha_commutativity():
    rng = random.Random(11)
    for _ in range(5):
        spec = random_spec(rng, 3)
        assert verify_alpha_commutativity(spec).passed


def test_flatness_monomial_count():
    # distinct PBW monomials of total degree <= D stay independent: the
    # canonical basis cannot collapse, so counting keys suffices after
    # round-tripping each monomial through a product.
    spec = S2
    degree = 3
    monos = []
    for ax in range(degree + 1):
        for ay in range(degree + 1 - ax):
            for bx in range(degree + 1 - ax - ay):
                for by in range(degree + 1 - ax - ay - bx):
                    monos.append(((ax, ay), (bx, by)))
    from math import comb

    assert len(monos) == comb(2 * spec.n + degree, degree)
    seen = set()
    for a, b in monos:
        u = spec.monomial(a, (0, 0)) * spec.monomial((0, 0), b)
        (key, coeff), = u.terms.items()
        assert not coeff.is_zero()
        seen.add(key)
    assert len(seen) == len(monos)


def test_products_commute_with_specialization():
    # multiplying over Q(q) and then sending q to a primitive root agrees
    # with multiplying over the cyclotomic field directly
    from qweylab.scalars import specialize_at_root

    z5 = make_field("cyclotomic", 5)
    generic = AlgebraSpec.single_parameter(2, QQ_Q)
    special = AlgebraSpec.single_parameter(2, z5)
    rng = random.Random(77)

    def send(u):
        out = special.zero()
        for (a, b), c in u.terms.items():
            out = out + special.monomial(a, b, specialize_at_root(c, z5))
        return out

    for _ in range(25):
        u = random_element(rng, generic, 3, 3)
        v = random_element(rng, generic, 3, 3)
        assert send(u * v) == send(u) * send(v)


def test_localized_requires_rescaled():
    with pytest.raises(ParameterError):
        LocalizedElement(U1.one(), (1,))


def test_localized_multiply_examples():
    al = S1.alpha(1)
    x, d = S1.x(1), S1.d(1)
    inv_alpha = LocalizedElement(S1.one(), (1,))
    # alpha * alpha^-1 == 1 in the localization
    assert (LocalizedElement.from_pbw(al) * inv_alpha).equals(S1.one())
    assert (inv_alpha * al).equals(S1.one())
    # (x1 a1^-1)(x1) = q^-1 x1^2 a1^-1
    s = LocalizedElement(x, (1,))
    t = LocalizedElement.from_pbw(x)
    assert (s * t).equals(LocalizedElement(q**-1 * x * x, (1,)))
    # (1 a1^-1)(d1 a1^-1) = q d1 a1^-2
    s = LocalizedElement(S1.one(), (1,))
    t = LocalizedElement(d, (1,))
    assert (s * t).equals(LocalizedElement(q * d, (2,)))


def test_localized_equal_examples():
    al = S1.alpha(1)
    x = S1.x(1)
    lhs = LocalizedElement(al * x, (1,))  # alpha x alpha^-1
    assert not lhs.equals(LocalizedElement.from_pbw(x))
    assert lhs.equals(LocalizedElement.from_pbw(q * x))
    s = LocalizedElement(S1.d(1) + x, (1,))
    assert s.equals(s)
    assert LocalizedElement(S1.zero(), (1,)).equals(LocalizedElement(S1.zero(), (0,)))


def test_localized_ring_axioms():
    rng = random.Random(99)
    for _ in range(20):
        spec = random_spec(rng, 2)
        def rand_loc():
            return LocalizedElement(
                random_element(rng, spec, max_degree=2, max_terms=2),
                (rng.randint(0, 2), rng.randint(0, 2)),
            )
        s, t, u = rand_loc(), rand_loc(), rand_loc()
        assert ((s * t) * u).equals(s * (t * u))
        assert (s * (t + u)).equals(s * t + s * u)
        # embedding is a homomorphism
        a = random_element(rng, spec, max_degree=2, max_terms=2)
        b = random_element(rng, spec, max_degree=2, max_terms=2)
        assert (LocalizedElement.from_pbw(a) * LocalizedElement.from_pbw(b)).equals(
            LocalizedElement.from_pbw(a * b)
        )


def test_alpha_inverse_two_sided():
    rng = random.Random(3)
    for _ in range(10):
        spec = random_spec(rng, 2)
        i = rng.randint(1, 2)
        k = [0, 0]
        k[i - 1] = 1
        inv = LocalizedElement(spec.one(), tuple(k))
        al = LocalizedElement.from_pbw(spec.alpha(i))
        u = LocalizedElement.from_pbw(random_element(rng, spec, 2, 2))
        assert (al * inv * u).equals(u)
        assert (u * al * inv).equals(u)


