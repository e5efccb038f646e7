"""The term-dict kernels, which accumulate field values, against their
Scalar-level references in conftest: the same terms in the same key order,
with the zero sums dropped."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import (
    random_element,
    random_skew_matrix,
    reference_alpha_basis_product,
    reference_fraction_terms,
    reference_ordered_product,
    reference_reorder,
)
from qweylab.hopf import _braid_core, _smash_core
from qweylab.qweyl import (
    AlgebraSpec,
    LocalizedElement,
    _fraction_terms,
    _ordered_product,
    _reorder,
    alpha_basis_product,
    exponent_vectors,
)
from qweylab.scalars import make_field

FIELDS = {
    "Q": make_field("rational"),
    "Qq": make_field("rational_function_q"),
    "Qzeta3": make_field("cyclotomic", 3),
    "Qzeta9": make_field("cyclotomic", 9),
}


def _spec(field_id, rescaled):
    """A rank-2 spec with m_11 = 0 and m_22 < 0 and a seeded entry m_12."""
    rng = random.Random(f"kernels:{field_id}:{rescaled}")
    m = [list(row) for row in random_skew_matrix(rng, 2)]
    m[0][0], m[1][1] = 0, -rng.randint(1, 2)
    return AlgebraSpec.from_rows(m, FIELDS[field_id], rescaled)


def _nonzero_items(terms):
    return [(k, c) for k, c in terms.items() if not c.is_zero()]


def _operand_pairs(spec, rng, count=12):
    """Seeded element pairs, and one whose product cancels a term: with
    x2 x1 = c x1 x2, (x1 + x2)(x1 - c x2) has no x1 x2 term."""
    c = (spec.x(2) * spec.x(1)).terms[((1, 1), (0, 0))]
    pairs = [(spec.x(1) + spec.x(2), spec.x(1) - spec.x(2).scale(c))]
    pairs += [(random_element(rng, spec), random_element(rng, spec)) for _ in range(count)]
    return pairs


CASES = [(f, r) for f in FIELDS for r in (True, False)]
IDS = [f"{f}-{'rescaled' if r else 'unscaled'}" for f, r in CASES]


@pytest.mark.parametrize("field_id, rescaled", CASES, ids=IDS)
def test_pbw_kernel_matches_the_reference(field_id, rescaled):
    spec = _spec(field_id, rescaled)
    vecs = list(exponent_vectors(2, 2))
    for b in vecs:
        for a in vecs:
            assert _reorder(spec, b, a) == reference_reorder(spec, b, a)
    rng = random.Random(f"pbw kernel:{field_id}:{rescaled}")
    cancelled = False
    for u, v in _operand_pairs(spec, rng):
        want = reference_ordered_product(spec, u.terms, v.terms, _reorder, spec.sign)
        cancelled = cancelled or any(c.is_zero() for c in want.values())
        got = _ordered_product(spec, u.terms, v.terms, _reorder, spec.sign)
        assert list(got.items()) == _nonzero_items(want)
        assert list((u * v).terms.items()) == _nonzero_items(want)
    assert cancelled


@pytest.mark.parametrize("field_id, rescaled", CASES, ids=IDS)
def test_braided_and_double_kernels_match_the_reference(field_id, rescaled):
    spec = _spec(field_id, rescaled)
    twin = spec.unscaled_twin()
    rng = random.Random(f"hopf kernels:{field_id}:{rescaled}")
    for u, v in _operand_pairs(twin, rng):
        # the same terms read as elements of the braided tensor square, with
        # keys (left leg, right leg), and of the Heisenberg double
        for core in (_braid_core, _smash_core):
            want = reference_ordered_product(twin, u.terms, v.terms, core, -1)
            got = _ordered_product(twin, u.terms, v.terms, core, -1)
            assert list(got.items()) == _nonzero_items(want)


@pytest.mark.parametrize("field_id", list(FIELDS))
def test_alpha_basis_kernels_match_the_reference(field_id):
    spec = _spec(field_id, True)
    rng = random.Random(f"alpha kernels:{field_id}")
    for u, v in _operand_pairs(spec, rng, count=8):
        du, dv = (tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(2))
        for order in permutations(range(2)):
            want = reference_fraction_terms(spec, u, du, order)
            assert list(_fraction_terms(spec, u, du, order).items()) == _nonzero_items(want)
        lu, lv = LocalizedElement(u, du), LocalizedElement(v, dv)
        want = reference_alpha_basis_product(spec, lu.terms, lv.terms)
        got = alpha_basis_product(spec, lu.terms, lv.terms)
        assert list(got.items()) == _nonzero_items(want)


@pytest.mark.parametrize("field_id", list(FIELDS))
def test_one_term_products_match_the_reference(field_id):
    # every d^b1 x^a2 in the box, between a seeded x^a1 and d^b2, with
    # coefficients one, an integer, a fraction and q
    spec = _spec(field_id, True)
    twin = spec.unscaled_twin()
    f = spec.field
    coefficients = [f.one, f.from_int(-2), f.from_fraction(Fraction(3, 4)), f.q_power(1)]
    rng = random.Random(f"one-term kernels:{field_id}")
    vecs = list(exponent_vectors(2, 2))
    core_sizes = {}
    for s, core, sign in (
        (spec, _reorder, spec.sign),
        (twin, _reorder, twin.sign),
        (twin, _braid_core, -1),
        (twin, _smash_core, -1),
    ):
        sizes = core_sizes.setdefault(core.__name__, set())
        for b1, a2 in product(vecs, repeat=2):
            left = {(rng.choice(vecs), b1): rng.choice(coefficients)}
            right = {(a2, rng.choice(vecs)): rng.choice(coefficients)}
            sizes.add(min(len(core(s, b1, a2)), 2))
            want = reference_ordered_product(s, left, right, core, sign)
            got = _ordered_product(s, left, right, core, sign)
            assert list(got.items()) == _nonzero_items(want)
    # one-term and many-term cores (over Q the rescaled PBW cores have one
    # term only); the braiding always has one
    assert core_sizes == {"_reorder": {1, 2}, "_braid_core": {1}, "_smash_core": {1, 2}}
