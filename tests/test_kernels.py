"""The term-dict kernels, which build their terms from field values through
one accumulator, against their Scalar-level references in conftest: the same
terms in the same key order, with the zero sums dropped."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import (
    random_element,
    random_skew_matrix,
    reference_alpha_basis_product,
    reference_alpha_form_terms,
    reference_alpha_table,
    reference_coproduct_on_leg,
    reference_fraction_terms,
    reference_lattice_reduce,
    reference_one_var_table,
    reference_ordered_product,
    reference_reorder,
)
from qweylab.hopf import _braid_core, _coproduct_on_leg, _smash_core, coproduct
from qweylab.moment import ReductionDatum, TorusData, _lattice_reduce
from qweylab.qweyl import (
    AlgebraSpec,
    LocalizedElement,
    _alpha_form_terms,
    _alpha_table,
    _fraction_terms,
    _one_var_table,
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
    # at q = zeta_3 the box reaches [3]_mu = 0, mu = q^(sign m_22): the table
    # of d_2^s x_2^3 has c_1 = 0
    top = 3 if field_id == "Qzeta3" else 2
    if top == 3:
        assert any(c.is_zero() for s in range(1, 4) for c in reference_one_var_table(spec, 1, s, 3))
    vecs = list(exponent_vectors(2, top))
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


def _top(field):
    """The largest exponent of a table box: l at q = zeta_l, which reaches
    the vanishing q-integer [l] = 0, and 3 otherwise."""
    return field.l or 3


@pytest.mark.parametrize("field_id, rescaled", CASES, ids=IDS)
def test_one_var_tables_match_the_reference(field_id, rescaled):
    spec = _spec(field_id, rescaled)
    top = _top(spec.field)
    for i, s, r in product(range(2), range(top + 1), range(top + 1)):
        want = reference_one_var_table(spec, i, s, r)
        assert _one_var_table(spec, i, s, r) == tuple(
            (k, c) for k, c in enumerate(want) if not c.is_zero()
        )
    if spec.field.l:
        # c_1 of d_2^l x_2 is gamma [l]_mu, the sum of gamma [l-1]_mu and
        # gamma mu^(l-1), both nonzero: a cancelling sum
        assert reference_one_var_table(spec, 1, top, 1)[1].is_zero()
        assert not reference_one_var_table(spec, 1, top - 1, 1)[1].is_zero()


@pytest.mark.parametrize("field_id", list(FIELDS))
def test_alpha_tables_and_forms_match_the_reference(field_id):
    spec = _spec(field_id, True)
    top = _top(spec.field)
    cancelled = False
    for i, r, s in product(range(2), range(top + 1), range(top + 1)):
        want = reference_alpha_table(spec, i, r, s)
        cancelled = cancelled or any(c.is_zero() for c in want.values())
        assert _alpha_table(spec, i, r, s) == tuple(_nonzero_items(want))
    # at q = zeta_l, x_2^l d_2^l = prod_t (q^(-t m_22) alpha_2 - 1) has
    # vanishing middle coefficients, each a sum of nonzero values
    assert cancelled == bool(spec.field.l)
    box = list(exponent_vectors(2, 2))
    for a, b in product(box, repeat=2):
        for order in permutations(range(2)):
            want = reference_alpha_form_terms(spec, a, b, order)
            assert _alpha_form_terms(spec, a, b, order) == tuple(_nonzero_items(want))


@pytest.mark.parametrize("field_id", list(FIELDS))
def test_lattice_reduce_matches_the_reference(field_id):
    spec = _spec(field_id, True)
    f = spec.field
    eta = f.from_int(2) * f.q_power(1)
    datum = ReductionDatum(TorusData.from_rows([[1], [1]]), (eta,))
    # alpha^(1,1) reduces to eta alpha^0, so the two terms cancel
    zero = (0, 0)
    cancelling = {(zero, zero, (0, 0)): f.one, (zero, zero, (1, 1)): -eta.inv()}
    assert list(reference_lattice_reduce(datum, spec, cancelling).values())[0].is_zero()
    rng = random.Random(f"lattice kernel:{field_id}")
    inputs = [cancelling]
    for u, _ in _operand_pairs(spec, rng, count=8):
        inputs.append(LocalizedElement(u, (rng.randint(0, 2), rng.randint(0, 2))).terms)
    for terms in inputs:
        want = reference_lattice_reduce(datum, spec, terms)
        assert list(_lattice_reduce(datum, spec, terms).terms.items()) == _nonzero_items(want)


@pytest.mark.parametrize("field_id", list(FIELDS))
def test_coproduct_on_leg_matches_the_reference(field_id):
    twin = _spec(field_id, True).unscaled_twin()
    cancelled = False
    for exp in exponent_vectors(2, 3):
        delta = coproduct(twin, exp)
        # the items of Delta(x^exp) minus its first term, which repeats
        # that term's key, so its coefficient cancels
        (legs, c), *_ = delta
        for items in (delta, delta + ((legs, -c),)):
            for leg in (0, 1):
                want = reference_coproduct_on_leg(twin, items, leg)
                cancelled = cancelled or any(v.is_zero() for v in want.values())
                got = _coproduct_on_leg(twin, items, leg)
                assert list(got.items()) == _nonzero_items(want)
    assert cancelled
