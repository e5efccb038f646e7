"""The shared term-dict base of the three element classes and the two
monomial enumerators: `monomials` for the box lattices and
`graded_monomials` for the graded sets."""

from functools import cache
from itertools import product
from pathlib import Path

import pytest

from qweylab.config import load_config
from qweylab.errors import ParameterError
from qweylab.hopf import DoubleElement
from qweylab.moment import ReducedElement, ReductionDatum, TorusData, invariant_monomials
from qweylab.qweyl import AlgebraSpec, PBWElement, exponent_vectors, graded_monomials, monomials
from qweylab.scalars import CyclotomicField, make_field

ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATHS = [
    path
    for folder in (ROOT / "configs", ROOT / "perfbench" / "configs", ROOT / "tests" / "configs")
    for path in sorted(folder.glob("*.json"))
]

QQ_Q = make_field("rational_function_q")
q = QQ_Q.q
S1 = AlgebraSpec.single_parameter(1, QQ_Q)
# the double reads M alone, so its other algebra has another M
S1_M2 = AlgebraSpec.from_rows([[2]], QQ_Q)
T11 = TorusData.from_rows([[1]])
ETA2 = ReductionDatum(T11, (QQ_Q.from_int(2),))
ETA3 = ReductionDatum(T11, (QQ_Q.from_int(3),))
TERMS = {((0,), (1,)): q, ((1,), (0,)): QQ_Q.from_int(-2)}
PAIR_TERMS = {((0,), (1,)): q, ((1,), (1,)): QQ_Q.from_int(3)}

# (make(terms) -> element, make_other(terms) -> element of another algebra)
CLASSES = {
    "pbw": (lambda t: PBWElement(S1, t), lambda t: PBWElement(S1.unscaled_twin(), t)),
    "double": (lambda t: DoubleElement(S1, t), lambda t: DoubleElement(S1_M2, t)),
    "reduced": (
        lambda t: ReducedElement(ETA2, S1, {k + ((0,),): c for k, c in t.items()}),
        lambda t: ReducedElement(ETA3, S1, {k + ((0,),): c for k, c in t.items()}),
    ),
}


@pytest.mark.parametrize("kind", sorted(CLASSES))
def test_linear_structure_is_shared(kind):
    make, _ = CLASSES[kind]
    u = make(TERMS)
    v = make(PAIR_TERMS)
    assert make({((0,), (1,)): QQ_Q.zero}).is_zero()
    assert (u - u).is_zero() and (u - u).terms == {}
    assert -(-u) == u and u + v == v + u
    assert (u + v) - v == u
    assert u.scale(0).is_zero() and make({}).scale(q).is_zero()
    assert u.scale(2) == u + u == u.scale(QQ_Q.from_int(2))
    assert u.scale(q).terms == {k: c * q for k, c in u.terms.items()}
    assert u.sorted_terms() == sorted(u.terms.items(), reverse=True)
    assert u != v and not u.is_zero()


@pytest.mark.parametrize("kind", sorted(CLASSES))
def test_adding_elements_of_two_algebras_is_an_error(kind):
    make, make_other = CLASSES[kind]
    u, w = make(TERMS), make_other(TERMS)
    assert u != w
    with pytest.raises(ParameterError):
        u + w
    with pytest.raises(ParameterError):
        u - w


# the classes with a product, and an element of each of another class
PRODUCTS = ["pbw", "double"]


@pytest.mark.parametrize("kind", PRODUCTS)
def test_multiplying_elements_of_two_algebras_is_an_error(kind):
    make, make_other = CLASSES[kind]
    u, w = make(TERMS), make_other(TERMS)
    with pytest.raises(ParameterError):
        u * w
    with pytest.raises(ParameterError):
        w * u
    # a spec of another rank
    if kind == "double":
        rank2 = DoubleElement(AlgebraSpec.single_parameter(2, QQ_Q), {((0, 1), (0, 0)): q})
        with pytest.raises(ParameterError):
            u * rank2


@pytest.mark.parametrize("kind", PRODUCTS)
def test_products_scale_by_scalars_and_refuse_other_classes(kind):
    make, _ = CLASSES[kind]
    u = make(TERMS)
    assert u * 2 == 2 * u == u.scale(2)
    assert u * q == q * u == u.scale(q)
    for other_kind in PRODUCTS:
        if other_kind != kind:
            w = CLASSES[other_kind][0](TERMS)
            with pytest.raises(TypeError):
                u * w


def test_pbw_takes_scalar_operands():
    u = PBWElement(S1, TERMS)
    one = S1.one()
    assert u + 1 == 1 + u == u + one
    assert 1 - u == one - u and u - q == u - S1.scalar_element(q)
    assert (u - u) == 0 and S1.scalar_element(q) == q


def _recursive_vecs(k, budget):
    """Reference enumerator: every length-k vector with entry sum <= budget,
    lexicographically, by plain recursion."""
    if k == 0:
        yield ()
        return
    for h in range(budget + 1):
        for rest in _recursive_vecs(k - 1, budget - h):
            yield (h,) + rest


def _recursive_monomials_up_to(n, bound):
    for total in range(bound + 1):
        for da in range(total + 1):
            for a in _recursive_vecs(n, da):
                if sum(a) != da:
                    continue
                for b in _recursive_vecs(n, total - da):
                    if sum(b) == total - da:
                        yield a, b


@pytest.mark.parametrize("n", [1, 2, 3])
def test_graded_monomials_keep_the_recursive_order(n):
    for bound in range(5):
        assert graded_monomials(n, bound) == list(_recursive_monomials_up_to(n, bound))


def test_exponent_vectors_are_lexicographic():
    assert list(exponent_vectors(3, 2, total=2)) == [
        v for v in _recursive_vecs(3, 2) if sum(v) == 2
    ]
    for n in (1, 2, 3):
        vecs = list(exponent_vectors(n, 3))
        assert vecs == sorted(vecs) and len(vecs) == 4**n


def test_monomial_listings_stay_sorted():
    assert monomials(2, 4, step=3) == sorted(
        ((a, b) for a in product((0, 3), repeat=2) for b in product((0, 3), repeat=2))
    )
    torus = TorusData.from_rows([[1], [-1]])
    spec = AlgebraSpec.single_parameter(2, QQ_Q)
    want = sorted(
        (a, b)
        for a, b in _recursive_monomials_up_to(2, 3)
        if torus.is_invariant(spec, tuple(p - r for p, r in zip(a, b)))
    )
    assert invariant_monomials(torus, spec, 3) == want


def filtered_pairs(n, bound, step=1, keep=None):
    """Reference for `monomials`: every pair (a, b) of the box, kept when its
    degree a - b passes keep (each degree decided once)."""
    vecs = list(product(range(0, bound + 1, step), repeat=n))
    decide = cache(keep) if keep is not None else (lambda deg: True)
    return sorted(
        (a, b) for a in vecs for b in vecs if decide(tuple(p - r for p, r in zip(a, b)))
    )


@pytest.mark.parametrize(
    "path", CONFIG_PATHS, ids=lambda path: str(path.relative_to(ROOT).with_suffix(""))
)
def test_monomials_match_the_filtered_box(path):
    cfg = load_config(str(path))
    spec, n = cfg.spec, cfg.spec.n
    one = spec.field.one

    def alpha_invariant(deg):
        return all(spec.q_power(w) == one for w in spec.weight(deg))

    bound = cfg.bounds["exponent_bound"]
    want = filtered_pairs(n, bound, keep=alpha_invariant)
    assert monomials(n, bound, keep=alpha_invariant) == want
    if not isinstance(spec.field, CyclotomicField):
        return
    l = spec.field.l
    for bound in range(2 * l + 2):
        assert monomials(n, bound, step=l) == filtered_pairs(n, bound, step=l)
    if cfg.torus is not None and cfg.torus.d:
        # the fiberwise-splitting law keeps the degrees whose comoment
        # weights are all 0 mod l
        def weights_vanish_mod_l(deg):
            return all(w % l == 0 for w in cfg.torus.comoment_weights(spec, deg))

        assert monomials(n, l - 1, keep=weights_vanish_mod_l) == filtered_pairs(
            n, l - 1, keep=weights_vanish_mod_l
        )


def test_monomials_decide_each_degree_once():
    seen = []

    def keep(deg):
        seen.append(deg)
        return sum(deg) % 4 == 0

    got = monomials(2, 5, step=2, keep=keep)
    # degrees in {-4, -2, 0, 2, 4}^2, each asked once
    assert sorted(seen) == sorted(product(range(-4, 5, 2), repeat=2))
    assert got == filtered_pairs(2, 5, step=2, keep=keep)
    assert monomials(3, 0) == [((0, 0, 0), (0, 0, 0))]
