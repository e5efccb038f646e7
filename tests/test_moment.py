import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_skew_matrix, round_trip_product
from qweylab.checks import run_verification_suite
from qweylab.config import load_config, parse_config
from qweylab.errors import DomainError, ParameterError
from qweylab.moment import (
    ReductionDatum,
    TorusData,
    classical_moment_eval,
    invariant_monomials,
    moment_ideal_reduce,
    quantum_comoment,
    reduced_product,
    verify_moment_identity,
)
from qweylab.qweyl import AlgebraSpec, LocalizedElement, graded_monomials
from qweylab.scalars import make_field

QQ = make_field("rational")
QQ_Q = make_field("rational_function_q")
q = QQ_Q.q

S1 = AlgebraSpec.single_parameter(1, QQ_Q)
S2 = AlgebraSpec.single_parameter(2, QQ_Q)

T11 = TorusData.from_rows([[1]])
T21 = TorusData.from_rows([[1], [1]])


def datum_for(torus, eta_values, field=QQ_Q):
    return ReductionDatum(torus, tuple(field.from_int(v) for v in eta_values))


def test_torus_validation():
    with pytest.raises(ParameterError):
        TorusData.from_rows([[1, 1], [1, 1]])  # rank 1 < d = 2
    with pytest.raises(ParameterError):
        TorusData(1, 2, ((1, 0),))
    TorusData.from_rows([[2, 0], [0, 3], [1, 1]])


@pytest.mark.parametrize("rows, entry", [([[0.7], [1]], "A[0][0]"), ([[1], [False]], "A[1][0]")])
def test_torus_rejects_non_integer_entries(rows, entry):
    with pytest.raises(ParameterError, match=rf"^{re.escape(entry)}: expected an integer"):
        TorusData.from_rows(rows)
    assert TorusData.from_rows([[0], [1]]).a == ((0,), (1,))


def test_quantum_comoment():
    z1 = quantum_comoment([1], T11, S1, "z")
    assert z1.equals(LocalizedElement.from_pbw(S1.alpha(1)))
    u1 = quantum_comoment([1], T21, S2, "u")
    assert u1.equals(LocalizedElement.from_pbw(S2.alpha(1) * S2.alpha(2)))
    zinv = quantum_comoment([-1], T11, S1, "z")
    assert zinv.equals(LocalizedElement(S1.one(), (1,)))


def test_classical_moment_eval():
    zero = (QQ.zero, QQ.zero)
    t, k = classical_moment_eval(zero, zero, T21)
    assert t == (QQ.one, QQ.one) and k == (QQ.one,)
    p = (QQ.one, QQ.one)
    w = (QQ.one, QQ.from_int(2))
    t, k = classical_moment_eval(p, w, T21)
    assert t == (QQ.from_int(2), QQ.from_int(3))
    assert k == (QQ.from_int(6),)
    with pytest.raises(DomainError):
        classical_moment_eval((QQ.one,), (QQ.from_int(-1),), T11)


def test_moment_identity():
    assert verify_moment_identity(T11, S1).passed
    assert verify_moment_identity(T21, S2).passed
    rng = random.Random(12)
    for _ in range(3):
        n = rng.randint(1, 3)
        d = rng.randint(1, n)
        rows = None
        while rows is None:
            cand = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
            try:
                torus = TorusData.from_rows(cand)
                rows = cand
            except ParameterError:
                continue
        spec = AlgebraSpec(n, random_skew_matrix(rng, n), True, QQ_Q)
        out = verify_moment_identity(torus, spec)
        assert out.passed, out.failures[:4]


def test_reduce_euler_example():
    datum = ReductionDatum(T11, (QQ_Q.from_int(2),))
    red = moment_ideal_reduce(S1.x(1) * S1.d(1), datum)
    eta = QQ_Q.from_int(2)
    assert red.terms == {((0,), (0,), (0,)): eta - 1}


def test_reduce_quadratic_example():
    eta = q**3  # generic-enough point in Q(q)
    datum = ReductionDatum(T11, (eta,))
    red = moment_ideal_reduce(S1.x(1, 2) * S1.d(1, 2), datum)
    expected = q**-1 * (eta - 1) * (eta - q)
    assert red.terms == {((0,), (0,), (0,)): expected}


def test_reduce_lattice_shift():
    datum = datum_for(T21, [3], S2.field)
    elt = LocalizedElement.from_pbw(
        S2.alpha_power((2, 1))
    )
    red = moment_ideal_reduce(elt, datum)
    # alpha^(2,1) = eta * alpha^(1,0)
    assert red.terms == {((0, 0), (0, 0), (1, 0)): S2.field.from_int(3)}


def test_reduce_idempotent_linear_absorbing():
    rng = random.Random(5)
    datum = datum_for(T21, [2], QQ_Q)
    from conftest import random_element

    for _ in range(15):
        u = LocalizedElement(
            random_element(rng, S2, 3, 3), (rng.randint(0, 1), rng.randint(0, 1))
        )
        v = LocalizedElement(
            random_element(rng, S2, 3, 3), (rng.randint(0, 1), rng.randint(0, 1))
        )
        ru, rv = moment_ideal_reduce(u, datum), moment_ideal_reduce(v, datum)
        assert moment_ideal_reduce(ru, datum) == ru
        c = QQ_Q.from_int(rng.randint(-3, 3))
        assert moment_ideal_reduce(u + v * c, datum) == ru + rv.scale(c)
        # left-ideal absorption: u (Phi(u_j) - eta_j) reduces to zero
        gen = quantum_comoment([1], T21, S2, "u") - datum.eta[0]
        assert moment_ideal_reduce(u * gen, datum).is_zero()


def test_reduce_confluence_coord_order():
    rng = random.Random(6)
    from conftest import random_element

    datum = datum_for(T21, [5], QQ_Q)
    for _ in range(10):
        u = LocalizedElement(random_element(rng, S2, 4, 3), (0, 0))
        fwd = moment_ideal_reduce(u, datum, coord_order=(0, 1))
        bwd = moment_ideal_reduce(u, datum, coord_order=(1, 0))
        assert fwd == bwd


def test_invariant_monomials():
    monos = invariant_monomials(T21, S2, 2)
    assert ((1, 0), (0, 1)) in monos  # x1 d2
    assert all(a != (1, 0) or b != (0, 0) for a, b in monos)  # x1 absent
    m1 = invariant_monomials(T11, S1, 4)
    assert m1 == [((a,), (a,)) for a in range(3)]


def test_reduced_product():
    datum = datum_for(T21, [2], QQ_Q)
    x1d2 = moment_ideal_reduce(S2.x(1) * S2.d(2), datum)
    x2d1 = moment_ideal_reduce(S2.x(2) * S2.d(1), datum)
    prod = reduced_product(x1d2, x2d1, datum)
    # oracle: full product in the algebra, then reduction
    direct = moment_ideal_reduce((S2.x(1) * S2.d(2)) * (S2.x(2) * S2.d(1)), datum)
    assert prod == direct
    one = moment_ideal_reduce(S2.one(), datum)
    assert reduced_product(x1d2, one, datum) == x1d2
    with pytest.raises(ParameterError):
        reduced_product(moment_ideal_reduce(S2.x(1), datum), one, datum)


def test_reduced_product_rejects_another_datum_or_spec():
    at_2 = datum_for(T21, [2], QQ_Q)
    x1d2 = moment_ideal_reduce(S2.x(1) * S2.d(2), at_2)
    x2d1 = moment_ideal_reduce(S2.x(2) * S2.d(1), at_2)
    with pytest.raises(ParameterError, match="datum"):
        reduced_product(x1d2, x2d1, datum_for(T21, [5], QQ_Q))
    # the same datum with elements of another spec over it
    other = AlgebraSpec(2, ((1, 2), (-2, 1)), True, QQ_Q)
    y2d1 = moment_ideal_reduce(other.x(2) * other.d(1), at_2)
    with pytest.raises(ParameterError, match="spec"):
        reduced_product(x1d2, y2d1, at_2)


def test_reduced_product_associative():
    rng = random.Random(9)
    datum = datum_for(T21, [3], QQ_Q)
    monos = invariant_monomials(T21, S2, 3)
    for _ in range(25):
        def rand_invariant():
            u = S2.zero()
            for _ in range(2):
                a, b = monos[rng.randrange(len(monos))]
                u = u + S2.monomial(a, b, rng.randint(-2, 2))
            return moment_ideal_reduce(u, datum)

        u, v, w = rand_invariant(), rand_invariant(), rand_invariant()
        assert reduced_product(reduced_product(u, v, datum), w, datum) == reduced_product(
            u, reduced_product(v, w, datum), datum
        )


def test_reduction_laws_random_matrices():
    from conftest import random_element

    rng = random.Random(31337)
    checked = 0
    while checked < 15:
        n = rng.randint(1, 3)
        d = rng.randint(1, n)
        try:
            torus = TorusData.from_rows(
                [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
            )
        except ParameterError:
            continue
        spec = AlgebraSpec(n, random_skew_matrix(rng, n), True, QQ_Q)
        datum = ReductionDatum(
            torus, tuple(QQ_Q.from_int(rng.randint(2, 5)) for _ in range(d))
        )
        u = LocalizedElement(
            random_element(rng, spec, 3, 3),
            tuple(rng.randint(0, 1) for _ in range(n)),
        )
        fwd = moment_ideal_reduce(u, datum, coord_order=range(n))
        bwd = moment_ideal_reduce(u, datum, coord_order=reversed(range(n)))
        assert fwd == bwd
        assert moment_ideal_reduce(fwd, datum) == fwd
        j = rng.randrange(d)
        gen = quantum_comoment(
            [1 if t == j else 0 for t in range(d)], torus, spec, "u"
        ) - datum.eta[j]
        assert moment_ideal_reduce(u * gen, datum).is_zero()
        checked += 1


def test_invariant_count_independent_of_eta():
    from qweylab.exactla import SparseEliminator

    for eta_val in (2, 5):
        datum = datum_for(T21, [eta_val], QQ_Q)
        monos = invariant_monomials(T21, S2, 3)
        keys = {}
        elim = SparseEliminator(QQ_Q)
        dims = []
        for a, b in monos:
            red = moment_ideal_reduce(S2.monomial(a, b), datum)
            vec = {}
            for kk, c in red.terms.items():
                vec[keys.setdefault(kk, len(keys))] = c
            elim.add(vec)
        dims.append(elim.rank)
    assert len(set(dims)) == 1


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
VERIFY_QQ = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "verify_qq.json"


def verify_qq_variant(diagonal, column=None):
    """The benchmark's Q(q) config with another diagonal of M and, given a
    column, d = 1 with that column as A."""
    raw = json.loads(VERIFY_QQ.read_text())
    for i, m in enumerate(diagonal):
        raw["M"][i][i] = m
    if column is not None:
        raw["d"], raw["A"], raw["eta"] = 1, [[a] for a in column], raw["eta"][:1]
    return parse_config(raw)


# (diagonal of M, column of A or None) of the non-uniform-diagonal variants
NON_UNIFORM = [
    ((1, 1, 2), None),
    ((1, 1, 2), (1, 1, 1)),
    ((1, -1, 2), None),
    ((1, 0, 1), None),
    ((2, 1, 1), (1, 2, 1)),
]


@pytest.mark.parametrize("diagonal, column", NON_UNIFORM)
def test_moment_reduction_holds_for_non_uniform_diagonals(diagonal, column):
    config = verify_qq_variant(diagonal, column)
    report = run_verification_suite(config, only={"moment-reduction"}, verbose=True)
    (record,) = report["checks"]
    assert (record["status"], record["detail"]) == ("pass", "80 seeded elements")


def test_unweighted_kernel_breaks_reduced_associativity():
    config = verify_qq_variant((1, 1, 2))
    spec, torus, datum = config.spec, config.torus, config.datum()
    # the kernel of A^t, blind to the diagonal of M
    unweighted = [
        (a, b)
        for a, b in graded_monomials(3, 3)
        if not any(sum(torus.a[i][j] * (a[i] - b[i]) for i in range(3)) for j in range(2))
    ]
    x2d1d3, x1x3d2 = ((0, 1, 0), (1, 0, 1)), ((1, 0, 1), (0, 1, 0))
    assert set(unweighted) - set(invariant_monomials(torus, spec, 3)) == {x2d1d3, x1x3d2}
    u = moment_ideal_reduce(spec.monomial(*x2d1d3), datum)
    v = moment_ideal_reduce(spec.monomial(*x1x3d2), datum)

    def unguarded_product(s, t):
        return round_trip_product(s, t, datum)

    assert unguarded_product(unguarded_product(u, v), u) != unguarded_product(
        u, unguarded_product(v, u)
    )
    assert not u.is_invariant() and not v.is_invariant()
    with pytest.raises(ParameterError):
        reduced_product(u, v, datum)


def test_torus_character_is_the_product_of_powers():
    torus = TorusData.from_rows([[2, -1], [-1, 0], [0, 3]])
    t = (QQ.from_int(2), QQ.from_fraction(Fraction(-3, 5)), QQ.from_int(7))
    want = []
    for j in range(torus.d):
        acc = QQ.one
        for i in range(torus.n):
            acc = acc * t[i] ** torus.a[i][j]
        want.append(acc)
    assert torus.character(t) == tuple(want)
    assert want == [QQ.from_fraction(Fraction(-20, 3)), QQ.from_fraction(Fraction(343, 2))]


def seeded_invariant(rng, spec, datum):
    """The reduction of three invariant monomials, each over a seeded
    denominator alpha^k (k in {0, 1}^n), so that alpha exponents of both
    signs occur."""
    monos = invariant_monomials(datum.torus, spec, 3)
    u = LocalizedElement.from_pbw(spec.zero())
    for _ in range(3):
        a, b = monos[rng.randrange(len(monos))]
        denom = tuple(rng.randint(0, 1) for _ in range(spec.n))
        u = u + LocalizedElement(spec.monomial(a, b, rng.choice([-2, -1, 1, 2])), denom)
    return moment_ideal_reduce(u, datum)


REFERENCE_CONFIGS = {
    "generic_q": lambda: load_config(str(CONFIGS / "generic_q.json")),
    "n2_l3": lambda: load_config(str(CONFIGS / "n2_l3.json")),
    "verify_qq": lambda: load_config(str(VERIFY_QQ)),
    **{
        f"verify_qq-diag{diagonal}-A{column}": (
            lambda diagonal=diagonal, column=column: verify_qq_variant(diagonal, column)
        )
        for diagonal, column in NON_UNIFORM
    },
}


@pytest.mark.parametrize("name", list(REFERENCE_CONFIGS))
def test_reduced_product_matches_the_fraction_round_trip(name):
    config = REFERENCE_CONFIGS[name]()
    spec, datum = config.spec, config.datum()
    rng = random.Random(f"alpha-basis product:{name}")
    elements = [seeded_invariant(rng, spec, datum) for _ in range(8)]
    assert any(k < 0 for u in elements for (_, _, c) in u.terms for k in c)
    products = []
    for u, v in zip(elements, elements[1:] + elements[:1]):
        products.append(reduced_product(u, v, datum))
        assert products[-1] == round_trip_product(u, v, datum)
    # two longer left factors: only two, as the round trip of longer factors
    # meets large alpha exponents and is slow where A = (1, 2, 1)
    for uv, w in zip(products[:2], elements[2:]):
        assert reduced_product(uv, w, datum) == round_trip_product(uv, w, datum)
    # the guards hold on this config too
    u = elements[0]
    other_eta = tuple(e * spec.field.from_int(2) for e in datum.eta)
    with pytest.raises(ParameterError, match="datum"):
        reduced_product(u, u, ReductionDatum(datum.torus, other_eta))
    doubled = tuple(tuple(2 * m for m in row) for row in spec.m)
    twin = AlgebraSpec(spec.n, doubled, True, spec.field)
    with pytest.raises(ParameterError, match="spec"):
        reduced_product(u, moment_ideal_reduce(twin.one(), datum), datum)
    outside = moment_ideal_reduce(spec.x(1), datum)
    with pytest.raises(ParameterError, match="invariant"):
        reduced_product(u, outside, datum)
