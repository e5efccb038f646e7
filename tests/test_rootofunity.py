import random
from fractions import Fraction
from pathlib import Path

import pytest

from qweylab.config import load_config
from qweylab.errors import DomainError, ParameterError
from qweylab.exactla import identity, mat_mul, mat_pow, scalar_of_identity, sparse_kernel
from qweylab.qweyl import AlgebraSpec, exponent_vectors, monomials
from qweylab.rootofunity import (
    azumaya_membership,
    build_irrep,
    build_irrep_nilpotent,
    build_irrep_rank1,
    centralizer_basis,
    commutant_dimension,
    export_rep,
    is_central,
    verify_alpha_spectrum,
    verify_centralizer_is_lcenter,
    verify_delta_power,
    verify_lcenter_freeness,
)
from qweylab.scalars import make_field

Z3 = make_field("cyclotomic", 3)
Z5 = make_field("cyclotomic", 5)
C3 = AlgebraSpec.single_parameter(1, Z3)
C3_2 = AlgebraSpec.single_parameter(2, Z3)


def rank1(field, lam_num, mu_num=None, b=None):
    """Rank-1 rep with rational seeds; b defaults to mu / lambda_m."""
    l = field.l
    lam = field.from_fraction(Fraction(lam_num))
    if b is None:
        mu = field.from_fraction(Fraction(mu_num))
        b = [mu / (lam * field.zeta_power(m)) for m in range(l)]
    return build_irrep_rank1(lam, b, l)


def test_is_central():
    assert is_central(C3.x(1, 3), C3)
    assert not is_central(C3.x(1), C3)
    assert is_central(C3.one(), C3)
    assert is_central(C3.d(1, 3), C3)
    assert is_central(C3.x(1, 3) * C3.d(1, 3), C3)


def test_centralizer_basis_n1():
    basis = centralizer_basis(C3, 4)
    keysets = sorted(tuple(sorted(e.terms)) for e in basis)
    assert keysets == [
        ((((0,), (0,)),)),
        ((((0,), (3,)),)),
        ((((3,), (0,)),)),
        ((((3,), (3,)),)),
    ]
    assert len(centralizer_basis(C3, 2)) == 1  # only the constants
    out = verify_centralizer_is_lcenter(C3, 4)
    assert out.passed, out.failures[:4]


def test_centralizer_basis_n2():
    out = verify_centralizer_is_lcenter(C3_2, 3)
    assert out.passed, out.failures[:4]
    assert len(monomials(2, 3, step=3)) == 16


ROOT = Path(__file__).resolve().parent.parent


def unfiltered_centralizer(spec, bound):
    """The centralizer basis from the commutator system over all (B+1)^(2n)
    monomials, formed with the general product, as lists of (key, value)."""
    vecs = list(exponent_vectors(spec.n, bound))
    monos = [(a, b) for a in vecs for b in vecs]
    gens = [spec.x(i) for i in range(1, spec.n + 1)] + [spec.d(i) for i in range(1, spec.n + 1)]
    rows = {}
    for col, (a, b) in enumerate(monos):
        m = spec.monomial(a, b)
        for gi, g in enumerate(gens):
            for key, c in (g * m - m * g).terms.items():
                rows.setdefault((gi, key), {})[col] = c
    kernel = sparse_kernel(list(rows.values()), len(monos), spec.field)
    return [[(monos[col], c) for col, c in sorted(vec.items())] for vec in kernel]


@pytest.mark.parametrize(
    "spec, bounds",
    [
        (C3, range(5)),
        (C3_2, range(5)),
        (load_config(str(ROOT / "perfbench" / "configs" / "verify_l5.json")).spec, [3]),
        (load_config(str(ROOT / "tests" / "configs" / "n3_l5.json")).spec, [2]),
    ]
    + [
        (AlgebraSpec.single_parameter(n, make_field(kind)), range(4 - n, 6 - n))
        for kind in ("rational_function_q", "rational")
        for n in (1, 2)
    ],
    ids=["n1_l3", "n2_l3", "verify_l5", "n3_l5", "qq_n1", "qq_n2", "q_n1", "q_n2"],
)
def test_centralizer_basis_matches_the_unfiltered_system(spec, bounds):
    # the alpha-invariant monomials as unknowns give the kernel vectors of
    # the system over all monomials, in the same order, with the same values
    for bound in bounds:
        got = [list(elt.terms.items()) for elt in centralizer_basis(spec, bound)]
        assert got == unfiltered_centralizer(spec, bound)


def test_centralizer_basis_needs_the_rescaled_normalization():
    with pytest.raises(ParameterError):
        centralizer_basis(AlgebraSpec.single_parameter(1, Z3, rescaled=False), 3)


def test_delta_power():
    for n, l in ((1, 3), (2, 3), (1, 5)):
        spec = AlgebraSpec.single_parameter(n, make_field("cyclotomic", l))
        out = verify_delta_power(spec)
        assert out.passed, out.failures
    with pytest.raises(ParameterError):
        verify_delta_power(AlgebraSpec.single_parameter(1, make_field("rational_function_q")))


def test_lcenter_freeness():
    out = verify_lcenter_freeness(C3)
    assert out.passed, out.failures[:3]


def test_rank1_builder():
    rep = rank1(Z3, 2, 3)
    assert rep.character.a[0] == Z3.from_int(8)
    # X^3 = lambda^3 Id by construction
    assert scalar_of_identity(mat_pow(rep.xs[0], 3)) == Z3.from_int(8)
    # omega comes out of Y^3 exactly; 1 + a*omega = mu^3
    aw = Z3.one + rep.character.a[0] * rep.character.omega[0]
    assert aw == Z3.from_int(27)
    assert azumaya_membership(rep.character)
    assert commutant_dimension(rep) == 1
    spectrum = verify_alpha_spectrum(rep)
    assert spectrum.passed, spectrum.failures


def test_rank1_literal_b_vector():
    rep = build_irrep_rank1(Z3.one, [Z3.one, Z3.one, Z3.one], 3)
    z = Z3.zeta
    assert [rep.xs[0][m][m] for m in range(3)] == [Z3.one, z, z**2]
    assert rep.character.a == (Z3.one,)
    # Y^3 comes out scalar; with unit lambda and unit cycle, 1 + a*omega = 1
    aw = Z3.one + rep.character.a[0] * rep.character.omega[0]
    assert aw == Z3.one
    assert commutant_dimension(rep) == 1


def test_rank1_fully_zeroed_b_is_decomposable():
    lam = Z3.from_int(1)
    rep = build_irrep_rank1(lam, [Z3.zero] * 3, 3)
    assert commutant_dimension(rep) == 3
    aw = Z3.one + rep.character.a[0] * rep.character.omega[0]
    assert aw.is_zero()
    assert not azumaya_membership(rep.character)


def test_rank1_single_zero_entry_is_reducible_but_indecomposable():
    # cutting one edge of the cycle leaves the constraint graph connected:
    # the commutant stays trivial even though an invariant line appears, so
    # departure from the matrix-algebra locus shows up in the character
    # (1 + a*omega = 0), not in the commutant dimension
    lam = Z3.from_int(1)
    b = [Z3.from_int(1), Z3.zero, Z3.from_int(1)]
    rep = build_irrep_rank1(lam, b, 3)
    assert commutant_dimension(rep) == 1
    assert not azumaya_membership(rep.character)


def test_nilpotent_builder():
    rep = build_irrep_nilpotent(3)
    z = Z3.zeta
    assert rep.ys[0][0][1] == z - 1
    assert rep.ys[0][1][2] == z**2 - 1
    assert scalar_of_identity(mat_pow(rep.xs[0], 3)) == Z3.zero
    assert rep.character.a == (Z3.zero,)
    assert rep.character.omega == (Z3.zero,)
    assert commutant_dimension(rep) == 1
    assert azumaya_membership(rep.character)  # 1 + 0*0 = 1


def test_tensor_builder():
    slots = [build_irrep_nilpotent(3), build_irrep_nilpotent(3)]
    rep = build_irrep(slots, 3)
    assert rep.dim == 9
    assert rep.character.a == (Z3.zero, Z3.zero)
    assert commutant_dimension(rep) == 1
    mixed = build_irrep([rank1(Z3, 1, 2), build_irrep_nilpotent(3)], 3)
    assert mixed.dim == 9
    assert commutant_dimension(mixed) == 1


def test_tensor_builder_rejects_singular_slot():
    lam = Z3.from_int(1)
    bad = build_irrep_rank1(lam, [Z3.zero, Z3.zero, Z3.zero], 3)
    with pytest.raises(DomainError) as err:
        build_irrep([bad, build_irrep_nilpotent(3)], 3)
    assert str(err.value) == (
        "slot 1 has a singular Euler operator; it cannot carry "
        "tensor twists (off the invertible locus)"
    )


def test_tensor_builder_accepts_an_off_locus_last_slot():
    # only the slots before the last twist the later factors, so only their
    # Euler operators need inverses; an off-locus last slot is a valid rep
    off = build_irrep_rank1(Z3.one, [Z3.one, Z3.zero, Z3.one], 3)
    assert off.character.azumaya_factors == (Z3.zero,)
    rep = build_irrep([build_irrep_nilpotent(3), off], 3)
    assert rep.dim == 9
    assert rep.character.azumaya_factors == (Z3.one, Z3.zero)
    assert not azumaya_membership(rep.character)
    assert commutant_dimension(rep) == 1
    with pytest.raises(DomainError):
        build_irrep([off, build_irrep_nilpotent(3)], 3)


def test_azumaya_dichotomy_seeded():
    rng = random.Random(2025)
    for field in (Z3, Z5):
        l = field.l
        for _ in range(6):
            lam = rng.randint(1, 7)
            mu = rng.randint(1, 7)
            rep = rank1(field, lam, mu)
            assert azumaya_membership(rep.character)
            assert commutant_dimension(rep) == 1
            # same data with the coordinate's b vector zeroed
            broken = build_irrep_rank1(
                field.from_fraction(Fraction(lam)), [field.zero] * l, l
            )
            assert commutant_dimension(broken) > 1
            assert not azumaya_membership(broken.character)


def test_export_rep_roundtrip_shape():
    rep = build_irrep_nilpotent(3)
    dump = export_rep(rep)
    assert dump["dim"] == 3 and dump["n"] == 1 and dump["l"] == 3
    assert dump["x"][0][1][0] == ["1", "0"]
    assert dump["character"]["a"] == [["0", "0"]]


@pytest.mark.parametrize("name", ["configs/n2_l3.json", "tests/configs/n3_l5.json"])
def test_recorded_diagonal_elements_are_slot_operators(name):
    # the commutant by weight rests on these being elements of the rep's
    # algebra: alpha_i in a nilpotent slot, alpha_<i^-1 x_i in a diag slot
    path = Path(__file__).resolve().parent.parent / name
    config = load_config(str(path))
    for slots, rep in zip(config.rep_slots, config.build_reps()):
        alphas = rep.alpha_matrices()
        diagonals = rep.cache["diagonals"]
        assert len(diagonals) == rep.spec.n
        for i, (slot, diag) in enumerate(zip(slots, diagonals)):
            assert all(set(row) == {r} for r, row in diag.items())
            if slot is None:
                assert diag == alphas[i]
            else:
                before = identity(rep.dim, rep.field)
                for alpha in alphas[:i]:
                    before = mat_mul(before, alpha)
                assert mat_mul(before, diag) == rep.xs[i]
