import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import reference_verify_rep
from qweylab.config import load_config
from qweylab.errors import DomainError, ParameterError, RelationError
from qweylab.exactla import (
    identity,
    mat_mul,
    mat_pow,
    mat_scale,
    matrix,
    scalar_of_identity,
    sparse_kernel,
)
from qweylab.qweyl import AlgebraSpec, exponent_vectors, monomials
from qweylab.rootofunity import (
    _verify_rep,
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
ROOT = Path(__file__).resolve().parent.parent
CONFIGS_WITH_REPS = [
    path
    for folder in (ROOT / "configs", ROOT / "tests" / "configs", ROOT / "perfbench" / "configs")
    for path in sorted(folder.glob("*.json"))
    if json.loads(path.read_text()).get("reps")
]


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


@pytest.mark.parametrize("path", CONFIGS_WITH_REPS, ids=lambda path: path.stem)
def test_configured_reps_pass_the_full_dimension_relation_check(path):
    # build_irrep certifies a tensor rep on its slots; the check of every
    # relation on the dim l^n matrices agrees, with the same character
    reps = load_config(str(path)).build_reps()
    assert reps
    for rep in reps:
        assert reference_verify_rep(rep.spec, rep.l, rep.xs, rep.ys) == rep.character


def seeded_slots(field, n, last, rng):
    """n rank-1 slots: each before the last nilpotent, on the matrix-algebra
    locus (b_m = mu / lambda_m), or with b drawn from {0, 1, 2} and a nonzero
    Azumaya factor, so that it can twist the later factors; the last of the
    given kind, where "off-locus" has b = 0 and Azumaya factor 0."""
    l = field.l

    def slot(kind):
        if kind == "nilpotent":
            return build_irrep_nilpotent(l, field)
        lam = field.from_int(rng.randint(1, 9))
        if kind == "off-locus":
            return build_irrep_rank1(lam, [field.zero] * l, l)
        if kind == "locus":
            mu = field.from_int(rng.randint(1, 9))
            return build_irrep_rank1(lam, [mu / (lam * field.zeta_power(m)) for m in range(l)], l)
        return build_irrep_rank1(lam, [field.from_int(rng.randint(0, 2)) for _ in range(l)], l)

    slots = []
    while len(slots) < n - 1:
        rep = slot(rng.choice(("nilpotent", "locus", "drawn")))
        if not rep.character.azumaya_factors[0].is_zero():
            slots.append(rep)
    return slots + [slot(last)]


@pytest.mark.parametrize("last", ["nilpotent", "locus", "drawn", "off-locus"])
@pytest.mark.parametrize("n, l", [(2, 3), (3, 3), (2, 5), (3, 5)])
def test_seeded_tensor_reps_pass_the_full_dimension_relation_check(n, l, last):
    field = {3: Z3, 5: Z5}[l]
    slots = seeded_slots(field, n, last, random.Random(f"tensor:{n}:{l}:{last}"))
    rep = build_irrep(slots, l)
    assert reference_verify_rep(rep.spec, l, rep.xs, rep.ys) == rep.character
    # the character read from the slots: a_k = t_k a_k^slot and
    # omega_k = omega_k^slot / t_k, with t_k the Azumaya factors before k
    assert rep.character.azumaya_factors == tuple(
        slot.character.azumaya_factors[0] for slot in slots
    )


@pytest.mark.parametrize(
    "x_scale, y_scale, diagonal",
    [(1, 2, ""), (1, 1, "x"), (2, 1, "y"), (1, 1, "xy")],
)
def test_slot_certificate_names_each_failed_relation(x_scale, y_scale, diagonal):
    # the rank-1 certificate fails with the messages of the full check at n = 1
    rep = rank1(Z3, 2, 3)
    x = mat_scale(rep.xs[0], Z3.from_int(x_scale))
    y = mat_scale(rep.ys[0], Z3.from_int(y_scale))
    spread = matrix(3, 3, Z3, {(m, m): Z3.from_int(m + 1) for m in range(3)})
    if "x" in diagonal:
        x = spread
    if "y" in diagonal:
        y = spread
    with pytest.raises(RelationError) as want:
        reference_verify_rep(rep.spec, 3, (x,), (y,))
    with pytest.raises(RelationError, match=f"^{re.escape(str(want.value))}$"):
        _verify_rep(rep.spec, 3, x, y)


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
