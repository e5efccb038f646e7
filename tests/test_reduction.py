import functools
import itertools
import json
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import reference_moment_operators
from qweylab import reduction
from qweylab.checks import run_verification_suite
from qweylab.config import load_config, parse_config
from qweylab.errors import DomainError, RelationError
from qweylab.exactla import (
    SparseEliminator,
    mat_eq,
    mat_mul,
    mat_pow,
    scalar_of_identity,
    sparse_kernel,
)
from qweylab.moment import TorusData
from qweylab.reduction import (
    compatible_eta_grid,
    cover_fiber_points,
    lth_root_in_field,
    moment_operators,
    reduced_endomorphism_algebra,
    restriction_kernel_check,
    weight_space,
)
from qweylab.rootofunity import build_irrep, build_irrep_nilpotent, build_irrep_rank1
from qweylab.scalars import make_field
from test_exactla import dense_inv, from_dense, to_dense
from test_rootofunity import CONFIGS_WITH_REPS, Z5, seeded_slots

Z3 = make_field("cyclotomic", 3)
T11 = TorusData.from_rows([[1]])
T21 = TorusData.from_rows([[1], [1]])
T2_NEG = TorusData.from_rows([[1], [-1]])
N2_L3 = Path(__file__).resolve().parent.parent / "configs" / "n2_l3.json"
N3_L5 = Path(__file__).resolve().parent / "configs" / "n3_l5.json"


def rank1(field, lam_num, mu_num):
    l = field.l
    lam = field.from_fraction(Fraction(lam_num))
    mu = field.from_fraction(Fraction(mu_num))
    b = [mu / (lam * field.zeta_power(m)) for m in range(l)]
    return build_irrep_rank1(lam, b, l)


def full_reduced_endomorphism_algebra(rep, torus, eta):
    """Reference for reduced_endomorphism_algebra: the commutant of
    blockdiag(g, ..., g) on Hom(V_eta, V) = V^m as one kernel of the full
    (dim m)^2-unknown commutation system, and the image of End(V_eta) tested
    against it by membership and rank.  Returns (dimension, iso_verified)."""
    ws = weight_space(rep, torus, eta)
    m = ws.dimension
    f = rep.field
    dim = rep.dim
    nW = dim * m
    rows = []
    for g in list(rep.xs) + list(rep.ys):
        for br in range(m):
            for bc in range(m):
                for r in range(dim):
                    for c in range(dim):
                        # (G Theta - Theta G)[br*dim+r][bc*dim+c] = 0
                        row = {}
                        for k in range(dim):
                            if not g[r][k].is_zero():
                                key = (br * dim + k) * nW + (bc * dim + c)
                                row[key] = row.get(key, f.zero) + g[r][k]
                            if not g[k][c].is_zero():
                                key = (br * dim + r) * nW + (bc * dim + k)
                                row[key] = row.get(key, f.zero) - g[k][c]
                        row = {kk: v for kk, v in row.items() if not v.is_zero()}
                        if row:
                            rows.append(row)
    commutant = sparse_kernel(rows, nW * nW, f)
    cdim = len(commutant)
    elim = SparseEliminator(f)
    for vec in commutant:
        elim.add(dict(vec))
    image_rank = SparseEliminator(f)
    iso = True
    for p in range(m):
        for qq in range(m):
            vec = {(qq * dim + t) * nW + p * dim + t: f.one for t in range(dim)}
            if not elim.contains(dict(vec)):
                iso = False
            image_rank.add(dict(vec))
    if image_rank.rank != m * m or cdim != m * m:
        iso = False
    return cdim, iso


def assert_matches_full_system(rep, torus, eta):
    out = reduced_endomorphism_algebra(rep, torus, eta)
    assert (out.dimension, out.iso_verified) == full_reduced_endomorphism_algebra(rep, torus, eta)
    return out


def full_restriction_kernel_check(rep, torus, eta):
    """Reference for restriction_kernel_check: the left ideal spanned by
    E_rc (Phi(u_j) - eta_j Id) over all matrix units, as one elimination over
    all dim^2 entries.  Returns the four compared fields."""
    ws = weight_space(rep, torus, eta)
    f = rep.field
    dim = rep.dim
    elim = SparseEliminator(f)
    contained = True
    for op, ej in zip(ws.moment_ops, ws.eta):
        # dense rows of op - eta_j Id; an absent sparse entry reads as zero
        shifted = [
            [op[r][c] - ej if r == c else op[r][c] for c in range(dim)]
            for r in range(dim)
        ]
        for c in range(dim):
            for r in range(dim):
                elim.add(
                    {
                        r * dim + k: v
                        for k, v in enumerate(shifted[c])
                        if not v.is_zero()
                    }
                )
        for v in ws.basis:
            image = [sum((row[k] * x for k, x in v.items()), f.zero) for row in shifted]
            if any(not c.is_zero() for c in image):
                contained = False
    dim_expected = dim * (dim - ws.dimension)
    passed = elim.rank == dim_expected and contained
    return elim.rank, dim_expected, contained, passed


def test_moment_operators_rank1():
    rep = rank1(Z3, 1, 2)
    ops, scalars = moment_operators(rep, T11)
    assert scalars == [Z3.from_int(8)]  # mu^3
    assert scalar_of_identity(mat_pow(ops[0], 3)) == Z3.from_int(8)


def test_moment_operators_tensor():
    rep = build_irrep([rank1(Z3, 1, 2), rank1(Z3, 2, 1)], 3)
    ops, scalars = moment_operators(rep, T21)
    assert len(ops) == 1 and scalars[0] == Z3.from_int(8)
    assert_matches_reference_moment_operators(rep, TorusData.from_rows([[1, 0], [0, 1]]))


def test_moment_operators_with_a_negative_exponent():
    # A = [[1], [-1]]: the operator is alpha_1 alpha_2^-1, its l-th power
    # the scalar c_1 / c_2 of the Azumaya factors
    for rep in load_config(str(N2_L3)).build_reps():
        ops, scalars = moment_operators(rep, T2_NEG)
        alpha1, alpha2 = rep.alpha_matrices()
        want = mat_mul(alpha1, from_dense(dense_inv(to_dense(alpha2)), rep.field))
        assert ops == [want]
        c1, c2 = rep.character.azumaya_factors
        assert scalars == [c1 / c2]
        assert scalar_of_identity(mat_pow(ops[0], rep.l)) == c1 / c2


def assert_matches_reference_moment_operators(rep, torus) -> bool:
    """moment_operators(rep, torus) against the dim-l^n reference: the same
    operators and scalars, or the same DomainError.  True when they exist."""
    try:
        want_ops, want_scalars = reference_moment_operators(rep, torus)
    except DomainError as err:
        with pytest.raises(DomainError, match=f"^{re.escape(str(err))}$"):
            moment_operators(rep, torus)
        return False
    ops, scalars = moment_operators(rep, torus)
    assert len(ops) == len(want_ops) and all(map(mat_eq, ops, want_ops))
    assert scalars == want_scalars
    return True


def reference_tori(n):
    """The tori the moment operators are compared under, for a rep of rank n:
    one column with a negative exponent on the last slot, [[1], [-1]] at
    n = 2, and for n >= 2 a d = 2 torus with exponents -2, 0, 1 and 2."""
    tori = [TorusData.from_rows([[1]] * (n - 1) + [[-1]])]
    if n >= 2:
        tori.append(TorusData.from_rows([[-2, 1]] + [[1, i] for i in range(n - 1)]))
    return tori


@pytest.mark.parametrize("path", CONFIGS_WITH_REPS, ids=lambda path: path.stem)
def test_configured_reps_match_the_full_dimension_moment_operators(path):
    # under the config's own A, a negative exponent and a d = 2 torus
    config = load_config(str(path))
    own = [config.torus] if config.torus.d else []
    for rep in config.build_reps():
        for torus in own + reference_tori(rep.spec.n):
            assert_matches_reference_moment_operators(rep, torus)


@pytest.mark.parametrize("last", ["nilpotent", "locus", "drawn", "off-locus"])
@pytest.mark.parametrize("n, l", [(2, 3), (3, 3), (2, 5), (3, 5)])
def test_seeded_tensor_reps_match_the_full_dimension_moment_operators(n, l, last):
    field = {3: Z3, 5: Z5}[l]
    rep = build_irrep(seeded_slots(field, n, last, random.Random(f"moment:{n}:{l}:{last}")), l)
    tori = [TorusData.from_rows([[1]] * n)] + reference_tori(n)
    built = [assert_matches_reference_moment_operators(rep, torus) for torus in tori]
    # a singular last slot, off-locus or drawn, has no inverse for the
    # negative exponent
    singular = rep.character.azumaya_factors[-1].is_zero()
    assert built == [True, not singular, True] and singular >= (last == "off-locus")


def test_moment_operators_need_the_inverted_operator_on_the_locus():
    off = build_irrep_rank1(Z3.one, [Z3.one, Z3.zero, Z3.one], 3)
    rep = build_irrep([build_irrep_nilpotent(3), off], 3)
    assert moment_operators(rep, T21)[1] == [Z3.zero]
    with pytest.raises(DomainError) as err:
        moment_operators(rep, T2_NEG)
    assert str(err.value) == (
        "Euler operator 2 is singular but A needs its inverse (off the invertible locus)"
    )


def test_weight_space_rank1():
    rep = rank1(Z3, 1, 2)
    grid = compatible_eta_grid(rep, T11)
    assert len(grid) == 3
    total = 0
    for eta in grid:
        ws = weight_space(rep, T11, eta)
        assert ws.dimension == 1
        total += ws.dimension
    assert total == 3
    # incompatible eta: eta^3 != mu^3
    bad = weight_space(rep, T11, (Z3.from_int(5),))
    assert bad.dimension == 0


def test_weight_space_tensor():
    rep = build_irrep([rank1(Z3, 1, 2), rank1(Z3, 1, 3)], 3)
    grid = compatible_eta_grid(rep, T21)
    assert len(grid) == 3
    total = 0
    for eta in grid:
        ws = weight_space(rep, T21, eta)
        assert ws.dimension == 3  # l^(n-d)
        total += ws.dimension
    assert total == 9


def test_restriction_kernel_rank1():
    rep = rank1(Z3, 1, 2)
    eta = compatible_eta_grid(rep, T11)[0]
    report = restriction_kernel_check(rep, T11, eta)
    assert report.passed
    assert report.dim_ideal == 6  # 3*(3-1)


def test_restriction_kernel_tensor():
    rep = build_irrep([rank1(Z3, 1, 2), rank1(Z3, 1, 3)], 3)
    eta = compatible_eta_grid(rep, T21)[1]
    report = restriction_kernel_check(rep, T21, eta)
    assert report.passed
    assert report.weight_dim == 3
    assert report.dim_ideal == 9 * 6


def test_restriction_kernel_trivial_subtorus():
    rep = rank1(Z3, 1, 2)
    t0 = TorusData(1, 0, ((),))
    report = restriction_kernel_check(rep, t0, ())
    assert report.passed and report.dim_ideal == 0 and report.weight_dim == 3


def test_reduced_endomorphism_rank1():
    rep = rank1(Z3, 1, 2)
    eta = compatible_eta_grid(rep, T11)[0]
    out = reduced_endomorphism_algebra(rep, T11, eta)
    assert out.iso_verified and out.dimension == 1


def test_reduced_endomorphism_tensor():
    rep = build_irrep([rank1(Z3, 1, 2), rank1(Z3, 1, 3)], 3)
    for eta in compatible_eta_grid(rep, T21):
        out = reduced_endomorphism_algebra(rep, T21, eta)
        assert out.iso_verified
        assert out.dimension == 9  # (dim V_eta)^2 = l^(2(n-d))


def test_reduced_endomorphism_off_locus():
    rep = build_irrep_rank1(Z3.from_int(1), [Z3.one, Z3.zero, Z3.one], 3)
    # 1 + a w = 0; alpha is singular but still acts; eta = 0 is not allowed,
    # and the only weight values with eigenvectors are eigenvalues of alpha
    ops, scalars = moment_operators(rep, T11)
    assert scalars[0].is_zero()
    ws = weight_space(rep, T11, (Z3.from_int(1),))
    assert ws.dimension == 0  # alpha is nilpotent-like off the locus here
    # the degenerate weight value 0 has a nonzero space; the comparison map
    # is still run and reported -- for this indecomposable rep it happens to
    # hold (trivial commutant), the locus departure showing in the character
    ws0 = weight_space(rep, T11, (Z3.zero,))
    assert ws0.dimension == 1
    out = reduced_endomorphism_algebra(rep, T11, (Z3.zero,))
    assert out.iso_verified and out.dimension == 1
    # for the decomposable rep the identity genuinely fails
    split = build_irrep_rank1(Z3.from_int(1), [Z3.zero] * 3, 3)
    out2 = assert_matches_full_system(split, T11, (Z3.zero,))
    assert not out2.iso_verified
    assert out2.weight_dim == 3 and out2.dimension > 9
    assert_matches_full_system(rep, T11, (Z3.zero,))


def test_reduced_endomorphism_matches_full_system():
    config = load_config(str(N2_L3))
    pairs = 0
    for rep in config.build_reps():
        for eta in compatible_eta_grid(rep, config.torus):
            if weight_space(rep, config.torus, eta).dimension:
                out = assert_matches_full_system(rep, config.torus, eta)
                assert out.iso_verified and out.dimension == 9
                pairs += 1
    assert pairs == 6


def test_restriction_kernel_matches_full_system():
    config = load_config(str(N2_L3))
    pairs = 0
    for rep in config.build_reps():
        for eta in compatible_eta_grid(rep, config.torus):
            report = restriction_kernel_check(rep, config.torus, eta)
            got = (report.dim_ideal, report.dim_expected, report.passed)
            dim_ideal, dim_expected, contained, passed = full_restriction_kernel_check(
                rep, config.torus, eta
            )
            # weight_space certifies the containment the reference tests
            assert contained and got == (dim_ideal, dim_expected, passed)
            pairs += 1
    assert pairs == 6


def test_weight_space_self_check_raises(monkeypatch):
    rep = rank1(Z3, 1, 2)
    grid = compatible_eta_grid(rep, T11)
    wrong = weight_space(rep, T11, grid[1]).basis
    monkeypatch.setattr(reduction, "sparse_kernel", lambda rows, ncols, field: wrong)
    with pytest.raises(RelationError):
        weight_space(rep, T11, grid[0])


def test_fiber_pipeline_l5():
    z5 = make_field("cyclotomic", 5)
    rep = rank1(z5, 2, 3)
    t11 = TorusData.from_rows([[1]])
    grid = compatible_eta_grid(rep, t11)
    assert len(grid) == 5
    for eta in grid:
        assert weight_space(rep, t11, eta).dimension == 1
        assert restriction_kernel_check(rep, t11, eta).passed
        out = reduced_endomorphism_algebra(rep, t11, eta)
        assert out.iso_verified and out.dimension == 1


def test_cover_count_matches_weight_dimension():
    # matched instance: same character values feed both the cover enumeration
    # and the weight-space computation, and both sides give l^(n-d)
    rep = build_irrep([rank1(Z3, 1, 2), rank1(Z3, 2, 3)], 3)
    values = [
        Z3.one + a * w for a, w in zip(rep.character.a, rep.character.omega)
    ]
    for eta in compatible_eta_grid(rep, T21):
        ws = weight_space(rep, T21, eta)
        sols = cover_fiber_points(values, T21, eta, 10000)
        assert len(sols) == ws.dimension == 3


def test_lth_root():
    assert lth_root_in_field(Z3.from_int(8), Z3) == Z3.from_int(2)
    assert lth_root_in_field(Z3.from_int(-27), Z3) == Z3.from_int(-3)
    assert lth_root_in_field(Z3.from_fraction(Fraction(1, 8)), Z3) == Z3.from_fraction(
        Fraction(1, 2)
    )
    assert lth_root_in_field(Z3.from_int(2), Z3) is None
    assert lth_root_in_field(Z3.zeta, Z3) is None


def test_cover_fiber_points_example():
    vals = [Z3.one, Z3.one]
    sols = cover_fiber_points(vals, T21, [Z3.one], 10000)
    assert len(sols) == 3
    for t in sols:
        assert t[0] * t[1] == Z3.one
        assert t[0] ** 3 == Z3.one


def test_cover_fiber_points_incompatible():
    vals = [Z3.one, Z3.one]
    sols = cover_fiber_points(vals, T21, [Z3.from_int(2)], 10000)
    assert sols == []


def test_cover_fiber_points_square_invertible():
    t22 = TorusData.from_rows([[1, 0], [0, 1]])
    vals = [Z3.from_int(8), Z3.from_int(27)]
    sols = cover_fiber_points(vals, t22, [Z3.from_int(2), Z3.from_int(3)], 10000)
    assert len(sols) == 1
    assert sols[0] == (Z3.from_int(2), Z3.from_int(3))


def test_cover_degree_judges_the_count_the_enumeration_returns():
    # A = [[3], [3]] loses its rank mod 3: T^A = eta has 9 solutions, not
    # l^(n-d) = 3.  The enumeration returns them all, and the law's own
    # count fails the check
    torus = TorusData.from_rows([[3], [3]])
    roots = [Z3.from_int(2), Z3.from_int(5)]
    values = [r**3 for r in roots]
    eta = torus.character(roots)
    sols = cover_fiber_points(values, torus, eta, 10000)
    assert len(sols) == len(set(sols)) == 9
    assert all(torus.character(t) == eta for t in sols)
    raw = json.loads(N2_L3.read_text())
    raw["A"] = [[3], [3]]
    report = run_verification_suite(parse_config(raw), only={"cover-degree"})
    (record,) = report["checks"]
    assert (record["status"], record["detail"]) == ("fail", "instance 0: 9 points, expected 3")


def test_cover_fiber_points_needs_root():
    with pytest.raises(DomainError):
        cover_fiber_points([Z3.from_int(2), Z3.one], T21, [Z3.one], 10000)


def zeta_multiples(roots, f):
    """Every (roots_i zeta^(k_i))_i, over itertools.product of the powers."""
    return [
        tuple(r * f.zeta_power(k) for r, k in zip(roots, ks))
        for ks in itertools.product(range(f.l), repeat=len(roots))
    ]


def written_out_character(t, torus):
    return tuple(
        functools.reduce(operator.mul, [t[i] ** torus.a[i][j] for i in range(torus.n)])
        for j in range(torus.d)
    )


def enumeration_case(name):
    """A rep and a torus: T11 and T21 at l = 3, a d = 2 torus at l = 3, and
    the torus and diag rep of tests/configs/n3_l5.json."""
    z3_reps = [rank1(Z3, 1, 2), rank1(Z3, 2, 3), rank1(Z3, 3, 5)]
    if name == "n3_l5":
        config = load_config(str(N3_L5))
        return config.build_reps()[0], config.torus
    return {
        "T11": (z3_reps[0], T11),
        "T21": (build_irrep(z3_reps[:2], 3), T21),
        "T32": (build_irrep(z3_reps, 3), TorusData.from_rows([[1, 0], [0, 1], [1, 1]])),
    }[name]


@pytest.mark.parametrize("name", ["T11", "T21", "T32", "n3_l5"])
def test_enumerations_match_a_brute_force_over_zeta_powers(name):
    rep, torus = enumeration_case(name)
    f = rep.field
    # the eta grid: the zeta-multiples of the rational roots of the moment
    # scalars, in lexicographic order of the powers
    _, scalars = moment_operators(rep, torus)
    base = [lth_root_in_field(s, f) for s in scalars]
    grid = compatible_eta_grid(rep, torus)
    assert grid == zeta_multiples(base, f)
    assert len(set(grid)) == f.l**torus.d
    assert all(eta[j] ** f.l == scalars[j] for eta in grid for j in range(torus.d))
    # the cover fibers over seeded l-th powers, at a compatible eta and at
    # one that is not
    rng = random.Random(f"cover brute force:{name}")
    for _ in range(3):
        roots = [f.from_int(rng.randint(1, 9)) for _ in range(torus.n)]
        values = [r**f.l for r in roots]
        twisted = [r * f.zeta_power(rng.randrange(f.l)) for r in roots]
        eta = written_out_character(twisted, torus)
        bad_eta = (eta[0] * 7,) + eta[1:]
        for target, count in ((eta, f.l ** (torus.n - torus.d)), (bad_eta, 0)):
            brute = {
                t for t in zeta_multiples(roots, f) if written_out_character(t, torus) == target
            }
            sols = cover_fiber_points(values, torus, target, 10000)
            assert len(sols) == len(brute) == count
            assert set(sols) == brute
