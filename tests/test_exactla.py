"""The sparse matrix kernels against dense references, and the certified
modular rank against exact elimination."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from qweylab import rootofunity
from qweylab.config import load_config
from qweylab.errors import DomainError
from qweylab.exactla import (
    SparseEliminator,
    identity,
    kron,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
    matrix,
    modular_prime,
    modular_rank,
    sparse_kernel,
)
from qweylab.qweyl import AlgebraSpec
from qweylab.rootofunity import build_irrep_rank1, commutant_basis, verify_lcenter_freeness
from qweylab.scalars import make_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIELDS = {l: make_field("cyclotomic", l) for l in (3, 5, 7)}

# ---------------------------------------------------------------------------
# Dense references: lists of rows, every entry stored
# ---------------------------------------------------------------------------


def dense_mat_mul(a, b):
    zero = a[0][0].field.zero
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_kron(a, b):
    return [
        [a[i][j] * b[k][m] for j in range(len(a[0])) for m in range(len(b[0]))]
        for i in range(len(a))
        for k in range(len(b))
    ]


def dense_inv(a):
    """Gauss-Jordan on the augmented dense matrix; None when singular."""
    n = len(a)
    f = a[0][0].field
    work = [list(row) + [f.one if i == j else f.zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inv()
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def to_dense(m):
    return [[m[r][c] for c in range(m.ncols)] for r in range(m.nrows)]


def from_dense(rows, field):
    return matrix(
        len(rows),
        len(rows[0]),
        field,
        {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)},
    )


def assert_sparse(m):
    """No stored zero and no stored empty row, all indices in range."""
    for r, row in m.items():
        assert 0 <= r < m.nrows and row
        for c, v in row.items():
            assert 0 <= c < m.ncols and not v.is_zero()


def random_scalar(rng, field):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(field.degree)]
    return field.from_coeffs(coeffs)


def random_dense(rng, field, nrows, ncols, density=0.4):
    """A seeded matrix with one zero row and one zero column when it has more
    than one of each."""
    rows = [
        [random_scalar(rng, field) if rng.random() < density else field.zero for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows > 1:
        rows[rng.randrange(nrows)] = [field.zero] * ncols
    if ncols > 1:
        dead = rng.randrange(ncols)
        for row in rows:
            row[dead] = field.zero
    return rows


SHAPES = [(1, 1, 1), (3, 4, 2), (4, 1, 3), (5, 5, 5), (2, 6, 1)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_mat_mul_matches_dense(seed, shape):
    rng = random.Random(f"mul:{seed}:{shape}")
    f = FIELDS[(3, 5, 7)[seed % 3]]
    n, k, m = shape
    a, b = random_dense(rng, f, n, k), random_dense(rng, f, k, m)
    got = mat_mul(from_dense(a, f), from_dense(b, f))
    assert (got.nrows, got.ncols) == (n, m)
    assert_sparse(got)
    assert to_dense(got) == dense_mat_mul(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_kron_matches_dense(seed):
    rng = random.Random(f"kron:{seed}")
    f = FIELDS[5]
    a = random_dense(rng, f, rng.randint(1, 3), rng.randint(1, 3), 0.6)
    b = random_dense(rng, f, rng.randint(1, 4), rng.randint(1, 4), 0.6)
    got = kron(from_dense(a, f), from_dense(b, f))
    assert (got.nrows, got.ncols) == (len(a) * len(b), len(a[0]) * len(b[0]))
    assert_sparse(got)
    assert to_dense(got) == dense_kron(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_mat_pow_matches_repeated_products(seed):
    rng = random.Random(f"pow:{seed}")
    f = FIELDS[3]
    a = random_dense(rng, f, 4, 4, 0.5)
    want = [[f.one if i == j else f.zero for j in range(4)] for i in range(4)]
    for e in range(6):
        got = mat_pow(from_dense(a, f), e)
        assert_sparse(got)
        assert to_dense(got) == want
        want = dense_mat_mul(want, a)


@pytest.mark.parametrize("seed", range(8))
def test_mat_inv_matches_dense(seed):
    rng = random.Random(f"inv:{seed}")
    f = FIELDS[(3, 5, 7)[seed % 3]]
    n = rng.randint(1, 5)
    # mostly invertible: a random matrix plus a diagonal, some left singular
    a = random_dense(rng, f, n, n, 0.5) if seed % 4 == 3 else [
        [random_scalar(rng, f) if (i == j or rng.random() < 0.3) else f.zero for j in range(n)]
        for i in range(n)
    ]
    want = dense_inv(a)
    if want is None:
        with pytest.raises(DomainError):
            mat_inv(from_dense(a, f))
        return
    got = mat_inv(from_dense(a, f))
    assert_sparse(got)
    assert to_dense(got) == want
    assert mat_mul(from_dense(a, f), got) == identity(n, f)


@pytest.mark.parametrize("seed", range(6))
def test_mat_vec_matches_dense(seed):
    rng = random.Random(f"vec:{seed}")
    f = FIELDS[7]
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    a = random_dense(rng, f, nrows, ncols)
    v = {c: random_scalar(rng, f) for c in range(ncols) if rng.random() < 0.6}
    v = {c: x for c, x in v.items() if not x.is_zero()}
    got = mat_vec(from_dense(a, f), v)
    want = dense_mat_mul(a, [[v.get(c, f.zero)] for c in range(ncols)])
    assert all(not x.is_zero() for x in got.values())
    assert [got.get(r, f.zero) for r in range(nrows)] == [row[0] for row in want]


def test_absent_entries_read_as_zero():
    f = FIELDS[3]
    m = matrix(3, 2, f, {(0, 1): f.zeta, (2, 0): f.zero})
    assert dict(m) == {0: {1: f.zeta}}
    assert m[0][0] == f.zero and m[1][1] == f.zero and m[0][1] == f.zeta
    # reading does not store
    assert dict(m) == {0: {1: f.zeta}}


# ---------------------------------------------------------------------------
# modular_rank
# ---------------------------------------------------------------------------


def exact_rank(rows, field):
    elim = SparseEliminator(field)
    for row in rows:
        elim.add(row)
    return elim.rank


def seeded_system(rng, field, nrows, ncols):
    """Random sparse rows, about a third of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.35:
            acc = {}
            for row in rng.sample(rows, min(len(rows), 2)):
                c = random_scalar(rng, field)
                for col, v in row.items():
                    acc[col] = acc.get(col, field.zero) + c * v
            rows.append({col: v for col, v in acc.items() if not v.is_zero()})
        else:
            cols = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
            rows.append({c: random_scalar(rng, field) for c in cols})
    return [{c: v for c, v in row.items() if not v.is_zero()} for row in rows]


@pytest.mark.parametrize("l", [3, 5, 7])
@pytest.mark.parametrize("seed", range(5))
def test_modular_rank_never_exceeds_the_exact_rank(l, seed):
    f = FIELDS[l]
    rng = random.Random(f"rank:{l}:{seed}")
    rows = seeded_system(rng, f, rng.randint(3, 14), rng.randint(3, 10))
    got = modular_rank(rows, f)
    assert got is not None and got <= exact_rank(rows, f)


@pytest.mark.parametrize("l", [3, 5, 7])
def test_modular_prime_is_fixed_and_fits(l):
    p, root = modular_prime(l)
    assert modular_prime(l) == (p, root)
    assert p % l == 1 and p < 2**30
    assert pow(root, l, p) == 1 and all(pow(root, k, p) != 1 for k in range(1, l))
    # zeta maps to a root of the cyclotomic polynomial
    phi = FIELDS[l].modulus
    assert sum(c * pow(root, k, p) for k, c in enumerate(phi)) % p == 0


def test_modular_rank_can_be_lower_and_declines_on_denominators():
    f = FIELDS[5]
    p, _ = modular_prime(5)
    # p vanishes mod p: rank 0 mod p against exact rank 1
    assert modular_rank([{0: f.from_int(p)}], f) == 0
    assert exact_rank([{0: f.from_int(p)}], f) == 1
    assert modular_rank([{0: f.one}, {1: f.from_fraction(Fraction(1, 3 * p))}], f) is None
    assert modular_rank([{0: f.one}], make_field("rational")) is None


def commutant_reference_rows(rep):
    """The commutant system as the dense rows were once scanned."""
    dim, rows = rep.dim, []
    for g in list(rep.xs) + list(rep.ys):
        for r in range(dim):
            for c in range(dim):
                row = {}
                for k in range(dim):
                    if not g[k][c].is_zero():
                        row[r * dim + k] = row.get(r * dim + k, rep.field.zero) + g[k][c]
                    if not g[r][k].is_zero():
                        row[k * dim + c] = row.get(k * dim + c, rep.field.zero) - g[r][k]
                row = {key: v for key, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    return rows


def kernel_items(basis):
    return [list(vec.items()) for vec in basis]


def assert_commutant_is_exact(rep):
    """commutant_basis equals the exact kernel, values and key order; returns
    whether the rank mod p certified it."""
    rows = commutant_reference_rows(rep)
    n2 = rep.dim * rep.dim
    assert [sorted(r.items()) for r in rootofunity._commutant_rows(rep)] == [
        sorted(r.items()) for r in rows
    ]
    want = sparse_kernel(rows, n2, rep.field)
    assert kernel_items(commutant_basis(rep)) == kernel_items(want)
    return modular_rank(rows, rep.field) == n2 - 1


@pytest.mark.parametrize("name", ["n1_l3", "n2_l3"])
def test_commutant_basis_matches_the_exact_kernel_on_configured_reps(name):
    reps = load_config(str(CONFIGS / f"{name}.json")).build_reps()
    assert all(assert_commutant_is_exact(rep) for rep in reps)


@pytest.mark.parametrize("l", [3, 5])
def test_commutant_basis_matches_the_exact_kernel_on_seeded_rank1_reps(l):
    f = FIELDS[l]
    rng = random.Random(f"commutant:{l}")
    certified = []
    for _ in range(10):
        lam = f.from_int(rng.randint(1, 9))
        mu = f.from_int(rng.randint(1, 9))
        on_locus = build_irrep_rank1(lam, [mu / (lam * f.zeta_power(m)) for m in range(l)], l)
        off_locus = build_irrep_rank1(lam, [f.zero] * l, l)
        certified += [assert_commutant_is_exact(on_locus), assert_commutant_is_exact(off_locus)]
    # the locus reps are certified mod p, the split ones run the exact path
    assert certified == [True, False] * 10


def test_denominator_divisible_by_p_falls_back_to_the_exact_kernel():
    f = FIELDS[5]
    p, _ = modular_prime(5)
    lam = f.from_fraction(Fraction(1, p))
    rep = build_irrep_rank1(lam, [f.from_int(2) / (lam * f.zeta_power(m)) for m in range(5)], 5)
    assert modular_rank(rootofunity._commutant_rows(rep), f) is None
    assert not assert_commutant_is_exact(rep)
    assert len(commutant_basis(rep)) == 1


@pytest.mark.parametrize(
    "n, l, blocks",
    [
        (1, 5, None),
        (2, 3, None),
        # a repeated block: the union is dependent and the check fails
        (1, 3, [((0,), (0,)), ((0,), (0,))]),
        (2, 3, [((3, 0), (0, 0)), ((0, 0), (0, 3)), ((3, 0), (0, 0))]),
    ],
)
def test_freeness_outcome_without_modular_rank(monkeypatch, n, l, blocks):
    spec = AlgebraSpec.single_parameter(n, FIELDS[l])
    certified = verify_lcenter_freeness(spec, blocks)
    monkeypatch.setattr(rootofunity, "modular_rank", lambda rows, field: None)
    exact = verify_lcenter_freeness(spec, blocks)
    assert (certified.passed, certified.cases, certified.failures) == (
        exact.passed,
        exact.cases,
        exact.failures,
    )
    assert certified.passed == (blocks is None)
