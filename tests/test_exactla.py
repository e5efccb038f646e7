"""The sparse matrix kernels against dense references, the split kernel
against one elimination of the whole system, and the commutant and freeness
shortcuts against the full systems they replace."""

import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from qweylab import rootofunity
from qweylab.config import load_config
from qweylab.errors import RelationError
from qweylab.exactla import (
    SparseEliminator,
    identity,
    kron,
    mat_add,
    mat_mul,
    mat_pow,
    mat_vec,
    matrix,
    sparse_kernel,
)
from qweylab.qweyl import AlgebraSpec, PBWElement
from qweylab.rootofunity import (
    build_irrep,
    build_irrep_nilpotent,
    build_irrep_rank1,
    commutant_basis,
    euler_inverse,
    verify_lcenter_freeness,
)
from qweylab.scalars import CyclotomicField, make_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TEST_CONFIGS = Path(__file__).resolve().parent / "configs"
# read only: the benchmark owns this file
BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
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


def configured_rank1_reps():
    """(name, rank-1 rep) for every slot of every configured rep."""
    paths = [
        path
        for folder in (CONFIGS, TEST_CONFIGS, BENCH_CONFIGS)
        for path in sorted(folder.glob("*.json"))
    ]
    out = []
    for path in paths:
        cfg = load_config(str(path))
        l = cfg.field.l
        for r, slots in enumerate(cfg.rep_slots):
            for k, slot in enumerate(slots):
                rep = build_irrep_nilpotent(l, cfg.field) if slot is None else build_irrep_rank1(*slot, l)
                out.append((f"{path.stem}[{r}][{k}]", rep))
    return out


def seeded_reps(seed):
    """(name, rep) for seeded lambda and b at l = 3, 5 or 7: the rank-1 reps
    on the locus (b_m = mu / lambda_m), with every b_m zero, and with b_m
    drawn from {0, 1, 2}, which puts some of them off the locus; and the
    tensor rep of the locus slot and the drawn slot."""
    l = (3, 5, 7)[seed % 3]
    f = FIELDS[l]
    rng = random.Random(f"euler:{seed}")
    lam = f.from_int(rng.randint(1, 9))
    mu = f.from_int(rng.randint(1, 9))
    bs = {
        "locus": [mu / (lam * f.zeta_power(m)) for m in range(l)],
        "zero": [f.zero] * l,
        "drawn": [f.from_int(rng.randint(0, 2)) for _ in range(l)],
    }
    reps = {kind: build_irrep_rank1(lam, b, l) for kind, b in bs.items()}
    reps["tensor"] = build_irrep([reps["locus"], reps["drawn"]], l)
    return [(f"l{l}-{kind}", rep) for kind, rep in reps.items()]


def assert_euler_inverses_match_dense(name, rep):
    """euler_inverse against dense_inv on every Euler operator of rep;
    returns how many of them are singular."""
    singular = 0
    for i, (alpha, c) in enumerate(zip(rep.alpha_matrices(), rep.character.azumaya_factors)):
        got = euler_inverse(alpha, c, rep.l)
        want = dense_inv(to_dense(alpha))
        if want is None:
            assert got is None and c.is_zero(), (name, i)
            singular += 1
            continue
        assert got is not None, (name, i)
        assert_sparse(got)
        assert to_dense(got) == want, (name, i)
    return singular


def test_euler_inverse_matches_dense():
    for name, rep in configured_rank1_reps():
        assert_euler_inverses_match_dense(name, rep)


@pytest.mark.parametrize("seed", range(8))
def test_mat_inv_matches_dense(seed):
    """The package's one matrix inverse, c^-1 alpha^(l-1) of an Euler
    operator, against Gauss-Jordan on seeded reps, singular ones included."""
    reps = seeded_reps(seed)
    singular = sum(assert_euler_inverses_match_dense(name, rep) for name, rep in reps)
    # the zeroed rep is singular, the rep on the locus is not
    assert 0 < singular < sum(len(rep.alpha_matrices()) for _, rep in reps)


def test_euler_inverse_certifies_the_lth_power():
    rep = build_irrep_rank1(FIELDS[3].from_int(2), [FIELDS[3].one] * 3, 3)
    (alpha,) = rep.alpha_matrices()
    (c,) = rep.character.azumaya_factors
    with pytest.raises(RelationError):
        euler_inverse(alpha, c + 1, 3)


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
# sparse_kernel against one elimination of the whole system
# ---------------------------------------------------------------------------


def unsplit_kernel(rows, ncols, field):
    """The kernel as one elimination of the whole system finds it: one vector
    per free column, back-substituted in decreasing pivot order."""
    elim = SparseEliminator(field)
    for row in rows:
        elim.add(row)
    pivots = sorted(elim.rows, reverse=True)
    basis = []
    for free in range(ncols):
        if free in elim.rows:
            continue
        vec = {free: field.one}
        for p in pivots:
            acc = None
            for c, v in elim.rows[p].items():
                if c != p and c in vec:
                    term = v * vec[c]
                    acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                vec[p] = -acc
        basis.append(vec)
    return basis


SYSTEM_FIELDS = {
    "Q": make_field("rational"),
    "Qq": make_field("rational_function_q"),
    **{f"Qzeta{l}": f for l, f in FIELDS.items()},
}


def seeded_scalar(rng, field):
    """A seeded scalar, zero now and then."""
    if isinstance(field, CyclotomicField):
        return random_scalar(rng, field)
    c = field.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return c * field.q_power(rng.randint(-2, 2)) + field.from_int(rng.randint(0, 1))


def nonzero_scalar(rng, field):
    while True:
        c = seeded_scalar(rng, field)
        if not c.is_zero():
            return c


def seeded_system(rng, field, nrows, cols):
    """Random sparse rows over the given columns, about a third of them
    combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.35:
            acc = {}
            for row in rng.sample(rows, min(len(rows), 2)):
                c = seeded_scalar(rng, field)
                for col, v in row.items():
                    acc[col] = acc.get(col, field.zero) + c * v
            rows.append({col: v for col, v in acc.items() if not v.is_zero()})
        else:
            picked = rng.sample(cols, rng.randint(1, min(4, len(cols))))
            rows.append({c: nonzero_scalar(rng, field) for c in picked})
    return rows


def structured_system(rng, field, ncols):
    """Seeded rows on two disjoint blocks of interleaved columns, a chain of
    forced zeros on a third, an empty row, a stored zero entry and duplicate
    rows, in seeded order."""
    cols = list(range(ncols))
    rng.shuffle(cols)
    first, second, chain = (sorted(cols[k::3]) for k in range(3))
    rows = seeded_system(rng, field, rng.randint(2, 6), first)
    rows += seeded_system(rng, field, rng.randint(2, 6), second)
    # the first row forces chain[0] to zero, and then each pair row the next
    rows.append({chain[0]: nonzero_scalar(rng, field)})
    for p, q in zip(chain, chain[1:]):
        rows.append({p: nonzero_scalar(rng, field), q: nonzero_scalar(rng, field)})
    rows.append({})
    # a stored zero entry: this row has one unknown, second[0]
    rows.append({first[0]: field.zero, second[0]: nonzero_scalar(rng, field)})
    rows += [dict(row) for row in rng.sample(rows, 2)]
    rng.shuffle(rows)
    return rows


def kernel_items(basis):
    return [list(vec.items()) for vec in basis]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", list(SYSTEM_FIELDS))
def test_sparse_kernel_matches_the_unsplit_elimination(name, seed):
    field = SYSTEM_FIELDS[name]
    rng = random.Random(f"split:{name}:{seed}")
    ncols = rng.randint(6, 18)
    if seed % 2:
        rows = structured_system(rng, field, ncols)
    else:
        rows = seeded_system(rng, field, rng.randint(3, 14), list(range(ncols)))
    given = [dict(row) for row in rows]
    got = sparse_kernel(rows, ncols, field)
    assert kernel_items(got) == kernel_items(unsplit_kernel(rows, ncols, field))
    assert rows == given


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", list(SYSTEM_FIELDS))
def test_eliminator_rows_leave_their_pivot_implicit(name, seed):
    field = SYSTEM_FIELDS[name]
    rng = random.Random(f"pivot:{name}:{seed}")
    ncols = rng.randint(6, 18)
    if seed % 2:
        rows = structured_system(rng, field, ncols)
    else:
        rows = seeded_system(rng, field, rng.randint(3, 14), list(range(ncols)))
    elim = SparseEliminator(field)
    for row in rows:
        elim.add(row)
    # a stored row holds only the columns after its pivot
    assert elim.rows and all(c > p for p, row in elim.rows.items() for c in row)
    kernel = unsplit_kernel(rows, ncols, field)
    assert kernel_items(sparse_kernel(rows, ncols, field)) == kernel_items(kernel)
    assert elim.rank == ncols - len(kernel)
    for vec in kernel:
        for row in rows:
            dot = sum((v * vec[c] for c, v in row.items() if c in vec), field.zero)
            assert dot.is_zero()
        # its free column comes first, and no combination of rows has a
        # one there alone
        assert not elim.contains({next(iter(vec)): field.one})
    assert all(elim.contains(row) for row in rows)
    # with its one written out, a stored row lies in the span of the rows
    assert all(elim.contains({p: field.one, **row}) for p, row in elim.rows.items())
    span = SparseEliminator(field)
    assert [span.add({p: field.one, **row}) for p, row in elim.rows.items()] == [True] * elim.rank
    assert all(span.contains(row) for row in rows)


def test_sparse_kernel_splits_forced_zeros_and_components(monkeypatch):
    f = FIELDS[5]
    two, three = f.from_int(2), f.zeta
    rows = [
        {0: two, 1: three},  # component {0, 1}
        {2: two},  # forces 2, so the next row forces 3
        {2: three, 3: two},
        {4: three, 6: two},  # component {4, 6}; column 5 appears in no row
    ]
    want = unsplit_kernel(rows, 7, f)
    eliminated = []
    original = SparseEliminator.add

    def add(elim, vec):
        eliminated.append((id(elim), tuple(vec)))
        return original(elim, vec)

    monkeypatch.setattr(SparseEliminator, "add", add)
    got = sparse_kernel(rows, 7, f)
    assert kernel_items(got) == kernel_items(want)
    assert [sorted(vec) for vec in got] == [[0, 1], [5], [4, 6]]
    # one eliminator per component, and no row of a forced unknown
    assert len({elim for elim, _ in eliminated}) == 2
    assert sorted(cols for _, cols in eliminated) == [(0, 1), (4, 6)]


def prime_and_root(l):
    """The least prime p > 2^20 with p = 1 (mod l), for l prime, and a
    primitive l-th root of unity mod p."""
    p = (2**20 // l + 1) * l + 1
    while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += l
    g = 2
    while pow(g, (p - 1) // l, p) == 1:
        g += 1
    return p, pow(g, (p - 1) // l, p)


def rank_mod_p(rows, field):
    """The rank over F_p of rows over Q(zeta_l), zeta sent to a root of unity
    mod p: the image of an exact system under a ring map, so never above its
    rank."""
    p, root = prime_and_root(field.l)
    powers = [pow(root, k, p) for k in range(field.degree)]
    pivots = {}  # pivot col -> row with 1 at the pivot
    for row in rows:
        vec = {}
        for c, s in row.items():
            nums, den = s.v
            x = sum(a * b for a, b in zip(nums, powers)) * pow(den, -1, p) % p
            if x:
                vec[c] = x
        while vec:
            col = min(vec)
            pivot_row = pivots.get(col)
            if pivot_row is None:
                inv = pow(vec[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in vec.items()}
                break
            f = vec[col]
            for c, v in pivot_row.items():
                nv = (vec.get(c, 0) - f * v) % p
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
    return len(pivots)


@pytest.mark.parametrize("l", [3, 5, 7])
@pytest.mark.parametrize("seed", range(5))
def test_modular_rank_never_exceeds_the_exact_rank(l, seed):
    # the rank that the split kernel implies equals that of one elimination,
    # and an independent reduction mod p never finds more
    f = FIELDS[l]
    rng = random.Random(f"rank:{l}:{seed}")
    ncols = rng.randint(3, 10)
    rows = seeded_system(rng, f, rng.randint(3, 14), list(range(ncols)))
    rank = ncols - len(sparse_kernel(rows, ncols, f))
    assert rank == ncols - len(unsplit_kernel(rows, ncols, f))
    assert rank_mod_p(rows, f) <= rank


# ---------------------------------------------------------------------------
# Commutants by weight against the full system
# ---------------------------------------------------------------------------


def commutant_reference_rows(rep):
    """The full commutant system: row (G, r, c) of M G - G M = 0 in the
    unknown M[r][k] at index r * dim + k, built entry by entry from the
    stored entries of each generator matrix G."""
    dim = rep.dim
    rows = []
    for g in list(rep.xs) + list(rep.ys):
        system = {}

        def put(r, c, key, v):
            row = system.setdefault((r, c), {})
            prev = row.get(key)
            row[key] = v if prev is None else prev + v

        for k, g_row in g.items():
            for c, v in g_row.items():
                # G[k][c] meets M[r][k] in row (r, c), and M[c][c2] in row (k, c2)
                for r in range(dim):
                    put(r, c, r * dim + k, v)
                minus_v = -v
                for c2 in range(dim):
                    put(k, c2, c * dim + c2, minus_v)
        for row in system.values():
            row = {key: v for key, v in row.items() if not v.is_zero()}
            if row:
                rows.append(row)
    return rows


def solved_sizes(monkeypatch):
    """The unknown counts of the systems commutant_basis solves, as a list
    that fills as it runs."""
    sizes = []
    original = rootofunity.sparse_kernel

    def sized(rows, ncols, field):
        sizes.append(ncols)
        return original(rows, ncols, field)

    monkeypatch.setattr(rootofunity, "sparse_kernel", sized)
    return sizes


def assert_commutant_is_exact(rep):
    """commutant_basis equals the kernel of the full dim^2-unknown system,
    values and key order."""
    want = sparse_kernel(commutant_reference_rows(rep), rep.dim * rep.dim, rep.field)
    assert kernel_items(commutant_basis(rep)) == kernel_items(want)


CONFIGURED = [CONFIGS / "n1_l3.json", CONFIGS / "n2_l3.json", BENCH_CONFIGS / "verify_l5.json"]


@pytest.mark.parametrize("path", CONFIGURED, ids=lambda path: path.stem)
def test_commutant_basis_matches_the_exact_kernel_on_configured_reps(monkeypatch, path):
    sizes = solved_sizes(monkeypatch)
    reps = load_config(str(path)).build_reps()
    for rep in reps:
        assert_commutant_is_exact(rep)
    # every builder records diagonal elements with a simple joint spectrum
    assert sizes == [rep.dim for rep in reps]


@pytest.mark.parametrize("l", [3, 5])
def test_commutant_basis_matches_the_exact_kernel_on_seeded_rank1_reps(monkeypatch, l):
    f = FIELDS[l]
    rng = random.Random(f"commutant:{l}")
    sizes = solved_sizes(monkeypatch)
    dims = []
    for _ in range(10):
        lam = f.from_int(rng.randint(1, 9))
        mu = f.from_int(rng.randint(1, 9))
        on_locus = build_irrep_rank1(lam, [mu / (lam * f.zeta_power(m)) for m in range(l)], l)
        off_locus = build_irrep_rank1(lam, [f.zero] * l, l)
        for rep in (on_locus, off_locus):
            assert_commutant_is_exact(rep)
            dims.append(len(commutant_basis(rep)))
    assert dims == [1, l] * 10
    assert sizes == [l] * 20


def test_commutant_basis_matches_the_exact_kernel_on_n3_l5_reps(monkeypatch):
    sizes = solved_sizes(monkeypatch)
    reps = load_config(str(TEST_CONFIGS / "n3_l5.json")).build_reps()
    for rep in reps:
        assert_commutant_is_exact(rep)
    assert sizes == [125, 125]


@pytest.mark.parametrize(
    "recorded, unknowns",
    # no diagonal element, or one that is not diagonal: the full system; the
    # identity: one weight class; the first slot's X: classes of size l = 3
    [("none", 81), ("not diagonal", 81), ("identity", 81), ("first slot", 27)],
)
def test_commutant_basis_with_other_recorded_elements(monkeypatch, recorded, unknowns):
    rep = load_config(str(CONFIGS / "n2_l3.json")).build_reps()[0]
    diagonals = {
        "none": [],
        "not diagonal": [rep.ys[0]],
        "identity": [identity(rep.dim, rep.field)],
        "first slot": rep.cache["diagonals"][:1],
    }[recorded]
    monkeypatch.setitem(rep.cache, "diagonals", diagonals)
    sizes = solved_sizes(monkeypatch)
    assert_commutant_is_exact(rep)
    assert sizes == [unknowns] and len(commutant_basis(rep)) == 1


def direct_sum(m, copies):
    """The block-diagonal matrix with the given number of copies of m."""
    n = m.nrows
    return matrix(
        n * copies,
        n * copies,
        m.field,
        {
            (t * n + r, t * n + c): v
            for t in range(copies)
            for r, row in m.items()
            for c, v in row.items()
        },
    )


@pytest.mark.parametrize("recorded, unknowns", [("X", 12), ("not diagonal", 36)])
def test_commutant_basis_of_a_direct_sum(monkeypatch, recorded, unknowns):
    # two copies of an irreducible rep: the commutant is M_2 (x) Id, of
    # dimension 4, with entries between the copies, which share the weights
    # of X.  A non-diagonal matrix whose diagonal tells the copies apart
    # must not split them.
    f = FIELDS[3]
    one = build_irrep_rank1(f.one, [f.from_int(2) / f.zeta_power(m) for m in range(3)], 3)
    xs, ys = direct_sum(one.xs[0], 2), direct_sum(one.ys[0], 2)
    shifted = matrix(6, 6, f, {(0, 1): f.one, **{(r, r): f.from_int(r // 3) for r in range(6)}})
    diagonals = [xs] if recorded == "X" else [mat_add(xs, shifted)]
    rep = rootofunity.MatrixRep(
        one.spec, 3, 6, (xs,), (ys,), one.character, {"diagonals": diagonals}
    )
    sizes = solved_sizes(monkeypatch)
    assert_commutant_is_exact(rep)
    assert sizes == [unknowns] and len(commutant_basis(rep)) == 4


# ---------------------------------------------------------------------------
# lcenter-freeness: one-term rows counted, or eliminated
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, l, blocks",
    [
        (1, 5, None),
        (2, 3, None),
        # a repeated block: the union is dependent and the check fails
        (1, 3, [((0,), (0,)), ((0,), (0,))]),
        (2, 3, [((3, 0), (0, 0)), ((0, 0), (0, 3)), ((3, 0), (0, 0))]),
        (2, 5, None),
        (3, 3, None),
    ],
)
def test_freeness_outcome_without_modular_rank(monkeypatch, n, l, blocks):
    spec = AlgebraSpec.single_parameter(n, FIELDS[l])
    adds = []
    original_add = SparseEliminator.add

    def add(elim, vec):
        adds.append(vec)
        return original_add(elim, vec)

    monkeypatch.setattr(SparseEliminator, "add", add)
    counted = verify_lcenter_freeness(spec, blocks)
    assert adds == []
    # z * x^r d^s becomes z * x^r d^s + z for every residue but r = s = 0,
    # whose product is z: a unitriangular change of the rows of each block,
    # which keeps every rank and gives two-term products
    unit = spec.one().terms
    original_mul = PBWElement.__mul__

    def two_term(self, other):
        out = original_mul(self, other)
        return out if other.terms == unit else out + self

    monkeypatch.setattr(PBWElement, "__mul__", two_term)
    eliminated = verify_lcenter_freeness(spec, blocks)
    assert adds
    assert (counted.passed, counted.cases, counted.failures) == (
        eliminated.passed,
        eliminated.cases,
        eliminated.failures,
    )
    assert counted.passed == (blocks is None)
