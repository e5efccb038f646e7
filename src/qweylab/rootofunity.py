"""Structure of the algebra when q is specialized to a primitive l-th root
of unity: the large center generated by l-th powers, the closed form of the
l-th power of the product of Euler operators, explicit l^n-dimensional
representations, and the commutant test for irreducibility.

Representation conventions (single-parameter preset, rescaled):

* rank-1 semisimple slot: X = diag(lambda q^m); Y has -1/lambda_m on the
  diagonal and the cyclic entries b_m at (row m, column m+1 mod l) - the
  unique positions compatible with Y X = q X Y + (q-1) Id;
* rank-1 nilpotent slot: X the lowering shift, Y the q-derivative on the
  truncated polynomial module;
* rank n: slot matrices are placed on tensor factors with Euler-operator
  twists (alpha-hat = I + XY) on the earlier factors, the orientation fixed
  by the engine's cross relations.  Every built representation has all of
  its defining relations verified exactly before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import DomainError, ParameterError, RelationError
from .exactla import (
    Mat,
    SparseEliminator,
    identity,
    kron,
    mat_add,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_scale,
    matrix,
    modular_rank,
    scalar_of_identity,
    sparse_kernel,
    transpose,
)
from .qweyl import AlgebraSpec, CheckOutcome, PBWElement, exponent_vectors
from .scalars import CyclotomicField, Scalar, make_field


# ---------------------------------------------------------------------------
# Center of the algebra at a root of unity
# ---------------------------------------------------------------------------


def is_central(u: PBWElement, spec: AlgebraSpec) -> bool:
    """True iff u commutes with every generator (exact commutators)."""
    gens = [spec.x(i) for i in range(1, spec.n + 1)]
    gens += [spec.d(i) for i in range(1, spec.n + 1)]
    return all(g * u == u * g for g in gens)


def lcenter_monomials(n: int, l: int, bound: int):
    """Monomials x^a d^b with every exponent in {0, l, 2l, ...} and <= bound."""
    vecs = list(exponent_vectors(n, bound, step=l))
    return [(a, b) for a in vecs for b in vecs]


def centralizer_basis(spec: AlgebraSpec, exponent_bound: int) -> list[PBWElement]:
    """Basis of the centralizer of the generators inside the span of the
    monomials with all exponents <= exponent_bound, by exact kernel
    computation of the commutator system."""
    if exponent_bound < 0:
        raise ParameterError("exponent bound must be nonnegative")
    n, f = spec.n, spec.field
    vecs = list(exponent_vectors(n, exponent_bound))
    monos = [(a, b) for a in vecs for b in vecs]
    index = {m: k for k, m in enumerate(monos)}
    gens = [spec.x(i) for i in range(1, n + 1)] + [spec.d(i) for i in range(1, n + 1)]
    # rows of the constraint system live in (generator, target monomial) space
    rows: dict[tuple[int, tuple], dict[int, Scalar]] = {}
    for col, (a, b) in enumerate(monos):
        m = spec.monomial(a, b)
        for gi, g in enumerate(gens):
            comm = g * m - m * g
            for key, c in comm.terms.items():
                rows.setdefault((gi, key), {})[col] = c
    basis_vecs = sparse_kernel(list(rows.values()), len(monos), f)
    out = []
    for vec in basis_vecs:
        elt = spec.zero()
        for col, c in sorted(vec.items()):
            elt = elt + spec.monomial(*monos[col], c)
        out.append(elt)
    return out


def verify_centralizer_is_lcenter(
    spec: AlgebraSpec, exponent_bound: int
) -> CheckOutcome:
    """The bounded centralizer equals the span of in-range l-th power monomials."""
    field = spec.field
    if not isinstance(field, CyclotomicField):
        raise ParameterError("the l-center lives over a cyclotomic field")
    out = CheckOutcome()
    basis = centralizer_basis(spec, exponent_bound)
    predicted = lcenter_monomials(spec.n, field.l, exponent_bound)
    out.record(len(basis) == len(predicted), "centralizer dimension")
    pred_set = set(predicted)
    for elt in basis:
        out.record(
            set(elt.terms) <= pred_set, "centralizer inside the l-th power span"
        )
        out.record(is_central(elt, spec), "basis element is central")
    # each predicted monomial is itself central, so span equality follows
    # from the dimension count once containment holds
    for a, b in predicted:
        out.record(is_central(spec.monomial(a, b), spec), f"x^{a} d^{b} central")
    return out


def verify_delta_power(spec: AlgebraSpec) -> CheckOutcome:
    """Exact check that (alpha_1 .. alpha_n)^l = prod_i (1 + x_i^l d_i^l)."""
    field = spec.field
    if not isinstance(field, CyclotomicField):
        raise ParameterError("delta-power check needs a cyclotomic field")
    if not spec.rescaled or not spec.is_single_parameter:
        raise ParameterError(
            "delta-power check needs the rescaled single-parameter preset"
        )
    l = field.l
    out = CheckOutcome()
    delta = spec.one()
    for i in range(1, spec.n + 1):
        delta = delta * spec.alpha(i)
    lhs = delta**l
    rhs = spec.one()
    for i in range(1, spec.n + 1):
        rhs = rhs * (spec.one() + spec.x(i, l) * spec.d(i, l))
    out.record(lhs == rhs, f"delta^{l} closed form (n={spec.n})")
    return out


def verify_lcenter_freeness(spec: AlgebraSpec, blocks=None) -> CheckOutcome:
    """Linear independence of the l^(2n) residue monomials over the l-center.

    For each l-center block monomial z, the products z * x^r d^s over all
    residues 0 <= r, s < l are expanded and checked to be linearly
    independent, and the union over the given blocks stays independent.

    Each block is a subset of the union, so a full rank mod p of the union
    (`modular_rank`) certifies every count at once; any other outcome runs
    the exact elimination.
    """
    field = spec.field
    if not isinstance(field, CyclotomicField):
        raise ParameterError("freeness check needs a cyclotomic field")
    l, n = field.l, spec.n
    if blocks is None:
        blocks = [((0,) * n, (0,) * n)]
        for i in range(n):
            t = [0] * n
            t[i] = l
            blocks.append((tuple(t), (0,) * n))
            blocks.append(((0,) * n, tuple(t)))
    out = CheckOutcome()
    residues = list(exponent_vectors(n, l - 1))
    res = [(a, b) for a in residues for b in residues]

    def products():
        """(block number, expanded product z * x^r d^s as a sparse vector)."""
        index: dict = {}
        for k, (zt, zu) in enumerate(blocks):
            z = spec.monomial(zt, zu)
            for a, b in res:
                prod = z * spec.monomial(a, b)
                yield k, {index.setdefault(key, len(index)): c for key, c in prod.terms.items()}

    union_count = len(blocks) * len(res)
    if modular_rank((vec for _, vec in products()), field) == union_count:
        counts = [len(res)] * len(blocks)
    else:
        union = SparseEliminator(field)
        per_block = [SparseEliminator(field) for _ in blocks]
        for k, vec in products():
            per_block[k].add(vec)
            union.add(vec)
        counts, union_count = [elim.rank for elim in per_block], union.rank
    for (zt, zu), count in zip(blocks, counts):
        out.record(count == l ** (2 * n), f"block {zt},{zu} rank {count}")
    out.record(
        union_count == len(blocks) * l ** (2 * n),
        f"union of {len(blocks)} blocks stays independent",
    )
    return out


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralCharacter:
    """Values of the central elements x_i^l and d_i^l in a representation."""

    a: tuple[Scalar, ...]
    omega: tuple[Scalar, ...]

    @property
    def azumaya_factors(self) -> tuple[Scalar, ...]:
        return tuple(ai.field.one + ai * wi for ai, wi in zip(self.a, self.omega))


def azumaya_membership(character: CentralCharacter) -> bool:
    """True iff prod_i (1 + a_i omega_i) is nonzero."""
    out = None
    for factor in character.azumaya_factors:
        out = factor if out is None else out * factor
    return out is None or not out.is_zero()


@dataclass(frozen=True)
class MatrixRep:
    """Exact matrices for the generators, with verified defining relations."""

    spec: AlgebraSpec
    l: int
    dim: int
    xs: tuple
    ys: tuple
    character: CentralCharacter
    # data derived from the matrices, computed at most once per rep: the
    # Euler matrices, the commutant basis, the moment operators of each torus
    cache: dict = dataclass_field(default_factory=dict, compare=False, repr=False)

    @property
    def field(self):
        return self.spec.field

    def alpha_matrices(self):
        """The Euler operators I + X_i Y_i."""
        if "alphas" not in self.cache:
            ident = identity(self.dim, self.field)
            self.cache["alphas"] = [
                mat_add(ident, mat_mul(x, y)) for x, y in zip(self.xs, self.ys)
            ]
        return list(self.cache["alphas"])


def _verify_rep(spec: AlgebraSpec, l: int, xs, ys) -> CentralCharacter:
    """Check every defining relation and the centrality of l-th powers;
    raises RelationError on any failure, returns the central character."""
    f = spec.field
    n = spec.n
    failures = []
    for i in range(n):
        for j in range(n):
            qij = spec.q_power(spec.m[i][j])
            if i < j:
                if not mat_eq(mat_mul(xs[j], xs[i]), mat_scale(mat_mul(xs[i], xs[j]), qij)):
                    failures.append(f"x{j+1} x{i+1} = q_{i+1}{j+1} x{i+1} x{j+1}")
                if not mat_eq(mat_mul(ys[j], ys[i]), mat_scale(mat_mul(ys[i], ys[j]), qij)):
                    failures.append(f"d{j+1} d{i+1} = q_{i+1}{j+1} d{i+1} d{j+1}")
            if i != j:
                if not mat_eq(mat_mul(ys[i], xs[j]), mat_scale(mat_mul(xs[j], ys[i]), qij)):
                    failures.append(f"d{i+1} x{j+1} = q_{i+1}{j+1} x{j+1} d{i+1}")
    for i in range(n):
        qii = spec.q_power(spec.m[i][i])
        lhs = mat_mul(ys[i], xs[i])
        rhs = mat_add(
            mat_scale(mat_mul(xs[i], ys[i]), qii),
            mat_scale(identity(xs[i].nrows, f), qii - 1),
        )
        if not mat_eq(lhs, rhs):
            failures.append(f"d{i+1} x{i+1} = q x{i+1} d{i+1} + (q-1)")
    a_vals, w_vals = [], []
    for i in range(n):
        xa = scalar_of_identity(mat_pow(xs[i], l))
        ya = scalar_of_identity(mat_pow(ys[i], l))
        if xa is None:
            failures.append(f"x{i+1}^{l} is not scalar")
        if ya is None:
            failures.append(f"d{i+1}^{l} is not scalar")
        a_vals.append(xa if xa is not None else f.zero)
        w_vals.append(ya if ya is not None else f.zero)
    if failures:
        raise RelationError("representation violates: " + "; ".join(failures))
    return CentralCharacter(tuple(a_vals), tuple(w_vals))


def build_irrep_rank1(lam: Scalar, b, l: int) -> MatrixRep:
    """Rank-1 semisimple builder: X diagonal with eigenvalues lambda q^m, Y
    cyclic with diagonal -1/lambda_m and the given l off-diagonal entries."""
    field = lam.field
    if not isinstance(field, CyclotomicField) or field.l != l:
        raise ParameterError("lambda must live in the cyclotomic field of order l")
    if lam.is_zero():
        raise ParameterError("lambda must be nonzero")
    b = list(b)
    if len(b) != l:
        raise ParameterError("b must have length l")
    spec = AlgebraSpec.single_parameter(1, field)
    lams = [lam * field.zeta_power(m) for m in range(l)]
    xs = matrix(l, l, field, {(m, m): lams[m] for m in range(l)})
    entries = {(m, m): -(lams[m].inv()) for m in range(l)}
    entries.update({(m, (m + 1) % l): b[m] for m in range(l)})
    ys = matrix(l, l, field, entries)
    character = _verify_rep(spec, l, (xs,), (ys,))
    return MatrixRep(spec, l, l, (xs,), (ys,), character)


def build_irrep_nilpotent(l: int, field: CyclotomicField | None = None) -> MatrixRep:
    """Rank-1 nilpotent builder on the truncated polynomial module."""
    field = field or make_field("cyclotomic", l)
    if field.l != l:
        raise ParameterError("field order and l differ")
    spec = AlgebraSpec.single_parameter(1, field)
    xs = matrix(l, l, field, {(m + 1, m): field.one for m in range(l - 1)})
    ys = matrix(l, l, field, {(m, m + 1): field.zeta_power(m + 1) - 1 for m in range(l - 1)})
    character = _verify_rep(spec, l, (xs,), (ys,))
    return MatrixRep(spec, l, l, (xs,), (ys,), character)


def build_irrep(slots, l: int) -> MatrixRep:
    """Tensor builder: places rank-1 slot matrices on tensor factors with
    Euler-operator twists on the earlier factors, then verifies everything.

    Fails loudly (RelationError / DomainError) rather than returning an
    unverified representation.
    """
    if not slots:
        raise ParameterError("need at least one slot")
    field = slots[0].field
    n = len(slots)
    for k, rep in enumerate(slots):
        if rep.spec.n != 1 or rep.l != l or rep.field != field:
            raise ParameterError(f"slot {k+1} is not a rank-1 builder output for l={l}")
    spec = AlgebraSpec.single_parameter(n, field)
    dim = l**n
    alphas, alpha_invs = [], []
    for k, rep in enumerate(slots):
        al = rep.alpha_matrices()[0]
        alphas.append(al)
        try:
            alpha_invs.append(mat_inv(al))
        except DomainError:
            raise DomainError(
                f"slot {k+1} has a singular Euler operator; it cannot carry "
                "tensor twists (off the invertible locus)"
            )
    ident = identity(l, field)
    xs, ys = [], []
    for i in range(n):
        xmat = ymat = identity(1, field)
        for j in range(n):
            if j < i:
                xmat = kron(xmat, alphas[j])
                ymat = kron(ymat, alpha_invs[j])
            elif j == i:
                xmat = kron(xmat, slots[i].xs[0])
                ymat = kron(ymat, slots[i].ys[0])
            else:
                xmat = kron(xmat, ident)
                ymat = kron(ymat, ident)
        xs.append(xmat)
        ys.append(ymat)
    character = _verify_rep(spec, l, tuple(xs), tuple(ys))
    return MatrixRep(spec, l, dim, tuple(xs), tuple(ys), character)


def _commutant_rows(rep: MatrixRep):
    """The rows (M G - G M)[r][c] = 0, over every generator matrix G and every
    entry (r, c), in the unknown M[r][k] at index r * dim + k; zero rows are
    left out."""
    dim = rep.dim
    for g in rep.xs + rep.ys:
        cols = transpose(g)
        col_terms = [list(cols.get(c, {}).items()) for c in range(dim)]
        # the terms -G[r][k] M[k][c] with k != r, keyed k * dim; the term at
        # k = r shares the key r * dim + c with the term G[c][c] M[r][c]
        row_terms = [
            [(k * dim, -v) for k, v in g.get(r, {}).items() if k != r] for r in range(dim)
        ]
        for r in range(dim):
            base = r * dim
            g_rr = g.get(r, {}).get(r)
            for c in range(dim):
                row = {base + k: v for k, v in col_terms[c]}
                for key, v in row_terms[r]:
                    row[key + c] = v
                if g_rr is not None:
                    total = row.get(base + c)
                    total = -g_rr if total is None else total - g_rr
                    if total.is_zero():
                        del row[base + c]
                    else:
                        row[base + c] = total
                if row:
                    yield row


def commutant_basis(rep: MatrixRep) -> list[dict[int, Scalar]]:
    """Basis of the joint commutant of all generator matrices, as sparse
    vectors over the row-major entry index r * dim + c.  It is solved once
    per rep, and every caller shares the returned list.

    The identity commutes with everything, so the commutant has dimension at
    least 1 and the system has rank at most dim^2 - 1.  When its rank mod p
    (`modular_rank`) reaches that bound, the exact rank does too, and the
    basis is the identity, written as `sparse_kernel` writes it: the free
    column dim^2 - 1 first, then the pivots in decreasing order.  Every other
    outcome runs the exact elimination."""
    basis = rep.cache.get("commutant")
    if basis is not None:
        return basis
    f = rep.field
    dim = rep.dim
    if modular_rank(_commutant_rows(rep), f) == dim * dim - 1:
        basis = [{t * (dim + 1): f.one for t in reversed(range(dim))}]
    else:
        basis = sparse_kernel(_commutant_rows(rep), dim * dim, f)
    rep.cache["commutant"] = basis
    return basis


def commutant_dimension(rep: MatrixRep) -> int:
    """Dimension of the joint commutant of all generator matrices."""
    return len(commutant_basis(rep))


def verify_alpha_spectrum(rep: MatrixRep) -> CheckOutcome:
    """On an irreducible rank-1 representation off the degenerate locus, the
    Euler operator has l distinct eigenvalues, the l-th roots of 1 + a omega."""
    out = CheckOutcome()
    f = rep.field
    l = rep.l
    al = rep.alpha_matrices()[0]
    target = f.one + rep.character.a[0] * rep.character.omega[0]
    # char poly check via exact determinant of (x - alpha) is equivalent to
    # alpha^l = target * Id plus distinctness of eigenvalues; verify both.
    out.record(
        scalar_of_identity(mat_pow(al, l)) == target,
        "alpha^l equals 1 + a*omega",
    )
    if not target.is_zero():
        # distinct eigenvalues: alpha satisfies no polynomial of degree < l,
        # witnessed by I, alpha, ..., alpha^(l-1) being independent
        elim = SparseEliminator(f)
        count = 0
        power = identity(rep.dim, f)
        for _ in range(l):
            vec = {r * rep.dim + c: v for r, row in power.items() for c, v in row.items()}
            count += 1 if elim.add(vec) else 0
            power = mat_mul(power, al)
        out.record(count == l, "alpha powers independent up to degree l-1")
    return out


def export_rep(rep: MatrixRep) -> dict:
    """JSON-ready dump: dense row-major matrices, scalars as coefficient
    vectors over the cyclotomic power basis."""

    def scal(s: Scalar):
        return [str(c) for c in rep.field.coefficients(s.v)]

    def mat(m: Mat):
        return [[scal(m[r][c]) for c in range(m.ncols)] for r in range(m.nrows)]

    return {
        "l": rep.l,
        "n": rep.spec.n,
        "dim": rep.dim,
        "x": [mat(m) for m in rep.xs],
        "y": [mat(m) for m in rep.ys],
        "character": {
            "a": [scal(s) for s in rep.character.a],
            "omega": [scal(s) for s in rep.character.omega],
        },
    }
