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
  by the engine's cross relations.  Each rank-1 slot has its relation, its
  l-th powers and its Euler operator certified exactly, once, on l x l
  matrices, and a tensor rep is certified on its slots by the mixed-product
  rule (`build_irrep`).

Each exact system here is made small before it is built, by steps that
keep the exact answer: the centralizer's unknowns are the alpha-invariant
monomials only, and `sparse_kernel` splits its commutator rows into forced
zeros and connected components; commutant unknowns are restricted to the
weight classes of diagonal matrices the builders record (`commutant_basis`);
and `verify_lcenter_freeness` forms the l^n products z * x^r of each block
and counts the boxes of keys that their shifts by every d^s fill.
"""

from __future__ import annotations

from functools import reduce

from .errors import DomainError, ParameterError, RelationError
from .exactla import (
    Mat,
    SparseEliminator,
    identity,
    kron,
    mat_add,
    mat_eq,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_vec,
    matrix,
    scalar_of_identity,
    sparse_kernel,
)
from .qweyl import AlgebraSpec, CheckOutcome, PBWElement, exponent_vectors, monomials
from .records import FrozenRecord
from .scalars import CyclotomicField, Scalar, make_field


# ---------------------------------------------------------------------------
# Center of the algebra at a root of unity
# ---------------------------------------------------------------------------


def _generators(spec: AlgebraSpec) -> list[PBWElement]:
    """x_1 .. x_n, d_1 .. d_n."""
    return [spec.x(i) for i in range(1, spec.n + 1)] + [spec.d(i) for i in range(1, spec.n + 1)]


def is_central(u: PBWElement, spec: AlgebraSpec) -> bool:
    """True iff u commutes with every generator (exact commutators)."""
    return all(g * u == u * g for g in _generators(spec))


def centralizer_basis(spec: AlgebraSpec, exponent_bound: int) -> list[PBWElement]:
    """Basis of the centralizer of the generators inside the span of the
    monomials with all exponents <= exponent_bound, by exact kernel
    computation of the commutator system, with the values and order of
    `sparse_kernel` on the system over all of those monomials.

    Only the alpha-invariant monomials x^a d^b are unknowns: those with
    q^w = 1 for every entry w of spec.weight(a - b), tested once per degree
    (`monomials`).  The others are zero in every element of the centralizer.
    An element u = sum c_m m that commutes with the generators commutes with
    alpha_i = 1 + x_i d_i, and in the rescaled normalization
    alpha_i m = q^(w_i) m alpha_i; so sum c_m (q^(w_i) - 1) m alpha_i = 0.
    The algebra is an iterated Ore extension, hence a domain, so
    c_m (q^(w_i) - 1) = 0 for every m.  Such a column is zero in every kernel
    vector of the full system, so it is a pivot there; a kept column is a
    pivot of the filtered system exactly when it is one of the full system,
    and the kernel vectors agree.

    Each commutator row is g m - m g, formed with the engine's product."""
    if exponent_bound < 0:
        raise ParameterError("exponent bound must be nonnegative")
    if not spec.rescaled:
        raise ParameterError("the centralizer filter needs the rescaled normalization")
    one = spec.field.one
    monos = monomials(
        spec.n, exponent_bound, keep=lambda d: all(spec.q_power(w) == one for w in spec.weight(d))
    )
    gens = _generators(spec)
    # rows of the constraint system live in (generator, target monomial) space
    rows: dict[tuple[int, tuple], dict[int, Scalar]] = {}
    for col, (a, b) in enumerate(monos):
        m = spec.monomial(a, b)
        for gi, g in enumerate(gens):
            for key, c in (g * m - m * g).terms.items():
                rows.setdefault((gi, key), {})[col] = c
    basis_vecs = sparse_kernel(list(rows.values()), len(monos), spec.field)
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
    predicted = monomials(spec.n, exponent_bound, step=field.l)
    out.record(len(basis) == len(predicted), "centralizer dimension")
    pred_set = set(predicted)
    for elt in basis:
        out.record(set(elt.terms) <= pred_set, "centralizer inside the l-th power span")
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
    residues 0 <= r, s < l are checked to be linearly independent, and the
    union over the given blocks stays independent.

    Only the l^n heads z * x^r of each block are formed.  Since x^r d^s is
    the ordered monomial with coefficient one, z * x^r d^s = (z * x^r) * d^s,
    and when z * x^r = c x^A d^B this is the single term c q^e x^A d^(B+s).
    One-term rows have the rank of their distinct keys, which fill the boxes
    (A, B + [0, l)^n); boxes with the same A are disjoint when their B differ
    by l or more in some coordinate, and then each rank is l^n times the
    number of distinct heads (A, B).  If some head has another number of
    terms, or two boxes overlap, the ranks come from exact elimination.
    """
    field = spec.field
    if not isinstance(field, CyclotomicField):
        raise ParameterError("freeness check needs a cyclotomic field")
    l, n = field.l, spec.n
    zero = (0,) * n
    if blocks is None:
        units = [tuple(l * (j == i) for j in range(n)) for i in range(n)]
        blocks = [(zero, zero)] + [z for t in units for z in ((t, zero), (zero, t))]
    out = CheckOutcome()
    zs = [spec.monomial(zt, zu) for zt, zu in blocks]
    heads = [[z * spec.monomial(r, zero) for r in exponent_vectors(n, l - 1)] for z in zs]
    keys = [{key for head in row for key in head.terms} for row in heads]
    d_parts: dict = {}
    for a, b in set().union(*keys):
        d_parts.setdefault(a, []).append(b)
    if all(len(head.terms) == 1 for row in heads for head in row) and all(
        any(abs(p - r) >= l for p, r in zip(b, c))
        for bs in d_parts.values()
        for i, b in enumerate(bs)
        for c in bs[:i]
    ):
        counts = [len(k) * l**n for k in keys]
        union_count = sum(map(len, d_parts.values())) * l**n
    else:
        index: dict = {}
        union = SparseEliminator(field)
        per_block = [SparseEliminator(field) for _ in blocks]
        for z, elim in zip(zs, per_block):
            for r, s in monomials(n, l - 1):
                prod = z * spec.monomial(r, s)
                vec = {index.setdefault(key, len(index)): c for key, c in prod.terms.items()}
                elim.add(vec)
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


class CentralCharacter(FrozenRecord):
    """Values a_i of the central elements x_i^l and omega_i of d_i^l in a
    representation."""

    _fields = ("a", "omega")

    def __init__(self, a: tuple[Scalar, ...], omega: tuple[Scalar, ...]):
        self.__dict__.update(a=a, omega=omega)

    @property
    def azumaya_factors(self) -> tuple[Scalar, ...]:
        return tuple(ai.field.one + ai * wi for ai, wi in zip(self.a, self.omega))


def azumaya_membership(character: CentralCharacter) -> bool:
    """True iff every factor 1 + a_i omega_i is nonzero.  The fields have no
    zero divisors, so this holds iff their product is nonzero."""
    return not any(c.is_zero() for c in character.azumaya_factors)


def euler_inverse(alpha: Mat, c: Scalar, l: int) -> Mat | None:
    """The inverse c^-1 alpha^(l-1) of an Euler operator alpha whose l-th
    power is c Id, or None when c = 0: then alpha^l = 0, so alpha is singular.

    alpha^l = 1 + x^l d^l is central, so in a representation it is the
    Azumaya factor c of the character; raises RelationError when
    alpha alpha^(l-1) is not c Id."""
    power = mat_pow(alpha, l - 1)
    if scalar_of_identity(mat_mul(alpha, power)) != c:
        raise RelationError(f"Euler operator does not have l-th power {c}")
    if c.is_zero():
        return None
    return mat_scale(power, c.inv())


class MatrixRep(FrozenRecord):
    """Exact matrices for the generators, with certified defining relations:
    xs[i] and ys[i] are the dim x dim matrices of x_(i+1) and d_(i+1)."""

    _fields = ("spec", "l", "dim", "xs", "ys", "character")

    def __init__(
        self,
        spec: AlgebraSpec,
        l: int,
        dim: int,
        xs: tuple,
        ys: tuple,
        character: CentralCharacter,
        cache: dict | None = None,
    ):
        self.__dict__.update(spec=spec, l=l, dim=dim, xs=xs, ys=ys, character=character)
        # data derived from the matrices, computed at most once per rep: the
        # Euler matrices and slot pairs, the commutant basis, the moment
        # operators of each torus; and, from the builders, "diagonals":
        # diagonal matrices of the rep's algebra.  Not compared.
        self.__dict__["cache"] = {} if cache is None else cache

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

    def slot_eulers(self):
        """The l x l pair (alpha^(k), its inverse or None) of each tensor slot,
        certified by `euler_inverse`.  `build_irrep` records them; a rank-1
        rep is its own slot, and its pair is computed on first use."""
        if "slot_eulers" not in self.cache:
            if self.spec.n != 1:
                raise ParameterError("only a rank-1 rep is its own tensor slot")
            (alpha,) = self.alpha_matrices()
            (c,) = self.character.azumaya_factors
            self.cache["slot_eulers"] = [(alpha, euler_inverse(alpha, c, self.l))]
        return self.cache["slot_eulers"]


def _verify_rep(spec: AlgebraSpec, l: int, x: Mat, y: Mat) -> CentralCharacter:
    """The slot certificate of a rank-1 pair: checks d x = q x d + (q-1) and
    that x^l and d^l are scalar; raises RelationError on any failure,
    returns the central character."""
    q = spec.q_power(spec.m[0][0])
    failures = []
    rhs = mat_add(mat_scale(mat_mul(x, y), q), mat_scale(identity(x.nrows, spec.field), q - 1))
    if not mat_eq(mat_mul(y, x), rhs):
        failures.append("d1 x1 = q x1 d1 + (q-1)")
    a, omega = scalar_of_identity(mat_pow(x, l)), scalar_of_identity(mat_pow(y, l))
    if a is None:
        failures.append(f"x1^{l} is not scalar")
    if omega is None:
        failures.append(f"d1^{l} is not scalar")
    if failures:
        raise RelationError("representation violates: " + "; ".join(failures))
    return CentralCharacter((a,), (omega,))


def _slot_rep(field: CyclotomicField, l: int, x: Mat, y: Mat) -> MatrixRep:
    """The tail of both rank-1 builders: the certified rep of (x, y), with x
    recorded as its diagonal matrix when it is one, else its Euler operator
    I + xy, which is diagonal for the nilpotent builder."""
    spec = AlgebraSpec.single_parameter(1, field)
    rep = MatrixRep(spec, l, l, (x,), (y,), _verify_rep(spec, l, x, y))
    rep.cache["diagonals"] = rep.alpha_matrices() if _diagonal_entries(x) is None else [x]
    return rep


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
    lams = [lam * field.zeta_power(m) for m in range(l)]
    x = matrix(l, l, field, {(m, m): lams[m] for m in range(l)})
    entries = {(m, m): -(lams[m].inv()) for m in range(l)}
    entries.update({(m, (m + 1) % l): b[m] for m in range(l)})
    return _slot_rep(field, l, x, matrix(l, l, field, entries))


def build_irrep_nilpotent(l: int, field: CyclotomicField | None = None) -> MatrixRep:
    """Rank-1 nilpotent builder on the truncated polynomial module."""
    field = field or make_field("cyclotomic", l)
    if field.l != l:
        raise ParameterError("field order and l differ")
    x = matrix(l, l, field, {(m + 1, m): field.one for m in range(l - 1)})
    y = matrix(l, l, field, {(m, m + 1): field.zeta_power(m + 1) - 1 for m in range(l - 1)})
    return _slot_rep(field, l, x, y)


def _lift(before, mat: Mat, n: int) -> Mat:
    """The Kronecker product before[0] (x) ... (x) before[k-1] (x) mat (x) I
    (x) ... (x) I of n factors, k = len(before), formed left to right."""
    ident = identity(mat.nrows, mat.field)
    return reduce(kron, [*before, mat] + [ident] * (n - 1 - len(before)))


def build_irrep(slots, l: int) -> MatrixRep:
    """Tensor builder: slot k's matrices on tensor factor k, twisted by the
    Euler operators alpha^(j) = I + X_j Y_j of the earlier slots:
    x_k = alpha^(1) (x) ... (x) alpha^(k-1) (x) X_k (x) I (x) ... (x) I, and
    y_k the same with their inverses and Y_k.  So every slot but the last
    must lie on the invertible locus, c_j = 1 + a_j omega_j != 0.

    Each Euler fact is certified once, on l x l matrices: `euler_inverse`
    checks (alpha^(k))^l = c_k Id on every slot and gives the inverse
    c_k^-1 (alpha^(k))^(l-1), or None when c_k = 0, and the rep records each
    pair (`MatrixRep.slot_eulers`).  The slot builders checked d x = q x d +
    (q-1), which gives alpha X = q X alpha and alpha Y = q^-1 Y alpha, and the
    l-th powers.  By the mixed-product rule (A (x) B)(C (x) D) = AC (x) BD,
    every relation of the tensor rep reduces to these: its Euler operator
    alpha_k is I (x) alpha^(k) (x) I, x_k^l = t_k a_k Id and d_k^l = t_k^-1
    omega_k Id, with t_k = c_1 ... c_(k-1).
    """
    if not slots:
        raise ParameterError("need at least one slot")
    field = slots[0].field
    n = len(slots)
    for k, rep in enumerate(slots):
        if rep.spec.n != 1 or rep.l != l or rep.field != field:
            raise ParameterError(f"slot {k+1} is not a rank-1 builder output for l={l}")
    pairs = [pair for slot in slots for pair in slot.slot_eulers()]
    for k, (_, inverse) in enumerate(pairs[:-1]):
        if inverse is None:
            raise DomainError(
                f"slot {k+1} has a singular Euler operator; it cannot carry "
                "tensor twists (off the invertible locus)"
            )
    alphas, inverses = zip(*pairs)
    xs = tuple(_lift(alphas[:k], slot.xs[0], n) for k, slot in enumerate(slots))
    ys = tuple(_lift(inverses[:k], slot.ys[0], n) for k, slot in enumerate(slots))
    # With alpha_<k the product of the Euler matrices I + x_j y_j (j < k),
    # which are invertible, I (x) X_k (x) I = alpha_<k^-1 x_k and
    # I (x) Y_k (x) I = alpha_<k y_k.  So the lift I (x) D (x) I of every
    # element D of a slot's algebra lies in the algebra of this rep.
    ident = identity(l, field)
    diagonals = [
        _lift([ident] * k, diag, n)
        for k, slot in enumerate(slots)
        for diag in slot.cache.get("diagonals", ())
    ]
    a_vals, w_vals, t = [], [], field.one
    for k, slot in enumerate(slots):
        if k:
            t = t * slots[k - 1].character.azumaya_factors[0]
        a_vals.append(t * slot.character.a[0])
        w_vals.append(slot.character.omega[0] / t)
    character = CentralCharacter(tuple(a_vals), tuple(w_vals))
    cache = {"diagonals": diagonals, "slot_eulers": pairs}
    return MatrixRep(AlgebraSpec.single_parameter(n, field), l, l**n, xs, ys, character, cache)


def _diagonal_entries(mat: Mat):
    """The diagonal of a diagonal matrix, or None when it has an entry off
    the diagonal."""
    if any(len(row) != 1 or r not in row for r, row in mat.items()):
        return None
    zero = mat.field.zero
    return [mat.get(r, {}).get(r, zero) for r in range(mat.nrows)]


def _commutant_by_weight(rep: MatrixRep, weights) -> list[dict[int, Scalar]]:
    """The commutant basis when weights[r] is the joint eigenvalue of basis
    vector r under diagonal matrices of the rep's algebra; with one weight
    for every r, this solves the full system.

    A matrix C that commutes with a diagonal D satisfies (d_r - d_c) C[r][c]
    = 0, and C commutes with D whenever it commutes with the generators.  So
    the rows C[r][c] = 0 for weights[r] != weights[c] lie in the row space of
    the full system, and `sparse_kernel` would force those unknowns to zero.
    The rows (M G - G M)[r][c] = 0 are written over the other unknowns only,
    numbered in row-major order, which gives the kernel of the full system
    with the same values and key order."""
    dim = rep.dim
    classes: dict = {}
    for r, w in enumerate(weights):
        classes.setdefault(w, []).append(r)
    same = [classes[w] for w in weights]
    unknowns = [r * dim + c for r in range(dim) for c in same[r]]
    index = {key: k for k, key in enumerate(unknowns)}
    rows = []
    for g in rep.xs + rep.ys:
        system: dict[tuple[int, int], dict[int, Scalar]] = {}

        def put(r, c, col, v):
            row = system.setdefault((r, c), {})
            prev = row.get(col)
            row[col] = v if prev is None else prev + v

        for r in range(dim):
            # (M G)[r][c] = sum_k M[r][k] G[k][c]
            for k in same[r]:
                col = index[r * dim + k]
                for c, v in g.get(k, {}).items():
                    put(r, c, col, v)
            # -(G M)[r][c] = -sum_k G[r][k] M[k][c]
            for k, v in g.get(r, {}).items():
                for c in same[k]:
                    put(r, c, index[k * dim + c], -v)
        rows.extend(system.values())
    kernel = sparse_kernel(rows, len(unknowns), rep.field)
    return [{unknowns[k]: v for k, v in vec.items()} for vec in kernel]


def commutant_basis(rep: MatrixRep) -> list[dict[int, Scalar]]:
    """Basis of the joint commutant of all generator matrices, as sparse
    vectors over the row-major entry index r * dim + c, with the values and
    key order of `sparse_kernel` on the full dim^2-unknown system.  It is
    solved once per rep, and every caller shares the returned list.

    When the builder recorded diagonal matrices of the rep's algebra, the
    basis vectors are split by their joint eigenvalues and only the unknowns
    within one weight class are solved for (`_commutant_by_weight`).  A rep
    without them, or with a recorded matrix that is not diagonal, solves the
    full system, as one weight class."""
    basis = rep.cache.get("commutant")
    if basis is not None:
        return basis
    spectra = [_diagonal_entries(d) for d in rep.cache.get("diagonals", ())]
    if None in spectra:
        spectra = []
    # without a spectrum every basis vector has the weight (): one class
    weights = list(zip(*spectra)) or [()] * rep.dim
    basis = rep.cache["commutant"] = _commutant_by_weight(rep, weights)
    return basis


def commutant_dimension(rep: MatrixRep) -> int:
    """Dimension of the joint commutant of all generator matrices."""
    return len(commutant_basis(rep))


def reducible_by_euler_kernel(rep: MatrixRep) -> bool:
    """True when a kernel of an Euler operator certifies the rep reducible.

    Off the locus some Azumaya factor c_i is 0, so alpha_i^l = c_i Id = 0
    and K = ker alpha_i is nonzero.  alpha_i q-commutes with every
    generator g (g alpha_i = q^k alpha_i g), so g maps K into itself, and
    K is a proper invariant subspace unless alpha_i = 0.  For the first i
    with c_i = 0, K is solved from the rows of alpha_i, and the certificate
    holds when 0 < dim K < dim V and alpha_i g k = 0 for every generator
    matrix g and every basis vector k of K.  False on the locus."""
    i = next((i for i, c in enumerate(rep.character.azumaya_factors) if c.is_zero()), None)
    if i is None:
        return False
    alpha = rep.alpha_matrices()[i]
    kernel = sparse_kernel(list(alpha.values()), rep.dim, rep.field)
    if not 0 < len(kernel) < rep.dim:
        return False
    return not any(mat_vec(alpha, mat_vec(g, k)) for g in rep.xs + rep.ys for k in kernel)


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
