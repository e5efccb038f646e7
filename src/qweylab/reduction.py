"""Fiberwise quantum Hamiltonian reduction of a finite-dimensional
representation: moment operators, weight spaces, the kernel identity of the
restriction map, the reduced endomorphism algebra, and point counting for
the degree-l^(n-d) cover.

Everything here is exact linear algebra over the cyclotomic field; the
computations mirror the algebra-level reduction of the moment module at a
single central character.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ParameterError, RelationError
from .exactla import (
    Mat,
    SparseEliminator,
    identity,
    mat_add,
    mat_eq,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_vec,
    scalar_of_identity,
    sparse_kernel,
)
from .moment import TorusData
from .qweyl import CheckOutcome, exponent_vectors
from .records import Record
from .rootofunity import MatrixRep, commutant_basis, euler_inverse
from .scalars import CyclotomicField, Scalar


def moment_operators(rep: MatrixRep, torus: TorusData):
    """The d moment operator matrices prod_i (I + X_i Y_i)^(a_ij), their
    central l-th power scalars prod_i (1 + a_i omega_i)^(a_ij), and an exact
    check that each operator's l-th power is that scalar.

    A negative power of alpha_i = I + X_i Y_i is a power of its inverse
    c_i^-1 alpha_i^(l-1), where c_i = 1 + a_i omega_i (`euler_inverse`)."""
    if torus.n != rep.spec.n:
        raise ParameterError("torus rank and representation rank differ")
    alphas = rep.alpha_matrices()
    factors = rep.character.azumaya_factors

    def alpha_power(i: int, e: int) -> Mat:
        if e > 0:
            return mat_pow(alphas[i], e)
        inverse = euler_inverse(alphas[i], factors[i], rep.l)
        if inverse is None:
            raise DomainError(
                f"Euler operator {i+1} is singular but A needs its inverse "
                "(off the invertible locus)"
            )
        return mat_pow(inverse, -e)

    ops = list(torus.character(range(rep.spec.n), mat_mul, alpha_power))
    # computed after the inverses above, so that a singular Euler operator
    # raises its own DomainError rather than a division by zero here
    scalars = list(torus.character(factors))
    for j, (op, scal) in enumerate(zip(ops, scalars)):
        if scalar_of_identity(mat_pow(op, rep.l)) != scal:
            raise DomainError(
                f"moment operator {j+1} does not have the predicted central power"
            )
    return ops, scalars


def _rep_moment_operators(rep: MatrixRep, torus: TorusData):
    """moment_operators(rep, torus), computed once per rep and torus."""
    per_torus = rep.cache.setdefault("moment_operators", {})
    if torus not in per_torus:
        per_torus[torus] = moment_operators(rep, torus)
    return per_torus[torus]


class WeightSpaceResult(Record):
    """The joint eigenspace of the moment operators moment_ops with
    eigenvalues eta: basis holds sparse column vectors spanning it."""

    _fields = ("basis", "eta", "moment_ops")

    def __init__(self, basis: list, eta: tuple[Scalar, ...], moment_ops: list):
        self.basis = basis
        self.eta = eta
        self.moment_ops = moment_ops

    @property
    def dimension(self) -> int:
        return len(self.basis)


def weight_space(rep: MatrixRep, torus: TorusData, eta) -> WeightSpaceResult:
    """Joint eigenspace of the moment operators with eigenvalues eta,
    computed once per rep, torus and eta and shared by later calls."""
    eta = tuple(eta)
    if len(eta) != torus.d:
        raise ParameterError("eta must have one entry per subtorus coordinate")
    per_point = rep.cache.setdefault("weight_spaces", {})
    if (torus, eta) not in per_point:
        per_point[torus, eta] = _weight_space(rep, torus, eta)
    return per_point[torus, eta]


def _shifted(ops, eta) -> list[Mat]:
    """The matrices op_j - eta_j Id."""
    return [
        mat_add(op, mat_scale(identity(op.nrows, op.field), -ej)) for op, ej in zip(ops, eta)
    ]


def _weight_space(rep: MatrixRep, torus: TorusData, eta) -> WeightSpaceResult:
    ops, _ = _rep_moment_operators(rep, torus)
    shifted = _shifted(ops, eta)
    # with d = 0 there are no rows, and every column is free
    basis = sparse_kernel((row for s in shifted for row in s.values()), rep.dim, rep.field)
    for v in basis:
        if any(mat_vec(s, v) for s in shifted):
            raise RelationError("weight space basis vector is not a joint eigenvector")
    return WeightSpaceResult(basis, eta, ops)


def compatible_eta_grid(rep: MatrixRep, torus: TorusData):
    """All l^d candidate eta vectors with eta_j^l = prod (1+a_i w_i)^(a_ij).

    Base roots are extracted rationally; builder-reachable characters with
    rational seeds always land in this case.  Returns [] when some value is
    zero (eta must be a torus point, and a moment operator whose l-th power
    is zero has no nonzero eigenvalue) or has no l-th root in the field.
    """
    f: CyclotomicField = rep.field
    _, scalars = _rep_moment_operators(rep, torus)
    base = []
    for s in scalars:
        root = None if s.is_zero() else lth_root_in_field(s, f)
        if root is None:
            return []
        base.append(root)
    return _root_choices(base, f)


def _root_choices(roots, f: CyclotomicField) -> list[tuple[Scalar, ...]]:
    """Every vector (roots_i zeta^(k_i))_i, in lexicographic order of k."""
    choices = [[r * f.zeta_power(k) for k in range(f.l)] for r in roots]
    return [
        tuple(c[k] for c, k in zip(choices, ks))
        for ks in exponent_vectors(len(roots), f.l - 1)
    ]


def lth_root_in_field(value: Scalar, f: CyclotomicField) -> Scalar | None:
    """Some t with t^l = value, or None when no witness is found.

    Rational values are handled exactly: if value = r^l for rational r, every
    field root is r times a root of unity.  A rational value that is not a
    perfect rational l-th power has no root in the field at all (adjoining
    one would enlarge the degree), and the primitive root itself is not an
    l-th power, so nothing is missed by restricting to this case.
    """
    v = f.coefficients(value.v)
    if any(v[1:]):
        return None
    p = _int_lth_root(v[0].numerator, f.l)
    q = _int_lth_root(v[0].denominator, f.l)
    return None if p is None or q is None else f.from_fraction(Fraction(p, q))


def _int_lth_root(m: int, l: int) -> int | None:
    """Exact integer l-th root (l odd), by bisection on nonnegative inputs."""
    if m < 0:
        r = _int_lth_root(-m, l)
        return None if r is None else -r
    if m in (0, 1):
        return m
    lo, hi = 1, 1 << ((m.bit_length() // l) + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**l <= m:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**l == m else None


class RestrictionKernelReport(Record):
    _fields = ("dim_ideal", "dim_expected", "contained", "passed", "weight_dim")

    def __init__(
        self, dim_ideal: int, dim_expected: int, contained: bool, passed: bool, weight_dim: int
    ):
        self.dim_ideal = dim_ideal
        self.dim_expected = dim_expected
        self.contained = contained
        self.passed = passed
        self.weight_dim = weight_dim


def restriction_kernel_check(
    rep: MatrixRep, torus: TorusData, eta
) -> RestrictionKernelReport:
    """The left ideal generated by the shifted moment operators equals the
    kernel of restriction to the weight space.

    The ideal is spanned by P (Phi(u_j) - eta_j Id) over matrix units P; its
    span is compared against {f : f|_(V_eta) = 0} by exact dimension count
    plus containment (each generator annihilates the weight space).

    P = E_rc sends a generator S to the matrix whose only nonzero row, r, is
    row c of S.  Different r use disjoint entries, so the ideal is dim copies
    of the row span of the generators, and its dimension is dim times the rank
    of their d * dim rows.
    """
    ws = weight_space(rep, torus, eta)
    f = rep.field
    dim = rep.dim
    m = ws.dimension
    row_span = SparseEliminator(f)
    contained = True
    for shifted in _shifted(ws.moment_ops, ws.eta):
        for row in shifted.values():
            row_span.add(row)
        if any(mat_vec(shifted, v) for v in ws.basis):
            contained = False
    dim_ideal = dim * row_span.rank
    dim_expected = dim * (dim - m)
    return RestrictionKernelReport(
        dim_ideal=dim_ideal,
        dim_expected=dim_expected,
        contained=contained,
        passed=(dim_ideal == dim_expected and contained),
        weight_dim=m,
    )


class ReducedAlgebraResult(Record):
    _fields = ("dimension", "weight_dim", "iso_verified")

    def __init__(self, dimension: int, weight_dim: int, iso_verified: bool):
        self.dimension = dimension
        self.weight_dim = weight_dim
        self.iso_verified = iso_verified


def reduced_endomorphism_algebra(rep: MatrixRep, torus: TorusData, eta) -> ReducedAlgebraResult:
    """Endomorphisms of Hom(V_eta, V) commuting with postcomposition by the
    representation, compared with the image of End(V_eta).

    Stacking the m = dim V_eta columns of a map identifies Hom(V_eta, V) with
    V^m, where each generator g acts as blockdiag(g, ..., g).  An endomorphism
    Theta of V^m is an m x m array of dim x dim blocks, and Theta commutes
    with every blockdiag(g, ..., g) exactly when each block commutes with
    every g.  So the commutant is M_m(C), where C is the commutant of the
    representation, and its dimension is m^2 dim C.

    The map f -> (h -> h o f) from End(V_eta) sends f to the block matrix
    with f[j][k] Id in block (k, j).  Its m^2 basis images have disjoint
    nonempty supports, so it is injective, and they lie in M_m(C) exactly
    when Id lies in C.  The map is onto the commutant when dim C = 1.
    """
    ws = weight_space(rep, torus, eta)
    m = ws.dimension
    if m == 0:
        raise ParameterError("empty weight space: nothing to reduce")
    f = rep.field
    dim = rep.dim
    basis = commutant_basis(rep)
    cdim = m * m * len(basis)
    span = SparseEliminator(f)
    for vec in basis:
        span.add(vec)
    identity_commutes = span.contains({t * dim + t: f.one for t in range(dim)})
    return ReducedAlgebraResult(
        dimension=cdim,
        weight_dim=m,
        iso_verified=identity_commutes and cdim == m * m,
    )


def verify_moment_operators_commute(rep: MatrixRep, torus: TorusData) -> CheckOutcome:
    out = CheckOutcome()
    ops, _ = _rep_moment_operators(rep, torus)
    for j in range(len(ops)):
        for k in range(j + 1, len(ops)):
            out.record(
                mat_eq(mat_mul(ops[j], ops[k]), mat_mul(ops[k], ops[j])),
                f"moment operators {j+1},{k+1} commute",
            )
    return out


def cover_fiber_points(alpha_l_values, torus: TorusData, eta, enumeration_cap: int):
    """All torus points T with T_i^l = alpha_l_values[i] and
    prod_i T_i^(a_ij) = eta_j, by brute force over the l^n root choices,
    where l is the order of the values' cyclotomic field.

    The roots are extracted rationally.  When at least one solution exists,
    the solution count is asserted to be l^(n-d).
    """
    alpha_l_values = list(alpha_l_values)
    eta = tuple(eta)
    if len(alpha_l_values) != torus.n or len(eta) != torus.d:
        raise ParameterError("value vector lengths must match the torus data")
    if any(e.is_zero() for e in eta):
        raise ParameterError("eta entries must be nonzero")
    f = alpha_l_values[0].field
    if not isinstance(f, CyclotomicField):
        raise ParameterError("values must live in a cyclotomic field")
    l = f.l
    if any(v.is_zero() for v in alpha_l_values):
        return []
    if l**torus.n > enumeration_cap:
        raise ParameterError(
            f"l^n = {l**torus.n} exceeds the enumeration cap {enumeration_cap}"
        )
    roots = []
    for i, v in enumerate(alpha_l_values):
        r = lth_root_in_field(v, f)
        if r is None:
            raise DomainError(f"no l-th root found for coordinate {i+1}")
        roots.append(r)
    sols = [t for t in _root_choices(roots, f) if torus.character(t) == eta]
    if sols:
        expected = l ** (torus.n - torus.d)
        if len(sols) != expected:
            raise DomainError(
                f"found {len(sols)} cover points, expected l^(n-d) = {expected}"
            )
    return sols
