"""Torus-valued moment maps, the conjugation identity they encode, and
normal forms in the localized algebra modulo the moment left ideal.

The torus data is an n x d integer matrix A embedding a rank-d subtorus; the
comoment map sends the j-th subtorus coordinate to the product of Euler
operators alpha_i^(a_ij).  An element of the localized algebra is already a
combination of x^a d^b alpha^c with min(a_i, b_i) = 0 (``LocalizedElement``),
so reduction modulo the left ideal generated by the comoment values minus the
target point eta is a lattice step: each alpha exponent vector c is reduced
to a canonical coset representative modulo the column lattice of A (column
Hermite normal form picks the representative, computed once per torus as
``TorusData.hnf``), and each subtracted lattice vector A t contributes the
multiplier prod eta_j^(t_j).

Reduced elements multiply as elements of the localized algebra, and the
product is reduced by the same lattice step.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache, reduce

from .errors import DomainError, ParameterError
from .exactla import column_hnf, hnf_reduce
from .qweyl import (
    AlgebraSpec,
    CheckOutcome,
    ExpVec,
    LocalizedElement,
    PBWElement,
    TermElement,
    _alpha_table,  # noqa: F401 (the benchmark tracer reads its cache here)
    _bump,
    _collect,
    _fraction_terms,
    _integer_rows,
    _rescaled,
    _zero_vec,
    alpha_basis_product,
    graded_monomials,
)
from .records import FrozenRecord
from .scalars import Scalar


class TorusData(FrozenRecord):
    """Embedding exponents of a rank-d subtorus of the rank-n torus: a is
    the n x d matrix A, a tuple of n rows of d integers."""

    _fields = ("n", "d", "a")

    def __init__(self, n: int, d: int, a: tuple[tuple[int, ...], ...]):
        self.__dict__.update(n=n, d=d, a=a)
        if self.n < 1 or self.d < 0 or self.d > self.n:
            raise ParameterError("need 0 <= d <= n with n >= 1")
        if len(self.a) != self.n or any(len(row) != self.d for row in self.a):
            raise ParameterError("A must be an n x d integer matrix")
        if len(self.hnf[2]) != self.d:
            raise ParameterError("embedding matrix A must have full column rank")
        # a torus keys the lattice-step and invariance caches, so its hash is
        # taken once
        self.__dict__["_hash"] = hash(self._key())

    def __hash__(self):
        return self._hash

    @cached_property
    def hnf(self):
        """Column Hermite normal form (H, U, pivots) of A, as ``column_hnf``
        returns it but in tuples, since every reduction shares it.  A has
        full column rank exactly when it has d pivots."""
        h, u, pivots = column_hnf([list(r) for r in self.a])
        return tuple(map(tuple, h)), tuple(map(tuple, u)), tuple(pivots)

    @staticmethod
    def from_rows(rows) -> TorusData:
        rows = _integer_rows(rows, "A")
        d = len(rows[0]) if rows else 0
        return TorusData(len(rows), d, rows)

    def comoment_weights(self, spec: AlgebraSpec, degree: ExpVec) -> tuple[int, ...]:
        """A^t diag(M) applied to a lattice degree: conjugation by the j-th
        comoment value scales an element of that degree by q^(entry j)."""
        w = spec.weight(degree)
        return tuple(
            sum(self.a[i][j] * w[i] for i in range(self.n)) for j in range(self.d)
        )

    def column_parts(self, j: int) -> tuple[ExpVec, ExpVec]:
        """The positive and negative parts (P, N) of column j of A: the j-th
        comoment value is the fraction alpha^P alpha^-N."""
        col = tuple(row[j] for row in self.a)
        return tuple(max(k, 0) for k in col), tuple(max(-k, 0) for k in col)

    def is_invariant(self, spec: AlgebraSpec, degree: ExpVec) -> bool:
        """True when elements of this degree commute with every comoment
        value (decided once per torus, spec and degree)."""
        return _is_invariant(self, spec, degree)

    def character(self, t) -> tuple:
        """The subtorus point (prod_i t_i^(a_ij))_j of a torus point t; a
        factor with a_ij = 0 is left out.  No column of A is zero (A has full
        column rank), so no product is empty."""
        return tuple(
            reduce(operator.mul, (t[i] ** self.a[i][j] for i in range(self.n) if self.a[i][j]))
            for j in range(self.d)
        )


@lru_cache(maxsize=4096)
def _is_invariant(torus: TorusData, spec: AlgebraSpec, degree: ExpVec) -> bool:
    return not any(torus.comoment_weights(spec, degree))


class ReductionDatum(FrozenRecord):
    """Torus embedding and target point eta."""

    _fields = ("torus", "eta")

    def __init__(self, torus: TorusData, eta: tuple[Scalar, ...]):
        self.__dict__.update(torus=torus, eta=eta)
        if len(self.eta) != self.torus.d:
            raise ParameterError("eta must have one entry per subtorus coordinate")
        if any(e.is_zero() for e in self.eta):
            raise ParameterError("eta entries must be nonzero")


def quantum_comoment(
    exponents, torus: TorusData, spec: AlgebraSpec, basis: str = "z"
) -> LocalizedElement:
    """Image of a Laurent monomial of the torus (basis 'z') or of the
    subtorus (basis 'u', routed through A)."""
    if spec.n != torus.n:
        raise ParameterError("algebra rank and torus rank differ")
    exponents = tuple(int(e) for e in exponents)
    if basis == "u":
        if len(exponents) != torus.d:
            raise ParameterError("u-exponents must have length d")
        exponents = tuple(
            sum(torus.a[i][j] * exponents[j] for j in range(torus.d))
            for i in range(spec.n)
        )
    elif basis != "z":
        raise ParameterError("basis must be 'z' or 'u'")
    if len(exponents) != spec.n:
        raise ParameterError("z-exponents must have length n")
    zero = _zero_vec(spec.n)
    return LocalizedElement.from_terms(spec, {(zero, zero, exponents): spec.field.one})


def classical_moment_eval(p, w, torus: TorusData):
    """Point evaluation (p, w) -> ((1 + p_i w_i)_i, (prod_i (1+p_i w_i)^a_ij)_j)."""
    if len(p) != torus.n or len(w) != torus.n:
        raise ParameterError("p and w must have length n")
    t_point = []
    for i, (pi, wi) in enumerate(zip(p, w)):
        v = pi.field.one + pi * wi
        if v.is_zero():
            raise DomainError(f"1 + p_{i+1} w_{i+1} vanishes: outside the open locus")
        t_point.append(v)
    return tuple(t_point), torus.character(t_point)


def verify_moment_identity(torus: TorusData, spec: AlgebraSpec) -> CheckOutcome:
    """Conjugation by comoment values scales each generator by the grading
    character: alpha_i g alpha_i^-1 = q_ii^(lambda_i) g, and the analogue for
    every subtorus coordinate through A."""
    out = CheckOutcome()
    zero = _zero_vec(spec.n)
    gens = [(f"x{i}", _bump(zero, i - 1, 1), spec.x(i)) for i in range(1, spec.n + 1)]
    gens += [(f"d{i}", _bump(zero, i - 1, -1), spec.d(i)) for i in range(1, spec.n + 1)]
    for i in range(1, spec.n + 1):
        al = spec.alpha(i)
        for name, deg, g in gens:
            ok = al * g == g * al * spec.q_power(spec.weight(deg)[i - 1])
            out.record(ok, f"alpha{i} conjugates {name}")
        # degree-zero elements commute with alpha_i
        for j in range(1, spec.n + 1):
            out.record(
                al * spec.alpha(j) == spec.alpha(j) * al,
                f"alpha{i} fixes alpha{j}",
            )
    for j in range(torus.d):
        # phi_j g phi_j^-1 = q^e g in the localized algebra, and cleared of the
        # denominators of phi_j = alpha^P alpha^-N in the engine:
        # alpha^P g alpha^N = q^e alpha^N g alpha^P
        unit = [1 if k == j else 0 for k in range(torus.d)]
        phi = quantum_comoment(unit, torus, spec, "u")
        phi_inv = quantum_comoment([-k for k in unit], torus, spec, "u")
        ap, an = map(spec.alpha_power, torus.column_parts(j))
        for name, deg, g in gens:
            e = torus.comoment_weights(spec, deg)[j]
            ok = phi * g * phi_inv == LocalizedElement.from_pbw(g).scale(spec.q_power(e))
            rhs = an * g * ap
            ok = ok and ap * g * an == (rhs.scale(spec.q_power(e)) if e else rhs)
            out.record(ok, f"u{j+1} comoment conjugates {name}")
    return out


# ---------------------------------------------------------------------------
# Canonical form modulo the moment left ideal
# ---------------------------------------------------------------------------

class ReducedElement(TermElement):
    """Canonical representative in the quotient by the moment left ideal."""

    __slots__ = ("datum", "spec")

    def __init__(self, datum: ReductionDatum, spec: AlgebraSpec, terms):
        self.datum = datum
        self.spec = spec
        super().__init__(terms)

    def _meta(self):
        return (self.datum, self.spec)

    def is_invariant(self) -> bool:
        """True when every term commutes with the comoment values of its datum."""
        return all(
            self.datum.torus.is_invariant(self.spec, tuple(p - r for p, r in zip(a, b)))
            for (a, b, _) in self.terms
        )

    def to_localized(self) -> LocalizedElement:
        """This element in the localized algebra: the same alpha-basis terms."""
        return LocalizedElement.from_terms(self.spec, dict(self.terms))

    def __str__(self):
        from .expr import _format_terms

        return _format_terms(self.sorted_terms())

    __repr__ = __str__


@lru_cache(maxsize=4096)
def _lattice_step(torus: TorusData, eta: tuple[Scalar, ...], c: tuple[int, ...]):
    """The alpha exponents c reduced modulo the column lattice of A, as
    (reduced exponents, eta^t), with None for eta^t when t = 0."""
    h, uu, pivots = torus.hnf
    red, t = hnf_reduce(c, h, uu, pivots)
    et = None
    if any(t):
        et = reduce(operator.mul, (e**tj for e, tj in zip(eta, t) if tj))
    return red, et


def _lattice_reduce(datum: ReductionDatum, spec: AlgebraSpec, terms) -> ReducedElement:
    """The canonical form of alpha-basis terms: each alpha exponent vector c
    is reduced modulo the column lattice of A, and a subtracted lattice
    vector A t multiplies by eta^t; the step is looked up once per distinct
    c and taken once per torus, eta and c (see `_lattice_step`).  The terms
    must have nonzero coefficients; the reduced terms are summed by the
    accumulator of the PBW engine, `_collect`."""
    torus, eta = datum.torus, datum.eta
    product = spec.field._product

    def reduced():
        steps: dict = {}
        for (a, b, c), coeff in terms.items():
            step = steps.get(c)
            if step is None:
                step = steps[c] = _lattice_step(torus, eta, c)
            red, et = step
            yield (a, b, red), (coeff.v if et is None else product(coeff.v, et.v))

    element = ReducedElement.__new__(ReducedElement)
    element.datum, element.spec = datum, spec
    element.terms = _collect(spec.field, reduced())
    return element


def moment_ideal_reduce(u, datum: ReductionDatum, coord_order=None) -> ReducedElement:
    """Canonical form of u modulo the left ideal generated by the comoment
    values minus eta.

    Accepts a PBWElement, LocalizedElement, or ReducedElement.  A
    ReducedElement goes back through its PBW fraction, so reducing it again
    is a real round trip.  ``coord_order``, a permutation of range(n), is the
    order in which the mixed pairs x_i d_i of the PBW fraction are
    eliminated; when it is given, a LocalizedElement is converted again from
    its fraction in that order.  The canonical form does not depend on it.
    """
    if not isinstance(u, (PBWElement, LocalizedElement, ReducedElement)):
        raise ParameterError("reduce takes a PBW, localized, or reduced element")
    spec = u.spec
    if spec.n != datum.torus.n:
        raise ParameterError("algebra rank and torus rank differ")
    if coord_order is not None:
        coord_order = tuple(coord_order)
        if len(coord_order) != spec.n or set(coord_order) != set(range(spec.n)):
            raise ParameterError(f"coord_order must be a permutation of 0..{spec.n - 1}")
    if isinstance(u, LocalizedElement) and coord_order is None:
        return _lattice_reduce(datum, spec, u.terms)
    if isinstance(u, PBWElement):
        num, den = u, _zero_vec(spec.n)
    else:
        u = u.to_localized() if isinstance(u, ReducedElement) else u
        num, den = u.numerator, u.denom
    order = tuple(range(spec.n)) if coord_order is None else coord_order
    terms = _fraction_terms(_rescaled(spec), num, den, order)
    return _lattice_reduce(datum, spec, terms)


def invariant_monomials(torus: TorusData, spec: AlgebraSpec, degree_bound: int):
    """PBW monomials x^a d^b with |a|+|b| <= bound that commute with every
    comoment value: their grading lies in ker(A^t diag(M))."""
    if degree_bound < 0:
        raise ParameterError("degree bound must be nonnegative")
    if spec.n != torus.n:
        raise ParameterError("algebra rank and torus rank differ")
    return sorted(
        (a, b)
        for a, b in graded_monomials(torus.n, degree_bound)
        if torus.is_invariant(spec, tuple(p - r for p, r in zip(a, b)))
    )


def reduced_product(
    u: ReducedElement, v: ReducedElement, datum: ReductionDatum
) -> ReducedElement:
    """Multiply two invariant canonical representatives and re-reduce.

    Both must be reduced under this datum and over one spec.  The product is
    the one of the localized algebra, taken on the alpha-basis terms, and it
    is reduced by the lattice step."""
    if u.datum != datum or v.datum != datum:
        raise ParameterError("reduced_product needs elements reduced under its datum")
    if u.spec != v.spec:
        raise ParameterError("reduced_product needs elements over one spec")
    for w in (u, v):
        if not w.is_invariant():
            raise ParameterError("reduced_product needs invariant inputs")
    return _lattice_reduce(datum, u.spec, alpha_basis_product(u.spec, u.terms, v.terms))
