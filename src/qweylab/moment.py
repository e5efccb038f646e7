"""Torus-valued moment maps, the conjugation identity they encode, and
normal forms in the localized algebra modulo the moment left ideal.

The torus data is an n x d integer matrix A embedding a rank-d subtorus; the
comoment map sends the j-th subtorus coordinate to the product of Euler
operators alpha_i^(a_ij).  Reduction modulo the left ideal generated by these
products minus the target point eta rewrites every element into the canonical
basis x^a d^b alpha^c with min(a_i, b_i) = 0 and the alpha exponent vector a
canonical coset representative modulo the column lattice of A (column Hermite
normal form picks the representative; each subtracted lattice vector A t
contributes the multiplier prod eta_j^(t_j)).  The Hermite normal form is
computed once per torus (``TorusData.hnf``).

Reduced elements multiply in that basis.  alpha^c q-commutes with every
monomial, alpha^c w = sigma^c(w) alpha^c for every integer vector c, so the
product of sum_c U_c alpha^c and sum_c V_c alpha^c is
sum U_c1 sigma^c1(V_c2) alpha^(c1 + c2).  One reduction kernel takes each
such PBW numerator with its alpha shift c1 + c2, as it takes a fraction
N alpha^-k with the shift -k.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .errors import DomainError, ParameterError
from .exactla import column_hnf, hnf_reduce, require_full_column_rank
from .qweyl import (
    AlgebraSpec,
    CheckOutcome,
    ExpVec,
    LocalizedElement,
    PBWElement,
    TermElement,
    _FILL_STEP,
    _bump,
    _integer_rows,
    _sigma_scale,
    _zero_vec,
    graded_monomials,
)
from .scalars import Scalar


@dataclass(frozen=True)
class TorusData:
    """Embedding exponents of a rank-d subtorus of the rank-n torus."""

    n: int
    d: int
    a: tuple[tuple[int, ...], ...]  # n rows, d columns

    def __post_init__(self):
        if self.n < 1 or self.d < 0 or self.d > self.n:
            raise ParameterError("need 0 <= d <= n with n >= 1")
        if len(self.a) != self.n or any(len(row) != self.d for row in self.a):
            raise ParameterError("A must be an n x d integer matrix")
        if self.d:
            require_full_column_rank([list(r) for r in self.a], "embedding matrix A")

    @cached_property
    def hnf(self):
        """Column Hermite normal form (H, U, pivots) of A, as ``column_hnf``
        returns it but in tuples, since every reduction shares it."""
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

    def is_invariant(self, spec: AlgebraSpec, degree: ExpVec) -> bool:
        """True when elements of this degree commute with every comoment value."""
        return not any(self.comoment_weights(spec, degree))

    def character(self, t, mul=operator.mul, power=operator.pow) -> tuple:
        """The subtorus point (prod_i t_i^(a_ij))_j of a torus point t, under
        the given product and power; a factor with a_ij = 0 is left out.  No
        column of A is zero (A has full column rank), so no product is empty."""
        return tuple(
            reduce(mul, (power(t[i], self.a[i][j]) for i in range(self.n) if self.a[i][j]))
            for j in range(self.d)
        )


@dataclass(frozen=True)
class ReductionDatum:
    """Torus embedding and target point eta."""

    torus: TorusData
    eta: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.eta) != self.torus.d:
            raise ParameterError("eta must have one entry per subtorus coordinate")
        if any(e.is_zero() for e in self.eta):
            raise ParameterError("eta entries must be nonzero")


def quantum_comoment(
    exponents, torus: TorusData, spec: AlgebraSpec, basis: str = "z"
) -> LocalizedElement:
    """Image of a Laurent monomial of the torus (basis 'z') or of the
    subtorus (basis 'u', routed through A)."""
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
    num = spec.alpha_power(tuple(max(c, 0) for c in exponents))
    den = tuple(max(-c, 0) for c in exponents)
    return LocalizedElement(num, den)


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
        phi = quantum_comoment([1 if k == j else 0 for k in range(torus.d)], torus, spec, "u")
        phi_inv = quantum_comoment(
            [-1 if k == j else 0 for k in range(torus.d)], torus, spec, "u"
        )
        for name, deg, g in gens:
            e = torus.comoment_weights(spec, deg)[j]
            lhs = phi * g * phi_inv
            ok = lhs.equals(LocalizedElement.from_pbw(g * spec.q_power(e)))
            out.record(ok, f"u{j+1} comoment conjugates {name}")
    return out


# ---------------------------------------------------------------------------
# Canonical form modulo the moment left ideal
# ---------------------------------------------------------------------------

AlphaKey = tuple[ExpVec, ExpVec, tuple[int, ...]]  # (a, b, alpha exponents)


@lru_cache(maxsize=None)
def _alpha_table(spec: AlgebraSpec, i: int, r: int, s: int):
    """x_i^r d_i^s as a combination of x_i^(r-m) d_i^(s-m) alpha_i^k."""
    f = spec.field
    if r == 0 or s == 0:
        return (((r, s, 0), f.one),)
    # the chain runs down to (r - m, s - m); fill it bottom-up (see _FILL_STEP)
    m = min(r, s)
    for t in range(_FILL_STEP, m - 1, _FILL_STEP):
        _alpha_table(spec, i, r - m + t, s - m + t)
    qii_inv = spec.q_power(-spec.m[i][i] * (s - 1))
    below = _alpha_table(spec, i, r - 1, s - 1)
    out: dict[tuple[int, int, int], Scalar] = {}
    for (rr, ss, k), c in below:
        # x^r d^s = q^-(s-1) x^(r-1) d^(s-1) alpha - x^(r-1) d^(s-1)
        key, v = (rr, ss, k + 1), c * qii_inv
        prev = out.get(key)
        out[key] = v if prev is None else prev + v
        key = (rr, ss, k)
        prev = out.get(key)
        out[key] = -c if prev is None else prev - c
    return tuple((k, c) for k, c in out.items() if not c.is_zero())


def _alpha_form_terms(spec: AlgebraSpec, a: ExpVec, b: ExpVec, coord_order=None):
    """Expansion of x^a d^b over the basis x^a' d^b' alpha^c, min(a'_i,b'_i)=0.

    The coordinate processing order is configurable to let tests confirm the
    result is order-independent.
    """
    n = spec.n
    f = spec.field
    order = list(range(n)) if coord_order is None else list(coord_order)
    terms: dict[AlphaKey, Scalar] = {(a, b, _zero_vec(n)): f.one}
    for i in order:
        nxt: dict[AlphaKey, Scalar] = {}
        for (aa, bb, cc), coeff in terms.items():
            m = min(aa[i], bb[i])
            if m == 0:
                key = (aa, bb, cc)
                prev = nxt.get(key)
                nxt[key] = coeff if prev is None else prev + coeff
                continue
            # twist from commuting the i-block together and back
            e = -sum(spec.m[i][j] * aa[j] * m for j in range(i + 1, n))
            e -= sum(spec.m[j][i] * bb[j] * m for j in range(i))
            e *= spec.sign
            tw = coeff * spec.q_power(e)
            for (rr, ss, k), c in _alpha_table(spec, i, aa[i], bb[i]):
                key = (_bump(aa, i, rr - aa[i]), _bump(bb, i, ss - bb[i]), _bump(cc, i, k))
                val = tw * c
                prev = nxt.get(key)
                nxt[key] = val if prev is None else prev + val
        terms = {k: v for k, v in nxt.items() if not v.is_zero()}
    return terms


class ReducedElement(TermElement):
    """Canonical representative in the quotient by the moment left ideal."""

    __slots__ = ("datum", "spec")

    def __init__(self, datum: ReductionDatum, spec: AlgebraSpec, terms):
        self.datum = datum
        self.spec = spec
        super().__init__(terms)

    def _meta(self):
        return (self.datum, self.spec)

    def grading_degree(self):
        degs = {
            tuple(p - r for p, r in zip(a, b)) for (a, b, _) in self.terms
        }
        if not degs:
            return _zero_vec(self.spec.n)
        return next(iter(degs)) if len(degs) == 1 else None

    def is_invariant(self) -> bool:
        """True when every term commutes with the comoment values of its datum."""
        return all(
            self.datum.torus.is_invariant(self.spec, tuple(p - r for p, r in zip(a, b)))
            for (a, b, _) in self.terms
        )

    def to_localized(self) -> LocalizedElement:
        out = None
        for (a, b, c), coeff in self.terms.items():
            num = self.spec.monomial(a, b, coeff) * self.spec.alpha_power(
                tuple(max(k, 0) for k in c)
            )
            part = LocalizedElement(num, tuple(max(-k, 0) for k in c))
            out = part if out is None else out + part
        if out is None:
            return LocalizedElement.from_pbw(self.spec.zero())
        return out

    def __str__(self):
        from .expr import _format_terms

        return _format_terms(self.sorted_terms())

    __repr__ = __str__


def _canonical_form(spec: AlgebraSpec, datum: ReductionDatum, parts, coord_order=None):
    """Canonical form of the sum of numerator * alpha^shift over the
    (numerator, shift) pairs in ``parts``, each numerator a PBWElement.

    Mixed pairs x_i d_i are eliminated through alpha_i = 1 + x_i d_i; each
    alpha exponent vector, shifted, is reduced modulo the column lattice of A,
    and a subtracted lattice vector A t multiplies by eta^t.
    """
    h, uu, pivots = datum.torus.hnf
    eta_powers: dict[tuple[int, ...], Scalar] = {}
    one = spec.field.one.v
    out: dict[AlphaKey, Scalar] = {}
    for numerator, shift in parts:
        for (a, b), coeff in numerator.terms.items():
            for (aa, bb, cc), c2 in _alpha_form_terms(spec, a, b, coord_order).items():
                red, t = hnf_reduce([k + s for k, s in zip(cc, shift)], h, uu, pivots)
                mult = coeff if c2.v == one else coeff * c2
                if any(t):
                    et = eta_powers.get(t)
                    if et is None:
                        et = eta_powers[t] = reduce(
                            operator.mul, (e**tj for e, tj in zip(datum.eta, t) if tj)
                        )
                    mult = mult * et
                key = (aa, bb, red)
                prev = out.get(key)
                out[key] = mult if prev is None else prev + mult
    return ReducedElement(datum, spec, out)


def moment_ideal_reduce(u, datum: ReductionDatum, coord_order=None) -> ReducedElement:
    """Canonical form of u modulo the left ideal generated by the comoment
    values minus eta.

    Accepts a PBWElement, LocalizedElement, or ReducedElement; a fraction
    N alpha^-k reduces as N with the alpha shift -k.  A ReducedElement goes
    back through its fraction, so reducing it again is a real round trip.
    """
    if isinstance(u, ReducedElement):
        u = u.to_localized()
    if isinstance(u, PBWElement):
        u = LocalizedElement.from_pbw(u)
    if not isinstance(u, LocalizedElement):
        raise ParameterError("reduce takes a PBW, localized, or reduced element")
    if coord_order is not None:
        coord_order = list(coord_order)
    spec = u.spec
    if spec.n != datum.torus.n:
        raise ParameterError("algebra rank and torus rank differ")
    shift = tuple(-k for k in u.denom)
    return _canonical_form(spec, datum, [(u.numerator, shift)], coord_order)


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


def _alpha_parts(u: ReducedElement) -> dict[tuple[int, ...], PBWElement]:
    """u as the sum of U_c alpha^c: its PBW numerator U_c for each alpha exponent c."""
    parts: dict[tuple[int, ...], dict] = {}
    for (a, b, c), coeff in u.terms.items():
        parts.setdefault(c, {})[(a, b)] = coeff
    return {c: PBWElement(u.spec, terms) for c, terms in parts.items()}


def reduced_product(
    u: ReducedElement, v: ReducedElement, datum: ReductionDatum
) -> ReducedElement:
    """Multiply two invariant canonical representatives and re-reduce.

    Both must be reduced under this datum and over one spec.  The product is
    taken in the alpha basis: alpha^c w = sigma^c(w) alpha^c for every integer
    vector c, so u v = sum U_c1 sigma^c1(V_c2) alpha^(c1 + c2), and each
    numerator is reduced with its alpha shift c1 + c2."""
    if u.datum != datum or v.datum != datum:
        raise ParameterError("reduced_product needs elements reduced under its datum")
    if u.spec != v.spec:
        raise ParameterError("reduced_product needs elements over one spec")
    for w in (u, v):
        if not w.is_invariant():
            raise ParameterError("reduced_product needs invariant inputs")
    spec = u.spec
    v_parts = _alpha_parts(v)
    return _canonical_form(
        spec,
        datum,
        (
            (uc1 * _sigma_scale(spec, vc2, c1), tuple(p + r for p, r in zip(c1, c2)))
            for c1, uc1 in _alpha_parts(u).items()
            for c2, vc2 in v_parts.items()
        ),
    )
