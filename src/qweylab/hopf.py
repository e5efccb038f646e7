"""Braided Hopf structure on the deformed symmetric algebras and their
Heisenberg double.

The x- and the d-algebra are the braided symmetric algebras on their
generators, with braiding ``v (x) w -> q^(deg v . M . deg w) w (x) v`` where
deg(x_i) = e_i and deg(d_i) = -e_i.  The braiding exponent is bilinear, so
two d-degrees braid as their x-degrees do: both are one braided symmetric
algebra on exponent vectors, and the sign matters only where a d-degree
meets an x-degree, in the pairing and the smash product.

Every structure map reads M and not the normalization, so the layer works
in ``spec.unscaled_twin()``, and its caches hold one entry per twin.  An
element of the braided symmetric algebra is a `PBWElement` of the twin with
zero d-part: the twin's engine multiplies x^a1 x^a2 into
q^(-merge(a1, a2)) x^(a1+a2), the product of the algebra.  Each structure
map is a construction or a closed form, and a check certifies it:

* the product of the braided tensor square: the product kernel
  ``_ordered_product`` of the PBW engine with the braiding as core;
* the coproduct: constructed, primitive on generators and extended
  multiplicatively in the braided tensor square; certified by the
  coassociativity and counit laws of hopf-axioms;
* the antipode: closed form; certified by the antipode laws of hopf-axioms,
  since S is the convolution inverse of the identity and so is fixed by
  the coproduct;
* the pairing <d^a, x^a> of d- with x-monomials, zero between distinct
  multidegrees: closed form (a braided q-factorial times a twist);
  certified by double-presentation;
* the left regular action and the double product: constructed, the action
  pairs with the second coproduct leg after braiding the legs, and the
  product splits the d-part, braids it past the incoming x-part, acts, and
  multiplies componentwise; certified by double-presentation, which
  compares every smash-product core up to the degree bound with the
  engine's reordering in the twin.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import ParameterError
from .qweyl import (
    AlgebraSpec,
    CheckOutcome,
    ExpVec,
    PBWElement,
    TermElement,
    _bump,
    _collect,
    _ordered_product,
    _reorder,
    _zero_vec,
    exponent_vectors,
    graded_monomials,
)
from .scalars import Scalar

def braid_exponent(spec: AlgebraSpec, dv: ExpVec, dw: ExpVec) -> int:
    m = spec.m
    return sum(
        dv[i] * m[i][j] * dw[j] for i in range(spec.n) for j in range(spec.n)
        if dv[i] and dw[j]
    )


def _braid_core(spec: AlgebraSpec, b: ExpVec, c: ExpVec):
    """The braiding b (x) c -> q^braid(b, c) c (x) b.  As the core of
    `_ordered_product` with sign -1, over keys (left leg, right leg), it
    multiplies in the braided tensor square: (a (x) b)(c (x) d) =
    q^braid(b, c) ac (x) bd, where merging a c and b d twists by
    q^(-merge exponent), the relations that come from the braiding."""
    return (((c, b), spec.q_power(braid_exponent(spec, b, c))),)


@lru_cache(maxsize=None)
def coproduct(spec: AlgebraSpec, exp: ExpVec):
    """Multiplicative extension of the primitive coproduct on a monomial: the
    product of g (x) 1 + 1 (x) g over the generator factors g of x^exp in
    order, in the braided tensor square, as a tuple of ((h1, h2), c) terms
    with h1 + h2 = exp."""
    f = spec.field
    zero = _zero_vec(spec.n)
    terms = {(zero, zero): f.one}
    for i, e in enumerate(exp):
        g = _bump(zero, i, 1)
        gen = {(g, zero): f.one, (zero, g): f.one}
        for _ in range(e):
            terms = _ordered_product(spec, terms, gen, _braid_core, -1)
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _second_legs(spec: AlgebraSpec, exp: ExpVec) -> dict[ExpVec, tuple[ExpVec, Scalar]]:
    """The coproduct of x^exp indexed by its second leg, h2 -> (h1, c): the
    coproduct preserves the multidegree, so h2 fixes h1 = exp - h2.  The
    cached dict is shared, so callers only read it."""
    return {h2: (h1, c) for (h1, h2), c in coproduct(spec, exp)}


def counit(exp: ExpVec) -> bool:
    """epsilon(monomial) is 1 on the unit monomial and 0 otherwise."""
    return not any(exp)


@lru_cache(maxsize=None)
def antipode_coeff(spec: AlgebraSpec, exp: ExpVec) -> Scalar:
    """S(x^a) = (-1)^|a| q^(sum_i m_ii a_i (a_i - 1) / 2) x^a.

    S negates each generator and reverses the order of the |a| factors,
    braiding every pair it swaps.  Reordering the result back to x^a undoes
    the braidings of two distinct generators, so the braidings
    q^(m_ii) of the a_i (a_i - 1) / 2 pairs of equal ones remain."""
    e = sum(spec.m[i][i] * a * (a - 1) // 2 for i, a in enumerate(exp))
    c = spec.q_power(e)
    return -c if sum(exp) % 2 else c


def antipode(u: PBWElement) -> PBWElement:
    """S on an element of the braided symmetric algebra."""
    return u._like({k: c * antipode_coeff(u.spec, k[0]) for k, c in u.terms.items()})


@lru_cache(maxsize=None)
def pairing(spec: AlgebraSpec, exp: ExpVec) -> Scalar:
    """<d^a, x^a> = prod_i [a_i]_{q^(-m_ii)}! * q^(sum_{p<i} a_p m_pi a_i).

    The pairing preserves the lattice multidegree, so <d^a, x^b> = 0 for
    a != b.  Pairing d_i^k with x_i^k through the braided binomial coproduct
    of x_i^k gives the braided q-factorial, and braiding the d-powers of
    earlier generators past the x-powers of later ones gives the twist."""
    f = spec.field
    m = spec.m
    acc = spec.q_power(
        sum(ap * m[p][i] * ai for i, ai in enumerate(exp) for p, ap in enumerate(exp[:i]))
    )
    for i, a in enumerate(exp):
        step = f.zero
        for k in range(a):
            step = step + spec.q_power(-m[i][i] * k)  # [k + 1]_{q^(-m_ii)}
            acc = acc * step
    return acc


def left_regular_action(dexp: ExpVec, h: PBWElement) -> PBWElement:
    """act(f, h) = sum braid^(-1)(h_(1), h_(2)) <f, h_(2)> h_(1) for f = d^dexp
    and h in the braided symmetric algebra.

    Only the coproduct term of each x^a in h whose second leg is dexp pairs
    to nonzero, and its first leg a - dexp differs from term to term.  The
    middle crossing that moves the paired leg next to f is the inverse
    braiding; with the pairing above, this is the unique orientation under
    which the double reproduces its closed presentation (checked
    exhaustively by verify_double_presentation).
    """
    spec = h.spec
    p = pairing(spec, dexp)
    out = {}
    for (hexp, zero), c in h.terms.items():
        term = _second_legs(spec, hexp).get(dexp)
        if term is not None:
            h1, cc = term
            v = c * cc * p
            out[(h1, zero)] = spec.field.twist(v, -braid_exponent(spec, dexp, h1))
    return PBWElement(spec, out)


# ---------------------------------------------------------------------------
# The Heisenberg double
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _smash_core(spec: AlgebraSpec, dexp: ExpVec, xexp: ExpVec):
    """(1 (x) d^dexp)(x^xexp (x) 1) expanded as ((x-exp, d-exp) -> scalar)
    in the double of the unscaled spec."""
    out: dict[tuple[ExpVec, ExpVec], Scalar] = {}
    x = spec.monomial(xexp, _zero_vec(spec.n))
    for (f1, f2), c in coproduct(spec, dexp):
        e = -braid_exponent(spec, f2, xexp)
        # f1 fixes both legs of the key, so no two terms meet
        for (aexp, _), ca in left_regular_action(f1, x).terms.items():
            out[(aexp, f2)] = spec.field.twist(c * ca, e)
    return tuple(out.items())


class DoubleElement(TermElement):
    """Element of the smash product, with the product built from the
    coproduct/braiding/action composition rather than from any presentation.

    The double reads M alone, so a spec and its unscaled twin give one
    algebra, kept under the twin."""

    __slots__ = ("spec",)

    def __init__(self, spec: AlgebraSpec, terms: dict[tuple[ExpVec, ExpVec], Scalar]):
        self.spec = spec.unscaled_twin()
        super().__init__(terms)

    def _meta(self):
        return (self.spec,)

    @staticmethod
    def monomial(spec, a, b, coeff=None) -> DoubleElement:
        coeff = spec.field.one if coeff is None else coeff
        return DoubleElement(spec, {(tuple(a), tuple(b)): coeff})

    @staticmethod
    def one(spec) -> DoubleElement:
        return DoubleElement.monomial(spec, _zero_vec(spec.n), _zero_vec(spec.n))

    @staticmethod
    def x(spec, i) -> DoubleElement:
        return DoubleElement.monomial(
            spec, _bump(_zero_vec(spec.n), i - 1, 1), _zero_vec(spec.n)
        )

    @staticmethod
    def d(spec, i) -> DoubleElement:
        return DoubleElement.monomial(
            spec, _zero_vec(spec.n), _bump(_zero_vec(spec.n), i - 1, 1)
        )

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not self._same_algebra(other):
            return NotImplemented
        return self._like(_ordered_product(self.spec, self.terms, other.terms, _smash_core, -1))


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------


def _coproduct_on_leg(spec: AlgebraSpec, delta, leg: int):
    """(Delta (x) id) Delta for leg 0 and (id (x) Delta) Delta for leg 1 of a
    coproduct, as a dict over triples of legs without zero values."""
    product = spec.field._product
    return _collect(spec.field, (
        (legs[:leg] + split + legs[leg + 1 :], product(c.v, cc.v))
        for legs, c in delta
        for split, cc in coproduct(spec, legs[leg])
    ))


def verify_hopf_axioms(spec: AlgebraSpec, degree_bound: int) -> CheckOutcome:
    """Coassociativity, counit and both antipode laws on each monomial up to
    the bound, and bounded pairing nondegeneracy."""
    out = CheckOutcome()
    spec = spec.unscaled_twin()
    f = spec.field
    n = spec.n
    zero = _zero_vec(n)
    exps = [e for t in range(degree_bound + 1) for e in exponent_vectors(n, t, total=t)]
    for exp in exps:
        delta = coproduct(spec, exp)
        coassociative = _coproduct_on_leg(spec, delta, 0) == _coproduct_on_leg(spec, delta, 1)
        out.record(coassociative, f"coassociativity {exp}")
        # counit laws
        from_left = {v: c for (u, v), c in delta if counit(u)}
        from_right = {u: c for (u, v), c in delta if counit(v)}
        out.record(from_left == from_right == {exp: f.one}, f"counit {exp}")
        # antipode axiom: m (S (x) id) Delta = eta eps = m (id (x) S) Delta
        acc1 = acc2 = spec.zero()
        for (u, v), c in delta:
            xu, xv = spec.monomial(u, zero, c), spec.monomial(v, zero)
            acc1 = acc1 + antipode(xu) * xv
            acc2 = acc2 + xu * antipode(xv)
        expected = spec.one() if counit(exp) else spec.zero()
        out.record(acc1 == expected, f"antipode-left {exp}")
        out.record(acc2 == expected, f"antipode-right {exp}")
    # pairing nondegeneracy in bounded degree: the pairing preserves the
    # multidegree, so the Gram matrix is diagonal; nondegeneracy amounts to
    # each diagonal entry <d^a, x^a> being nonzero.  At q = zeta_l, [a_i]_Q!
    # of Q = q^(m_ii) vanishes from the order o_i = l / gcd(m_ii, l) of Q on
    # (never for o_i = 1), so the statement is only tested below it there.
    orders = [f.l // gcd(row[i], f.l) for i, row in enumerate(spec.m)] if f.l else []
    for a in exps:
        if all(e < o for e, o in zip(a, orders) if o > 1):
            out.record(not pairing(spec, a).is_zero(), f"pairing diagonal {a}")
    return out


def verify_double_presentation(spec: AlgebraSpec, degree_bound: int) -> CheckOutcome:
    """The composed smash product agrees with the unscaled rewriting engine on
    all pairs of basis monomials up to the bound, and the closed-form
    relations hold inside the double.

    Each pair is decided by the commutation core it reaches.  Both products
    of x^a1 d^b1 and x^a2 d^b2 are `_ordered_product` with sign -1 on
    one-term dicts, the double's with `_smash_core` and the engine's with
    `_reorder` over the unscaled twin.  Each term ((am, bm), c) of the core
    at (b1, a2) lands at key (a1 + am, bm + b2) with coefficient q^-e c,
    where e = merge(a1, am) + merge(bm, b2) depends on the spec's M only.
    That map of keys is injective and the twist invertible, so the two
    products agree exactly when the two cores at (b1, a2) do, and each
    distinct core pair is compared once."""
    if degree_bound < 1:
        raise ParameterError("degree bound must be at least 1")
    out = CheckOutcome()
    twin = spec.unscaled_twin()
    n = spec.n
    # closed-form relations
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            qij = spec.qij(i, j)
            di, xj = DoubleElement.d(spec, i), DoubleElement.x(spec, j)
            rel = di * xj - (xj * di).scale(qij.inv())
            if i == j:
                rel = rel - DoubleElement.one(spec)
            out.record(not rel.terms, f"d{i} x{j} relation")
            if i != j:
                xi = DoubleElement.x(spec, i)
                out.record(
                    (xi * xj - (xj * xi).scale(qij)).terms == {},
                    f"x{i} x{j} relation",
                )
                dj = DoubleElement.d(spec, j)
                out.record(
                    (di * dj - (dj * di).scale(qij)).terms == {},
                    f"d{i} d{j} relation",
                )
    # agreement with the engine on all monomial pairs, one case per pair
    monos = graded_monomials(n, degree_bound)
    agree: dict[tuple[ExpVec, ExpVec], bool] = {}
    for mono1 in monos:
        b1 = mono1[1]
        for mono2 in monos:
            core = (b1, mono2[0])
            ok = agree.get(core)
            if ok is None:
                ok = agree[core] = dict(_smash_core(twin, *core)) == dict(_reorder(twin, *core))
            out.record(ok, "" if ok else f"pair {mono1} * {mono2}")
    return out
