"""Braided Hopf structure on the deformed symmetric algebras and their
Heisenberg double.

The two algebras are the braided symmetric algebras on the x-generators and
on the d-generators, with braiding ``v (x) w -> q^(deg v . M . deg w) w (x) v``
where deg(x_i) = e_i and deg(d_i) = -e_i.  The braiding exponent is
bilinear, so two d-degrees braid as their x-degrees do: both sides are one
braided symmetric algebra on exponent vectors, and the sign matters only
where a d-degree meets an x-degree, in the pairing and the smash product.
The structure maps are computed, never hard-coded:

* the products of the algebra and of its braided tensor square go through
  the product kernel ``_ordered_product`` of the PBW engine, with the
  braiding as its core;
* the coproduct is primitive on generators and extended multiplicatively
  inside the braided tensor square;
* the antipode negates generators and extends braided-anti-multiplicatively;
* the duality pairing between d- and x-monomials is forced by the recursion
  ``<f f', h> = sum braid(f', h_(1)) <f, h_(1)> <f', h_(2)>`` together with
  ``<d_i, x_j> = delta_ij``;
* the left regular action is pair-with-the-second-leg after braiding the
  coproduct legs;
* the double product splits the d-part, braids it past the incoming x-part,
  acts, and multiplies componentwise.

All of this fixes the unscaled presentation, which is what
:func:`verify_double_presentation` checks against the rewriting engine: on
every pair of basis monomials, decided by the commutation core the pair
reaches (the smash-product core against the engine's reordering).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParameterError
from .qweyl import (
    AlgebraSpec,
    CheckOutcome,
    ExpVec,
    TermElement,
    _bump,
    _merge_exponent,
    _ordered_product,
    _reorder,
    _zero_vec,
    exponent_vectors,
    graded_monomials,
)
from .scalars import Scalar, mul_skip_one

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
    q^(-_merge_exponent), the relations that come from the braiding."""
    return (((c, b), spec.q_power(braid_exponent(spec, b, c))),)


class SideElement(TermElement):
    """Element of the braided symmetric algebra (terms: exponent -> scalar);
    ``side`` keeps the x- and the d-algebra apart, which multiply alike.

    It multiplies as its embedding u -> u (x) 1 into the braided tensor
    square, so only the merge twists act."""

    __slots__ = ("spec", "side")

    def __init__(self, spec: AlgebraSpec, side: str, terms: dict[ExpVec, Scalar]):
        self.spec = spec
        self.side = side
        super().__init__(terms)

    def _meta(self):
        return (self.spec, self.side)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not self._same_algebra(other):
            return NotImplemented
        unit = _zero_vec(self.spec.n)
        terms = _ordered_product(
            self.spec,
            {(e, unit): c for e, c in self.terms.items()},
            {(e, unit): c for e, c in other.terms.items()},
            _braid_core,
            -1,
        )
        return SideElement(self.spec, self.side, {e: c for (e, _), c in terms.items()})

    def __hash__(self):
        return hash((self.spec, self.side, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))


def side_monomial(spec: AlgebraSpec, side: str, exp, coeff=None) -> SideElement:
    coeff = spec.field.one if coeff is None else coeff
    return SideElement(spec, side, {tuple(exp): coeff})


def side_one(spec: AlgebraSpec, side: str) -> SideElement:
    return side_monomial(spec, side, _zero_vec(spec.n))


@lru_cache(maxsize=None)
def coproduct(spec: AlgebraSpec, exp: ExpVec):
    """Multiplicative extension of the primitive coproduct on a monomial: the
    product of g (x) 1 + 1 (x) g over the generator factors g of x^exp in
    order, in the braided tensor square, as a tuple of ((h1, h2), c) terms."""
    f = spec.field
    zero = _zero_vec(spec.n)
    terms = {(zero, zero): f.one}
    for i, e in enumerate(exp):
        g = _bump(zero, i, 1)
        gen = {(g, zero): f.one, (zero, g): f.one}
        for _ in range(e):
            terms = _ordered_product(spec, terms, gen, _braid_core, -1)
            terms = {k: c for k, c in terms.items() if not c.is_zero()}
    return tuple(terms.items())


def _peeled(exp: ExpVec):
    """The steps (u, g, rest) of splitting the leading generator g off the
    monomial u = g rest, from u = exp down to the unit monomial."""
    rest = exp
    for i, e in enumerate(exp):
        g = _bump(_zero_vec(len(exp)), i, 1)
        for _ in range(e):
            u, rest = rest, _bump(rest, i, -1)
            yield u, g, rest


def counit(exp: ExpVec) -> bool:
    """epsilon(monomial) is 1 on the unit monomial and 0 otherwise."""
    return not any(exp)


@lru_cache(maxsize=None)
def antipode_coeff(spec: AlgebraSpec, exp: ExpVec) -> Scalar:
    """S(monomial) = coeff * same monomial; braided anti-multiplicative.

    Peel the leading generator g off u = g u': S(g u') = braid(deg g, deg u')
    S(u') S(g) with S(g) = -g, and S(u') is a multiple of u', so moving g back
    to its canonical place in u' g adds the merge twist.  The loop runs that
    recursion down to the unit monomial.
    """
    e = sum(
        braid_exponent(spec, g, rest) - _merge_exponent(spec, rest, g)
        for _, g, rest in _peeled(exp)
    )
    c = spec.q_power(e)
    return -c if sum(exp) % 2 else c


def antipode(u: SideElement) -> SideElement:
    return u._like({k: c * antipode_coeff(u.spec, k) for k, c in u.terms.items()})


@lru_cache(maxsize=None)
def pairing(spec: AlgebraSpec, dexp: ExpVec, xexp: ExpVec) -> Scalar:
    """<d^dexp, x^xexp>, by the product-versus-coproduct recursion.

    The pairing preserves the lattice multidegree, so it vanishes unless the
    exponent vectors agree.  On matching monomials d^a and x^a, splitting
    the leading generator d_i off d^a pairs it with the first leg of
    Delta(x^a) and d^(a - e_i) with the second, so only the leg
    x_i (x) x^(a - e_i) contributes: its coefficient, twisted by braiding
    d^(a - e_i) past x_i.  The loop runs that recursion down to the unit
    monomial, one coproduct coefficient and one twist per generator.
    """
    f = spec.field
    if dexp != xexp:
        return f.zero
    acc = f.one
    for u, g, rest in _peeled(xexp):
        c = dict(coproduct(spec, u)).get((g, rest))
        if c is None:
            return f.zero
        acc = f.twist(mul_skip_one(acc, c), -braid_exponent(spec, rest, g))
    return acc


def left_regular_action(spec: AlgebraSpec, dexp: ExpVec, h: SideElement) -> SideElement:
    """act(f, h) = sum braid^(-1)(h_(1), h_(2)) <f, h_(2)> h_(1).

    The middle crossing that moves the paired coproduct leg next to f is the
    inverse braiding; with the pairing recursion above, this is the unique
    orientation under which the double reproduces its closed presentation
    (checked exhaustively by verify_double_presentation).
    """
    out: dict[ExpVec, Scalar] = {}
    for hexp, c in h.terms.items():
        for (h1, h2), cc in coproduct(spec, hexp):
            p = pairing(spec, dexp, h2)
            if p.is_zero():
                continue
            e = -braid_exponent(spec, h2, h1)
            v = spec.field.twist(mul_skip_one(mul_skip_one(c, cc), p), e)
            prev = out.get(h1)
            out[h1] = v if prev is None else prev + v
    return SideElement(spec, "x", out)


# ---------------------------------------------------------------------------
# The Heisenberg double
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _smash_core(spec: AlgebraSpec, dexp: ExpVec, xexp: ExpVec):
    """(1 (x) d^dexp)(x^xexp (x) 1) expanded as ((x-exp, d-exp) -> scalar)."""
    out: dict[tuple[ExpVec, ExpVec], Scalar] = {}
    for (f1, f2), c in coproduct(spec, dexp):
        e = -braid_exponent(spec, f2, xexp)
        acted = left_regular_action(spec, f1, side_monomial(spec, "x", xexp))
        for aexp, ca in acted.terms.items():
            v = spec.field.twist(mul_skip_one(c, ca), e)
            key = (aexp, f2)
            prev = out.get(key)
            out[key] = v if prev is None else prev + v
    return tuple((k, v) for k, v in out.items() if not v.is_zero())


class DoubleElement(TermElement):
    """Element of the smash product, with the product built from the
    coproduct/braiding/action composition rather than from any presentation."""

    __slots__ = ("spec",)

    def __init__(self, spec: AlgebraSpec, terms: dict[tuple[ExpVec, ExpVec], Scalar]):
        self.spec = spec
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
        terms = _ordered_product(self.spec, self.terms, other.terms, _smash_core, -1)
        return DoubleElement(self.spec, terms)


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------


def _coproduct_on_leg(spec: AlgebraSpec, delta, leg: int):
    """(Delta (x) id) Delta for leg 0 and (id (x) Delta) Delta for leg 1 of a
    coproduct, as a dict over triples of legs without zero values."""
    out = {}
    for legs, c in delta:
        for split, cc in coproduct(spec, legs[leg]):
            key = legs[:leg] + split + legs[leg + 1 :]
            val = c * cc
            prev = out.get(key)
            out[key] = val if prev is None else prev + val
    return {k: v for k, v in out.items() if not v.is_zero()}


def verify_hopf_axioms(spec: AlgebraSpec, degree_bound: int) -> CheckOutcome:
    """Coassociativity, counit, antipode, and bounded pairing nondegeneracy."""
    out = CheckOutcome()
    f = spec.field
    n = spec.n
    exps = [e for t in range(degree_bound + 1) for e in exponent_vectors(n, t, total=t)]
    for side in ("x", "d"):
        for exp in exps:
            delta = coproduct(spec, exp)
            coassociative = _coproduct_on_leg(spec, delta, 0) == _coproduct_on_leg(spec, delta, 1)
            out.record(coassociative, f"coassociativity {side}^{exp}")
            # counit laws
            from_left = {v: c for (u, v), c in delta if counit(u)}
            from_right = {u: c for (u, v), c in delta if counit(v)}
            out.record(
                from_left == {exp: f.one} and from_right == {exp: f.one},
                f"counit {side}^{exp}",
            )
            # antipode axiom: m (S (x) id) Delta = eta eps = m (id (x) S) Delta
            acc1 = SideElement(spec, side, {})
            acc2 = SideElement(spec, side, {})
            for (u, v), c in delta:
                su = antipode(side_monomial(spec, side, u)).scale(c)
                acc1 = acc1 + (su * side_monomial(spec, side, v))
                sv = antipode(side_monomial(spec, side, v))
                acc2 = acc2 + (side_monomial(spec, side, u) * sv).scale(c)
            expected = (
                side_one(spec, side) if counit(exp) else SideElement(spec, side, {})
            )
            out.record(acc1 == expected, f"antipode-left {side}^{exp}")
            out.record(acc2 == expected, f"antipode-right {side}^{exp}")
    # pairing nondegeneracy in bounded degree: the pairing respects the
    # multidegree, so the Gram matrix is diagonal; nondegeneracy amounts to
    # each diagonal entry <d^a, x^a> being nonzero.  At a root of unity the
    # q-factorials vanish from exponent l on, so the generic statement is
    # only tested below that threshold there.
    exp_cap = getattr(spec.field, "l", None)
    for a in exps:
        if exp_cap is not None and any(e >= exp_cap for e in a):
            continue
        for c in exponent_vectors(n, sum(a), total=sum(a)):
            val = pairing(spec, c, a)
            if c == a:
                out.record(not val.is_zero(), f"pairing diagonal {a}")
            else:
                out.record(val.is_zero(), f"pairing off-diagonal {c},{a}")
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
                ok = agree[core] = dict(_smash_core(spec, *core)) == dict(_reorder(twin, *core))
            out.record(ok, "" if ok else f"pair {mono1} * {mono2}")
    return out
