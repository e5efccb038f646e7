"""PBW engine for multi-parameter q-Weyl algebras and their Euler-operator localization.

An :class:`AlgebraSpec` fixes the rank ``n``, an integer exponent matrix ``M``
(skew-symmetric off the diagonal), a coefficient field, and one of two
normalizations of the defining relations.  Writing ``q_ij = q^(m_ij)``:

rescaled::

    x_j x_i -> q_ij x_i x_j          (i < j)
    d_j d_i -> q_ij d_i d_j          (i < j)
    d_i x_j -> q_ij x_j d_i          (i != j)
    d_i x_i -> q_ii x_i d_i + (q_ii - 1)

unscaled::

    x_j x_i -> q_ij^-1 x_i x_j       (i < j)
    d_j d_i -> q_ij^-1 d_i d_j       (i < j)
    d_i x_j -> q_ij^-1 x_j d_i + delta_ij

Elements are stored in the canonical basis x_1^a1 .. x_n^an d_1^b1 .. d_n^bn.
In the rescaled normalization the Euler operators ``alpha_i = 1 + x_i d_i``
q-commute with every generator, alpha^c w = sigma^c(w) alpha^c, which makes
the set of their products an Ore set.  The localization at it has the basis
x^a d^b alpha^c with min(a_i, b_i) = 0 and c in Z^n (a generalized Weyl
algebra basis), and :class:`LocalizedElement` is a term dict over it.  A
fraction N alpha^-k is converted into it once, and it prints as its
lowest-terms fraction.

The products and the tables they read are term-dict kernels
(`_ordered_product`, `_reorder`, `_one_var_table`, `_fraction_terms`,
`_alpha_form_terms`, `_alpha_table`, `alpha_basis_product`).  Each forms its
terms as (key, field value) pairs through the field's ``_product``,
``_twist`` and ``_neg``, and builds its term dict through the one
accumulator, `_collect`, which sums the values of a key with ``_add``, drops
every zero value, keeps the first-met key order, and wraps each coefficient
in a Scalar once.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from operator import add, mul, sub

from .errors import ParameterError
from .records import FrozenRecord, Record
from .scalars import Field, Scalar, binary_power

ExpVec = tuple[int, ...]
Monomial = tuple[ExpVec, ExpVec]


def _zero_vec(n: int) -> ExpVec:
    return (0,) * n


def _bump(vec: ExpVec, i: int, k: int) -> ExpVec:
    out = list(vec)
    out[i] += k
    return tuple(out)


def exponent_vectors(n: int, top: int, total: int | None = None):
    """Length-n exponent vectors with entries in 0..top, in lexicographic
    order; with ``total``, only those whose entries sum to it."""
    vecs = product(range(top + 1), repeat=n)
    return vecs if total is None else (v for v in vecs if sum(v) == total)


def monomials(n: int, bound: int, step: int = 1, keep=None) -> list[Monomial]:
    """The sorted (a, b) with exponents in step*Z and at most bound whose
    degree a - b passes keep.  Each is built from its degree d as
    (d+ + t, d- + t), t = min(a, b), so keep is called once per degree."""
    top = bound - bound % step
    return sorted(
        tuple(zip(*((s + max(e, 0), s - min(e, 0)) for e, s in zip(deg, t))))
        for deg in product(range(-top, top + 1, step), repeat=n)
        if keep is None or keep(deg)
        for t in product(*(range(0, top - abs(e) + 1, step) for e in deg))
    )


def graded_monomials(n: int, bound: int) -> list[Monomial]:
    """All (a, b) with |a| + |b| <= bound, ordered by |a| + |b|, then |a|,
    then lexicographically."""
    return [
        (a, b)
        for t in range(bound + 1)
        for da in range(t + 1)
        for a in exponent_vectors(n, da, total=da)
        for b in exponent_vectors(n, t - da, total=t - da)
    ]


def _integer_rows(rows, name: str) -> tuple[tuple[int, ...], ...]:
    """The rows of an integer matrix as tuples; a non-integer entry (a bool
    included) is a ParameterError naming it as name[i][j]."""
    out = tuple(tuple(row) for row in rows)
    for i, row in enumerate(out):
        for j, c in enumerate(row):
            if not isinstance(c, int) or isinstance(c, bool):
                raise ParameterError(f"{name}[{i}][{j}]: expected an integer, got {c!r}")
    return out


class AlgebraSpec(FrozenRecord):
    """Immutable description of one q-Weyl algebra: rank n, the n x n
    exponent matrix m (a tuple of rows), the normalization and the field."""

    _fields = ("n", "m", "rescaled", "field")

    def __init__(self, n: int, m: tuple[tuple[int, ...], ...], rescaled: bool, field: Field):
        self.__dict__.update(n=n, m=m, rescaled=rescaled, field=field)
        if self.n < 1:
            raise ParameterError("rank n must be positive")
        if len(self.m) != self.n or any(len(row) != self.n for row in self.m):
            raise ParameterError("M must be an n x n integer matrix")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.m[j][i] != -self.m[i][j]:
                    raise ParameterError(
                        f"M must be skew-symmetric off the diagonal (rows {i+1},{j+1})"
                    )
        # a spec keys every lru_cache of the PBW, hopf and moment layers, so
        # its hash is taken once
        self.__dict__["_hash"] = hash(self._key())

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # identity first: the element products guard every product by
        # comparing their specs, and those are nearly always one shared
        # object
        return self is other or super().__eq__(other)

    @staticmethod
    def single_parameter(n: int, field: Field, rescaled: bool = True) -> AlgebraSpec:
        """Preset M: diagonal 1, +1 above the diagonal, -1 below."""
        m = tuple(
            tuple(1 if i == j else (1 if i < j else -1) for j in range(n))
            for i in range(n)
        )
        return AlgebraSpec(n, m, rescaled, field)

    @staticmethod
    def from_rows(rows, field: Field, rescaled: bool = True) -> AlgebraSpec:
        m = _integer_rows(rows, "M")
        return AlgebraSpec(len(m), m, rescaled, field)

    @property
    def is_single_parameter(self) -> bool:
        return self == AlgebraSpec.single_parameter(self.n, self.field, self.rescaled)

    @property
    def sign(self) -> int:
        """Exponent sign of the rewrite twists: +1 rescaled, -1 unscaled."""
        return 1 if self.rescaled else -1

    def unscaled_twin(self) -> AlgebraSpec:
        """The spec with the unscaled normalization: one object per spec, so
        the caches it keys meet it by identity."""
        twin = self.__dict__.get("_twin")
        if twin is None:
            twin = AlgebraSpec(self.n, self.m, False, self.field) if self.rescaled else self
            self.__dict__["_twin"] = twin
        return twin

    def q_power(self, e: int) -> Scalar:
        return self.field.q_power(e)

    def weight(self, degree: ExpVec) -> tuple[int, ...]:
        """diag(M) applied to a lattice degree: conjugation by alpha_i scales
        an element of that degree by q^(entry i)."""
        return tuple(self.m[i][i] * degree[i] for i in range(self.n))

    def qij(self, i: int, j: int) -> Scalar:
        """q^(m_ij) for 1-based generator indices."""
        return self.q_power(self.m[i - 1][j - 1])

    # -- element factories (generator indices are 1-based, as in x1, d1) --

    def zero(self) -> PBWElement:
        return PBWElement.from_terms(self, {})

    def one(self) -> PBWElement:
        return self.scalar_element(self.field.one)

    def scalar_element(self, c: Scalar | int) -> PBWElement:
        if isinstance(c, int):
            c = self.field.from_int(c)
        n = self.n
        if c.is_zero():
            return self.zero()
        return PBWElement.from_terms(self, {(_zero_vec(n), _zero_vec(n)): c})

    def monomial(self, a, b, coeff: Scalar | int = 1) -> PBWElement:
        a, b = tuple(a), tuple(b)
        if len(a) != self.n or len(b) != self.n:
            raise ParameterError("exponent vectors must have length n")
        if any(e < 0 for e in a + b):
            raise ParameterError("exponents must be nonnegative")
        if isinstance(coeff, int):
            coeff = self.field.from_int(coeff)
        if coeff.is_zero():
            return self.zero()
        return PBWElement.from_terms(self, {(a, b): coeff})

    def x(self, i: int, power: int = 1) -> PBWElement:
        return PBWElement.from_terms(
            self, {(self._exponent(i, power), _zero_vec(self.n)): self.field.one}
        )

    def d(self, i: int, power: int = 1) -> PBWElement:
        return PBWElement.from_terms(
            self, {(_zero_vec(self.n), self._exponent(i, power)): self.field.one}
        )

    def alpha(self, i: int) -> PBWElement:
        """The Euler operator 1 + x_i d_i."""
        e = self._exponent(i, 1)
        return self.one() + self.monomial(e, e)

    def alpha_power(self, c) -> PBWElement:
        """Product alpha_1^c1 .. alpha_n^cn for nonnegative exponents (cached,
        see `_alpha_power`)."""
        c = tuple(c)
        if len(c) != self.n or any(k < 0 for k in c):
            raise ParameterError("alpha_power takes n nonnegative exponents")
        return _alpha_power(self, c)

    def _exponent(self, i: int, power: int) -> ExpVec:
        """The exponent vector of the generator power x_i^power or d_i^power."""
        if not 1 <= i <= self.n:
            raise ParameterError(f"generator index {i} out of range 1..{self.n}")
        if power < 0:
            raise ParameterError("exponents must be nonnegative")
        return _bump(_zero_vec(self.n), i - 1, power)


@lru_cache(maxsize=256)
def _alpha_power(spec: AlgebraSpec, c: ExpVec) -> PBWElement:
    """alpha_1^c1 .. alpha_n^cn; shared, so never changed in place.  A power
    of one alpha_i is built by binary powering, and any other exponent
    vector is the product, in order, of its cached one-variable powers."""
    nonzero = [i for i, k in enumerate(c) if k]
    if len(nonzero) <= 1:
        i = nonzero[0] if nonzero else 0
        return binary_power(spec.alpha(i + 1), c[i], spec.one())
    powers = [_alpha_power(spec, _bump(_zero_vec(spec.n), i, c[i])) for i in nonzero]
    out = powers[0]
    for power in powers[1:]:
        out = out * power
    return out


# ---------------------------------------------------------------------------
# Rewriting kernel
# ---------------------------------------------------------------------------


def _collect(field: Field, pairs) -> dict:
    """The term dict of (key, field value) pairs: the values of each key are
    summed with ``field._add``, the keys whose sum is zero are dropped, and
    the rest stay in the order their keys were first met.  Each value is
    wrapped in a Scalar once; the value of ``field.one`` itself, which a
    product by one passes on, is wrapped as ``field.one``.  Every term-dict
    kernel builds its terms here."""
    plus = field._add
    out: dict = {}
    get = out.get
    for key, v in pairs:
        prev = get(key)
        out[key] = v if prev is None else plus(prev, v)
    zero, one = field.zero.v, field.one
    return {key: one if v is one.v else Scalar(field, v) for key, v in out.items() if v != zero}


# A cached table recurses on its predecessor.  Tables far from the base case
# are filled bottom-up in steps of this many, so the recursion stays shallow
# for large exponents; below it the calls are those of the plain recursion.
_FILL_STEP = 128


@lru_cache(maxsize=None)
def _one_var_table(spec: AlgebraSpec, i: int, s: int, r: int):
    """The nonzero coefficients c_k of d_i^s x_i^r = sum_k c_k x_i^(r-k)
    d_i^(s-k), as (k, c_k) items in increasing k."""
    f = spec.field
    if s == 0 or r == 0:
        return ((0, f.one),)
    for t in range(_FILL_STEP, s - 1, _FILL_STEP):
        _one_var_table(spec, i, t, r)
    # mu = q^(sign * m_ii); gamma = mu - 1 rescaled, 1 unscaled
    mu = spec.sign * spec.m[i][i]
    gamma = (spec.q_power(mu) - 1).v if spec.rescaled else f.one.v
    prev = _one_var_table(spec, i, s - 1, r)
    product, twist, plus = f._product, f._twist, f._add

    def terms():
        # d * (x^(r-k) d^(s-1-k)) = mu^(r-k) x^(r-k) d^(s-k)
        #                          + gamma [r-k]_mu x^(r-k-1) d^(s-1-k)
        for k, c in prev:
            c = c.v
            yield k, twist(c, mu * (r - k))
            if k < r:
                qint = reduce(plus, [spec.q_power(mu * t).v for t in range(r - k)])
                yield k + 1, product(product(c, gamma), qint)

    return tuple(_collect(f, terms()).items())


@lru_cache(maxsize=None)
def _reorder(spec: AlgebraSpec, b: ExpVec, a: ExpVec):
    """Normal ordering of d^b x^a as a tuple of ((a', b'), coeff) terms."""
    n = spec.n
    f = spec.field
    s = spec.sign
    i = next((k for k in range(n) if a[k]), None)
    if i is None:
        return (((a, b), f.one),)
    ai = a[i]
    rest = _bump(a, i, -ai)
    # x_i^ai moves left through d_j^bj for j > i
    e1 = s * sum(b[j] * ai * spec.m[j][i] for j in range(i + 1, n))
    product, twist = f._product, f._twist

    def terms():
        for k, ck in _one_var_table(spec, i, b[i], ai):
            # surviving x_i^(ai-k) continues left through d_j^bj for j < i
            e2 = s * sum(b[j] * (ai - k) * spec.m[j][i] for j in range(i))
            coeff = twist(ck.v, e1 + e2)
            for (a3, b3), c3 in _reorder(spec, _bump(b, i, -k), rest):
                yield (_bump(a3, i, ai - k), b3), product(coeff, c3.v)

    return tuple(_collect(f, terms()).items())


@lru_cache(maxsize=1024)
def _merge_vectors(spec: AlgebraSpec, vec: ExpVec) -> tuple[ExpVec, ExpVec]:
    """The vectors (as_left, as_right) of an exponent vector with
    merge(vec, w) = as_left . w and merge(w, vec) = w . as_right for every w,
    where the merge exponent merge(left, right) = sum_{i<j} m_ij left_j
    right_i is the unsigned twist exponent of merging x^left x^right into
    x^(left+right).  The PBW engine scales it by ``spec.sign``; the braided
    symmetric algebras of :mod:`.hopf` negate it."""
    m, n = spec.m, spec.n
    as_left = tuple(sum(m[i][j] * vec[j] for j in range(i + 1, n)) for i in range(n))
    as_right = tuple(sum(m[i][j] * vec[i] for i in range(j)) for j in range(n))
    return as_left, as_right


def _ordered_product(spec: AlgebraSpec, left, right, core, sign: int):
    """The product of two term dicts over ordered monomials (a, b), each the
    x-part x^a times the d-part d^b, zero coefficients dropped.

    ``core(spec, b1, a2)`` expands the middle d^b1 x^a2 as ordered terms
    ((am, bm), c); merging x^a1 x^am and d^bm d^b2 then twists by
    q^(sign * merge exponent).  The PBW engine passes its rewriting kernel
    and ``spec.sign``; :mod:`.hopf` passes -1 with the braiding as core for
    its braided tensor square, and with its smash-product core for the
    Heisenberg double.

    The merge exponent is bilinear, so it is read as two dot products, with
    the vectors of ``_merge_vectors`` taken once per left and per right
    term.  The coefficients are field values, summed by `_collect`: the
    products go through ``Field._product`` and the twists q^e through
    ``Field._twist``, which over Q(q) shifts the normal form instead of
    multiplying.

    A one-term by one-term product is formed without the accumulator: its
    core terms have distinct keys, so its terms do too, and each coefficient
    is a product of nonzero values.
    """
    field = spec.field
    product, twist = field._product, field._twist
    if len(left) == 1 and len(right) == 1:
        (((a1, b1), c1),) = left.items()
        (((a2, b2), c2),) = right.items()
        as_left, as_right = _merge_vectors(spec, a1)[0], _merge_vectors(spec, b2)[1]
        c12 = product(c1.v, c2.v)
        one = field.one
        out = {}
        for (am, bm), ck in core(spec, b1, a2):
            e = sign * (sum(map(mul, as_left, am)) + sum(map(mul, bm, as_right)))
            c = product(c12, ck.v)
            if e:
                c = twist(c, e)
            key = (tuple(map(add, a1, am)), tuple(map(add, bm, b2)))
            out[key] = one if c is one.v else Scalar(field, c)
        return out
    rights = [(a2, b2, c2.v, _merge_vectors(spec, b2)[1]) for (a2, b2), c2 in right.items()]

    def terms():
        for (a1, b1), c1 in left.items():
            as_left = _merge_vectors(spec, a1)[0]
            c1 = c1.v
            for a2, b2, c2, as_right in rights:
                c12 = product(c1, c2)
                for (am, bm), ck in core(spec, b1, a2):
                    e = sign * (sum(map(mul, as_left, am)) + sum(map(mul, bm, as_right)))
                    c = product(c12, ck.v)
                    key = (tuple(map(add, a1, am)), tuple(map(add, bm, b2)))
                    yield key, (twist(c, e) if e else c)

    return _collect(field, terms())


class TermElement:
    """A finite linear combination of basis keys, kept in the dict ``terms``
    with the zero coefficients dropped.

    This base holds the linear structure.  A subclass stores the metadata of
    its algebra, which ``_meta`` returns as the constructor arguments before
    ``terms`` and which includes a ``spec``; it defines the product.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def _meta(self) -> tuple:
        raise NotImplementedError

    def _like(self, terms):
        """An element of the same algebra whose coefficients are known to be nonzero."""
        out = type(self)(*self._meta(), {})
        out.terms = terms
        return out

    def _operand(self, other):
        """The other operand of +, - and ==, as an element where the subclass
        can convert it (PBWElement takes scalars)."""
        return other

    def _same_algebra(self, other) -> bool:
        """Whether other is an element of this class, so that the two add or
        multiply; an element of this class from another algebra raises."""
        if type(other) is not type(self):
            return False
        if other._meta() != self._meta():
            raise ParameterError("elements from different algebras")
        return True

    def _combine(self, other, subtract: bool):
        """self + other, or self - other when subtract, in one pass over
        other's terms; NotImplemented when other is not of this class."""
        other = self._operand(other)
        if not self._same_algebra(other):
            return NotImplemented
        field = self.spec.field
        zero = field.zero.v
        out = dict(self.terms)
        for k, c in other.terms.items():
            if subtract:
                c = -c
            prev = out.get(k)
            if prev is None:
                out[k] = c
                continue
            # only a sum can be zero
            v = field._add(prev.v, c.v)
            if v == zero:
                del out[k]
            else:
                out[k] = Scalar(field, v)
        return self._like(out)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar | int):
        """c times this element, for a scalar or an int c."""
        if isinstance(c, int):
            c = self.spec.field.from_int(c)
        if not self.terms or c.is_zero():
            return self._like({})
        # the coefficient fields have no zero divisors
        return self._like({k: v * c for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._operand(other)
        if type(other) is not type(self):
            return NotImplemented
        return self._meta() == other._meta() and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def grading_degree(self) -> ExpVec | None:
        """Common value of a - b over the terms, whose keys begin with the
        monomial x^a d^b, or None if inhomogeneous."""
        degs = {tuple(map(sub, key[0], key[1])) for key in self.terms}
        if not degs:
            return _zero_vec(self.spec.n)
        return next(iter(degs)) if len(degs) == 1 else None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)


class PBWElement(TermElement):
    """A finite linear combination of ordered monomials x^a d^b."""

    __slots__ = ("spec",)

    def __init__(self, spec: AlgebraSpec, terms: dict[Monomial, Scalar]):
        self.spec = spec
        super().__init__(terms)

    @staticmethod
    def from_terms(spec: AlgebraSpec, terms) -> PBWElement:
        """The element with the given terms, whose coefficients are known to
        be nonzero."""
        out = PBWElement.__new__(PBWElement)
        out.spec = spec
        out.terms = terms
        return out

    def _meta(self):
        return (self.spec,)

    def _like(self, terms):
        return PBWElement.from_terms(self.spec, terms)

    def _operand(self, other):
        if isinstance(other, (int, Scalar)):
            return self.spec.scalar_element(other)
        return other

    def __mul__(self, other):
        spec = self.spec
        # an operand of the same spec, nearly always the shared object, needs
        # no other test
        if type(other) is not PBWElement or other.spec is not spec:
            if isinstance(other, (int, Scalar)):
                return self.scale(other)
            if not self._same_algebra(other):
                return NotImplemented
        terms = _ordered_product(spec, self.terms, other.terms, _reorder, spec.sign)
        return PBWElement.from_terms(spec, terms)

    def __pow__(self, e: int):
        if e < 0:
            raise ParameterError("negative powers only exist for Euler operators")
        return binary_power(self, e, self.spec.one())

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms))))

    def __str__(self):
        from .expr import format_pbw

        return format_pbw(self)

    __repr__ = __str__


def normal_form(factors, spec: AlgebraSpec) -> PBWElement:
    """Product of a word of factors (PBWElements, scalars, ints), normal ordered."""
    out = spec.one()
    for f in factors:
        if isinstance(f, (int, Scalar)):
            out = out.scale(f)
        else:
            out = out * f
    return out


# ---------------------------------------------------------------------------
# Localization at the Euler operators
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
    e = -spec.m[i][i] * (s - 1)
    below = _alpha_table(spec, i, r - 1, s - 1)
    twist, neg = f._twist, f._neg

    def terms():
        # x^r d^s = q^-(s-1) x^(r-1) d^(s-1) alpha - x^(r-1) d^(s-1)
        for (rr, ss, k), c in below:
            yield (rr, ss, k + 1), twist(c.v, e)
            yield (rr, ss, k), neg(c.v)

    return tuple(_collect(f, terms()).items())


@lru_cache(maxsize=512)
def _alpha_form_terms(spec: AlgebraSpec, a: ExpVec, b: ExpVec, order: tuple[int, ...]):
    """Expansion of x^a d^b over the basis x^a' d^b' alpha^c, min(a'_i,b'_i)=0,
    as a tuple of (key, coefficient) items.

    The coordinates are eliminated in the given order, which is part of the
    cache key, so tests and the confluence law can confirm that the result
    does not depend on it.
    """
    n = spec.n
    f = spec.field
    product, twist = f._product, f._twist

    def eliminate(terms, i):
        for (aa, bb, cc), coeff in terms.items():
            m = min(aa[i], bb[i])
            if m == 0:
                yield (aa, bb, cc), coeff.v
                continue
            # twist from commuting the i-block together and back
            e = -sum(spec.m[i][j] * aa[j] * m for j in range(i + 1, n))
            e -= sum(spec.m[j][i] * bb[j] * m for j in range(i))
            tw = twist(coeff.v, e * spec.sign)
            # every term of the table is x_i^(r-m) d_i^(s-m) alpha_i^k
            a_left, b_left = _bump(aa, i, -m), _bump(bb, i, -m)
            for (_, _, k), c in _alpha_table(spec, i, aa[i], bb[i]):
                yield (a_left, b_left, _bump(cc, i, k)), product(tw, c.v)

    terms = {(a, b, _zero_vec(n)): f.one}
    for i in order:
        terms = _collect(f, eliminate(terms, i))
    return tuple(terms.items())


def _fraction_terms(spec: AlgebraSpec, numerator: PBWElement, denom: ExpVec, order):
    """The alpha-basis terms of the fraction numerator * alpha^-denom, zero
    coefficients dropped: the alpha form of each numerator term, its alpha
    exponents shifted by -denom."""
    product = spec.field._product
    return _collect(spec.field, (
        ((aa, bb, tuple(map(sub, cc, denom))), product(coeff.v, c.v))
        for (a, b), coeff in numerator.terms.items()
        for (aa, bb, cc), c in _alpha_form_terms(spec, a, b, order)
    ))


@lru_cache(maxsize=4096)
def _alpha_product(spec: AlgebraSpec, left: Monomial, right: Monomial):
    """The structure constants of the alpha basis: the engine product of two
    monomials x^a d^b in alpha form, as (key, coefficient) items."""
    one = spec.field.one
    product = PBWElement.from_terms(spec, {left: one}) * PBWElement.from_terms(spec, {right: one})
    return tuple(_fraction_terms(spec, product, _zero_vec(spec.n), tuple(range(spec.n))).items())


def alpha_basis_product(spec: AlgebraSpec, left, right) -> dict:
    """The product of two alpha-basis term dicts, zero coefficients dropped.

    (x^a1 d^b1 alpha^c1)(x^a2 d^b2 alpha^c2) =
    q^(c1 . weight(a2 - b2)) (x^a1 d^b1 x^a2 d^b2) alpha^(c1 + c2), with
    the middle product read from the structure constants."""
    field = spec.field
    product, twist = field._product, field._twist
    rights = [
        ((a2, b2), c2, v.v, spec.weight(tuple(map(sub, a2, b2))))
        for (a2, b2, c2), v in right.items()
    ]

    def terms():
        for (a1, b1, c1), u in left.items():
            u = u.v
            for m2, c2, v, w2 in rights:
                uv = product(u, v)
                e = sum(map(mul, c1, w2))
                if e:
                    uv = twist(uv, e)
                c12 = tuple(map(add, c1, c2))
                for (a, b, c), s in _alpha_product(spec, (a1, b1), m2):
                    yield (a, b, tuple(map(add, c, c12))), product(uv, s.v)

    return _collect(field, terms())


def _rescaled(spec: AlgebraSpec) -> AlgebraSpec:
    if not spec.rescaled:
        raise ParameterError("Euler-operator localization requires the rescaled normalization")
    return spec


class LocalizedElement(TermElement):
    """An element of the localization at the Euler operators, as a term dict
    over the alpha basis: keys (a, b, c) for x^a d^b alpha^c with
    min(a_i, b_i) = 0 and c in Z^n.

    ``LocalizedElement(numerator, denom)`` is the fraction
    numerator * alpha^-denom; ``numerator`` and ``denom`` give it back in
    lowest terms.
    """

    __slots__ = ("spec",)

    def __init__(self, numerator: PBWElement, denom):
        spec = _rescaled(numerator.spec)
        denom = tuple(denom)
        if len(denom) != spec.n or any(k < 0 for k in denom):
            raise ParameterError("denominator exponents must be nonnegative, length n")
        self.spec = spec
        self.terms = _fraction_terms(spec, numerator, denom, tuple(range(spec.n)))

    @staticmethod
    def from_terms(spec: AlgebraSpec, terms) -> LocalizedElement:
        """The element with the given alpha-basis terms, whose coefficients
        are known to be nonzero."""
        out = LocalizedElement.__new__(LocalizedElement)
        out.spec = _rescaled(spec)
        out.terms = terms
        return out

    @staticmethod
    def from_pbw(u: PBWElement) -> LocalizedElement:
        return LocalizedElement(u, _zero_vec(u.spec.n))

    def _meta(self):
        return (self.spec,)

    def _like(self, terms):
        return LocalizedElement.from_terms(self.spec, terms)

    def _operand(self, other):
        """A scalar or PBW operand as an element of the localization."""
        if isinstance(other, (int, Scalar)):
            other = self.spec.scalar_element(other)
        if isinstance(other, PBWElement):
            other = LocalizedElement.from_pbw(other)
        return other

    @property
    def denom(self) -> ExpVec:
        """The least denominator D: max(0, -c_i) over the terms, per coordinate."""
        out = _zero_vec(self.spec.n)
        for _, _, c in self.terms:
            out = tuple(max(d, -k) for d, k in zip(out, c))
        return out

    @property
    def numerator(self) -> PBWElement:
        """The N with N alpha^-D equal to this element, D = ``denom``: the sum
        over the distinct alpha exponents c of U_c alpha^(c + D), where U_c
        collects the monomials of the terms with exponent c."""
        spec, denom = self.spec, self.denom
        parts: dict[tuple[int, ...], dict] = {}
        for (a, b, c), coeff in self.terms.items():
            parts.setdefault(c, {})[(a, b)] = coeff
        out = spec.zero()
        for c, terms in parts.items():
            lift = tuple(map(add, c, denom))
            part = PBWElement.from_terms(spec, terms)
            out = out + (part * spec.alpha_power(lift) if any(lift) else part)
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        other = self._operand(other)
        if not self._same_algebra(other):
            return NotImplemented
        return self._like(alpha_basis_product(self.spec, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, PBWElement):
            return LocalizedElement.from_pbw(other) * self
        return super().__rmul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise ParameterError("negative powers only exist for Euler operators")
        return binary_power(self, e, LocalizedElement.from_pbw(self.spec.one()))

    def equals(self, other) -> bool:
        """Equality in the localization: the alpha-basis terms agree."""
        return self == other

    def __str__(self):
        from .expr import format_localized

        return format_localized(self)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


class CheckOutcome(Record):
    """Result of a batch of exact identity checks."""

    _fields = ("passed", "cases", "failures")

    def __init__(self, passed: bool = True, cases: int = 0, failures: list[str] | None = None):
        self.passed = passed
        self.cases = cases
        self.failures = [] if failures is None else failures

    def record(self, ok: bool, label: str):
        self.cases += 1
        if not ok:
            self.passed = False
            self.failures.append(label)


def verify_power_identities(spec: AlgebraSpec, nmax: int) -> CheckOutcome:
    """Power and Euler-operator commutation identities up to the given power.

    For every coordinate i and power m <= nmax (rescaled normalization):

    * d_i x_i^m = q_ii^m x_i^m d_i + (q_ii^m - 1) x_i^(m-1)
    * d_i^m x_i = q_ii^m x_i d_i^m + (q_ii^m - 1) d_i^(m-1)
    * alpha_i x_j = q_ii^(delta_ij) x_j alpha_i
    * alpha_i d_j = q_ii^(-delta_ij) d_j alpha_i
    """
    if nmax < 1:
        raise ParameterError("nmax must be at least 1")
    if not spec.rescaled:
        raise ParameterError("power identities hold in the rescaled normalization")
    out = CheckOutcome()
    for i in range(1, spec.n + 1):
        mii = spec.m[i - 1][i - 1]
        for m in range(1, nmax + 1):
            qm = spec.q_power(mii * m)
            lhs = spec.d(i) * spec.x(i, m)
            rhs = spec.x(i, m) * spec.d(i) * qm + spec.x(i, m - 1) * (qm - 1)
            out.record(lhs == rhs, f"d{i} x{i}^{m} expansion")
            lhs = spec.d(i, m) * spec.x(i)
            rhs = spec.x(i) * spec.d(i, m) * qm + spec.d(i, m - 1) * (qm - 1)
            out.record(lhs == rhs, f"d{i}^{m} x{i} expansion")
        al = spec.alpha(i)
        for j in range(1, spec.n + 1):
            delta = 1 if i == j else 0
            out.record(
                al * spec.x(j) == spec.x(j) * al * spec.q_power(mii * delta),
                f"alpha{i} x{j} commutation",
            )
            out.record(
                al * spec.d(j) == spec.d(j) * al * spec.q_power(-mii * delta),
                f"alpha{i} d{j} commutation",
            )
    return out


def verify_alpha_commutativity(spec: AlgebraSpec) -> CheckOutcome:
    """alpha_i alpha_j = alpha_j alpha_i for all pairs, exactly."""
    out = CheckOutcome()
    for i in range(1, spec.n + 1):
        for j in range(i + 1, spec.n + 1):
            out.record(
                spec.alpha(i) * spec.alpha(j) == spec.alpha(j) * spec.alpha(i),
                f"alpha{i} alpha{j} commute",
            )
    return out
