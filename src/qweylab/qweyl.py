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
q-commute with every generator, which makes the set of their products an Ore
set; :class:`LocalizedElement` models fractions with denominators of the form
``alpha_1^k1 .. alpha_n^kn`` kept on the right.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import product

from .errors import ParameterError
from .scalars import Field, Scalar, binary_power

ExpVec = tuple[int, ...]
Monomial = tuple[ExpVec, ExpVec]


def _zero_vec(n: int) -> ExpVec:
    return (0,) * n


def _bump(vec: ExpVec, i: int, k: int) -> ExpVec:
    out = list(vec)
    out[i] += k
    return tuple(out)


def exponent_vectors(n: int, top: int, step: int = 1, total: int | None = None):
    """Length-n exponent vectors with entries in range(0, top + 1, step), in
    lexicographic order; with ``total``, only those whose entries sum to it."""
    vecs = product(range(0, top + 1, step), repeat=n)
    return vecs if total is None else (v for v in vecs if sum(v) == total)


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


@dataclass(frozen=True)
class AlgebraSpec:
    """Immutable description of one q-Weyl algebra."""

    n: int
    m: tuple[tuple[int, ...], ...]
    rescaled: bool
    field: Field

    def __post_init__(self):
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
        # its hash is taken once; equality stays the dataclass one
        object.__setattr__(self, "_hash", hash((self.n, self.m, self.rescaled, self.field)))

    def __hash__(self):
        return self._hash

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
        return AlgebraSpec(self.n, self.m, False, self.field)

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
        return PBWElement(self, {})

    def one(self) -> PBWElement:
        return self.scalar_element(self.field.one)

    def scalar_element(self, c: Scalar | int) -> PBWElement:
        if isinstance(c, int):
            c = self.field.from_int(c)
        n = self.n
        if c.is_zero():
            return self.zero()
        return PBWElement(self, {(_zero_vec(n), _zero_vec(n)): c})

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
        return PBWElement(self, {(a, b): coeff})

    def x(self, i: int, power: int = 1) -> PBWElement:
        self._check_index(i)
        return self.monomial(_bump(_zero_vec(self.n), i - 1, power), _zero_vec(self.n))

    def d(self, i: int, power: int = 1) -> PBWElement:
        self._check_index(i)
        return self.monomial(_zero_vec(self.n), _bump(_zero_vec(self.n), i - 1, power))

    def alpha(self, i: int) -> PBWElement:
        """The Euler operator 1 + x_i d_i."""
        self._check_index(i)
        return self.one() + self.monomial(
            _bump(_zero_vec(self.n), i - 1, 1), _bump(_zero_vec(self.n), i - 1, 1)
        )

    def alpha_power(self, c) -> PBWElement:
        """Product alpha_1^c1 .. alpha_n^cn for nonnegative exponents."""
        out = self.one()
        for i, k in enumerate(c):
            if k < 0:
                raise ParameterError("alpha_power takes nonnegative exponents")
            for _ in range(k):
                out = out * self.alpha(i + 1)
        return out

    def _check_index(self, i: int):
        if not 1 <= i <= self.n:
            raise ParameterError(f"generator index {i} out of range 1..{self.n}")


# ---------------------------------------------------------------------------
# Rewriting kernel
# ---------------------------------------------------------------------------


# A cached table recurses on its predecessor.  Tables far from the base case
# are filled bottom-up in steps of this many, so the recursion stays shallow
# for large exponents; below it the calls are those of the plain recursion.
_FILL_STEP = 128


@lru_cache(maxsize=None)
def _one_var_table(spec: AlgebraSpec, i: int, s: int, r: int):
    """Coefficients c_k with d_i^s x_i^r = sum_k c_k x_i^(r-k) d_i^(s-k)."""
    f = spec.field
    if s == 0 or r == 0:
        return (f.one,)
    for t in range(_FILL_STEP, s - 1, _FILL_STEP):
        _one_var_table(spec, i, t, r)
    mii = spec.m[i][i]
    if spec.rescaled:
        mu_pow = lambda t: spec.q_power(mii * t)
        gamma = spec.q_power(mii) - 1
    else:
        mu_pow = lambda t: spec.q_power(-mii * t)
        gamma = f.one
    prev = _one_var_table(spec, i, s - 1, r)
    # d * (x^(r-k) d^(s-1-k)) = mu^(r-k) x^(r-k) d^(s-k)
    #                          + gamma [r-k]_mu x^(r-k-1) d^(s-1-k)
    kmax = min(s, r)
    out = [None] * (kmax + 1)
    for k, c in enumerate(prev):
        if c.is_zero():
            continue
        v = c * mu_pow(r - k)
        out[k] = v if out[k] is None else out[k] + v
        if r - k >= 1 and k + 1 <= kmax:
            qint = None
            for t in range(r - k):
                p = mu_pow(t)
                qint = p if qint is None else qint + p
            v = c * gamma * qint
            out[k + 1] = v if out[k + 1] is None else out[k + 1] + v
    return tuple(f.zero if c is None else c for c in out)


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
    out: dict[Monomial, Scalar] = {}
    table = _one_var_table(spec, i, b[i], ai)
    for k, ck in enumerate(table):
        if ck.is_zero():
            continue
        # surviving x_i^(ai-k) continues left through d_j^bj for j < i
        e2 = s * sum(b[j] * (ai - k) * spec.m[j][i] for j in range(i))
        coeff = ck * spec.q_power(e1 + e2)
        b2 = _bump(b, i, -k)
        for (a3, b3), c3 in _reorder(spec, b2, rest):
            key = (_bump(a3, i, ai - k), b3)
            c = coeff * c3
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return tuple((key, c) for key, c in out.items() if not c.is_zero())


def _merge_exponent(spec: AlgebraSpec, left: ExpVec, right: ExpVec) -> int:
    """Unsigned twist exponent sum_{i<j} m_ij left_j right_i of merging
    x^left x^right into x^(left+right).  The PBW engine scales it by
    ``spec.sign``; the braided symmetric algebras of :mod:`.hopf` negate it."""
    e = 0
    m = spec.m
    for i in range(spec.n):
        ri = right[i]
        if ri:
            for j in range(i + 1, spec.n):
                if left[j]:
                    e += m[i][j] * left[j] * ri
    return e


def _ordered_product(spec: AlgebraSpec, left, right, core, sign: int):
    """The product of two term dicts over ordered monomials (a, b), each the
    x-part x^a times the d-part d^b.

    ``core(spec, b1, a2)`` expands the middle d^b1 x^a2 as ordered terms
    ((am, bm), c); merging x^a1 x^am and d^bm d^b2 then twists by
    q^(sign * _merge_exponent).  The PBW engine passes its rewriting kernel
    and ``spec.sign``; the Heisenberg double of :mod:`.hopf` passes its
    smash-product core and -1.
    """
    out: dict[Monomial, Scalar] = {}
    # most coefficients met here are one (a monomial times a monomial, a
    # trivially ordered middle, no twist), so products by one are skipped
    one = spec.field.one.v
    for (a1, b1), c1 in left.items():
        c1_one = c1.v == one
        for (a2, b2), c2 in right.items():
            c12 = c2 if c1_one else c1 if c2.v == one else c1 * c2
            c12_one = c12.v == one
            for (am, bm), ck in core(spec, b1, a2):
                e = sign * (_merge_exponent(spec, a1, am) + _merge_exponent(spec, bm, b2))
                key = (
                    tuple(p + r for p, r in zip(a1, am)),
                    tuple(p + r for p, r in zip(bm, b2)),
                )
                c = ck if c12_one else c12 if ck.v == one else c12 * ck
                if e:
                    c = c * spec.q_power(e)
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
    return out


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

    def __add__(self, other):
        other = self._operand(other)
        if type(other) is not type(self):
            return NotImplemented
        meta = self._meta()
        if other._meta() != meta:
            raise ParameterError("elements from different algebras")
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return type(self)(*meta, out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar | int):
        """c times this element, for a scalar or an int c."""
        if isinstance(c, int):
            c = self.spec.field.from_int(c)
        if not self.terms or c.is_zero():
            return self._like({})
        # the coefficient fields have no zero divisors
        return self._like({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        other = self._operand(other)
        if type(other) is not type(self):
            return NotImplemented
        return self._meta() == other._meta() and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)


class PBWElement(TermElement):
    """A finite linear combination of ordered monomials x^a d^b."""

    __slots__ = ("spec",)

    def __init__(self, spec: AlgebraSpec, terms: dict[Monomial, Scalar]):
        self.spec = spec
        super().__init__(terms)

    def _meta(self):
        return (self.spec,)

    def _operand(self, other):
        if isinstance(other, (int, Scalar)):
            return self.spec.scalar_element(other)
        return other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not isinstance(other, PBWElement):
            return NotImplemented
        if self.spec != other.spec:
            raise ParameterError("elements from different algebras")
        spec = self.spec
        terms = _ordered_product(spec, self.terms, other.terms, _reorder, spec.sign)
        return PBWElement(spec, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ParameterError("negative powers only exist for Euler operators")
        return binary_power(self, e, self.spec.one())

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms))))

    def grading_degree(self) -> ExpVec | None:
        """Common value of a - b over all terms, or None if inhomogeneous."""
        if not self.terms:
            return _zero_vec(self.spec.n)
        degs = {tuple(p - r for p, r in zip(a, b)) for (a, b) in self.terms}
        if len(degs) == 1:
            return next(iter(degs))
        return None

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


def _sigma_scale(spec: AlgebraSpec, u: PBWElement, k: ExpVec) -> PBWElement:
    """Apply sigma^k, the diagonal twist with sigma_i(x_j) = q_ii^(delta_ij) x_j."""
    if not any(k):
        return u
    out = {}
    for (a, b), c in u.terms.items():
        w = spec.weight(tuple(p - r for p, r in zip(a, b)))
        e = sum(ki * wi for ki, wi in zip(k, w))
        out[(a, b)] = c * spec.q_power(e) if e else c
    return PBWElement(spec, out)


class LocalizedElement:
    """A fraction u * alpha_1^-k1 .. alpha_n^-kn with the denominator on the right."""

    __slots__ = ("numerator", "denom")

    def __init__(self, numerator: PBWElement, denom):
        if not numerator.spec.rescaled:
            raise ParameterError(
                "Euler-operator localization requires the rescaled normalization"
            )
        denom = tuple(denom)
        if len(denom) != numerator.spec.n or any(k < 0 for k in denom):
            raise ParameterError("denominator exponents must be nonnegative, length n")
        self.numerator = numerator
        self.denom = denom

    @property
    def spec(self) -> AlgebraSpec:
        return self.numerator.spec

    def _operand(self, other) -> LocalizedElement:
        """A scalar, PBW or localized operand as a fraction of this algebra."""
        if isinstance(other, (int, Scalar)):
            other = self.spec.scalar_element(other)
        if isinstance(other, PBWElement):
            other = LocalizedElement.from_pbw(other)
        if self.spec != other.spec:
            raise ParameterError("elements from different algebras")
        return other

    @staticmethod
    def from_pbw(u: PBWElement) -> LocalizedElement:
        return LocalizedElement(u, _zero_vec(u.spec.n))

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return LocalizedElement(self.numerator.scale(other), self.denom)
        other = self._operand(other)
        neg_k = tuple(-k for k in self.denom)
        twisted = _sigma_scale(self.spec, other.numerator, neg_k)
        num = self.numerator * twisted
        den = tuple(p + r for p, r in zip(self.denom, other.denom))
        return LocalizedElement(num, den)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return LocalizedElement(self.numerator.scale(other), self.denom)
        if isinstance(other, PBWElement):
            return LocalizedElement.from_pbw(other) * self
        return NotImplemented

    def _with_denominator(self, target) -> PBWElement:
        lift = tuple(t - k for t, k in zip(target, self.denom))
        if not any(lift):
            return self.numerator
        return self.numerator * self.spec.alpha_power(lift)

    def __add__(self, other):
        other = self._operand(other)
        target = tuple(max(p, r) for p, r in zip(self.denom, other.denom))
        num = self._with_denominator(target) + other._with_denominator(target)
        return LocalizedElement(num, target)

    __radd__ = __add__

    def __neg__(self):
        return LocalizedElement(-self.numerator, self.denom)

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, e: int):
        if e < 0:
            raise ParameterError("negative powers only exist for Euler operators")
        return binary_power(self, e, LocalizedElement.from_pbw(self.spec.one()))

    def equals(self, other) -> bool:
        """Ore-fraction equality by comparison over a common denominator."""
        other = self._operand(other)
        target = tuple(max(p, r) for p, r in zip(self.denom, other.denom))
        return self._with_denominator(target) == other._with_denominator(target)

    __eq__ = equals

    def __hash__(self):
        raise TypeError("LocalizedElement is unhashable; compare with equals()")

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def grading_degree(self) -> ExpVec | None:
        return self.numerator.grading_degree()

    def __str__(self):
        from .expr import format_localized

        return format_localized(self)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass
class CheckOutcome:
    """Result of a batch of exact identity checks."""

    passed: bool = True
    cases: int = 0
    failures: list[str] = dataclass_field(default_factory=list)

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
