"""Exact arithmetic in the three coefficient fields of the workbench.

Supported fields:

* ``rational`` -- plain rationals, backed by :class:`fractions.Fraction`.
* ``rational_function_q`` -- univariate rational functions in the formal
  deformation parameter ``q``.  Values are stored as reduced fractions of
  integer-coefficient polynomials: numerator and denominator share no
  polynomial factor, the pair of integer contents is coprime, and the
  denominator has a positive leading coefficient.  Equality is therefore
  structural.  Most denominators met in practice are one-term, c*q^k (q
  powers and integers); their only divisors are the +-c'*q^j, so such a
  value is reduced by stripping a common power of q and the integer gcd of
  the contents, and a product of two of them multiplies the leads and adds
  the exponents.  Every other denominator is reduced through the
  polynomial gcd (pseudo-remainder Euclid).  Both paths give the same
  normal form.  A twist c*q^e (``Field.twist``) needs neither: num/den is
  reduced, so the only common factor of num*q^e and den is a power of q,
  and the twist cancels it from the denominator and shifts the numerator
  by the rest (mirrored for e < 0).
* ``cyclotomic`` -- the field generated over the rationals by a primitive
  root of unity ``zeta`` of odd order ``l > 1``.  A value is a pair
  ``(nums, den)``: ``phi(l)`` integer numerators over the basis
  ``1, zeta, ..., zeta^(phi-1)`` and one positive common denominator, with
  ``gcd(den, *nums) == 1``, so equality is structural and zero is
  ``((0, ..., 0), 1)``.  The ``l``-th cyclotomic polynomial is monic, so
  products reduce by fixed integer rows.  The inverse of an irrational value
  is the product of its nontrivial Galois conjugates divided by its rational
  norm.  ``Fraction`` appears only where values enter (``from_fraction``,
  ``from_coeffs``) and leave (``coefficients``).

All values are immutable and all operations are pure functions, so scalars
may be shared freely between threads and cached by identity of their field.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd

from .errors import DomainError, ParameterError, ZeroDivisorError

# ---------------------------------------------------------------------------
# Integer polynomial helpers.  Polynomials are tuples of int coefficients in
# increasing degree; the zero polynomial is the empty tuple.
# ---------------------------------------------------------------------------

_ZERO_POLY: tuple[int, ...] = ()
_ONE_POLY: tuple[int, ...] = (1,)


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _is_monomial(a) -> bool:
    """True when the trimmed polynomial a has exactly one term, c*q^k."""
    return a.count(0) == len(a) - 1


def _valuation(a) -> int:
    """The exponent of the lowest term of a nonzero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i


def _pshift(a, k: int, c: int):
    """c * q^k * a for a nonzero integer c."""
    if c != 1:
        a = tuple(x * c for x in a)
    return (0,) * k + a if k else a


def _pmul(a, b):
    if not a or not b:
        return _ZERO_POLY
    # a one-term factor c*q^k is a shift plus a scale
    if _is_monomial(b):
        return _pshift(a, len(b) - 1, b[-1])
    if _is_monomial(a):
        return _pshift(b, len(a) - 1, a[-1])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _trim(out)


def _content(a) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g


def _primitive(a):
    """Return (content, primitive part) with positive leading coefficient."""
    if not a:
        return 0, _ZERO_POLY
    g = _content(a)
    if a[-1] < 0:
        g = -g
    return g, tuple(c // g for c in a)


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b over the integers (b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [lb * c for c in a]
        for i, cb in enumerate(b):
            a[da - db + i] -= la * cb
        while a and a[-1] == 0:
            a.pop()
    return _trim(a)


def _pgcd(a, b):
    """Greatest common divisor in Z[q], primitive with positive lead."""
    if not a:
        return _primitive(b)[1]
    if not b:
        return _primitive(a)[1]
    ca, r0 = _primitive(a)
    cb, r1 = _primitive(b)
    while r1:
        r0, r1 = r1, _primitive(_pseudo_rem(r0, r1))[1]
    cont = gcd(abs(ca), abs(cb))
    if r0 == _ONE_POLY and cont == 1:
        return _ONE_POLY
    return _trim([cont * c for c in r0]) if cont != 1 else r0


def _pdiv_exact(a, b):
    """Exact division in Z[q]; raises if b does not divide a."""
    if not a:
        return _ZERO_POLY
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        out[k] = c // lb
        for i, cb in enumerate(b):
            a[k + i] -= out[k] * cb
    if any(a[:db] if db else []):
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


def cyclotomic_polynomial(l: int) -> tuple[int, ...]:
    """Coefficients of the l-th cyclotomic polynomial, low degree first."""
    poly = _trim([-1] + [0] * (l - 1) + [1])  # q^l - 1
    for d in range(1, l):
        if l % d == 0:
            poly = _pdiv_exact(poly, cyclotomic_polynomial(d))
    return poly


def decimal_str(x) -> str:
    """str(x) of an int or a Fraction.  A number longer than the interpreter's
    int-to-str digit limit is a DomainError, not str's ValueError."""
    try:
        return str(x)
    except ValueError:
        raise DomainError(
            f"a number in the result has more than {sys.get_int_max_str_digits()} "
            "digits, too many to print"
        ) from None


def _poly_str(coeffs, var: str) -> str:
    """Render a polynomial with integer or rational coefficients, highest
    degree first, e.g. ``q^2-q+1``."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            mono = decimal_str(abs(c))
        else:
            head = var if k == 1 else f"{var}^{k}"
            mono = head if abs(c) == 1 else f"{decimal_str(abs(c))}*{head}"
        if not parts:
            parts.append(mono if c > 0 else "-" + mono)
        else:
            parts.append(("+" if c > 0 else "-") + mono)
    return "".join(parts)


def binary_power(base, e: int, one, mul=operator.mul):
    """base^e for e >= 0 by square-and-multiply from ``one``, with the
    product ``mul``; the last squaring, whose result is never used, is skipped."""
    out = one
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


# ---------------------------------------------------------------------------
# Scalar wrapper
# ---------------------------------------------------------------------------


class Scalar:
    """An immutable element of one of the coefficient fields."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v):
        self.field = field
        self.v = v

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise ParameterError("scalars from different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.v, other.v))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.v))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.v, other.v))

    __rmul__ = __mul__

    def inv(self) -> Scalar:
        return Scalar(self.field, self.field._inv(self.v))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * self.inv()

    def __pow__(self, e: int) -> Scalar:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return binary_power(self.inv(), -e, self.field.one)
        return binary_power(self, e, self.field.one)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.v == other.v

    def __hash__(self):
        return hash((id(self.field.__class__), self.field.key, self.v))

    def is_zero(self) -> bool:
        return self.v == self.field.zero.v

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return self.field.format(self.v)

    def __repr__(self):
        return f"Scalar({self})"


def mul_skip_one(a: Scalar, b: Scalar) -> Scalar:
    """a * b, returning the other factor when one of them is one."""
    one = a.field.one.v
    return b if a.v == one else a if b.v == one else a * b


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


class Field:
    """Common interface of the three coefficient fields."""

    kind: str
    l: int | None = None
    modulus: tuple[int, ...] | None = None

    @property
    def key(self):
        return (self.kind, self.l)

    def __eq__(self, other):
        return isinstance(other, Field) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def scalar(self, v) -> Scalar:
        return Scalar(self, v)

    def from_int(self, n: int) -> Scalar:
        return self.from_fraction(Fraction(n))

    def from_fraction(self, f: Fraction) -> Scalar:  # pragma: no cover
        raise NotImplementedError

    @property
    def q(self) -> Scalar:
        """Image of the deformation parameter q in this field."""
        raise NotImplementedError

    def q_power(self, e: int) -> Scalar:
        return self.q ** e

    def twist(self, c: Scalar, e: int) -> Scalar:
        """c * q^e, the scaling every rewrite and braiding twist applies."""
        return c * self.q_power(e) if e else c

    def format(self, v) -> str:  # pragma: no cover
        raise NotImplementedError


class RationalField(Field):
    """The rational numbers."""

    kind = "rational"

    def __init__(self):
        self.zero = Scalar(self, Fraction(0))
        self.one = Scalar(self, Fraction(1))

    def from_fraction(self, f: Fraction) -> Scalar:
        return Scalar(self, Fraction(f))

    @property
    def q(self) -> Scalar:
        # q specializes to 1 in the undeformed field.
        return self.one

    def q_power(self, e: int) -> Scalar:
        return self.one

    def twist(self, c: Scalar, e: int) -> Scalar:
        return c

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisorError("division by zero in the rational field")
        return 1 / a

    def format(self, v) -> str:
        return decimal_str(v)

    def __repr__(self):
        return "RationalField()"


class RationalFunctionField(Field):
    """Rational functions in q with exact, structurally-normalized storage.

    ``twist(c, e)`` = c*q^e shifts the normal form of c: no polynomial
    product and no gcd (see the module docstring)."""

    kind = "rational_function_q"

    def __init__(self):
        self.zero = Scalar(self, (_ZERO_POLY, _ONE_POLY))
        self.one = Scalar(self, (_ONE_POLY, _ONE_POLY))
        self._q = Scalar(self, ((0, 1), _ONE_POLY))
        self._qpow_cache: dict[int, Scalar] = {}

    @property
    def q(self) -> Scalar:
        return self._q

    def q_power(self, e: int) -> Scalar:
        s = self._qpow_cache.get(e)
        if s is None:
            if e >= 0:
                s = Scalar(self, (_trim([0] * e + [1]), _ONE_POLY))
            else:
                s = Scalar(self, (_ONE_POLY, _trim([0] * (-e) + [1])))
            self._qpow_cache[e] = s
        return s

    def twist(self, c: Scalar, e: int) -> Scalar:
        num, den = c.v
        if not e or not num:
            return c
        # gcd(num*q^e, den) = q^min(e, val(den)) for reduced num/den
        if e > 0:
            k = min(e, _valuation(den))
            return Scalar(self, ((0,) * (e - k) + num, den[k:]))
        k = min(-e, _valuation(num))
        return Scalar(self, (num[k:], (0,) * (-e - k) + den))

    def from_int(self, n: int) -> Scalar:
        return Scalar(self, ((int(n),) if n else _ZERO_POLY, _ONE_POLY))

    def from_fraction(self, f: Fraction) -> Scalar:
        f = Fraction(f)
        num = _trim([f.numerator])
        den = (f.denominator,)
        return Scalar(self, (num, den))

    def from_polys(self, num, den=_ONE_POLY) -> Scalar:
        return Scalar(self, self._normalize(_trim(num), _trim(den)))

    @staticmethod
    def _normalize(num, den):
        if not den:
            raise ZeroDivisorError("zero denominator in q-rational function")
        if not num:
            return (_ZERO_POLY, _ONE_POLY)
        if den == _ONE_POLY:
            return (num, den)
        if _is_monomial(den):
            return RationalFunctionField._normalize_monomial(num, len(den) - 1, den[-1])
        return RationalFunctionField._normalize_euclid(num, den)

    @staticmethod
    def _normalize_monomial(num, k: int, c: int):
        """The normal form of num / (c*q^k) for nonzero num and c."""
        # the divisors of c*q^k in Z[q] are the +-c'*q^j, so the gcd of num
        # and c*q^k is q^min(val(num), k) * gcd(content(num), c)
        v = min(_valuation(num), k)
        if v:
            num = num[v:]
        g = gcd(c, *num)
        if c < 0:
            g = -g
        if g != 1:
            num = tuple(x // g for x in num)
        return (num, (0,) * (k - v) + (c // g,))

    @staticmethod
    def _normalize_euclid(num, den):
        """Reduce num/den through the polynomial gcd (num, den nonzero)."""
        # strip common powers of q
        v = min(_valuation(num), _valuation(den))
        if v:
            num, den = num[v:], den[v:]
        g = _pgcd(num, den)
        if g != _ONE_POLY:
            num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
        cn, cd = _content(num), abs(_content(den))
        c = gcd(cn, cd)
        if c > 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return (num, den)

    def _add(self, a, b):
        n1, d1 = a
        n2, d2 = b
        if d1 == d2:
            return self._normalize(_padd(n1, n2), d1)
        return self._normalize(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    def _neg(self, a):
        return (_pneg(a[0]), a[1])

    def _mul(self, a, b):
        n1, d1 = a
        n2, d2 = b
        num = _pmul(n1, n2)
        if d1 == _ONE_POLY and d2 == _ONE_POLY:
            return (num, _ONE_POLY)
        if not num:
            return self.zero.v
        if _is_monomial(d1) and _is_monomial(d2):
            # (c1*q^k1)(c2*q^k2) = c1*c2*q^(k1+k2)
            return self._normalize_monomial(num, len(d1) + len(d2) - 2, d1[-1] * d2[-1])
        return self._normalize(num, _pmul(d1, d2))

    def _inv(self, a):
        n, d = a
        if not n:
            raise ZeroDivisorError("division by zero in Q(q)")
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return (d, n)

    def evaluate(self, s: Scalar, at: Scalar) -> Scalar:
        """Evaluate a value of this field at a point of another field."""
        num, den = s.v
        f = at.field

        def horner(poly):
            acc = f.zero
            for c in reversed(poly):
                acc = acc * at + f.from_int(c)
            return acc

        d = horner(den)
        if d.is_zero():
            raise DomainError("denominator vanishes at the evaluation point")
        return horner(num) / d

    def format(self, v) -> str:
        num, den = v
        ns = _poly_str(num, "q")
        if den == _ONE_POLY:
            return ns
        ds = _poly_str(den, "q")
        if len([c for c in num if c]) > 1:
            ns = f"({ns})"
        # a one-term denominator with a coefficient, k*q^m, needs parentheses
        # too: n/k*q^m reads back as (n/k)*q^m
        if len([c for c in den if c]) > 1 or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return "RationalFunctionField()"


class CyclotomicField(Field):
    """The field Q(zeta) for zeta a primitive l-th root of unity, l odd."""

    kind = "cyclotomic"

    def __init__(self, l: int):
        if l <= 1 or l % 2 == 0:
            raise ParameterError("cyclotomic order l must be odd and > 1")
        self.l = l
        self.modulus = cyclotomic_polynomial(l)
        self.degree = phi = len(self.modulus) - 1
        zeros = (0,) * phi
        self.zero = Scalar(self, (zeros, 1))
        self.one = Scalar(self, ((1,) + zeros[1:], 1))
        # Phi_l is monic, so t^k for k = phi .. 2*phi-2 reduces to an integer
        # row over 1, t, ..., t^(phi-1)
        row = tuple(-c for c in self.modulus[:-1])
        self._red: list[tuple[int, ...]] = [row]
        for _ in range(phi - 2):
            top = row[-1]
            row = tuple(
                (row[i - 1] if i else 0) + top * self._red[0][i] for i in range(phi)
            )
            self._red.append(row)
        t = (0, 1) + zeros[2:]
        self._zeta_pows = [self.one.v]
        for _ in range(l - 1):
            self._zeta_pows.append(self._mul(self._zeta_pows[-1], (t, 1)))
        self._zeta_exponent = {v: k for k, v in enumerate(self._zeta_pows)}
        # the Galois automorphisms sigma_k: zeta -> zeta^k other than the
        # identity, as integer matrices; row j is sigma_k(zeta^j)
        self._conjugations = [
            [self._zeta_pows[j * k % l][0] for j in range(phi)]
            for k in range(2, l)
            if gcd(k, l) == 1
        ]

    @staticmethod
    def _normal(nums, den):
        """The normal form of nums / den, for den > 0."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                return tuple(x // g for x in nums), den // g
        return tuple(nums), den

    def from_int(self, n: int) -> Scalar:
        return Scalar(self, ((int(n),) + (0,) * (self.degree - 1), 1))

    def from_fraction(self, f: Fraction) -> Scalar:
        f = Fraction(f)
        return Scalar(self, ((f.numerator,) + (0,) * (self.degree - 1), f.denominator))

    def from_coeffs(self, coeffs) -> Scalar:
        """Build sum_k coeffs[k] zeta^k from rational coefficients."""
        acc = self.zero
        for k, c in enumerate(coeffs):
            if c:
                acc = acc + self.from_fraction(c) * self.zeta_power(k)
        return acc

    def coefficients(self, v) -> tuple[Fraction, ...]:
        """The rational coefficients of v over 1, zeta, ..., zeta^(phi-1)."""
        nums, den = v
        return tuple(Fraction(x, den) for x in nums)

    @property
    def zeta(self) -> Scalar:
        return self.zeta_power(1)

    def zeta_power(self, k: int) -> Scalar:
        return Scalar(self, self._zeta_pows[k % self.l])

    @property
    def q(self) -> Scalar:
        return self.zeta

    def q_power(self, e: int) -> Scalar:
        return self.zeta_power(e)

    def twist(self, c: Scalar, e: int) -> Scalar:
        """c * zeta^e; the twist of a power of zeta is a table entry."""
        if not e:
            return c
        k = self._zeta_exponent.get(c.v)
        if k is not None:
            return self.zeta_power(k + e)
        return c * self.zeta_power(e)

    def _add(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == bd:
            return self._normal([x + y for x, y in zip(an, bn)], ad)
        return self._normal([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)

    def _neg(self, a):
        return tuple(-x for x in a[0]), a[1]

    def _mul(self, a, b):
        an, ad = a
        bn, bd = b
        phi = self.degree
        out = [0] * (2 * phi - 1)
        for i, x in enumerate(an):
            if x:
                for k, y in enumerate(bn, i):
                    if y:
                        out[k] += x * y
        for k in range(2 * phi - 2, phi - 1, -1):
            c = out[k]
            if c:
                for i, r in enumerate(self._red[k - phi]):
                    if r:
                        out[i] += c * r
        del out[phi:]
        return self._normal(out, ad * bd)

    def _inv(self, a):
        nums, den = a
        if not any(nums):
            raise ZeroDivisorError("division by zero in the cyclotomic field")
        c = nums[0]
        if any(nums[1:]):
            # a^-1 = prod_(k != 1) sigma_k(a) / N(a), where the norm
            # N(a) = a prod_(k != 1) sigma_k(a) is rational
            prod = None
            for rows in self._conjugations:
                conj = [0] * self.degree
                for x, row in zip(nums, rows):
                    if x:
                        for i, r in enumerate(row):
                            if r:
                                conj[i] += x * r
                prod = (tuple(conj), 1) if prod is None else self._mul(prod, (conj, 1))
            c = self._mul((nums, 1), prod)[0][0]
            nums = tuple(den * x for x in prod[0])
        else:
            nums = (den,) + nums[1:]
        if c < 0:
            nums, c = tuple(-x for x in nums), -c
        return self._normal(nums, c)

    def format(self, v) -> str:
        return _poly_str(_trim(self.coefficients(v)), "zeta")

    def __repr__(self):
        return f"CyclotomicField({self.l})"


_RATIONAL = RationalField()
_RATFUNC = RationalFunctionField()
_CYC_CACHE: dict[int, CyclotomicField] = {}


def make_field(kind: str, l: int | None = None) -> Field:
    """Return the field descriptor for the given kind (and order l)."""
    if kind == "rational":
        return _RATIONAL
    if kind == "rational_function_q":
        return _RATFUNC
    if kind != "cyclotomic":
        raise ParameterError(f"unknown field kind {kind!r}")
    if l is None:
        raise ParameterError("cyclotomic field needs the order l")
    if l not in _CYC_CACHE:
        _CYC_CACHE[l] = CyclotomicField(l)
    return _CYC_CACHE[l]


def q_integer(n: int, field: Field) -> Scalar:
    """The q-integer 1 + q + ... + q^(n-1); zero for n = 0."""
    if n < 0:
        raise ParameterError("q_integer takes a nonnegative integer")
    out = field.zero
    for k in range(n):
        out = out + field.q_power(k)
    return out


def specialize_at_root(value: Scalar, cyc: CyclotomicField) -> Scalar:
    """Evaluate a Q(q) value at q = zeta; error if the denominator vanishes."""
    if not isinstance(value.field, RationalFunctionField):
        raise ParameterError("specialization takes a rational-function value")
    return value.field.evaluate(value, cyc.zeta)
