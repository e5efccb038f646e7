"""Exact arithmetic in the three coefficient fields of the workbench.

Supported fields:

* ``rational`` -- plain rationals, backed by :class:`fractions.Fraction`.
* ``rational_function_q`` -- univariate rational functions in the formal
  deformation parameter ``q``.  A value is a triple ``(k, num, den)``
  meaning q^k * num / den: ``k`` is the q-adic valuation, an integer, and
  num and den are integer-coefficient polynomials with nonzero constant
  terms that share no polynomial factor, with coprime integer contents and
  a positive leading coefficient of den.  Zero is ``(0, (), (1,))``.  The
  normal form is unique, so equality is structural.  A twist c*q^e
  (``_twist``) adds e to k.  A product needs no polynomial gcd where
  a numerator meets a one-term denominator (an integer, once the q-power is
  in k), which covers the values met in practice; otherwise the common
  factors across the two values are cancelled through the polynomial gcd
  (pseudo-remainder Euclid).  A sum pads the numerator of the higher
  valuation by the difference of the two valuations, and no power of q is
  ever written out as zero padding of its own.
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

Each field works on bare values: ``_add``, ``_neg``, ``_mul`` (the field
product), ``_inv``, ``_product`` and ``_twist``.  ``_product`` is the product
that returns the other factor itself when one factor equals one, and is the
only code that skips a product by one; ``_twist(v, e)`` is the only
implementation of v*q^e.  ``Scalar`` wraps a value and its field, and its
``*`` and ``Field.twist`` go through those two.  The term-dict kernels of
:mod:`.qweyl`, :mod:`.moment` and :mod:`.hopf` call the value methods
directly and build their term dicts through one accumulator,
``qweyl._collect``, which sums with ``_add`` and wraps each output
coefficient once.
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


def _valuation(a) -> int:
    """The exponent of the lowest term of a nonzero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i


def _pmul(a, b):
    """The product of two nonzero polynomials, whose leads multiply to a
    nonzero lead; a one-term factor is a scale."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        if len(b) == 1:
            return (c * b[0],)
        return b if c == 1 else tuple([x * c for x in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return tuple(out)


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


def _cancel(a, b):
    """a and b divided by their polynomial gcd."""
    g = _pgcd(a, b)
    if g == _ONE_POLY:
        return a, b
    return _pdiv_exact(a, g), _pdiv_exact(b, g)


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


def _poly_str(coeffs, var: str, shift: int = 0, den: int = 1) -> str:
    """Render var^shift times a polynomial with integer coefficients, each
    over den and printed in lowest terms, highest degree first, e.g.
    ``q^2-q+1`` or ``1/2*zeta+1``."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        num, d = abs(c), den
        if d != 1:
            g = gcd(num, d)
            num, d = num // g, d // g
        digits = decimal_str(num) if d == 1 else f"{decimal_str(num)}/{decimal_str(d)}"
        e = k + shift
        if e == 0:
            mono = digits
        else:
            head = var if e == 1 else f"{var}^{e}"
            mono = head if num == 1 and d == 1 else f"{digits}*{head}"
        if not parts:
            parts.append(mono if c > 0 else "-" + mono)
        else:
            parts.append(("+" if c > 0 else "-") + mono)
    return "".join(parts)


def binary_power(base, e: int, one, mul=operator.mul):
    """base^e for e >= 0 by square-and-multiply with the product ``mul``:
    ``one`` for e = 0, and base itself for e = 1.  The accumulator starts at
    the lowest power of two in e, so no product is by one, and the last
    squaring, whose result is never used, is skipped."""
    if not e:
        return one
    while not e & 1:
        base = mul(base, base)
        e >>= 1
    out = base
    e >>= 1
    while e:
        base = mul(base, base)
        if e & 1:
            out = mul(out, base)
        e >>= 1
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
        """The product through ``Field._product``: a factor equal to one
        returns the other factor itself."""
        field = self.field
        if other.__class__ is not Scalar or other.field is not field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        v = field._product(self.v, other.v)
        if v is self.v:
            return self
        if v is other.v:
            return other
        return Scalar(field, v)

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
        if other is NotImplemented:
            return NotImplemented
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

    def _product(self, a, b):
        """The product of two values.  A factor equal to one returns the
        other value itself, and this is the only code that skips a product
        by one."""
        one = self._one
        if b == one:
            return a
        if a == one:
            return b
        return self._mul(a, b)

    def twist(self, c: Scalar, e: int) -> Scalar:
        """c * q^e, the scaling every rewrite and braiding twist applies:
        ``_twist`` on the value of c."""
        v = self._twist(c.v, e)
        return c if v is c.v else Scalar(self, v)

    def format(self, v) -> str:  # pragma: no cover
        raise NotImplementedError


class RationalField(Field):
    """The rational numbers."""

    kind = "rational"

    def __init__(self):
        self.zero = Scalar(self, Fraction(0))
        self.one = Scalar(self, Fraction(1))
        self._one = self.one.v

    def from_fraction(self, f: Fraction) -> Scalar:
        return Scalar(self, Fraction(f))

    @property
    def q(self) -> Scalar:
        # q specializes to 1 in the undeformed field.
        return self.one

    def q_power(self, e: int) -> Scalar:
        return self.one

    def _twist(self, v, e: int):
        return v

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
    """Rational functions in q, stored as (k, num, den) = q^k * num / den in
    the normal form of the module docstring.

    ``_twist(v, e)`` = v*q^e adds e to the valuation k."""

    kind = "rational_function_q"

    def __init__(self):
        self.zero = Scalar(self, (0, _ZERO_POLY, _ONE_POLY))
        self.one = Scalar(self, (0, _ONE_POLY, _ONE_POLY))
        self._one = self.one.v
        self._q = self.q_power(1)

    @property
    def q(self) -> Scalar:
        return self._q

    def q_power(self, e: int) -> Scalar:
        return Scalar(self, (e, _ONE_POLY, _ONE_POLY))

    def _twist(self, v, e: int):
        k, num, den = v
        if not e or not num:
            return v
        return (k + e, num, den)

    def from_int(self, n: int) -> Scalar:
        return Scalar(self, (0, (int(n),), _ONE_POLY) if n else self.zero.v)

    def from_fraction(self, f: Fraction) -> Scalar:
        f = Fraction(f)
        if not f:
            return self.zero
        return Scalar(self, (0, (f.numerator,), (f.denominator,)))

    def from_polys(self, num, den=_ONE_POLY) -> Scalar:
        return Scalar(self, self._normalize(0, _trim(num), _trim(den)))

    @staticmethod
    def _normalize(k: int, num, den, coprime: bool = False):
        """The normal form of q^k * num / den for trimmed polynomials num and
        den; ``coprime`` says that num and den share no polynomial factor of
        positive degree, so only the q-powers and the contents are left."""
        if not den:
            raise ZeroDivisorError("zero denominator in q-rational function")
        if not num:
            return (0, _ZERO_POLY, _ONE_POLY)
        v = _valuation(num)
        if v:
            num, k = num[v:], k + v
        v = _valuation(den)
        if v:
            den, k = den[v:], k - v
        if len(den) == 1:
            # a one-term denominator c divides num only by a factor of c
            c = den[0]
            if c == 1:
                return (k, num, den)
            g = gcd(c, *num)
            if c < 0:
                g = -g
            if g != 1:
                num, den = tuple(x // g for x in num), (c // g,)
            return (k, num, den)
        if not coprime and len(num) > 1:
            num, den = _cancel(num, den)
        c = gcd(_content(num), _content(den))
        if den[-1] < 0:
            c = -c
        if c != 1:
            num, den = tuple(x // c for x in num), tuple(x // c for x in den)
        return (k, num, den)

    def _add(self, a, b):
        k1, n1, d1 = a
        k2, n2, d2 = b
        if not n1:
            return b
        if not n2:
            return a
        # write both numerators from the lower valuation
        if k1 > k2:
            n1 = (0,) * (k1 - k2) + n1
        elif k2 > k1:
            n2 = (0,) * (k2 - k1) + n2
        k = min(k1, k2)
        if d1 == d2:
            return self._normalize(k, _padd(n1, n2), d1)
        return self._normalize(k, _padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    def _neg(self, a):
        k, num, den = a
        return (k, _pneg(num), den)

    def _mul(self, a, b):
        k1, n1, d1 = a
        k2, n2, d2 = b
        if not n1 or not n2:
            return self.zero.v
        if d1 == _ONE_POLY and d2 == _ONE_POLY:
            return (k1 + k2, _pmul(n1, n2), _ONE_POLY)
        # n1/d1 and n2/d2 are reduced, so the only polynomial factors to
        # cancel are those of n1 with d2 and of n2 with d1; a one-term side
        # has none
        if len(n1) > 1 and len(d2) > 1:
            n1, d2 = _cancel(n1, d2)
        if len(n2) > 1 and len(d1) > 1:
            n2, d1 = _cancel(n2, d1)
        return self._normalize(k1 + k2, _pmul(n1, n2), _pmul(d1, d2), coprime=True)

    def _inv(self, a):
        k, n, d = a
        if not n:
            raise ZeroDivisorError("division by zero in Q(q)")
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return (-k, d, n)

    def evaluate(self, s: Scalar, at: Scalar) -> Scalar:
        """Evaluate a value of this field at a point of another field."""
        k, num, den = s.v
        f = at.field

        def horner(poly):
            acc = f.zero
            for c in reversed(poly):
                acc = acc * at + f.from_int(c)
            return acc

        n, d = horner(num), horner(den)
        if k > 0:
            n = n * at**k
        elif k < 0:
            d = d * at**-k
        if d.is_zero():
            raise DomainError("denominator vanishes at the evaluation point")
        return n / d

    def format(self, v) -> str:
        k, num, den = v
        # q^k goes to the numerator for k > 0 and to the denominator for k < 0
        ns = _poly_str(num, "q", max(k, 0))
        if den == _ONE_POLY and k >= 0:
            return ns
        ds = _poly_str(den, "q", max(-k, 0))
        # num and den have nonzero first and last terms, so a length above
        # one means two terms or more
        if len(num) > 1:
            ns = f"({ns})"
        # a one-term denominator with a coefficient, k*q^m, needs parentheses
        # too: n/k*q^m reads back as (n/k)*q^m
        if len(den) > 1 or "*" in ds:
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
        self._one = self.one.v
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

    def _twist(self, v, e: int):
        """v * zeta^e: no twist for e = 0 mod l, and a table entry for a
        power of zeta."""
        e %= self.l
        if not e:
            return v
        k = self._zeta_exponent.get(v)
        if k is not None:
            return self._zeta_pows[(k + e) % self.l]
        return self._mul(v, self._zeta_pows[e])

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
        """1/a.  A one-term value c*zeta^k/den (k = 0 for a rational)
        inverts to den*zeta^(l-k)/c, read from the table of zeta powers;
        any other value through its Galois conjugates."""
        nums, den = a
        zeros = nums.count(0)
        if zeros == self.degree:
            raise ZeroDivisorError("division by zero in the cyclotomic field")
        if zeros < self.degree - 1:
            return self._conjugate_inv(a)
        c = nums[0]
        if c:
            nums = (den,) + nums[1:]
        else:
            k = next(k for k, x in enumerate(nums) if x)
            c, nums = nums[k], tuple(den * x for x in self._zeta_pows[self.l - k][0])
        if c < 0:
            nums, c = tuple(-x for x in nums), -c
        return self._normal(nums, c)

    def _conjugate_inv(self, a):
        """1/a for a nonzero value a, as prod_(k != 1) sigma_k(a) / N(a),
        where the norm N(a) = a prod_(k != 1) sigma_k(a) is rational."""
        nums, den = a
        prod = None
        for rows in self._conjugations:
            conj = [0] * self.degree
            for x, row in zip(nums, rows):
                if x:
                    for i, r in enumerate(row):
                        if r:
                            conj[i] += x * r
            conj = (tuple(conj), 1)
            prod = conj if prod is None else self._mul(prod, conj)
        c = self._mul((nums, 1), prod)[0][0]
        if c < 0:
            den, c = -den, -c
        return self._normal(tuple(den * x for x in prod[0]), c)

    def format(self, v) -> str:
        nums, den = v
        return _poly_str(_trim(nums), "zeta", den=den)

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
