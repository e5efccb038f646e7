"""Cyclotomic arithmetic and specialize_at_root, checked against sympy's
polynomial arithmetic modulo its own cyclotomic polynomial.

sympy is an optional test dependency; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qweylab.errors import DomainError  # noqa: E402
from qweylab.scalars import make_field, specialize_at_root  # noqa: E402

T = sympy.Symbol("t")
ORDERS = (3, 5, 7, 9, 15)
QQ_Q = make_field("rational_function_q")


def phi_l(l):
    return sympy.Poly(sympy.cyclotomic_poly(l, T), T, domain="QQ")


def as_poly(coeffs):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        T,
        domain="QQ",
    )


def to_sympy(s):
    return as_poly(s.field.coefficients(s.v))


def random_cyclotomic(rng, F):
    return F.from_coeffs(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(F.degree)]
    )


@pytest.mark.parametrize("l", ORDERS)
def test_cyclotomic_arithmetic_matches_sympy(l):
    F = make_field("cyclotomic", l)
    mod = phi_l(l)
    rng = random.Random(f"oracle:{l}")
    for _ in range(25):
        a, b = random_cyclotomic(rng, F), random_cyclotomic(rng, F)
        pa, pb = to_sympy(a), to_sympy(b)
        assert to_sympy(a * b) == (pa * pb).rem(mod)
        assert to_sympy(a + b) == (pa + pb).rem(mod)
        assert to_sympy(-a) == -pa
        if not a.is_zero():
            assert to_sympy(a.inv()) == pa.invert(mod)


@pytest.mark.parametrize("l", ORDERS)
def test_specialize_at_root_matches_sympy(l):
    F = make_field("cyclotomic", l)
    mod = phi_l(l)
    rng = random.Random(f"specialize:{l}")
    poles = 0
    for _ in range(40):
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 2 * l))]
        den = [rng.randint(-3, 3) for _ in range(rng.randint(1, l + 2))]
        if not any(den):
            den[0] = 1
        value = QQ_Q.from_polys(tuple(num), tuple(den))
        k, num, den = value.v
        pn, pd = (as_poly([Fraction(c) for c in p]) for p in (num, den))
        pn, pd = pn * T ** max(k, 0), pd * T ** max(-k, 0)
        if pd.gcd(mod).degree() > 0:
            poles += 1
            with pytest.raises(DomainError):
                specialize_at_root(value, F)
            continue
        want = (pn * pd.invert(mod)).rem(mod)
        assert to_sympy(specialize_at_root(value, F)) == want
    assert poles < 40
