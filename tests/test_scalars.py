import random
from fractions import Fraction
from math import gcd

import pytest

from qweylab.errors import DomainError, ParameterError, ZeroDivisorError
from qweylab.expr import parse_scalar
from qweylab.scalars import (
    RationalFunctionField,
    cyclotomic_polynomial,
    make_field,
    q_integer,
    specialize_at_root,
)

QQ = make_field("rational")
QQ_Q = make_field("rational_function_q")
Z3 = make_field("cyclotomic", 3)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_make_field_validation():
    with pytest.raises(ParameterError):
        make_field("cyclotomic", 2)
    with pytest.raises(ParameterError):
        make_field("cyclotomic", 1)
    for kind in ("noise", "RationalFunctionInQ", "rationalfunctioninq", "Rational-Function-Q",
                 "CYCLOTOMIC"):
        with pytest.raises(ParameterError, match="unknown field kind"):
            make_field(kind, 3)
    assert make_field("rational_function_q") is QQ_Q
    assert make_field("cyclotomic", 3) is Z3
    assert Z3.modulus == (1, 1, 1)
    assert Z3.l == 3
    assert QQ_Q.modulus is None and QQ_Q.l is None
    assert QQ.modulus is None


def test_zeta_relations():
    z = Z3.zeta
    assert z**2 + z == Z3.from_int(-1)
    assert z**3 == Z3.one
    for l in (3, 5, 7):
        F = make_field("cyclotomic", l)
        for k in range(1, l):
            assert F.zeta**k != F.one
        assert F.zeta**l == F.one


def test_cyclotomic_inverse_example():
    z = Z3.zeta
    val = (Z3.one - z).inv()
    # independent check: (1 - zeta) * (2 + zeta) == 3
    assert (Z3.one - z) * (Z3.from_int(2) + z) == Z3.from_int(3)
    assert val == (Z3.from_int(2) + z) / 3


def test_q_power_negative():
    q = QQ_Q.q
    assert q**-2 == QQ_Q.one / (q * q)
    assert QQ_Q.q_power(-2) * QQ_Q.q_power(5) == QQ_Q.q_power(3)


def test_q_integer():
    q = QQ_Q.q
    assert q_integer(3, QQ_Q) == 1 + q + q**2
    assert q_integer(0, QQ_Q) == QQ_Q.zero
    assert q_integer(3, Z3) == Z3.zero
    assert q_integer(3, QQ) == QQ.from_int(3)


def test_zero_division_errors():
    with pytest.raises(ZeroDivisorError):
        QQ.zero.inv()
    with pytest.raises(ZeroDivisorError):
        QQ_Q.zero.inv()
    with pytest.raises(ZeroDivisorError):
        Z3.zero.inv()


def test_field_mismatch():
    with pytest.raises(ParameterError):
        QQ.one + Z3.one


@pytest.mark.parametrize("field, other", [(QQ, QQ_Q), (QQ_Q, Z3), (Z3, QQ)],
                         ids=["Q", "Qq", "Qzeta3"])
def test_a_factor_one_returns_the_other_factor(field, other):
    rng = random.Random(f"unit factor:{field.kind}")
    one = field.one
    values = [one, field.zero, -one, field.q, field.from_fraction(Fraction(-2, 3))]
    values += [s for s in (_random_scalar(rng, field) for _ in range(30)) if s != one]
    for s in values:
        for got in (one * s, s * one, s * 1, 1 * s, s * Fraction(1)):
            assert got is s and got.v == s.v
    for a, b in ((one, other.q), (other.q, one), (one, other.one)):
        with pytest.raises(ParameterError, match="different fields"):
            a * b


def _random_scalar(rng, field):
    if field is QQ:
        return field.from_fraction(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        )
    if field is QQ_Q:
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        den = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        if not any(den):
            den = [1]
        return field.from_polys(tuple(num), tuple(den))
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(field.degree)]
    return field.from_coeffs(coeffs)


@pytest.mark.parametrize("field", [QQ, QQ_Q, Z3, make_field("cyclotomic", 5)])
def test_field_axioms_random(field):
    rng = random.Random(20240815)
    for _ in range(1000):
        a = _random_scalar(rng, field)
        b = _random_scalar(rng, field)
        c = _random_scalar(rng, field)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == field.one


def test_rational_function_normalization():
    q = QQ_Q.q
    a = (q**2 - 1) / (q - 1)
    assert a == q + 1
    assert str(a) == "q+1"
    b = (2 * q + 2) / 4
    assert str(b) == "(q+1)/2"
    # (k, num, den) is q^k num / den, with the q-power kept as k
    assert ((q - 1) * (q + 1)).v == (0, (-1, 0, 1), (1,))
    assert (q**3 * (q - 1) / (2 * q**5)).v == (-2, (-1, 1), (2,))


def _monomial_denominator_cases():
    """(num, den) pairs with a one-term denominator c*q^k, num nonzero."""
    cases = [
        ((1, 2), (0, 0, -3)),  # negative lead c
        ((6, 0, 9), (0, -12)),  # negative c sharing the factor 3 with content(num)
        ((4, 10), (0, 0, 0, 8)),  # c sharing 2 with content(num), val(num) = 0 < k = 3
        ((0, 0, 0, 0, 3, 6), (0, 9)),  # val(num) = 4 > k = 1
        ((0, 0, 5), (0, 0, 10)),  # val(num) = k
        ((2, 0, 4), (6,)),  # k = 0 with c > 1
        ((7,), (-5,)),  # k = 0 with c < 0
    ]
    rng = random.Random(20261018)
    while len(cases) < 400:
        val = rng.randint(0, 5)
        num = (0,) * val + tuple(rng.randint(-12, 12) for _ in range(rng.randint(1, 4)))
        c = rng.choice((-1, 1)) * rng.randint(1, 24)
        if any(num):
            num = num[: max(i for i, x in enumerate(num) if x) + 1]
            cases.append((num, (0,) * rng.randint(0, 5) + (c,)))
    return cases


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_monomial_denominator_matches_euclid():
    # a one-term denominator is reduced by an integer gcd; the same value
    # with a common factor 1 + q on both sides goes through the polynomial
    # gcd, and both give the same normal form
    shapes = set()
    for num, den in _monomial_denominator_cases():
        got = RationalFunctionField._normalize(0, num, den)
        padded = RationalFunctionField._normalize(
            0, tuple(_polymul(num, (1, 1))), tuple(_polymul(den, (1, 1)))
        )
        assert got == padded, (num, den)
        k, n, d = got
        assert len(d) == 1 and d[0] > 0 and gcd(d[0], *n) == 1 and n[0] and n[-1]
        # q^k n / d == num / den
        lhs = _polymul((0,) * max(k, 0) + n, den)
        rhs = _polymul((0,) * max(-k, 0) + d, num)
        assert lhs + [0] * (len(rhs) - len(lhs)) == rhs + [0] * (len(lhs) - len(rhs))
        kd, c = len(den) - 1, den[-1]
        val = next(i for i, x in enumerate(num) if x)
        content = gcd(*num)
        shapes.add(("c<0", c < 0))
        shapes.add(("shared factor", gcd(content, c) > 1))
        shapes.add(("val vs k", (val > kd) - (val < kd)))
        shapes.add(("k=0, c>1", kd == 0 and c > 1))
        v = QQ_Q.scalar(got)
        assert parse_scalar(str(v), QQ_Q) == v
    # every shape named above occurs, both ways where it can
    assert len(shapes) == 9
    for den in ((0, 0, -3), (4,), (0, 7)):
        assert RationalFunctionField._normalize(0, (), den) == QQ_Q.zero.v
        assert QQ_Q.from_polys((), den) == QQ_Q.zero


def test_equal_values_share_one_valuation_form():
    q = QQ_Q.q
    # (q^3 + 2q^2) / (4q) = q (q + 2) / 4, built six ways
    built = [
        QQ_Q.from_polys((0, 0, 2, 1), (0, 4)),
        QQ_Q.from_polys((0, 0, 2, 1, 0, 0), (0, 4, 0)),
        QQ_Q.from_polys((0, 2, 1), (4,)),
        QQ_Q.twist(QQ_Q.from_polys((2, 1), (4,)), 1),
        (q + 2) * q**3 / (4 * q**2),
    ]
    # a sum that cancels its lowest term: (1 + q^2 + q^3) + (-1 + q)(1 + q)
    # is q^2 (2 + q)
    cancelled = (1 + q**2 + q**3) + (q - 1) * (q + 1)
    built.append(QQ_Q.twist(cancelled, -1) / 4)
    assert {s.v for s in built} == {(1, (2, 1), (4,))}
    assert len({hash(s) for s in built}) == 1
    # q^-2 (1 + q) / (1 - q): the sign moves to the numerator
    built = [
        QQ_Q.from_polys((1, 1), (0, 0, 1, -1)),
        QQ_Q.twist((1 + q) / (1 - q), -2),
        (q**-1 + 1) * q**-1 / (1 - q),
        (1 + q) * (q**2 - q**3).inv(),
    ]
    assert {s.v for s in built} == {(-2, (-1, -1), (-1, 1))}
    # a cancelled sum is zero, with valuation 0
    assert (q**5 * (1 + q) - q**6 - q**5).v == QQ_Q.zero.v == (0, (), (1,))
    assert QQ_Q.twist(QQ_Q.zero, 7) is QQ_Q.zero


def test_printed_values_read_back():
    rng = random.Random("print:rational_function_q")
    values = []
    for _ in range(300):
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        den = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        if not any(den):
            den = [rng.choice((-3, 1, 2))]
        s = QQ_Q.twist(QQ_Q.from_polys(tuple(num), tuple(den)), rng.randint(-6, 6))
        values.append(s)
        assert parse_scalar(str(s), QQ_Q) == s, s
    shapes = {(s.v[0] > 0) - (s.v[0] < 0) for s in values if s}
    assert shapes == {-1, 0, 1}
    assert {len(s.v[2]) > 1 for s in values} == {False, True}


def test_specialization_homomorphism():
    rng = random.Random(7)
    Z5 = make_field("cyclotomic", 5)
    for _ in range(200):
        a = _random_scalar(rng, QQ_Q)
        b = _random_scalar(rng, QQ_Q)
        try:
            sa = specialize_at_root(a, Z5)
            sb = specialize_at_root(b, Z5)
            sab = specialize_at_root(a * b, Z5)
            ssum = specialize_at_root(a + b, Z5)
        except DomainError:
            continue
        assert sa * sb == sab
        assert sa + sb == ssum


def test_specialization_pole_is_error():
    Z3f = make_field("cyclotomic", 3)
    q = QQ_Q.q
    bad = QQ_Q.one / (q**2 + q + 1)
    with pytest.raises(DomainError):
        specialize_at_root(bad, Z3f)


def test_scalar_str():
    assert str(QQ.from_fraction(Fraction(-3, 4))) == "-3/4"
    assert str(QQ_Q.q_power(2)) == "q^2"
    assert str(QQ_Q.q_power(-1)) == "1/q"
    z = Z3.zeta
    assert str(z**2) == "-zeta-1"  # reduced modulo 1 + zeta + zeta^2
    assert str(z + 1) == "zeta+1"
    Z5 = make_field("cyclotomic", 5)
    assert str(Z5.zeta**2) == "zeta^2"


CYCLOTOMIC_ORDERS = (3, 5, 7, 9, 15)


def _seeded_cyclotomic(l, count=40):
    F = make_field("cyclotomic", l)
    rng = random.Random(f"cyclotomic:{l}")
    return F, [_random_scalar(rng, F) for _ in range(count)]


@pytest.mark.parametrize("l", CYCLOTOMIC_ORDERS)
def test_cyclotomic_normal_form(l):
    F, xs = _seeded_cyclotomic(l)
    values = list(xs)
    for x, y in zip(xs, xs[1:]):
        values += [x + y, x - y, x * y, -x]
        if not x.is_zero():
            values.append(x.inv())
    for s in values:
        nums, den = s.v
        assert len(nums) == F.degree
        assert all(type(c) is int for c in nums) and type(den) is int
        assert den > 0 and gcd(den, *nums) == 1
    assert F.zero.v == ((0,) * F.degree, 1)


def test_cyclotomic_hash_agrees_with_equality():
    Z5 = make_field("cyclotomic", 5)
    z = Z5.zeta
    built = [
        Z5.from_coeffs([Fraction(1, 2), Fraction(-1, 3), 0, Fraction(5, 6)]),
        (3 - 2 * z + 5 * z**3) / 6,
        ((3 - 2 * z + 5 * z**3) * 7 / 42).inv().inv(),
    ]
    assert built[0] == built[1] == built[2]
    assert len({hash(s) for s in built}) == 1 and len(set(built)) == 1
    assert Z5.from_fraction(Fraction(4, 2)) == Z5.from_int(2) == 2
    assert hash(Z5.from_fraction(Fraction(4, 2))) == hash(Z5.from_int(2))
    assert (z - z).v == Z5.zero.v and (z - z).is_zero()


@pytest.mark.parametrize("l", CYCLOTOMIC_ORDERS)
def test_cyclotomic_inverse_and_associativity(l):
    F, xs = _seeded_cyclotomic(l)
    irrational = 0
    for x, y, z in zip(xs, xs[1:], xs[2:]):
        assert (x * y) * z == x * (y * z)
        if not x.is_zero():
            assert x * x.inv() == F.one
            irrational += any(x.v[0][1:])
    assert irrational > len(xs) // 2


@pytest.mark.parametrize("l, ks", [(9, (3,)), (15, (3, 5))])
def test_cyclotomic_inverse_uses_only_coprime_conjugates(l, ks):
    # x = 1 + zeta + ... + zeta^(m-1), with m = l / k, is nonzero, but the
    # substitution zeta -> zeta^k (k not coprime to l) sends it to zero, so an
    # inverse that also multiplied by that substitution would divide by zero
    F = make_field("cyclotomic", l)
    for k in ks:
        x = sum((F.zeta_power(j) for j in range(l // k)), F.zero)
        assert not x.is_zero()
        assert x * x.inv() == F.one


def test_cyclotomic_arithmetic_builds_no_fraction(monkeypatch):
    from qweylab import scalars

    F, xs = _seeded_cyclotomic(7, count=6)

    def forbidden(*args):
        raise AssertionError("Fraction built in cyclotomic arithmetic")

    monkeypatch.setattr(scalars, "Fraction", forbidden)
    for x, y in zip(xs, xs[1:]):
        assert (x + y) - y == x
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inv() == F.one
    assert (xs[0] * 3 + 1).inv() * (xs[0] * 3 + 1) == 1


def reference_cyclotomic_format(F, v) -> str:
    """The cyclotomic printer as it was before it printed from the integer
    numerators: every coefficient a Fraction, highest power first."""
    coeffs = list(F.coefficients(v))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            mono = str(abs(c))
        else:
            head = "zeta" if k == 1 else f"zeta^{k}"
            mono = head if abs(c) == 1 else f"{abs(c)}*{head}"
        if not parts:
            parts.append(mono if c > 0 else "-" + mono)
        else:
            parts.append(("+" if c > 0 else "-") + mono)
    return "".join(parts) or "0"


@pytest.mark.parametrize("l", CYCLOTOMIC_ORDERS)
def test_cyclotomic_printer_matches_the_fraction_printer(l, monkeypatch):
    from qweylab import scalars

    F, xs = _seeded_cyclotomic(l)
    values = [F.zero, F.one, -F.one, F.from_int(-7), F.zeta, -F.zeta_power(l - 1)]
    values += [F.from_fraction(Fraction(-3, 4)), F.from_fraction(Fraction(6, 4))]
    for x, y in zip(xs, xs[1:]):
        values += [x, -x, x * y, x - y]
        if not x.is_zero():
            values.append(x.inv())
    nums = [c for s in values for c in s.v[0]]
    assert any(s.v[1] != 1 for s in values) and any(s.v[1] == 1 for s in values)
    assert any(c < 0 for c in nums) and 0 in nums
    # a coefficient whose gcd with den is neither 1 nor den
    assert any(1 < gcd(c, s.v[1]) < s.v[1] for s in values for c in s.v[0])
    want = [reference_cyclotomic_format(F, s.v) for s in values]

    class Forbidden(Fraction):
        def __new__(cls, *args):
            raise AssertionError("Fraction built while printing")

    monkeypatch.setattr(scalars, "Fraction", Forbidden)
    assert [str(s) for s in values] == want


def test_reflected_division_by_an_uncoercible_operand_is_not_implemented():
    for F in (QQ, QQ_Q, Z3):
        for s in (F.zero, F.one):
            assert s.__rtruediv__("x") is NotImplemented
            with pytest.raises(TypeError, match="unsupported operand"):
                "x" / s
        assert 3 / F.from_int(2) == F.from_fraction(Fraction(3, 2))
        with pytest.raises(ZeroDivisorError):
            1 / F.zero


def test_rational_function_twist_is_the_product_by_a_q_power():
    rng = random.Random("twist:rational_function_q")
    values = [QQ_Q.zero, QQ_Q.one, QQ_Q.q_power(-3)]
    values += [QQ_Q.scalar(RationalFunctionField._normalize(0, num, den))
               for num, den in _monomial_denominator_cases()[:60]]
    values += [_random_scalar(rng, QQ_Q) for _ in range(200)]
    # polynomial denominators, and negative and positive valuations
    assert any(len(s.v[2]) > 1 for s in values)
    assert any(s.v[0] < 0 for s in values) and any(s.v[0] > 0 for s in values)
    for s in values:
        for e in range(-8, 9):
            assert QQ_Q.twist(s, e).v == (s * QQ_Q.q_power(e)).v, (s, e)


@pytest.mark.parametrize("l", (3, 5, 7))
def test_cyclotomic_twist_is_the_product_by_a_q_power(l):
    F, xs = _seeded_cyclotomic(l, 10)
    # the powers of zeta take a table entry, the others a product
    powers = [F.zeta_power(k) for k in range(l)] + [-F.one]
    for s in xs + powers + [F.zero]:
        for e in range(-3 * l, 3 * l + 1):
            assert F.twist(s, e).v == (s * F.q_power(e)).v, (s, e)


def test_rational_twist_is_the_product_by_a_q_power():
    rng = random.Random("twist:rational")
    for s in [QQ.zero] + [_random_scalar(rng, QQ) for _ in range(20)]:
        for e in range(-8, 9):
            assert QQ.twist(s, e).v == (s * QQ.q_power(e)).v


@pytest.mark.parametrize("field", [QQ, QQ_Q, Z3, make_field("cyclotomic", 9)],
                         ids=["Q", "Qq", "Qzeta3", "Qzeta9"])
def test_value_product_returns_a_factor_one_s_partner(field):
    rng = random.Random(f"value product:{field.kind}:{field.l}")
    one = field.one.v
    for s in [field.zero, field.q] + [_random_scalar(rng, field) for _ in range(20)]:
        assert field._product(s.v, one) is s.v and field._product(one, s.v) is s.v
        if s.v != one:
            assert field._product(s.v, s.v) == field._mul(s.v, s.v)


@pytest.mark.parametrize("l", (3, 9))
def test_cyclotomic_twist_by_a_multiple_of_l_is_no_twist(l, monkeypatch):
    F, xs = _seeded_cyclotomic(l, 10)
    products = []
    original = type(F)._mul
    monkeypatch.setattr(type(F), "_mul", lambda self, a, b: products.append(a) or original(self, a, b))
    for s in xs + [F.one, F.zeta]:
        for e in (-2 * l, -l, 0, l, 3 * l):
            assert F._twist(s.v, e) is s.v and F.twist(s, e) is s
    assert products == []


@pytest.mark.parametrize("l", (3, 5, 7, 9, 15))
def test_cyclotomic_inverse_multiplies_tuple_values(l, monkeypatch):
    # every value is a (tuple, int) pair, so a product can look it up in
    # the table of zeta powers
    F, xs = _seeded_cyclotomic(l, 10)
    seen = []
    original = type(F)._mul

    def checked(self, a, b):
        for v in (a, b):
            assert type(v[0]) is tuple and type(v[1]) is int
            hash(v)
        seen.append(a)
        return original(self, a, b)

    monkeypatch.setattr(type(F), "_mul", checked)
    for s in xs:
        if not s.is_zero():
            assert (s * s.inv()).v == F.one.v
    assert seen


@pytest.mark.parametrize("l", (3, 5, 7, 9, 15))
def test_one_term_cyclotomic_inverse_matches_the_conjugate_path(l, monkeypatch):
    # c*zeta^k/den for every k < phi(l), c of either sign and den 1 or not,
    # inverted from the table of zeta powers with no product
    F = make_field("cyclotomic", l)
    values = [
        F._normal([c if j == k else 0 for j in range(F.degree)], den)
        for k in range(F.degree)
        for c in (1, -1, 3, -6)
        for den in (1, 4)
    ]
    want = [F._conjugate_inv(v) for v in values]
    products = []
    original = type(F)._mul
    monkeypatch.setattr(type(F), "_mul", lambda self, a, b: products.append(a) or original(self, a, b))
    assert [F._inv(v) for v in values] == want
    assert products == []
    monkeypatch.undo()
    for v, inv in zip(values, want):
        assert F._mul(v, inv) == F.one.v
