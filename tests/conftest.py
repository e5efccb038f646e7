import itertools
import json
import random
from functools import reduce
from operator import add, mul, sub
from pathlib import Path

from qweylab.config import parse_config
from qweylab.errors import DomainError, RelationError
from qweylab.exactla import identity, mat_add, mat_eq, mat_mul, mat_pow, mat_scale, scalar_of_identity
from qweylab.hopf import coproduct
from qweylab.moment import _lattice_step, invariant_monomials, moment_ideal_reduce
from qweylab.qweyl import AlgebraSpec, LocalizedElement, PBWElement, _merge_vectors
from qweylab.rootofunity import CentralCharacter, euler_inverse
from qweylab.scalars import make_field

QQ_Q = make_field("rational_function_q")
# read only: the benchmark owns this file
VERIFY_QQ = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "verify_qq.json"


def verify_qq_variant(diagonal, column=None):
    """The benchmark's Q(q) config with another diagonal of M and, given a
    column, d = 1 with that column as A."""
    raw = json.loads(VERIFY_QQ.read_text())
    for i, m in enumerate(diagonal):
        raw["M"][i][i] = m
    if column is not None:
        raw["d"], raw["A"], raw["eta"] = 1, [[a] for a in column], raw["eta"][:1]
    return parse_config(raw)


# (diagonal of M, column of A or None) of the non-uniform-diagonal variants
NON_UNIFORM = [
    ((1, 1, 2), None),
    ((1, 1, 2), (1, 1, 1)),
    ((1, -1, 2), None),
    ((1, 0, 1), None),
    ((2, 1, 1), (1, 2, 1)),
]


def random_skew_matrix(rng: random.Random, n: int, lo=-2, hi=2):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.randint(lo, hi)
        for j in range(i + 1, n):
            v = rng.randint(lo, hi)
            m[i][j] = v
            m[j][i] = -v
    return tuple(tuple(row) for row in m)


def random_spec(rng: random.Random, n: int, field=QQ_Q, rescaled=True):
    return AlgebraSpec(n, random_skew_matrix(rng, n), rescaled, field)


def random_element(rng: random.Random, spec, max_degree=3, max_terms=3):
    out = spec.zero()
    for _ in range(rng.randint(1, max_terms)):
        a = [0] * spec.n
        b = [0] * spec.n
        for _ in range(rng.randint(0, max_degree)):
            if rng.random() < 0.5:
                a[rng.randrange(spec.n)] += 1
            else:
                b[rng.randrange(spec.n)] += 1
        coeff = spec.field.from_int(rng.randint(-3, 3))
        if rng.random() < 0.3:
            coeff = coeff * spec.field.q_power(rng.randint(-2, 2))
        out = out + spec.monomial(a, b, coeff)
    return out


# The Ore arithmetic of fractions N alpha^-k, kept as (N, k) with N a
# PBWElement: the reference for the alpha-basis arithmetic of
# LocalizedElement.


def sigma_scale(spec, u, k):
    """sigma^k(u), the diagonal twist with sigma_i(x_j) = q_ii^(delta_ij) x_j."""
    terms = {}
    for (a, b), c in u.terms.items():
        w = spec.weight(tuple(p - r for p, r in zip(a, b)))
        terms[(a, b)] = spec.field.twist(c, sum(ki * wi for ki, wi in zip(k, w)))
    return PBWElement(spec, terms)


def ore_product(f, g):
    """(N1 alpha^-k1)(N2 alpha^-k2) = N1 sigma^(-k1)(N2) alpha^-(k1 + k2)."""
    (n1, k1), (n2, k2) = f, g
    twisted = sigma_scale(n1.spec, n2, tuple(-k for k in k1))
    return n1 * twisted, tuple(p + r for p, r in zip(k1, k2))


def ore_lift(f, target):
    """The fraction f over the denominator alpha^target, target >= its own."""
    n, k = f
    return n * n.spec.alpha_power(tuple(t - e for t, e in zip(target, k))), tuple(target)


def ore_sum(f, g):
    """The sum over the common denominator alpha^max(k1, k2)."""
    target = tuple(max(p, r) for p, r in zip(f[1], g[1]))
    (n1, _), (n2, _) = ore_lift(f, target), ore_lift(g, target)
    return n1 + n2, target


def ore_equal(f, g) -> bool:
    """Equality of the numerators over the common denominator."""
    target = tuple(max(p, r) for p, r in zip(f[1], g[1]))
    return ore_lift(f, target)[0] == ore_lift(g, target)[0]


def round_trip_product(u, v, datum):
    """The reduced product without its guards: both factors as elements of
    the localized algebra, their product, then the reduction.  It runs the
    alpha-basis product and lattice step of ``reduced_product``, so it is no
    independent reference; ``ore_round_trip_product`` is."""
    return moment_ideal_reduce(u.to_localized() * v.to_localized(), datum)


def ore_round_trip_product(u, v, datum):
    """The reduced product through the reference Ore arithmetic: both factors
    as PBW fractions, their Ore product, then the reduction of that fraction."""
    fu, fv = u.to_localized(), v.to_localized()
    product = ore_product((fu.numerator, fu.denom), (fv.numerator, fv.denom))
    return moment_ideal_reduce(LocalizedElement(*product), datum)


def seeded_invariant(rng, spec, datum):
    """The reduction of three invariant monomials, each over a seeded
    denominator alpha^k (k in {0, 1}^n), so that alpha exponents of both
    signs occur."""
    monos = invariant_monomials(datum.torus, spec, 3)
    u = LocalizedElement.from_pbw(spec.zero())
    for _ in range(3):
        a, b = monos[rng.randrange(len(monos))]
        denom = tuple(rng.randint(0, 1) for _ in range(spec.n))
        u = u + LocalizedElement(spec.monomial(a, b, rng.choice([-2, -1, 1, 2])), denom)
    return moment_ideal_reduce(u, datum)


# The term-dict kernels as they were written on Scalar operations: the
# reference for the kernels of qweylab.qweyl, qweylab.moment and
# qweylab.hopf, which build their terms from field values through one
# accumulator.  Each returns its terms in the order the kernel meets their
# keys, zero coefficients included, and each skips the zero coefficients of
# the reference terms it reads, as the kernels never meet them.


def reference_one_var_table(spec, i, s, r):
    """The dense coefficients (c_0, .., c_min(s, r)) of d_i^s x_i^r =
    sum_k c_k x_i^(r-k) d_i^(s-k), uncached."""
    f = spec.field
    if s == 0 or r == 0:
        return (f.one,)
    mu = spec.sign * spec.m[i][i]
    gamma = spec.q_power(mu) - 1 if spec.rescaled else f.one
    kmax = min(s, r)
    out = [f.zero] * (kmax + 1)
    for k, c in enumerate(reference_one_var_table(spec, i, s - 1, r)):
        if c.is_zero():
            continue
        out[k] = out[k] + f.twist(c, mu * (r - k))
        if k < r:
            qint = f.zero
            for t in range(r - k):
                qint = qint + spec.q_power(mu * t)
            out[k + 1] = out[k + 1] + c * gamma * qint
    return tuple(out)


def reference_alpha_table(spec, i, r, s):
    """x_i^r d_i^s as a term dict over keys (r - m, s - m, k) for
    x_i^(r-m) d_i^(s-m) alpha_i^k, uncached."""
    f = spec.field
    if r == 0 or s == 0:
        return {(r, s, 0): f.one}
    e = -spec.m[i][i] * (s - 1)
    out = {}
    for (rr, ss, k), c in reference_alpha_table(spec, i, r - 1, s - 1).items():
        if c.is_zero():
            continue
        # x^r d^s = q^-(s-1) x^(r-1) d^(s-1) alpha - x^(r-1) d^(s-1)
        key, v = (rr, ss, k + 1), f.twist(c, e)
        prev = out.get(key)
        out[key] = v if prev is None else prev + v
        key = (rr, ss, k)
        prev = out.get(key)
        out[key] = -c if prev is None else prev - c
    return out


def reference_alpha_form_terms(spec, a, b, order):
    """x^a d^b over the alpha basis, the coordinates eliminated in order."""
    n = spec.n
    terms = {(a, b, (0,) * n): spec.field.one}
    for i in order:
        nxt = {}
        for (aa, bb, cc), coeff in terms.items():
            if coeff.is_zero():
                continue
            m = min(aa[i], bb[i])
            if m == 0:
                prev = nxt.get((aa, bb, cc))
                nxt[(aa, bb, cc)] = coeff if prev is None else prev + coeff
                continue
            e = -sum(spec.m[i][j] * aa[j] * m for j in range(i + 1, n))
            e -= sum(spec.m[j][i] * bb[j] * m for j in range(i))
            tw = spec.field.twist(coeff, e * spec.sign)
            a_left = aa[:i] + (aa[i] - m,) + aa[i + 1:]
            b_left = bb[:i] + (bb[i] - m,) + bb[i + 1:]
            for (_, _, k), c in reference_alpha_table(spec, i, aa[i], bb[i]).items():
                if c.is_zero():
                    continue
                key = (a_left, b_left, cc[:i] + (cc[i] + k,) + cc[i + 1:])
                val = tw * c
                prev = nxt.get(key)
                nxt[key] = val if prev is None else prev + val
        terms = nxt
    return terms


def reference_lattice_reduce(datum, spec, terms):
    """The alpha-basis terms with each alpha exponent vector reduced
    modulo the column lattice of A, a subtracted A t scaling by eta^t."""
    out = {}
    for (a, b, c), coeff in terms.items():
        red, et = _lattice_step(datum.torus, datum.eta, c)
        key, val = (a, b, red), coeff if et is None else coeff * et
        prev = out.get(key)
        out[key] = val if prev is None else prev + val
    return out


def reference_coproduct_on_leg(spec, delta, leg):
    """The coproduct applied to one leg of the items of an element of the
    braided tensor square."""
    out = {}
    for legs, c in delta:
        for split, cc in coproduct(spec, legs[leg]):
            key = legs[:leg] + split + legs[leg + 1:]
            val = c * cc
            prev = out.get(key)
            out[key] = val if prev is None else prev + val
    return out


def reference_ordered_product(spec, left, right, core, sign):
    out = {}
    twist = spec.field.twist
    rights = [(a2, b2, c2, _merge_vectors(spec, b2)[1]) for (a2, b2), c2 in right.items()]
    for (a1, b1), c1 in left.items():
        as_left = _merge_vectors(spec, a1)[0]
        for a2, b2, c2, as_right in rights:
            c12 = c1 * c2
            for (am, bm), ck in core(spec, b1, a2):
                e = sign * (sum(map(mul, as_left, am)) + sum(map(mul, bm, as_right)))
                key = (tuple(map(add, a1, am)), tuple(map(add, bm, b2)))
                c = c12 * ck
                if e:
                    c = twist(c, e)
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
    return out


def reference_fraction_terms(spec, numerator, denom, order):
    out = {}
    for (a, b), coeff in numerator.terms.items():
        for (aa, bb, cc), c in reference_alpha_form_terms(spec, a, b, order).items():
            if c.is_zero():
                continue
            key = (aa, bb, tuple(map(sub, cc, denom)))
            val = coeff * c
            prev = out.get(key)
            out[key] = val if prev is None else prev + val
    return out


def reference_alpha_product(spec, left, right):
    """The alpha-basis structure constant of two monomials through the
    reference kernels."""
    one = spec.field.one
    terms = reference_ordered_product(spec, {left: one}, {right: one}, reference_reorder, spec.sign)
    product = PBWElement(spec, terms)
    terms = reference_fraction_terms(spec, product, (0,) * spec.n, tuple(range(spec.n)))
    return [(k, c) for k, c in terms.items() if not c.is_zero()]


def reference_alpha_basis_product(spec, left, right):
    twist = spec.field.twist
    out = {}
    rights = [
        ((a2, b2), c2, v, spec.weight(tuple(map(sub, a2, b2))))
        for (a2, b2, c2), v in right.items()
    ]
    for (a1, b1, c1), u in left.items():
        for m2, c2, v, w2 in rights:
            uv = u * v
            e = sum(map(mul, c1, w2))
            if e:
                uv = twist(uv, e)
            c12 = tuple(map(add, c1, c2))
            for (a, b, c), s in reference_alpha_product(spec, (a1, b1), m2):
                key = (a, b, tuple(map(add, c, c12)))
                val = uv * s
                prev = out.get(key)
                out[key] = val if prev is None else prev + val
    return out


def reference_reorder(spec, b, a):
    """Normal ordering of d^b x^a, uncached, zero coefficients dropped."""
    n, f, s = spec.n, spec.field, spec.sign
    i = next((k for k in range(n) if a[k]), None)
    if i is None:
        return (((a, b), f.one),)
    ai = a[i]
    rest = a[:i] + (0,) + a[i + 1:]
    e1 = s * sum(b[j] * ai * spec.m[j][i] for j in range(i + 1, n))
    out = {}
    for k, ck in enumerate(reference_one_var_table(spec, i, b[i], ai)):
        if ck.is_zero():
            continue
        e2 = s * sum(b[j] * (ai - k) * spec.m[j][i] for j in range(i))
        coeff = f.twist(ck, e1 + e2)
        b2 = b[:i] + (b[i] - k,) + b[i + 1:]
        for (a3, b3), c3 in reference_reorder(spec, b2, rest):
            key = (a3[:i] + (a3[i] + ai - k,) + a3[i + 1:], b3)
            c = coeff * c3
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return tuple((key, c) for key, c in out.items() if not c.is_zero())


def reference_verify_rep(spec, l, xs, ys):
    """Every defining relation of the rank-n algebra and the centrality of
    the l-th powers, checked on the full matrices; raises RelationError on
    any failure, returns the central character.  The reference for the
    slot certificate of `build_irrep`."""
    f = spec.field
    n = spec.n
    failures = []
    for i in range(n):
        for j in range(n):
            qij = spec.q_power(spec.m[i][j])
            if i < j:
                if not mat_eq(mat_mul(xs[j], xs[i]), mat_scale(mat_mul(xs[i], xs[j]), qij)):
                    failures.append(f"x{j+1} x{i+1} = q_{i+1}{j+1} x{i+1} x{j+1}")
                if not mat_eq(mat_mul(ys[j], ys[i]), mat_scale(mat_mul(ys[i], ys[j]), qij)):
                    failures.append(f"d{j+1} d{i+1} = q_{i+1}{j+1} d{i+1} d{j+1}")
            if i != j:
                if not mat_eq(mat_mul(ys[i], xs[j]), mat_scale(mat_mul(xs[j], ys[i]), qij)):
                    failures.append(f"d{i+1} x{j+1} = q_{i+1}{j+1} x{j+1} d{i+1}")
    for i in range(n):
        qii = spec.q_power(spec.m[i][i])
        lhs = mat_mul(ys[i], xs[i])
        rhs = mat_add(
            mat_scale(mat_mul(xs[i], ys[i]), qii),
            mat_scale(identity(xs[i].nrows, f), qii - 1),
        )
        if not mat_eq(lhs, rhs):
            failures.append(f"d{i+1} x{i+1} = q x{i+1} d{i+1} + (q-1)")
    a_vals, w_vals = [], []
    for i in range(n):
        xa = scalar_of_identity(mat_pow(xs[i], l))
        ya = scalar_of_identity(mat_pow(ys[i], l))
        if xa is None:
            failures.append(f"x{i+1}^{l} is not scalar")
        if ya is None:
            failures.append(f"d{i+1}^{l} is not scalar")
        a_vals.append(xa if xa is not None else f.zero)
        w_vals.append(ya if ya is not None else f.zero)
    if failures:
        raise RelationError("representation violates: " + "; ".join(failures))
    return CentralCharacter(tuple(a_vals), tuple(w_vals))


def reference_moment_operators(rep, torus):
    """The moment operators prod_i alpha_i^(a_ij) formed at dim l^n, from the
    rep's Euler operators I + x_i y_i and their dim-l^n `euler_inverse`, and
    their central l-th power scalars prod_i c_i^(a_ij).  Asserts that each
    operator's l-th power is its scalar and that the operators commute
    pairwise.  The reference for `reduction.moment_operators`, which builds
    them from the l x l slots."""
    alphas = rep.alpha_matrices()
    factors = rep.character.azumaya_factors

    def alpha_power(i, e):
        if e > 0:
            return mat_pow(alphas[i], e)
        inverse = euler_inverse(alphas[i], factors[i], rep.l)
        if inverse is None:
            raise DomainError(
                f"Euler operator {i+1} is singular but A needs its inverse "
                "(off the invertible locus)"
            )
        return mat_pow(inverse, -e)

    columns = [
        [(i, torus.a[i][j]) for i in range(torus.n) if torus.a[i][j]] for j in range(torus.d)
    ]
    ops = [reduce(mat_mul, (alpha_power(i, e) for i, e in col)) for col in columns]
    scalars = [reduce(mul, (factors[i] ** e for i, e in col)) for col in columns]
    for op, scalar in zip(ops, scalars):
        assert scalar_of_identity(mat_pow(op, rep.l)) == scalar
    for p, r in itertools.combinations(ops, 2):
        assert mat_eq(mat_mul(p, r), mat_mul(r, p))
    return ops, scalars
