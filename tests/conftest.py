import json
import random
from pathlib import Path

from qweylab.config import parse_config
from qweylab.moment import invariant_monomials, moment_ideal_reduce
from qweylab.qweyl import AlgebraSpec, LocalizedElement, PBWElement
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
