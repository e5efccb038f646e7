import random

from qweylab.moment import moment_ideal_reduce
from qweylab.qweyl import AlgebraSpec
from qweylab.scalars import make_field

QQ_Q = make_field("rational_function_q")


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


def round_trip_product(u, v, datum):
    """The reduced product the long way, without its guards: both factors as
    Ore fractions, their product, then the reduction."""
    return moment_ideal_reduce(u.to_localized() * v.to_localized(), datum)
