import json
import random
from pathlib import Path

from qweylab.config import parse_config
from qweylab.moment import invariant_monomials, moment_ideal_reduce
from qweylab.qweyl import AlgebraSpec, LocalizedElement
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


def round_trip_product(u, v, datum):
    """The reduced product the long way, without its guards: both factors as
    Ore fractions, their product, then the reduction."""
    return moment_ideal_reduce(u.to_localized() * v.to_localized(), datum)


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
