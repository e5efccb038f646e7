"""Warm layer microbenchmarks on seeded operands.

Each operation runs once to fill caches, then in batches of at least
MIN_BATCH_S; the reported time per call is the median over REPEATS batches.
Each result is also checked once, untimed.  Needs the checkout's `src` on
sys.path.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from qweylab.config import load_config
from qweylab.exactla import identity, kron, mat_eq, mat_mul, sparse_kernel
from qweylab.expr import parse_scalar
from qweylab.rootofunity import build_irrep_rank1
from qweylab.scalars import make_field

from workloads import BENCH_DIR, ROOT

MIN_BATCH_S = 0.02
REPEATS = 5


def _per_call(fn, operands) -> float:
    """Median seconds per call of fn(*args) over the operand tuples."""
    for args in operands:
        fn(*args)
    samples = []
    for _ in range(REPEATS):
        calls, start = 0, time.perf_counter()
        while True:
            for args in operands:
                fn(*args)
            calls += len(operands)
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_BATCH_S:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def _cyclotomic_pairs(rng, l, count=12):
    f = make_field("cyclotomic", l)

    def element():
        return f.from_coeffs(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.degree)]
        )

    pairs = [(element(), element()) for _ in range(count)]
    return f, [(a, b) for a, b in pairs if not a.is_zero() and not b.is_zero()]


def _rational_function(rng) -> str:
    def poly():
        coeffs = [rng.randint(-4, 4) for _ in range(3)] + [rng.randint(1, 4)]
        return " + ".join(f"{c}*q^{k}" for k, c in enumerate(coeffs) if c)

    return f"({poly()})/({poly()})"


def _random_pbw(rng, spec, degree=4, terms=3):
    out = spec.zero()
    for _ in range(terms):
        a, b = [0] * spec.n, [0] * spec.n
        for _ in range(rng.randint(1, degree)):
            vec = a if rng.random() < 0.5 else b
            vec[rng.randrange(spec.n)] += 1
        out = out + spec.monomial(a, b, rng.randint(1, 3))
    return out


def _commutant_rows(rep):
    """Constraint rows of M G = G M over every generator matrix G."""
    f, dim = rep.field, rep.dim
    rows = []
    for g in list(rep.xs) + list(rep.ys):
        for r in range(dim):
            for c in range(dim):
                row = {}
                for k in range(dim):
                    if not g[k][c].is_zero():
                        row[r * dim + k] = row.get(r * dim + k, f.zero) + g[k][c]
                    if not g[r][k].is_zero():
                        row[k * dim + c] = row.get(k * dim + c, f.zero) - g[r][k]
                row = {key: v for key, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    return rows


def run(seed: int) -> tuple[dict, int, list[str]]:
    """Returns (metrics, attempted, problems)."""
    rng = random.Random(f"micro:{seed}")
    metrics: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    attempted = 0

    def check(ok: bool, what: str):
        nonlocal attempted
        attempted += 1
        if not ok:
            problems.append(what)

    for l in (3, 5, 7):
        f, pairs = _cyclotomic_pairs(rng, l)
        metrics[f"scalars.cyc_mul_us.l{l}"] = (_per_call(lambda a, b: a * b, pairs) * 1e6, "us")
        inverses = [(a,) for a, _ in pairs]
        metrics[f"scalars.cyc_inv_us.l{l}"] = (_per_call(lambda a: a.inv(), inverses) * 1e6, "us")
        check(all(a * a.inv() == f.one for a, _ in pairs), f"cyclotomic inverse at l={l}")

    qq = make_field("rational_function_q")
    pairs = [(parse_scalar(_rational_function(rng), qq), parse_scalar(_rational_function(rng), qq))
             for _ in range(12)]
    metrics["scalars.qq_mul_us"] = (_per_call(lambda a, b: a * b, pairs) * 1e6, "us")
    metrics["scalars.qq_add_us"] = (_per_call(lambda a, b: a + b, pairs) * 1e6, "us")
    check(all((a * b) / b == a and (a + b) - b == a for a, b in pairs), "Q(q) arithmetic")

    spec = load_config(str(BENCH_DIR / "configs" / "verify_qq.json")).spec
    elements = [_random_pbw(rng, spec) for _ in range(9)]
    products = [(elements[k], elements[k + 1]) for k in range(0, 8, 2)]
    metrics["qweyl.pbw_mul_warm_ms.n3"] = (_per_call(lambda u, v: u * v, products) * 1e3, "ms")
    u, v, w = elements[:3]
    check((u * v) * w == u * (v * w), "PBW associativity at n=3")

    rep = load_config(str(ROOT / "configs" / "n2_l3.json")).build_reps()[0]
    rows = _commutant_rows(rep)
    kernel_args = [(rows, rep.dim * rep.dim, rep.field)]
    metrics["exactla.sparse_kernel_ms.commutant"] = (_per_call(sparse_kernel, kernel_args) * 1e3, "ms")
    check(len(sparse_kernel(*kernel_args[0])) == 1, "commutant of an n2_l3 rep is 1-dimensional")

    # The n2_l5 builder's matrices: x_2 = alpha_1 (x) X_2 and d_1 = Y_1 (x) I.
    l5 = make_field("cyclotomic", 5)
    slots = []
    for lam, mu in ((l5.from_int(1), l5.from_int(2)), (l5.from_int(2), l5.from_int(3))):
        slots.append(build_irrep_rank1(lam, [mu / (lam * l5.zeta_power(m)) for m in range(5)], 5))
    alpha1 = slots[0].alpha_matrices()[0]
    x2, y1, ident = slots[1].xs[0], slots[0].ys[0], identity(5, l5)
    metrics["exactla.kron_ms.rep"] = (_per_call(kron, [(alpha1, x2)]) * 1e3, "ms")
    big = [(kron(y1, ident), kron(alpha1, x2))]
    metrics["exactla.mat_mul_ms.rep"] = (_per_call(mat_mul, big) * 1e3, "ms")
    check(
        mat_eq(mat_mul(kron(alpha1, ident), kron(ident, x2)), kron(alpha1, x2)),
        "(A (x) I)(I (x) B) = A (x) B on l=5 rep matrices",
    )
    return metrics, attempted, problems
