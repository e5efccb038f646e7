"""Acceptance suite: every exit criterion, exact arithmetic, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import random_element, random_skew_matrix
from qweylab.checks import cover_degree_cases, moment_reduction_cases, rank1_dichotomy_cases
from qweylab.config import DEFAULT_BOUNDS
from qweylab.hopf import DoubleElement, verify_double_presentation
from qweylab.moment import (
    ReductionDatum,
    TorusData,
    moment_ideal_reduce,
    verify_moment_identity,
)
from qweylab.qweyl import AlgebraSpec, monomials, verify_power_identities
from qweylab.reduction import (
    compatible_eta_grid,
    reduced_endomorphism_algebra,
    restriction_kernel_check,
    weight_space,
)
from qweylab.rootofunity import (
    build_irrep,
    build_irrep_rank1,
    centralizer_basis,
    verify_delta_power,
    verify_lcenter_freeness,
)
from qweylab.scalars import make_field

QQ_Q = make_field("rational_function_q")


@contextmanager
def criterion(number: int, title: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    stamp = f" ({elapsed:.1f}s)" if elapsed >= 0.05 else ""
    print(f"[PASS] criterion {number}: {title}{stamp}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, limit {limit}s"


def seeded_rank1(field, lam_num, mu_num):
    l = field.l
    lam = field.from_fraction(Fraction(lam_num))
    mu = field.from_fraction(Fraction(mu_num))
    b = [mu / (lam * field.zeta_power(m)) for m in range(l)]
    return build_irrep_rank1(lam, b, l)


def test_criterion_1_presentation_agreement():
    with criterion(1, "smash product matches the closed presentation", 60.0):
        rng = random.Random(101)
        for n in (1, 2, 3):
            spec = AlgebraSpec.single_parameter(n, QQ_Q, rescaled=False)
            out = verify_double_presentation(spec, 3)
            assert out.passed, out.failures[:3]
        for _ in range(5):
            n = rng.randint(1, 3)
            spec = AlgebraSpec(n, random_skew_matrix(rng, n), False, QQ_Q)
            out = verify_double_presentation(spec, 3)
            assert out.passed, out.failures[:3]


def test_criterion_2_power_identities():
    with criterion(2, "power and Euler-operator identities", 10.0):
        for n in (1, 2, 3):
            spec = AlgebraSpec.single_parameter(n, QQ_Q)
            out = verify_power_identities(spec, 6)
            assert out.passed, out.failures[:3]


def test_criterion_3_classical_degeneration():
    with criterion(3, "trivial braiding degenerates to the Weyl algebra"):
        n = 3
        zero_m = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        spec = AlgebraSpec(n, zero_m, False, QQ_Q)
        for i in range(1, n + 1):
            di, xi = DoubleElement.d(spec, i), DoubleElement.x(spec, i)
            assert di * xi == xi * di + DoubleElement.one(spec)


def test_criterion_4_delta_power():
    with criterion(4, "l-th power of the Euler product in closed form", 30.0):
        for n, l in ((1, 3), (1, 5), (1, 7), (2, 3), (2, 5)):
            spec = AlgebraSpec.single_parameter(n, make_field("cyclotomic", l))
            out = verify_delta_power(spec)
            assert out.passed, (n, l, out.failures)


def test_criterion_5_center_truncation():
    with criterion(5, "bounded centralizer equals the l-th power span"):
        z3 = make_field("cyclotomic", 3)
        spec1 = AlgebraSpec.single_parameter(1, z3)
        basis = centralizer_basis(spec1, 4)
        got = sorted(tuple(sorted(e.terms)) for e in basis)
        expected = sorted(
            ((key,) for key in monomials(1, 4, step=3)),
        )
        assert got == [tuple(k) for k in expected]
        spec2 = AlgebraSpec.single_parameter(2, z3)
        basis2 = centralizer_basis(spec2, 3)
        got2 = sorted(tuple(sorted(e.terms)) for e in basis2)
        predicted = monomials(2, 3, step=3)
        assert len(predicted) == 16
        assert got2 == sorted(((key,) for key in predicted))


def test_criterion_6_azumaya_dichotomy():
    with criterion(6, "commutant dichotomy across the matrix-algebra locus"):
        # the seeded rank-1 loop of the rep-irreducibility check, 10 cases
        # per order
        rng = random.Random(606)
        for l in (3, 5):
            rank1_dichotomy_cases(make_field("cyclotomic", l), rng, 10)


def test_criterion_7_rank_freeness():
    with criterion(7, "residue monomials free over the l-th power subalgebra"):
        z3 = make_field("cyclotomic", 3)
        for n in (1, 2):
            spec = AlgebraSpec.single_parameter(n, z3)
            out = verify_lcenter_freeness(spec)
            assert out.passed, out.failures[:3]


def test_criterion_8_fiber_reduction():
    with criterion(8, "fiberwise reduction: weights, kernel identity, reduced algebra", 60.0):
        z3 = make_field("cyclotomic", 3)
        cases = [
            (1, TorusData.from_rows([[1]]), [seeded_rank1(z3, 1, 2), seeded_rank1(z3, 2, 3)]),
            (
                2,
                TorusData.from_rows([[1], [1]]),
                [
                    build_irrep([seeded_rank1(z3, 1, 2), seeded_rank1(z3, 1, 3)], 3),
                    build_irrep([seeded_rank1(z3, 2, 5), seeded_rank1(z3, 1, 2)], 3),
                ],
            ),
        ]
        l = 3
        for n, torus, reps in cases:
            expected_dim = l ** (n - torus.d)
            for rep in reps:
                grid = compatible_eta_grid(rep, torus)
                assert len(grid) == l**torus.d
                total = 0
                for eta in grid:
                    ws = weight_space(rep, torus, eta)
                    assert ws.dimension == expected_dim
                    total += ws.dimension
                    report = restriction_kernel_check(rep, torus, eta)
                    assert report.passed
                    assert report.dim_ideal == l**n * (l**n - expected_dim)
                    out = reduced_endomorphism_algebra(rep, torus, eta)
                    assert out.iso_verified
                    assert out.dimension == l ** (2 * (n - torus.d))
                assert total == l**n


def test_criterion_9_cover_degree():
    with criterion(9, "cover point counts match the expected degree"):
        # the seeded loop of the cover-degree check, 10 instances per layout
        rng = random.Random(909)
        z3 = make_field("cyclotomic", 3)
        layouts = [
            TorusData.from_rows([[1], [1]]),
            TorusData.from_rows([[1], [1], [1]]),
            TorusData.from_rows([[1, 0], [0, 1], [1, 1]]),
        ]
        for torus in layouts:
            cover_degree_cases(z3, torus, rng, 10, DEFAULT_BOUNDS["enumeration_cap"])
        # the loop reads eta through torus.character; check that against the
        # product prod_i t_i^(a_ij) written out here
        ref_rng = random.Random(919)
        for torus in layouts:
            for _ in range(10):
                t = [
                    z3.from_int(ref_rng.randint(1, 9)) * z3.zeta_power(ref_rng.randrange(3))
                    for _ in range(torus.n)
                ]
                eta = []
                for j in range(torus.d):
                    acc = z3.one
                    for i in range(torus.n):
                        acc = acc * t[i] ** torus.a[i][j]
                    eta.append(acc)
                assert list(torus.character(t)) == eta


def test_criterion_10_moment_identity():
    with criterion(10, "comoment conjugation equals the grading character"):
        rng = random.Random(1010)
        done = 0
        while done < 5:
            n = rng.randint(1, 3)
            d = rng.randint(1, n)
            rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
            try:
                torus = TorusData.from_rows(rows)
            except Exception:
                continue
            spec = AlgebraSpec(n, random_skew_matrix(rng, n), True, QQ_Q)
            out = verify_moment_identity(torus, spec)
            assert out.passed, out.failures[:3]
            done += 1


def test_criterion_11_reduction_sanity():
    with criterion(11, "moment-ideal reduction: worked values and algebra laws"):
        spec = AlgebraSpec.single_parameter(1, QQ_Q)
        torus = TorusData.from_rows([[1]])
        q = QQ_Q.q
        for eta in (q**3, QQ_Q.from_int(5)):
            datum = ReductionDatum(torus, (eta,))
            red = moment_ideal_reduce(spec.x(1) * spec.d(1), datum)
            assert red.terms == {((0,), (0,), (0,)): eta - 1}
            red2 = moment_ideal_reduce(spec.x(1, 2) * spec.d(1, 2), datum)
            assert red2.terms == {((0,), (0,), (0,)): q**-1 * (eta - 1) * (eta - q)}
        # the seeded laws of the moment-reduction check at this criterion's
        # scale: 100 fractions, then 100 invariant triples
        rng = random.Random(1111)
        spec2 = AlgebraSpec.single_parameter(2, QQ_Q)
        datum2 = ReductionDatum(TorusData.from_rows([[1], [1]]), (QQ_Q.from_int(3),))
        moment_reduction_cases(spec2, datum2, rng, 100)


def test_criterion_12_engine_soundness():
    with criterion(12, "rewriting engine: associativity, confluence, grading"):
        rng = random.Random(1212)
        for k in range(200):
            n = rng.randint(1, 3)
            spec = AlgebraSpec(n, random_skew_matrix(rng, n), rng.random() < 0.5, QQ_Q)
            u = random_element(rng, spec, 4, 3)
            v = random_element(rng, spec, 4, 3)
            w = random_element(rng, spec, 4, 3)
            assert (u * v) * w == u * (v * w), f"triple {k}"
            du, dv = u.grading_degree(), v.grading_degree()
            if du is not None and dv is not None and not (u * v).is_zero():
                assert (u * v).grading_degree() == tuple(
                    p + r for p, r in zip(du, dv)
                )
            gens = []
            for _ in range(rng.randint(2, 5)):
                i = rng.randint(1, n)
                gens.append(spec.x(i) if rng.random() < 0.5 else spec.d(i))

            def eval_split(lo, hi):
                if hi - lo == 1:
                    return gens[lo]
                cut = rng.randint(lo + 1, hi - 1)
                return eval_split(lo, cut) * eval_split(cut, hi)

            ref = gens[0]
            for g in gens[1:]:
                ref = ref * g
            assert eval_split(0, len(gens)) == ref, f"word {k}"
