"""The machine-verification suite: a fixed registry of exact checks, each
tied to one algebraic law, run against a workbench config into a
deterministic JSON-ready report."""

from __future__ import annotations

import random
import time
from operator import add

from . import __version__
from .config import WorkbenchConfig
from .errors import QWeylError
from .hopf import DoubleElement, verify_double_presentation, verify_hopf_axioms
from .moment import (
    TorusData,
    invariant_monomials,
    moment_ideal_reduce,
    reduced_product,
    verify_moment_identity,
)
from .qweyl import (
    AlgebraSpec,
    CheckOutcome,
    LocalizedElement,
    PBWElement,
    verify_alpha_commutativity,
    verify_power_identities,
)
from .reduction import (
    compatible_eta_grid,
    cover_fiber_points,
    reduced_endomorphism_algebra,
    restriction_kernel_check,
    weight_space,
)
from .rootofunity import (
    azumaya_membership,
    build_irrep_rank1,
    commutant_dimension,
    reducible_by_euler_kernel,
    verify_alpha_spectrum,
    verify_centralizer_is_lcenter,
    verify_delta_power,
    verify_lcenter_freeness,
)
from .scalars import CyclotomicField


class Skip(Exception):
    """Marks a check not applicable to this config."""


def _rng_for(config: WorkbenchConfig, check_id: str) -> random.Random:
    return random.Random(f"{config.seed}:{check_id}")


def _random_element(rng, spec, max_degree=3, max_terms=3):
    """A seeded PBW element: up to max_terms monomials of degree up to
    max_degree, each with an integer coefficient in [-3, 3]."""
    # integer coefficients summed per key; a key whose sum is zero is dropped
    # and, drawn again, goes to the end, as in a sum of monomial elements
    coeffs: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        a = [0] * spec.n
        b = [0] * spec.n
        for _ in range(rng.randint(0, max_degree)):
            if rng.random() < 0.5:
                a[rng.randrange(spec.n)] += 1
            else:
                b[rng.randrange(spec.n)] += 1
        key = (tuple(a), tuple(b))
        c = coeffs.get(key, 0) + rng.randint(-3, 3)
        if c:
            coeffs[key] = c
        else:
            coeffs.pop(key, None)
    return PBWElement(spec, {k: spec.field.from_int(c) for k, c in coeffs.items()})


def _outcome_detail(out: CheckOutcome) -> str:
    if out.passed:
        return f"{out.cases} cases"
    shown = "; ".join(out.failures[:5])
    more = "" if len(out.failures) <= 5 else f" (+{len(out.failures) - 5} more)"
    return f"{len(out.failures)} failures of {out.cases}: {shown}{more}"


# The requirements a check may name, in the order they are tested: each maps
# to its test of the config and the reason a check that needs it is skipped.
NEEDS = {
    "cyclotomic": (lambda c: isinstance(c.field, CyclotomicField), "needs a cyclotomic field"),
    "rescaled": (lambda c: c.spec.rescaled, "needs the rescaled normalization"),
    "preset": (lambda c: c.spec.is_single_parameter, "needs the single-parameter preset"),
    "reps": (lambda c: c.rep_slots, "no representations configured"),
    "subtorus": (lambda c: c.torus.d != 0, "no subtorus configured"),
}


def check_engine_soundness(config: WorkbenchConfig) -> str:
    spec = config.spec
    rng = _rng_for(config, "engine-soundness")
    cases = config.bounds["random_cases"]
    for k in range(cases):
        u = _random_element(rng, spec, 4, 3)
        v = _random_element(rng, spec, 4, 3)
        w = _random_element(rng, spec, 4, 3)
        uv = u * v
        if uv * w != u * (v * w):
            raise AssertionError(f"associativity failed on seeded triple {k}")
        du, dv = u.grading_degree(), v.grading_degree()
        if du is not None and dv is not None:
            dp = uv.grading_degree()
            if not uv.is_zero() and dp != tuple(p + r for p, r in zip(du, dv)):
                raise AssertionError(f"grading not multiplicative on triple {k}")
    # confluence: random words, random reassociation
    for k in range(cases // 2):
        gens = []
        for _ in range(rng.randint(2, 6)):
            i = rng.randint(1, spec.n)
            gens.append(spec.x(i) if rng.random() < 0.5 else spec.d(i))

        def eval_split(lo, hi):
            if hi - lo == 1:
                return gens[lo]
            cut = rng.randint(lo + 1, hi - 1)
            return eval_split(lo, cut) * eval_split(cut, hi)

        ref = gens[0]
        for g in gens[1:]:
            ref = ref * g
        if eval_split(0, len(gens)) != ref:
            raise AssertionError(f"confluence failed on seeded word {k}")
    return f"{cases} triples, {cases // 2} reassociations"


def check_classical_limit(config: WorkbenchConfig) -> str:
    n = config.spec.n
    zero_m = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    spec0 = AlgebraSpec(n, zero_m, False, config.field)
    for i in range(1, n + 1):
        di, xi = DoubleElement.d(spec0, i), DoubleElement.x(spec0, i)
        if di * xi != xi * di + DoubleElement.one(spec0):
            raise AssertionError(f"classical relation failed at coordinate {i}")
    return f"{n} coordinates"


def moment_reduction_cases(spec: AlgebraSpec, datum, rng: random.Random, cases: int):
    """The seeded laws of the moment reduction under one datum.

    On `cases` seeded fractions: idempotence, linearity, left-ideal absorption
    and elimination-order confluence.  Then, on `cases` seeded triples of
    invariant combinations, associativity of the reduced product.  Raises
    AssertionError naming the first law that fails and its case."""
    for k in range(cases):
        num = _random_element(rng, spec, 3, 3)
        den = tuple(rng.randint(0, 1) for _ in range(spec.n))
        u = LocalizedElement(num, den)
        ru = moment_ideal_reduce(u, datum)
        if moment_ideal_reduce(ru, datum) != ru:
            raise AssertionError(f"idempotence failed on seeded element {k}")
        v = LocalizedElement(_random_element(rng, spec, 3, 3), (0,) * spec.n)
        c = spec.field.from_int(rng.randint(-3, 3))
        if moment_ideal_reduce(u + v * c, datum) != ru + moment_ideal_reduce(
            v, datum
        ).scale(c):
            raise AssertionError(f"linearity failed on seeded element {k}")
        j = rng.randrange(datum.torus.d)
        # u phi_j as a PBW fraction: N alpha^-D alpha^P alpha^-N' = (N alpha^P) alpha^-(D + N')
        pos, neg = datum.torus.column_parts(j)
        u_phi = LocalizedElement(num * spec.alpha_power(pos), tuple(map(add, den, neg)))
        if not moment_ideal_reduce(u_phi - u * datum.eta[j], datum).is_zero():
            raise AssertionError(f"left-ideal absorption failed on element {k}")
        # ru is the reduction in the default order, range(n)
        bwd = moment_ideal_reduce(u, datum, coord_order=reversed(range(spec.n)))
        if ru != bwd:
            raise AssertionError(f"elimination-order confluence failed on {k}")
    # associativity of the reduced product on invariant combinations
    monos = invariant_monomials(datum.torus, spec, 3)
    if monos:
        for k in range(cases):
            def rand_inv():
                u = spec.zero()
                for _ in range(2):
                    a, b = monos[rng.randrange(len(monos))]
                    u = u + spec.monomial(a, b, rng.randint(-2, 2))
                return moment_ideal_reduce(u, datum)

            u, v, w = rand_inv(), rand_inv(), rand_inv()
            lhs = reduced_product(reduced_product(u, v, datum), w, datum)
            rhs = reduced_product(u, reduced_product(v, w, datum), datum)
            if lhs != rhs:
                raise AssertionError(f"reduced product associativity failed on {k}")


def check_moment_reduction(config: WorkbenchConfig) -> str:
    cases = max(10, config.bounds["random_cases"] // 5)
    rng = _rng_for(config, "moment-reduction")
    moment_reduction_cases(config.spec, config.datum(), rng, cases)
    return f"{cases} seeded elements"


def check_rep_build(config: WorkbenchConfig) -> str:
    reps = config.build_reps()  # certified on their slots by the builders
    details = []
    for rep in reps:
        member = azumaya_membership(rep.character)
        details.append(f"dim {rep.dim}, azumaya={'yes' if member else 'no'}")
    return "; ".join(details)


def check_rep_irreducibility(config: WorkbenchConfig) -> str:
    """A rep on the locus has a trivial commutant.  A rep off it is
    reducible: an invariant Euler kernel certifies it, and otherwise its
    commutant must be larger than the scalars."""
    for rep in config.build_reps():
        if azumaya_membership(rep.character):
            cdim = commutant_dimension(rep)
            if cdim != 1:
                raise AssertionError(f"commutant dimension {cdim} on the locus")
        elif not reducible_by_euler_kernel(rep) and commutant_dimension(rep) <= 1:
            raise AssertionError(
                "zero-character rep with no invariant Euler kernel and trivial commutant"
            )
    rank1_dichotomy_cases(config.field, _rng_for(config, "rep-irreducibility"), 10)
    return "configured reps plus 10 seeded rank-1 dichotomies"


def rank1_dichotomy_cases(f: CyclotomicField, rng: random.Random, cases: int):
    """The seeded commutant dichotomy on rank-1 builders.

    Each case draws lambda and mu in 1..9: the rep with b_m = mu / (lambda
    zeta^m) lies on the matrix-algebra locus, has commutant dimension 1 and
    the alpha spectrum of its character; the same lambda with every b_m zero
    lies off the locus and has a larger commutant.  Raises AssertionError
    naming the first case that fails."""
    l = f.l
    for k in range(cases):
        lam = f.from_int(rng.randint(1, 9))
        mu = f.from_int(rng.randint(1, 9))
        b = [mu / (lam * f.zeta_power(m)) for m in range(l)]
        rep = build_irrep_rank1(lam, b, l)
        if commutant_dimension(rep) != 1 or not azumaya_membership(rep.character):
            raise AssertionError(f"seeded locus rep {k} not irreducible")
        broken = build_irrep_rank1(lam, [f.zero] * l, l)
        if azumaya_membership(broken.character):
            raise AssertionError(f"seeded off-locus rep {k} lies on the locus")
        if commutant_dimension(broken) <= 1:
            raise AssertionError(f"seeded off-locus rep {k} has trivial commutant")
        spectrum = verify_alpha_spectrum(rep)
        if not spectrum.passed:
            raise AssertionError(_outcome_detail(spectrum))


def _fiber_degree(l: int, torus: TorusData) -> int:
    """l^(n-d), the count the fiber laws expect: the dimension of a nonempty
    weight space and the points of a compatible root-cover fiber."""
    return l ** (torus.n - torus.d)


def check_fiber_weights(config: WorkbenchConfig) -> str:
    """The weight law of each configured rep.  A rep on the locus whose
    character values have no rational l-th root has no eta grid to sum over,
    so only its moment operators are built, from its slots; the check skips
    when every configured rep is such a rep."""
    expected = _fiber_degree(config.field.l, config.torus)
    details, gridless = [], 0
    for rep in config.build_reps():
        grid = compatible_eta_grid(rep, config.torus)
        on_locus = azumaya_membership(rep.character)
        total = 0
        for eta in grid:
            ws = weight_space(rep, config.torus, eta)
            if ws.dimension not in (0, expected):
                raise AssertionError(
                    f"weight space dimension {ws.dimension}, expected 0 or {expected}"
                )
            total += ws.dimension
        if on_locus and grid and total != rep.dim:
            raise AssertionError(
                f"weight decomposition covers {total} of {rep.dim} dimensions"
            )
        if on_locus and not grid:
            gridless += 1
            details.append("no rational-root eta grid")
        else:
            details.append(f"{len(grid)} eta values, total {total}")
    if gridless == len(details):
        raise Skip("character values have no rational-root eta grid")
    return "; ".join(details)


def _locus_fibers(config: WorkbenchConfig):
    """The (rep, eta) pairs, in order, of each configured rep on the
    matrix-algebra locus and each compatible eta whose weight space is
    nonempty; raises Skip after the last rep when there were none."""
    found = False
    for rep in config.build_reps():
        if not azumaya_membership(rep.character):
            continue
        for eta in compatible_eta_grid(rep, config.torus):
            if weight_space(rep, config.torus, eta).dimension:
                found = True
                yield rep, eta
    if not found:
        raise Skip("no nonempty weight spaces reachable")


def check_fiber_restriction(config: WorkbenchConfig) -> str:
    count = 0
    for rep, eta in _locus_fibers(config):
        report = restriction_kernel_check(rep, config.torus, eta)
        if not report.passed:
            raise AssertionError(
                f"ideal dimension {report.dim_ideal} != {report.dim_expected}"
            )
        count += 1
    return f"{count} (rep, eta) pairs"


def check_fiber_reduced_endos(config: WorkbenchConfig) -> str:
    expected = _fiber_degree(config.field.l, config.torus) ** 2
    count = 0
    for rep, eta in _locus_fibers(config):
        out = reduced_endomorphism_algebra(rep, config.torus, eta)
        if not out.iso_verified or out.dimension != expected:
            raise AssertionError(
                f"reduced algebra dim {out.dimension}, iso={out.iso_verified}"
            )
        count += 1
    return f"{count} (rep, eta) pairs, dim {expected} each"


def check_cover_degree(config: WorkbenchConfig) -> str:
    torus = config.torus
    l = config.field.l
    cap = config.bounds["enumeration_cap"]
    if l**torus.n > cap:
        raise Skip("enumeration cap exceeded")
    cover_degree_cases(config.field, torus, _rng_for(config, "cover-degree"), 10, cap)
    return f"10 seeded instances, {_fiber_degree(l, torus)} points each"


def cover_degree_cases(
    f: CyclotomicField, torus: TorusData, rng: random.Random, cases: int, enumeration_cap: int
):
    """The seeded point counts of the root cover over one torus.

    Each case draws base values r_i in 1..9 and a twist of each by a power of
    zeta: over the l-th powers r_i^l, the fiber at the character of the
    twisted point has l^(n-d) points, and the fiber at that character with its
    first entry times 7 has none.  Raises AssertionError naming the first case
    that fails."""
    l = f.l
    expected = _fiber_degree(l, torus)
    for k in range(cases):
        base = [f.from_int(rng.randint(1, 9)) for _ in range(torus.n)]
        values = [r**l for r in base]
        twisted = [r * f.zeta_power(rng.randrange(l)) for r in base]
        eta = list(torus.character(twisted))
        sols = cover_fiber_points(values, torus, eta, enumeration_cap)
        if len(sols) != expected:
            raise AssertionError(f"instance {k}: {len(sols)} points, expected {expected}")
        bad_eta = [eta[0] * f.from_int(7)] + eta[1:]
        if cover_fiber_points(values, torus, bad_eta, enumeration_cap):
            raise AssertionError(f"instance {k}: incompatible eta admits points")


# (id, law, needs, run): run(config) is called once every requirement named
# in needs holds, and returns the pass detail or a CheckOutcome.
CHECKS = [
    ("engine-soundness", "pbw-product-associativity-confluence-grading", (),
     check_engine_soundness),
    ("euler-commutativity", "euler-operators-commute", ("rescaled",),
     lambda c: verify_alpha_commutativity(c.spec)),
    ("power-identities", "euler-power-identities", ("rescaled",),
     lambda c: verify_power_identities(c.spec, 6)),
    ("hopf-axioms", "braided-hopf-structure-axioms", (),
     lambda c: verify_hopf_axioms(c.spec.unscaled_twin(), min(c.bounds["degree_bound"] + 1, 4))),
    ("double-presentation", "smash-product-matches-presentation", (),
     lambda c: verify_double_presentation(c.spec, c.bounds["degree_bound"])),
    ("classical-limit", "trivial-braiding-gives-weyl-algebra", (), check_classical_limit),
    ("moment-identity", "comoment-conjugation-grading", ("rescaled",),
     lambda c: verify_moment_identity(c.torus, c.spec)),
    ("moment-reduction", "moment-ideal-canonical-form", ("rescaled", "subtorus"),
     check_moment_reduction),
    ("delta-power", "euler-product-lth-power-closed-form",
     ("cyclotomic", "rescaled", "preset"), lambda c: verify_delta_power(c.spec)),
    ("center-truncation", "bounded-centralizer-is-lth-power-span",
     ("cyclotomic", "rescaled", "preset"),
     lambda c: verify_centralizer_is_lcenter(c.spec, c.bounds["exponent_bound"])),
    ("lcenter-freeness", "residue-monomials-free-over-lth-powers",
     ("cyclotomic", "rescaled", "preset"), lambda c: verify_lcenter_freeness(c.spec)),
    ("rep-build", "representation-relations-hold",
     ("cyclotomic", "rescaled", "preset", "reps"), check_rep_build),
    ("rep-irreducibility", "commutant-detects-matrix-algebra-locus",
     ("cyclotomic", "rescaled", "preset", "reps"), check_rep_irreducibility),
    ("fiber-weights", "weight-space-dimension-law",
     ("cyclotomic", "rescaled", "preset", "reps", "subtorus"), check_fiber_weights),
    ("fiber-restriction", "restriction-kernel-equals-moment-ideal",
     ("cyclotomic", "rescaled", "preset", "reps", "subtorus"), check_fiber_restriction),
    ("fiber-reduced-endos", "reduced-algebra-is-weight-endomorphisms",
     ("cyclotomic", "rescaled", "preset", "reps", "subtorus"), check_fiber_reduced_endos),
    ("cover-degree", "root-cover-point-count", ("cyclotomic", "subtorus"), check_cover_degree),
]


def run_verification_suite(config: WorkbenchConfig, only=None, verbose=False) -> dict:
    """Run the registry in order; returns the JSON-ready report dict.

    A check is skipped with the reason of its first unmet requirement, in
    NEEDS order, or by its own Skip.  Otherwise it passes, fails (an
    AssertionError, a QWeylError or a failed CheckOutcome), or ends in an
    error (any other exception), which the summary counts as a failure."""
    known = {cid for cid, _, _, _ in CHECKS}
    if only:
        unknown = [c for c in only if c not in known]
        if unknown:
            raise QWeylError(f"unknown check ids: {', '.join(unknown)}")
    records = []
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for check_id, law, needs, run in CHECKS:
        if only and check_id not in only:
            continue
        start = time.perf_counter()
        try:
            for name, (holds, reason) in NEEDS.items():
                if name in needs and not holds(config):
                    raise Skip(reason)
            detail = run(config)
            if isinstance(detail, CheckOutcome):
                if not detail.passed:
                    raise AssertionError(_outcome_detail(detail))
                detail = _outcome_detail(detail)
            status = "pass"
        except Skip as skip:
            status, detail = "skipped", str(skip)
        except AssertionError as exc:
            status, detail = "fail", str(exc)
        except QWeylError as exc:
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            # a defect of the program, not a verdict on the law: recorded as
            # an error, counted as a failure, and the run goes on
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        counts["fail" if status == "error" else status] += 1
        records.append(
            {
                "check_id": check_id,
                "law": law,
                "status": status,
                "detail": detail if (verbose or status != "pass") else "",
                "elapsed": round(elapsed, 4),
            }
        )
    return {
        "tool": {"name": "qweylab", "version": __version__},
        "config": config.raw,
        "checks": records,
        "summary": {
            "pass": counts["pass"],
            "fail": counts["fail"],
            "skipped": counts["skipped"],
            "total": len(records),
            "ok": counts["fail"] == 0,
        },
    }
