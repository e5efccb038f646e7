"""The machine-verification suite: a fixed registry of exact checks, each
tied to one algebraic law, run against a workbench config into a
deterministic JSON-ready report."""

from __future__ import annotations

import random
import time

from . import __version__
from .config import WorkbenchConfig
from .errors import QWeylError
from .hopf import DoubleElement, verify_double_presentation, verify_hopf_axioms
from .moment import (
    invariant_monomials,
    moment_ideal_reduce,
    quantum_comoment,
    reduced_product,
    verify_moment_identity,
)
from .qweyl import (
    AlgebraSpec,
    CheckOutcome,
    LocalizedElement,
    verify_alpha_commutativity,
    verify_power_identities,
)
from .reduction import (
    compatible_eta_grid,
    cover_fiber_points,
    reduced_endomorphism_algebra,
    restriction_kernel_check,
    verify_moment_operators_commute,
    weight_space,
)
from .rootofunity import (
    azumaya_membership,
    build_irrep_rank1,
    commutant_dimension,
    verify_alpha_spectrum,
    verify_centralizer_is_lcenter,
    verify_delta_power,
    verify_lcenter_freeness,
)
from .scalars import CyclotomicField


class Skip(Exception):
    """Raised by a check to mark itself not applicable to this config."""


def _rng_for(config: WorkbenchConfig, check_id: str) -> random.Random:
    return random.Random(f"{config.seed}:{check_id}")


def _random_element(rng, spec, max_degree=3, max_terms=3):
    out = spec.zero()
    for _ in range(rng.randint(1, max_terms)):
        a = [0] * spec.n
        b = [0] * spec.n
        for _ in range(rng.randint(0, max_degree)):
            if rng.random() < 0.5:
                a[rng.randrange(spec.n)] += 1
            else:
                b[rng.randrange(spec.n)] += 1
        out = out + spec.monomial(a, b, rng.randint(-3, 3))
    return out


def _outcome_detail(out: CheckOutcome) -> str:
    if out.passed:
        return f"{out.cases} cases"
    shown = "; ".join(out.failures[:5])
    more = "" if len(out.failures) <= 5 else f" (+{len(out.failures) - 5} more)"
    return f"{len(out.failures)} failures of {out.cases}: {shown}{more}"


def _need_cyclotomic(config):
    if not isinstance(config.field, CyclotomicField):
        raise Skip("needs a cyclotomic field")


def _need_rescaled(config):
    if not config.spec.rescaled:
        raise Skip("needs the rescaled normalization")


def _need_preset(config):
    if not config.spec.is_single_parameter:
        raise Skip("needs the single-parameter preset")


def _need_reps(config):
    _need_cyclotomic(config)
    _need_rescaled(config)
    _need_preset(config)
    if not config.rep_slots:
        raise Skip("no representations configured")


# ---------------------------------------------------------------------------
# Checks.  Each returns a detail string on success and raises AssertionError
# (with detail) on failure; CheckOutcome-based ones convert uniformly.
# ---------------------------------------------------------------------------


def _convert(out: CheckOutcome) -> str:
    if not out.passed:
        raise AssertionError(_outcome_detail(out))
    return _outcome_detail(out)


def check_engine_soundness(config: WorkbenchConfig) -> str:
    spec = config.spec
    rng = _rng_for(config, "engine-soundness")
    cases = config.bounds["random_cases"]
    for k in range(cases):
        u = _random_element(rng, spec, 4, 3)
        v = _random_element(rng, spec, 4, 3)
        w = _random_element(rng, spec, 4, 3)
        if (u * v) * w != u * (v * w):
            raise AssertionError(f"associativity failed on seeded triple {k}")
        du, dv = u.grading_degree(), v.grading_degree()
        if du is not None and dv is not None:
            prod = u * v
            dp = prod.grading_degree()
            if not prod.is_zero() and dp != tuple(p + r for p, r in zip(du, dv)):
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


def check_euler_commutativity(config: WorkbenchConfig) -> str:
    _need_rescaled(config)
    return _convert(verify_alpha_commutativity(config.spec))


def check_power_identities(config: WorkbenchConfig) -> str:
    _need_rescaled(config)
    return _convert(verify_power_identities(config.spec, 6))


def check_hopf_axioms(config: WorkbenchConfig) -> str:
    bound = min(config.bounds["degree_bound"] + 1, 4)
    return _convert(verify_hopf_axioms(config.spec.unscaled_twin(), bound))


def check_double_presentation(config: WorkbenchConfig) -> str:
    return _convert(
        verify_double_presentation(config.spec, config.bounds["degree_bound"])
    )


def check_classical_limit(config: WorkbenchConfig) -> str:
    n = config.spec.n
    zero_m = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    spec0 = AlgebraSpec(n, zero_m, False, config.field)
    for i in range(1, n + 1):
        di, xi = DoubleElement.d(spec0, i), DoubleElement.x(spec0, i)
        if di * xi != xi * di + DoubleElement.one(spec0):
            raise AssertionError(f"classical relation failed at coordinate {i}")
    return f"{n} coordinates"


def check_moment_identity(config: WorkbenchConfig) -> str:
    _need_rescaled(config)
    return _convert(verify_moment_identity(config.torus, config.spec))


def moment_reduction_cases(spec: AlgebraSpec, datum, rng: random.Random, cases: int):
    """The seeded laws of the moment reduction under one datum.

    On `cases` seeded fractions: idempotence, linearity, left-ideal absorption
    and elimination-order confluence.  Then, on `cases` seeded triples of
    invariant combinations, associativity of the reduced product.  Raises
    AssertionError naming the first law that fails and its case."""
    for k in range(cases):
        u = LocalizedElement(
            _random_element(rng, spec, 3, 3),
            tuple(rng.randint(0, 1) for _ in range(spec.n)),
        )
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
        gen = quantum_comoment(
            [1 if t == j else 0 for t in range(datum.torus.d)],
            datum.torus,
            spec,
            "u",
        ) - datum.eta[j]
        if not moment_ideal_reduce(u * gen, datum).is_zero():
            raise AssertionError(f"left-ideal absorption failed on element {k}")
        fwd = moment_ideal_reduce(u, datum, coord_order=range(spec.n))
        bwd = moment_ideal_reduce(u, datum, coord_order=reversed(range(spec.n)))
        if fwd != bwd:
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
    _need_rescaled(config)
    if config.torus.d == 0:
        raise Skip("no subtorus configured")
    cases = max(10, config.bounds["random_cases"] // 5)
    rng = _rng_for(config, "moment-reduction")
    moment_reduction_cases(config.spec, config.datum(), rng, cases)
    return f"{cases} seeded elements"


def check_delta_power(config: WorkbenchConfig) -> str:
    _need_cyclotomic(config)
    _need_rescaled(config)
    _need_preset(config)
    return _convert(verify_delta_power(config.spec))


def check_center_truncation(config: WorkbenchConfig) -> str:
    _need_cyclotomic(config)
    _need_rescaled(config)
    _need_preset(config)
    bound = config.bounds["exponent_bound"]
    return _convert(verify_centralizer_is_lcenter(config.spec, bound))


def check_lcenter_freeness(config: WorkbenchConfig) -> str:
    _need_cyclotomic(config)
    _need_rescaled(config)
    _need_preset(config)
    return _convert(verify_lcenter_freeness(config.spec))


def check_rep_build(config: WorkbenchConfig) -> str:
    _need_reps(config)
    reps = config.build_reps()  # builders verify all relations exactly
    details = []
    for rep in reps:
        member = azumaya_membership(rep.character)
        details.append(f"dim {rep.dim}, azumaya={'yes' if member else 'no'}")
    return "; ".join(details)


def check_rep_irreducibility(config: WorkbenchConfig) -> str:
    _need_reps(config)
    f = config.field
    l = f.l
    rng = _rng_for(config, "rep-irreducibility")
    for rep in config.build_reps():
        cdim = commutant_dimension(rep)
        if azumaya_membership(rep.character):
            if cdim != 1:
                raise AssertionError(f"commutant dimension {cdim} on the locus")
        elif cdim <= 1:
            raise AssertionError("zero-character rep with trivial commutant")
    # seeded dichotomy on rank-1 builders
    for k in range(10):
        lam = f.from_int(rng.randint(1, 9))
        mu = f.from_int(rng.randint(1, 9))
        b = [mu / (lam * f.zeta_power(m)) for m in range(l)]
        rep = build_irrep_rank1(lam, b, l)
        if commutant_dimension(rep) != 1 or not azumaya_membership(rep.character):
            raise AssertionError(f"seeded locus rep {k} not irreducible")
        broken = build_irrep_rank1(lam, [f.zero] * l, l)
        if commutant_dimension(broken) <= 1:
            raise AssertionError(f"seeded off-locus rep {k} has trivial commutant")
        spectrum = verify_alpha_spectrum(rep)
        if not spectrum.passed:
            raise AssertionError(_outcome_detail(spectrum))
    return "configured reps plus 10 seeded rank-1 dichotomies"


def check_fiber_weights(config: WorkbenchConfig) -> str:
    _need_reps(config)
    if config.torus.d == 0:
        raise Skip("no subtorus configured")
    l = config.field.l
    details = []
    for rep in config.build_reps():
        grid = compatible_eta_grid(rep, config.torus)
        if not grid:
            raise Skip("character values have no rational-root eta grid")
        expected = l ** (config.torus.n - config.torus.d)
        total = 0
        for eta in grid:
            ws = weight_space(rep, config.torus, eta)
            if ws.dimension not in (0, expected):
                raise AssertionError(
                    f"weight space dimension {ws.dimension}, expected 0 or {expected}"
                )
            total += ws.dimension
        if azumaya_membership(rep.character) and total != rep.dim:
            raise AssertionError(
                f"weight decomposition covers {total} of {rep.dim} dimensions"
            )
        out = verify_moment_operators_commute(rep, config.torus)
        if not out.passed:
            raise AssertionError(_outcome_detail(out))
        details.append(f"{len(grid)} eta values, total {total}")
    return "; ".join(details)


def check_fiber_restriction(config: WorkbenchConfig) -> str:
    _need_reps(config)
    if config.torus.d == 0:
        raise Skip("no subtorus configured")
    count = 0
    for rep in config.build_reps():
        if not azumaya_membership(rep.character):
            continue
        for eta in compatible_eta_grid(rep, config.torus):
            report = restriction_kernel_check(rep, config.torus, eta)
            if report.weight_dim == 0:
                continue
            if not report.passed:
                raise AssertionError(
                    f"ideal dimension {report.dim_ideal} != {report.dim_expected}"
                )
            count += 1
    if count == 0:
        raise Skip("no nonempty weight spaces reachable")
    return f"{count} (rep, eta) pairs"


def check_fiber_reduced_endos(config: WorkbenchConfig) -> str:
    _need_reps(config)
    if config.torus.d == 0:
        raise Skip("no subtorus configured")
    l = config.field.l
    expected = l ** (2 * (config.torus.n - config.torus.d))
    count = 0
    for rep in config.build_reps():
        if not azumaya_membership(rep.character):
            continue
        for eta in compatible_eta_grid(rep, config.torus):
            ws = weight_space(rep, config.torus, eta)
            if ws.dimension == 0:
                continue
            out = reduced_endomorphism_algebra(rep, config.torus, eta)
            if not out.iso_verified or out.dimension != expected:
                raise AssertionError(
                    f"reduced algebra dim {out.dimension}, iso={out.iso_verified}"
                )
            count += 1
    if count == 0:
        raise Skip("no nonempty weight spaces reachable")
    return f"{count} (rep, eta) pairs, dim {expected} each"


def check_cover_degree(config: WorkbenchConfig) -> str:
    _need_cyclotomic(config)
    if config.torus.d == 0:
        raise Skip("no subtorus configured")
    f = config.field
    l = f.l
    torus = config.torus
    if l**torus.n > config.bounds["enumeration_cap"]:
        raise Skip("enumeration cap exceeded")
    rng = _rng_for(config, "cover-degree")
    expected = l ** (torus.n - torus.d)
    for k in range(10):
        base = [f.from_int(rng.randint(1, 9)) for _ in range(torus.n)]
        values = [r**l for r in base]
        twisted = [r * f.zeta_power(rng.randrange(l)) for r in base]
        eta = list(torus.character(twisted))
        sols = cover_fiber_points(
            values, torus, eta, l, enumeration_cap=config.bounds["enumeration_cap"]
        )
        if len(sols) != expected:
            raise AssertionError(f"instance {k}: {len(sols)} points, expected {expected}")
        bad_eta = [eta[0] * f.from_int(7)] + eta[1:]
        sols_bad = cover_fiber_points(
            values, torus, bad_eta, l, enumeration_cap=config.bounds["enumeration_cap"]
        )
        if sols_bad:
            raise AssertionError(f"instance {k}: incompatible eta admits points")
    return f"10 seeded instances, {expected} points each"


CHECKS = [
    ("engine-soundness", "pbw-product-associativity-confluence-grading", check_engine_soundness),
    ("euler-commutativity", "euler-operators-commute", check_euler_commutativity),
    ("power-identities", "euler-power-identities", check_power_identities),
    ("hopf-axioms", "braided-hopf-structure-axioms", check_hopf_axioms),
    ("double-presentation", "smash-product-matches-presentation", check_double_presentation),
    ("classical-limit", "trivial-braiding-gives-weyl-algebra", check_classical_limit),
    ("moment-identity", "comoment-conjugation-grading", check_moment_identity),
    ("moment-reduction", "moment-ideal-canonical-form", check_moment_reduction),
    ("delta-power", "euler-product-lth-power-closed-form", check_delta_power),
    ("center-truncation", "bounded-centralizer-is-lth-power-span", check_center_truncation),
    ("lcenter-freeness", "residue-monomials-free-over-lth-powers", check_lcenter_freeness),
    ("rep-build", "representation-relations-hold", check_rep_build),
    ("rep-irreducibility", "commutant-detects-matrix-algebra-locus", check_rep_irreducibility),
    ("fiber-weights", "weight-space-dimension-law", check_fiber_weights),
    ("fiber-restriction", "restriction-kernel-equals-moment-ideal", check_fiber_restriction),
    ("fiber-reduced-endos", "reduced-algebra-is-weight-endomorphisms", check_fiber_reduced_endos),
    ("cover-degree", "root-cover-point-count", check_cover_degree),
]


def run_verification_suite(config: WorkbenchConfig, only=None, verbose=False) -> dict:
    """Run the registry in order; returns the JSON-ready report dict.

    A check passes, fails (an AssertionError or a QWeylError), is skipped, or
    ends in an error (any other exception), which the summary counts as a
    failure."""
    known = {cid for cid, _, _ in CHECKS}
    if only:
        unknown = [c for c in only if c not in known]
        if unknown:
            raise QWeylError(f"unknown check ids: {', '.join(unknown)}")
    records = []
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for check_id, law, fn in CHECKS:
        if only and check_id not in only:
            continue
        start = time.perf_counter()
        try:
            detail = fn(config)
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
    report = {
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
    return report
