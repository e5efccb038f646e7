"""Property tests over generated values, run when hypothesis is installed.

hypothesis is not a dependency of qweylab: without it this module is skipped.
Every test runs under one derandomized profile, so a run is deterministic and
writes no example database.
"""

import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import ore_round_trip_product  # noqa: E402
from qweylab.config import load_config, parse_config  # noqa: E402
from qweylab.expr import parse_scalar  # noqa: E402
from qweylab.moment import invariant_monomials, moment_ideal_reduce, reduced_product  # noqa: E402
from qweylab.qweyl import LocalizedElement  # noqa: E402
from qweylab.scalars import make_field  # noqa: E402

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60)

QQ_Q = make_field("rational_function_q")
CYCLOTOMIC = {l: make_field("cyclotomic", l) for l in (3, 5, 7)}

ROOT = Path(__file__).resolve().parent.parent

small = st.integers(-4, 4)
nonzero = small.filter(bool)
polys = st.lists(small, max_size=4)

# Q(q) values: general quotients, and those whose denominator is one term c*q^k
q_values = st.one_of(
    st.builds(QQ_Q.from_polys, polys, polys.filter(any)),
    st.builds(
        lambda num, c, k: QQ_Q.from_polys(num, (0,) * k + (c,)),
        polys,
        nonzero,
        st.integers(0, 5),
    ),
)


def cyclotomic_values(field):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(
        field.from_coeffs
    )


@PROFILE
@given(q_values, q_values, q_values)
def test_q_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a and a + b == b + a
    if not a.is_zero():
        assert a * a.inv() == QQ_Q.one
        assert (b / a) * a == b


@PROFILE
@given(q_values)
def test_q_print_parse_round_trip(v):
    assert parse_scalar(str(v), QQ_Q) == v


@pytest.mark.parametrize("l", sorted(CYCLOTOMIC))
def test_cyclotomic_print_parse_round_trip(l):
    field = CYCLOTOMIC[l]

    @PROFILE
    @given(cyclotomic_values(field))
    def round_trip(v):
        assert parse_scalar(str(v), field) == v

    round_trip()


REDUCTION_CONFIGS = {
    "generic_q": lambda: load_config(str(ROOT / "configs" / "generic_q.json")),
    "verify_qq": lambda: parse_config(
        json.loads((ROOT / "perfbench" / "configs" / "verify_qq.json").read_text())
    ),
}


def invariant_elements(spec, datum):
    """Reductions of up to three invariant monomials, each over a denominator
    alpha^k with k in {0, 1}^n."""
    term = st.tuples(
        st.sampled_from(invariant_monomials(datum.torus, spec, 3)),
        st.sampled_from([-2, -1, 1, 2]),
        st.tuples(*[st.integers(0, 1)] * spec.n),
    )

    def reduce_terms(terms):
        u = LocalizedElement.from_pbw(spec.zero())
        for mono, c, denom in terms:
            u = u + LocalizedElement(spec.monomial(*mono, c), denom)
        return moment_ideal_reduce(u, datum)

    return st.lists(term, min_size=1, max_size=3).map(reduce_terms)


@pytest.mark.parametrize("name", sorted(REDUCTION_CONFIGS))
def test_reduced_product_matches_the_fraction_round_trip(name):
    config = REDUCTION_CONFIGS[name]()
    spec, datum = config.spec, config.datum()
    elements = invariant_elements(spec, datum)

    @settings(PROFILE, max_examples=25)
    @given(elements, elements)
    def matches(u, v):
        assert reduced_product(u, v, datum) == ore_round_trip_product(u, v, datum)

    matches()
