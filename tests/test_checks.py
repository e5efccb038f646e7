"""Internals of the verification suite that its reports do not show."""

import random
from pathlib import Path

import pytest

from conftest import VERIFY_QQ
from qweylab.checks import _random_element
from qweylab.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SPEC_CONFIGS = {
    "generic_q": CONFIGS / "generic_q.json",
    "verify_qq": VERIFY_QQ,
    "n2_l3": CONFIGS / "n2_l3.json",
}


def folded_random_element(rng, spec, max_degree=3, max_terms=3, drawn=None):
    """The reference: the same draws, summed as monomial elements.  Each
    drawn (key, coefficient) is appended to ``drawn``, when given."""
    out = spec.zero()
    for _ in range(rng.randint(1, max_terms)):
        a = [0] * spec.n
        b = [0] * spec.n
        for _ in range(rng.randint(0, max_degree)):
            if rng.random() < 0.5:
                a[rng.randrange(spec.n)] += 1
            else:
                b[rng.randrange(spec.n)] += 1
        c = rng.randint(-3, 3)
        if drawn is not None:
            drawn.append(((tuple(a), tuple(b)), c))
        out = out + spec.monomial(a, b, c)
    return out


def cancellations(drawn):
    """(a key's sum fell to zero, such a key was drawn again after it)."""
    sums, cancelled, redrawn = {}, set(), False
    for key, c in drawn:
        redrawn = redrawn or (key in cancelled and c != 0)
        prev = sums.get(key, 0)
        sums[key] = prev + c
        if prev and not sums[key]:
            cancelled.add(key)
    return bool(cancelled), redrawn


@pytest.mark.parametrize("name", sorted(SPEC_CONFIGS))
def test_random_element_equals_the_monomial_fold(name):
    spec = load_config(str(SPEC_CONFIGS[name])).spec
    got_rng, want_rng = random.Random(f"random element:{name}"), random.Random(f"random element:{name}")
    zero = cancelled = redrawn = 0
    for max_degree, max_terms in [(3, 3), (4, 3), (1, 6)] * 200:
        drawn = []
        got = _random_element(got_rng, spec, max_degree, max_terms)
        want = folded_random_element(want_rng, spec, max_degree, max_terms, drawn)
        assert got == want
        assert list(got.terms) == list(want.terms)
        assert got_rng.getstate() == want_rng.getstate()
        zero += got.is_zero()
        shape = cancellations(drawn)
        cancelled += shape[0]
        redrawn += shape[1]
    # the draws reach zero elements, cancelled keys and keys drawn again
    # after cancelling, where the key order of the fold is the subtle part
    assert zero and cancelled and redrawn
