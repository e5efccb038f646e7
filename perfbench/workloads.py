"""The benchmark's workloads: their inputs, made from the seed, and the
verdicts each verify workload must reproduce."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

ALL_CHECKS = [
    "engine-soundness", "euler-commutativity", "power-identities", "hopf-axioms",
    "double-presentation", "classical-limit", "moment-identity", "moment-reduction",
    "delta-power", "center-truncation", "lcenter-freeness", "rep-build",
    "rep-irreducibility", "fiber-weights", "fiber-restriction", "fiber-reduced-endos",
    "cover-degree",
]
ROOT_OF_UNITY_CHECKS = ALL_CHECKS[8:]


@dataclass(frozen=True)
class VerifyWorkload:
    """Cold `qweylab verify` processes on one config."""

    config: Path
    expected: dict  # check id -> "pass" or "skipped", in report order

    @property
    def only(self) -> list[str] | None:
        ids = list(self.expected)
        return None if ids == ALL_CHECKS else ids

    def config_for(self, seed: int, workdir: Path) -> Path:
        """The workload config with its `seed` field set from the benchmark seed."""
        raw = json.loads(self.config.read_text())
        raw["seed"] = seed
        path = workdir / f"{self.config.stem}.seed{seed}.json"
        path.write_text(json.dumps(raw, indent=1))
        return path

    def setup_configs(self) -> list[Path]:
        return [self.config]


@dataclass(frozen=True)
class SessionWorkload:
    """One process serving seeded `eval`/`reduce` requests in a closed loop."""

    configs: dict  # short name -> bundled config path
    requests: int

    def setup_configs(self) -> list[Path]:
        return list(self.configs.values())

    def make_requests(self, seed: int) -> list[list[str]]:
        """[command, expression, config path] triples, in seeded order.

        A third of the requests are `reduce`, a fifth are squared words
        `(w1 + w2)^2`, and the rest are split between words with an Euler
        operator `a_i^e` (|e| <= 2) and short words with exponents up to 5.
        Each class has a fixed count and word shape and is split evenly over
        the two configs, so the session's total work varies little from seed
        to seed.

        Coefficients are integers or polynomials in q.  A rational coefficient
        times a negative power of q prints as `3/2*q^16` for 3/(2 q^16), which
        the grammar reads back as (3/2) q^16: an open defect of the Q(q)
        printer, recorded in README.md, that the session leaves out.
        """
        rng = random.Random(f"expr-session:{seed}")
        n = self.requests
        kinds = ["reduce"] * (n // 3) + ["square"] * (n // 5)
        rest = n - len(kinds)
        kinds += ["euler"] * (rest // 2) + ["short"] * (rest - rest // 2)
        rng.shuffle(kinds)
        configs = [str(self.configs[name]) for name in sorted(self.configs)]
        seen = dict.fromkeys(kinds, 0)
        out = []
        for kind in kinds:
            config = configs[seen[kind] % len(configs)]
            seen[kind] += 1
            if kind == "reduce":
                expression = _word(rng, 3, rng.randint(1, 3))
                if rng.random() < 0.5:
                    expression += " + " + _word(rng, 2, rng.randint(1, 2))
                out.append(["reduce", expression, config])
            elif kind == "square":
                # two factors per word: with three, single squares took up to
                # 0.26 s in Q(q) and the session total varied by ~25% by seed
                w1, w2 = _word(rng, 2, 2), _word(rng, 2, 2)
                out.append(["eval", f"({w1} + {w2})^2", config])
            elif kind == "euler":
                euler = f"a{rng.randint(1, 2)}^{rng.choice([-2, -1, 1, 2])}"
                word = _word(rng, 3, rng.randint(1, 3))
                expression = f"{euler}*{word}" if rng.random() < 0.5 else f"{word}*{euler}"
                out.append(["eval", expression, config])
            else:
                coeff = rng.choice(["", "2*", "q*", "(-1)*", "(q + 1)*", "3*"])
                out.append(["eval", coeff + _word(rng, 5, rng.randint(2, 4)), config])
        return out


def _word(rng: random.Random, max_exp: int, factors: int) -> str:
    parts = []
    for _ in range(factors):
        gen = f"{rng.choice('xd')}{rng.randint(1, 2)}"
        exp = rng.randint(1, max_exp)
        parts.append(gen if exp == 1 else f"{gen}^{exp}")
    return "*".join(parts)


def _verdicts(passing, skipped=()) -> dict:
    return {c: ("skipped" if c in skipped else "pass") for c in passing}


WORKLOADS = {
    # Q(q), n=3 multi-parameter: PBW, hopf and moment layers; every
    # root-of-unity check skips.
    "verify-qq": VerifyWorkload(
        BENCH_DIR / "configs" / "verify_qq.json",
        _verdicts(ALL_CHECKS, skipped=ROOT_OF_UNITY_CHECKS),
    ),
    # all 17 checks; fiber-reduced-endos (sparse elimination) dominates.
    "verify-fiber": VerifyWorkload(ROOT / "configs" / "n2_l3.json", _verdicts(ALL_CHECKS)),
    # n2_l3 at l=5: dense dim-25 rep matrices.  fiber-reduced-endos alone
    # takes about 150 s at l=5, so it is left out (verify-fiber covers it).
    "verify-l5": VerifyWorkload(
        BENCH_DIR / "configs" / "verify_l5.json",
        _verdicts([c for c in ALL_CHECKS if c != "fiber-reduced-endos"]),
    ),
    "expr-session": SessionWorkload(
        {"generic_q": ROOT / "configs" / "generic_q.json",
         "n2_l3": ROOT / "configs" / "n2_l3.json"},
        requests=1500,
    ),
}
