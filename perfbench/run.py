"""Benchmark of the qweylab workbench, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md):

* verify-qq, verify-fiber, verify-l5: cold `qweylab verify` processes, one
  after another, on one config each;
* expr-session: fresh processes that each send the same seeded list of
  `eval`/`reduce` requests to `qweylab.cli.main`, one at a time.

With `--trace 0` it repeats the workload's unit (one verify process, or one
session) until S seconds have passed, and reports the medians of the
end-to-end metrics.  With `--trace 1` it runs one untraced and one traced
unit, plus the layer microbenchmarks, and reports the per-layer metrics.
Every output is checked after the timed work.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import ALL_CHECKS, BENCH_DIR, ROOT, WORKLOADS, SessionWorkload

PY = sys.executable
MIN_UNITS = 3
SETUP_PER_UNIT = 4
SETUP_CODE = (
    "import sys, qweylab\n"
    "from qweylab.config import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
)
# Measured processes import qweylab from the checkout, hash strings the same
# way every time, and keep compiled bytecode as an installed package does.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


class BenchError(Exception):
    pass


def timed_process(cmd, log: Path) -> tuple[float, int, float]:
    """Run cmd from the checkout root; returns (wall s, exit code, peak RSS MB)."""
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_sample(configs, log: Path) -> float:
    """Interpreter start, `import qweylab` and `load_config` in a fresh process."""
    wall, code, _ = timed_process([PY, "-c", SETUP_CODE, *map(str, configs)], log)
    if code != 0:
        raise BenchError(f"set-up process failed:\n{log.read_text()}")
    return wall


def measure(seconds: float, unit, setup) -> tuple[list, list[float]]:
    """Run unit(k) for k = 0, 1, ... while the next one is expected to end
    within `seconds`, and at least MIN_UNITS times, so that the median passes
    over one outlier.  A run thus ends near `seconds` instead of overshooting
    by up to one unit.  SETUP_PER_UNIT calls of setup() precede each unit:
    the host's speed drifts over seconds, and this way both medians cover the
    same stretch."""
    units, setups, lengths = [], [], []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or (
        time.perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        began = time.perf_counter()
        setups += [setup() for _ in range(SETUP_PER_UNIT)]
        units.append(unit(len(units)))
        lengths.append(time.perf_counter() - began)
    return units, setups


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


def verify_unit(workload, config: Path, workdir: Path, tag: str, traced=False) -> dict:
    report = workdir / f"report-{tag}.json"
    verify_args = ["--config", str(config), "--out", str(report)]
    if workload.only:
        verify_args += ["--only", ",".join(workload.only)]
    if traced:
        result = workdir / f"result-{tag}.json"
        cmd = [PY, str(BENCH_DIR / "child.py"), "verify", "--result", str(result),
               "--trace", "--", *verify_args]
    else:
        cmd = [PY, "-m", "qweylab.cli", "verify", *verify_args]
    wall, code, rss = timed_process(cmd, workdir / f"verify-{tag}.log")
    unit = {"wall_s": wall, "code": code, "peak_rss_mb": rss, "report": report}
    if traced:
        unit["trace"] = _read_result(result, workdir / f"verify-{tag}.log")["trace"]
    return unit


def session_unit(requests_file: Path, workdir: Path, tag: str, traced=False) -> dict:
    result = workdir / f"result-{tag}.json"
    cmd = [PY, str(BENCH_DIR / "child.py"), "session", "--result", str(result),
           "--requests", str(requests_file)]
    if traced:
        cmd.append("--trace")
    log = workdir / f"session-{tag}.log"
    _, code, rss = timed_process(cmd, log)
    if code != 0:
        raise BenchError(f"session process failed:\n{log.read_text()}")
    unit = _read_result(result, log)
    unit["peak_rss_mb"] = rss
    return unit


def _read_result(path: Path, log: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        raise BenchError(f"measured process wrote no result:\n{log.read_text()}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_verify_units(workload, units) -> tuple[int, int, list[str]]:
    from outputs import check_verify_report

    attempted = failed = 0
    problems = []
    for unit in units:
        a, f, p = check_verify_report(unit["report"], unit["code"], workload.expected)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems


def check_session_units(workload, requests, units) -> tuple[int, int, list[str]]:
    """The first session's outputs are checked one by one; every later session
    must print exactly the same outputs."""
    from outputs import SessionChecker

    checker = SessionChecker(workload.configs)
    first = units[0]
    problems = []
    bad = set()
    for k, ((command, expression, config), output, code) in enumerate(
        zip(requests, first["outputs"], first["codes"])
    ):
        problem = f"exit code {code}: {output}" if code != 0 else checker.check(
            command, expression, config, output
        )
        if problem:
            bad.add(k)
            problems.append(problem)
    failed = len(bad)
    for unit in units[1:]:
        differ = {k for k, (a, b) in enumerate(zip(first["outputs"], unit["outputs"])) if a != b}
        failed += len(differ | bad)
        problems += [f"request {k} printed differently in a later session" for k in sorted(differ)]
    return len(requests) * len(units), failed, problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def write_requests(workload, seed: int, workdir: Path) -> tuple[list, Path]:
    requests = workload.make_requests(seed)
    path = workdir / "requests.json"
    path.write_text(json.dumps(requests))
    return requests, path


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(name: str, workload, seed: int, seconds: float, workdir: Path):
    def setup():
        return setup_sample(workload.setup_configs(), workdir / "setup.log")

    if isinstance(workload, SessionWorkload):
        requests, requests_file = write_requests(workload, seed, workdir)
        units, setup_walls = measure(
            seconds, lambda k: session_unit(requests_file, workdir, f"s{k}"), setup
        )
        attempted, failed, problems = check_session_units(workload, requests, units)
    else:
        config = workload.config_for(seed, workdir)
        units, setup_walls = measure(
            seconds, lambda k: verify_unit(workload, config, workdir, f"v{k}"), setup
        )
        attempted, failed, problems = check_verify_units(workload, units)

    walls = [u["wall_s"] for u in units]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units), "MB"),
    }
    print(f"{name}: seed {seed}, {len(units)} unit(s) in {sum(walls):.1f} s")
    wall_name = "expr_session_s" if isinstance(workload, SessionWorkload) else "verify_s"
    print(f"  {wall_name:<15} {metrics['wall_s'][0]:.4f} s  median of {len(walls)}: "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"  {'setup_s':<15} {metrics['setup_s'][0]:.4f} s  median of {len(setup_walls)}")
    print(f"  {'peak_rss_mb':<15} {metrics['peak_rss_mb'][0]:.1f} MB  median of {len(units)}")
    if isinstance(workload, SessionWorkload):
        latencies = [t for u in units for t in u["latencies"]]
        print(f"  {'expr_p50_ms':<15} {_quantile(latencies, 50) * 1e3:.3f} ms  "
              f"over {len(latencies)} requests")
        print(f"  {'expr_p95_ms':<15} {_quantile(latencies, 95) * 1e3:.3f} ms  "
              f"({len(latencies) // 20} requests beyond it)")
    print(f"  {'fail_share':<15} {failed}/{attempted} = {failed / attempted:.4f}")
    return metrics, attempted, failed, problems


def per_layer(name: str, workload, seed: int, workdir: Path):
    import micro

    if isinstance(workload, SessionWorkload):
        requests, requests_file = write_requests(workload, seed, workdir)
        plain = session_unit(requests_file, workdir, "plain")
        traced = session_unit(requests_file, workdir, "traced", traced=True)
        attempted, failed, problems = check_session_units(workload, requests, [plain, traced])
        checks = {}
        latencies = plain["latencies"]
    else:
        config = workload.config_for(seed, workdir)
        plain = verify_unit(workload, config, workdir, "plain")
        traced = verify_unit(workload, config, workdir, "traced", traced=True)
        attempted, failed, problems = check_verify_units(workload, [plain, traced])
        records = json.loads(plain["report"].read_text())["checks"]
        checks = {rec["check_id"]: rec["elapsed"] for rec in records}
        latencies = []

    metrics = layer_metrics(traced["trace"])
    for check_id in ALL_CHECKS:
        metrics[f"check.{check_id}.s"] = (checks.get(check_id, 0.0), "s")
    p50 = _quantile(latencies, 50) * 1e3 if latencies else 0.0
    p95 = _quantile(latencies, 95) * 1e3 if latencies else 0.0
    metrics["expr.request_p50_ms"] = (p50, "ms")
    metrics["expr.request_p95_ms"] = (p95, "ms")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    micro_metrics, micro_attempted, micro_problems = micro.run(seed)
    metrics.update(micro_metrics)
    attempted += micro_attempted
    failed += len(micro_problems)
    problems += micro_problems

    print(f"{name}: seed {seed}, traced run")
    print(f"  untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s, "
          f"overhead x{metrics['trace.overhead_ratio'][0]:.3f}")
    for label, info in traced["trace"]["caches"].items():
        print(f"  cache {label:<22} hits {info['hits']:>8} misses {info['misses']:>7} "
              f"currsize {info['currsize']:>7}")
    return metrics, attempted, failed, problems


def layer_metrics(trace: dict) -> dict:
    layers, counts, caches = trace["layers"], trace["scalar_counts"], trace["caches"]

    def calls(span):
        return (layers.get(span, {}).get("calls", 0), "count")

    def seconds(span, key="total_s"):
        return (layers.get(span, {}).get(key, 0.0), "s")

    def hit_ratio(label):
        info = caches[label]
        looked_up = info["hits"] + info["misses"]
        return (info["hits"] / looked_up if looked_up else 0.0, "ratio")

    metrics = {
        "scalars.mul_calls": (counts["mul"], "count"),
        "scalars.add_calls": (counts["add"], "count"),
        "scalars.inv_calls": (counts["inv"], "count"),
        "scalars.is_zero_calls": (counts["is_zero"], "count"),
        "scalars.self_s": (trace["scalar_s"], "s"),
        "qweyl.pbw_mul_calls": calls("qweyl.pbw_mul"),
        "qweyl.pbw_mul_self_s": seconds("qweyl.pbw_mul", "self_s"),
        "qweyl.pbw_pow_calls": calls("qweyl.pbw_pow"),
        "qweyl.reorder_hit_ratio": hit_ratio("qweyl._reorder"),
        "qweyl.reorder_entries": (caches["qweyl._reorder"]["currsize"], "count"),
        "hopf.double_mul_calls": calls("hopf.double_mul"),
        "hopf.double_mul_self_s": seconds("hopf.double_mul", "self_s"),
        "hopf.smash_core_hit_ratio": hit_ratio("hopf._smash_core"),
        "hopf.pairing_hit_ratio": hit_ratio("hopf.pairing"),
        "moment.ideal_reduce_calls": calls("moment.ideal_reduce"),
        "moment.ideal_reduce_self_s": seconds("moment.ideal_reduce", "self_s"),
        "moment.reduced_product_calls": calls("moment.reduced_product"),
        "moment.alpha_table_hit_ratio": hit_ratio("moment._alpha_table"),
        "rootofunity.build_rep_calls": calls("rootofunity.build_rep"),
        "rootofunity.build_rep_s": seconds("rootofunity.build_rep"),
        "rootofunity.commutant_calls": calls("rootofunity.commutant"),
        "rootofunity.commutant_s": seconds("rootofunity.commutant"),
        "reduction.moment_operators_calls": calls("reduction.moment_operators"),
        "reduction.weight_space_calls": calls("reduction.weight_space"),
        "reduction.reduced_endos_s": seconds("reduction.reduced_endos"),
        "reduction.restriction_s": seconds("reduction.restriction"),
        "exactla.mat_mul_calls": calls("exactla.mat_mul"),
        "exactla.mat_mul_self_s": seconds("exactla.mat_mul", "self_s"),
        "exactla.mat_pow_calls": calls("exactla.mat_pow"),
        "exactla.kron_calls": calls("exactla.kron"),
        "exactla.sparse_kernel_calls": calls("exactla.sparse_kernel"),
        "exactla.sparse_kernel_s": seconds("exactla.sparse_kernel"),
        "exactla.sparse_kernel_unknowns_max": (trace["sparse_kernel_unknowns_max"], "count"),
        "exactla.elim_add_calls": (trace["elim_add_calls"], "count"),
        "expr.parse_s": seconds("expr.parse", "self_s"),
        "expr.format_s": seconds("expr.format", "self_s"),
        "config.load_s": seconds("config.load"),
    }
    for label, info in caches.items():
        for key in ("hits", "misses", "currsize"):
            metrics[f"cache.{label}.{key}"] = (info[key], "count")
    return metrics


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "qweylab" / "__init__.py", *WORKLOADS[args.workload].setup_configs()]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a qweylab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload]
        if args.trace:
            metrics, attempted, failed, problems = per_layer(
                args.workload, workload, args.seed, workdir
            )
        else:
            metrics, attempted, failed, problems = end_to_end(
                args.workload, workload, args.seed, args.seconds, workdir
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if sorted(declared) != sorted(metrics):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 1
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
