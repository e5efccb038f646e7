"""One measured process of the benchmark.

    python3 perfbench/child.py verify  --result R.json [--trace] -- <verify args>
    python3 perfbench/child.py session --result R.json [--trace] --requests Q.json

`verify` runs `qweylab verify` in this process, with the layer tracer
installed when `--trace` is given (untraced verify runs go straight through
`python3 -m qweylab.cli`).  `session` sends the requests in Q.json, one after
the other, to `qweylab.cli.main` and records each one's latency and output.
Both write their measurements to R.json; `verify` exits with the code of
`qweylab verify`.  `src` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path


def run_session(requests, main):
    """Closed loop, one client: each request is sent when the previous one
    has returned.  Returns (loop seconds, latencies, outputs, exit codes)."""
    latencies, outputs, codes = [], [], []
    clock = time.perf_counter
    loop_start = clock()
    for command, expression, config in requests:
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", config, "--", expression])
        latencies.append(clock() - start)
        outputs.append(out.getvalue().strip() if code == 0 else err.getvalue().strip())
        codes.append(code)
    return clock() - loop_start, latencies, outputs, codes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verify_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, verify_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["verify", "session"])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--requests")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from qweylab import cli

    result: dict = {}
    code = 0
    if args.mode == "verify":
        code = cli.main(["verify"] + verify_args)
    else:
        requests = json.loads(Path(args.requests).read_text())
        loop_s, latencies, outputs, codes = run_session(requests, cli.main)
        result.update(wall_s=loop_s, latencies=latencies, outputs=outputs, codes=codes)
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
