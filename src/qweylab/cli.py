"""Command-line surface: evaluate expressions, reduce modulo the moment
ideal, build representations, and run the verification suite."""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .checks import CHECKS, run_verification_suite
from .config import ConfigError, load_config
from .errors import QWeylError
from .expr import parse_expression
from .moment import moment_ideal_reduce
from .rootofunity import export_rep
from .scalars import Scalar

# The arguments of `eval`, `reduce` and `verify`, which both `_build_parser`
# and `_parse_exact` read: (flag, dest, takes a value, required, default,
# help), with flag None for the positional.
_ARGUMENTS = {
    "eval": (
        (None, "expression", True, True, None, None),
        ("--config", "config", True, True, None, None),
    ),
    "verify": (
        ("--config", "config", True, False, None, None),
        ("--only", "only", True, False, None, "comma-separated check ids (see --list-checks)"),
        ("--verbose", "verbose", False, False, False, None),
        ("--out", "out", True, False, None, "write the JSON report here"),
        ("--list-checks", "list_checks", False, False, False, "list check ids and exit"),
    ),
    "reduce": (
        (None, "expression", True, True, None, None),
        ("--config", "config", True, True, None, None),
    ),
}


@functools.cache
def _build_parser():
    """The full argparse parser, built on the first argv that is not of the
    exact form (or the first `parser.error`) and shared by every later
    `main` call: parsing does not change it.  argparse is imported here, so
    a process that only sees exact-form argvs never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qweylab",
        description="exact q-Weyl algebra workbench",
    )
    parser.add_argument("--version", action="version", version=f"qweylab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_exact(command, help):
        p = sub.add_parser(command, help=help)
        for flag, dest, takes_value, required, default, text in _ARGUMENTS[command]:
            if flag is None:
                p.add_argument(dest, help=text)
            elif takes_value:
                p.add_argument(flag, dest=dest, required=required, default=default, help=text)
            else:
                p.add_argument(flag, dest=dest, action="store_true", help=text)

    add_exact("eval", "normal-order an expression")
    add_exact("verify", "run the verification suite")
    p_rep = sub.add_parser("rep", help="representation commands")
    rep_sub = p_rep.add_subparsers(dest="rep_command", required=True)
    p_build = rep_sub.add_parser("build", help="build configured representations")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--out", required=True)
    add_exact("reduce", "canonical form modulo the moment ideal")
    return parser


class _ExactForm:
    """The rows of `_ARGUMENTS` for one subcommand, as `_parse_exact` reads
    them: its long options, at most one positional, and the defaults."""

    def __init__(self, rows):
        self.options = {flag: (dest, takes_value) for flag, dest, takes_value, *_ in rows if flag}
        self.positional = next((dest for flag, dest, *_ in rows if flag is None), None)
        self.required = {dest for _, dest, _, required, _, _ in rows if required}
        self.defaults = {dest: default for _, dest, _, _, default, _ in rows}


_EXACT_FORMS = {command: _ExactForm(rows) for command, rows in _ARGUMENTS.items()}


def _parse_exact(argv: list[str]):
    """A namespace with the attributes ``_build_parser().parse_args(argv)``
    gives, without argparse, for an argv of the exact form: `eval`, `reduce`
    or `verify`, then only that subcommand's long options, each spelled in
    full and given at most once, with its value (if it takes one) in the
    next token; the positional as a token of its own or as the one token
    after a final ``--``; every required argument present; and no other
    token starts with ``-``.  Any other argv returns None, for argparse to
    parse and report."""
    form = _EXACT_FORMS.get(argv[0]) if argv else None
    if form is None:
        return None
    values = {}
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        option = form.options.get(token)
        if option is not None:
            dest, takes_value = option
            if dest in values:
                return None
            if not takes_value:
                values[dest] = True
            elif i + 1 < n and not argv[i + 1].startswith("-"):
                i += 1
                values[dest] = argv[i]
            else:
                return None
        elif form.positional is None or form.positional in values:
            return None
        elif token == "--":
            if i + 2 != n or argv[i + 1] == "--":
                return None
            values[form.positional] = argv[i + 1]
            break
        elif token.startswith("-"):
            return None
        else:
            values[form.positional] = token
        i += 1
    if not form.required <= values.keys():
        return None
    return SimpleNamespace(**{**form.defaults, **values}, command=argv[0])


def _parse_args(argv):
    """``_build_parser().parse_args(argv)``.  An argv of the exact form is
    read by `_parse_exact`; any other goes to argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_exact(argv)
    return _build_parser().parse_args(argv) if args is None else args


def _cannot_write(path: str, exc: OSError) -> QWeylError:
    return QWeylError(f"cannot write {path}: {exc.strerror}")


def _check_writable(path: str) -> None:
    """Raise the error `_write_json` would raise on a path that cannot be
    opened, before any work is done.  A file the test creates is removed."""
    created = not os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    if created:
        os.remove(path)


def _write_json(path: str, data) -> None:
    """Write data to path as indented JSON.  A path that cannot be opened
    raises QWeylError and leaves no file."""
    text = json.dumps(data, indent=1)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def main(argv=None) -> int:
    """Run one command; the exit code is 0 on success, 1 when a check fails,
    and 2 on a config, input or output error (a closed stdout included)."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except QWeylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    return code


def _run(argv) -> int:
    args = _parse_args(argv)
    if args.command == "verify" and args.list_checks:
        for check_id, law, _, _ in CHECKS:
            print(f"{check_id}: {law}")
        return 0
    if getattr(args, "config", None) is None:
        _build_parser().error("--config is required")
    config = load_config(args.config)
    if args.command == "eval":
        value = parse_expression(args.expression, config.spec)
        print(value)
        return 0
    if args.command == "reduce":
        value = parse_expression(args.expression, config.spec)
        if isinstance(value, Scalar):
            value = config.spec.scalar_element(value)
        reduced = moment_ideal_reduce(value, config.datum())
        print(reduced)
        return 0
    if args.command == "rep":
        reps = config.build_reps()
        dump = [export_rep(rep) for rep in reps]
        _write_json(args.out, dump)
        print(f"wrote {len(dump)} representation(s) to {args.out}")
        return 0
    if args.command == "verify":
        only = None
        if args.only is not None:
            only = set(args.only.split(","))
            if "" in only:
                raise QWeylError("--only: empty check id")
        if args.out:
            _check_writable(args.out)
        report = run_verification_suite(config, only=only, verbose=args.verbose)
        for rec in report["checks"]:
            line = f"{rec['status']:<7s} {rec['check_id']}"
            if rec["detail"]:
                line += f"  [{rec['detail']}]"
            print(line)
        summary = report["summary"]
        print(
            f"{summary['pass']} passed, {summary['fail']} failed, "
            f"{summary['skipped']} skipped"
        )
        if args.out:
            _write_json(args.out, report)
        return 0 if summary["ok"] else 1


def run() -> int:
    """The process entry point: `main` on ``sys.argv``, returning its exit
    code.  The process ends next and the OS frees its memory, so the heap
    is frozen first: the interpreter's collection at exit then skips every
    table the run's caches hold instead of traversing them.  `main` itself
    freezes nothing, for callers that go on in the same process."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
