"""Command-line surface: evaluate expressions, reduce modulo the moment
ideal, build representations, and run the verification suite."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .checks import CHECKS, run_verification_suite
from .config import ConfigError, load_config
from .errors import QWeylError
from .expr import parse_expression
from .moment import moment_ideal_reduce
from .rootofunity import export_rep
from .scalars import Scalar


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, so every `main` call shares it.  Its `exact_forms` maps `eval`,
    `reduce` and `verify` to the `_ExactForm` of their arguments."""
    parser = argparse.ArgumentParser(
        prog="qweylab",
        description="exact q-Weyl algebra workbench",
    )
    parser.add_argument("--version", action="version", version=f"qweylab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    exact = {}

    p_eval = sub.add_parser("eval", help="normal-order an expression")
    exact["eval"] = [
        p_eval.add_argument("expression"),
        p_eval.add_argument("--config", required=True),
    ]

    p_verify = sub.add_parser("verify", help="run the verification suite")
    exact["verify"] = [
        p_verify.add_argument("--config"),
        p_verify.add_argument("--only", help="comma-separated check ids (see --list-checks)"),
        p_verify.add_argument("--verbose", action="store_true"),
        p_verify.add_argument("--out", help="write the JSON report here"),
        p_verify.add_argument(
            "--list-checks", action="store_true", help="list check ids and exit"
        ),
    ]

    p_rep = sub.add_parser("rep", help="representation commands")
    rep_sub = p_rep.add_subparsers(dest="rep_command", required=True)
    p_build = rep_sub.add_parser("build", help="build configured representations")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--out", required=True)

    p_reduce = sub.add_parser("reduce", help="canonical form modulo the moment ideal")
    exact["reduce"] = [
        p_reduce.add_argument("expression"),
        p_reduce.add_argument("--config", required=True),
    ]
    parser.exact_forms = {command: _ExactForm(actions) for command, actions in exact.items()}
    return parser


class _ExactForm:
    """The arguments of one subcommand, as its parser's actions: its exact
    long options, at most one positional, and the defaults of all of them."""

    def __init__(self, actions):
        self.options = {name: a for a in actions for name in a.option_strings}
        self.positional = next((a.dest for a in actions if not a.option_strings), None)
        self.required = {a.dest for a in actions if a.required}
        self.defaults = {a.dest: a.default for a in actions}


def _parse_exact(parser: argparse.ArgumentParser, argv: list[str]):
    """The Namespace ``parser.parse_args(argv)`` returns, without argparse,
    for an argv of the exact form: `eval`, `reduce` or `verify`, then only
    that subcommand's long options, each spelled in full and given at most
    once, with its value (if it takes one) in the next token; the positional
    as a token of its own or as the one token after a final ``--``; every
    required argument present; and no other token starts with ``-``.  Any
    other argv returns None, for argparse to parse and report."""
    form = parser.exact_forms.get(argv[0]) if argv else None
    if form is None:
        return None
    values = {}
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        action = form.options.get(token)
        if action is not None:
            if action.dest in values:
                return None
            if action.nargs == 0:
                values[action.dest] = action.const
            elif i + 1 < n and not argv[i + 1].startswith("-"):
                i += 1
                values[action.dest] = argv[i]
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
    args = argparse.Namespace(**form.defaults)
    args.__dict__.update(values)
    args.command = argv[0]
    return args


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """``parser.parse_args(argv)``.  An argv of the exact form is read by
    `_parse_exact`; any other goes to argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_exact(parser, argv)
    return parser.parse_args(argv) if args is None else args


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
    parser = _build_parser()
    args = _parse_args(parser, argv)
    if args.command == "verify" and args.list_checks:
        for check_id, law, _, _ in CHECKS:
            print(f"{check_id}: {law}")
        return 0
    if getattr(args, "config", None) is None:
        parser.error("--config is required")
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


if __name__ == "__main__":
    sys.exit(main())
