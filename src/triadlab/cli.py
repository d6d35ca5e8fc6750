"""Command-line front end.

Exit codes follow the runner contract: 0 when every non-control check
passes (or, with --negative-controls, when every control fails as it
should), 1 when a check fails, 2 for usage or configuration errors.

The default sweep ``--c -1,0,1`` exits 1 on a healthy build: ``cr-form-xi``
holds only at c = 0 and fails by design at c = -1 and c = 1, and no check
declares an expected failure yet.  ``--c 0`` exits 0 on a healthy build.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import catalog
from .checks import CHECKS
from .runner import ConfigError, RunConfig, emit_report, run_suite

ENV_OUT_DIR = "TRIADLAB_REPORT_DIR"


def _parse_c(text: str) -> tuple:
    vals = []
    for part in text.split(","):
        part = part.strip()
        if part:
            vals.append(float(part))
    return tuple(vals)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triadlab",
        description="residual workbench for the canonical connection family "
                    "of contact triads")
    sub = parser.add_subparsers(dest="command")

    pc = sub.add_parser("check", help="run the residual suite on one example")
    pc.add_argument("--example", required=True, metavar="ID",
                    help="catalog id (see list-examples)")
    pc.add_argument("--c", metavar="LIST",
                    default=",".join("%g" % c for c in RunConfig.c_values),
                    help="comma-separated family parameters "
                         "(default %(default)s)")
    pc.add_argument("--points", type=int, default=RunConfig.points,
                    metavar="N", help="sampled chart points "
                                      "(default %(default)s)")
    pc.add_argument("--seed", type=int, default=RunConfig.seed, metavar="S")
    pc.add_argument("--mode", choices=("ad", "fd"), default=RunConfig.mode,
                    help="derivative engine (default %(default)s)")
    pc.add_argument("--fd-step", type=float, default=RunConfig.fd_step,
                    metavar="H", help="step for fd mode (default %(default)g)")
    pc.add_argument("--format", dest="fmt", choices=("json", "csv"),
                    default="json")
    pc.add_argument("--out", default=None, metavar="PATH",
                    help="write the report here instead of stdout; relative "
                         "paths resolve against $%s when set" % ENV_OUT_DIR)
    pc.add_argument("--negative-controls", action="store_true",
                    help="run the fault-injection controls instead; exit 0 "
                         "iff every control fails as designed")

    sub.add_parser("list-examples", help="print the example catalog")

    pd = sub.add_parser("describe-check",
                        help="print the identity a check enforces")
    pd.add_argument("name")
    return parser


def _cmd_check(args) -> int:
    try:
        cvals = _parse_c(args.c)
    except ValueError:
        print("error: could not parse --c %r as floats" % args.c,
              file=sys.stderr)
        return 2
    config = RunConfig(example_id=args.example, c_values=cvals,
                       points=args.points, seed=args.seed, mode=args.mode,
                       fd_step=args.fd_step,
                       negative_controls=args.negative_controls)
    try:
        report = run_suite(config)
        payload = emit_report(report, args.fmt)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        path = args.out
        env = os.environ.get(ENV_OUT_DIR)
        if env and not os.path.isabs(path):
            path = os.path.join(env, path)
        parent = os.path.dirname(path)
        try:
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print("error: cannot write the report to %s: %s" % (path, exc),
                  file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.write(payload.decode("utf-8"))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; devnull takes the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print("error: cannot write the report to stdout: the reader "
                  "closed the pipe", file=sys.stderr)
            return 2
    return 0 if report.ok else 1


def _cmd_list(_args) -> int:
    for spec in catalog().values():
        print("%-16s dim=%d  %s" % (spec.id, spec.dim, spec.description))
        for m in spec.maps:
            print("%16s map: %s" % ("", m.label))
    return 0


def _cmd_describe(args) -> int:
    spec = CHECKS.get(args.name)
    if spec is None:
        print("unknown check %r; known checks:" % args.name, file=sys.stderr)
        for name in sorted(CHECKS):
            print("  " + name, file=sys.stderr)
        return 2
    print("%s\n  %s" % (args.name, spec.anchor))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "list-examples":
        return _cmd_list(args)
    if args.command == "describe-check":
        return _cmd_describe(args)
    parser.print_help()
    return 2


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
