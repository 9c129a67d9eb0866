"""Command-line front end.

Subcommands:
    norm        print the norm of a `stepfn v1` file in a chosen space
    rearrange   write the decreasing rearrangement of a `stepfn v1` file
    rademacher  write the n-th Rademacher function as a `stepfn v1` file
    verify      run a named verification suite and write its report

Exit codes: 0 ok / verified, 1 verification failed, 2 input error,
3 configuration error (a usage error included). Reports are deterministic
for a fixed seed.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import experiments as _experiments
from . import stepfn as _stepfn
from .orlicz import OrliczError
from .rademacher import RademacherError, rademacher
from .spaces import SpaceError, parse_space, ri_norm
from .weights import WeightError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CONFIG_ERROR = 3

_CONFIG_ERRORS = (SpaceError, WeightError, OrliczError, RademacherError,
                  _experiments.ExperimentError, argparse.ArgumentError)

# verify flag -> the suite keyword it sets; a suite takes a flag when its
# signature has the keyword, and the signature's default applies without it
_SUITE_FLAGS = {"seed": "seed", "trials": "trials", "space": "E", "nmax": "n_max", "grid": "grid"}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, which `main` reports as a configuration error,
    instead of exiting with argparse's code 2, the input-error code here."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rispaces",
        description="Norms, rearrangements, and verification suites for "
        "rearrangement-invariant spaces on [0,1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="norm of a step function")
    p_norm.add_argument("--space", required=True, help="e.g. G, G1, MG, L1, Lp:2, Linf")
    p_norm.add_argument("--input", required=True, help="stepfn v1 file")

    p_re = sub.add_parser("rearrange", help="decreasing rearrangement")
    p_re.add_argument("--input", required=True, help="stepfn v1 file")
    p_re.add_argument("--out", help="output file (default: stdout)")

    p_rad = sub.add_parser("rademacher", help="n-th Rademacher function")
    p_rad.add_argument("--n", type=int, required=True)
    p_rad.add_argument("--out", help="output file (default: stdout)")

    p_ver = sub.add_parser(
        "verify",
        help="run a verification suite",
        description="Suites: " + ", ".join(sorted(_experiments.SUITES)),
    )
    p_ver.add_argument("suite", help="suite name")
    p_ver.add_argument("--space", help="space descriptor, where the suite takes one")
    p_ver.add_argument("--nmax", "--n", type=int, help="max n, or max number of summands")
    p_ver.add_argument("--trials", type=int, help="number of random instances")
    p_ver.add_argument("--seed", type=int, help="generator seed (default: the suite's, 42)")
    p_ver.add_argument("--grid", type=int, help="grid size, where the suite takes one")
    p_ver.add_argument("--out", help="report file (default: stdout)")
    p_ver.add_argument("--format", choices=("json", "csv", "text"), default="json")
    return parser


def _suite_kwargs(args) -> dict:
    """Map the verify flags that were given onto the chosen suite's keywords."""
    params = inspect.signature(_experiments._suite(args.suite)).parameters
    kw: dict = {}
    for flag, key in _SUITE_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if key not in params:
            raise _experiments.ExperimentError(f"suite {args.suite!r} takes no --{flag}")
        kw[key] = parse_space(value) if key == "E" else value
    return kw


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "norm":
            f = _stepfn.read_stepfn(args.input)
            space = parse_space(args.space)
            print(f"{ri_norm(f, space):.12f}")
            return EXIT_OK
        if args.command == "rearrange":
            f = _stepfn.read_stepfn(args.input)
            _emit(_stepfn.format_stepfn(_stepfn.rearrange(f)), args.out)
            return EXIT_OK
        if args.command == "rademacher":
            _emit(_stepfn.format_stepfn(rademacher(args.n)), args.out)
            return EXIT_OK
        if args.command == "verify":
            report = _experiments.run_suite(args.suite, **_suite_kwargs(args))
            text = {
                "json": report.to_json,
                "csv": report.to_csv,
                "text": report.to_text,
            }[args.format]()
            _emit(text, args.out)
            return EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    except (_stepfn.StepFunctionError, OSError) as exc:  # ParseError included
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    raise AssertionError("unreachable")


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
