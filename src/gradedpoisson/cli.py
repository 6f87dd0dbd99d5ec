"""Command-line surface: suite runs, single brackets, chart listing.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
usage, manifest, or expression errors, and for a polynomial or an integer
beyond the scalar layer's size or digit bound.

bracket solves the even bracket over the lie tabulation of the even
symplectic form. D_alpha is the unique derivation with
iota_D Theta = d^G alpha, so the basis of the solve does not change the
answer, and the lie tabulation is built straight from the definition: no
basis conversion, and no derived chart tensor such as the Christoffel
symbols.

Each command loads only the layers it runs. Importing this module loads
scalars, forms, geometry, graded, brackets, exprparse and manifest, all that
bracket and charts need; check also imports suites (and json) on its first
call. factoring loads on the first denominator of two or more terms, and
sympy only where factoring cannot certify a factor. Under
PYTHONDONTWRITEBYTECODE every fresh interpreter compiles each module it
imports, and that compiling is most of a fresh call's fixed cost: bracket
and charts never compile the suites.

The argument parser is built once per process, on the first main() call,
and reused: argparse keeps no state between parse_args calls and looks up
sys.stdout and sys.stderr only when it writes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import SUITES
from .brackets import bracket_fastpath, even_bracket, ks_bracket
from .exprparse import ExprError, parse_form_expr, parse_scalar_expr
from .geometry import ChartError, builtin_chart, builtin_names
from .graded import theta_even_cached
from .manifest import ManifestError, parse_manifest
from .scalars import SizeError, clear_memos


def load_chart(target: str):
    if target.startswith("builtin:"):
        return builtin_chart(target[len("builtin:") :])
    try:
        with open(target, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ManifestError(f"cannot read manifest: {err}", 0) from None
    return parse_manifest(text)


def _cmd_check(args) -> int:
    # the one command that runs the suites compiles them (see the module docstring)
    from .suites import run_suite

    chart = load_chart(args.target)
    report = run_suite(
        chart,
        suite=args.suite,
        seed=args.seed,
        samples=args.samples,
        max_form_degree=args.max_form_degree,
    )
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


class CliError(ValueError):
    """A bracket command line that cannot run, reported in one line."""


def _operand(flag: str, parse, *args):
    """parse(*args), naming the operand's option in an expression error."""
    try:
        return parse(*args)
    except ExprError as err:
        raise CliError(f"{flag}: {err}") from None


def _fastpath_operand(text: str, chart):
    """A scalar, or d(scalar) marking the exact-differential slot. The d( )
    wrapper is blanked, not cut, so error columns count in the text as typed."""
    body = text.rstrip()
    lead = len(body) - len(body.lstrip())
    if body.startswith("d(", lead) and body.endswith(")"):
        return parse_scalar_expr(" " * (lead + 2) + body[lead + 2 : -1], chart.field), True
    return parse_scalar_expr(text, chart.field), False


def _cmd_bracket(args) -> int:
    chart = load_chart(args.target)
    if args.fastpath:
        if args.odd:
            raise CliError("--fastpath computes even brackets only")
        f, df = _operand("--alpha", _fastpath_operand, args.alpha, chart)
        h, dh = _operand("--beta", _fastpath_operand, args.beta, chart)
        kind = {(False, False): "ff", (False, True): "f_dh", (True, True): "df_dh"}.get(
            (df, dh)
        )
        if kind is None:
            raise CliError("no closed form for [[df,h]]; swap the slots or drop --fastpath")
        result = bracket_fastpath(kind, f, h, chart)
    else:
        alpha = _operand("--alpha", parse_form_expr, args.alpha, chart)
        beta = _operand("--beta", parse_form_expr, args.beta, chart)
        if args.odd:
            result = ks_bracket(alpha, beta, chart)
        else:
            result = even_bracket(alpha, beta, theta_even_cached(chart, "lie"))
    sys.stdout.write(f"{result}\n")
    return 0


def _cmd_charts(args) -> int:
    for name in builtin_names():
        chart = builtin_chart(name)
        sign = chart.j_square_scalar()
        flavor = {1: "product type", -1: "complex type"}.get(sign, "mixed type")
        sys.stdout.write(
            f"{name:10s} dim {chart.dim}  coords {','.join(chart.field.coords)}  {flavor}\n"
        )
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedpoisson",
        description="Exact verification of graded symplectic calculus on coordinate charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite over a chart")
    check.add_argument("target", help="manifest path or builtin:NAME")
    check.add_argument("--suite", choices=SUITES, default="all")
    check.add_argument("--seed", type=int, default=42)
    check.add_argument("--samples", type=positive_int, default=8)
    check.add_argument("--max-form-degree", type=positive_int, default=2)
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(fn=_cmd_check)

    bracket = sub.add_parser("bracket", help="compute one graded Poisson bracket")
    bracket.add_argument("target", help="manifest path or builtin:NAME")
    bracket.add_argument("--alpha", required=True, help="first operand expression")
    bracket.add_argument("--beta", required=True, help="second operand expression")
    bracket.add_argument("--odd", action="store_true", help="use the odd bracket")
    bracket.add_argument(
        "--fastpath",
        action="store_true",
        help="use the closed-form route; operands must be scalars or d(scalar)",
    )
    bracket.set_defaults(fn=_cmd_bracket)

    charts = sub.add_parser("charts", help="list built-in charts")
    charts.set_defaults(fn=_cmd_charts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ManifestError, ExprError, ChartError, CliError, SizeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    finally:
        clear_memos()


if __name__ == "__main__":
    sys.exit(main())
