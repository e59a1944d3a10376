"""Command-line front end.

Usage examples::

    sugeno-bounds integrate --f "x^5/4" --interval 0,1
    sugeno-bounds integrate --f "x^2" --interval 1,4 --measure "sqrt(x)" --format json
    sugeno-bounds bound --f "x^(3/2)" --g "x^(1/2)" --interval 1,4 --s 1 --m 1
    sugeno-bounds verify --f "1/x^2" --g "1/x^2" --interval 1,2 --s 1 --m 1 --fail-on-violation
    sugeno-bounds convexity --f "x^2/2" --interval 0,1 --s 0.3333333333333333 --m 1
    sugeno-bounds reproduce --case all --format csv

Output formats: text (default, 6 significant digits), json (one object per
run, full precision), csv (constant column count).  Identical invocations
produce byte-identical stdout.  A report's fields are its result class's
fields, in order: ``alpha_bracket`` prints as ``alpha_lo`` and ``alpha_hi``,
a witness as ``witness_x``, ``witness_y``, ``witness_lambda`` and
``witness_gap`` (each ``None`` without one), and a case tag by its value.
``verify`` lists its columns, which interleave its two nested results.

``--measure lebesgue`` (the default) is the identity distortion phi(t) = t.
An expression that starts with ``-`` is passed with ``=``, as in
``--f=-x+1``; ``--f "-x+1"`` reads it as an option and exits 2.

Exit codes: 0 success; 1 a verified inequality failed under
--fail-on-violation; 2 usage or expression parse errors (an expression
nested deeper than ``expr.MAX_DEPTH`` levels is a parse error); 3 unsupported
endpoint case, negative function value (``bound`` checks the endpoint
values of f and g), domain violation (a bound threshold that overflows),
evaluation failure, or a solver bracket that is not finite or does not
enclose a solution.  The code follows the error's type: a ``ValueError``
exits 2 and an ``exceptions.NoAnswerError`` exits 3.  A reader that closes
stdout early (``| head -1``) gets exit code 0 and no traceback.  Each warning
goes to stderr as one ``warning: <message>`` line, like the
``error: <message>`` lines.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import warnings
from dataclasses import dataclass, fields
from enum import Enum

from .bounds import (VerificationReport, endpoint_bound, hadamard_bound, kirmaci_bound,
                     verify_hadamard)
from .convexity import (DEFAULT_LATTICE, MAX_LATTICE, EndpointData, SMParams, check_sm_convex,
                        envelope)
from .exceptions import NoAnswerError
from .expr import FunctionExpr, parse, product
from .measure import Interval, distortion, lebesgue
from .sugeno import DEFAULT_GRID, MAX_GRID, sugeno_integral

__all__ = ["ReproduceRow", "reproduce", "emit_report", "build_parser", "run", "main"]

REPRODUCE_TOL = 5e-4
VERDICT_MATCH = "Match"
VERDICT_MISMATCH = "Mismatch"
VERDICT_INCONSISTENT = "PaperInternalInconsistency"

_FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class ReproduceRow:
    case_id: str
    quantity: str
    paper_value: float
    computed_value: float
    abs_diff: float
    verdict: str
    note: str = ""


def _row(case_id, quantity, golden, computed, verdict=None, note=""):
    diff = abs(computed - golden)
    if verdict is None:
        verdict = VERDICT_MATCH if diff <= REPRODUCE_TOL else VERDICT_MISMATCH
    return ReproduceRow(case_id, quantity, golden, computed, diff, verdict, note)


def _case_32() -> list[ReproduceRow]:
    base = Interval(0.0, 1.0)
    integral = sugeno_integral(parse("x^5/4"), base)
    endpoints = EndpointData(fa=0.0, fb=0.5, ga=0.0, gb=0.5)
    kir = kirmaci_bound(endpoints, 1.0 / 3.0)
    return [
        _row("3.2", "sugeno integral of x^5/4 on [0,1]", 0.1269, integral.value),
        _row("3.2", "endpoint comparison value at s=1/3", 0.1071, kir),
    ]


def _case_38() -> list[ReproduceRow]:
    base = Interval(1.0, 4.0)
    p = SMParams(1.0, 1.0)
    integral = sugeno_integral(parse("x^2"), base)
    e = EndpointData(fa=1.0, fb=8.0, ga=1.0, gb=2.0)
    beta = endpoint_bound(e, base, p)

    # Residual of the published threshold in the bound equation, as printed
    # (no clamping), plus the sup-min of the true envelope-product
    # distribution for context.  The published value solves neither.  The
    # envelope product is monotone, so its integral takes the exact path.
    published = 2.5302
    w = base.b - p.m * base.a
    inv_s = 1.0 / p.s
    q_f = (published - p.m * 2.0 ** (1.0 - p.s) * e.fa) / (e.fb - p.m * e.fa)
    q_g = (published - p.m * 2.0 ** (1.0 - p.s) * e.ga) / (e.gb - p.m * e.ga)
    lhs = (w * (1.0 - q_f**inv_s)) * (w * (1.0 - q_g**inv_s))
    equation_residual = abs(lhs - published)

    env_fg = product(envelope(e.fa, e.fb, base, p), envelope(e.ga, e.gb, base, p))
    sup_min = sugeno_integral(env_fg, base).value
    note = (
        f"published threshold does not solve the bound equation "
        f"(equation residual {equation_residual:.6g}); computed root {beta.beta:.6g}; "
        f"sup-min of the true envelope-product distribution {sup_min:.6g}"
    )
    return [
        _row("3.8", "sugeno integral of x^2 on [1,4]", 2.4384, integral.value),
        _row("3.8", "increasing-case bound threshold", published, beta.beta,
             verdict=VERDICT_INCONSISTENT, note=note),
    ]


def _case_39() -> list[ReproduceRow]:
    base = Interval(1.0, 2.0)
    integral = sugeno_integral(parse("1/x^4"), base)
    e = EndpointData(fa=1.0, fb=0.25, ga=1.0, gb=0.25)
    beta = endpoint_bound(e, base, SMParams(1.0, 1.0))
    return [
        _row("3.9", "sugeno integral of 1/x^4 on [1,2]", 0.3247, integral.value),
        _row("3.9", "decreasing-case bound threshold", 0.4802, beta.beta),
    ]


_CASES = {"3.2": _case_32, "3.8": _case_38, "3.9": _case_39}
_CASE_CHOICES = (*_CASES, "all")


def reproduce(case: str = "all") -> list[ReproduceRow]:
    """Recompute the bundled worked cases and compare against golden values."""
    if case == "all":
        return [row for run_case in _CASES.values() for row in run_case()]
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}; pick one of {', '.join(_CASE_CHOICES)}")
    return _CASES[case]()


# ---------------------------------------------------------------------------
# report serialization


def _cell(value, fmt: str = "text"):
    """A report cell: text has 6 significant digits and '-' for None; csv has the
    value as it is and an empty cell for None."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-" if fmt == "text" else ""
    if fmt != "text":
        return value
    return format(value, ".6g") if isinstance(value, float) else str(value)


def _columns(rows) -> list[str]:
    """Text rows of cells, each column padded to its widest cell, two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _report_fields(report) -> list[tuple[str, object]]:
    """A report's ``(name, value)`` columns.  A result's fields come in its class's
    order, with a bracket or a witness split into its parts (None in each part when
    there is none) and an enum given by its value.  A verification lists its
    columns, since they interleave its two nested results."""
    if isinstance(report, VerificationReport):
        integral, hadamard = report.integral, report.hadamard
        return [("integral", integral.value), ("beta", hadamard.beta), ("bound", hadamard.bound),
                ("kirmaci", report.kirmaci), ("case", hadamard.case.value),
                ("holds", report.holds), ("margin", report.margin),
                ("residual", hadamard.residual)]
    parts = {"alpha_bracket": ("alpha_lo", "alpha_hi"),
             "witness": ("witness_x", "witness_y", "witness_lambda", "witness_gap")}
    pairs = []
    for name in (field.name for field in fields(report)):
        value = getattr(report, name)
        if name in parts:
            pairs += zip(parts[name], value or [None] * len(parts[name]))
        else:
            pairs.append((name, value.value if isinstance(value, Enum) else value))
    return pairs


def emit_report(report, fmt: str = "text") -> str:
    """Render any report object in the requested format, deterministically."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")

    if isinstance(report, list) and all(isinstance(r, ReproduceRow) for r in report):
        if fmt == "text":
            lines = _columns([("case", "quantity", "expected", "computed", "diff", "verdict")] + [
                (r.case_id, r.quantity, _cell(r.paper_value), _cell(r.computed_value),
                 _cell(r.abs_diff), r.verdict)
                for r in report
            ])
            notes = [f"note [{r.case_id}]: {r.note}" for r in report if r.note]
            return "\n".join(lines + notes)
        rows = [_report_fields(r) for r in report]
        if fmt == "json":
            return json.dumps({"rows": [dict(pairs) for pairs in rows]}, allow_nan=False)
        return _csv_text([field.name for field in fields(ReproduceRow)],
                         [[value for _, value in pairs] for pairs in rows])

    pairs = _report_fields(report)
    if fmt == "json":
        return json.dumps(dict(pairs), allow_nan=False)
    if fmt == "csv":
        return _csv_text([k for k, _ in pairs], [[_cell(v, fmt) for _, v in pairs]])
    return "\n".join(_columns([(k, _cell(v)) for k, v in pairs]))


# ---------------------------------------------------------------------------
# argument handling


def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--interval expects 'a,b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"--interval expects two numbers, got {text!r}") from None
    if not a < b:
        raise ValueError(f"--interval expects a < b, got {text!r}")
    return Interval(a, b)


def _parse_measure(text: str, base: Interval) -> FunctionExpr:
    if text.strip().lower() == "lebesgue":
        return lebesgue()
    return distortion(parse(text), base)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sugeno-bounds",
        description="Sugeno integrals and Hadamard-type endpoint bounds on intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def options(*parents):
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    fmt = options()
    fmt.add_argument("--format", choices=_FORMATS, default="text")
    func = options()
    func.add_argument("--f", required=True, dest="f_text", metavar="EXPR")
    func.add_argument("--interval", required=True, metavar="A,B")
    sm = options()
    sm.add_argument("--s", type=float, required=True)
    sm.add_argument("--m", type=float, required=True)
    grid = options()
    grid.add_argument("--grid", type=int, default=DEFAULT_GRID,
                      help="points in the integration grid "
                           f"(default %(default)s, at most {MAX_GRID:,})")
    pair = options(func)
    pair.add_argument("--g", required=True, dest="g_text", metavar="EXPR")

    p = sub.add_parser("integrate", parents=[func, grid, fmt],
                       help="Sugeno integral of f over [a,b]")
    p.add_argument("--measure", default="lebesgue",
                   help="'lebesgue' or a distortion map as an expression in x")
    sub.add_parser("bound", parents=[pair, sm, fmt],
                   help="endpoint-case bound threshold for a product f*g")
    p = sub.add_parser("verify", parents=[pair, sm, grid, fmt],
                       help="integral of f*g against the endpoint bounds")
    p.add_argument("--fail-on-violation", action="store_true")
    p = sub.add_parser("convexity", parents=[func, sm, fmt],
                       help="(s,m)-convexity: proven from the expression, or checked on a lattice")
    p.add_argument("--grid", type=int, default=DEFAULT_LATTICE,
                   help=f"lattice points per axis (default %(default)s, at most {MAX_LATTICE})")
    p = sub.add_parser("reproduce", parents=[fmt], help="recompute the bundled worked cases")
    p.add_argument("--case", choices=_CASE_CHOICES, default="all")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "reproduce":
        print(emit_report(reproduce(args.case), args.format))
        return 0
    base = _parse_interval(args.interval)
    f = parse(args.f_text)
    if args.command == "integrate":
        phi = _parse_measure(args.measure, base)
        report = sugeno_integral(f, base, phi, args.grid)
    elif args.command == "convexity":
        report = check_sm_convex(f, base, SMParams(args.s, args.m), args.grid)
    else:
        g = parse(args.g_text)
        p = SMParams(args.s, args.m)
        if args.command == "bound":
            report = hadamard_bound(f, g, base, p)
        else:
            report = verify_hadamard(f, g, base, p, args.grid)
    print(emit_report(report, args.format))
    violated = args.command == "verify" and args.fail_on_violation and not report.holds
    return 1 if violated else 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return _dispatch(args)
    except (ValueError, NoAnswerError) as exc:  # a usage error, or an input with no answer
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3


def main() -> None:
    try:
        with warnings.catch_warnings():  # puts the usual display back on exit
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            code = run(sys.argv[1:])
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
    except BrokenPipeError:  # the reader chose to stop; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
