"""Command-line interface: exit codes, formats, determinism."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from sugeno_bounds import exceptions
from sugeno_bounds.cli import _dispatch, build_parser, emit_report, main, reproduce, run
from sugeno_bounds.convexity import SMParams, envelope
from sugeno_bounds.exceptions import (BracketError, DomainError, EvalError, InvalidDistortionError,
                                     NegativeFunctionError, NoAnswerError, ParseError,
                                     UnsupportedCaseError)
from sugeno_bounds.expr import product
from sugeno_bounds.measure import Interval
from sugeno_bounds.sugeno import MAX_GRID, IntegralResult, sugeno_integral


def _src_env() -> dict:
    """The environment with the package's source on PYTHONPATH, for child interpreters."""
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_integrate_text(capsys):
    code, out = _run(capsys, "integrate", "--f", "x^5/4", "--interval", "0,1")
    assert code == 0
    assert "0.126866" in out


def test_integrate_json_single_object(capsys):
    code, out = _run(capsys, "integrate", "--f", "x^2", "--interval", "1,4",
                     "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert isinstance(obj, dict)
    assert obj["value"] == pytest.approx(2.438447187, abs=1e-6)
    assert list(obj) == ["value", "residual", "alpha_lo", "alpha_hi", "grid_points"]


def test_integrate_with_distortion(capsys):
    code, out = _run(capsys, "integrate", "--f", "x^2", "--interval", "0,1",
                     "--measure", "sqrt(x)", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5248886, abs=1e-5)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("f_text", ["x^2", "abs(x-0.5)", "1/x"])  # exact, counted, excluded end
def test_identity_distortion_matches_lebesgue(capsys, f_text, fmt):
    outs = []
    for measure in ("lebesgue", "x"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 1/x excludes its end point at 0
            code, out = _run(capsys, "integrate", "--f", f_text, "--interval", "0,1",
                             "--measure", measure, "--format", fmt)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_bound_json(capsys):
    code, out = _run(capsys, "bound", "--f", "x^2", "--g", "2*x", "--interval", "1,4",
                     "--s", "1", "--m", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "increasing"
    assert list(obj) == ["beta", "residual", "bound", "case"]


def test_verify_json_fields(capsys):
    code, out = _run(capsys, "verify", "--f", "1/x^2", "--g", "1/x^2",
                     "--interval", "1,2", "--s", "1", "--m", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj.keys()) == ["integral", "beta", "bound", "kirmaci", "case",
                                "holds", "margin", "residual"]
    assert obj["holds"] is True


@pytest.mark.parametrize("command, flag", [
    ("bound", "--no-literal"), ("verify", "--literal"),
    ("integrate", "--tol 1e-6"), ("bound", "--tol 1e-6"), ("verify", "--tol 1e-6"),
], ids=["bound---no-literal", "verify---literal", "integrate---tol", "bound---tol", "verify---tol"])
def test_removed_options_exit_two(capsys, command, flag):
    # the clamped bound mode and the solver tolerance are gone
    argv = [command, "--f", "x^2", "--interval", "1,4"]
    if command != "integrate":
        argv += ["--g", "2*x", "--s", "1", "--m", "1"]
    code = run(argv + flag.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: unrecognized arguments: {flag}" in captured.err


def test_verify_fail_on_violation_exit_one(capsys):
    # sqrt is not convex, so the convex-case bound genuinely fails for it:
    # integral of x on [0,1] is 1/2 but the threshold is (3-sqrt(5))/2
    code, out = _run(capsys, "verify", "--f", "sqrt(x)", "--g", "sqrt(x)",
                     "--interval", "0,1", "--s", "1", "--m", "1",
                     "--fail-on-violation", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["holds"] is False
    assert obj["margin"] < 0


def test_verify_without_flag_reports_but_exits_zero(capsys):
    code, out = _run(capsys, "verify", "--f", "sqrt(x)", "--g", "sqrt(x)",
                     "--interval", "0,1", "--s", "1", "--m", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"] is False


def test_convexity_text_and_csv(capsys):
    code, out = _run(capsys, "convexity", "--f", "x^2", "--interval", "0,1",
                     "--s", "1", "--m", "1")
    assert code == 0
    assert "true" in out

    code, out = _run(capsys, "convexity", "--f", "1/2-abs(x-1/2)", "--interval", "0,1",
                     "--s", "1", "--m", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["holds_on_grid", "witness_x", "witness_y",
                       "witness_lambda", "witness_gap", "grid", "skipped"]
    assert len(rows[1]) == len(rows[0])
    assert rows[1][0] == "false"


def test_convexity_csv_constant_columns_when_holds(capsys):
    # witness columns stay present (empty) so the column count never changes
    code, out = _run(capsys, "convexity", "--f", "x^2", "--interval", "0,1",
                     "--s", "1", "--m", "1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows[1]) == len(rows[0])
    assert rows[1][1] == ""


def test_parse_error_exit_two(capsys):
    code, _ = _run(capsys, "integrate", "--f", "x^^", "--interval", "0,1")
    assert code == 2


def test_bad_interval_exit_two(capsys):
    code, _ = _run(capsys, "integrate", "--f", "x", "--interval", "0,1,2")
    assert code == 2
    code, _ = _run(capsys, "integrate", "--f", "x", "--interval", "1,1")
    assert code == 2
    code, _ = _run(capsys, "integrate", "--f", "x", "--interval", "a,b")
    assert code == 2


def test_negative_interval_exit_three(capsys):
    # parses fine but violates the non-negative domain requirement
    # (= form: a leading dash would otherwise look like an option to argparse)
    code, _ = _run(capsys, "integrate", "--f", "x+1", "--interval=-1,1")
    assert code == 3


def test_mixed_case_exit_three(capsys):
    code, _ = _run(capsys, "bound", "--f", "x", "--g", "1/(x+1)",
                   "--interval", "0,1", "--s", "1", "--m", "1")
    assert code == 3


def test_negative_integrand_exit_three(capsys):
    code, _ = _run(capsys, "integrate", "--f", "x-2", "--interval", "0,1")
    assert code == 3


def test_null_measure_integrates_to_zero(capsys):
    code, out = _run(capsys, "integrate", "--f", "x", "--interval", "0,1",
                     "--measure", "0*x", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_bound_bracket_failure_exit_three(capsys):
    # f(2) = -100 is a negative endpoint value, so the bound is refused before
    # any solve; test_bound_overflowing_bracket_exit_three covers the exit
    # code of a BracketError
    code, out = _run(capsys, "bound", "--f", "1-101*(x-1)", "--g", "1-0.6*(x-1)",
                     "--interval", "1,2", "--s", "1", "--m", "0.5")
    assert code == 3 and out == ""


FORMATS = ("text", "json", "csv")


def _strict_json(text):
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))


def _report_fields(out, fmt):
    """Field name -> value of a single-report output; text and csv values stay strings."""
    if fmt == "json":
        return _strict_json(out)
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        return dict(zip(header, row))
    return dict(line.split(None, 1) for line in out.splitlines())


@pytest.mark.parametrize("fmt", FORMATS)
def test_bound_overflowing_bracket_exit_three(capsys, fmt):
    # (b - m*a)^2 overflows on [0, 1e300], so the solve bracket is not finite
    code = run(["bound", "--f", "x", "--g", "x", "--interval", "0,1e300",
                "--s", "1", "--m", "1", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "finite" in captured.err


def test_bound_large_finite_bracket_still_solves(capsys):
    code, out = _run(capsys, "bound", "--f", "x", "--g", "x", "--interval", "0,1e150",
                     "--s", "1", "--m", "1", "--format", "json")
    assert code == 0
    assert _strict_json(out)["bound"] == pytest.approx(1e150, rel=1e-12)


@pytest.mark.parametrize("fmt", FORMATS)
def test_bound_overflowing_closed_form_exit_three(capsys, fmt):
    # degenerate case: beta = f(a)*g(a) = 1e400 overflows to inf
    code = run(["bound", "--f", "1e200", "--g", "1e200", "--interval", "0,1",
                "--s", "1", "--m", "1", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "overflows" in captured.err


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("f, g, where", [("-1", "1", "x=0.0: -1.0"), ("x-2", "x", "x=0.0: -2.0")])
def test_bound_negative_endpoint_exit_three(capsys, fmt, f, g, where):
    code = run(["bound", "--f", f, "--g", g, "--interval", "0,1",
                "--s", "1", "--m", "1", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert where in captured.err


@pytest.mark.parametrize("fmt", FORMATS)
def test_bound_endpoint_within_slack_is_not_negative(capsys, fmt):
    # f(a) = -1e-13 passes the endpoint check, and the degenerate closed form
    # would give beta = -1e-13
    code, out = _run(capsys, "bound", "--f=-1e-13", "--g", "1", "--interval", "0,1",
                     "--s", "1", "--m", "1", "--format", fmt)
    assert code == 0
    fields = _report_fields(out, fmt)
    assert float(fields["beta"]) == 0.0 and float(fields["bound"]) == 0.0


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("f", ["-1.7e308", "1.7e308*(1-2*x)"])
def test_convexity_overflowing_gap_is_a_finite_violation(capsys, fmt, f):
    # the right-hand side overflows to -inf where f(x) and f(y) are both near
    # -1.7e308 while the left-hand side stays finite: a violation whose gap is
    # beyond the float range, reported as the largest float
    code, out = _run(capsys, "convexity", f"--f={f}", "--interval", "0,1",
                     "--s", "0.5", "--m", "1", "--format", fmt)
    assert code == 0
    fields = _report_fields(out, fmt)
    assert fields["holds_on_grid"] in (False, "false", "False")
    assert float(fields["witness_gap"]) == pytest.approx(sys.float_info.max, rel=1e-5)
    assert int(fields["skipped"]) == 0


def test_json_rejects_non_finite_fields():
    result = IntegralResult(math.inf, 0.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        emit_report(result, "json")


@pytest.mark.parametrize("text", [
    "+".join(["x"] * 1201),       # deep tree, flat grammar
    "-" * 1200 + "x",             # deep grammar and tree
    "(" * 200 + "x" + ")" * 200,  # deep grammar, shallow tree
], ids=["sum", "minus", "parens"])
def test_deeply_nested_expression_exit_two(capsys, text):
    code, out = _run(capsys, "integrate", f"--f={text}", "--interval", "0,1")
    assert code == 2 and out == ""


def test_unknown_subcommand_exit_two(capsys):
    assert run(["frobnicate"]) == 2


def test_unevaluable_lattice_exit_three(capsys):
    code, out = _run(capsys, "convexity", "--f", "1e400", "--interval", "0,1",
                     "--s", "1", "--m", "1")
    assert code == 3 and out == ""
    code, _ = _run(capsys, "convexity", "--f", "sqrt(x-5)", "--interval", "0,1",
                   "--s", "1", "--m", "1")
    assert code == 3


def test_oversized_grids_exit_two(capsys, no_grid_alloc):
    too_big = str(MAX_GRID + 1)
    code, _ = _run(capsys, "integrate", "--f", "x", "--interval", "0,1", "--grid", too_big)
    assert code == 2
    code, _ = _run(capsys, "verify", "--f", "x", "--g", "x", "--interval", "0,1",
                   "--s", "1", "--m", "1", "--grid", too_big)
    assert code == 2
    code, _ = _run(capsys, "convexity", "--f", "x", "--interval", "0,1",
                   "--s", "1", "--m", "1", "--grid", "202")
    assert code == 2


def test_reproduce_38_note_is_exact_sup_min():
    # the envelope product (1+7t)(1+t), t=(x-1)/3, is monotone on [1,4], so its
    # integral is exact: 3(1-t) = (1+7t)(1+t) at t* = (-11+sqrt(177))/14
    base, p = Interval(1.0, 4.0), SMParams(1.0, 1.0)
    env = product(envelope(1.0, 8.0, base, p), envelope(1.0, 2.0, base, p))
    t_star = (-11.0 + math.sqrt(177.0)) / 14.0
    want = 3.0 * (1.0 - t_star)
    assert sugeno_integral(env, base).value == pytest.approx(want, abs=1e-9)
    note = reproduce("3.8")[1].note
    assert note.endswith(f"sup-min of the true envelope-product distribution {want:.6g}")


def test_reproduce_rows_and_verdicts(capsys):
    code, out = _run(capsys, "reproduce", "--case", "all", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    assert [r["case_id"] for r in rows] == ["3.2", "3.2", "3.8", "3.8", "3.9", "3.9"]
    verdicts = [r["verdict"] for r in rows]
    assert verdicts.count("Match") == 5
    assert verdicts.count("PaperInternalInconsistency") == 1
    flagged = rows[3]
    assert flagged["case_id"] == "3.8"
    assert "computed root" in flagged["note"]


def test_reproduce_single_case(capsys):
    code, out = _run(capsys, "reproduce", "--case", "3.9", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "case_id"
    assert len(rows) == 3
    assert all(r[5] == "Match" for r in rows[1:])


def test_reproduce_api_matches_cli():
    rows = reproduce("3.2")
    assert len(rows) == 2
    assert all(r.verdict == "Match" for r in rows)
    assert rows[0].abs_diff <= 5e-4


def test_library_usage_errors_are_value_errors():
    # the CLI maps them to exit 2; a library caller gets the builtin exception
    with pytest.raises(ValueError, match="unknown case '9'"):
        reproduce("9")
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_report(IntegralResult(0.5, 0.0, (0.5, 0.5)), "xml")


_ERROR_TABLE = [  # one input per library error class: its exit code and its error line
    (ParseError, 2, ["integrate", "--f", "sqrt(", "--interval", "0,1"],
     "unexpected end of input (at position 5)"),
    (ValueError, 2, ["integrate", "--f", "x", "--interval", "0,1", "--grid", "5"],
     "grid must be between 101 and 10000000 points, got 5"),
    (DomainError, 3, ["integrate", "--f", "x", "--interval=-1,1"],
     "intervals live on the non-negative half-line"),
    (NegativeFunctionError, 3, ["integrate", "--f=-x", "--interval", "0,1"],
     "function is negative at x=1.0: -1.0"),
    (UnsupportedCaseError, 3, ["bound", "--f", "x", "--g", "2-x", "--interval", "0,1",
                               "--s", "1", "--m", "1"],
     "no envelope distribution for mixed endpoints: f(b)-m*f(a)=1.0, g(b)-m*g(a)=-1.0"),
    (InvalidDistortionError, 3, ["integrate", "--f", "x", "--interval", "0,1", "--measure", "1-x"],
     "distortion map must vanish at 0, got 1.0"),
    (EvalError, 3, ["integrate", "--f", "exp(x)", "--interval", "0,800"],
     "integrand is not evaluable at 11278 of 100001 grid points"),
    (BracketError, 3, ["bound", "--f", "x", "--g", "x", "--interval", "0,1e300",
                       "--s", "1", "--m", "1"],
     "need finite lo < hi, got [0.0, inf]"),
]


@pytest.mark.parametrize("error,code,argv,message", _ERROR_TABLE,
                         ids=[error.__name__ for error, *_ in _ERROR_TABLE])
def test_each_error_class_has_its_exit_code(capsys, error, code, argv, message):
    with pytest.raises(error) as raised:
        _dispatch(build_parser().parse_args(argv))
    assert type(raised.value) is error
    assert run(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_each_error_class_is_a_usage_error_or_has_no_answer():
    # the CLI's exit code comes from this base: ValueError exits 2, NoAnswerError 3
    for name in exceptions.__all__:
        if name != "NoAnswerError":
            error = getattr(exceptions, name)
            assert issubclass(error, ValueError) != issubclass(error, NoAnswerError), name


def test_byte_identical_determinism():
    # run through the console entry twice; identical argv must give identical bytes
    argv = ["verify", "--f", "x^2", "--g", "2*x", "--interval", "1,4",
            "--s", "1", "--m", "1", "--format", "json"]
    script = ("import sys; from sugeno_bounds.cli import run; "
              "sys.exit(run(sys.argv[1:]))")
    r1 = subprocess.run([sys.executable, "-c", script, *argv],
                        capture_output=True, check=True, env=_src_env())
    r2 = subprocess.run([sys.executable, "-c", script, *argv],
                        capture_output=True, check=True, env=_src_env())
    assert r1.stdout == r2.stdout
    assert r1.stdout


def test_console_script_help():
    # call the function that pyproject.toml names as the sugeno-bounds script,
    # the way the generated script does
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^sugeno-bounds = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    r = subprocess.run([sys.executable, "-c",
                        f"import sys; from {module} import {func}; sys.exit({func}())",
                        "--help"],
                       capture_output=True, text=True, env=_src_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: sugeno-bounds")
    assert "integrate" in r.stdout
    assert "reproduce" in r.stdout


def test_module_entry_point():
    # python -m sugeno_bounds.cli runs the same main() as the console script
    env = _src_env()
    argv = [sys.executable, "-m", "sugeno_bounds.cli", "convexity", "--f", "x^2",
            "--interval", "0,1", "--s", "1", "--m", "1"]
    r = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0].split() == ["holds_on_grid", "true"]
    assert "skipped         0" in r.stdout
    r = subprocess.run([*argv, "--grid", "10"], capture_output=True, text=True, env=env)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "grid must be between 11 and" in r.stderr


@pytest.mark.parametrize("argv", [
    ["convexity", "--f", "2*x", "--interval", "0,1", "--s", "1", "--m", "1"],
    ["reproduce", "--format", "csv"],
])
def test_closed_stdout_exits_zero_without_traceback(argv):
    # the reader closes the pipe before the CLI writes, as `| head -1` can
    proc = subprocess.Popen([sys.executable, "-m", "sugeno_bounds.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


_ONE_EXCLUDED = ["integrate", "--f", "1/x", "--interval", "0,1"]
_ONE_EXCLUDED_OUT = "value        1\nresidual     0\nalpha_lo     1\nalpha_hi     1\ngrid_points  -\n"


def test_cli_prints_each_warning_on_one_line():
    # a source location and an echo of the source line would move with any edit to cli.py
    r = subprocess.run([sys.executable, "-m", "sugeno_bounds.cli", *_ONE_EXCLUDED],
                       capture_output=True, text=True, env=_src_env())
    assert r.returncode == 0
    assert r.stderr == "warning: excluded 1 non-evaluable grid point(s) from level sets\n"
    assert r.stdout == _ONE_EXCLUDED_OUT


def test_warning_lines_stay_inside_main(capsys, monkeypatch):
    show = warnings.showwarning
    monkeypatch.setattr(sys, "argv", ["sugeno-bounds", *_ONE_EXCLUDED])
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert warnings.showwarning is show
        with pytest.warns(RuntimeWarning, match="excluded 1 "):  # library callers warn as usual
            assert run(_ONE_EXCLUDED) == 0
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == _ONE_EXCLUDED_OUT * 2
    assert captured.err == "warning: excluded 1 non-evaluable grid point(s) from level sets\n"
