"""Expression grammar, chart manifests and the command-line surface."""

import json

import pytest

from gradedpoisson.cli import main
from gradedpoisson.exprparse import ExprError, parse_form_expr, parse_scalar_expr
from gradedpoisson.forms import Form
from gradedpoisson.geometry import ChartError, builtin_chart
from gradedpoisson.manifest import ManifestError, parse_manifest
from gradedpoisson import suites
from gradedpoisson.suites import run_suite

CHART = builtin_chart("flat2")
F = CHART.field
X, Y = F.gens
DX = Form.coordinate_diff(F, 0)
DY = Form.coordinate_diff(F, 1)

PLANE = """\
# flat plane with the standard area form
[chart] name=plane, dim=2, coords=x,y
[metric]
g.1.1=1
g.2.2=1
[symplectic]
w.1.2=1
"""


def test_expression_examples():
    assert parse_form_expr("x*dx^dy", CHART) == Form.function(X).wedge(DX).wedge(DY)
    assert parse_form_expr("1/(1+x^2)", CHART) == Form.function(1 / (1 + X**2))
    assert parse_form_expr("dx^dx", CHART) == Form.zero(F)
    assert parse_form_expr("x^-2", CHART) == Form.function(X ** (-2))
    assert parse_form_expr("(x+y)^2", CHART) == Form.function((X + Y) ** 2)
    assert parse_form_expr("-dx", CHART) == -DX
    assert parse_form_expr("dx^dy - dy^dx", CHART) == DX.wedge(DY) * F.constant(2)
    assert parse_form_expr("x*(dx + dy)", CHART) == Form.function(X).wedge(DX + DY)
    assert parse_form_expr("2*x - y/3", CHART) == Form.function(2 * X - Y / 3)


def test_power_joins_wedge_factors():
    assert parse_form_expr("dx^dy", CHART) == DX.wedge(DY)
    assert parse_form_expr("x^dx", CHART) == Form.function(X).wedge(DX)


@pytest.mark.parametrize(
    "text,column,fragment",
    [
        ("x +", 4, "unexpected end"),
        ("x $ y", 3, "malformed token"),
        ("q", 1, "unknown coordinate"),
        ("dz", 1, "unknown coordinate"),
        ("x/(y-y)", 2, "division by zero"),
        ("x/dy", 2, "divide by a form"),
        ("dx^2", 3, "raise a form"),
        ("x^y", 2, "integer literal"),
        ("(x", 3, "expected ')'"),
        ("x y", 3, "unexpected 'y'"),
    ],
)
def test_expression_errors_carry_columns(text, column, fragment):
    with pytest.raises(ExprError) as err:
        parse_form_expr(text, CHART)
    assert err.value.position == column
    assert fragment in str(err.value)


def test_scalar_parse_rejects_positive_degree():
    assert parse_scalar_expr("x*y/2", F) == X * Y / 2
    with pytest.raises(ExprError):
        parse_scalar_expr("dx", F)


def test_manifest_round_trip():
    chart = parse_manifest(PLANE)
    assert chart.name == "plane"
    assert chart.field.coords == ("x", "y")
    assert chart.g[0][0] == chart.field.one
    assert chart.w[0][1] == chart.field.one
    assert chart.w[1][0] == -chart.field.one
    assert chart.l_tensor is None


def test_manifest_flags_and_tensor_fill():
    text = """\
    [chart]
    name=lifted
    coords=q,v
    kahler-expected=false
    [metric] g.1.1=1, g.2.2=1
    [symplectic] w.2.1=-1
    [ltensor] L.2.1.2=q
    """
    chart = parse_manifest(text)
    assert chart.kahler_expected is False
    assert chart.w[0][1] == chart.field.one
    q = chart.field.coordinate("q")
    assert chart.l_tensor[1][0][1] == q
    assert chart.l_tensor[1][1][0] == -q


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("[weird]\n", 1, "unknown section"),
        ("name=plane\n", 1, "before any section"),
        ("[chart] name=p, coords=x,2y\n", 1, "bad coordinate name"),
        ("[chart] name=p, coords=x,x\n", 1, "duplicate coordinate"),
        ("[chart] name=p, dim=3, coords=x,y\n[symplectic]\nw.1.2=1\n", 1, "dim=3"),
        ("[chart] name=p, coords=x,y\n", 1, "missing [symplectic]"),
        ("[chart] coords=x,y\n[symplectic]\nw.1.2=1\n", 1, "missing [chart] name"),
        (PLANE + "w.1.1=1\n", 8, "must be zero"),
        (PLANE + "[metric]\ng.1.2=1\ng.2.1=2\n", 10, "conflicts"),
        (PLANE + "w.2.1=1\n", 8, "conflicts"),
        (PLANE + "[metric]\ng.1.5=1\n", 9, "out of range"),
        (PLANE + "[metric]\ng.1.q=1\n", 9, "non-integer index"),
        (PLANE + "[ltensor]\nL.1.2.2=x\n", 9, "must vanish"),
        (PLANE + "[metric]\ng.1.1=x+\n", 9, "unexpected end"),
        ("[chart\n", 1, "unterminated"),
        ("[chart]\nplane\n", 2, "expected key=value"),
        ("[metric]\ng=1\n", 2, "g.i.i style key"),
    ],
)
def test_manifest_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_manifest_rejects_non_closed_symplectic_form():
    text = """\
    [chart] name=open4, coords=x1,x2,x3,x4
    [metric] g.1.1=1, g.2.2=1, g.3.3=1, g.4.4=1
    [symplectic] w.1.2=x3, w.3.4=1
    """
    with pytest.raises(ChartError, match="closed"):
        parse_manifest(text)


def test_manifest_rejects_singular_metric():
    text = """\
    [chart] name=thin, coords=x,y
    [metric] g.1.1=1, g.1.2=1, g.2.2=1
    [symplectic] w.1.2=1
    """
    with pytest.raises(ChartError, match="invertible|degenerate|singular"):
        parse_manifest(text)


def test_reports_are_deterministic():
    first = run_suite(CHART, suite="axioms", seed=7, samples=3)
    second = run_suite(CHART, suite="axioms", seed=7, samples=3)
    assert first.to_text() == second.to_text()
    assert first.to_json() == second.to_json()
    other = run_suite(CHART, suite="axioms", seed=8, samples=3)
    assert other.to_json() != first.to_json()


@pytest.mark.parametrize(
    "kwargs", [{"samples": 0}, {"samples": -3}, {"max_form_degree": 0}]
)
def test_run_suite_rejects_an_empty_corpus(kwargs):
    with pytest.raises(ValueError, match="at least 1"):
        run_suite(CHART, suite="axioms", **kwargs)


def test_a_raising_check_is_an_error_not_a_crash(monkeypatch, capsys):
    def broken(ctx):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(suites.CHECKS[0], "fn", broken)
    argv = ["check", "builtin:flat2", "--suite", "axioms", "--samples", "2"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert (
        "ERROR even-bilinearity :: [[a+b,c]] = [[a,c]] + [[b,c]] (even bracket)"
        " :: witness: ZeroDivisionError: division by zero\n"
    ) in out
    assert "PASS even-degree" in out
    assert out.endswith("summary: 11 checks, 10 passed, 1 failed\n")
    assert main(argv + ["--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["status"] == "error"
    assert payload["checks"][0]["witness"] == "ZeroDivisionError: division by zero"
    assert payload["summary"] == {"checks": 11, "passed": 10, "failed": 1}


def test_cli_charts_lists_builtins(capsys):
    assert main(["charts"]) == 0
    out = capsys.readouterr().out
    for name in ("flat2", "flat4", "halfplane", "sphere2", "tlift1", "tlift1q"):
        assert name in out


def test_cli_check_passes_on_builtin(capsys):
    code = main(["check", "builtin:flat2", "--suite", "axioms", "--samples", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS even-jacobi" in out
    assert "0 failed" in out


def test_cli_check_reads_manifest_files(tmp_path, capsys):
    path = tmp_path / "plane.chart"
    path.write_text(PLANE)
    code = main(["check", str(path), "--suite", "axioms", "--samples", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chart: plane" in out


def test_cli_check_fails_on_incompatible_tensor(tmp_path, capsys):
    path = tmp_path / "bad.chart"
    path.write_text(
        "[chart] name=badL, coords=x1,x2,x3,x4\n"
        "[metric] g.1.1=1, g.2.2=1, g.3.3=1, g.4.4=1\n"
        "[symplectic] w.1.3=1, w.2.4=1\n"
        "[ltensor] L.1.1.2=1\n"
    )
    code = main(["check", str(path), "--suite", "theorems", "--samples", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL locally-hamiltonian" in out
    assert "witness" in out


def test_cli_json_report(capsys):
    code = main(
        ["check", "builtin:flat2", "--suite", "axioms", "--samples", "3", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["chart"] == "flat2"
    assert payload["summary"]["failed"] == 0
    assert {c["id"] for c in payload["checks"]} >= {"even-jacobi", "odd-jacobi"}


def test_cli_bracket_routes(capsys):
    assert main(["bracket", "builtin:flat2", "--alpha", "x", "--beta", "y"]) == 0
    assert capsys.readouterr().out.strip() == "(1)"
    assert main(["bracket", "builtin:flat2", "--alpha", "x*dx", "--beta", "y*dy", "--odd"]) == 0
    out = capsys.readouterr().out
    assert "dx" in out and "dy" in out


def test_cli_fastpath_matches_solver(capsys):
    assert (
        main(["bracket", "builtin:halfplane", "--alpha", "d(x)", "--beta", "d(x)", "--fastpath"])
        == 0
    )
    fast = capsys.readouterr().out
    assert main(["bracket", "builtin:halfplane", "--alpha", "dx", "--beta", "dx"]) == 0
    assert capsys.readouterr().out == fast


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "builtin:nosuch"],
        ["check", "/nonexistent/path.chart"],
        ["bracket", "builtin:flat2", "--alpha", "x +", "--beta", "y"],
        ["bracket", "builtin:flat2", "--alpha", "d(x)", "--beta", "y", "--fastpath"],
        ["bracket", "builtin:flat2", "--alpha", "x", "--beta", "y", "--fastpath", "--odd"],
    ],
)
def test_cli_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["check", "builtin:flat2", "--samples", "0"],
        ["check", "builtin:flat2", "--samples", "-3"],
        ["check", "builtin:flat2", "--max-form-degree", "0"],
    ],
)
def test_cli_rejects_unknown_command(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
