"""Expression grammar, chart manifests and the command-line surface."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fresh_python
from gradedpoisson import manifest, scalars
from gradedpoisson.cli import main
from gradedpoisson.exprparse import ExprError, parse_form_expr, parse_scalar_expr
from gradedpoisson.forms import Form
from gradedpoisson.geometry import ChartError, builtin_chart
from gradedpoisson.manifest import ManifestError, parse_manifest
from gradedpoisson import suites
from gradedpoisson.suites import run_suite
from reference import expression_value

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
# past the 4,300 digits that Python converts from text by default
HUGE_LITERAL = "7" * 5000


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
        ("0^0", 2, "power zero"),
        ("(x-x)^0", 6, "power zero"),
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


@pytest.mark.parametrize(
    "text,column,fragment",
    [
        ("dx", 1, "form of positive degree"),
        ("x*dy", 3, "form of positive degree"),
        ("  x + y*dx", 9, "form of positive degree"),
        ("x^dy + dx", 3, "form of positive degree"),
        ("  x/0", 4, "division by zero"),
    ],
)
def test_scalar_expression_errors_carry_columns(text, column, fragment):
    with pytest.raises(ExprError) as err:
        parse_scalar_expr(text, F)
    assert err.value.position == column
    assert fragment in str(err.value)


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


def test_manifest_parses_a_repeated_entry_text_once(monkeypatch):
    conformal = """\
    [chart] name=conformal, coords=x,y
    [metric] g.1.1=1/(1+x^2), g.2.2=1/(1+x^2)
    [symplectic] w.1.2=1/(1+x^2)
    """
    spelled = """\
    [chart] name=conformal, coords=x,y
    [metric] g.1.1=1/(1+x^2), g.2.2=(x^2+1)^-1
    [symplectic] w.1.2=1/(1 + x*x)
    """
    texts = []

    def counting(text, field):
        texts.append(text)
        return parse_scalar_expr(text, field)

    monkeypatch.setattr(manifest, "parse_scalar_expr", counting)
    once = parse_manifest(conformal)
    assert texts == ["1/(1+x^2)"]
    other = parse_manifest(spelled)
    assert (once.name, once.field.coords) == (other.name, other.field.coords)
    assert (once.g, once.w, once.l_tensor) == (other.g, other.w, other.l_tensor)
    assert once.g[0][0] == once.g[1][1] == once.w[0][1] == -once.w[1][0]


def test_manifest_reports_a_repeated_bad_entry_at_its_first_line():
    text = "[chart] name=p, coords=x,y\n[metric]\ng.1.1=x+\ng.2.2=x+\n[symplectic]\nw.1.2=1\n"
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert err.value.line == 3
    assert "unexpected end" in str(err.value)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("[weird]\n", 1, "unknown section"),
        ("name=plane\n", 1, "before any section"),
        ("[chart] name=p, coords=x,2y\n", 1, "bad coordinate name"),
        ("[chart] name=p, coords=x,x\n", 1, "duplicate coordinate"),
        ("[chart]\nname=p\ncoords=x,dx\n", 3, "would hide the differential of 'x'"),
        ("[chart] name=p, dim=3, coords=x,y\n[symplectic]\nw.1.2=1\n", 1, "dim=3"),
        ("[chart] name=p, coords=x,y\n", 1, "missing [symplectic]"),
        ("[chart] coords=x,y\n[symplectic]\nw.1.2=1\n", 1, "missing [chart] name"),
        (PLANE + "w.1.1=1\n", 8, "must be zero"),
        (PLANE + "[metric]\ng.1.2=1\ng.2.1=2\n", 10, "conflicts"),
        (PLANE + "w.2.1=1\n", 8, "conflicts"),
        (PLANE + "[metric]\ng.1.5=1\n", 9, "out of range"),
        # an index is checked against the coordinates even when it comes first
        ("[metric]\ng.3.3=1\n" + PLANE, 2, "index 3 out of range 1..2"),
        ("[ltensor]\nL.1.1.3=1\n" + PLANE, 2, "index 3 out of range 1..2"),
        (PLANE + "[metric]\ng.1.q=1\n", 9, "non-integer index"),
        (PLANE + "[ltensor]\nL.1.2.2=x\n", 9, "must vanish"),
        (PLANE + "[metric]\ng.1.1=x+\n", 9, "unexpected end"),
        ("[chart\n", 1, "unterminated"),
        ("[chart]\nplane\n", 2, "expected key=value"),
        ("[metric]\ng=1\n", 2, "g.i.i style key"),
        ("[chart] name=p, coords=x,y\n[symplectic]\nw.1.2=0^0\n", 3, "power zero"),
        (PLANE + "[metric]\ng.1.1=x*dy\n", 9, "positive degree (column 3)"),
        (PLANE + f"[metric]\ng.1.1={HUGE_LITERAL}\n", 9, "of 5000 digits is too long (column 1)"),
        (PLANE + "[metric]\ng.1.2=3^10000\n", 9, "more than 4300 digits, the digit bound"),
        (PLANE + "[metric]\ng.1.2=(x+y+1)^20000\n", 9, "more than 10000 terms, the size bound"),
        (PLANE + "[ltensor]\nL.1.1.2=x\nL.1.2.1=y\n", 10, "tensor entry (1,2,1) conflicts with an earlier one"),
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


# the built-ins with no canonical J, as manifests; some entries are written
# as their mirrors, which the mirror sign of their section fills back
BUILTIN_MANIFESTS = {
    "flat2": """\
    [chart] name=flat2, coords=x,y, kahler-expected=true
    [metric] g.1.1=1, g.2.2=1
    [symplectic] w.1.2=1
    """,
    "flat4": """\
    [chart] name=flat4, coords=x1,x2,x3,x4, kahler-expected=false
    [metric] g.1.3=1, g.4.2=1
    [symplectic] w.1.3=1, w.4.2=-1
    """,
    "sphere2": """\
    [chart] name=sphere2, coords=x,y, kahler-expected=true
    [metric] g.1.1=4/(1+x^2+y^2)^2, g.2.2=4*(x^2+y^2+1)^-2
    [symplectic] w.2.1=-4/(1+x^2+y^2)^2
    """,
    "halfplane": """\
    [chart] name=halfplane, coords=x,y, kahler-expected=true
    [metric] g.1.1=1/y^2, g.2.2=y^-2, g.2.1=0
    [symplectic] w.1.2=1/(y*y), w.1.1=0
    """,
}


@pytest.mark.parametrize("name", sorted(BUILTIN_MANIFESTS))
def test_builtin_charts_read_back_from_manifests(name):
    chart, builtin = parse_manifest(BUILTIN_MANIFESTS[name]), builtin_chart(name)
    assert chart.name == builtin.name
    assert (chart.g, chart.w, chart.kahler_expected) == (builtin.g, builtin.w, builtin.kahler_expected)
    assert chart.l_tensor is None
    got = run_suite(chart, suite="all", seed=42, samples=2).to_text()
    assert got == run_suite(builtin, suite="all", seed=42, samples=2).to_text()


def test_reports_are_deterministic():
    first = run_suite(CHART, suite="axioms", seed=7, samples=3)
    second = run_suite(CHART, suite="axioms", seed=7, samples=3)
    assert first.to_text() == second.to_text()
    assert first.to_json() == second.to_json()
    other = run_suite(CHART, suite="axioms", seed=8, samples=3)
    assert other.to_json() != first.to_json()


def _memo_entries():
    return sum(len(field._memo) for field in scalars._FIELDS.values())


@pytest.mark.parametrize(
    "kwargs", [{"samples": 0}, {"samples": -3}, {"max_form_degree": 0}]
)
def test_run_suite_rejects_an_empty_corpus(kwargs):
    X * Y
    with pytest.raises(ValueError, match="at least 1"):
        run_suite(CHART, suite="axioms", **kwargs)
    assert _memo_entries() == 0


def test_run_suite_leaves_the_scalar_memos_empty():
    X * Y
    assert _memo_entries() > 0
    assert run_suite(CHART, suite="axioms", samples=1).ok
    assert _memo_entries() == 0


@pytest.mark.parametrize(
    "argv,code",
    [
        (["bracket", "builtin:halfplane", "--alpha=x*dx", "--beta=y"], 0),
        (["check", "builtin:flat2", "--suite", "axioms", "--samples", "1"], 1),
        (["bracket", "builtin:halfplane", "--alpha=x*y/(x-x)", "--beta=y"], 2),
    ],
)
def test_cli_leaves_the_scalar_memos_empty(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(suites.CHECKS[0], "fn", lambda ctx: (False, "forced"))
    X * Y
    assert _memo_entries() > 0
    assert main(argv) == code
    assert _memo_entries() == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "builtin:halfplane", "--suite", "axioms", "--samples", "2"],
        ["bracket", "builtin:sphere2", "--alpha=x*dy", "--beta=y^2*dx", "--odd"],
    ],
)
def test_repeated_cli_calls_print_the_same_bytes(argv, capsys):
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == first


def _run_streams(argv):
    """main(argv) as (exit code, stdout, stderr), a SystemExit's code included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def test_a_repeated_cli_sequence_repeats_every_stream():
    # one parser serves every call of a process: a usage error or --help
    # must not change what a later call prints, and each call writes to the
    # streams in place when it runs
    sequence = [
        ["bracket", "builtin:halfplane", "--alpha=x*dx", "--beta=y"],
        ["check", "builtin:flat2", "--suite", "kahler", "--samples", "1"],
        ["charts"],
        ["check", "builtin:flat2", "--samples", "0"],
        ["bracket", "--help"],
        ["bracket", "builtin:flat2", "--alpha=x", "--beta=y", "--odd"],
    ]
    first = [_run_streams(argv) for argv in sequence]
    assert [run[0] for run in first] == [0, 0, 0, 2, 0, 0]
    assert "usage: gradedpoisson check" in first[3][2] and not first[3][1]
    assert "usage: gradedpoisson bracket" in first[4][1] and not first[4][2]
    assert [_run_streams(argv) for argv in sequence] == first


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


def test_negative_power_and_quotient_give_the_same_report(tmp_path, capsys):
    reports = []
    for name, entry in (("pow", "(1-x)^-1"), ("div", "1/(1-x)")):
        path = tmp_path / f"{name}.chart"
        path.write_text(PLANE.replace("w.1.2=1", f"w.1.2={entry}"))
        code = main(["check", str(path), "--suite", "all", "--samples", "2"])
        reports.append((code, capsys.readouterr()))
    assert reports[0] == reports[1]


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


# d(...) marks an exact differential in --fastpath operands only, so on a
# chart with a coordinate named d both spellings still mean what they say
D_PLANE = "[chart] name=dplane, coords=d,x\n[metric] g.1.1=1/x^2, g.2.2=1/x^2\n[symplectic] w.1.2=1/x^2\n"


@pytest.mark.parametrize(
    "target, fast, solver, want",
    [
        ("builtin:halfplane", ["d(x)", "d(x)"], ["dx", "dx"], "(y**2) + (-2)*dx^dy\n"),
        ("{tmp}/dplane.chart", ["d", "d(x)"], ["d", "dx"], "(x)*dx\n"),
    ],
    ids=["halfplane", "coordinate-named-d"],
)
def test_cli_fastpath_matches_solver(target, fast, solver, want, capsys, tmp_path):
    (tmp_path / "dplane.chart").write_text(D_PLANE)
    target = target.replace("{tmp}", str(tmp_path))
    assert main(["bracket", target, f"--alpha={fast[0]}", f"--beta={fast[1]}", "--fastpath"]) == 0
    assert capsys.readouterr().out == want
    assert main(["bracket", target, f"--alpha={solver[0]}", f"--beta={solver[1]}"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "builtin:nosuch"],
        ["check", "/nonexistent/path.chart"],
        ["bracket", "builtin:flat2", "--alpha", "x +", "--beta", "y"],
        ["bracket", "builtin:flat2", "--alpha=0^0", "--beta=y"],
        ["bracket", "builtin:flat2", "--alpha", "d(x)", "--beta", "y", "--fastpath"],
        ["bracket", "builtin:flat2", "--alpha", "x", "--beta", "y", "--fastpath", "--odd"],
        # a manifest that is not UTF-8, written by the test
        ["bracket", "{tmp}/bad.chart", "--alpha=x", "--beta=y"],
        # integers past the digit bound: a power is refused before it is
        # computed, a literal past the interpreter's limit is a syntax error
        ["bracket", "builtin:flat2", "--alpha=3^10000*x", "--beta=y"],
        ["bracket", "builtin:flat2", f"--alpha={HUGE_LITERAL}*x", "--beta=y"],
        ["bracket", "{tmp}/huge.chart", "--alpha=x", "--beta=y"],
        ["bracket", "builtin:flat2", "--alpha=3^10000000", "--beta=y"],
        # a product past the interpreter's limit fails when it is printed
        ["bracket", "builtin:flat2", "--alpha=3^4000*3^4000*3^4000*x", "--beta=y"],
    ],
)
def test_cli_usage_errors_exit_two(argv, capsys, tmp_path):
    (tmp_path / "bad.chart").write_bytes(b"\xff\xfe[chart]\n")
    (tmp_path / "huge.chart").write_text(PLANE.replace("w.1.2=1", f"w.1.2={HUGE_LITERAL}"))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--alpha=x", "--beta=1/(x-x)"], "--beta: division by zero (column 2)"),
        (["--alpha=x +", "--beta=y"], "--alpha: unexpected end of expression (column 4)"),
        (["--alpha=x", "--beta=y/0", "--fastpath"], "--beta: division by zero (column 2)"),
        (["--alpha=x", "--beta=y", "--fastpath", "--odd"], "--fastpath computes even brackets only"),
        (
            ["--alpha=d(x)", "--beta=y", "--fastpath"],
            "no closed form for [[df,h]]; swap the slots or drop --fastpath",
        ),
        # fastpath columns count in the operand as typed
        (["--alpha=d(x/0)", "--beta=y", "--fastpath"], "--alpha: division by zero (column 4)"),
        (["--alpha=  x/0", "--beta=y", "--fastpath"], "--alpha: division by zero (column 4)"),
        (
            ["--alpha=x*dy", "--beta=y", "--fastpath"],
            "--alpha: expected a scalar expression, got a form of positive degree (column 3)",
        ),
        (
            ["--alpha=d(x*dy)", "--beta=y", "--fastpath"],
            "--alpha: expected a scalar expression, got a form of positive degree (column 5)",
        ),
        (
            ["--alpha=x+" + HUGE_LITERAL, "--beta=y"],
            "--alpha: integer literal of 5000 digits is too long (column 3)",
        ),
    ],
)
def test_cli_bracket_error_lines(argv, line):
    assert _run_cli(["bracket", "builtin:flat2", *argv]) == (2, f"error: {line}\n")


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


# runs each command of sys.argv[1] (a Python literal) in one fresh interpreter
# and prints, after the import and after each call, whether the suites and
# json are loaded; it imports neither itself
LOADS_SUITES = """
import ast, contextlib, io, sys
from gradedpoisson.cli import main
loaded = lambda: ("gradedpoisson.suites" in sys.modules, "json" in sys.modules)
seen = [loaded()]
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    seen.append(loaded())
print(seen)
"""


def test_only_check_imports_the_suites():
    argvs = [
        ["bracket", "builtin:sphere2", "--alpha=x*dy", "--beta=y^2"],
        ["bracket", "builtin:sphere2", "--alpha=x*dy", "--beta=y^2", "--odd"],
        ["bracket", "builtin:sphere2", "--alpha=x*y", "--beta=d(x)", "--fastpath"],
        ["charts"],
        ["check", "builtin:flat2", "--suite", "axioms", "--samples", "1"],
    ]
    done = fresh_python("-c", LOADS_SUITES, repr(argvs), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr([(False, False)] * 5 + [(True, True)]) + "\n"


def test_an_unknown_suite_lists_the_six_in_order():
    argv = ["check", "builtin:flat2", "--suite", "nope"]
    done = fresh_python("-m", "gradedpoisson.cli", *argv, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    listed = done.stderr.splitlines()[-1].partition("choose from ")[2]
    want = ("axioms", "theorems", "recursion", "kahler", "paracomplex", "all")
    assert [name.strip("'") for name in listed.rstrip(")").split(", ")] == list(want)


# -- exit-code fuzzing ------------------------------------------------------------

# Integer literals stay in 0..3 and tokens are joined by spaces, so no
# exponent exceeds 3 in size and no call takes long. Powers come first among
# the leaves, which hypothesis then draws often: literal exponents are where
# the grammar has its edge cases.
_TOKENS = ("0", "1", "2", "3", "x", "y", "dx", "dy", "+", "-", "*", "/", "^", "(", ")")
_ATOMS = st.sampled_from(_TOKENS[:8])
_BASES = st.one_of(_ATOMS, st.builds("({} {} {})".format, _ATOMS, st.sampled_from("+-"), _ATOMS))
EXPRESSIONS = st.one_of(
    st.recursive(
        st.one_of(st.builds("{}^{}".format, _BASES, st.integers(-3, 3)), _ATOMS),
        lambda inner: st.one_of(
            st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
            inner.map("-{}".format),
        ),
        max_leaves=10,
    ),
    st.lists(st.sampled_from(_TOKENS), max_size=10).map(" ".join),
)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(EXPRESSIONS, EXPRESSIONS, st.sampled_from(([], ["--odd"], ["--fastpath"])))
def test_any_bracket_operand_exits_cleanly(alpha, beta, route):
    code, err = _run_cli(["bracket", "builtin:flat2", f"--alpha={alpha}", f"--beta={beta}", *route])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# -- value oracle -----------------------------------------------------------------

# Expression trees in the shape reference.expression_value reads, drawn so
# that every one parses: / divides by a nonzero scalar, a power with an
# integer exponent has a scalar base (never zero under an exponent <= 0), and
# the right operand of a wedge ^ has a part of positive degree. Exponents
# stay in -2..2 so no value grows large.
_SIGNS = st.text("+-", max_size=3)
_LEAVES = st.one_of(
    st.tuples(st.just("int"), st.integers(0, 3)),
    st.tuples(st.sampled_from(("coord", "diff")), st.sampled_from(F.coords)),
)


def _value(tree):
    return expression_value(F, tree)


def _is_scalar(tree):
    return set(_value(tree).degrees()) <= {0}


def _defined(power):
    """False for a zero base under an exponent <= 0."""
    _, base, signs, n = power
    return (n > 0 and signs.count("-") % 2 == 0) or not _value(base).is_zero


def _extend(inner, scalars):
    divisors = scalars.filter(lambda tree: not _value(tree).is_zero)
    powers = st.tuples(st.just("^"), scalars, _SIGNS, st.integers(0, 2)).filter(_defined)
    positive = st.one_of(
        st.tuples(st.just("diff"), st.sampled_from(F.coords)),
        inner.filter(lambda tree: not _is_scalar(tree)),
    )
    return st.one_of(
        st.tuples(st.just("sign"), _SIGNS.filter(bool), inner),
        st.tuples(st.sampled_from("+-*"), inner, inner),
        st.tuples(st.just("/"), inner, divisors),
        powers,
        st.tuples(st.just("wedge"), inner, _SIGNS, positive),
    )


_SCALAR_TREES = st.recursive(
    st.tuples(st.just("int"), st.integers(0, 3)) | st.tuples(st.just("coord"), st.sampled_from(F.coords)),
    lambda inner: _extend(inner, inner).filter(_is_scalar),
    max_leaves=4,
)
TREES = st.recursive(_LEAVES, lambda inner: _extend(inner, _SCALAR_TREES), max_leaves=8)

# binding levels: 0 a sum, 1 a product, 2 a signed operand, 3 a power, 4 an atom
_LEVELS = {"sign": 2, "+": 0, "-": 0, "*": 1, "/": 1, "^": 3, "wedge": 3}


def _text(tree, level=0):
    """tree as text, in parentheses only where the grammar needs them."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind in ("coord", "diff"):
        return tree[1] if kind == "coord" else "d" + tree[1]
    if kind == "sign":
        text = tree[1] + _text(tree[2], 3)
    elif kind == "^":
        text = f"{_text(tree[1], 3)}^{tree[2]}{tree[3]}"
    elif kind == "wedge":
        text = f"{_text(tree[1], 3)}^{tree[2]}{_text(tree[3], 4)}"
    else:
        inner = _LEVELS[kind]
        text = f"{_text(tree[1], inner)}{kind}{_text(tree[2], inner + 1)}"
    return text if _LEVELS[kind] >= level else f"({text})"


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_parsed_expressions_have_their_trees_values(tree):
    assert parse_form_expr(_text(tree), CHART) == _value(tree)


def test_power_binds_left_to_right_and_tighter_than_a_sign():
    x = ("coord", "x")
    cubed_square = ("^", ("^", x, "", 2), "", 3)
    negated_square = ("sign", "-", ("^", x, "", 2))
    assert (_text(cubed_square), _text(negated_square)) == ("x^2^3", "-x^2")
    assert parse_form_expr("x^2^3", CHART) == Form.function(X**6)
    assert parse_form_expr("-x^2", CHART) == -Form.function(X**2)


# a key for each path of the tensor fill: a diagonal and a mirrored metric
# entry, an independent and a mirrored symplectic one, and an [ltensor]
# entry in either order of its last index pair or on its zero diagonal
@settings(max_examples=100, deadline=None)
@given(
    EXPRESSIONS,
    st.sampled_from(("g.1.1", "g.2.1", "w.1.2", "w.2.1", "L.1.1.2", "L.1.2.1", "L.1.2.2")),
    st.booleans(),
)
def test_any_manifest_entry_exits_cleanly(tmp_path_factory, entry, key, odd):
    values = {"g.1.1": "1", "g.2.2": "1", "w.1.2": "1"}
    if key == "w.2.1":
        del values["w.1.2"]  # the mirror stands in for the entry
    values[key] = entry
    sections = {"g": "[metric]", "w": "[symplectic]", "L": "[ltensor]"}
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.chart"
    path.write_text(
        "[chart] name=fuzz, coords=x,y\n"
        + "".join(f"{sections[k[0]]}\n{k}={v}\n" for k, v in values.items())
    )
    argv = ["bracket", str(path), "--alpha=x*dy", "--beta=y"] + (["--odd"] if odd else [])
    code, err = _run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
