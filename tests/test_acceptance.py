"""The acceptance gate: fifteen criteria, one printed verdict line each.

Each criterion reads the deterministic suite reports (seed 42, eight
corpus members per chart) and asserts exact symbolic equality; there is
no tolerance anywhere. The printed lines bypass capture so a plain
pytest run shows the verdict table inline. The same reports must also
match the committed golden texts under tests/golden byte for byte.
"""

from pathlib import Path

import pytest

from gradedpoisson import scalars, suites
from gradedpoisson.forms import VectorValuedForm
from gradedpoisson.geometry import ChartGeometry, builtin_chart
from gradedpoisson.graded import theta_even_cached
from gradedpoisson.scalars import RationalFunction
from gradedpoisson.suites import SuiteContext, check_locally_hamiltonian, run_suite

ALL_CHARTS = ("flat2", "flat4", "halfplane", "sphere2", "tlift1", "tlift1q")
AXIOM_CHARTS = ("flat2", "sphere2", "halfplane", "tlift1q")
KAHLER_CHARTS = ("flat2", "sphere2", "halfplane")
LIFT_CHARTS = ("tlift1", "tlift1q")

EVEN_AXIOMS = (
    "even-bilinearity",
    "even-degree",
    "even-commutativity",
    "even-leibniz",
    "even-jacobi",
)
ODD_AXIOMS = (
    "odd-bilinearity",
    "odd-degree",
    "odd-commutativity",
    "odd-leibniz",
    "odd-jacobi",
)


@pytest.fixture(scope="module")
def reports():
    return {
        name: run_suite(builtin_chart(name), suite="all", seed=42, samples=8)
        for name in ALL_CHARTS
    }


GOLDEN = Path(__file__).parent / "golden"
# the --samples 2 reports that the benchmark's suite workloads check
BENCH_GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize(
    "name, samples",
    [pytest.param(name, 8, id=name) for name in ALL_CHARTS]
    + [pytest.param(name, 2, id=f"{name}-samples2") for name in ALL_CHARTS],
)
def test_reports_match_golden(reports, name, samples):
    # the text of check builtin:<name> --suite all --seed 42 --samples <n>;
    # a refactor must keep it byte for byte
    if samples == 8:
        got, golden = reports[name], GOLDEN
    else:
        got, golden = run_suite(builtin_chart(name), suite="all", seed=42, samples=2), BENCH_GOLDEN
    want = (golden / f"check-{name}-seed42.txt").read_text(encoding="utf-8")
    assert got.to_text() == want


@pytest.mark.parametrize("name", ("sphere2", "halfplane", "tlift1q"))
def test_recursion_verdicts_do_not_depend_on_the_solve_basis(name):
    # the checks read coefficients in the basis they name, so solving over
    # the lie tabulation instead of the nabla one changes no record
    chart = builtin_chart(name)
    ctx = SuiteContext(chart, 42, 2, 2)
    by_id = {check.id: check.fn for check in suites.CHECKS}
    checks = (suites.check_solution_parity, by_id["even-chain"], by_id["odd-chain"])
    nabla = [check(ctx) for check in checks]
    assert all(ok for ok, _ in nabla)
    ctx.theta = theta_even_cached(chart, "lie")
    assert [check(ctx) for check in checks] == nabla


def test_recursion_checks_shift_each_solution_once(monkeypatch):
    # solution-parity, even-chain and odd-chain each read D_f or D_df over
    # the nabla basics; a derivation holds its lie coefficients and a nabla
    # read adds the algebraic connection twist, so none of them applies
    # dnabla: all 12 calls are the fastpath check's closed forms (24 when
    # each solution was shifted once, 36 when every read shifted it)
    calls = []
    dnabla = ChartGeometry.dnabla

    def counting(self, vvform):
        calls.append(vvform)
        return dnabla(self, vvform)

    monkeypatch.setattr(ChartGeometry, "dnabla", counting)
    report = run_suite(builtin_chart("sphere2"), suite="recursion", seed=42, samples=2)
    assert report.failed == 0
    assert len(calls) <= 12


@pytest.mark.parametrize("name", ("flat2", "sphere2", "tlift1"))
def test_kahler_checks_negate_no_vector_valued_form(monkeypatch, name):
    # kahler-seed and kahler-chain compare d^nabla of the chain with its odd
    # terms by is_negation_of, never building the negation, and the chains
    # carry their signs in apply_endo
    ctx = SuiteContext(builtin_chart(name), 42, 2, 2)
    checks = (suites.check_kahler_seed, suites.check_kahler_chain)
    want = [check(ctx) for check in checks]

    negations = []
    negate = VectorValuedForm.__neg__

    def counting(self):
        negations.append(self)
        return negate(self)

    monkeypatch.setattr(VectorValuedForm, "__neg__", counting)
    assert [check(ctx) for check in checks] == want
    assert negations == []


def test_tensor_characterization_builds_no_chart(monkeypatch):
    # each L sample is a correction to the chart's own Theta_{omega,g}
    ctx = SuiteContext(builtin_chart("sphere2"), 42, 2, 2)
    built = []
    init = ChartGeometry.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChartGeometry, "__init__", counting)
    ok, note = suites.check_tensor_insertion_characterization(ctx)
    assert ok and note.endswith("failed for 3 nonzero samples, as characterized")
    assert built == []


@pytest.mark.parametrize("name", ("flat2", "sphere2", "tlift1"))
def test_tensor_characterization_fails_on_a_zero_sample(monkeypatch, name):
    # L = 0 leaves iota_d Theta_{omega,g,L} = lambda_omega, so a zero sample
    # among the nonzero ones must fail the check
    chart = builtin_chart(name)
    samples = suites._l_samples(chart)
    zero = [[[chart.field.zero] * chart.dim for _ in range(chart.dim)] for _ in range(chart.dim)]
    monkeypatch.setattr(suites, "_l_samples", lambda chart: samples[:1] + [zero] + samples[1:])
    ok, witness = suites.check_tensor_insertion_characterization(SuiteContext(chart, 42, 2, 2))
    assert not ok
    assert witness.startswith("nonzero sample 1 with L(e_1; e_1, e_2) = ")
    assert witness.endswith(" left the insertion unchanged")


@pytest.mark.parametrize(
    "name, mul_budget, partial_budget",
    [
        ("flat4", 811, 1881),
        ("sphere2", 1215, 570),
        ("tlift1q", 736, 533),
        ("halfplane", 838, 544),
    ],
    ids=["flat4", "sphere2", "tlift1q", "halfplane"],
)
def test_contracts_skip_zero_christoffel_and_curvature_entries(monkeypatch, name, mul_budget, partial_budget):
    # flat4's Christoffel symbols and curvature all vanish, and most entries
    # of its matrices are zero; contractions over their nonzero entries leave
    # 811 scalar products in a full check, where dense loops over every
    # entry made 13,375. d differentiates a coefficient only along the
    # directions its term lacks, and X_f takes each d_b f once: 1,881
    # partial derivatives, 2,417 when X_f took each n times. sphere2 is
    # curved and its metric conformal, so most Christoffel entries and every
    # curvature table are live there. tlift1q's metric and J are assembled
    # from the blocks g N and N of the tangent lift, each entry one dot. The
    # connection twist scales each term by Gamma once, with no wedge by dx^j
    # that multiplies it by one first: sphere2 made 1,516 products and
    # halfplane 1,004 when it did. The tensor check builds Theta_{omega,g,L}
    # on the chart it has, as a correction to the cached Theta_{omega,g}:
    # rebuilding a chart and its Theta for each L sample made 908, 1,292,
    # 817 and 902 products and 1,977, 600, 560 and 562 partials. The
    # bivector insertion sums lam^{ab} i_a i_b over a < b only: summing
    # over every a, b and halving made 820, 1,241, 744 and 856 products. A
    # curvature pairing whose wedges with R4 all pass the chart's dimension
    # is zero at once: multiplying it out made 1,233 and 848 on sphere2 and
    # halfplane
    calls = {"__mul__": 0, "partial": 0}

    def counting(name):
        method = getattr(RationalFunction, name)

        def counted(self, arg):
            calls[name] += 1
            return method(self, arg)

        monkeypatch.setattr(RationalFunction, name, counted)

    counting("__mul__")
    counting("partial")
    report = run_suite(builtin_chart(name), suite="all", seed=42, samples=2)
    assert report.failed == 0
    assert calls["__mul__"] <= mul_budget
    assert calls["partial"] <= partial_budget


@pytest.mark.parametrize(
    "name, succeeded, failed",
    [("sphere2", 321, 89), ("tlift1q", 93, 101)],
    ids=["sphere2", "tlift1q"],
)
def test_scalar_trial_divisions_are_pinned(monkeypatch, name, succeeded, failed):
    # products, sums and partial derivatives cancel a factor only by trial
    # division; how they find which factors to try may change, but never
    # which divisions they make: a full check of each curved chart makes
    # exactly these exact quotients, and fails exactly these. The order of
    # the additions into a coefficient fixes the sequence; accumulating the
    # connection twist term by term into the coefficient it shifts moved
    # sphere2 from 322/228 and tlift1q from 96/326; building Theta_{omega,g,L}
    # on the base chart, with no chart per L sample, made only failed
    # divisions go (sphere2 228 -> 213, tlift1q 314 -> 305), and so did
    # summing the bivector insertion over a < b, with no halving of a sum
    # over every a, b (tlift1q 305 -> 297). A numerator of one term is no
    # longer trial-divided by a factor of two or more terms, which cannot
    # divide it (failed: sphere2 213 -> 91, tlift1q 297 -> 101). Writing
    # the one and the zeros of a Gauss-Jordan pivot column, rather than
    # computing p * p^-1 and a - a * 1, dropped the divisions those products
    # made (succeeded: sphere2 326 -> 324, tlift1q 96 -> 93), and so did
    # ending the fast path's even chain at degree dim - 2, which spares a
    # 2-D chart J and its inverse (sphere2 324 -> 320). Building the
    # curvature 2-forms from the connection 1-forms by Cartan's structure
    # equation, not from a 4-index table, moved sphere2 from 320/91 to 321/89
    outcomes = {True: 0, False: 0}
    exact_quotient = scalars._exact_quotient

    def counted(lay, num, factor):
        quotient = exact_quotient(lay, num, factor)
        outcomes[quotient is not None] += 1
        return quotient

    monkeypatch.setattr(scalars, "_exact_quotient", counted)
    report = run_suite(builtin_chart(name), suite="all", seed=42, samples=2)
    assert report.failed == 0
    assert (outcomes[True], outcomes[False]) == (succeeded, failed)


def test_a_failing_axiom_check_carries_a_nonzero_witness():
    # weight 1 is the odd bracket's sign rule, wrong for the even bracket;
    # the third pair (a 2-form and a function) is the first it gets wrong
    ctx = SuiteContext(builtin_chart("flat2"), 42, 3, 2)
    ok, witness = suites._check_commutativity(ctx, bracket=suites._even, weight=1)
    assert not ok
    assert witness.startswith("lhs - rhs = ") and witness != "lhs - rhs = 0"


def _record(reports, chart, check_id):
    for record in reports[chart].records:
        if record.id == check_id:
            return record
    raise AssertionError(f"no record {check_id} in the {chart} report")


def _failures(reports, charts, ids):
    bad = []
    for chart in charts:
        for check_id in ids:
            record = _record(reports, chart, check_id)
            if record.status != "pass":
                bad.append(f"{chart}:{check_id} ({record.witness})")
    return bad


def _verdict(capfd, number, label, failures):
    ok = not failures
    with capfd.disabled():
        print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, "; ".join(failures)


def test_criterion_01_graded_poisson_axioms(reports, capfd):
    failures = _failures(reports, AXIOM_CHARTS, EVEN_AXIOMS + ODD_AXIOMS)
    for chart in AXIOM_CHARTS:
        if len(reports[chart].corpus_functions) < 8:
            failures.append(f"{chart}: corpus has fewer than 8 functions")
        if len(reports[chart].corpus_one_forms) < 8:
            failures.append(f"{chart}: corpus has fewer than 8 one-forms")
    _verdict(capfd, 1, "all five graded Poisson axioms, both brackets", failures)


def test_criterion_02_classical_extension(reports, capfd):
    failures = _failures(reports, ALL_CHARTS, ("poisson-extension",))
    _verdict(
        capfd, 2, "degree-zero part of the function bracket is the classical one", failures
    )


def test_criterion_03_exterior_derivative_identities(reports, capfd):
    failures = _failures(reports, ALL_CHARTS, ("exterior-insertion", "exterior-lie"))
    _verdict(
        capfd,
        3,
        "inserting d into the even form gives the symplectic potential; "
        "its graded Lie derivative gives the odd form",
        failures,
    )


def test_criterion_04_metric_potential_annihilates_d(reports, capfd):
    failures = _failures(reports, ALL_CHARTS, ("metric-potential-on-d",))
    _verdict(capfd, 4, "the metric potential pairs to zero with d", failures)


def test_criterion_05_tensor_term_characterization(reports, capfd):
    failures = _failures(reports, ALL_CHARTS, ("tensor-insertion-characterization",))
    _verdict(
        capfd,
        5,
        "the tensor-extended form reproduces the symplectic potential only "
        "for a vanishing tensor (three nonzero samples refuted with witnesses)",
        failures,
    )


def test_criterion_06_derivative_defect_identity(reports, capfd):
    failures = _failures(reports, ("flat2", "sphere2"), ("defect-identity",))
    _verdict(
        capfd,
        6,
        "the bracket derivative defect equals the odd pairing of Hamiltonian fields",
        failures,
    )


def test_criterion_07_solution_parity(reports, capfd):
    failures = _failures(reports, ALL_CHARTS, ("solution-parity",))
    _verdict(
        capfd,
        7,
        "function solutions are purely even; differential solutions insert the "
        "sharp of the differential",
        failures,
    )


def test_criterion_08_componentwise_recursion(reports, capfd):
    failures = _failures(reports, ALL_CHARTS, ("even-chain", "odd-chain", "sign-outcome"))
    for chart in ALL_CHARTS:
        if not _record(reports, chart, "sign-outcome").witness:
            failures.append(f"{chart}: sign resolution missing from the report")
    _verdict(
        capfd,
        8,
        "componentwise recursion matches the generic solver, sign resolution recorded",
        failures,
    )


def test_criterion_09_kahler_chain(reports, capfd):
    failures = _failures(reports, KAHLER_CHARTS, ("kahler-seed", "kahler-chain"))
    _verdict(
        capfd,
        9,
        "curvature chain identities hold on the charts flagged compatible",
        failures,
    )


def test_criterion_10_fastpath(reports, capfd):
    failures = _failures(reports, KAHLER_CHARTS, ("fastpath",))
    for chart in set(ALL_CHARTS) - set(KAHLER_CHARTS):
        record = _record(reports, chart, "fastpath")
        if record.status != "pass" or not record.witness:
            failures.append(f"{chart}: expected a recorded, not asserted, outcome")
    _verdict(
        capfd,
        10,
        "closed-form bracket shortcuts match the solver where asserted, "
        "recorded with witnesses elsewhere",
        failures,
    )


def test_criterion_11_endomorphism_insertion(reports, capfd):
    failures = _failures(
        reports,
        ALL_CHARTS,
        ("omega-hamiltonian", "metric-potential-pairing", "nabla-j-symmetry"),
    )
    _verdict(
        capfd,
        11,
        "the symplectic form is the Hamiltonian of the endomorphism insertion; "
        "potential pairing and covariant symmetry hold",
        failures,
    )


def test_criterion_12_locally_hamiltonian_characterization(capfd):
    def flat4_with(entries, name):
        base = builtin_chart("flat4")
        f = base.field
        rows = [[[f.zero for _ in range(4)] for _ in range(4)] for _ in range(4)]
        for (i, j, k), v in entries.items():
            rows[i][j][k] = f.constant(v)
            rows[i][k][j] = -f.constant(v)
        return ChartGeometry(
            name,
            f.coords,
            [[base.g[i][j] for j in range(4)] for i in range(4)],
            [[base.w[i][j] for j in range(4)] for i in range(4)],
            l_tensor=rows,
            kahler_expected=False,
            canonical_j=base.canonical_j,
        )

    failures = []
    compatible = flat4_with({(0, 0, 2): 1}, "flat4_compat")
    ok, witness = check_locally_hamiltonian(SuiteContext(compatible, 42, 2, 1))
    if not ok:
        failures.append(f"compatible tensor rejected: {witness}")
    violating = flat4_with({(0, 0, 1): 1}, "flat4_viol")
    ok, witness = check_locally_hamiltonian(SuiteContext(violating, 42, 2, 1))
    if ok:
        failures.append("violating tensor slipped through")
    elif not witness:
        failures.append("violating tensor rejected without a witness")
    _verdict(
        capfd,
        12,
        "the endomorphism insertion stays locally Hamiltonian exactly for "
        "compatible tensors",
        failures,
    )


def test_criterion_13_tangent_lift_charts(reports, capfd):
    failures = _failures(
        reports,
        LIFT_CHARTS,
        ("j-compatibility", "j-square", "para-hermitian", "omega-hamiltonian"),
    )
    _verdict(
        capfd,
        13,
        "tangent-lift charts carry a product structure compatible with both "
        "base metrics",
        failures,
    )


def test_criterion_14_construction_consistency(reports, capfd):
    failures = _failures(
        reports, ALL_CHARTS, ("construction-consistency", "theta-determinant")
    )
    _verdict(
        capfd,
        14,
        "three constructions of the even form coincide and its block "
        "determinant factors as det w times det g",
        failures,
    )


def test_criterion_15_odd_bracket_oracles(reports, capfd):
    failures = _failures(reports, ("flat2",), ("ks-cross-oracle", "ks-poisson-differential"))
    record = _record(reports, "flat2", "ks-cross-oracle")
    if not record.witness or "sign" not in record.witness:
        failures.append("calibration sign missing from the cross-oracle record")
    _verdict(
        capfd,
        15,
        "both odd-bracket routes agree with the calibration sign recorded, and "
        "differentials bracket to the differential of the classical bracket",
        failures,
    )
