"""Hamiltonian solvers, recursion fast paths, and both graded brackets."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradedpoisson import brackets
from gradedpoisson.brackets import (
    bracket_fastpath,
    d_defect,
    even_bracket,
    hamiltonian_of_differential_identity,
    k_even,
    k_odd,
    ks_bracket,
    solve_hamiltonian,
)
from gradedpoisson.forms import Derivation, Form, VectorField, VectorValuedForm
from gradedpoisson.geometry import builtin_chart, builtin_names
from gradedpoisson.graded import (
    convert_two,
    iota,
    theta_even,
    theta_even_cached,
    theta_even_closed_nabla,
    theta_ks_cached,
    theta_omega,
)

FLAT2 = builtin_chart("flat2")
HALF = builtin_chart("halfplane")
SPHERE = builtin_chart("sphere2")
KAHLER = (FLAT2, SPHERE, HALF)


def even_theta(chart):
    return theta_even_cached(chart, "nabla")


@st.composite
def polys(draw, field):
    value = field.zero
    for _ in range(draw(st.integers(1, 2))):
        term = field.constant(draw(st.integers(-2, 2)))
        for index in draw(st.lists(st.integers(0, field.dimension - 1), max_size=2)):
            term = term * field.gens[index]
        value = value + term
    return value


@st.composite
def homogeneous_forms(draw, field, degree):
    from itertools import combinations

    terms = {}
    for idx in combinations(range(field.dimension), degree):
        terms[idx] = draw(polys(field))
    return Form(field, terms)


# -- generic solver, pinned examples ------------------------------------------


def test_flat_function_solution_is_single_covariant_term():
    f = FLAT2.field
    x = f.coordinate("x")
    sol = solve_hamiltonian(even_theta(FLAT2), x)
    assert not sol.ins_components
    assert list(sol.lie_components) == [0]
    # seeded at minus the classical field, per the recorded calibration
    expected = -(FLAT2.classical_hamiltonian(x).as_vvform())
    assert sol.lie_components[0] == expected
    assert sol.derivation == Derivation.lie(expected)


def test_flat_coordinate_differential_solution_is_pure_insertion():
    f = FLAT2.field
    dx = Form.function(f.coordinate("x")).d()
    sol = solve_hamiltonian(even_theta(FLAT2), dx)
    # the Hessian of x vanishes, so nothing beyond the metric sharp survives
    assert not sol.lie_components
    assert sol.derivation == Derivation.insertion(VectorField.basis(f, 0))


def test_curved_function_solution_carries_curvature_tail():
    f = SPHERE.field
    sol = solve_hamiltonian(even_theta(SPHERE), f.coordinate("x"))
    assert set(sol.lie_components) == {0, 2}
    assert not sol.lie_components[2].is_zero
    assert not sol.ins_components


def test_solver_accepts_tabulated_right_hand_side():
    lam = theta_ks_cached(FLAT2)
    d_op = Derivation.exterior(FLAT2.field)
    rhs = iota(d_op, even_theta(FLAT2))
    sol = solve_hamiltonian(even_theta(FLAT2), rhs)
    assert sol.derivation == d_op
    assert lam.geom is FLAT2


@pytest.mark.parametrize("name", ["flat2", "sphere2", "tlift1q"])
def test_lie_and_nabla_tabulations_give_the_same_derivation(name):
    chart = builtin_chart(name)
    x, y = chart.field.gens[:2]
    dx = Form.function(x).d()
    for alpha in (Form.function(x * y), dx * y, dx.wedge(Form.function(y).d()) * x):
        via_lie = solve_hamiltonian(theta_even_cached(chart, "lie"), alpha)
        assert via_lie.derivation == solve_hamiltonian(even_theta(chart), alpha).derivation


# -- structure of solutions ----------------------------------------------------


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane", "tlift1q"])
def test_function_solutions_are_purely_even_covariant(name):
    chart = builtin_chart(name)
    f = chart.field
    for scalar in (f.gens[0] * f.gens[1], f.gens[0] ** 2 + f.gens[1]):
        sol = solve_hamiltonian(even_theta(chart), scalar)
        assert not sol.ins_components
        assert all(m % 2 == 0 for m in sol.lie_components)


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane"])
def test_exact_differential_solutions_sharp_plus_odd(name):
    chart = builtin_chart(name)
    f = chart.field
    scalar = f.gens[0] * f.gens[1]
    df = Form.function(scalar).d()
    sol = solve_hamiltonian(even_theta(chart), df)
    assert list(sol.ins_components) == [0]
    assert sol.ins_components[0] == chart.sharp(df).as_vvform()
    assert all(m % 2 == 1 for m in sol.lie_components)


# -- recursion fast paths vs. the solver ---------------------------------------


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane", "tlift1q"])
def test_even_recursion_matches_solver(name):
    chart = builtin_chart(name)
    f = chart.field
    for scalar in (f.gens[0], f.gens[0] * f.gens[1]):
        sol = solve_hamiltonian(even_theta(chart), scalar)
        for i, component in enumerate(k_even(chart, scalar)):
            got = sol.lie_components.get(2 * i)
            if got is None:
                assert component.is_zero
            else:
                assert component == got


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane", "tlift1q"])
def test_odd_recursion_matches_solver(name):
    chart = builtin_chart(name)
    f = chart.field
    for scalar in (f.gens[0] ** 2, f.gens[0] * f.gens[1]):
        df = Form.function(scalar).d()
        sol = solve_hamiltonian(even_theta(chart), df)
        for i, component in enumerate(k_odd(chart, scalar)):
            got = sol.lie_components.get(2 * i + 1)
            if got is None:
                assert component.is_zero
            else:
                assert component == got


def test_flat_odd_seed_solves_the_hessian_condition():
    f = FLAT2.field
    x = f.coordinate("x")
    seq = k_odd(FLAT2, x * x)
    dx = Form.function(x).d()
    expected = VectorValuedForm(
        f, [Form.zero(f), dx * f.constant(2)], degree=1
    )
    assert seq[0] == expected


def test_flat_even_tail_vanishes():
    f = FLAT2.field
    for component in k_even(FLAT2, f.gens[0] * f.gens[1])[1:]:
        assert component.is_zero


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane"])
def test_kahler_chain_links_even_and_odd_components(name):
    # K^1 = -d^nabla X_f and K^{2i+1} = (-1)^{i+1} d^nabla K^{2i}, with the
    # even sequence renormalized so its first entry is the classical field
    chart = builtin_chart(name)
    f = chart.field
    for scalar in (f.gens[0] ** 2, f.gens[0] * f.gens[1]):
        evens = [-component for component in k_even(chart, scalar)]
        odds = k_odd(chart, scalar)
        assert evens[0] == chart.classical_hamiltonian(scalar).as_vvform()
        for i, odd in enumerate(odds):
            shift = chart.dnabla(evens[i])
            assert odd == (-shift if i % 2 == 0 else shift)


# -- even bracket values --------------------------------------------------------


def test_coordinate_bracket_is_their_poisson_bracket():
    f = FLAT2.field
    x, y = f.gens
    value = even_bracket(f.wrap(x), f.wrap(y), even_theta(FLAT2))
    assert value == Form.function(FLAT2.classical_poisson(x, y))
    assert value == Form.function(f.one)


def test_bracket_of_a_differential_with_itself_is_cometric():
    # exact on the flat chart; curvature adds a 2-form tail elsewhere
    dx = Form.function(FLAT2.field.gens[0]).d()
    assert even_bracket(dx, dx, even_theta(FLAT2)) == Form.function(
        FLAT2.cometric_eval(dx, dx)
    )
    dx = Form.function(HALF.field.gens[0]).d()
    got = even_bracket(dx, dx, even_theta(HALF))
    assert got.scalar_part() == HALF.cometric_eval(dx, dx)


@pytest.mark.parametrize("name", builtin_names())
def test_scalar_part_of_function_bracket_is_classical(name):
    chart = builtin_chart(name)
    f = chart.field
    pairs = [
        (f.gens[0], f.gens[1]),
        (f.gens[0] * f.gens[1], f.gens[0] + f.gens[1]),
        (f.gens[0] ** 2, f.gens[1] ** 2),
    ]
    theta = even_theta(chart)
    for lhs, rhs in pairs:
        got = even_bracket(lhs, rhs, theta)
        assert got.scalar_part() == chart.classical_poisson(lhs, rhs)
        assert all(m % 2 == 0 for m in got.degrees())


@given(f=polys(FLAT2.field), h=polys(FLAT2.field))
def test_function_bracket_scalar_part_randomized(f, h):
    got = even_bracket(f, h, even_theta(FLAT2))
    assert got.scalar_part() == FLAT2.classical_poisson(f, h)


# -- even bracket axioms ---------------------------------------------------------


@given(
    p=st.integers(0, 2),
    q=st.integers(0, 2),
    data=st.data(),
)
def test_even_bracket_graded_commutativity(p, q, data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, p))
    beta = data.draw(homogeneous_forms(field, q))
    theta = even_theta(FLAT2)
    lhs = even_bracket(alpha, beta, theta)
    rhs = even_bracket(beta, alpha, theta)
    sign = -1 if (p * q) % 2 == 0 else 1
    assert lhs == (rhs * field.constant(sign))


@given(
    p=st.integers(0, 2),
    data=st.data(),
)
def test_even_bracket_leibniz(p, data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, p))
    beta = data.draw(homogeneous_forms(field, 1))
    gamma = data.draw(homogeneous_forms(field, 1))
    theta = even_theta(FLAT2)
    lhs = even_bracket(alpha, beta.wedge(gamma), theta)
    rhs = even_bracket(alpha, beta, theta).wedge(gamma)
    tail = beta.wedge(even_bracket(alpha, gamma, theta))
    rhs = rhs + (tail if (p * 1) % 2 == 0 else -tail)
    assert lhs == rhs


@given(
    p=st.integers(0, 1),
    q=st.integers(0, 1),
    data=st.data(),
)
def test_even_bracket_graded_jacobi(p, q, data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, p))
    beta = data.draw(homogeneous_forms(field, q))
    gamma = data.draw(homogeneous_forms(field, 1))
    theta = even_theta(FLAT2)
    lhs = even_bracket(alpha, even_bracket(beta, gamma, theta), theta)
    rhs = even_bracket(even_bracket(alpha, beta, theta), gamma, theta)
    tail = even_bracket(beta, even_bracket(alpha, gamma, theta), theta)
    rhs = rhs + (tail if (p * q) % 2 == 0 else -tail)
    assert lhs == rhs


def test_even_bracket_jacobi_on_curved_charts():
    for chart in (SPHERE, HALF):
        field = chart.field
        x, y = field.gens
        theta = even_theta(chart)
        triples = [
            (Form.function(x), Form.function(y), Form.function(x).d()),
            (Form.function(x).d(), Form.function(x * y), Form.function(y).d()),
        ]
        for alpha, beta, gamma in triples:
            p = alpha.degrees()[0] if alpha.degrees() else 0
            q = beta.degrees()[0] if beta.degrees() else 0
            lhs = even_bracket(alpha, even_bracket(beta, gamma, theta), theta)
            rhs = even_bracket(even_bracket(alpha, beta, theta), gamma, theta)
            tail = even_bracket(beta, even_bracket(alpha, gamma, theta), theta)
            rhs = rhs + (tail if (p * q) % 2 == 0 else -tail)
            assert lhs == rhs


@given(
    p=st.integers(0, 2),
    q=st.integers(0, 2),
    data=st.data(),
)
def test_even_bracket_degree_additivity_mod_two(p, q, data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, p))
    beta = data.draw(homogeneous_forms(field, q))
    got = even_bracket(alpha, beta, even_theta(FLAT2))
    assert all(m % 2 == (p + q) % 2 for m in got.degrees())


@given(data=st.data())
def test_even_bracket_additive_in_each_slot(data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, 1))
    alpha2 = data.draw(homogeneous_forms(field, 1))
    beta = data.draw(homogeneous_forms(field, 1))
    theta = even_theta(FLAT2)
    assert even_bracket(alpha + alpha2, beta, theta) == even_bracket(
        alpha, beta, theta
    ) + even_bracket(alpha2, beta, theta)
    assert even_bracket(beta, alpha + alpha2, theta) == even_bracket(
        beta, alpha, theta
    ) + even_bracket(beta, alpha2, theta)


# -- closed-form bracket fast paths ----------------------------------------------


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane"])
@pytest.mark.parametrize("kind", ["ff", "f_dh", "df_dh"])
def test_fastpath_matches_solver(name, kind):
    chart = builtin_chart(name)
    field = chart.field
    theta = even_theta(chart)
    for f, h in [
        (field.gens[0] ** 2, field.gens[1]),
        (field.gens[0] * field.gens[1], field.gens[0] + field.gens[1]),
    ]:
        fast = bracket_fastpath(kind, f, h, chart)
        alpha = Form.function(f) if kind == "ff" else Form.function(f)
        beta = Form.function(h)
        if kind in ("f_dh", "df_dh"):
            beta = beta.d()
        if kind == "df_dh":
            alpha = alpha.d()
        assert fast == even_bracket(alpha, beta, theta)


def test_flat_fastpath_collapses_to_classical():
    field = FLAT2.field
    f = field.gens[0] ** 2
    h = field.gens[1]
    assert bracket_fastpath("ff", f, h, FLAT2) == Form.function(
        FLAT2.classical_poisson(f, h)
    )


def test_unknown_fastpath_kind_rejected():
    with pytest.raises(ValueError):
        bracket_fastpath("dh_df", FLAT2.field.one, FLAT2.field.one, FLAT2)


# -- odd bracket ------------------------------------------------------------------


def test_odd_bracket_of_functions_vanishes():
    field = FLAT2.field
    x, y = field.gens
    for method in ("hamiltonian", "generator"):
        assert ks_bracket(x * y, x + y, FLAT2, method=method).is_zero


@pytest.mark.parametrize("name", ["flat2", "halfplane"])
def test_odd_bracket_of_differentials_is_poisson_differential(name):
    chart = builtin_chart(name)
    field = chart.field
    for f, h in [
        (field.gens[0], field.gens[1]),
        (field.gens[0] * field.gens[1], field.gens[0] ** 2 + field.gens[1]),
    ]:
        expected = Form.function(chart.classical_poisson(f, h)).d()
        for method in ("hamiltonian", "generator"):
            got = ks_bracket(
                Form.function(f).d(), Form.function(h).d(), chart, method=method
            )
            assert got == expected


def test_odd_bracket_differential_against_function():
    field = FLAT2.field
    x, y = field.gens
    f, h = x * y, x + y**2
    expected = Form.function(FLAT2.classical_poisson(f, h))
    for method in ("hamiltonian", "generator"):
        got = ks_bracket(Form.function(f).d(), h, FLAT2, method=method)
        assert got == expected


@pytest.mark.parametrize("name", ["flat2", "halfplane"])
def test_odd_bracket_routes_agree(name):
    chart = builtin_chart(name)
    field = chart.field
    x, y = field.gens
    dx = Form.function(x).d()
    dy = Form.function(y).d()
    corpus = [
        Form.function(x * y),
        dx * y,
        dy * (x + y),
        dx.wedge(dy) * x,
        Form.function(x) + dx * y,
    ]
    for alpha in corpus:
        for beta in corpus:
            assert ks_bracket(alpha, beta, chart, method="hamiltonian") == ks_bracket(
                alpha, beta, chart, method="generator"
            )


def test_solver_rejects_degenerate_form():
    # the naive lift of omega has a zero insertion block: no solve exists,
    # and a failed plan is not cached, so every solve raises again
    theta = theta_omega(FLAT2, "nabla")
    for _ in range(2):
        with pytest.raises(ValueError):
            solve_hamiltonian(theta, FLAT2.field.gens[0])


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts the solver's _verify calls; the check itself still runs."""
    calls = []
    verify = brackets._verify

    def counting(*args):
        calls.append(args)
        verify(*args)

    monkeypatch.setattr(brackets, "_verify", counting)
    return calls


def test_repeated_solves_are_verified_once(verify_calls):
    chart = builtin_chart("sphere2")
    theta = even_theta(chart)
    x, y = chart.field.gens
    f = x * y + y
    first = solve_hamiltonian(theta, f)
    assert solve_hamiltonian(theta, f) is first
    assert solve_hamiltonian(theta, Form.function(f)) is first
    assert len(verify_calls) == 1
    tabulated = iota(first.derivation, theta)
    second = solve_hamiltonian(theta, tabulated)
    assert solve_hamiltonian(theta, tabulated) is second
    assert second.derivation == first.derivation
    assert len(verify_calls) == 2


def test_even_and_odd_forms_keep_separate_solutions(verify_calls):
    chart = builtin_chart("sphere2")
    alpha = Form.coordinate_diff(chart.field, 0)
    even = solve_hamiltonian(even_theta(chart), alpha)
    odd = solve_hamiltonian(theta_ks_cached(chart), alpha)
    assert even.derivation != odd.derivation
    assert solve_hamiltonian(even_theta(chart), alpha) is even
    assert solve_hamiltonian(theta_ks_cached(chart), alpha) is odd
    assert len(verify_calls) == 2


def test_rebuilt_chart_solves_and_verifies_again(verify_calls):
    for _ in range(2):
        chart = builtin_chart("sphere2")
        solve_hamiltonian(even_theta(chart), chart.field.gens[0])
    assert len(verify_calls) == 2


def test_equal_graded_two_forms_hash_equal():
    chart = builtin_chart("sphere2")
    cached = theta_even_cached(chart, "nabla")
    for other in (
        theta_even_closed_nabla(chart),
        convert_two(theta_even(chart, "omega_g", "lie"), "nabla"),
    ):
        assert other is not cached
        assert other == cached
        assert hash(other) == hash(cached)


# -- odd bracket axioms -------------------------------------------------------------


@given(
    p=st.integers(0, 2),
    q=st.integers(0, 2),
    data=st.data(),
)
def test_odd_bracket_graded_commutativity(p, q, data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, p))
    beta = data.draw(homogeneous_forms(field, q))
    lhs = ks_bracket(alpha, beta, FLAT2)
    rhs = ks_bracket(beta, alpha, FLAT2)
    sign = -1 if ((p + 1) * (q + 1)) % 2 == 0 else 1
    assert lhs == (rhs * field.constant(sign))


@given(
    p=st.integers(0, 2),
    data=st.data(),
)
def test_odd_bracket_leibniz(p, data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, p))
    beta = data.draw(homogeneous_forms(field, 1))
    gamma = data.draw(homogeneous_forms(field, 1))
    lhs = ks_bracket(alpha, beta.wedge(gamma), FLAT2)
    rhs = ks_bracket(alpha, beta, FLAT2).wedge(gamma)
    tail = beta.wedge(ks_bracket(alpha, gamma, FLAT2))
    rhs = rhs + (tail if ((p + 1) * 1) % 2 == 0 else -tail)
    assert lhs == rhs


@given(
    p=st.integers(0, 1),
    q=st.integers(0, 1),
    data=st.data(),
)
def test_odd_bracket_graded_jacobi(p, q, data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, p))
    beta = data.draw(homogeneous_forms(field, q))
    gamma = data.draw(homogeneous_forms(field, 1))
    lhs = ks_bracket(alpha, ks_bracket(beta, gamma, FLAT2), FLAT2)
    rhs = ks_bracket(ks_bracket(alpha, beta, FLAT2), gamma, FLAT2)
    tail = ks_bracket(beta, ks_bracket(alpha, gamma, FLAT2), FLAT2)
    rhs = rhs + (tail if ((p + 1) * (q + 1)) % 2 == 0 else -tail)
    assert lhs == rhs


def test_odd_bracket_jacobi_on_curved_chart():
    field = HALF.field
    x, y = field.gens
    dx = Form.function(x).d()
    dy = Form.function(y).d()
    triples = [
        (Form.function(x * y), dx * y, dy),
        (dx, dy * x, Form.function(y)),
    ]
    for alpha, beta, gamma in triples:
        p = alpha.degrees()[0] if alpha.degrees() else 0
        q = beta.degrees()[0] if beta.degrees() else 0
        lhs = ks_bracket(alpha, ks_bracket(beta, gamma, HALF), HALF)
        rhs = ks_bracket(ks_bracket(alpha, beta, HALF), gamma, HALF)
        tail = ks_bracket(beta, ks_bracket(alpha, gamma, HALF), HALF)
        rhs = rhs + (tail if ((p + 1) * (q + 1)) % 2 == 0 else -tail)
        assert lhs == rhs


@given(
    p=st.integers(0, 2),
    q=st.integers(0, 2),
    data=st.data(),
)
def test_odd_bracket_degree_shift_mod_two(p, q, data):
    field = FLAT2.field
    alpha = data.draw(homogeneous_forms(field, p))
    beta = data.draw(homogeneous_forms(field, q))
    got = ks_bracket(alpha, beta, FLAT2)
    assert all(m % 2 == (p + q + 1) % 2 for m in got.degrees())


@pytest.mark.parametrize("name", ["flat2", "halfplane"])
def test_differential_derives_the_odd_bracket(name):
    chart = builtin_chart(name)
    field = chart.field
    x, y = field.gens
    dx = Form.function(x).d()
    samples = [
        (Form.function(x * y), Form.function(x + y)),
        (dx * y, Form.function(x * y)),
        (dx.wedge(Form.function(y).d()) * x, dx * y),
    ]
    for alpha, beta in samples:
        p = alpha.degrees()[0] if alpha.degrees() else 0
        lhs = ks_bracket(alpha, beta, chart).d()
        rhs = ks_bracket(alpha.d(), beta, chart)
        tail = ks_bracket(alpha, beta.d(), chart)
        rhs = rhs + (tail if (p + 1) % 2 == 0 else -tail)
        assert lhs == rhs


# -- the symplectic form as its own hamiltonian ---------------------------------------


@pytest.mark.parametrize("name", builtin_names())
def test_symplectic_form_generates_the_compatibility_insertion(name):
    chart = builtin_chart(name)
    sol = solve_hamiltonian(even_theta(chart), chart.omega_form())
    assert sol.derivation == Derivation.insertion(chart.j_vvform())


# -- the derivative defect --------------------------------------------------------------


@pytest.mark.parametrize("name", ["flat2", "halfplane"])
def test_hamiltonian_of_differential_commutator_form(name):
    chart = builtin_chart(name)
    field = chart.field
    x, y = field.gens
    dx = Form.function(x).d()
    dy = Form.function(y).d()
    for alpha in (
        Form.function(x * y),
        dx * y + dy * x**2,
        dx.wedge(dy) * y,
    ):
        assert hamiltonian_of_differential_identity(alpha, chart)


@pytest.mark.parametrize("name", ["flat2", "sphere2"])
def test_defect_pipelines_agree(name):
    chart = builtin_chart(name)
    field = chart.field
    x, y = field.gens
    dx = Form.function(x).d()
    dy = Form.function(y).d()
    samples = [
        (Form.function(x), Form.function(y)),
        (dx * y, Form.function(x * y)),
        (Form.function(x * y), dy * x),
        (dx * y + Form.function(x), dy * (x + y)),
        (dx.wedge(dy) * y, dx * x),
    ]
    for alpha, beta in samples:
        left, right = d_defect(alpha, beta, chart)
        assert left == right


def test_defect_vanishes_for_flat_functions():
    # on a flat chart the odd form pairs covariant solutions to zero
    field = FLAT2.field
    left, right = d_defect(
        Form.function(field.gens[0]), Form.function(field.gens[1]), FLAT2
    )
    assert left.is_zero and right.is_zero
