"""Hamiltonian solvers, recursion fast paths, and both graded brackets."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradedpoisson import brackets, cli
from gradedpoisson.brackets import (
    bracket_fastpath,
    d_defect,
    even_bracket,
    hamiltonian_of_differential_identity,
    k_even,
    k_odd,
    ks_bracket,
    ks_bracket_by_generator,
    solve_hamiltonian,
)
from gradedpoisson.forms import Derivation, Form, VectorValuedForm
from gradedpoisson.geometry import ChartError, builtin_chart, builtin_names, matrix_inverse
from gradedpoisson.graded import (
    components_by_degree,
    convert_two,
    dG_function,
    iota,
    theta_even,
    theta_even_cached,
    theta_even_closed_nabla,
    theta_ks_cached,
)
from gradedpoisson.exprparse import parse_form_expr
from gradedpoisson.manifest import parse_manifest
from reference import chain_negating, curvature_pair_by_sum, k_even_negating, theta_omega
from test_geometry import PRODUCT, vvforms

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
    even, ins = components_by_degree(FLAT2, sol)
    assert not ins
    assert list(even) == [0]
    # seeded at minus the classical field, per the recorded calibration
    expected = -FLAT2.classical_hamiltonian(x)
    assert even[0] == expected
    assert sol == Derivation.lie(expected)


def test_flat_coordinate_differential_solution_is_pure_insertion():
    f = FLAT2.field
    dx = Form.function(f.coordinate("x")).d()
    sol = solve_hamiltonian(even_theta(FLAT2), dx)
    # the Hessian of x vanishes, so nothing beyond the metric sharp survives
    assert not components_by_degree(FLAT2, sol)[0]
    assert sol == Derivation.insertion(VectorValuedForm.basis(f, 0))


def test_curved_function_solution_carries_curvature_tail():
    f = SPHERE.field
    sol = solve_hamiltonian(even_theta(SPHERE), f.coordinate("x"))
    even, ins = components_by_degree(SPHERE, sol)
    assert set(even) == {0, 2}
    assert not even[2].is_zero
    assert not ins


def test_solver_accepts_tabulated_right_hand_side():
    lam = theta_ks_cached(FLAT2)
    d_op = Derivation.exterior(FLAT2.field)
    rhs = iota(d_op, even_theta(FLAT2))
    sol = solve_hamiltonian(even_theta(FLAT2), rhs)
    assert sol == d_op
    assert lam.geom is FLAT2


def test_solver_rejects_right_hand_side_from_another_chart():
    # flat2 and sphere2 share the coordinates x, y, so only the charts differ
    x = FLAT2.field.coordinate("x")
    theta = even_theta(SPHERE)
    with pytest.raises(ValueError, match="different tabulations"):
        solve_hamiltonian(theta, dG_function(FLAT2, x, "nabla"))
    assert solve_hamiltonian(theta, dG_function(SPHERE, x, "nabla")) == solve_hamiltonian(
        theta, x
    )


@pytest.mark.parametrize("name", ["flat2", "sphere2", "tlift1q"])
def test_lie_and_nabla_tabulations_give_the_same_derivation(name):
    chart = builtin_chart(name)
    x, y = chart.field.gens[:2]
    dx = Form.function(x).d()
    for alpha in (Form.function(x * y), dx * y, dx.wedge(Form.function(y).d()) * x):
        via_lie = solve_hamiltonian(theta_even_cached(chart, "lie"), alpha)
        assert via_lie == solve_hamiltonian(even_theta(chart), alpha)


# -- structure of solutions ----------------------------------------------------


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane", "tlift1q"])
def test_function_solutions_are_purely_even_covariant(name):
    chart = builtin_chart(name)
    f = chart.field
    for scalar in (f.gens[0] * f.gens[1], f.gens[0] ** 2 + f.gens[1]):
        sol = solve_hamiltonian(even_theta(chart), scalar)
        even, ins = components_by_degree(chart, sol)
        assert not ins
        assert all(m % 2 == 0 for m in even)


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane"])
def test_exact_differential_solutions_sharp_plus_odd(name):
    chart = builtin_chart(name)
    f = chart.field
    scalar = f.gens[0] * f.gens[1]
    df = Form.function(scalar).d()
    sol = solve_hamiltonian(even_theta(chart), df)
    even, ins = components_by_degree(chart, sol)
    assert list(ins) == [0]
    assert ins[0] == chart.sharp(df)
    assert all(m % 2 == 1 for m in even)


# -- recursion fast paths vs. the solver ---------------------------------------


@pytest.mark.parametrize("name", ["flat2", "sphere2", "halfplane", "tlift1q"])
def test_even_recursion_matches_solver(name):
    chart = builtin_chart(name)
    f = chart.field
    for scalar in (f.gens[0], f.gens[0] * f.gens[1]):
        sol = solve_hamiltonian(even_theta(chart), scalar)
        even, _ = components_by_degree(chart, sol)
        for i, component in enumerate(k_even(chart, scalar)):
            got = even.get(2 * i)
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
        even, _ = components_by_degree(chart, sol)
        for i, component in enumerate(k_odd(chart, scalar)):
            got = even.get(2 * i + 1)
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
        assert evens[0] == chart.classical_hamiltonian(scalar)
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
    # g^-1(dx, dx) is the (x, x) entry of g^-1
    assert even_bracket(dx, dx, even_theta(FLAT2)) == Form.function(FLAT2.g_inv[0][0])
    dx = Form.function(HALF.field.gens[0]).d()
    got = even_bracket(dx, dx, even_theta(HALF))
    assert got.scalar_part() == HALF.g_inv[0][0]


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


@pytest.mark.parametrize("kind", ["ff", "f_dh"])
def test_fastpath_matches_solver_on_the_curved_product(kind):
    # the fast path's even chain stops at degree dim - 2: [[f, h]] pairs a
    # top-degree K with the curvature to zero and [[f, dh]] reads only
    # d^nabla of it, which vanishes; on this 4-D chart K^2 is nonzero for a
    # function that mixes the two factors, so the bounded chain is tested
    x, y, u, v = PRODUCT.field.gens
    f, h = x * u + y, y * v + u
    assert not all(c.is_zero for c in k_even(PRODUCT, f)[1].components)
    beta = Form.function(h).d() if kind == "f_dh" else Form.function(h)
    for basis in ("lie", "nabla"):
        want = even_bracket(Form.function(f), beta, theta_even_cached(PRODUCT, basis))
        assert bracket_fastpath(kind, f, h, PRODUCT) == want


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


@pytest.mark.parametrize("kind, built", [("ff", 2), ("f_dh", 2), ("df_dh", 1)])
def test_fastpath_builds_each_classical_field_once(kind, built, monkeypatch):
    # X_h, plus X_f as the even chain's seed, which also pairs into {f, h}
    chart = builtin_chart("sphere2")
    calls = []
    original = type(chart).classical_hamiltonian

    def counting(self, f):
        calls.append(f)
        return original(self, f)

    monkeypatch.setattr(type(chart), "classical_hamiltonian", counting)
    x, y = chart.field.gens
    bracket_fastpath(kind, x * y, x + y**2, chart)
    assert len(calls) == built


@pytest.mark.parametrize("chart", [SPHERE, builtin_chart("flat4"), PRODUCT], ids=["sphere2", "flat4", "product"])
def test_displayed_even_chain_is_the_negated_solver_chain(chart):
    # every step of the chain is linear, so seeding at +X_f negates each entry
    x, y = chart.field.gens[:2]
    for f in (x * y, x**2 + chart.field.gens[-1]):
        displayed = brackets._chain(chart, chart.classical_hamiltonian(f), -1, chart.dim)
        assert displayed == [-k for k in k_even(chart, f)]


@given(data=st.data())
def test_curvature_pair_matches_the_per_entry_sum(data):
    # on the 2-D built-ins every R4 block is a top-degree 2-form, so an
    # operand of positive degree pairs to zero there; on the 4-D product
    # chart operands of degree 0 to 2 pair to forms of degree 2 to 4
    left = data.draw(vvforms(PRODUCT, data.draw(st.integers(0, 2))))
    right = data.draw(vvforms(PRODUCT, data.draw(st.integers(0, 2))))
    want = curvature_pair_by_sum(PRODUCT, left, right)
    assert brackets._curvature_pair(PRODUCT, left, right) == want


def test_curvature_pair_of_one_forms_is_nonzero():
    # dx^u ^ dx^v ^ R4(e_x, e_y, _, _), the sphere's curvature block
    field = PRODUCT.field
    zero = Form.zero(field)
    du, dv = Form.coordinate_diff(field, 2), Form.coordinate_diff(field, 3)
    left = VectorValuedForm(field, [du, zero, zero, zero], degree=1)
    right = VectorValuedForm(field, [zero, dv, zero, zero], degree=1)
    got = brackets._curvature_pair(PRODUCT, left, right)
    assert got == du.wedge(dv).wedge(PRODUCT.riemann4_forms[0][1])
    assert got.is_homogeneous(4) and not got.is_zero
    assert got == curvature_pair_by_sum(PRODUCT, left, right)


@pytest.mark.parametrize("chart", [SPHERE, builtin_chart("flat4"), PRODUCT], ids=["sphere2", "flat4", "product"])
def test_even_chain_negates_no_vector_valued_form(chart, monkeypatch):
    # apply_endo carries the chain's sign, and k_even seeds at
    # omega^-1 . grad f, which is -X_f: the values are those of the formulas
    # that negate the seed and every step, and no vector-valued form is negated
    x, y = chart.field.gens[:2]
    functions = (x * y, x**2 + chart.field.gens[-1])
    kinds = ("ff", "f_dh", "df_dh")
    with monkeypatch.context() as patch:
        patch.setattr(brackets, "_chain", chain_negating)
        want = (
            [k_even_negating(chart, f) for f in functions],
            [bracket_fastpath(kind, f, y, chart) for f in functions for kind in kinds],
        )

    negations = []
    negate = VectorValuedForm.__neg__

    def counting(self):
        negations.append(self)
        return negate(self)

    monkeypatch.setattr(VectorValuedForm, "__neg__", counting)
    got = (
        [k_even(chart, f) for f in functions],
        [bracket_fastpath(kind, f, y, chart) for f in functions for kind in kinds],
    )
    assert negations == []
    assert got == want


# -- odd bracket ------------------------------------------------------------------


def test_odd_bracket_of_functions_vanishes():
    field = FLAT2.field
    x, y = field.gens
    for route in (ks_bracket, ks_bracket_by_generator):
        assert route(x * y, x + y, FLAT2).is_zero


@pytest.mark.parametrize("name", ["flat2", "halfplane"])
def test_odd_bracket_of_differentials_is_poisson_differential(name):
    chart = builtin_chart(name)
    field = chart.field
    for f, h in [
        (field.gens[0], field.gens[1]),
        (field.gens[0] * field.gens[1], field.gens[0] ** 2 + field.gens[1]),
    ]:
        expected = Form.function(chart.classical_poisson(f, h)).d()
        for route in (ks_bracket, ks_bracket_by_generator):
            got = route(Form.function(f).d(), Form.function(h).d(), chart)
            assert got == expected


def test_odd_bracket_differential_against_function():
    field = FLAT2.field
    x, y = field.gens
    f, h = x * y, x + y**2
    expected = Form.function(FLAT2.classical_poisson(f, h))
    for route in (ks_bracket, ks_bracket_by_generator):
        got = route(Form.function(f).d(), h, FLAT2)
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
            assert ks_bracket(alpha, beta, chart) == ks_bracket_by_generator(alpha, beta, chart)


def test_solver_rejects_degenerate_form():
    # the naive lift of omega has a zero insertion block: no solve exists,
    # and a failed plan is not cached, so every solve raises again
    theta = theta_omega(FLAT2)
    for _ in range(2):
        with pytest.raises(ChartError, match="singular"):
            solve_hamiltonian(theta, FLAT2.field.gens[0])


@pytest.mark.parametrize("name", ["flat2", "flat4", "sphere2", "halfplane", "tlift1q"])
def test_solver_plan_is_sparse(name):
    # the plan keeps no zero entry of A^-1 and no empty higher part, yet
    # still holds all of A^-1 and every block
    chart = builtin_chart(name)
    field = chart.field
    for theta in (even_theta(chart), theta_ks_cached(chart)):
        inverse, higher, _ = brackets._plan(theta)
        _, dense = matrix_inverse([[b.scalar_part() for b in row] for row in theta.blocks], field)
        for sparse, row in zip(inverse, dense):
            assert all(not e.is_zero for _, e in sparse)
            assert dict(sparse) == {col: e for col, e in enumerate(row) if not e.is_zero}
        for parts, blocks in zip(higher, theta.blocks):
            assert all(j > 0 and terms for _, j, terms in parts)
            for col, block in enumerate(blocks):
                rebuilt = Form.function(block.scalar_part()).terms
                for c, j, terms in parts:
                    if c == col:
                        rebuilt.update(terms)
                assert rebuilt == block.terms


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
    tabulated = iota(first, theta)
    second = solve_hamiltonian(theta, tabulated)
    assert solve_hamiltonian(theta, tabulated) is second
    assert second == first
    assert len(verify_calls) == 2


def test_even_and_odd_forms_keep_separate_solutions(verify_calls):
    chart = builtin_chart("sphere2")
    alpha = Form.coordinate_diff(chart.field, 0)
    even = solve_hamiltonian(even_theta(chart), alpha)
    odd = solve_hamiltonian(theta_ks_cached(chart), alpha)
    assert even != odd
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
        convert_two(theta_even(chart), "nabla"),
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
    assert sol == Derivation.insertion(chart.endo_form(chart.j_matrix))


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


CURVED = """\
[chart] name=curved, dim=2, coords=x,y
[metric]
g.1.1=1/(1+x^2+y^2)
g.2.2=1/(1+x^2+y^2)
[symplectic]
w.1.2=1/(1+x^2+y^2)
"""

DERIVED = {
    "gamma_first",
    "gamma",
    "connection_forms",
    "connection_rows",
    "riemann",
    "riemann_lowered",
    "riemann4_forms",
    "curvature_forms",
    "j_matrix",
    "j_inv",
}
# the nabla basics read only Gamma (raised from the first kind) and its
# connection 1-forms; [[f, h]] takes no covariant derivative, so it reads
# no connection form; in 2-D its even chain is the seed alone, so it steps
# by no J^-1 and no curvature 2-form
CONNECTION = {"connection_forms", "connection_rows"}
CHAIN_STEP = {"curvature_forms", "j_matrix", "j_inv"}
BUILT_BY = {
    "odd": set(),
    "even": {"gamma_first", "gamma"} | CONNECTION,
    "fastpath": DERIVED - CONNECTION - CHAIN_STEP,
}


def _bracket_on(route, chart):
    x, y = chart.field.gens
    if route == "odd":
        return ks_bracket(x, x * y, chart)
    if route == "even":
        return even_bracket(x, x * y, theta_even_cached(chart, "nabla"))
    return bracket_fastpath("ff", x, x * y, chart)


@pytest.mark.parametrize("route", BUILT_BY)
def test_only_the_fastpath_builds_curvature(route):
    chart = parse_manifest(CURVED)
    assert DERIVED.isdisjoint(vars(chart))
    _bracket_on(route, chart)
    assert DERIVED & set(vars(chart)) == BUILT_BY[route]


# operands of degree 0, 1 and 2 in the chart's first two coordinates
CLI_OPERANDS = ("{0}^2*{1} + 1", "{1}*d{0} - {0}^2*d{1}", "{1}/(1+{0}^2)*d{0}^d{1}")


def _cli_target(name, tmp_path):
    """The bracket command's target for name and a chart equal to the one it loads."""
    if name == "curved":
        path = tmp_path / "curved.chart"
        path.write_text(CURVED)
        return str(path), parse_manifest(CURVED)
    return f"builtin:{name}", builtin_chart(name)


@pytest.mark.parametrize("name", builtin_names() + ["curved"])
def test_cli_even_bracket_matches_the_nabla_solve(name, tmp_path, capsys):
    target, chart = _cli_target(name, tmp_path)
    coords = chart.field.coords
    theta = theta_even_cached(chart, "nabla")
    for alpha in CLI_OPERANDS:
        for beta in CLI_OPERANDS:
            alpha_text, beta_text = alpha.format(*coords), beta.format(*coords)
            want = even_bracket(
                parse_form_expr(alpha_text, chart), parse_form_expr(beta_text, chart), theta
            )
            argv = ["bracket", target, f"--alpha={alpha_text}", f"--beta={beta_text}"]
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == f"{want}\n", (alpha_text, beta_text)


def test_cli_even_route_builds_no_derived_tensor(tmp_path, monkeypatch, capsys):
    target, _ = _cli_target("curved", tmp_path)
    loaded = []
    load = cli.load_chart

    def recording(text):
        loaded.append(load(text))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_chart", recording)
    for alpha in CLI_OPERANDS:
        argv = ["bracket", target, f"--alpha={alpha.format('x', 'y')}", "--beta=x*dy"]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(loaded) == len(CLI_OPERANDS)
    for chart in loaded:
        assert DERIVED.isdisjoint(vars(chart))
