"""Tabulated graded forms: evaluation engine, d^G, Cartan calculus."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gradedpoisson.forms import Derivation, Form, VectorValuedForm
from gradedpoisson import graded, suites
from gradedpoisson.geometry import ChartGeometry, builtin_chart, builtin_names, two_form
from gradedpoisson.graded import (
    GradedOneForm,
    GradedTwoForm,
    basics,
    convert_one,
    convert_two,
    dG_function,
    dG_one,
    eval_one,
    eval_two,
    iota,
    lambda_metric,
    lambda_omega,
    lieG_two,
    scalar_block_det,
    theta_even,
    theta_even_cached,
    theta_even_closed_lie,
    theta_even_closed_nabla,
    theta_ks,
    theta_ks_closed,
)
from reference import (
    dG_one_negating,
    dG_two_eval,
    dnabla_negating,
    eval_two_by_parts,
    iota_by_parts,
    lieG_one,
    lieG_two_negating,
    theta_even_entrywise,
    theta_even_two_tables,
    theta_omega,
)

FLAT2 = builtin_chart("flat2")
HALF = builtin_chart("halfplane")
SPHERE = builtin_chart("sphere2")


@st.composite
def polys(draw, field):
    value = field.zero
    for _ in range(draw(st.integers(0, 2))):
        term = field.constant(draw(st.integers(-3, 3)))
        for index in draw(st.lists(st.integers(0, field.dimension - 1), max_size=2)):
            term = term * field.gens[index]
        value = value + term
    return value


@st.composite
def forms(draw, field, degree=None):
    from itertools import combinations

    dim = field.dimension
    if degree is None:
        degree = draw(st.integers(0, dim))
    terms = {}
    for idx in combinations(range(dim), degree):
        terms[idx] = draw(polys(field))
    return Form(field, terms)


@st.composite
def homogeneous_derivations(draw, field):
    kind = draw(st.integers(0, 2))
    comps = [draw(polys(field)) for _ in range(field.dimension)]
    if kind == 0:
        return Derivation.insertion(VectorValuedForm(field, comps, degree=0))
    if kind == 1:
        return Derivation.lie(VectorValuedForm(field, comps, degree=0))
    k = VectorValuedForm(
        field, [draw(forms(field, degree=1)) for _ in range(field.dimension)], degree=1
    )
    lp = VectorValuedForm(
        field, [draw(forms(field, degree=2)) for _ in range(field.dimension)], degree=2
    )
    return Derivation.lie(k) + Derivation.insertion(lp)


# -- evaluation conventions --------------------------------------------------


def test_first_slot_coefficient_pulls_out():
    theta = theta_even(HALF)
    f = HALF.field
    beta = Form(f, {(0,): f.coordinate("x")})
    scaled = Derivation.insertion(
        VectorValuedForm(f, [beta, Form.zero(f)], degree=1)
    )
    basic = basics(HALF, "lie")
    for other in basic:
        direct = eval_two(theta, scaled, other)
        want = beta.wedge(eval_two(theta, basic[HALF.dim], other))
        assert direct == want


@given(forms(HALF.field))
def test_second_slot_coefficient_brings_koszul_sign(beta):
    theta = theta_even(HALF)
    f = HALF.field
    scaled = Derivation.insertion(VectorValuedForm(f, [Form.zero(f), beta]))
    basic = basics(HALF, "lie")
    base = basic[HALF.dim + 1]
    for first, par1 in ((basic[0], 0), (basic[HALF.dim], 1)):
        direct = eval_two(theta, first, scaled)
        want = Form.zero(f)
        for deg, part in beta.homogeneous_parts().items():
            term = part.wedge(eval_two(theta, first, base))
            sign = -1 if (deg % 2 and par1 % 2) else 1
            want = want + (term if sign > 0 else -term)
        assert direct == want


@given(homogeneous_derivations(FLAT2.field), homogeneous_derivations(FLAT2.field))
def test_eval_two_graded_antisymmetry(d1, d2):
    if d1.is_zero or d2.is_zero:
        return
    theta = theta_even(FLAT2)
    p1, p2 = d1.degree % 2, d2.degree % 2
    lhs = eval_two(theta, d1, d2)
    rhs = eval_two(theta, d2, d1)
    assert lhs == (rhs if (p1 and p2) else -rhs)


@given(homogeneous_derivations(FLAT2.field), homogeneous_derivations(FLAT2.field))
def test_iota_is_last_slot_insertion(d, e):
    theta = theta_ks(FLAT2)
    assert eval_one(iota(d, theta), e) == eval_two(theta, e, d)


@st.composite
def pooled_forms(draw, field, size):
    """size forms, each 0 or +-one of two drawn mixed-degree forms, so that
    products of them often meet their negatives in a sum."""
    pool = [Form.sum(field, [draw(forms(field, degree=k)) for k in range(field.dimension + 1)])
            for _ in range(2)]
    choices = [Form.zero(field)] + pool + [-f for f in pool]
    return [draw(st.sampled_from(choices)) for _ in range(size)]


@st.composite
def graded_two_forms(draw, geom, basis):
    """A graded 2-form with mixed-degree entries, no weight: one drawn
    value for each of its 2 dim^2 independent entries."""
    dim = geom.dim
    values = iter(draw(pooled_forms(geom.field, 2 * dim * dim)))
    upper = {}

    def entry(r, s):
        if r == s < dim:
            return Form.zero(geom.field)
        if (r < dim) != (s < dim):
            return next(values)
        # antisymmetric among the even basics, symmetric among insertions
        key = (min(r, s), max(r, s))
        if key not in upper:
            upper[key] = next(values)
        return -upper[key] if s < r < dim else upper[key]

    return GradedTwoForm(geom, basis, entry, None)


@pytest.mark.parametrize(
    "geom, basis", [(FLAT2, "lie"), (builtin_chart("flat4"), "lie"), (SPHERE, "nabla")],
    ids=["flat2", "flat4", "sphere2-nabla"],
)
@given(data=st.data())
def test_contractions_match_the_split_by_degree(geom, basis, data):
    field = geom.field
    theta = data.draw(graded_two_forms(geom, basis))
    d1, d2 = (Derivation(field, data.draw(pooled_forms(field, 2 * geom.dim))) for _ in range(2))
    assert list(iota(d2, theta).values) == iota_by_parts(d2, theta)
    assert eval_two(theta, d1, d2) == eval_two_by_parts(theta, d1, d2)


def test_mixed_block_signs_of_odd_form():
    ks = theta_ks(FLAT2)
    w01 = FLAT2.w[0][1]
    dim = FLAT2.dim
    assert ks.blocks[0][dim + 1] == Form.function(-w01)
    assert ks.blocks[dim + 1][0] == Form.function(w01)
    assert ks.blocks[dim][dim].is_zero and ks.blocks[dim + 1][dim + 1].is_zero


# -- d^G ----------------------------------------------------------------------


@given(forms(HALF.field))
def test_dG_squares_to_zero(alpha):
    assert dG_one(dG_function(HALF, alpha)).is_zero


@pytest.mark.parametrize("chart", [FLAT2, HALF])
def test_exact_two_forms_are_closed(chart):
    lam = lambda_metric(chart)
    theta = dG_one(lam)
    basic = basics(chart, "lie")
    for d1 in basic:
        for d2 in basic:
            for d3 in basic:
                assert dG_two_eval(theta, d1, d2, d3).is_zero


@pytest.mark.parametrize("chart", [FLAT2, HALF, SPHERE])
def test_even_symplectic_form_is_closed(chart):
    theta = theta_even(chart)
    basic = basics(chart, "lie")
    for d1 in basic:
        for d2 in basic:
            for d3 in basic:
                assert dG_two_eval(theta, d1, d2, d3).is_zero


# -- the even and odd symplectic forms ---------------------------------------


@pytest.mark.parametrize("chart", [FLAT2, HALF, SPHERE])
def test_construction_paths_agree(chart):
    th_def = theta_even(chart)
    assert th_def == theta_even_closed_lie(chart)
    assert convert_two(th_def, "nabla") == theta_even_closed_nabla(chart)


@pytest.mark.parametrize("name", builtin_names())
def test_half_on_the_potential_matches_the_half_on_its_d_G(name):
    chart = builtin_chart(name)
    assert theta_even(chart) == theta_even_entrywise(chart)


def test_half_on_the_potential_matches_with_a_tensor():
    chart = _flat4_with_l({(0, 0, 2): 1, (1, 2, 3): -2}, "flat4_mixed")
    assert theta_even(chart, chart.l_tensor) == theta_even_entrywise(chart, chart.l_tensor)


ONE_TABLE_CHARTS = {name: builtin_chart(name) for name in ("sphere2", "halfplane", "tlift1q", "flat4")}


@given(st.sampled_from(sorted(ONE_TABLE_CHARTS)), st.sampled_from([None, 0, 1, 2]))
def test_one_tabulation_matches_the_sum_of_two_tables(name, sample):
    # Theta_{omega,g} in one tabulation, and Theta_{omega,g,L} for the
    # tensor check's L samples as a correction to it, equal theta_omega plus
    # the full table d^G((lambda_g + l_L) / 2)
    chart = ONE_TABLE_CHARTS[name]
    l_tensor = None if sample is None else suites._l_samples(chart)[sample]
    assert theta_even(chart, l_tensor) == theta_even_two_tables(chart, l_tensor)


@st.composite
def antisymmetric_tensors(draw, field):
    dim = field.dimension
    rows = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for slab in rows:
        for j, k in combinations(range(dim), 2):
            value = draw(polys(field))
            slab[j][k], slab[k][j] = value, -value
    return rows


@given(antisymmetric_tensors(ONE_TABLE_CHARTS["flat4"].field))
def test_tensor_correction_matches_the_sum_of_two_tables(rows):
    chart = ONE_TABLE_CHARTS["flat4"]
    assert theta_even(chart, rows) == theta_even_two_tables(chart, rows)


def test_even_symplectic_form_is_one_tabulation(monkeypatch):
    # no table for theta_omega or d^G lambda_g on its own, and with a tensor
    # one table on top of the chart's cached Theta_{omega,g}
    built = []
    init = GradedTwoForm.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(GradedTwoForm, "__init__", counting)
    chart = builtin_chart("sphere2")
    theta_even(chart)
    assert len(built) == 1
    theta_even_cached(chart, "lie")
    built.clear()
    theta_even(chart, suites._l_samples(chart)[1])
    assert len(built) == 1


def test_tensor_correction_checks_the_tensor():
    chart = builtin_chart("flat2")
    one, zero = chart.field.one, chart.field.zero
    rows = [[[zero, one], [one, zero]], [[zero, zero], [zero, zero]]]
    with pytest.raises(ValueError, match="compatibility tensor entry \\(0,0,1\\) breaks antisymmetry"):
        theta_even(chart, rows)


def test_halfplane_covariant_block_value():
    f = HALF.field
    y = f.coordinate("y")
    th = convert_two(theta_even(HALF), "nabla")
    want = Form.function(1 / (y * y)) + Form(f, {(0, 1): 1 / y**4})
    dim = HALF.dim
    assert th.blocks[0][1] == want
    assert th.blocks[0][dim + 1].is_zero and th.blocks[1][dim].is_zero
    assert th.blocks[dim][dim] == Form.function(HALF.g[0][0])


@pytest.mark.parametrize("chart", [FLAT2, HALF, SPHERE])
def test_odd_symplectic_blocks(chart):
    assert theta_ks(chart) == theta_ks_closed(chart)


@pytest.mark.parametrize("chart", [FLAT2, HALF, SPHERE])
def test_scalar_block_determinant(chart):
    theta = theta_even(chart)
    assert scalar_block_det(theta) == chart.det_w * chart.det_g
    assert not scalar_block_det(theta).is_zero


def test_basis_conversion_round_trip():
    theta = theta_even(HALF)
    assert convert_two(convert_two(theta, "nabla"), "lie") == theta
    lam = lambda_metric(HALF)
    assert convert_one(convert_one(lam, "nabla"), "lie") == lam


def test_equal_graded_forms_hash_equal():
    # each form is built twice, by different routes, and goes in a set once
    lam = lambda_metric(HALF)
    rebuilt = convert_one(convert_one(lam, "nabla"), "lie")
    assert rebuilt is not lam and hash(rebuilt) == hash(lam)
    assert len({lam, rebuilt}) == 1
    x = FLAT2.field.coordinate("x")
    assert hash(dG_function(FLAT2, x)) == hash(dG_function(FLAT2, x))
    theta = theta_even(HALF)
    rebuilt = convert_two(convert_two(theta, "nabla"), "lie")
    assert rebuilt is not theta and hash(rebuilt) == hash(theta)
    assert len({theta, rebuilt, lam}) == 2


@pytest.mark.parametrize("basis", ["lie", "nabla"])
def test_evaluation_on_basics_reads_the_tabulation(basis):
    lam = convert_one(lambda_metric(HALF), basis)
    theta = convert_two(theta_even(HALF), basis)
    basic = basics(HALF, basis)
    for r, e_r in enumerate(basic):
        assert eval_one(lam, e_r) == lam.values[r]
        for s, e_s in enumerate(basic):
            assert eval_two(theta, e_r, e_s) == theta.blocks[r][s]


# -- the potentials and the exterior derivation ------------------------------


@pytest.mark.parametrize("chart", [FLAT2, HALF, SPHERE])
def test_metric_potential_kills_exterior_derivation(chart):
    lam = lambda_metric(chart)
    assert eval_one(lam, Derivation.exterior(chart.field)).is_zero


@pytest.mark.parametrize("chart", [FLAT2, HALF, SPHERE])
def test_insert_exterior_into_even_form_gives_odd_potential(chart):
    theta = theta_even(chart)
    d = Derivation.exterior(chart.field)
    assert iota(d, theta) == lambda_omega(chart)


def test_exterior_insertion_witness_names_the_differing_basic(monkeypatch):
    def shifted(chart):
        lam = lambda_omega(chart)
        values = list(lam.values)
        values[chart.dim] = values[chart.dim] + Form.function(chart.field.one)
        return GradedOneForm(chart, "lie", values, lam.weight)

    # a fresh chart: the check keeps the pair it compares in the chart's cache
    monkeypatch.setattr(suites, "lambda_omega", shifted)
    chart = builtin_chart("halfplane")
    ok, witness = suites.check_exterior_insertion(suites.SuiteContext(chart, 42, 1, 1))
    assert not ok
    assert witness == "difference at <i_x>: (-1)"


@pytest.mark.parametrize("chart", [FLAT2, HALF])
def test_lie_along_exterior_turns_even_into_odd(chart):
    theta = theta_even(chart)
    d = Derivation.exterior(chart.field)
    assert lieG_two(d, theta) == theta_ks(chart)


def test_lie_one_matches_cartan_pieces():
    lam = lambda_metric(HALF)
    d = Derivation.exterior(HALF.field)
    got = lieG_one(d, lam)
    want = iota(d, dG_one(lam))
    assert got.values == want.values


# -- the lie basics commute ----------------------------------------------------


@pytest.mark.parametrize("name", builtin_names())
def test_lie_basics_commute(name):
    basic = basics(builtin_chart(name), "lie")
    for e_r in basic:
        for e_s in basic:
            assert e_r.commutator(e_s).is_zero


def _rational_forms(field):
    """One form of each degree 0..dim, every coefficient a rational function."""
    from itertools import combinations

    gens = field.gens
    denominator = field.one + gens[-1] * gens[-1]
    out = []
    for degree in range(field.dimension + 1):
        terms = {}
        for k, idx in enumerate(combinations(range(field.dimension), degree)):
            terms[idx] = (gens[k % len(gens)] * gens[0] + field.constant(k + 1)) / denominator
        out.append(Form(field, terms))
    return out


@pytest.mark.parametrize("name", builtin_names())
def test_lie_basic_is_the_generic_action(name):
    chart = builtin_chart(name)
    for form in _rational_forms(chart.field):
        for r, e_r in enumerate(basics(chart, "lie")):
            assert form.lie_basic(r) == e_r(form), (r, form)


@pytest.mark.parametrize("name", builtin_names())
def test_convert_two_matches_entrywise_evaluation(name):
    chart = builtin_chart(name)

    def reference(theta, basis):
        basic = basics(chart, basis)
        return GradedTwoForm(
            chart, basis, lambda r, s: eval_two(theta, basic[r], basic[s]), theta.weight
        )

    for theta in (theta_even(chart), theta_ks(chart), theta_omega(chart)):
        nabla = reference(theta, "nabla")
        assert convert_two(theta, "nabla") == nabla, theta
        assert convert_two(nabla, "lie") == reference(nabla, "lie"), theta


def test_lie_tabulations_apply_no_derivation(monkeypatch):
    form = _rational_forms(SPHERE.field)[1]
    lam, theta = lambda_metric(SPHERE), theta_even(SPHERE)
    want = dG_function(SPHERE, form), dG_one(lam), convert_two(theta, "nabla")

    def forbidden(*args):
        raise AssertionError("generic evaluation or derivation action taken")

    monkeypatch.setattr(graded, "eval_two", forbidden)
    monkeypatch.setattr(Derivation, "__call__", forbidden)
    got = dG_function(SPHERE, form), dG_one(lam), convert_two(theta, "nabla")
    assert got == want
    assert convert_two(want[2], "lie") == theta


def _lie_derivative_reference(derivation, theta):
    """<E_r, E_s; L^G_D theta> from d^G iota_D theta and dG_two_eval, with
    every commutator computed by Derivation.commutator."""
    basic = basics(theta.geom, "lie")
    lam = iota(derivation, theta)
    dim = theta.geom.dim

    def entry(r, s):
        second = basic[s](eval_one(lam, basic[r]))
        exact = basic[r](eval_one(lam, basic[s])) - (
            -second if r >= dim and s >= dim else second
        )
        exact = exact - eval_one(lam, basic[r].commutator(basic[s]))
        return exact + dG_two_eval(theta, basic[r], basic[s], derivation)

    return [[entry(r, s) for s in range(2 * dim)] for r in range(2 * dim)]


@pytest.mark.parametrize("chart", [HALF, SPHERE, builtin_chart("flat4")])
@pytest.mark.parametrize("kind", ["d", "i_J", "L_X", "i_Y"])
def test_lie_derivative_matches_generic_commutators(chart, kind):
    field = chart.field
    x, y = field.gens[:2]
    pad = [field.zero] * (chart.dim - 2)
    derivation = {
        "d": Derivation.exterior(field),
        "i_J": Derivation.insertion(chart.endo_form(chart.j_matrix)),
        "L_X": Derivation.lie(VectorValuedForm(field, [x * y, x + field.one, *pad])),
        "i_Y": Derivation.insertion(VectorValuedForm(field, [y * y, x, *pad])),
    }[kind]
    for theta in (theta_even(chart), theta_ks(chart)):
        got = lieG_two(derivation, theta)
        want = _lie_derivative_reference(derivation, theta)
        assert [list(row) for row in got.blocks] == want, theta


def test_closed_form_commutator_calls(monkeypatch):
    calls = []
    generic = Derivation.commutator

    def counting(self, other):
        calls.append((self, other))
        return generic(self, other)

    monkeypatch.setattr(Derivation, "commutator", counting)
    theta = theta_even(HALF)
    assert not calls
    lieG_two(Derivation.exterior(HALF.field), theta)
    assert len(calls) == 2 * HALF.dim


def test_lie_derivative_needs_no_generic_evaluation(monkeypatch):
    theta, want = theta_even(HALF), theta_ks(HALF)

    def forbidden(*args):
        raise AssertionError("lieG_two took the Cartan route")

    for name in ("dG_one", "eval_two"):
        monkeypatch.setattr(graded, name, forbidden)
    assert lieG_two(Derivation.exterior(HALF.field), theta) == want


@pytest.mark.parametrize("name", ["flat4", "sphere2"])
def test_signed_sums_negate_no_form(monkeypatch, name):
    # d^G lam, L^G_D theta and dnabla fold each sign into a subtraction or
    # a signed accumulation: no Form is negated only to be added. The
    # mirrored half that GradedTwoForm fills by antisymmetry is not theirs
    chart = builtin_chart(name)
    field = chart.field
    x, y = field.gens[:2]
    pad = [field.zero] * (chart.dim - 2)
    derivations = (
        Derivation.exterior(field),
        Derivation.insertion(chart.endo_form(chart.j_matrix)),
        Derivation.lie(VectorValuedForm(field, [x * y, x + field.one, *pad])),
        Derivation.insertion(VectorValuedForm(field, [y * y, x, *pad])),
    )
    lam, theta = lambda_metric(chart), theta_even(chart)
    identity = VectorValuedForm.identity(field)
    vvforms = (
        VectorValuedForm(field, [x * y, x + field.one, *pad], degree=0),
        identity,
        chart.dnabla(identity),
    )
    want = (
        dG_one_negating(lam),
        [lieG_two_negating(d, theta) for d in derivations],
        [dnabla_negating(chart, vv) for vv in vvforms],
    )

    negations = []
    watching = [False]
    negate = Form.__neg__

    def counting(self):
        if watching[0]:
            negations.append(self)
        return negate(self)

    def watched(fn):
        def call(*args):
            watching[0] = True
            try:
                return fn(*args)
            finally:
                watching[0] = False

        return call

    init = GradedTwoForm.__init__
    monkeypatch.setattr(Form, "__neg__", counting)
    monkeypatch.setattr(
        GradedTwoForm,
        "__init__",
        lambda self, geom, basis, entry, weight: init(self, geom, basis, watched(entry), weight),
    )
    monkeypatch.setattr(ChartGeometry, "dnabla", watched(ChartGeometry.dnabla))
    got = (
        dG_one(lam),
        [lieG_two(d, theta) for d in derivations],
        [chart.dnabla(vv) for vv in vvforms],
    )
    assert negations == []
    assert got == want


def test_graded_calculus_needs_the_lie_basis():
    lam = convert_one(lambda_metric(HALF), "nabla")
    theta = convert_two(theta_even(HALF), "nabla")
    d = Derivation.exterior(HALF.field)
    with pytest.raises(ValueError, match="lie-basis"):
        dG_one(lam)
    with pytest.raises(ValueError, match="lie-basis"):
        lieG_one(d, lam)
    with pytest.raises(ValueError, match="lie-basis"):
        lieG_two(d, theta)


# -- paracomplex insertion ----------------------------------------------------


@pytest.mark.parametrize(
    "name", ["flat2", "flat4", "halfplane", "sphere2", "tlift1", "tlift1q"]
)
def test_insert_endomorphism_into_metric_potential(name):
    chart = builtin_chart(name)
    ij = Derivation.insertion(chart.endo_form(chart.j_matrix))
    assert eval_one(lambda_metric(chart), ij) == chart.omega_form() * 2


def _flat4_with_l(entries, name):
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


def test_compatible_tensor_keeps_insertion_locally_hamiltonian():
    chart = _flat4_with_l({(0, 0, 2): 1}, "flat4_compat")
    ij = Derivation.insertion(chart.endo_form(chart.j_matrix))
    theta = theta_even(chart, chart.l_tensor)
    assert lieG_two(ij, theta).is_zero


def test_incompatible_tensor_breaks_local_hamiltonianity():
    chart = _flat4_with_l({(0, 0, 1): 1}, "flat4_viol")
    ij = Derivation.insertion(chart.endo_form(chart.j_matrix))
    theta = theta_even(chart, chart.l_tensor)
    assert not lieG_two(ij, theta).is_zero


def test_tensor_variant_covariant_mixed_block():
    chart = _flat4_with_l({(0, 0, 2): 1, (1, 2, 3): -2}, "flat4_mixed")
    th = convert_two(theta_even(chart, chart.l_tensor), "nabla")
    for a in range(4):
        for b in range(4):
            want = two_form(chart.field, chart.l_tensor[a]).insert_basis(b)
            assert th.blocks[a][chart.dim + b] == want * Fraction(-1, 2)


# -- validation ----------------------------------------------------------------


def _two_form(values, chart=FLAT2, weight=None):
    """The lie-basis 2-form whose entry function reads values[(r, s)], zero
    elsewhere."""
    zero = Form.zero(chart.field)
    return GradedTwoForm(chart, "lie", lambda r, s: values.get((r, s), zero), weight)


def test_two_form_blocks_must_be_graded_antisymmetric():
    one = Form.function(FLAT2.field.one)
    # two even basics: the block is antisymmetric, its diagonal zero
    with pytest.raises(ValueError, match="antisymmetry"):
        _two_form({(0, 1): one, (1, 0): one})
    with pytest.raises(ValueError, match="antisymmetry"):
        _two_form({(1, 1): one})
    # two insertions: the block is symmetric, so an antisymmetric one fails
    with pytest.raises(ValueError, match="symmetry"):
        _two_form({(2, 3): one, (3, 2): -one})
    # (ins, even) is the negated (even, ins) mirror, whatever entry returns
    # there
    assert _two_form({(0, 2): one, (2, 0): one}).blocks[2][0] == -one
    # rational mirrors that miss the negation in one coefficient, left
    # unnegated or negated over another denominator, and mirrors with
    # another index set; negated, they miss the copy an insertion pair needs
    field = HALF.field
    x, y = field.gens
    block = Form(field, {(): (x + 1) / y, (0,): 1 / y**2})
    mirrors = [
        Form(field, {(): -(x + 1) / y, (0,): 1 / y**2}),
        Form(field, {(): -(x + 1) / y, (0,): -1 / y**3}),
        Form(field, {(): -(x + 1) / y, (0,): Fraction(-1, 2) / y**2}),
        Form(field, {(): -(y + 1) / y, (0,): -1 / y**2}),
        Form(field, {(): -(x + 1) / y, (1,): -1 / y**2}),
        Form(field, {(): -(x + 1) / y}),
    ]
    for pair, sign in (((0, 1), 1), ((2, 3), -1)):
        for mirror in mirrors:
            with pytest.raises(ValueError, match="antisymmetry"):
                _two_form({pair: block, pair[::-1]: mirror * sign}, HALF)
        _two_form({pair: block, pair[::-1]: -block * sign}, HALF)


def test_graded_antisymmetry_check_builds_no_negated_form(monkeypatch):
    # the constructor negates only the n^2 (even, insertion) entries it
    # mirrors, and makes n(n+1)/2 negation checks, on the even-even upper
    # triangle and its diagonal: the mirrored block is not re-checked
    theta = theta_even(SPHERE)
    dim = SPHERE.dim
    negations, checks = [], []
    negate, is_negation_of = Form.__neg__, Form.is_negation_of

    def counted(self):
        negations.append(self)
        return negate(self)

    def checked(self, other):
        checks.append(self)
        return is_negation_of(self, other)

    monkeypatch.setattr(Form, "__neg__", counted)
    monkeypatch.setattr(Form, "is_negation_of", checked)
    rebuilt = GradedTwoForm(SPHERE, theta.basis, lambda r, s: theta.blocks[r][s], theta.weight)
    assert rebuilt == theta
    mirrored = [theta.blocks[s][r] for r in range(dim, 2 * dim) for s in range(dim)]
    assert len(negations) == len(mirrored)
    assert all(a is b for a, b in zip(negations, mirrored))
    assert len(checks) == dim * (dim + 1) // 2 == 3


def test_weight_parity_is_validated():
    f = FLAT2.field
    dx = Form.coordinate_diff(f, 0)
    zero = Form.zero(f)
    with pytest.raises(ValueError, match="weight"):
        GradedOneForm(FLAT2, "lie", [dx, zero, zero, zero], 2)
    GradedOneForm(FLAT2, "lie", [dx, zero, zero, zero], 1)
    # degrees 3 and 1 both break weight 0: the message names the lowest,
    # whatever the order of the terms
    flat4 = builtin_chart("flat4")
    f4 = flat4.field
    value = Form(f4, {(0, 1, 2): f4.one, (0,): f4.one})
    with pytest.raises(ValueError, match="has degree 1, incompatible with weight 0"):
        GradedOneForm(flat4, "lie", [value] + [Form.zero(f4)] * 7, 0)
    # an (even, insertion) entry is checked; its mirror has its degrees
    with pytest.raises(ValueError, match="incompatible with weight"):
        _two_form({(0, 2): Form.function(f.one)}, weight=0)
    _two_form({(0, 2): dx}, weight=0)


def test_naive_lift_is_degenerate_without_correction():
    theta = theta_omega(HALF)
    assert scalar_block_det(theta).is_zero
    assert not scalar_block_det(theta_even(HALF)).is_zero
