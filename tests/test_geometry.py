"""Connection, curvature, J, musical maps, classical mechanics, chart library."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradedpoisson import brackets
from gradedpoisson.forms import Form, VectorValuedForm
from gradedpoisson.geometry import (
    ChartError,
    ChartGeometry,
    builtin_chart,
    builtin_names,
    matmul,
    matrix_inverse,
    tangent_lift_chart,
)
from gradedpoisson.graded import theta_even_closed_lie
from gradedpoisson.manifest import parse_manifest
from gradedpoisson.scalars import coordinate_field
from reference import (
    apply_endo_by_sum,
    closed_alpha,
    connection_twist,
    curvature_apply_by_sum,
    det_by_cofactors,
    insert_vector,
    j_apply,
    nabla_direction,
    pair_by_sum,
    riemann4,
    scale_vector,
    vector_difference,
)

CHARTS = {name: builtin_chart(name) for name in builtin_names()}

# sphere2 x halfplane: the one 4-D chart here whose curvature is not zero
PRODUCT = parse_manifest("""\
[chart] name=product, dim=4, coords=x,y,u,v
kahler-expected=true
[metric]
g.1.1=4/(1+x^2+y^2)^2
g.2.2=4/(1+x^2+y^2)^2
g.3.3=1/v^2
g.4.4=1/v^2
[symplectic]
w.1.2=4/(1+x^2+y^2)^2
w.3.4=1/v^2
""")
TABLE_CHARTS = {**CHARTS, "product": PRODUCT}


@st.composite
def polys(draw, field):
    value = field.zero
    for _ in range(draw(st.integers(0, 3))):
        term = field.constant(draw(st.integers(-3, 3)))
        for index in draw(st.lists(st.integers(0, field.dimension - 1), max_size=3)):
            term = term * field.gens[index]
        value = value + term
    return value


@st.composite
def mixed_forms(draw, field, degrees=None):
    """A form whose terms have the given degrees (any when None), with
    polynomial coefficients and quotients by 1 + x^2."""
    dim = field.dimension
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.sampled_from(degrees)) if degrees else draw(st.integers(0, dim))
        idx = sorted(draw(st.permutations(range(dim)))[:degree])
        coeff = draw(polys(field))
        if draw(st.booleans()):
            coeff = coeff / (1 + field.gens[0] ** 2)
        terms.append((idx, coeff))
    return Form(field, terms)


@st.composite
def vvforms(draw, chart, degree):
    comps = [draw(mixed_forms(chart.field, [degree])) for _ in range(chart.dim)]
    return VectorValuedForm(chart.field, comps, degree=degree)


def basis_fields(chart):
    return [VectorValuedForm.basis(chart.field, i) for i in range(chart.dim)]


def test_christoffel_examples():
    hp = CHARTS["halfplane"]
    x, y = hp.field.gens
    assert hp.gamma[0][0][1] == -1 / y
    assert hp.gamma[1][0][0] == 1 / y
    assert hp.gamma[1][1][1] == -1 / y
    sp = CHARTS["sphere2"]
    assert sp.gamma[0][0][0] == -2 * sp.field.gens[0] / (1 + sp.field.gens[0] ** 2 + sp.field.gens[1] ** 2)
    assert all(
        CHARTS["flat2"].gamma[i][j][k].is_zero
        for i in range(2)
        for j in range(2)
        for k in range(2)
    )


@pytest.mark.parametrize("name", builtin_names())
def test_metric_compatibility(name):
    ch = CHARTS[name]
    for k in range(ch.dim):
        for i in range(ch.dim):
            for j in range(ch.dim):
                lhs = ch.g[i][j].partial(k)
                for m in range(ch.dim):
                    lhs = lhs - ch.gamma[m][k][i] * ch.g[m][j] - ch.gamma[m][k][j] * ch.g[i][m]
                assert lhs.is_zero


@pytest.mark.parametrize("name", builtin_names())
def test_symplectic_parallel_on_builtins(name):
    ch = CHARTS[name]
    for k in range(ch.dim):
        for i in range(ch.dim):
            for j in range(ch.dim):
                lhs = ch.w[i][j].partial(k)
                for m in range(ch.dim):
                    lhs = lhs - ch.gamma[m][k][i] * ch.w[m][j] - ch.gamma[m][k][j] * ch.w[i][m]
                assert lhs.is_zero


@pytest.mark.parametrize("name", TABLE_CHARTS)
def test_curvature_symmetries(name):
    ch = TABLE_CHARTS[name]
    r4 = ch.riemann_lowered
    rng = range(ch.dim)
    for u in rng:
        for v in rng:
            for w in rng:
                for z in rng:
                    r = r4[u][v][w][z]
                    assert r == -r4[v][u][w][z]
                    assert r == -r4[u][v][z][w]
                    assert r == r4[w][z][u][v]
    # R4(e_u, e_v, _, _) holds exactly the entries with w < z
    for u in rng:
        for v in rng:
            entries = {(w, z): r4[u][v][w][z] for w in rng for z in rng if w < z}
            assert ch.riemann4_forms[u][v] == Form(ch.field, entries)
    # first Bianchi on the endomorphism
    for u in rng:
        for v in rng:
            for j in rng:
                for i in rng:
                    total = (
                        ch.riemann[i][j][u][v]
                        + ch.riemann[i][u][v][j]
                        + ch.riemann[i][v][j][u]
                    )
                    assert total.is_zero


@pytest.mark.parametrize("name", TABLE_CHARTS)
def test_curvature_tables_match_the_entrywise_sums(name):
    ch = TABLE_CHARTS[name]
    rng = range(ch.dim)
    for u in rng:
        for v in rng:
            want = {(w, z): riemann4(ch, u, v, w, z) for w in rng for z in rng}
            assert {(w, z): ch.riemann_lowered[u][v][w][z] for w in rng for z in rng} == want
            endo = {(w, z): ch.riemann[u][v][w][z] for w in rng for z in rng if w < z}
            assert ch.curvature_forms[u][v] == Form(ch.field, endo)


def test_the_product_chart_has_four_dimensional_curvature():
    r4 = PRODUCT.riemann4_forms
    assert not r4[0][1].is_zero and not r4[2][3].is_zero
    assert r4[0][2].is_zero and r4[1][3].is_zero


@pytest.mark.parametrize("name", TABLE_CHARTS)
def test_christoffel_tables_match_their_definitions(name):
    ch = TABLE_CHARTS[name]
    rng = range(ch.dim)
    for n in rng:
        for j in rng:
            for k in rng:
                lowered = sum((ch.g[m][n] * ch.gamma[m][j][k] for m in rng), ch.field.zero)
                assert ch.gamma_first[n][j][k] == lowered
    for i in rng:
        for k in rng:
            form = ch.connection_forms[i][k]
            assert form.is_homogeneous(1)
            for j in rng:
                assert form.coefficient((j,)) == ch.gamma[i][j][k]
    nonzero = [i for i in rng if any(not form.is_zero for form in ch.connection_forms[i])]
    assert [i for i, _ in ch.connection_rows] == nonzero
    assert all(row is ch.connection_forms[i] for i, row in ch.connection_rows)


@pytest.mark.parametrize("name", TABLE_CHARTS)
def test_closed_lie_blocks_match_the_double_sums(name):
    ch = TABLE_CHARTS[name]
    theta = theta_even_closed_lie(ch)
    rng = range(ch.dim)
    for a in rng:
        for b in rng:
            assert theta.blocks[a][b] == Form.function(ch.w[a][b]) + closed_alpha(ch, a, b)
            mixed = {
                (u,): sum((ch.gamma[m][u][a] * ch.g[m][b] for m in rng), ch.field.zero)
                for u in rng
            }
            assert theta.blocks[a][ch.dim + b] == Form(ch.field, mixed)


@pytest.mark.parametrize("name", builtin_names())
def test_riemann_matches_the_full_formula(name):
    ch = CHARTS[name]
    rng = range(ch.dim)
    gam = ch.gamma
    for i in rng:
        for j in rng:
            for u in rng:
                for v in rng:
                    want = gam[i][v][j].partial(u) - gam[i][u][j].partial(v)
                    for m in rng:
                        want = want + gam[i][u][m] * gam[m][v][j] - gam[i][v][m] * gam[m][u][j]
                    assert ch.riemann[i][j][u][v] == want


def test_flat_charts_have_no_curvature():
    for name in ("flat2", "flat4", "tlift1"):
        ch = CHARTS[name]
        assert all(
            ch.riemann[i][j][u][v].is_zero
            for i in range(ch.dim)
            for j in range(ch.dim)
            for u in range(ch.dim)
            for v in range(ch.dim)
        )
    sp = CHARTS["sphere2"]
    assert not sp.riemann_lowered[0][1][0][1].is_zero


@pytest.mark.parametrize("name", builtin_names())
def test_j_defining_identity_and_antisymmetry(name):
    ch = CHARTS[name]
    basis = basis_fields(ch)
    for x in basis:
        for y in basis:
            jx, jy = j_apply(ch, x), j_apply(ch, y)
            assert ch.pair(ch.w, x, y) == ch.pair(ch.g, jx, y)
            assert ch.pair(ch.g, jx, y) == -ch.pair(ch.g, x, jy)


def test_j_examples():
    f2 = CHARTS["flat2"]
    ex, ey = basis_fields(f2)
    assert ch_eq(j_apply(f2, ex), ey)
    assert ch_eq(j_apply(f2, ey), -ex)
    assert f2.j_square_scalar() == -1
    assert f2.endo_form(f2.j_matrix).components[0] == -Form.coordinate_diff(f2.field, 1)
    f4 = CHARTS["flat4"]
    expected = [1, 1, -1, -1]
    for i in range(4):
        for j in range(4):
            assert f4.j_matrix[i][j] == (expected[i] if i == j else 0)
    assert f4.j_square_scalar() == 1


def test_j_square_is_none_unless_a_unit_multiple_of_the_identity():
    # g = diag(2, 1) with omega_12 = 1: J^2 = -Id / 2
    field = coordinate_field(("x", "y"))
    one, zero = field.one, field.zero
    scaled = ChartGeometry("scaled", ("x", "y"), [[2 * one, zero], [zero, one]], [[zero, one], [-one, zero]])
    square = matmul(field, scaled.j_matrix, scaled.j_matrix)
    assert square == ((field.constant(Fraction(-1, 2)), zero), (zero, field.constant(Fraction(-1, 2))))
    assert scaled.j_square_scalar() is None
    # g = diag(1, 1, 1, -1) with omega = dx1^dx2 + dx3^dx4: J^2 is -Id on the
    # first plane and +Id on the second
    f4 = coordinate_field(("x1", "x2", "x3", "x4"))
    o, z = f4.one, f4.zero
    g = [[(-o if i == 3 else o) if i == j else z for j in range(4)] for i in range(4)]
    w = [[z] * 4 for _ in range(4)]
    w[0][1], w[1][0], w[2][3], w[3][2] = o, -o, o, -o
    mixed = ChartGeometry("mixed", ("x1", "x2", "x3", "x4"), g, w)
    square = matmul(f4, mixed.j_matrix, mixed.j_matrix)
    assert [square[i][j] for i in range(4) for j in range(4) if i != j] == [0] * 12
    assert [square[i][i] for i in range(4)] == [-1, -1, 1, 1]
    assert mixed.j_square_scalar() is None


@given(data=st.data())
def test_matmul_is_the_entrywise_triple_sum(data):
    field = CHARTS["sphere2"].field
    n = data.draw(st.integers(1, 3))
    a, b = ([[data.draw(polys(field)) for _ in range(n)] for _ in range(n)] for _ in range(2))
    rng = range(n)
    want = [[sum((a[i][m] * b[m][j] for m in rng), field.zero) for j in rng] for i in rng]
    assert matmul(field, a, b) == tuple(tuple(row) for row in want)


def ch_eq(a, b):
    return a == b


@pytest.mark.parametrize("name", builtin_names())
def test_nabla_j_vanishes_on_builtins(name):
    # every built-in is Kähler or para-Kähler
    ch = CHARTS[name]
    basis = basis_fields(ch)
    for x in basis:
        for y in basis:
            lhs = vector_difference(nabla_direction(ch, x, j_apply(ch, y)), j_apply(ch, nabla_direction(ch, x, y)))
            assert lhs.is_zero


def test_nabla_j_antisymmetry_with_generic_metric():
    # differentiating g(JX,Y) = -g(X,JY) along the Levi-Civita connection
    # makes the covariant derivative of J antisymmetric in the metric; probe
    # on a chart where nabla J is genuinely nonzero
    field = coordinate_field(("x", "y"))
    x, y = field.gens
    chart = ChartGeometry(
        "skew",
        ("x", "y"),
        [[1 + x**2, field.zero], [field.zero, field.one]],
        [[field.zero, field.one], [-field.one, field.zero]],
    )
    basis = basis_fields(chart)
    nonzero = False
    for u in basis:
        for yv in basis:
            for z in basis:
                nj_y = vector_difference(
                    nabla_direction(chart, u, j_apply(chart, yv)), j_apply(chart, nabla_direction(chart, u, yv))
                )
                nj_z = vector_difference(
                    nabla_direction(chart, u, j_apply(chart, z)), j_apply(chart, nabla_direction(chart, u, z))
                )
                nonzero = nonzero or not nj_y.is_zero
                assert chart.pair(chart.g, nj_y, z) == -chart.pair(chart.g, nj_z, yv)
    assert nonzero


def test_musical_examples():
    # row a of endo_form(g) is the 1-form g(e_a, _), and sharp takes it back to e_a
    f2 = CHARTS["flat2"]
    row = f2.endo_form(f2.g).components[0]
    assert row == Form.coordinate_diff(f2.field, 0)
    assert f2.sharp(row) == VectorValuedForm.basis(f2.field, 0)
    hp = CHARTS["halfplane"]
    y = hp.field.gens[1]
    row = hp.endo_form(hp.g).components[0]
    assert row == Form.coordinate_diff(hp.field, 0) * (1 / y**2)
    assert hp.sharp(row) == VectorValuedForm.basis(hp.field, 0)


@pytest.mark.parametrize("name", ["sphere2", "tlift1q"])
@given(data=st.data())
def test_musical_round_trip(name, data):
    ch = CHARTS[name]
    comps = [data.draw(polys(ch.field)) for _ in range(ch.dim)]
    x = VectorValuedForm(ch.field, comps, degree=0)
    rows = ch.endo_form(ch.g).components
    for a, row in enumerate(rows):
        assert ch.sharp(row) == VectorValuedForm.basis(ch.field, a)
    # g(X, _) = sum_a X^a g(e_a, _)
    flat = Form.sum(ch.field, (row * c for row, c in zip(rows, comps)))
    assert ch.sharp(flat) == x


@pytest.mark.parametrize("name", builtin_names())
def test_torsion_free(name):
    ch = CHARTS[name]
    assert ch.dnabla(VectorValuedForm.identity(ch.field)).is_zero


def test_dnabla_flat_is_componentwise_d():
    f2 = CHARTS["flat2"]
    x, y = f2.field.gens
    dx = Form.coordinate_diff(f2.field, 0)
    vv = VectorValuedForm(f2.field, [dx * (x * y), dx * y], degree=1)
    out = f2.dnabla(vv)
    assert out.components[0] == (dx * (x * y)).d()
    assert out.components[1] == (dx * y).d()


def _dnabla_by_formula(ch, vv):
    """(d^nabla K)^i = dK^i + Gamma^i_jk dx^j ^ K^k, term by term."""
    comps = []
    for i in range(ch.dim):
        total = vv.components[i].d()
        for j in range(ch.dim):
            dxj = Form.coordinate_diff(ch.field, j)
            for k in range(ch.dim):
                total = total + dxj.wedge(vv.components[k]) * ch.gamma[i][j][k]
        comps.append(total)
    return comps


@pytest.mark.parametrize("name", ["sphere2", "flat4"])
@given(data=st.data())
def test_top_degree_dnabla_matches_the_formula(name, data):
    ch = CHARTS[name]
    top = tuple(range(ch.dim))
    comps = [Form(ch.field, {top: data.draw(polys(ch.field)) + 1}) for _ in range(ch.dim)]
    vv = VectorValuedForm(ch.field, comps, degree=ch.dim)
    out = ch.dnabla(vv)
    assert out.degree == ch.dim and out.is_zero
    assert list(out.components) == _dnabla_by_formula(ch, vv)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", ["sphere2", "tlift1q", "halfplane", "product"])
@given(data=st.data())
def test_twist_into_matches_the_per_symbol_wedges(name, sign, data):
    # sign * T(K) accumulated term by term equals the Form.sum of one wedge
    # K_k ^ dx^j scaled by Gamma^i_{jk} per nonzero symbol, into empty dicts
    # and into dicts holding entries that the twist cancels
    ch = TABLE_CHARTS[name]
    coeffs = [data.draw(mixed_forms(ch.field)) for _ in range(ch.dim)]
    twist = connection_twist(ch, coeffs)
    start = [Form.zero(ch.field)] * ch.dim
    if data.draw(st.booleans()):
        kept = [data.draw(mixed_forms(ch.field)) for _ in range(ch.dim)]
        start = [p - t if sign > 0 else p + t for p, t in zip(kept, twist)]
    want = [s + t if sign > 0 else s - t for s, t in zip(start, twist)]
    terms = [dict(s.terms) for s in start]
    ch.twist_into(terms, coeffs, sign)
    assert terms == [w.terms for w in want]


@pytest.mark.parametrize("name", ["sphere2", "tlift1q", "halfplane", "product"])
@given(data=st.data())
def test_vector_slot_contractions_match_their_form_sums(name, data):
    ch = TABLE_CHARTS[name]
    degree = data.draw(st.integers(0, ch.dim))
    left = data.draw(vvforms(ch, degree))
    right = data.draw(vvforms(ch, data.draw(st.integers(0, ch.dim))))
    for matrix in (ch.g, ch.w, ch.j_inv, ch.lam):
        assert ch.apply_endo(matrix, left) == apply_endo_by_sum(ch, matrix, left)
        assert ch.pair(matrix, left, right) == pair_by_sum(ch, matrix, left, right)
    assert ch.curvature_apply(left) == curvature_apply_by_sum(ch, left)


def test_twist_and_contractions_build_no_form_per_addend(monkeypatch):
    # twist_into, dnabla, nabla_derivation, apply_endo, pair,
    # curvature_apply and the brackets' curvature pairing and bivector
    # insertion accumulate into term dicts: no Form is wedged, scaled or
    # summed on the way
    ch = PRODUCT
    field = ch.field
    x, y, u, v = field.gens
    dx = [Form.coordinate_diff(field, i) for i in range(4)]
    one = VectorValuedForm(field, [dx[0] * x, dx[1] * (y / v), dx[2] * u, dx[3]], degree=1)
    vec = VectorValuedForm(field, [x * y, u, field.one, v], degree=0)
    other = VectorValuedForm(field, [v, x, y * u, field.one], degree=0)
    two = Form(field, {(0, 1): x * u, (1, 3): y, (2, 3): field.one})
    # the curvature tables are built once per chart, before the watch
    ch.curvature_forms, ch.riemann4_forms

    def forbidden(*args):
        raise AssertionError("a Form was built per addend")

    for name in ("wedge", "__mul__", "sum"):
        monkeypatch.setattr(Form, name, forbidden)
    terms = [{} for _ in range(4)]
    ch.twist_into(terms, one.components, -1)
    assert any(terms)
    assert not ch.dnabla(one).is_zero
    assert not ch.nabla_derivation(vec).is_zero
    assert not ch.apply_endo(ch.j_inv, one).is_zero
    assert not ch.pair(ch.g, one, vec).is_zero
    assert not ch.curvature_apply(vec).is_zero
    assert not brackets._curvature_pair(ch, vec, other).is_zero
    assert not brackets._bivector_insertion(ch, two).is_zero


def test_classical_hamiltonian_examples():
    f2 = CHARTS["flat2"]
    x, y = f2.field.gens
    assert f2.classical_hamiltonian(x) == -VectorValuedForm.basis(f2.field, 1)
    assert f2.classical_poisson(x, y) == 1
    hp = CHARTS["halfplane"]
    hx, hy = hp.field.gens
    assert hp.classical_hamiltonian(hx) == scale_vector(VectorValuedForm.basis(hp.field, 1), -(hy**2))


@pytest.mark.parametrize("name", ["flat2", "halfplane"])
@given(data=st.data())
def test_classical_poisson_properties(name, data):
    ch = CHARTS[name]
    f = data.draw(polys(ch.field))
    h = data.draw(polys(ch.field))
    k = data.draw(polys(ch.field))
    assert ch.classical_poisson(f, f).is_zero
    assert ch.classical_poisson(f, h) == -ch.classical_poisson(h, f)
    jac = (
        ch.classical_poisson(f, ch.classical_poisson(h, k))
        + ch.classical_poisson(h, ch.classical_poisson(k, f))
        + ch.classical_poisson(k, ch.classical_poisson(f, h))
    )
    assert jac.is_zero


def test_classical_hamiltonian_insertion_convention():
    for name in builtin_names():
        ch = CHARTS[name]
        f = ch.field.gens[0] ** 2 + ch.field.gens[1]
        xf = ch.classical_hamiltonian(f)
        df = Form.function(f).d()
        assert insert_vector(ch.omega_form(), xf) == df


def test_tangent_lift_values():
    t1 = CHARTS["tlift1"]
    assert t1.field.coords == ("q", "v")
    assert t1.w[0][1] == -1
    assert t1.g[0][0].is_zero and t1.g[0][1] == 1 and t1.g[1][1].is_zero
    t1q = CHARTS["tlift1q"]
    q = t1q.field.coordinate("q")
    v = t1q.field.coordinate("v")
    assert t1q.w[0][1] == -(1 + q**2)
    assert t1q.g[0][0] == 2 * q * v
    assert t1q.g[0][1] == 1 + q**2
    assert t1q.g[1][1].is_zero


@pytest.mark.parametrize("name", ["tlift1", "tlift1q"])
def test_tangent_lift_structure(name):
    ch = CHARTS[name]
    assert ch.canonical_j is not None
    assert ch.j_matrix == ch.canonical_j
    assert ch.j_square_scalar() == 1
    basis = basis_fields(ch)
    for a in basis:
        for b in basis:
            ja, jb = j_apply(ch, a), j_apply(ch, b)
            assert ch.pair(ch.w, a, b) == ch.pair(ch.g, ja, b)
            assert ch.pair(ch.g, ja, jb) == -ch.pair(ch.g, a, b)


def test_chart_validation_errors():
    field = coordinate_field(("x", "y"))
    x, y = field.gens
    one, zero = field.one, field.zero
    with pytest.raises(ChartError, match="symmetry"):
        ChartGeometry("bad", ("x", "y"), [[one, x], [zero, one]], [[zero, one], [-one, zero]])
    with pytest.raises(ChartError, match="antisymmetry"):
        ChartGeometry("bad", ("x", "y"), [[one, zero], [zero, one]], [[zero, one], [one, zero]])
    with pytest.raises(ChartError, match="degenerate"):
        ChartGeometry("bad", ("x", "y"), [[one, zero], [zero, zero]], [[zero, one], [-one, zero]])
    f4 = coordinate_field(("x1", "x2", "x3", "x4"))
    x3 = f4.coordinate("x3")
    o4, z4 = f4.one, f4.zero
    g4 = [[o4 if i == j else z4 for j in range(4)] for i in range(4)]
    w4 = [[z4] * 4 for _ in range(4)]
    w4[0][1], w4[1][0] = x3, -x3
    w4[2][3], w4[3][2] = o4, -o4
    with pytest.raises(ChartError, match="not closed"):
        ChartGeometry("bad4", ("x1", "x2", "x3", "x4"), g4, w4)


def test_matrix_helpers():
    field = coordinate_field(("x", "y"))
    x, y = field.gens
    m = [[1 + x**2, field.one], [field.one, field.one]]
    det, inv = matrix_inverse(m, field)
    for i in range(2):
        for j in range(2):
            entry = sum((m[i][k] * inv[k][j] for k in range(2)), field.zero)
            assert entry == (1 if i == j else 0)
    assert det == x**2
    # a row swap negates the determinant
    assert matrix_inverse([m[1], m[0]], field)[0] == -(x**2)
    assert matrix_inverse([[field.zero]], field) == (field.zero, None)


@st.composite
def entries(draw, field):
    """A polynomial with a rational coefficient over one of a few nonzero
    denominators, or zero."""
    x, y = field.gens
    scale = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    den = draw(st.sampled_from([field.one, y, 1 + x**2, x + y, 1 + x**2 + y**2]))
    return draw(polys(field)) * scale / den


@st.composite
def square_matrices(draw, field):
    """A 1x1 to 4x4 scalar matrix: dense, a row permutation of an upper
    triangular one with a nonzero diagonal (a pivot search that must swap
    rows unless the permutation fixes the first), or one whose last row is
    a multiple of its first (singular)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["dense", "swapped", "singular"]))
    rows = [[draw(entries(field)) for _ in range(n)] for _ in range(n)]
    if kind == "swapped":
        for i in range(n):
            rows[i][:i] = [field.zero] * i
            rows[i][i] = draw(entries(field).filter(bool))
        rows = [rows[i] for i in draw(st.permutations(range(n)))]
    elif kind == "singular":
        rows[-1] = [entry * draw(entries(field)) for entry in rows[0]] if n > 1 else [field.zero]
    return rows


@given(data=st.data())
def test_matrix_inverse_is_exact(data):
    field = coordinate_field(("x", "y"))
    m = data.draw(square_matrices(field))
    n = len(m)
    det, inv = matrix_inverse(m, field)
    assert det == det_by_cofactors(field, m)
    if det.is_zero:
        assert (det, inv) == (field.zero, None)
        return
    identity = tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n))
    assert matmul(field, m, inv) == identity
    assert matmul(field, inv, m) == identity


def test_matrix_inverse_swaps_to_a_nonzero_pivot():
    field = coordinate_field(("x", "y"))
    x, y = field.gens
    zero, one = field.zero, field.one
    # only the last row has a nonzero first entry, so the pivot search swaps
    m = [[zero, zero, one / (1 + x**2)], [zero, y, x], [Fraction(1, 3) * x, one, y]]
    det, inv = matrix_inverse(m, field)
    assert det == det_by_cofactors(field, m) == -(x * y) / (3 + 3 * x**2)
    identity = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    assert matmul(field, m, inv) == matmul(field, inv, m) == identity
    assert matrix_inverse([[x, y], [2 * x, 2 * y]], field) == (zero, None)


def test_det_relation_omega_metric():
    for name in builtin_names():
        ch = CHARTS[name]
        assert not (ch.det_g * ch.det_w).is_zero
