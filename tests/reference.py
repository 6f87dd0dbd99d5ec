"""Reference formulas that only the tests call.

Each is the textbook definition of something the package computes
another way, or no longer needs: the value of a parsed expression's
tree, a scalar as a sympy fraction-field
element, for sympy's printing and arithmetic, a value at a rational
point, a determinant by cofactor expansion, the Lie derivative of a form
by Cartan's formula, a derivation's normal form L_K + i_{L'} and its
action through Cartan's formula for K or as one Form per lie basic, the
Lie bracket of vector fields, the lowered curvature tensor entry by
entry and the closed-form even-even
block as its double sum over Christoffel symbols, the connection twist,
an endomorphism's action, a bilinear pairing, the curvature's action on
a vector-valued form and the curvature pairing R4(left, right, _, _) as
sums of one Form per addend, a graded 2-form's row
contraction split into homogeneous parts with their Koszul signs, d^G of
a graded 2-form by the graded Palais formula, the naive lift of omega,
the even symplectic form (with or without a compatibility tensor) as the
sum of two full tabulations and with the half applied to d^G lambda_g
entry by entry, d^G of a graded 1-form, the graded Lie derivative of a
graded 2-form and the exterior covariant derivative with every sign
applied by negating a whole Form, and the even recursion chain with its
seed and every step negated as a whole vector-valued form. Kept outside
the package, they stay independent oracles for what the package does.
"""

from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.fields import FracField

from gradedpoisson.forms import Form, VectorValuedForm
from gradedpoisson.geometry import two_form
from gradedpoisson.graded import (
    GradedOneForm,
    GradedTwoForm,
    _decompose,
    _parity,
    basics,
    dG_function,
    dG_one,
    eval_one,
    eval_two,
    iota,
    lambda_metric,
)


# -- expressions ----------------------------------------------------------------


def expression_value(field, tree) -> Form:
    """The value of an expression tree by the textbook rules.

    A tree is a leaf ("int", n), ("coord", name) or ("diff", name), or a
    node ("sign", signs, child), (op, left, right) for op in + - * /, a
    power ("^", base, signs, n) with the integer exponent signs n, or a
    wedge ("wedge", left, signs, right). * is the wedge product, / divides
    by a scalar and a run of signs negates once per minus.
    """
    kind = tree[0]
    if kind == "int":
        return Form.function(field.constant(tree[1]))
    if kind == "coord":
        return Form.function(field.coordinate(tree[1]))
    if kind == "diff":
        return Form.coordinate_diff(field, field.coords.index(tree[1]))
    if kind == "sign":
        return _signed(tree[1], expression_value(field, tree[2]))
    left = expression_value(field, tree[1])
    if kind == "^":
        return Form.function(left.scalar_part() ** _signed(tree[2], tree[3]))
    if kind == "wedge":
        return left.wedge(_signed(tree[2], expression_value(field, tree[3])))
    right = expression_value(field, tree[2])
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left.wedge(right)
    return left * (field.one / right.scalar_part())


def _signed(signs, value):
    return -value if signs.count("-") % 2 else value


# -- scalars --------------------------------------------------------------------


def sympy_field(field):
    """sympy's fraction field over the integers on ``field``'s coordinates,
    its polynomials in graded-lex order."""
    return FracField(field.coords, ZZ, order="grlex")


def _width(degree):
    """The field width, in bits, of a polynomial of this total degree: the
    narrowest of 32, 64, 128, ... that holds it below a guard bit."""
    width = 32
    while degree >= 2 ** (width - 1):
        width *= 2
    return width


def sympy_poly(field, poly):
    """A polynomial of the scalar layer, a tuple of ``(monomial, coeff)``
    pairs with each monomial packed into one int, as a sympy PolyElement of
    ``field``'s integer ring. A monomial's n + 1 fields hold its total
    degree at the top, then the exponents of the coordinates in order."""
    n = field.dimension
    width = 32
    # the leading monomial fits below the total degree's guard bit
    while poly and poly[0][0] >= 2 ** ((n + 1) * width - 1):
        width *= 2
    mask = 2**width - 1
    return sympy_field(field).ring.from_dict(
        {
            tuple((monom >> ((n - 1 - i) * width)) & mask for i in range(n)): coeff
            for monom, coeff in poly
        }
    )


def native_poly(field, poly):
    """A sympy PolyElement as the scalar layer stores it: each monomial
    packed at the width of the polynomial's total degree, in descending
    order."""
    width = _width(max(map(sum, poly.monoms()), default=0))
    terms = []
    for exps, coeff in poly.items():
        monom = 0
        for exp in (sum(exps), *exps):
            monom = monom << width | exp
        terms.append((monom, int(coeff)))
    return tuple(sorted(terms, reverse=True))


def sympy_factor_list(field, poly):
    """sympy's factor_list of a polynomial of the scalar layer as (sign,
    content, factors): each factor a polynomial of the scalar layer with a
    positive graded-lex leading coefficient, paired with its exponent and
    sorted by its terms."""
    coeff, pairs = sympy_poly(field, poly).factor_list()
    sign, facs = (-1 if coeff < 0 else 1), []
    for factor, exp in pairs:
        if factor.LC < 0:
            factor, sign = -factor, sign * (-1) ** exp
        facs.append((native_poly(field, factor), exp))
    return sign, abs(int(coeff)), sorted(facs)


def sympy_elem(value):
    """A RationalFunction as a sympy FracElement whose denominator is the
    product cont * prod f**e expanded by sympy; no gcd is taken."""
    field = value.field
    frac = sympy_field(field)
    denom = frac.ring(value.cont)
    for factor, exp in value.facs:
        denom *= sympy_poly(field, factor.poly) ** exp
    return frac.raw_new(sympy_poly(field, value.num), denom)


def _eval_poly(poly, values):
    """Evaluate a sympy PolyElement at Fraction values, exactly."""
    total = Fraction(0)
    for monom, coeff in poly.terms():
        term = Fraction(int(coeff.numerator), int(coeff.denominator))
        for exp, val in zip(monom, values):
            if exp:
                term *= val**exp
        total += term
    return total


def eval_at(value, point) -> Fraction:
    """Exact value of a RationalFunction at a rational point.

    Raises ZeroDivisionError when the denominator vanishes there.
    """
    values = [Fraction(p) for p in point]
    if len(values) != value.field.dimension:
        raise ValueError(
            f"point has {len(values)} entries for a "
            f"{value.field.dimension}-dimensional chart"
        )
    elem = sympy_elem(value)
    denom = _eval_poly(elem.denom, values)
    if denom == 0:
        raise ZeroDivisionError("denominator vanishes at the point")
    return _eval_poly(elem.numer, values) / denom


def det_by_cofactors(field, rows):
    """The determinant of a square scalar matrix by cofactor expansion along
    its first row."""
    if not rows:
        return field.one
    total = field.zero
    for j, entry in enumerate(rows[0]):
        if not entry.is_zero:
            term = entry * det_by_cofactors(field, [row[:j] + row[j + 1:] for row in rows[1:]])
            total = total - term if j % 2 else total + term
    return total


# -- forms and vector fields ----------------------------------------------------


def wedge(*forms: Form) -> Form:
    """Wedge product of several forms, left to right."""
    if not forms:
        raise TypeError("wedge needs at least one factor")
    out = forms[0]
    for factor in forms[1:]:
        out = out.wedge(factor)
    return out


def insert_vector(form: Form, vector: VectorValuedForm) -> Form:
    """The interior product i_X form."""
    out = Form.zero(form.field)
    for i, comp in enumerate(vector.components):
        if not comp.is_zero:
            out = out + form.insert_basis(i) * comp.scalar_part()
    return out


def lie_derivative(form: Form, vector: VectorValuedForm) -> Form:
    """L_X form by Cartan's formula, L_X = i_X d + d i_X."""
    return insert_vector(form.d(), vector) + insert_vector(form, vector).d()


def insert_vvform(kpart: VectorValuedForm, form: Form) -> Form:
    """i_K form for a vector-valued form K: sum_i K_i ^ i_{d_i} form."""
    out = Form.zero(form.field)
    for i, comp in enumerate(kpart.components):
        if not comp.is_zero:
            out = out + comp.wedge(form.insert_basis(i))
    return out


def lie_apply(kpart: VectorValuedForm, form: Form) -> Form:
    """L_K form for a vector-valued k-form K: the commutator [i_K, d] of operators."""
    first = insert_vvform(kpart, form.d())
    second = insert_vvform(kpart, form).d()
    # [i_K, d] = i_K d - (-1)^{k-1} d i_K, since i_K has degree k - 1
    if (kpart.degree - 1) % 2 == 0:
        return first - second
    return first + second


def derivation_apply(pairs, form: Form) -> Form:
    """D(form) for D = sum of L_K + i_{L'} over the (K, L') pairs of its
    normal form, by Cartan's formula; either of a pair may be None."""
    out = Form.zero(form.field)
    for kpart, apart in pairs:
        if kpart is not None:
            out = out + lie_apply(kpart, form)
        if apart is not None:
            out = out + insert_vvform(apart, form)
    return out


def normal_form(derivation):
    """The (K, L') pairs of a derivation's normal form D = sum L_K + i_{L'},
    one per degree k from -1 to n: K is the degree-k part of the even
    coefficients and L' = C - (-1)^k dK on degree k + 1, C the insertion
    coefficients."""
    field = derivation.field
    dim = field.dimension
    even, ins = derivation.coefficients[:dim], derivation.coefficients[dim:]

    pairs = [(None, VectorValuedForm(field, [c.homogeneous_part(0) for c in ins], degree=0))]
    for k in range(dim + 1):
        kpart = VectorValuedForm(field, [c.homogeneous_part(k) for c in even], degree=k)
        apart = None
        if k < dim:
            comps = []
            for c, kc in zip(ins, kpart.components):
                dk = kc.d()
                comps.append(c.homogeneous_part(k + 1) - (dk if k % 2 == 0 else -dk))
            apart = VectorValuedForm(field, comps, degree=k + 1)
        pairs.append((kpart, apart))
    return pairs


def directional(vector: VectorValuedForm, scalar):
    """X(f), the derivative of a scalar along a vector field."""
    scalar = vector.field.wrap(scalar)
    out = vector.field.zero
    for i, comp in enumerate(vector.components):
        if not comp.is_zero:
            out = out + comp.scalar_part() * scalar.partial(i)
    return out


def vector_bracket(x: VectorValuedForm, y: VectorValuedForm) -> VectorValuedForm:
    """The Lie bracket [X, Y] of vector fields."""
    comps = [
        directional(x, y.components[i].scalar_part()) - directional(y, x.components[i].scalar_part())
        for i in range(x.field.dimension)
    ]
    return VectorValuedForm(x.field, comps, degree=0)


def scale_vector(x: VectorValuedForm, scalar) -> VectorValuedForm:
    """The vector field s X."""
    return VectorValuedForm(x.field, [c * scalar for c in x.components], degree=0)


def vector_difference(x: VectorValuedForm, y: VectorValuedForm) -> VectorValuedForm:
    """The vector field X - Y."""
    return VectorValuedForm(x.field, [a - b for a, b in zip(x.components, y.components)], degree=0)


# -- chart geometry -------------------------------------------------------------


def j_apply(chart, x: VectorValuedForm) -> VectorValuedForm:
    """J X for the chart's metric-symplectic endomorphism J."""
    comps = []
    for b in range(chart.dim):
        c = chart.field.zero
        for j in range(chart.dim):
            c = c + chart.j_matrix[b][j] * x.components[j].scalar_part()
        comps.append(c)
    return VectorValuedForm(chart.field, comps, degree=0)


def riemann(chart, i: int, j: int, u: int, v: int):
    """R^i_{juv}, the coefficient of e_i in R(e_u, e_v) e_j, by the full
    formula in the Christoffel symbols:

        d_u Gamma^i_{vj} - d_v Gamma^i_{uj}
        + sum_m (Gamma^i_{um} Gamma^m_{vj} - Gamma^i_{vm} Gamma^m_{uj})
    """
    gam = chart.gamma
    total = gam[i][v][j].partial(u) - gam[i][u][j].partial(v)
    for m in range(chart.dim):
        total = total + gam[i][u][m] * gam[m][v][j] - gam[i][v][m] * gam[m][u][j]
    return total


def riemann4(chart, u: int, v: int, w: int, z: int):
    """The 4-tensor -g(R(e_u, e_v) e_w, e_z) = -sum_i R^i_{wuv} g_{iz}, entry
    by entry from riemann."""
    total = chart.field.zero
    for i in range(chart.dim):
        total = total + riemann(chart, i, w, u, v) * chart.g[i][z]
    return -total


def closed_alpha(chart, a: int, b: int) -> Form:
    """The 2-form alpha_ab = <L_a, L_b> - omega_ab of the closed-form even
    symplectic form, by its double sum over the second-kind symbols:

        sum_{u<v} (sum_{m,n} g_mn (Gamma^m_ub Gamma^n_va - Gamma^m_ua Gamma^n_vb)
                   - R4(a, b, u, v)) dx^u ^ dx^v
    """
    dim, gamma = chart.dim, chart.gamma
    terms = {}
    for u in range(dim):
        for v in range(u + 1, dim):
            c = chart.field.zero
            for m in range(dim):
                for n in range(dim):
                    c = c + chart.g[m][n] * (
                        gamma[m][u][b] * gamma[n][v][a] - gamma[m][u][a] * gamma[n][v][b]
                    )
            terms[(u, v)] = c - riemann4(chart, a, b, u, v)
    return Form(chart.field, terms)


def nabla_direction(chart, u: VectorValuedForm, x: VectorValuedForm) -> VectorValuedForm:
    """nabla_U X, the covariant derivative of X along U."""
    nx = chart.dnabla(x)
    return VectorValuedForm(chart.field, [insert_vector(c, u) for c in nx.components], degree=0)


def connection_twist(chart, coeffs) -> tuple[Form, ...]:
    """T_i = sum_{j,k} Gamma^i_{jk} K_k ^ dx^j for n forms K_k, one Form per
    nonzero entry of the dense table chart.gamma: K_k ^ dx^j scaled by the
    symbol, summed by Form.sum."""
    rng = range(chart.dim)
    addends = [[] for _ in rng]
    for i in rng:
        for j in rng:
            for k in rng:
                coeff = chart.gamma[i][j][k]
                if not (coeff.is_zero or coeffs[k].is_zero):
                    dxj = Form.coordinate_diff(chart.field, j)
                    addends[i].append(coeffs[k].wedge(dxj) * coeff)
    return tuple(Form.sum(chart.field, a) for a in addends)


def apply_endo_by_sum(chart, matrix, vvform: VectorValuedForm) -> VectorValuedForm:
    """M K, component b the Form.sum of the scaled Forms K_k * M[b][k]."""
    comps = [
        Form.sum(
            chart.field,
            (c * e for c, e in zip(vvform.components, row) if not (c.is_zero or e.is_zero)),
        )
        for row in matrix
    ]
    return VectorValuedForm(chart.field, comps, degree=vvform.degree)


def pair_by_sum(chart, matrix, left: VectorValuedForm, right: VectorValuedForm) -> Form:
    """B(left, right) as the Form.sum of the Forms (l_a ^ r_b) * B[a][b]."""
    terms = (
        lc.wedge(rc) * coeff
        for lc, row in zip(left.components, matrix) if not lc.is_zero
        for rc, coeff in zip(right.components, row) if not (rc.is_zero or coeff.is_zero)
    )
    return Form.sum(chart.field, terms)


def curvature_pair_by_sum(chart, left: VectorValuedForm, right: VectorValuedForm) -> Form:
    """R4(left, right, _, _) as the Form.sum of the Forms
    R4(a, b, u, v) l_a ^ r_b ^ dx^u ^ dx^v over u < v, each entry of R4
    from riemann4."""
    rng = range(chart.dim)
    terms = []
    for a, lc in enumerate(left.components):
        for b, rc in enumerate(right.components):
            for u in rng:
                for v in range(u + 1, chart.dim):
                    entry = riemann4(chart, a, b, u, v)
                    if not entry.is_zero:
                        block = Form(chart.field, {(u, v): entry})
                        terms.append(lc.wedge(rc).wedge(block))
    return Form.sum(chart.field, terms)


def curvature_apply_by_sum(chart, vvform: VectorValuedForm) -> VectorValuedForm:
    """R(_,_) K, component b the Form.sum of the Forms R^b_j ^ K_j."""
    comps = [
        Form.sum(chart.field, (block.wedge(comp) for block, comp in zip(row, vvform.components)))
        for row in chart.curvature_forms
    ]
    return VectorValuedForm(chart.field, comps, degree=min(vvform.degree + 2, chart.dim))


def per_basic_apply(derivation, form: Form) -> Form:
    """D(form) as sum_r c_r ^ form.lie_basic(r) over the lie basics, each
    product a Form of its own, summed by Form.sum."""
    products = (c.wedge(form.lie_basic(r)) for r, c in enumerate(derivation.coefficients))
    return Form.sum(form.field, products)


# -- graded calculus ------------------------------------------------------------


def contract_row_by_parts(theta: GradedTwoForm, r: int, coeffs) -> Form:
    """<E_r, D; theta> with each coefficient split into its homogeneous
    parts, an insertion E_r signing a part of degree p by (-1)^p."""
    dim = theta.geom.dim
    products = (
        -part.wedge(block) if r >= dim and p % 2 else part.wedge(block)
        for gamma, block in zip(coeffs, theta.blocks[r])
        for p, part in gamma.homogeneous_parts().items()
    )
    return Form.sum(theta.geom.field, products)


def iota_by_parts(derivation, theta: GradedTwoForm) -> list:
    """The values <E_r, D; theta> of iota_D theta, row by row."""
    coeffs = _decompose(theta.geom, derivation, theta.basis)
    return [contract_row_by_parts(theta, r, coeffs) for r in range(2 * theta.geom.dim)]


def eval_two_by_parts(theta: GradedTwoForm, d1, d2) -> Form:
    """<D1, D2; theta> as sum_r beta_r ^ <E_r, D2; theta>, one Form per row."""
    rows = iota_by_parts(d2, theta)
    betas = _decompose(theta.geom, d1, theta.basis)
    return Form.sum(theta.geom.field, (beta.wedge(row) for beta, row in zip(betas, rows)))


def dG_two_eval(theta, d1, d2, d3) -> Form:
    """<D1, D2, D3; d^G theta> by the graded Palais formula."""
    p1, p2, p3 = _parity(d1), _parity(d2), _parity(d3)

    def sgn(bit):
        return -1 if bit % 2 else 1

    total = d1(eval_two(theta, d2, d3))
    t2 = d2(eval_two(theta, d1, d3))
    total = total - (t2 if sgn(p1 * p2) > 0 else -t2)
    t3 = d3(eval_two(theta, d1, d2))
    total = total + (t3 if sgn(p3 * (p1 + p2)) > 0 else -t3)
    total = total - eval_two(theta, d1.commutator(d2), d3)
    t13 = eval_two(theta, d1.commutator(d3), d2)
    total = total + (t13 if sgn(p2 * p3) > 0 else -t13)
    t23 = eval_two(theta, d2.commutator(d3), d1)
    total = total - (t23 if sgn(p1 * (p2 + p3)) > 0 else -t23)
    return total


def lieG_one(derivation, lam: GradedOneForm) -> GradedOneForm:
    """L^G_D on a lie-basis graded 1-form, by the Cartan formula
    L^G_D = iota_D d^G + d^G iota_D."""
    cartan = iota(derivation, dG_one(lam))
    exact = dG_function(lam.geom, eval_one(lam, derivation))
    values = [a + b for a, b in zip(cartan.values, exact.values)]
    return GradedOneForm(lam.geom, "lie", values, cartan.weight)


def theta_omega(geom) -> GradedTwoForm:
    """The naive lift of omega, in the lie basis: <D1, D2> = omega on the
    even-even block only."""
    dim = geom.dim
    zero = Form.zero(geom.field)

    def entry(r, s):
        return Form.function(geom.w[r][s]) if s < dim else zero

    return GradedTwoForm(geom, "lie", entry, 0)


def metric_potential(geom, l_tensor=None) -> GradedOneForm:
    """lambda_g, plus l_L = L(e_a; _, _) on each slot L_a for a compatibility
    tensor L given by its slabs L[a][j][k]."""
    lam = lambda_metric(geom)
    if l_tensor is None:
        return lam
    dim = geom.dim
    on_even = [v + two_form(geom.field, slab) for v, slab in zip(lam.values, l_tensor)]
    return GradedOneForm(geom, "lie", on_even + list(lam.values[dim:]), lam.weight)


def theta_even_two_tables(geom, l_tensor=None) -> GradedTwoForm:
    """theta_omega + d^G((lambda_g + l_L) / 2), the two tables tabulated in
    full and added entry by entry."""
    lam = metric_potential(geom, l_tensor)
    halved = GradedOneForm(geom, "lie", [v * Fraction(1, 2) for v in lam.values], lam.weight)
    omega, exact = theta_omega(geom).blocks, dG_one(halved).blocks
    return GradedTwoForm(geom, "lie", lambda r, s: omega[r][s] + exact[r][s], 0)


def theta_even_entrywise(geom, l_tensor=None) -> GradedTwoForm:
    """theta_omega + (1/2) d^G (lambda_g + l_L), the half taken on each of the
    3n^2 entries of d^G the table computes, after it is tabulated."""
    omega = theta_omega(geom).blocks
    exact = dG_one(metric_potential(geom, l_tensor)).blocks

    def entry(r, s):
        return omega[r][s] + exact[r][s] * Fraction(1, 2)

    return GradedTwoForm(geom, "lie", entry, None)


# -- sums with negated Forms ------------------------------------------------------


def dG_one_negating(lam: GradedOneForm) -> GradedTwoForm:
    """d^G lam on the lie basics, D1<D2; lam> - (-1)^{|D1||D2|} D2<D1; lam>,
    the sign applied by negating D2<D1; lam>."""
    dim, values = lam.geom.dim, lam.values

    def entry(r, s):
        second = values[r].lie_basic(s)
        return values[s].lie_basic(r) - (-second if r >= dim and s >= dim else second)

    return GradedTwoForm(lam.geom, "lie", entry, lam.weight)


def lieG_two_negating(derivation, theta: GradedTwoForm) -> GradedTwoForm:
    """L^G_D theta on the lie basics, -(-1)^{|D|(|E_r| + |E_s|)} (D<E_r, E_s>
    - <[D, E_r], E_s> - (-1)^{|D||E_r|} <E_r, [D, E_s]>), each sign applied
    by negating a Form."""
    geom, dim, p = theta.geom, theta.geom.dim, _parity(derivation)
    pulled = [iota(derivation.commutator(e), theta).values for e in basics(geom, "lie")]

    def entry(r, s):
        pr, ps = r >= dim, s >= dim
        back = -pulled[r][s] if (p + pr) * ps % 2 else pulled[r][s]
        ahead = pulled[s][r] if p * pr % 2 else -pulled[s][r]
        inner = derivation(theta.blocks[r][s]) + back + ahead
        return inner if p * (pr + ps) % 2 else -inner

    weight = None
    if theta.weight is not None and derivation.degree is not None:
        weight = theta.weight + derivation.degree
    return GradedTwoForm(geom, "lie", entry, weight)


def dnabla_negating(chart, vvform: VectorValuedForm) -> VectorValuedForm:
    """dK + (-1)^k T(K), the sign applied by negating each twist component."""
    if vvform.degree == chart.dim:
        return VectorValuedForm(chart.field, [Form.zero(chart.field)] * chart.dim, degree=chart.dim)
    twist = connection_twist(chart, vvform.components)
    odd = vvform.degree % 2
    comps = [c.d() + (-t if odd else t) for c, t in zip(vvform.components, twist)]
    return VectorValuedForm(chart.field, comps, degree=vvform.degree + 1)


def k_even_negating(chart, f) -> list[VectorValuedForm]:
    """K^0, K^2, ... of D_f: seeded at -X_f, the negation of the classical
    Hamiltonian field, and each step J^{-1}(R(_,_) K) negated as a whole."""
    return chain_negating(chart, -chart.classical_hamiltonian(f), chart.dim)


def chain_negating(chart, seed: VectorValuedForm, top: int) -> list[VectorValuedForm]:
    """seed, then each -J^{-1}(R(_,_) K) up to degree top, the sign applied
    by negating the step."""
    seq = [seed]
    for _ in range(seed.degree + 2, top + 1, 2):
        seq.append(-chart.apply_endo(chart.j_inv, chart.curvature_apply(seq[-1])))
    return seq
