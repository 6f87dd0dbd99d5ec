"""Pseudoriemannian and symplectic structure on a coordinate chart.

A ChartGeometry bundles a metric and a symplectic form (plus an optional
compatibility tensor) with what downstream code contracts against:
Christoffel symbols, curvature, the endomorphism J relating the two
structures, musical isomorphisms, and classical Hamiltonian mechanics.
Construction validates symmetry, antisymmetry, closedness and
non-degeneracy, so no degenerate chart ever circulates.

The chart's matrices (g, omega, their inverses, J, a Hessian) are contracted
among scalars by dot and matmul: Gamma^i_{jk} = g^{im} Gamma_{m,jk},
J = g^-1 omega^T, J^2 and the curvature's [Gamma_u, Gamma_v] are matmul. A
vector field is a VectorValuedForm of degree 0, and vector-valued forms
meet a matrix M in apply_endo(M, K) on the vector slot, pair(M, K, L), the
bilinear form of M, and endo_form(M), the 1-form dx^j (x) M e_j, whose
component a is the row M(e_a, _). So X_f = lam . grad f and sharp(alpha) =
g^-1 . alpha are apply_endo, {f, h} = omega(X_f, X_h) is pair, and J and
the rows of g and omega as 1-forms are endo_form. two_form(field, M) is
the 2-form sum_{j<k} M[j][k] dx^j wedge dx^k of an antisymmetric M: omega,
each slab L(e_a; _, _) of a compatibility tensor and each curvature block.
A determinant and an inverse come from matrix_inverse, one Gauss-Jordan
elimination whose pivots are exact: it writes the one and the zeros of a
reduced pivot column rather than computing p * p^-1 and a - a * 1.

twist_into accumulates the connection twist T_i = sum_k K_k ^ omega^i_k,
with omega^i_k = Gamma^i_{jk} dx^j the connection 1-forms, into term dicts
the caller owns: dnabla into each dK_i, nabla_derivation into empty ones,
graded._decompose and the solver into a derivation's insertion
coefficients. It and curvature_apply apply table rows through
forms._pair_into, apply_endo and pair scale through forms._scale_into,
and none of them builds a Form per addend.

The derived tensors are built on first read, each once per chart, and
none of them can fail once construction has passed: the Christoffel
symbols of both kinds (gamma_first, gamma), the connection 1-forms
(connection_forms) and their nonzero rows (connection_rows), the
curvature endomorphism riemann and its lowered form riemann_lowered, the
tables riemann4_forms and curvature_forms of their 2-forms, and J with its
inverse (j_matrix, j_inv). Contractions skip zero Christoffel and
curvature entries, and the twist visits only connection_rows, so a flat
chart pays for none of them.
The odd (Koszul-Schouten) bracket and the even bracket over the lie basics
read none of the tables; over the nabla basics it reads only Gamma and
the connection 1-forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .forms import Derivation, Form, VectorValuedForm, _pair_into, _scale_into, _wedge_into
from .scalars import RationalFunction, ScalarField, coordinate_field


class ChartError(ValueError):
    """A chart definition violates a structural invariant."""


def matrix_inverse(rows, field: ScalarField):
    """(det, inverse) by one Gauss-Jordan elimination over the scalar field.

    The determinant is the product of the pivots, negated once per row
    swap. inverse is None when det is zero.

    The pivots are exact: the pivot entry becomes field.one and the rest of
    its column field.zero, the values p * p^-1 and a - a * 1 take, without
    computing them. Only the columns right of the pivot are scaled and
    reduced; left of it the pivot row is already zero.
    """
    n = len(rows)
    work = [list(row) + [field.one if i == j else field.zero for j in range(n)] for i, row in enumerate(rows)]
    det = field.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero), None)
        if pivot is None:
            return field.zero, None
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        row, rest = work[col], col + 1
        det = det * row[col]
        inv = 1 / row[col]
        row[rest:] = [entry * inv if entry else entry for entry in row[rest:]]
        row[col] = field.one
        for other in work:
            factor = other[col]
            if other is row or factor.is_zero:
                continue
            other[rest:] = [a - factor * b if b else a for a, b in zip(other[rest:], row[rest:])]
            other[col] = field.zero
    return det, tuple(tuple(row[n:]) for row in work)


def dot(field: ScalarField, pairs) -> RationalFunction:
    """The sum of a * b over the pairs (a, b) in which neither factor is zero."""
    total = field.zero
    for a, b in pairs:
        if not (a.is_zero or b.is_zero):
            total = total + a * b
    return total


def matmul(field: ScalarField, a, b):
    """The product a . b of two square scalar matrices, each entry one dot."""
    columns = tuple(zip(*b))
    return tuple(tuple(dot(field, zip(row, col)) for col in columns) for row in a)


def christoffel_first(g):
    """Gamma_{m,jk} = (1/2)(d_j g_{mk} + d_k g_{mj} - d_m g_{jk}), the Christoffel
    symbols of the first kind of the metric matrix g on the first len(g)
    coordinates of its field."""
    rng = range(len(g))

    def entry(m, j, k):
        total = g[m][k].partial(j) + g[m][j].partial(k) - g[j][k].partial(m)
        return total if total.is_zero else total * Fraction(1, 2)

    return tuple(tuple(tuple(entry(m, j, k) for k in rng) for j in rng) for m in rng)


def christoffel(g_inv, first, field: ScalarField):
    """Gamma^i_{jk} = g^{im} Gamma_{m,jk}: the first-kind symbols raised."""
    rng = range(len(first))
    raised = [matmul(field, g_inv, [slab[j] for slab in first]) for j in rng]
    return tuple(tuple(raised[j][i] for j in rng) for i in rng)


def compatibility_tensor(field: ScalarField, l_tensor):
    """The slabs L[a][j][k] = L(e_a; e_j, e_k) as scalars of field, checked
    antisymmetric in the last two slots."""
    l_tensor = tuple(tuple(tuple(field.wrap(e) for e in row) for row in slab) for slab in l_tensor)
    rng = range(field.dimension)
    for i in rng:
        for j in rng:
            for k in rng:
                if l_tensor[i][j][k] != -l_tensor[i][k][j]:
                    raise ChartError(f"compatibility tensor entry ({i},{j},{k}) breaks antisymmetry")
    return l_tensor


def two_form(field: ScalarField, matrix) -> Form:
    """The 2-form sum_{j<k} matrix[j][k] dx^j wedge dx^k of an antisymmetric matrix."""
    return Form(field, {(j, k): matrix[j][k] for j, k in combinations(range(field.dimension), 2)})


class ChartGeometry:
    """A chart with compatible exact pseudoriemannian and symplectic data."""

    def __init__(
        self,
        name: str,
        coords,
        metric,
        symplectic,
        l_tensor=None,
        kahler_expected=None,
        canonical_j=None,
    ):
        field = coordinate_field(coords)
        dim = field.dimension
        if dim % 2:
            raise ChartError(f"chart dimension {dim} is odd; a symplectic form needs an even one")

        self.name = name
        self.field = field
        self.dim = dim
        self.g = tuple(tuple(field.wrap(e) for e in row) for row in metric)
        self.w = tuple(tuple(field.wrap(e) for e in row) for row in symplectic)
        if len(self.g) != dim or any(len(r) != dim for r in self.g):
            raise ChartError("metric is not a dim x dim matrix")
        if len(self.w) != dim or any(len(r) != dim for r in self.w):
            raise ChartError("symplectic matrix is not dim x dim")
        for i in range(dim):
            for j in range(dim):
                if self.g[i][j] != self.g[j][i]:
                    raise ChartError(f"metric entry ({i},{j}) breaks symmetry")
                if self.w[i][j] != -self.w[j][i]:
                    raise ChartError(f"symplectic entry ({i},{j}) breaks antisymmetry")

        self.det_g, self.g_inv = matrix_inverse(self.g, field)
        self.det_w, self.w_inv = matrix_inverse(self.w, field)
        if self.det_g.is_zero:
            raise ChartError("metric is degenerate: det g = 0")
        if self.det_w.is_zero:
            raise ChartError("symplectic matrix is degenerate: det w = 0")
        d_omega = self.omega_form().d()
        if not d_omega.is_zero:
            raise ChartError(f"symplectic form is not closed: d(omega) = {d_omega}")

        self.l_tensor = None if l_tensor is None else compatibility_tensor(field, l_tensor)

        # bivector normalized so that {f,h} = lam^{ab} d_a f d_b h
        self.lam = tuple(tuple(-e for e in row) for row in self.w_inv)

        self.kahler_expected = kahler_expected
        self.canonical_j = canonical_j
        self._cache = {}

    def cached(self, key, build):
        """The value memoized under key on this chart, built by build() once.

        The one cache home for everything that depends only on the chart:
        basic derivations, tabulated symplectic forms, each form's solver
        plan with its memo of verified solves (brackets._plan), and the
        exterior-insertion pair (suites._exterior_insertion).
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- derived tensors, built on first read ----------------------------

    @cached_property
    def gamma_first(self):
        """Christoffel symbols of the first kind, Gamma_{m,jk} = g_{mi} Gamma^i_{jk}."""
        return christoffel_first(self.g)

    @cached_property
    def gamma(self):
        """Christoffel symbols Gamma^i_{jk} of the Levi-Civita connection."""
        return christoffel(self.g_inv, self.gamma_first, self.field)

    @cached_property
    def connection_forms(self):
        """[i][k]: the connection 1-form sum_j Gamma^i_{jk} dx^j."""
        rng = range(self.dim)
        return tuple(
            tuple(Form(self.field, {(j,): self.gamma[i][j][k] for j in rng}) for k in rng)
            for i in rng
        )

    @cached_property
    def connection_rows(self):
        """The (i, connection_forms[i]) whose row has a nonzero form."""
        rows = enumerate(self.connection_forms)
        return tuple((i, row) for i, row in rows if any(form.terms for form in row))

    @cached_property
    def riemann(self):
        """R^i_{juv}: the coefficient of e_i in R(e_u, e_v) e_j.

        Antisymmetric in (u, v), so only u < v is computed. With the matrices
        (Gamma_u)^i_m = Gamma^i_{um}, R(e_u, e_v) = d_u Gamma_v - d_v Gamma_u
        + [Gamma_u, Gamma_v].
        """
        dim, field, gamma = self.dim, self.field, self.gamma
        rng = range(dim)
        slices = [[row[u] for row in gamma] for u in rng]
        out = [[[[field.zero] * dim for _ in rng] for _ in rng] for _ in rng]
        for u, v in combinations(rng, 2):
            uv = matmul(field, slices[u], slices[v])
            vu = matmul(field, slices[v], slices[u])
            for i in rng:
                for j in rng:
                    total = gamma[i][v][j].partial(u) - gamma[i][u][j].partial(v)
                    total = total + uv[i][j] - vu[i][j]
                    out[i][j][u][v] = total
                    out[i][j][v][u] = -total
        return tuple(tuple(tuple(tuple(row) for row in bj) for bj in bi) for bi in out)

    @cached_property
    def riemann_lowered(self):
        """R4[u][v][w][z] = -g(R(e_u, e_v) e_w, e_z) = -sum_i R^i_{wuv} g_{iz}.

        Antisymmetric in (u, v) and in (w, z), so each sum is taken once,
        for u < v and w < z.
        """
        dim, field = self.dim, self.field
        rng = range(dim)
        out = [[[[field.zero] * dim for _ in rng] for _ in rng] for _ in rng]
        pairs = list(combinations(rng, 2))
        for u, v in pairs:
            for w, z in pairs:
                total = -dot(field, ((self.riemann[i][w][u][v], self.g[i][z]) for i in rng))
                out[u][v][w][z] = out[v][u][z][w] = total
                out[v][u][w][z] = out[u][v][z][w] = -total
        return tuple(tuple(tuple(tuple(row) for row in bj) for bj in bi) for bi in out)

    @cached_property
    def riemann4_forms(self):
        """[u][v]: the 2-form R4(e_u, e_v, _, _)."""
        return tuple(tuple(two_form(self.field, block) for block in row) for row in self.riemann_lowered)

    @cached_property
    def curvature_forms(self):
        """[b][j]: the curvature 2-form R^b_j = sum_{u<v} R^b_{juv} dx^u wedge dx^v."""
        return tuple(tuple(two_form(self.field, block) for block in row) for row in self.riemann)

    @cached_property
    def j_matrix(self):
        """J e_j = J^b_j e_b with omega(X,Y) = g(JX,Y), that is J = g^-1 omega^T."""
        return matmul(self.field, self.g_inv, tuple(zip(*self.w)))

    @cached_property
    def j_inv(self):
        # nonsingular: det g and det w are nonzero
        return matrix_inverse(self.j_matrix, self.field)[1]

    # -- tensor evaluation ---------------------------------------------------

    def pair(self, matrix, left: VectorValuedForm, right: VectorValuedForm) -> Form:
        """B(left, right) = sum_{a,b} B[a][b] left_a ^ right_b for the matrix
        of B (chart.g or chart.w), form coefficients wedged left to right:
        each wedge is made in a scratch dict and scaled into the result."""
        pairs = (
            (_wedge_into({}, lc.terms, rc.terms), coeff)
            for lc, row in zip(left.components, matrix) if lc.terms
            for rc, coeff in zip(right.components, row) if rc.terms and not coeff.is_zero
        )
        return Form._raw(self.field, _scale_into({}, pairs))

    def omega_form(self) -> Form:
        return two_form(self.field, self.w)

    # -- musical isomorphisms --------------------------------------------

    def sharp(self, one_form: Form) -> VectorValuedForm:
        """The vector field g^-1 . alpha of a 1-form alpha."""
        if not one_form.is_homogeneous(1):
            raise ChartError("sharp needs a 1-form")
        comps = [one_form.coefficient((j,)) for j in range(self.dim)]
        return self.apply_endo(self.g_inv, VectorValuedForm(self.field, comps, degree=0))

    # -- J ------------------------------------------------------------------

    def endo_form(self, matrix) -> VectorValuedForm:
        """The endomorphism M as a vector-valued 1-form dx^j (x) M e_j."""
        comps = [Form(self.field, {(j,): entry for j, entry in enumerate(row)}) for row in matrix]
        return VectorValuedForm(self.field, comps, degree=1)

    def apply_endo(self, matrix, vvform: VectorValuedForm, sign=1) -> VectorValuedForm:
        """Apply sign * M, sign 1 or -1, to the vector slot: component b
        scales the K_k by row b of M."""
        parts = [c.terms for c in vvform.components]
        comps = [Form._raw(self.field, _scale_into({}, zip(parts, row), sign)) for row in matrix]
        return VectorValuedForm(self.field, comps, degree=vvform.degree)

    def j_square_scalar(self):
        """+1 or -1 when J^2 is that multiple of the identity, else None."""
        square = matmul(self.field, self.j_matrix, self.j_matrix)
        for sign in (1, -1):
            if all(
                entry == (sign if b == j else 0)
                for b, row in enumerate(square)
                for j, entry in enumerate(row)
            ):
                return sign
        return None

    # -- curvature ------------------------------------------------------------

    def curvature_apply(self, vvform: VectorValuedForm) -> VectorValuedForm:
        """R(_,_) K: component b is row b of the curvature table applied
        to K, sum_j R^b_j ^ K_j."""
        comps = [
            Form._raw(self.field, _pair_into({}, row, vvform.components))
            for row in self.curvature_forms
        ]
        degree = min(vvform.degree + 2, self.dim)
        return VectorValuedForm(self.field, comps, degree=degree)

    # -- covariant calculus -----------------------------------------------

    def twist_into(self, terms, coeffs, sign=1):
        """Accumulate sign * T_i, sign 1 or -1, into the term dict terms[i],
        where T_i = sum_k K_k ^ connection_forms[i][k] = sum_{j,k}
        Gamma^i_{jk} K_k ^ dx^j for the n forms K_k of coeffs, of any degrees.

        T is algebraic: over the nabla basics a derivation's insertion
        coefficients are its lie ones plus T of its even coefficients K.
        """
        for i, row in self.connection_rows:
            _pair_into(terms[i], coeffs, row, sign)

    def dnabla(self, vvform: VectorValuedForm) -> VectorValuedForm:
        """Exterior covariant derivative on vector-valued forms: dK + (-1)^k T(K).

        On top degree every d and every dx^j wedge vanishes, so the result is
        the zero form of that degree.
        """
        if vvform.degree == self.dim:
            return VectorValuedForm(self.field, [Form.zero(self.field)] * self.dim, degree=self.dim)
        # each d() is a fresh Form, so its terms take the twist in place
        comps = [c.d() for c in vvform.components]
        self.twist_into([c.terms for c in comps], vvform.components, -1 if vvform.degree % 2 else 1)
        return VectorValuedForm(self.field, comps, degree=vvform.degree + 1)

    def nabla_derivation(self, x: VectorValuedForm) -> Derivation:
        """The covariant derivative along a vector field X as a degree-0
        derivation: L_X - i_{T(X)}."""
        ins = [{} for _ in range(self.dim)]
        self.twist_into(ins, x.components, -1)
        return Derivation(self.field, x.components + tuple(Form._raw(self.field, t) for t in ins))

    def covariant_hessian(self, f: RationalFunction):
        """Hess_{ab} = d_a d_b f - Gamma^m_{ab} d_m f (symmetric)."""
        f = self.field.wrap(f)
        rng = range(self.dim)
        grad = [f.partial(m) for m in rng]
        return tuple(
            tuple(
                grad[a].partial(b) - dot(self.field, ((self.gamma[m][a][b], grad[m]) for m in rng))
                for b in rng
            )
            for a in rng
        )

    # -- classical mechanics -----------------------------------------------

    def gradient(self, f: RationalFunction) -> VectorValuedForm:
        """The partials d_b f of a function as a degree-0 vector-valued form."""
        f = self.field.wrap(f)
        return VectorValuedForm(self.field, [f.partial(b) for b in range(self.dim)], degree=0)

    def classical_hamiltonian(self, f: RationalFunction) -> VectorValuedForm:
        """The vector field X_f = lam . grad f, so that i_{X_f} omega = df."""
        return self.apply_endo(self.lam, self.gradient(f))

    def classical_poisson(self, f, h) -> RationalFunction:
        x_f, x_h = self.classical_hamiltonian(f), self.classical_hamiltonian(h)
        return self.pair(self.w, x_f, x_h).scalar_part()

    def __repr__(self):
        return f"ChartGeometry({self.name!r}, dim={self.dim})"


# -- tangent lift -----------------------------------------------------------


def tangent_lift_chart(name: str, base_coords, base_metric) -> ChartGeometry:
    """The tangent-bundle chart of a base chart, para-Kähler by construction.

    Metric from the adapted coframe pairing horizontal and vertical
    directions, symplectic form from the metric Lagrangian, J = -1 on
    horizontal lifts and +1 on vertical lifts.

    The base metric entries are scalars of the lifted chart, whose
    coordinates are the base ones followed by the velocities (v for a base
    coordinate q, v_c for any other c), and they may depend on the base
    coordinates only.
    """
    base_coords = tuple(base_coords)
    n = len(base_coords)
    vel_coords = tuple("v" if c == "q" else f"v_{c}" for c in base_coords)
    field = coordinate_field(base_coords + vel_coords)

    gbar = [[field.wrap(entry) for entry in row] for row in base_metric]
    _, gbar_inv = matrix_inverse(gbar, field)
    if gbar_inv is None:
        raise ChartError("base metric is degenerate: det g = 0")
    # base Christoffels, lifted: only q-partials appear
    gam = christoffel(gbar_inv, christoffel_first(gbar), field)

    dim = 2 * n
    vel = [field.coordinate(vc) for vc in vel_coords]

    # symplectic form from the Lagrangian: d( dL/dv^i dq^i ) with L = g_ij v^i v^j / 2
    pot = [Form.coordinate_diff(field, i) * dot(field, zip(gbar[i], vel)) for i in range(n)]
    omega_l = Form.sum(field, pot).d()
    w = [[field.zero] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            c = omega_l.coefficient((a, b))
            w[a][b] = c
            w[b][a] = -c

    # N^i_b = Gam^i_{kb} v^k, so the adapted coframe is theta^i = dq^i,
    # eta^i = dv^i + N^i_b dq^b; the metric pairs them as [[gN + (gN)^T, g], [g, 0]]
    rng = range(n)
    nmat = [[dot(field, ((gam[i][k][b], vel[k]) for k in rng)) for b in rng] for i in rng]
    gn = matmul(field, gbar, nmat)
    one, zero = field.one, field.zero
    gh = [[gn[a][b] + gn[b][a] for b in rng] + gbar[a] for a in rng]
    gh += [gbar[a] + [zero] * n for a in rng]

    # canonical almost product structure: J(vertical) = +, J(horizontal) = -,
    # that is J = [[-Id, 0], [2N, Id]]
    ident = [[one if b == a else zero for b in rng] for a in rng]
    jc = [[-e for e in ident[a]] + [zero] * n for a in rng]
    jc += [[2 * e for e in nmat[a]] + ident[a] for a in rng]

    return ChartGeometry(
        name,
        base_coords + vel_coords,
        gh,
        w,
        kahler_expected=False,
        canonical_j=tuple(tuple(row) for row in jc),
    )


# -- built-in chart library ---------------------------------------------------


def _flat2() -> ChartGeometry:
    field = coordinate_field(("x", "y"))
    one, zero = field.one, field.zero
    return ChartGeometry(
        "flat2",
        ("x", "y"),
        [[one, zero], [zero, one]],
        [[zero, one], [-one, zero]],
        kahler_expected=True,
    )


def _flat4() -> ChartGeometry:
    field = coordinate_field(("x1", "x2", "x3", "x4"))
    o, z = field.one, field.zero
    g = [
        [z, z, o, z],
        [z, z, z, o],
        [o, z, z, z],
        [z, o, z, z],
    ]
    w = [
        [z, z, o, z],
        [z, z, z, o],
        [-o, z, z, z],
        [z, -o, z, z],
    ]
    return ChartGeometry("flat4", ("x1", "x2", "x3", "x4"), g, w, kahler_expected=False)


def _sphere2() -> ChartGeometry:
    field = coordinate_field(("x", "y"))
    x, y = field.gens
    conf = 4 / (1 + x**2 + y**2) ** 2
    zero = field.zero
    return ChartGeometry(
        "sphere2",
        ("x", "y"),
        [[conf, zero], [zero, conf]],
        [[zero, conf], [-conf, zero]],
        kahler_expected=True,
    )


def _halfplane() -> ChartGeometry:
    field = coordinate_field(("x", "y"))
    x, y = field.gens
    conf = 1 / y**2
    zero = field.zero
    return ChartGeometry(
        "halfplane",
        ("x", "y"),
        [[conf, zero], [zero, conf]],
        [[zero, conf], [-conf, zero]],
        kahler_expected=True,
    )


def _tlift1() -> ChartGeometry:
    lifted = coordinate_field(("q", "v"))
    return tangent_lift_chart("tlift1", ("q",), [[lifted.one]])


def _tlift1q() -> ChartGeometry:
    q = coordinate_field(("q", "v")).coordinate("q")
    return tangent_lift_chart("tlift1q", ("q",), [[1 + q**2]])


_BUILTINS = {
    "flat2": _flat2,
    "flat4": _flat4,
    "sphere2": _sphere2,
    "halfplane": _halfplane,
    "tlift1": _tlift1,
    "tlift1q": _tlift1q,
}


def builtin_chart(name: str) -> ChartGeometry:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ChartError(
            f"unknown built-in chart {name!r}; available: {', '.join(sorted(_BUILTINS))}"
        ) from None
    return factory()


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)
