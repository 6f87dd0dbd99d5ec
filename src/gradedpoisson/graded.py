"""Graded forms over the algebra of differential forms of a chart.

Forms are the graded functions; derivations of the form algebra are the
graded vector fields. A graded one- or two-form is tabulated by its values
on the basic derivations along coordinate directions: insertion i_a paired
with either the Lie derivative L_a (basis "lie") or the covariant
derivative nabla_a (basis "nabla"). Evaluation on arbitrary derivations
decomposes the argument over the tabulated basis and contracts with Koszul
signs: for basic E1, E2 and homogeneous coefficients beta, gamma,

    <beta E1, gamma E2> = (-1)^{|gamma| |E1|} beta ^ gamma ^ <E1, E2>

with |E1| the parity of the basic derivation (insertions are odd). The
single-slot case carries no sign. This is the one extension convention used
everywhere; the alternation, closedness and Jacobi test suites all break if
any evaluation path deviates from it.

The stored weight is the second component of the bidegree. Sums of
tabulated forms can mix representatives that agree mod 2 (the even
symplectic form is such a sum), so validation is parity-only and the stored
integer is a conventional representative.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import Derivation, Form, VectorField, _d_componentwise
from .geometry import ChartGeometry, matrix_det
from .scalars import RationalFunction


# -- basic derivations -------------------------------------------------------


def basic_ins(geom: ChartGeometry, a: int) -> Derivation:
    return geom.cached(("ins", a), lambda: Derivation.insertion(VectorField.basis(geom.field, a)))


def basic_lie(geom: ChartGeometry, a: int) -> Derivation:
    return geom.cached(("lie", a), lambda: Derivation.lie(VectorField.basis(geom.field, a)))


def basic_even(geom: ChartGeometry, a: int, basis: str) -> Derivation:
    return geom.nabla_basis(a) if basis == "nabla" else basic_lie(geom, a)


def basis_shift(geom: ChartGeometry, basis: str):
    """The map K -> d_B K on vector-valued forms that ties a basis to normal form.

    L_K = sum_a K_a B_a + (-1)^k sum_a (d_B K)_a i_a for a vector-valued
    k-form K, where d_B is the exterior covariant derivative for the nabla
    basis and the componentwise d for the lie basis.
    """
    return geom.dnabla if basis == "nabla" else _d_componentwise


def _decompose(geom: ChartGeometry, derivation: Derivation, basis: str):
    """Coefficient forms of a derivation over {even basics, insertions}."""
    return derivation.basis_coefficients(basis_shift(geom, basis))


def _parity(derivation: Derivation) -> int:
    degree = derivation.degree
    if degree is None:
        raise ValueError("graded evaluation needs homogeneous derivations here")
    return degree % 2


# -- tabulated graded forms --------------------------------------------------


def _check_parity(values, expected, weight, what):
    if weight is None:
        return
    want = expected % 2
    for value in values:
        for degree in value.degrees():
            if degree % 2 != want:
                raise ValueError(
                    f"{what} value {value} has degree {degree}, "
                    f"incompatible with weight {weight}"
                )


class GradedOneForm:
    """A graded 1-form tabulated on the basic derivations."""

    __slots__ = ("geom", "basis", "on_lie", "on_ins", "weight")

    def __init__(self, geom: ChartGeometry, basis: str, on_lie, on_ins, weight):
        if basis not in ("lie", "nabla"):
            raise ValueError(f"unknown basis {basis!r}")
        on_lie = tuple(on_lie)
        on_ins = tuple(on_ins)
        if len(on_lie) != geom.dim or len(on_ins) != geom.dim:
            raise ValueError("tabulation size does not match chart dimension")
        if weight is not None:
            _check_parity(on_lie, weight, weight, "even-slot")
            _check_parity(on_ins, weight - 1, weight, "insertion-slot")
        self.geom = geom
        self.basis = basis
        self.on_lie = on_lie
        self.on_ins = on_ins
        self.weight = weight

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.on_lie) and all(
            v.is_zero for v in self.on_ins
        )

    def __add__(self, other):
        if not isinstance(other, GradedOneForm):
            return NotImplemented
        if other.geom is not self.geom or other.basis != self.basis:
            raise ValueError("graded 1-forms live on different tabulations")
        if self.is_zero:
            weight = other.weight
        elif other.is_zero:
            weight = self.weight
        else:
            weight = _merge_weights(self.weight, other.weight)
        return GradedOneForm(
            self.geom,
            self.basis,
            [a + b for a, b in zip(self.on_lie, other.on_lie)],
            [a + b for a, b in zip(self.on_ins, other.on_ins)],
            weight,
        )

    def __sub__(self, other):
        if not isinstance(other, GradedOneForm):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, factor) -> "GradedOneForm":
        return GradedOneForm(
            self.geom,
            self.basis,
            [v * factor for v in self.on_lie],
            [v * factor for v in self.on_ins],
            self.weight,
        )

    def __eq__(self, other):
        if not isinstance(other, GradedOneForm):
            return NotImplemented
        return (
            self.geom is other.geom
            and self.basis == other.basis
            and self.on_lie == other.on_lie
            and self.on_ins == other.on_ins
        )

    def __repr__(self):
        rows = []
        for a, name in enumerate(self.geom.field.coords):
            rows.append(f"<{self.basis}_{name}> = {self.on_lie[a]}")
            rows.append(f"<i_{name}> = {self.on_ins[a]}")
        return "GradedOneForm(" + "; ".join(rows) + ")"


def _merge_weights(a, b):
    if a is None or b is None:
        return None
    if (a - b) % 2:
        raise ValueError(f"weights {a} and {b} have different parity")
    return a


class GradedTwoForm:
    """A graded 2-form tabulated on ordered pairs of basic derivations.

    Only the (even, even), (even, ins) and (ins, ins) blocks are stored;
    the (ins, even) block is recovered through graded antisymmetry. The
    stored blocks must satisfy it too: the even-even block is antisymmetric
    and the ins-ins block symmetric.
    """

    __slots__ = ("geom", "basis", "ll", "li", "ii", "weight")

    def __init__(self, geom: ChartGeometry, basis: str, ll, li, ii, weight):
        if basis not in ("lie", "nabla"):
            raise ValueError(f"unknown basis {basis!r}")
        ll = tuple(tuple(row) for row in ll)
        li = tuple(tuple(row) for row in li)
        ii = tuple(tuple(row) for row in ii)
        dim = geom.dim
        for block, rows in (("even-even", ll), ("even-ins", li), ("ins-ins", ii)):
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValueError(f"{block} block is not dim x dim")
        for a in range(dim):
            for b in range(dim):
                if ll[a][b] != -ll[b][a]:
                    raise ValueError(f"even-even block breaks antisymmetry at ({a},{b})")
                if ii[a][b] != ii[b][a]:
                    raise ValueError(f"ins-ins block breaks symmetry at ({a},{b})")
        if weight is not None:
            flat = [v for row in ll for v in row] + [v for row in ii for v in row]
            _check_parity(flat, weight, weight, "even-parity block")
            _check_parity([v for row in li for v in row], weight - 1, weight, "mixed block")
        self.geom = geom
        self.basis = basis
        self.ll = ll
        self.li = li
        self.ii = ii
        self.weight = weight

    def block(self, kind1: str, a: int, kind2: str, b: int) -> Form:
        if kind1 == "lie":
            return self.ll[a][b] if kind2 == "lie" else self.li[a][b]
        if kind2 == "lie":
            # <i_a, B_b> = -<B_b, i_a>
            return -self.li[b][a]
        return self.ii[a][b]

    def block_matrix(self) -> list[list[Form]]:
        """All 2n x 2n blocks <E_r, E_s>, even basics first, then insertions."""
        dim = self.geom.dim
        kinds = [("lie", a) for a in range(dim)] + [("ins", a) for a in range(dim)]
        return [[self.block(k1, a, k2, b) for k2, b in kinds] for k1, a in kinds]

    @property
    def is_zero(self) -> bool:
        return all(
            v.is_zero
            for rows in (self.ll, self.li, self.ii)
            for row in rows
            for v in row
        )

    def __add__(self, other):
        if not isinstance(other, GradedTwoForm):
            return NotImplemented
        if other.geom is not self.geom or other.basis != self.basis:
            raise ValueError("graded 2-forms live on different tabulations")
        if self.is_zero:
            weight = other.weight
        elif other.is_zero:
            weight = self.weight
        else:
            weight = _merge_weights(self.weight, other.weight)
        add = lambda x, y: [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(x, y)]
        return GradedTwoForm(
            self.geom,
            self.basis,
            add(self.ll, other.ll),
            add(self.li, other.li),
            add(self.ii, other.ii),
            weight,
        )

    def __sub__(self, other):
        if not isinstance(other, GradedTwoForm):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, factor) -> "GradedTwoForm":
        scl = lambda rows: [[v * factor for v in row] for row in rows]
        return GradedTwoForm(
            self.geom, self.basis, scl(self.ll), scl(self.li), scl(self.ii), self.weight
        )

    def __eq__(self, other):
        if not isinstance(other, GradedTwoForm):
            return NotImplemented
        return (
            self.geom is other.geom
            and self.basis == other.basis
            and self.ll == other.ll
            and self.li == other.li
            and self.ii == other.ii
        )

    def __hash__(self):
        return hash((self.geom, self.basis, self.ll, self.li, self.ii))

    def __repr__(self):
        return (
            f"GradedTwoForm(chart={self.geom.name}, basis={self.basis}, "
            f"weight={self.weight})"
        )


# -- evaluation ----------------------------------------------------------------


def eval_one(lam: GradedOneForm, derivation: Derivation) -> Form:
    """<D; lam> for an arbitrary derivation."""
    lie_coeffs, ins_coeffs = _decompose(lam.geom, derivation, lam.basis)
    total = Form.zero(lam.geom.field)
    for a in range(lam.geom.dim):
        if not lie_coeffs[a].is_zero and not lam.on_lie[a].is_zero:
            total = total + lie_coeffs[a].wedge(lam.on_lie[a])
        if not ins_coeffs[a].is_zero and not lam.on_ins[a].is_zero:
            total = total + ins_coeffs[a].wedge(lam.on_ins[a])
    return total


def _contract_two(theta: GradedTwoForm, dec1, dec2) -> Form:
    geom = theta.geom
    total = Form.zero(geom.field)
    for kind1, par1, coeffs1 in dec1:
        for a in range(geom.dim):
            beta = coeffs1[a]
            if beta.is_zero:
                continue
            for kind2, _, coeffs2 in dec2:
                for b in range(geom.dim):
                    gamma = coeffs2[b]
                    if gamma.is_zero:
                        continue
                    block = theta.block(kind1, a, kind2, b)
                    if block.is_zero:
                        continue
                    if par1 == 0:
                        total = total + beta.wedge(gamma).wedge(block)
                        continue
                    for pg, gpart in gamma.homogeneous_parts().items():
                        term = beta.wedge(gpart).wedge(block)
                        total = total + (-term if pg % 2 else term)
    return total


def _full_decomposition(geom, derivation, basis):
    lie_coeffs, ins_coeffs = _decompose(geom, derivation, basis)
    return (("lie", 0, lie_coeffs), ("ins", 1, ins_coeffs))


def _basic_decomposition(geom, kind, index):
    zero = [Form.zero(geom.field)] * geom.dim
    coeffs = list(zero)
    coeffs[index] = Form.function(geom.field.one)
    if kind == "ins":
        return (("lie", 0, zero), ("ins", 1, coeffs))
    return (("lie", 0, coeffs), ("ins", 1, zero))


def eval_two(theta: GradedTwoForm, d1: Derivation, d2: Derivation) -> Form:
    """<D1, D2; theta> for arbitrary derivations."""
    dec1 = _full_decomposition(theta.geom, d1, theta.basis)
    dec2 = _full_decomposition(theta.geom, d2, theta.basis)
    return _contract_two(theta, dec1, dec2)


def iota(derivation: Derivation, theta: GradedTwoForm) -> GradedOneForm:
    """Insertion into the last slot: <E; iota_D theta> = <E, D; theta>."""
    geom = theta.geom
    dec2 = _full_decomposition(geom, derivation, theta.basis)
    on_lie = []
    on_ins = []
    for c in range(geom.dim):
        dec_lie = _basic_decomposition(geom, "lie", c)
        dec_ins = _basic_decomposition(geom, "ins", c)
        on_lie.append(_contract_two(theta, dec_lie, dec2))
        on_ins.append(_contract_two(theta, dec_ins, dec2))
    weight = None
    if theta.weight is not None and derivation.degree is not None:
        weight = theta.weight + derivation.degree
    return GradedOneForm(geom, theta.basis, on_lie, on_ins, weight)


# -- graded exterior derivative ------------------------------------------------


def dG_function(geom: ChartGeometry, alpha, basis: str = "lie") -> GradedOneForm:
    """d^G of a graded function: tabulates D(alpha) on the basics."""
    if isinstance(alpha, RationalFunction):
        alpha = Form.function(alpha)
    on_lie = [basic_even(geom, a, basis)(alpha) for a in range(geom.dim)]
    on_ins = [alpha.insert_basis(a) for a in range(geom.dim)]
    degrees = alpha.degrees()
    weight = degrees[0] if len(degrees) == 1 else (0 if not degrees else None)
    return GradedOneForm(geom, basis, on_lie, on_ins, weight)


def dG_one(lam: GradedOneForm) -> GradedTwoForm:
    """d^G of a tabulated graded 1-form.

    <D1, D2; dG lam> = D1<D2; lam> - (-1)^{|D1||D2|} D2<D1; lam>
                       - <[D1, D2]; lam>
    evaluated on all basic pairs.
    """
    geom = lam.geom
    dim = geom.dim
    evens = [basic_even(geom, a, lam.basis) for a in range(dim)]
    odds = [basic_ins(geom, a) for a in range(dim)]
    val_even = [eval_one(lam, d) for d in evens]
    val_odd = [eval_one(lam, d) for d in odds]

    def entry(d1, v1, p1, d2, v2, p2):
        sign = -1 if (p1 % 2 and p2 % 2) else 1
        second = d2(v1)
        out = d1(v2) - (second if sign > 0 else -second)
        return out - eval_one(lam, d1.commutator(d2))

    ll = [
        [entry(evens[a], val_even[a], 0, evens[b], val_even[b], 0) for b in range(dim)]
        for a in range(dim)
    ]
    li = [
        [entry(evens[a], val_even[a], 0, odds[b], val_odd[b], 1) for b in range(dim)]
        for a in range(dim)
    ]
    ii = [
        [entry(odds[a], val_odd[a], 1, odds[b], val_odd[b], 1) for b in range(dim)]
        for a in range(dim)
    ]
    return GradedTwoForm(geom, lam.basis, ll, li, ii, lam.weight)


def dG_two_eval(theta: GradedTwoForm, d1: Derivation, d2: Derivation, d3: Derivation) -> Form:
    """<D1, D2, D3; d^G theta> by the graded Palais formula."""
    p1, p2, p3 = _parity(d1), _parity(d2), _parity(d3)

    def sgn(bit):
        return -1 if bit % 2 else 1

    total = d1(eval_two(theta, d2, d3))
    t2 = d2(eval_two(theta, d1, d3))
    total = total - (t2 if sgn(p1 * p2) > 0 else -t2)
    t3 = d3(eval_two(theta, d1, d2))
    total = total + (t3 if sgn(p3 * (p1 + p2)) > 0 else -t3)
    c12 = eval_two(theta, d1.commutator(d2), d3)
    total = total - c12
    c13 = eval_two(theta, d1.commutator(d3), d2)
    total = total + (c13 if sgn(p2 * p3) > 0 else -c13)
    c23 = eval_two(theta, d2.commutator(d3), d1)
    total = total - (c23 if sgn(p1 * (p2 + p3)) > 0 else -c23)
    return total


# -- graded Lie derivative -----------------------------------------------------


def lieG_one(derivation: Derivation, lam: GradedOneForm) -> GradedOneForm:
    """L^G_D on a tabulated graded 1-form, by the Cartan formula."""
    contraction = eval_one(lam, derivation)
    return iota(derivation, dG_one(lam)) + dG_function(
        lam.geom, contraction, basis=lam.basis
    )


def lieG_two(derivation: Derivation, theta: GradedTwoForm) -> GradedTwoForm:
    """L^G_D on a tabulated graded 2-form, by the Cartan formula."""
    geom = theta.geom
    dim = geom.dim
    exact_part = dG_one(iota(derivation, theta))
    evens = [basic_even(geom, a, theta.basis) for a in range(dim)]
    odds = [basic_ins(geom, a) for a in range(dim)]

    ll = [
        [
            exact_part.ll[a][b] + dG_two_eval(theta, evens[a], evens[b], derivation)
            for b in range(dim)
        ]
        for a in range(dim)
    ]
    li = [
        [
            exact_part.li[a][b] + dG_two_eval(theta, evens[a], odds[b], derivation)
            for b in range(dim)
        ]
        for a in range(dim)
    ]
    ii = [
        [
            exact_part.ii[a][b] + dG_two_eval(theta, odds[a], odds[b], derivation)
            for b in range(dim)
        ]
        for a in range(dim)
    ]
    weight = None
    if theta.weight is not None and derivation.degree is not None:
        weight = theta.weight + derivation.degree
    return GradedTwoForm(geom, theta.basis, ll, li, ii, weight)


# -- basis conversion ----------------------------------------------------------


def convert_one(lam: GradedOneForm, basis: str) -> GradedOneForm:
    if lam.basis == basis:
        return lam
    geom = lam.geom
    on_lie = [eval_one(lam, basic_even(geom, a, basis)) for a in range(geom.dim)]
    on_ins = [eval_one(lam, basic_ins(geom, a)) for a in range(geom.dim)]
    return GradedOneForm(geom, basis, on_lie, on_ins, lam.weight)


def convert_two(theta: GradedTwoForm, basis: str) -> GradedTwoForm:
    if theta.basis == basis:
        return theta
    geom = theta.geom
    dim = geom.dim
    evens = [basic_even(geom, a, basis) for a in range(dim)]
    odds = [basic_ins(geom, a) for a in range(dim)]
    ll = [[eval_two(theta, evens[a], evens[b]) for b in range(dim)] for a in range(dim)]
    li = [[eval_two(theta, evens[a], odds[b]) for b in range(dim)] for a in range(dim)]
    ii = [[eval_two(theta, odds[a], odds[b]) for b in range(dim)] for a in range(dim)]
    return GradedTwoForm(geom, basis, ll, li, ii, theta.weight)


# -- builders -------------------------------------------------------------------


def lambda_metric(geom: ChartGeometry, include_l: bool = False) -> GradedOneForm:
    """The graded 1-form with <i_X> = flat(X) and <L_X> = d flat(X), plus the
    compatibility-tensor slice on the Lie slot when requested."""
    on_ins = [geom.flat(VectorField.basis(geom.field, a)) for a in range(geom.dim)]
    on_lie = [v.d() for v in on_ins]
    if include_l:
        if geom.l_tensor is None:
            raise ValueError(f"chart {geom.name} has no compatibility tensor")
        on_lie = [
            v + geom.l_slice(VectorField.basis(geom.field, a))
            for a, v in enumerate(on_lie)
        ]
    return GradedOneForm(geom, "lie", on_lie, on_ins, 2)


def lambda_omega(geom: ChartGeometry) -> GradedOneForm:
    """The odd potential: <i_X> = 0, <L_X> = omega(X, _); bidegree (1, -1)."""
    zero = Form.zero(geom.field)
    on_lie = [
        geom.row_form(geom.w, VectorField.basis(geom.field, a)) for a in range(geom.dim)
    ]
    return GradedOneForm(geom, "lie", on_lie, [zero] * geom.dim, -1)


def theta_omega(geom: ChartGeometry, basis: str = "lie") -> GradedTwoForm:
    """The naive lift of omega: <D1, D2> = omega on the even-even block only."""
    dim = geom.dim
    zero = Form.zero(geom.field)
    ll = [[Form.function(geom.w[a][b]) for b in range(dim)] for a in range(dim)]
    li = [[zero] * dim for _ in range(dim)]
    ii = [[zero] * dim for _ in range(dim)]
    return GradedTwoForm(geom, basis, ll, li, ii, 0)


def theta_even(geom: ChartGeometry, variant: str = "omega_g", basis: str = "lie") -> GradedTwoForm:
    """The even symplectic form, built from its definition.

    variant "omega_only" is the naive lift; "omega_g" adds half the exact
    correction from the metric potential; "omega_g_l" uses the potential
    with the compatibility tensor included.
    """
    if variant == "omega_only":
        return theta_omega(geom, basis)
    if variant not in ("omega_g", "omega_g_l"):
        raise ValueError(f"unknown variant {variant!r}")
    lam = lambda_metric(geom, include_l=(variant == "omega_g_l"))
    theta = theta_omega(geom, "lie") + dG_one(lam).scale(Fraction(1, 2))
    return convert_two(theta, basis)


def theta_even_closed_lie(geom: ChartGeometry) -> GradedTwoForm:
    """The even symplectic form from its closed-form blocks in the lie basis."""
    dim = geom.dim
    field = geom.field

    def alpha(a, b):
        terms = {}
        for u in range(dim):
            for v in range(u + 1, dim):
                c = field.zero
                for m in range(dim):
                    for n in range(dim):
                        c = c + geom.g[m][n] * (
                            geom.gamma[m][u][b] * geom.gamma[n][v][a]
                            - geom.gamma[m][u][a] * geom.gamma[n][v][b]
                        )
                c = c - geom.riemann4(a, b, u, v)
                if not c.is_zero:
                    terms[(u, v)] = c
        return Form(field, terms)

    def mixed(a, b):
        coeffs = {}
        for u in range(dim):
            c = field.zero
            for m in range(dim):
                c = c + geom.gamma[m][u][a] * geom.g[m][b]
            if not c.is_zero:
                coeffs[(u,)] = c
        return Form(field, coeffs)

    ll = [
        [Form.function(geom.w[a][b]) + alpha(a, b) for b in range(dim)]
        for a in range(dim)
    ]
    li = [[mixed(a, b) for b in range(dim)] for a in range(dim)]
    ii = [[Form.function(geom.g[a][b]) for b in range(dim)] for a in range(dim)]
    return GradedTwoForm(geom, "lie", ll, li, ii, 2)


def theta_even_closed_nabla(geom: ChartGeometry) -> GradedTwoForm:
    """The even symplectic form from its closed-form blocks in the nabla basis.

    The even-even block is omega(X, Y) + g(R(X, Y)_, _); the mixed block
    vanishes and the insertion block is the metric.
    """
    dim = geom.dim
    zero = Form.zero(geom.field)
    ll = [
        [
            Form.function(geom.w[a][b])
            - geom.riemann4_form(
                VectorField.basis(geom.field, a), VectorField.basis(geom.field, b)
            )
            for b in range(dim)
        ]
        for a in range(dim)
    ]
    li = [[zero] * dim for _ in range(dim)]
    ii = [[Form.function(geom.g[a][b]) for b in range(dim)] for a in range(dim)]
    return GradedTwoForm(geom, "nabla", ll, li, ii, 2)


def theta_ks(geom: ChartGeometry) -> GradedTwoForm:
    """The odd symplectic form: d^G of the odd potential."""
    return dG_one(lambda_omega(geom))


def theta_ks_closed(geom: ChartGeometry) -> GradedTwoForm:
    """Closed-form blocks of the odd symplectic form under our conventions:
    insertion block zero, mixed block <L_a, i_b> = -omega_{ab}, even-even
    block the 1-form (d_a omega_{bc} - d_b omega_{ac}) dx^c."""
    dim = geom.dim
    field = geom.field
    zero = Form.zero(field)

    def mu(a, b):
        coeffs = {}
        for c in range(dim):
            val = geom.w[b][c].partial(a) - geom.w[a][c].partial(b)
            if not val.is_zero:
                coeffs[(c,)] = val
        return Form(field, coeffs)

    ll = [[mu(a, b) for b in range(dim)] for a in range(dim)]
    li = [[Form.function(-geom.w[a][b]) for b in range(dim)] for a in range(dim)]
    ii = [[zero] * dim for _ in range(dim)]
    return GradedTwoForm(geom, "lie", ll, li, ii, -1)


def theta_even_cached(geom: ChartGeometry, basis: str = "lie") -> GradedTwoForm:
    """theta_even (variant omega_g) memoized per chart; builds the lie tabulation once."""
    lie = geom.cached(("theta_even", "lie"), lambda: theta_even(geom, "omega_g", "lie"))
    return geom.cached(("theta_even", basis), lambda: convert_two(lie, basis))


def theta_ks_cached(geom: ChartGeometry) -> GradedTwoForm:
    return geom.cached("theta_ks", lambda: theta_ks(geom))


def scalar_block_det(theta: GradedTwoForm) -> RationalFunction:
    """Determinant of the degree-0 part of the full block matrix."""
    rows = [[block.scalar_part() for block in row] for row in theta.block_matrix()]
    return matrix_det(rows, theta.geom.field)
