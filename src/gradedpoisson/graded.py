"""Graded forms over the algebra of differential forms of a chart.

Forms are the graded functions; derivations of the form algebra are the
graded vector fields. A chart of dimension n has 2n basic derivations E_r,
listed by basics(): first the n even ones along the coordinate directions,
the Lie derivatives L_a (basis "lie") or the covariant derivatives nabla_a
(basis "nabla"), then the n insertions i_a. Basic r is odd exactly when
r >= n. A graded 1-form is tabulated by its 2n values <E_r>, a graded
2-form by its 2n x 2n matrix of values <E_r, E_s>, which is graded
antisymmetric:

    <E_r, E_s> = -(-1)^{|E_r| |E_s|} <E_s, E_r>

Evaluation on arbitrary derivations decomposes the argument over the
basics and contracts with Koszul signs: for homogeneous coefficients beta,
gamma,

    <beta E_r, gamma E_s> = (-1)^{|gamma| |E_r|} beta ^ gamma ^ <E_r, E_s>

The single-slot case carries no sign. This is the one extension convention
used everywhere; the alternation, closedness and Jacobi test suites all
break if any evaluation path deviates from it.

d^G and the graded Lie derivative L^G work on lie-basis tabulations only.
The lie basics commute: [L_X, L_Y] = L_[X,Y], [L_X, i_Y] = i_[X,Y] and
[i_X, i_Y] = 0, and coordinate vector fields commute. So every commutator
[E_r, E_s] of two lie basics is zero, and dG_one has no bracket term. In
the nabla basis these commutators are curvature terms, so tabulations
there are converted with convert_one / convert_two first.

The lie basics also act in closed form (Form.lie_basic), which dG_function
and _dG_entry, the one d^G entry that dG_one and theta_even share, use
instead of the generic Derivation action. convert_two decomposes each
target basic over the source basics once and contracts each (source,
target) row once, so every entry is one accumulated sum of wedges.

lieG_two takes L^G_D as a derivation of the pairing, so it needs only the
2n commutators [D, E_r]. No [E_r, E_s] enters: in the Cartan formula its
terms cancel between d^G iota_D theta and iota_D d^G theta.

The even symplectic form Theta_{omega,g} = Theta_omega + (1/2) d^G lambda_g
is one tabulation: each entry is omega_rs plus the d^G entry of the halved
lambda_g on the even-even block, and the d^G entry elsewhere, so neither
addend is tabulated on its own. With a compatibility tensor L the potential
gains l_L = L(e_a; _, _) on the slots L_a, and d^G is linear, so
Theta_{omega,g,L} = Theta_{omega,g} + (1/2) d^G l_L is tabulated once more
as a correction to the chart's cached Theta_{omega,g}, on the same chart.
Every table is one GradedTwoForm, built from an entry function by the one
constructor, which checks only the entries that function computes.

The stored weight is the second component of the bidegree: the value
<E_r, E_s> has the parity of weight + |E_r| + |E_s| (weight + |E_r| for a
1-form). A tabulation may mix representatives that agree mod 2 (the even
symplectic form adds omega, of weight 0, to d^G lambda_g, of weight 2), so
validation is parity-only and the stored integer is a conventional
representative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations

from .forms import Derivation, Form, VectorValuedForm, _accumulate, _pair_into
from .geometry import ChartGeometry, compatibility_tensor, dot, matrix_inverse, per_chart, two_form
from .scalars import RationalFunction


# -- basic derivations -------------------------------------------------------


@per_chart
def basics(geom: ChartGeometry, basis: str) -> tuple[Derivation, ...]:
    """The 2n basic derivations E_r of the chart: even ones first, then insertions."""
    units = [VectorValuedForm.basis(geom.field, a) for a in range(geom.dim)]
    even = geom.nabla_derivation if basis == "nabla" else Derivation.lie
    return tuple(map(even, units)) + tuple(map(Derivation.insertion, units))


def _decompose(geom: ChartGeometry, derivation: Derivation, basis: str) -> tuple[Form, ...]:
    """Coefficient forms of a derivation over the basics, one per E_r.

    nabla_a = L_a - sum_i T(e_a)_i i_i, so over the nabla basics the even
    coefficients K stay and the insertion ones gain T(K).
    """
    coeffs = derivation.coefficients
    if basis == "lie":
        return coeffs
    even = coeffs[: geom.dim]
    ins = [dict(c.terms) for c in coeffs[geom.dim :]]
    geom.twist_into(ins, even)
    return even + tuple(Form._raw(geom.field, terms) for terms in ins)


def components_by_degree(geom: ChartGeometry, derivation: Derivation):
    """The coefficients of a derivation over the nabla basics, by degree.

    Returns (even, ins): even[m] is the VectorValuedForm of the degree-m
    parts of the coefficients of the even basics nabla_a, ins[m] that of
    the insertions. Degrees whose coefficients all vanish are left out, and
    keys ascend.
    """
    coeffs = _decompose(geom, derivation, "nabla")
    even, ins = {}, {}
    for m in range(geom.dim + 1):
        parts = [c.homogeneous_part(m) for c in coeffs]
        for out, comps in ((even, parts[: geom.dim]), (ins, parts[geom.dim :])):
            if any(not c.is_zero for c in comps):
                out[m] = VectorValuedForm(geom.field, comps, degree=m)
    return even, ins


def _parity(derivation: Derivation) -> int:
    degree = derivation.degree
    if degree is None:
        raise ValueError("graded evaluation needs homogeneous derivations here")
    return degree % 2


# -- tabulated graded forms --------------------------------------------------


def _check_parity(value: Form, parity: int, weight, where) -> None:
    if any((len(idx) - parity) % 2 for idx in value.terms):
        degree = next(d for d in value.degrees() if (d - parity) % 2)
        raise ValueError(
            f"value {value} at {where} has degree {degree}, "
            f"incompatible with weight {weight}"
        )


class GradedOneForm:
    """A graded 1-form tabulated on the basics: values[r] = <E_r>."""

    __slots__ = ("geom", "basis", "values", "weight")

    def __init__(self, geom: ChartGeometry, basis: str, values, weight):
        if basis not in ("lie", "nabla"):
            raise ValueError(f"unknown basis {basis!r}")
        values = tuple(values)
        dim = geom.dim
        if len(values) != 2 * dim:
            raise ValueError("tabulation size does not match chart dimension")
        if weight is not None:
            for r, value in enumerate(values):
                _check_parity(value, weight + (r >= dim), weight, r)
        self.geom = geom
        self.basis = basis
        self.values = values
        self.weight = weight

    def __eq__(self, other):
        if not isinstance(other, GradedOneForm):
            return NotImplemented
        return (
            self.geom is other.geom
            and self.basis == other.basis
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.geom, self.basis, self.values))

    def __repr__(self):
        coords = self.geom.field.coords
        names = [f"{self.basis}_{c}" for c in coords] + [f"i_{c}" for c in coords]
        rows = [f"<{name}> = {value}" for name, value in zip(names, self.values)]
        return "GradedOneForm(" + "; ".join(rows) + ")"


class GradedTwoForm:
    """The graded 2-form with blocks[r][s] = <E_r, E_s> = entry(r, s).

    entry is called on every pair whose first basic is even and on every
    pair of insertions. The (insertion, even) block is the negated
    (even, insertion) block, graded antisymmetric by construction, so only
    what entry can break is checked: the even-even block is antisymmetric
    with a zero diagonal, the insertion block symmetric, and with a weight
    each entry with s >= r has its parity; the others share the degrees of
    their mirrors.
    """

    __slots__ = ("geom", "basis", "blocks", "weight", "_hash")

    def __init__(self, geom: ChartGeometry, basis: str, entry, weight):
        if basis not in ("lie", "nabla"):
            raise ValueError(f"unknown basis {basis!r}")
        dim = geom.dim
        size = 2 * dim
        blocks = [tuple(entry(r, s) for s in range(size)) for r in range(dim)]
        for r in range(dim, size):
            blocks.append(
                tuple(-blocks[s][r] for s in range(dim))
                + tuple(entry(r, s) for s in range(dim, size))
            )
        for r in range(size):
            for s in range(r, size):
                value, mirror = blocks[r][s], blocks[s][r]
                # (even, insertion) pairs hold by construction, and an
                # insertion on the diagonal is its own mirror
                if s < dim:
                    broken = not value.is_negation_of(mirror)
                else:
                    broken = dim <= r < s and value != mirror
                if broken:
                    raise ValueError(f"blocks break graded antisymmetry at ({r},{s})")
                if weight is not None:
                    _check_parity(value, weight + (r >= dim) + (s >= dim), weight, (r, s))
        self.geom = geom
        self.basis = basis
        self.blocks = tuple(blocks)
        self.weight = weight
        self._hash = None

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for row in self.blocks for v in row)

    def __eq__(self, other):
        if not isinstance(other, GradedTwoForm):
            return NotImplemented
        return (
            self.geom is other.geom
            and self.basis == other.basis
            and self.blocks == other.blocks
        )

    def __hash__(self):
        # the form is immutable, so its table is hashed once
        if self._hash is None:
            self._hash = hash((self.geom, self.basis, self.blocks))
        return self._hash

    def __repr__(self):
        return (
            f"GradedTwoForm(chart={self.geom.name}, basis={self.basis}, "
            f"weight={self.weight})"
        )


# -- evaluation ----------------------------------------------------------------


def eval_one(lam: GradedOneForm, derivation: Derivation) -> Form:
    """<D; lam> for an arbitrary derivation."""
    coeffs = _decompose(lam.geom, derivation, lam.basis)
    return Form._raw(lam.geom.field, _pair_into({}, coeffs, lam.values))


def _contract_row(theta: GradedTwoForm, r: int, coeffs) -> Form:
    """<E_r, D; theta> from the coefficients of D over the basics.

    A coefficient gamma passes E_r on its way to the second slot, so an
    insertion E_r brings the Koszul sign (-1)^{|gamma|}, term by term.
    """
    terms = _pair_into({}, coeffs, theta.blocks[r], koszul=r >= theta.geom.dim)
    return Form._raw(theta.geom.field, terms)


def eval_two(theta: GradedTwoForm, d1: Derivation, d2: Derivation) -> Form:
    """<D1, D2; theta>: D1's coefficients paired with the rows <E_r, D2; theta>,
    a row contracted only where D1's coefficient is nonzero."""
    geom = theta.geom
    coeffs1, coeffs2 = (_decompose(geom, d, theta.basis) for d in (d1, d2))
    zero = Form.zero(geom.field)
    rows = [_contract_row(theta, r, coeffs2) if c.terms else zero for r, c in enumerate(coeffs1)]
    return Form._raw(geom.field, _pair_into({}, coeffs1, rows))


def iota(derivation: Derivation, theta: GradedTwoForm) -> GradedOneForm:
    """Insertion into the last slot: <E; iota_D theta> = <E, D; theta>."""
    geom = theta.geom
    coeffs = _decompose(geom, derivation, theta.basis)
    values = [_contract_row(theta, r, coeffs) for r in range(2 * geom.dim)]
    weight = None
    if theta.weight is not None and derivation.degree is not None:
        weight = theta.weight + derivation.degree
    return GradedOneForm(geom, theta.basis, values, weight)


# -- graded exterior derivative ------------------------------------------------


def dG_function(geom: ChartGeometry, alpha, basis: str = "lie") -> GradedOneForm:
    """d^G of a graded function: tabulates D(alpha) on the basics."""
    if isinstance(alpha, RationalFunction):
        alpha = Form.function(alpha)
    if basis == "lie":
        values = [alpha.lie_basic(r) for r in range(2 * geom.dim)]
    else:
        evens = basics(geom, basis)[: geom.dim]
        values = [e(alpha) for e in evens] + [alpha.insert_basis(a) for a in range(geom.dim)]
    degrees = alpha.degrees()
    weight = degrees[0] if len(degrees) == 1 else (0 if not degrees else None)
    return GradedOneForm(geom, basis, values, weight)


def _require_lie(basis: str, name: str) -> None:
    if basis != "lie":
        raise ValueError(
            f"{name} needs a lie-basis tabulation, got {basis!r}; "
            "convert with convert_one/convert_two"
        )


def _dG_entry(values, dim: int, r: int, s: int) -> Form:
    """<E_r, E_s; d^G lam> from the values of lam on the lie basics.

    <D1, D2; dG lam> = D1<D2; lam> - (-1)^{|D1||D2|} D2<D1; lam>
                       - <[D1, D2]; lam>
    on a pair of lie basics, which commute, so the bracket term is zero and
    is not computed.
    """
    first, second = values[s].lie_basic(r), values[r].lie_basic(s)
    return first + second if r >= dim and s >= dim else first - second


def dG_one(lam: GradedOneForm) -> GradedTwoForm:
    """d^G of a graded 1-form tabulated in the lie basis."""
    _require_lie(lam.basis, "dG_one")
    return GradedTwoForm(lam.geom, "lie", partial(_dG_entry, lam.values, lam.geom.dim), lam.weight)


# -- graded Lie derivative -----------------------------------------------------


def lieG_two(derivation: Derivation, theta: GradedTwoForm) -> GradedTwoForm:
    """L^G_D on a lie-basis graded 2-form, as a derivation of the pairing.

    <E_r, E_s; L^G_D theta> = -(-1)^{|D|(|E_r| + |E_s|)} (D<E_r, E_s>
        - <[D, E_r], E_s> - (-1)^{|D||E_r|} <E_r, [D, E_s]>)
    Only the 2n commutators [D, E_r] enter, each once: pulled[r] is
    iota_[D, E_r] theta, so pulled[r][s] = <E_s, [D, E_r]>, and graded
    antisymmetry turns it into <[D, E_r], E_s>. No [E_r, E_s] enters: its
    terms in the Cartan formula cancel.
    """
    _require_lie(theta.basis, "lieG_two")
    geom = theta.geom
    dim = geom.dim
    p = _parity(derivation)
    pulled = [iota(derivation.commutator(e), theta).values for e in basics(geom, "lie")]

    def entry(r, s):
        pr, ps = r >= dim, s >= dim
        # the entry's outer sign, folded into the sign of each addend
        outer = 1 if p * (pr + ps) % 2 else -1
        # <[D, E_r], E_s> = -(-1)^{(|D| + |E_r|)|E_s|} pulled[r][s]
        back = -outer if (p + pr) * ps % 2 else outer
        # -(-1)^{|D||E_r|} <E_r, [D, E_s]>, where <E_r, [D, E_s]> = pulled[s][r]
        ahead = outer if p * pr % 2 else -outer
        terms: dict = {}
        for form, sign in (
            (derivation(theta.blocks[r][s]), outer),
            (pulled[r][s], back),
            (pulled[s][r], ahead),
        ):
            for idx, coeff in form.terms.items():
                _accumulate(terms, idx, coeff, sign)
        return Form._raw(geom.field, terms)

    weight = None
    if theta.weight is not None and derivation.degree is not None:
        weight = theta.weight + derivation.degree
    return GradedTwoForm(geom, "lie", entry, weight)


# -- basis conversion ----------------------------------------------------------


def convert_one(lam: GradedOneForm, basis: str) -> GradedOneForm:
    if lam.basis == basis:
        return lam
    values = [eval_one(lam, e) for e in basics(lam.geom, basis)]
    return GradedOneForm(lam.geom, basis, values, lam.weight)


def convert_two(theta: GradedTwoForm, basis: str) -> GradedTwoForm:
    """theta tabulated on the other basis's basics F_r.

    Each F_r is decomposed over theta's basics E_k once, and each row
    rows[s][k] = <E_k, F_s; theta> is contracted once, so an entry
    <F_r, F_s> is the one accumulated sum of coeffs[r][k] ^ rows[s][k] over k.
    """
    if theta.basis == basis:
        return theta
    geom = theta.geom
    coeffs = [_decompose(geom, f, theta.basis) for f in basics(geom, basis)]
    rows = [[_contract_row(theta, k, c) for k in range(2 * geom.dim)] for c in coeffs]

    def entry(r, s):
        return Form._raw(geom.field, _pair_into({}, coeffs[r], rows[s]))

    return GradedTwoForm(geom, basis, entry, theta.weight)


# -- builders -------------------------------------------------------------------


def lambda_metric(geom: ChartGeometry) -> GradedOneForm:
    """The graded 1-form with <i_a> = g(e_a, _) and <L_a> = d g(e_a, _)."""
    flats = list(geom.endo_form(geom.g).components)
    return GradedOneForm(geom, "lie", [v.d() for v in flats] + flats, 2)


def lambda_omega(geom: ChartGeometry) -> GradedOneForm:
    """The odd potential: <i_a> = 0, <L_a> = omega(e_a, _); bidegree (1, -1)."""
    on_even = list(geom.endo_form(geom.w).components)
    return GradedOneForm(geom, "lie", on_even + [Form.zero(geom.field)] * geom.dim, -1)


def theta_even(geom: ChartGeometry, l_tensor=None) -> GradedTwoForm:
    """The even symplectic form, built from its definition, in the lie basis.

    Without l_tensor this is Theta_{omega,g} = Theta_omega + (1/2) d^G
    lambda_g, the naive lift of omega (omega on the even-even block) plus
    half the exact correction from the metric potential, in one tabulation:
    each entry is omega_rs plus the d^G entry of the halved lambda_g, in
    that order. The half goes on the potential: d^G is linear over
    constants, so d^G(lambda_g / 2) = (d^G lambda_g) / 2, and halving the 2n
    values of lambda_g costs less than halving the 3n^2 computed entries of
    its d^G.

    With a compatibility tensor L (slabs L[a][j][k] = L(e_a; e_j, e_k)), the
    potential gains l_L, L(e_a; _, _) on the slot L_a and zero on the
    insertions. d^G is linear, so Theta_{omega,g,L} = Theta_{omega,g} +
    (1/2) d^G l_L: each entry is the chart's cached Theta_{omega,g} entry
    plus the d^G entry of the halved l_L, and no chart is built for L.

    Either way the result is one GradedTwoForm, checked by its constructor
    like any other tabulation.
    """
    dim = geom.dim
    if l_tensor is None:
        halved = [v * Fraction(1, 2) for v in lambda_metric(geom).values]

        def entry(r, s):
            exact = _dG_entry(halved, dim, r, s)
            return Form.function(geom.w[r][s]) + exact if s < dim else exact

        return GradedTwoForm(geom, "lie", entry, 0)

    base = theta_even_cached(geom, "lie")
    halved = [
        two_form(geom.field, slab) * Fraction(1, 2)
        for slab in compatibility_tensor(geom.field, l_tensor)
    ] + [Form.zero(geom.field)] * dim

    def corrected(r, s):
        return base.blocks[r][s] + _dG_entry(halved, dim, r, s)

    return GradedTwoForm(geom, "lie", corrected, base.weight)


def theta_even_closed_lie(geom: ChartGeometry) -> GradedTwoForm:
    """The even symplectic form from its closed-form blocks in the lie basis.

    The even-even block is omega_ab + alpha_ab with

        alpha_ab = sum_{u<v} (sum_n Gamma_{n,ub} Gamma^n_{va}
                   - Gamma_{n,ua} Gamma^n_{vb} - R4(a, b, u, v)) dx^u ^ dx^v,

    in the first-kind symbols Gamma_{n,jk} = g_{nm} Gamma^m_{jk}; the mixed
    block <L_a, i_b> is Gamma_{b,ua} dx^u and the insertion block the metric.
    """
    dim = geom.dim
    field = geom.field
    first, gamma, r4 = geom.gamma_first, geom.gamma, geom.riemann4_forms
    rng = range(dim)

    def alpha(a, b):
        terms = {
            (u, v): dot(field, ((first[n][u][b], gamma[n][v][a]) for n in rng))
            - dot(field, ((first[n][u][a], gamma[n][v][b]) for n in rng))
            - r4[a][b].coefficient((u, v))
            for u, v in combinations(rng, 2)
        }
        return Form(field, terms)

    def mixed(a, b):
        return Form(field, {(u,): first[b][u][a] for u in rng})

    def entry(r, s):
        if s < dim:
            return Form.function(geom.w[r][s]) + alpha(r, s)
        if r < dim:
            return mixed(r, s - dim)
        return Form.function(geom.g[r - dim][s - dim])

    return GradedTwoForm(geom, "lie", entry, 2)


def theta_even_closed_nabla(geom: ChartGeometry) -> GradedTwoForm:
    """The even symplectic form from its closed-form blocks in the nabla basis.

    The even-even block is omega(X, Y) + g(R(X, Y)_, _); the mixed block
    vanishes and the insertion block is the metric.
    """
    dim = geom.dim
    zero = Form.zero(geom.field)
    forms = geom.riemann4_forms

    def entry(r, s):
        if s < dim:
            return Form.function(geom.w[r][s]) - forms[r][s]
        if r < dim:
            return zero
        return Form.function(geom.g[r - dim][s - dim])

    return GradedTwoForm(geom, "nabla", entry, 2)


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

    def entry(r, s):
        if s < dim:
            return mu(r, s)
        if r < dim:
            return Form.function(-geom.w[r][s - dim])
        return zero

    return GradedTwoForm(geom, "lie", entry, -1)


@per_chart
def theta_even_cached(geom: ChartGeometry, basis: str) -> GradedTwoForm:
    """Theta_{omega,g} in basis, built once per chart; nabla converts the lie table."""
    if basis == "lie":
        return theta_even(geom)
    return convert_two(theta_even_cached(geom, "lie"), basis)


@per_chart
def theta_ks_cached(geom: ChartGeometry) -> GradedTwoForm:
    return theta_ks(geom)


def scalar_block_det(theta: GradedTwoForm) -> RationalFunction:
    """Determinant of the degree-0 part of the 2n x 2n block matrix."""
    rows = [[block.scalar_part() for block in row] for row in theta.blocks]
    return matrix_inverse(rows, theta.geom.field)[0]
