"""Hamiltonian derivations and the two graded Poisson brackets.

Both brackets come from one solver. Given a symplectic form Theta, the
even one or the odd (Koszul-Schouten) one, solve the tabulated equation
iota_D Theta = d^G alpha for the Hamiltonian derivation D_alpha and apply
it. The odd bracket also has an independent generator-operator route,
kept alongside as a cross-check.

The solver is one degree-by-degree triangular elimination over the
chart's scalar field, in whichever basis Theta is tabulated, and it
returns D_alpha itself: a Derivation, held by its 2n coefficients over
the lie basics whatever the basis it was solved in. It finishes by
re-evaluating its defining equation and raises if the solution does not
reproduce the right-hand side exactly. That final check is the master
invariant: every closed-form shortcut in this module is validated
against it.

The elimination's plan, the inverse of Theta's degree-0 block matrix and
the positive-degree parts of its blocks, is built once per form, and each
derivation once per form and operand: both are kept in the chart's cache
(geometry.per_chart). A derivation is kept only after the final check
has passed, so the check runs once for every distinct solve on a chart,
and a repeated solve returns the shared, read-only derivation.

Two calibration signs are fixed here once and used consistently:

  * the even solve seeds its degree-0 component at minus the classical
    Hamiltonian field of f (insertion in the first slot of omega forces
    the sign; the displayed seeding with the opposite sign is the same
    chain seeded at plus the field, every step being linear);
  * the odd bracket is minus the application of the odd Hamiltonian
    derivation, which makes the bracket of two exact differentials come
    out as d of the classical Poisson bracket.
"""

from __future__ import annotations

from .forms import Derivation, Form, VectorValuedForm, _accumulate, _pair_into, _scale_into, _wedge_into
from .geometry import ChartError, ChartGeometry, matrix_inverse, per_chart
from .graded import (
    GradedOneForm,
    GradedTwoForm,
    convert_one,
    dG_function,
    eval_two,
    iota,
    theta_even_cached,
    theta_ks_cached,
)
from .scalars import RationalFunction


def _operand(alpha, geom: ChartGeometry):
    """alpha as a Form or as a GradedOneForm, which must be one of geom's.

    A function becomes the 0-form it is, so equal operands compare equal:
    a form by value, a tabulated 1-form by its tabulation.
    """
    if isinstance(alpha, RationalFunction):
        return Form.function(alpha)
    if isinstance(alpha, GradedOneForm) and alpha.geom is not geom:
        raise ValueError("the form and the right-hand side live on different tabulations")
    if isinstance(alpha, (Form, GradedOneForm)):
        return alpha
    raise TypeError(f"cannot solve against {type(alpha).__name__}")


def _as_rhs(geom: ChartGeometry, alpha, basis: str) -> GradedOneForm:
    if isinstance(alpha, Form):
        return dG_function(geom, alpha, basis=basis)
    return convert_one(alpha, basis)


def _verify(theta: GradedTwoForm, derivation: Derivation, rhs: GradedOneForm) -> None:
    got = iota(derivation, theta)
    if got.values != rhs.values:
        raise RuntimeError(
            "hamiltonian solve failed its defining equation; "
            "this signals a convention bug, not bad input"
        )


@per_chart
def _plan(geom: ChartGeometry, theta: GradedTwoForm):
    """theta's sparse solver plan, built once per chart: (inverse, higher).

    inverse[row] lists the (col, entry) pairs of the nonzero entries in that
    row of the inverse of the degree-0 part of theta's block matrix, and
    higher[row] the (col, degree, terms) triples of the nonempty parts of
    positive degree of the blocks (row, col), each part by its term dict,
    in column order and then by degree. A degenerate form raises
    ChartError and leaves no plan behind.
    """
    rows = [[block.scalar_part() for block in row] for row in theta.blocks]
    _, inverse = matrix_inverse(rows, geom.field)
    if inverse is None:
        raise ChartError("matrix is singular")
    # most entries of the inverse vanish (12 of 16 on sphere2)
    inverse = [[(col, e) for col, e in enumerate(row) if not e.is_zero] for row in inverse]
    higher = [
        [
            (col, j, part.terms)
            for col, block in enumerate(row)
            for j, part in block.homogeneous_parts().items()
            if j
        ]
        for row in theta.blocks
    ]
    return inverse, higher


def solve_hamiltonian(theta: GradedTwoForm, alpha) -> Derivation:
    """Hamiltonian derivation of alpha: the D with iota_D theta = d^G alpha.

    Works over theta's own basis. Write D = sum_b K_b B_b + sum_b C_b i_b
    with B_b the even basics, and stack the degree-m parts of the
    coefficients (K, C) into x_m. The degree-m part of the tabulated
    equation reads A x_m = r_m, with A the degree-0 part of theta's block
    matrix and r_m the degree-m right-hand side minus the higher-degree
    blocks applied to lower coefficients. An insertion row picks up the
    Koszul sign (-1)^(coefficient degree); multiplying the row by (-1)^m
    leaves A unsigned. A singular A, i.e. a degenerate form, raises
    ChartError.

    Each residual row r_m and each x_m entry is one term dict, into which
    the signed wedges of the higher blocks and the products c * e of a
    residual coefficient c with an entry e of A^-1 are accumulated as
    they are made; no Form is built per addend, and a scaled row is never
    a wedge with a 0-form. The degree parts are disjoint, so a
    coefficient's total is their union.

    A^-1 and the higher blocks come from theta's sparse plan, built once
    per chart, which keeps only the nonzero entries of A^-1 and the
    nonempty higher parts, so the elimination visits no zero entry and no
    empty block. The targets' terms are sorted by degree in one pass
    before it starts.
    The result is the derivation by its coefficients over the lie basics;
    over the nabla basics they differ by the connection twist, which
    ChartGeometry.twist_into subtracts from the insertion totals in place,
    and graded.components_by_degree reads those back by degree.
    The solve is kept in the chart's cache under theta and the operand,
    and only once _verify has passed, so _verify runs once per distinct
    solve and a repeated solve returns the same Derivation; callers must
    treat it as read-only.
    """
    return _solve(theta.geom, theta, _operand(alpha, theta.geom))


@per_chart
def _solve(geom: ChartGeometry, theta: GradedTwoForm, alpha) -> Derivation:
    """solve_hamiltonian's elimination and its check, for a checked operand."""
    inverse, higher = _plan(geom, theta)
    dim = geom.dim
    field = geom.field
    rhs = _as_rhs(geom, alpha, theta.basis)
    size = 2 * dim

    # parts[m][row] is the degree-m part of target row, the Koszul sign
    # (-1)^m of an insertion row applied
    parts = [[{} for _ in range(size)] for _ in range(dim + 1)]
    for row, target in enumerate(rhs.values):
        flip = row >= dim
        for i, c in target.terms.items():
            parts[len(i)][row][i] = -c if flip and len(i) % 2 else c

    # coeffs[m][col] and each residual row are term dicts of degree m
    coeffs: list[list[dict]] = []
    for m, residual in enumerate(parts):
        for row, terms in enumerate(residual):
            koszul = row >= dim
            for col, j, part in higher[row]:
                if j <= m and coeffs[m - j][col]:
                    _wedge_into(terms, coeffs[m - j][col], part, 1 if koszul and j % 2 else -1)
        solved = []
        for inv_row in inverse:
            terms = {}
            for col, e in inv_row:
                for i, c in residual[col].items():
                    _accumulate(terms, i, c * e)
            solved.append(terms)
        coeffs.append(solved)

    # the degree parts are disjoint, so the totals merge without additions
    totals = [Form.zero(field) for _ in range(size)]
    for part in coeffs:
        for total, terms in zip(totals, part):
            total.terms.update(terms)
    if theta.basis == "nabla":
        # nabla_b = L_b - sum_i T(e_b)_i i_i, so over the lie basics C loses T(K)
        geom.twist_into([c.terms for c in totals[dim:]], totals[:dim], -1)
    derivation = Derivation(field, totals)
    _verify(theta, derivation, rhs)
    return derivation


# -- recursion fast paths ------------------------------------------------------


def _chain(chart: ChartGeometry, seed: VectorValuedForm, top: int) -> list[VectorValuedForm]:
    """seed, then each term -J^{-1}(R(_,_) K) of the one before, up to
    degree top; apply_endo carries the sign, so no step is negated."""
    seq = [seed]
    for _ in range(seed.degree + 2, top + 1, 2):
        seq.append(chart.apply_endo(chart.j_inv, chart.curvature_apply(seq[-1]), -1))
    return seq


def k_even(chart: ChartGeometry, f) -> list[VectorValuedForm]:
    """Even lie coefficients of the Hamiltonian derivation of a function.

    Seeded at minus the classical Hamiltonian field (the solver's sign),
    -X_f = omega^{-1} . grad f since lam = -omega^{-1}; each step applies
    the curvature 2-form to the vector slot, then minus the inverse of the
    metric-symplectic endomorphism.
    """
    return _chain(chart, chart.apply_endo(chart.w_inv, chart.gradient(f)), chart.dim)


def k_odd(chart: ChartGeometry, f) -> list[VectorValuedForm]:
    """Odd lie coefficients of the Hamiltonian derivation of an exact
    differential: the degree-1 coefficient solves omega against the
    covariant Hessian, omega^{-1} . Hess f; higher ones take k_even's step.

    The step is the same for D_f and D_df. Over the nabla basics the even
    coefficients K_a = D(x^a) are the lie ones, Theta's mixed block is zero,
    and the even slot nabla_r of iota_D Theta = d^G alpha reads, with no
    Koszul sign, sum_s K_s ^ (omega_rs - R4(e_r, e_s, _, _)) = nabla_r alpha.
    Its right side, d_r f or Hess f(e_r, _), has one degree, so above the
    seed sum_s omega_rs K^m_s = sum_s K^{m-2}_s ^ R4(e_r, e_s, _, _) for
    either parity of m. Pair symmetry makes the right side
    g(R(_,_) K^{m-2}, e_r) and omega_rs = -g(e_r, J e_s) the left
    -g(J K^m, e_r), so K^m = -J^{-1}(R(_,_) K^{m-2}) in both chains.
    """
    seed = chart.apply_endo(chart.w_inv, chart.endo_form(chart.covariant_hessian(f)))
    return _chain(chart, seed, chart.dim)


# -- brackets -------------------------------------------------------------------


def even_bracket(alpha, beta, theta: GradedTwoForm) -> Form:
    """[[alpha, beta]] = D_alpha(beta) for the even symplectic form.

    theta may be tabulated in either basis: D_alpha is the unique
    derivation with iota_D theta = d^G alpha, so the result is the same.
    """
    return solve_hamiltonian(theta, alpha)(beta)


def _bivector_insertion(chart: ChartGeometry, form: Form) -> Form:
    """(1/2) sum_{a,b} lam^{ab} i_a i_b form = sum_{a<b} lam^{ab} i_a i_b form,
    since lam is antisymmetric and i_a i_b = -i_b i_a; the scaled
    insertions are accumulated into one term dict."""
    pairs = (
        (form.insert_basis(b).insert_basis(a).terms, coeff)
        for a, row in enumerate(chart.lam) for b, coeff in enumerate(row) if a < b
    )
    return Form._raw(chart.field, _scale_into({}, pairs))


def generator_operator(chart: ChartGeometry, form: Form) -> Form:
    """The odd generator: commutator of bivector insertion with d."""
    return _bivector_insertion(chart, form.d()) - _bivector_insertion(chart, form).d()


def ks_bracket(alpha, beta, chart: ChartGeometry) -> Form:
    """The odd graded Poisson bracket of two forms, through the odd
    symplectic form. The global sign is calibrated so that
    [[df, dh]] = d{f, h}; ks_bracket_by_generator is the independent route.
    """
    return -solve_hamiltonian(theta_ks_cached(chart), alpha)(beta)


def ks_bracket_by_generator(alpha, beta, chart: ChartGeometry) -> Form:
    """The odd graded Poisson bracket as the defect of the generator operator
    against the wedge product, calibrated like ks_bracket."""
    if isinstance(alpha, RationalFunction):
        alpha = Form.function(alpha)
    if isinstance(beta, RationalFunction):
        beta = Form.function(beta)
    defects = []
    for degree, part in alpha.homogeneous_parts().items():
        head = (
            generator_operator(chart, part.wedge(beta))
            - generator_operator(chart, part).wedge(beta)
        )
        tail = part.wedge(generator_operator(chart, beta))
        # the raw defect is head - (-1)^degree tail; the global calibration
        # takes minus it
        defects.append(head + tail if degree % 2 else tail - head)
    return Form.sum(chart.field, defects)


# -- closed-form bracket fast paths ---------------------------------------------


def _curvature_pair(chart: ChartGeometry, left: VectorValuedForm, right: VectorValuedForm) -> Form:
    """R4(left, right, _, _) = sum_{a,b} (left_a ^ right_b) ^ R4(e_a, e_b, _, _),
    each left_a ^ right_b made in a scratch dict where its R4 block is nonzero.
    Every such wedge vanishes when deg(left) + deg(right) + 2 exceeds the
    chart's dimension, and the pairing is zero at once."""
    field, terms, rights = chart.field, {}, right.components
    if left.degree + right.degree + 2 > chart.dim:
        return Form.zero(field)
    for lc, row in zip(left.components, chart.riemann4_forms):
        if lc.terms:
            made = (_wedge_into({}, lc.terms, rc.terms) if b.terms else {} for rc, b in zip(rights, row))
            _pair_into(terms, [Form._raw(field, w) for w in made], row)
    return Form._raw(field, terms)


def bracket_fastpath(kind: str, f, h, chart: ChartGeometry) -> Form:
    """Closed-form even brackets of functions and exact differentials.

    kind "ff" is [[f, h]], "f_dh" is [[f, dh]], "df_dh" is [[df, dh]].
    Built from the displayed curvature sums over the recursion components,
    with the even components taken in the displayed seeding (plus the
    classical Hamiltonian field). The generic solver remains authoritative;
    the test suite keeps the two routes equal on Kaehler charts.

    The even chain stops at degree dim - 2, one step short of k_even's.
    [[f, h]] reads an entry K of degree m only through R4(K, X_h, _, _),
    which vanishes once m + 2 > dim, and [[f, dh]] reads a top-degree
    entry only through d^nabla of it, a form of degree dim + 1, which is
    zero. So on a 2-D chart the chain is its seed alone.
    """
    field = chart.field
    f = field.wrap(f)
    h = field.wrap(h)
    x_h = chart.classical_hamiltonian(h)

    # each slot pattern builds only what it reads: [[f, h]] reads no dxh,
    # [[df, dh]] no even chain
    if kind in ("ff", "f_dh"):
        # displayed seeding: the first entry is X_f, so it pairs into {f, h}
        evens = _chain(chart, chart.classical_hamiltonian(f), chart.dim - 2)
        poisson = Form.function(chart.pair(chart.w, evens[0], x_h).scalar_part())
    if kind == "ff":
        return Form.sum(field, [poisson] + [_curvature_pair(chart, ke, x_h) for ke in evens])

    dxh = chart.dnabla(x_h)
    if kind == "f_dh":
        terms = [poisson.d()]
        for ke in evens:
            dke = chart.dnabla(ke)
            terms.append(-chart.pair(chart.w, dke, x_h))
            terms.append(_curvature_pair(chart, dke, x_h))
            terms.append(_curvature_pair(chart, ke, dxh))
        return Form.sum(field, terms)

    if kind == "df_dh":
        df = Form.function(f).d()
        dh = Form.function(h).d()
        sharp_df = chart.sharp(df)
        # g^-1(df, dh) = i_{sharp df} dh
        terms = [Derivation.insertion(sharp_df)(dh)]
        terms.append(chart.pair(chart.g, chart.dnabla(sharp_df), dxh))
        terms.append(_curvature_pair(chart, sharp_df, x_h))
        for ko in k_odd(chart, f):
            dko = chart.dnabla(ko)
            terms.append(chart.pair(chart.w, x_h, dko))
            terms.append(_curvature_pair(chart, dko, x_h))
            terms.append(_curvature_pair(chart, ko, dxh))
        return Form.sum(field, terms)

    raise ValueError(f"unknown fastpath kind {kind!r}")


# -- the derivative defect -------------------------------------------------------


def hamiltonian_of_differential_identity(alpha: Form, chart: ChartGeometry) -> bool:
    """Check the commutator form of the Hamiltonian of a differential,

        D_{d alpha} = [d, D_alpha] - (-1)^{|alpha|} Theta^{-1}(iota_{D_alpha} Theta_ks),

    as a Derivation identity for homogeneous alpha. The sign on the
    correction term is the one forced by the last-slot insertion and the
    locked mixed-block order of the odd form; flipping either flips it.
    """
    degrees = alpha.degrees()
    if len(degrees) > 1:
        raise ValueError("identity check needs homogeneous input")
    degree = degrees[0] if degrees else 0
    theta = theta_even_cached(chart, "nabla")
    d_op = Derivation.exterior(chart.field)
    d_alpha = solve_hamiltonian(theta, alpha)
    lhs = solve_hamiltonian(theta, alpha.d())
    correction = solve_hamiltonian(theta, iota(d_alpha, theta_ks_cached(chart)))
    rhs = d_op.commutator(d_alpha) + (
        -correction if degree % 2 == 0 else correction
    )
    return lhs == rhs


def d_defect(alpha, beta, chart: ChartGeometry):
    """Failure of d to be a derivation of the even bracket, both sides.

    Per homogeneous parts alpha_p, beta_q,

        left  = d[[alpha_p, beta]] - [[d alpha_p, beta]]
                - (-1)^p [[alpha_p, d beta]]
        right = (-1)^{p+q} <D_alpha_p, D_beta_q; Theta_ks>

    summed over parts. The signs are forced once the bracket is realized
    through derivations: d D_alpha = [d, D_alpha] + (-1)^p D_alpha d
    gives the left sign, and moving the correction derivation across the
    two graded-antisymmetry swaps that turn it into the Koszul pairing
    gives the right one. The two sides are computed through disjoint
    pipelines and should agree identically. As a side effect the
    Hamiltonian-of-the-differential identity is verified per part,
    raising if it fails.
    """
    field = chart.field
    if isinstance(alpha, RationalFunction):
        alpha = Form.function(alpha)
    if isinstance(beta, RationalFunction):
        beta = Form.function(beta)
    theta = theta_even_cached(chart, "nabla")
    beta_hams = {q: solve_hamiltonian(theta, part) for q, part in beta.homogeneous_parts().items()}

    left, right = [], []
    for p, part in alpha.homogeneous_parts().items():
        if not hamiltonian_of_differential_identity(part, chart):
            raise RuntimeError(
                "hamiltonian of the differential disagrees with its "
                "commutator form; this signals a convention bug"
            )
        d_part = solve_hamiltonian(theta, part)
        mixed = d_part(beta.d())
        left.append(d_part(beta).d())
        left.append(-solve_hamiltonian(theta, part.d())(beta))
        left.append(mixed if p % 2 else -mixed)
        for q, d_beta in beta_hams.items():
            pairing = eval_two(theta_ks_cached(chart), d_part, d_beta)
            right.append(pairing if (p + q) % 2 == 0 else -pairing)
    return Form.sum(field, left), Form.sum(field, right)
