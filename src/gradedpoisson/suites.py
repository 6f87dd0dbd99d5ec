"""Verification suites over a chart, with deterministic reports.

Each check carries an anchor string naming the identity it verifies, so
a failing report line points at a formula rather than at code. Reports
are a pure function of (chart, suite, seed, samples, max form degree):
the corpus is drawn from a seeded generator and echoed into the report,
and check order is fixed by the registry.

Suites: axioms (both graded Poisson brackets), theorems (structure of
the even and odd symplectic forms), recursion (solver vs. closed-form
component chains), kahler (the curvature chain identities), paracomplex
(the metric-symplectic endomorphism), and all.
"""

from __future__ import annotations

import json
import random

from .brackets import (
    bracket_fastpath,
    d_defect,
    even_bracket,
    k_even,
    k_odd,
    ks_bracket,
    solve_hamiltonian,
)
from .forms import Derivation, Form
from .geometry import ChartGeometry
from .graded import (
    convert_two,
    eval_one,
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
    theta_ks_cached,
    theta_ks_closed,
)

SUITES = ("axioms", "theorems", "recursion", "kahler", "paracomplex", "all")


# -- corpus ---------------------------------------------------------------------


def _random_poly(rng: random.Random, field):
    total = field.zero
    for _ in range(rng.randint(1, 3)):
        term = field.constant(rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(0, 3)):
            term = term * field.gens[rng.randrange(field.dimension)]
        total = total + term
    if total.is_zero:
        total = field.one
    return total


def _random_form(rng: random.Random, field, degree: int) -> Form:
    from itertools import combinations

    terms = {}
    for idx in combinations(range(field.dimension), degree):
        if rng.random() < 0.7:
            terms[idx] = _random_poly(rng, field)
    form = Form(field, terms)
    if form.is_zero:
        idx = tuple(range(degree))
        form = Form(field, {idx: field.one})
    return form


class SuiteContext:
    """Seeded corpus plus per-run caches shared by the checks."""

    def __init__(self, chart: ChartGeometry, seed: int, samples: int, max_form_degree: int):
        # an empty corpus would let every check pass vacuously
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if max_form_degree < 1:
            raise ValueError(f"max_form_degree must be at least 1, got {max_form_degree}")
        self.chart = chart
        self.seed = seed
        self.samples = samples
        self.max_form_degree = min(max_form_degree, chart.dim)
        rng = random.Random(seed)
        self.functions = [_random_poly(rng, chart.field) for _ in range(samples)]
        self.forms_by_degree = {
            0: [Form.function(f) for f in self.functions],
        }
        for degree in range(1, self.max_form_degree + 1):
            self.forms_by_degree[degree] = [
                _random_form(rng, chart.field, degree) for _ in range(samples)
            ]
        self.theta = theta_even_cached(chart, "nabla")

    def pairs(self):
        """Deterministic homogeneous pairs covering the whole corpus."""
        degrees = sorted(self.forms_by_degree)
        for t in range(self.samples):
            p = degrees[t % len(degrees)]
            q = degrees[(t + 1) % len(degrees)]
            yield p, self.forms_by_degree[p][t], q, self.forms_by_degree[q][
                (t + 3) % self.samples
            ]

    def triples(self):
        degrees = sorted(self.forms_by_degree)
        for t in range(self.samples):
            p = degrees[t % len(degrees)]
            q = degrees[(t + 2) % len(degrees)]
            r = degrees[(t + 1) % len(degrees)]
            yield (
                p,
                self.forms_by_degree[p][t],
                q,
                self.forms_by_degree[q][(t + 1) % self.samples],
                r,
                self.forms_by_degree[r][(t + 5) % self.samples],
            )

    def function_pairs(self):
        for t in range(self.samples):
            yield self.functions[t], self.functions[(t + 1) % self.samples]


def _defect_witness(lhs, rhs) -> str:
    return f"lhs - rhs = {lhs - rhs}"


# -- bracket dispatch helpers ------------------------------------------------------


def _even(ctx, alpha, beta):
    return even_bracket(alpha, beta, ctx.theta)


def _odd(ctx, alpha, beta):
    return ks_bracket(alpha, beta, ctx.chart)


def _check_bilinearity(ctx, bracket):
    for t, (p, alpha, q, beta) in enumerate(ctx.pairs()):
        other = ctx.forms_by_degree[p][(t + 2) % ctx.samples]
        lhs = bracket(ctx, alpha + other, beta)
        rhs = bracket(ctx, alpha, beta) + bracket(ctx, other, beta)
        if lhs != rhs:
            return False, _defect_witness(lhs, rhs)
        lhs = bracket(ctx, beta, alpha + other)
        rhs = bracket(ctx, beta, alpha) + bracket(ctx, beta, other)
        if lhs != rhs:
            return False, _defect_witness(lhs, rhs)
    return True, None


def _check_degree(ctx, bracket, shift):
    for p, alpha, q, beta in ctx.pairs():
        got = bracket(ctx, alpha, beta)
        want = (p + q + shift) % 2
        if any(m % 2 != want for m in got.degrees()):
            return False, f"degrees {got.degrees()} for |a|={p}, |b|={q}"
    return True, None


def _check_commutativity(ctx, bracket, weight):
    for p, alpha, q, beta in ctx.pairs():
        lhs = bracket(ctx, alpha, beta)
        rhs = bracket(ctx, beta, alpha)
        sign = -1 if ((p + weight) * (q + weight)) % 2 == 0 else 1
        rhs = rhs * ctx.chart.field.constant(sign)
        if lhs != rhs:
            return False, _defect_witness(lhs, rhs)
    return True, None


def _check_leibniz(ctx, bracket, weight):
    for p, alpha, q, beta, r, gamma in ctx.triples():
        lhs = bracket(ctx, alpha, beta.wedge(gamma))
        rhs = bracket(ctx, alpha, beta).wedge(gamma)
        tail = beta.wedge(bracket(ctx, alpha, gamma))
        rhs = rhs + (tail if ((p + weight) * q) % 2 == 0 else -tail)
        if lhs != rhs:
            return False, _defect_witness(lhs, rhs)
    return True, None


def _check_jacobi(ctx, bracket, weight):
    for p, alpha, q, beta, r, gamma in ctx.triples():
        lhs = bracket(ctx, alpha, bracket(ctx, beta, gamma))
        rhs = bracket(ctx, bracket(ctx, alpha, beta), gamma)
        tail = bracket(ctx, beta, bracket(ctx, alpha, gamma))
        rhs = rhs + (tail if ((p + weight) * (q + weight)) % 2 == 0 else -tail)
        if lhs != rhs:
            return False, _defect_witness(lhs, rhs)
    return True, None


# -- axiom checks -------------------------------------------------------------------


def check_even_bilinearity(ctx):
    return _check_bilinearity(ctx, _even)


def check_even_degree(ctx):
    return _check_degree(ctx, _even, 0)


def check_even_commutativity(ctx):
    return _check_commutativity(ctx, _even, 0)


def check_even_leibniz(ctx):
    return _check_leibniz(ctx, _even, 0)


def check_even_jacobi(ctx):
    return _check_jacobi(ctx, _even, 0)


def check_odd_bilinearity(ctx):
    return _check_bilinearity(ctx, _odd)


def check_odd_degree(ctx):
    return _check_degree(ctx, _odd, 1)


def check_odd_commutativity(ctx):
    return _check_commutativity(ctx, _odd, 1)


def check_odd_leibniz(ctx):
    return _check_leibniz(ctx, _odd, 1)


def check_odd_jacobi(ctx):
    return _check_jacobi(ctx, _odd, 1)


def check_poisson_extension(ctx):
    chart = ctx.chart
    for f, h in ctx.function_pairs():
        got = even_bracket(f, h, ctx.theta)
        if got.scalar_part() != chart.classical_poisson(f, h):
            return False, f"pi_0 defect for f={f}, h={h}"
    return True, None


# -- theorem checks ------------------------------------------------------------------


def check_exterior_insertion(ctx):
    chart = ctx.chart
    theta = theta_even_cached(chart, "lie")
    got = iota(Derivation.exterior(chart.field), theta)
    want = lambda_omega(chart)
    if got == want:
        return True, None
    return False, f"difference on lie tabulation: {[str(a - b) for a, b in zip(got.on_lie, want.on_lie)]}"


def check_exterior_lie(ctx):
    chart = ctx.chart
    theta = theta_even_cached(chart, "lie")
    got = lieG_two(Derivation.exterior(chart.field), theta)
    want = theta_ks_cached(chart)
    if got == want:
        return True, None
    return False, "lie derivative along d differs from the odd symplectic form"


def check_metric_potential_on_d(ctx):
    chart = ctx.chart
    value = eval_one(lambda_metric(chart), Derivation.exterior(chart.field))
    if value.is_zero:
        return True, None
    return False, f"<d; lambda_g> = {value}"


def _l_samples(chart):
    field = chart.field
    x0 = field.gens[0]
    scalars = [field.one, x0, x0 + field.constant(2)]
    out = []
    for scalar in scalars:
        rows = [
            [[field.zero] * chart.dim for _ in range(chart.dim)]
            for _ in range(chart.dim)
        ]
        rows[0][0][1] = scalar
        rows[0][1][0] = -scalar
        out.append(rows)
    return out


def _with_l(chart, rows, tag):
    return ChartGeometry(
        f"{chart.name}+{tag}",
        chart.field.coords,
        chart.g,
        chart.w,
        l_tensor=rows,
        kahler_expected=None,
        canonical_j=chart.canonical_j,
    )


def check_tensor_insertion_characterization(ctx):
    chart = ctx.chart
    d_op = Derivation.exterior(chart.field)
    base = iota(d_op, theta_even_cached(chart, "lie"))
    if base != lambda_omega(chart):
        return False, "the tensor-free form already misses the odd potential"
    for index, rows in enumerate(_l_samples(chart)):
        tensored = _with_l(chart, rows, f"L{index}")
        got = iota(d_op, theta_even(tensored, "omega_g_l"))
        if got == lambda_omega(tensored):
            return False, (
                f"nonzero sample {index} with L(e_1; e_1, e_2) = "
                f"{rows[0][0][1]} left the insertion unchanged"
            )
    return True, f"held for L = 0 and failed for {index + 1} nonzero samples, as characterized"


def check_defect_identity(ctx):
    limit = min(ctx.samples, 6)
    count = 0
    for p, alpha, q, beta in ctx.pairs():
        if p > 1 or q > 1:
            continue
        left, right = d_defect(alpha, beta, ctx.chart)
        if left != right:
            return False, _defect_witness(left, right)
        count += 1
        if count >= limit:
            break
    return True, None


def check_omega_hamiltonian(ctx):
    chart = ctx.chart
    sol = solve_hamiltonian(ctx.theta, chart.omega_form())
    want = Derivation.insertion(chart.j_vvform())
    if sol.derivation == want:
        return True, None
    return False, "hamiltonian derivation of omega is not the endomorphism insertion"


def check_metric_potential_pairing(ctx):
    chart = ctx.chart
    got = eval_one(lambda_metric(chart), Derivation.insertion(chart.j_vvform()))
    want = chart.omega_form() * 2
    if got == want:
        return True, None
    return False, _defect_witness(got, want)


def _nabla_j(chart, a: int):
    """(nabla_a J) as a matrix of scalars."""
    dim = chart.dim
    field = chart.field
    out = [[field.zero] * dim for _ in range(dim)]
    for b in range(dim):
        for j in range(dim):
            value = chart.j_matrix[b][j].partial(a)
            for m in range(dim):
                value = value + chart.gamma[b][a][m] * chart.j_matrix[m][j]
                value = value - chart.gamma[m][a][j] * chart.j_matrix[b][m]
            out[b][j] = value
    return out


def check_nabla_j_symmetry(ctx):
    chart = ctx.chart
    dim = chart.dim
    field = chart.field
    for a in range(dim):
        nj = _nabla_j(chart, a)
        for y in range(dim):
            for z in range(y + 1, dim):
                lhs = sum((chart.g[m][z] * nj[m][y] for m in range(dim)), field.zero)
                rhs = sum((chart.g[m][y] * nj[m][z] for m in range(dim)), field.zero)
                if lhs != rhs:
                    return False, (
                        f"g((nabla_{a} J)e_{y}, e_{z}) - g((nabla_{a} J)e_{z}, e_{y})"
                        f" = {lhs - rhs}"
                    )
    return True, None


def check_locally_hamiltonian(ctx):
    chart = ctx.chart
    variant = "omega_g_l" if chart.l_tensor is not None else "omega_g"
    theta = theta_even(chart, variant)
    value = lieG_two(Derivation.insertion(chart.j_vvform()), theta)
    if value.is_zero:
        return True, None
    witness = next(
        (
            f"<L_{a}, L_{b}> component {value.ll[a][b]}"
            for a in range(chart.dim)
            for b in range(chart.dim)
            if not value.ll[a][b].is_zero
        ),
        "nonzero mixed or insertion block",
    )
    return False, witness


def check_construction_consistency(ctx):
    chart = ctx.chart
    built = theta_even(chart, "omega_g")
    if built != theta_even_closed_lie(chart):
        return False, "definition path differs from the closed-form blocks"
    if convert_two(built, "nabla") != theta_even_closed_nabla(chart):
        return False, "covariant-basis closed form differs after conversion"
    if theta_ks(chart) != theta_ks_closed(chart):
        return False, "odd form differs from its closed-form blocks"
    return True, None


def check_theta_determinant(ctx):
    chart = ctx.chart
    det = scalar_block_det(theta_even_cached(chart, "lie"))
    want = chart.det_w * chart.det_g
    if det == want and not det.is_zero:
        return True, None
    return False, f"det = {det}, det omega * det g = {want}"


def check_ks_cross_oracle(ctx):
    for p, alpha, q, beta in ctx.pairs():
        ham = ks_bracket(alpha, beta, ctx.chart, method="hamiltonian")
        gen = ks_bracket(alpha, beta, ctx.chart, method="generator")
        if ham != gen:
            return False, _defect_witness(ham, gen)
    return True, "routes agree with calibration sign +1"


def check_ks_poisson_differential(ctx):
    chart = ctx.chart
    for f, h in ctx.function_pairs():
        got = ks_bracket(Form.function(f).d(), Form.function(h).d(), chart)
        want = Form.function(chart.classical_poisson(f, h)).d()
        if got != want:
            return False, _defect_witness(got, want)
    return True, None


# -- recursion checks -------------------------------------------------------------------


def check_solution_parity(ctx):
    chart = ctx.chart
    for f in ctx.functions:
        sol = solve_hamiltonian(ctx.theta, f)
        if sol.ins_components or any(m % 2 for m in sol.lie_components):
            return False, f"function {f} produced odd or insertion components"
        df = Form.function(f).d()
        sol = solve_hamiltonian(ctx.theta, df)
        if list(sol.ins_components) != ([0] if not df.is_zero else []):
            return False, f"differential of {f} has insertion degrees {list(sol.ins_components)}"
        if sol.ins_components and sol.ins_components[0] != chart.sharp(df).as_vvform():
            return False, f"insertion part of D_df is not the metric sharp for f = {f}"
        if any(m % 2 == 0 for m in sol.lie_components):
            return False, f"differential of {f} produced even lie components"
    return True, None


def check_even_chain(ctx):
    chart = ctx.chart
    for f in ctx.functions:
        sol = solve_hamiltonian(ctx.theta, f)
        for i, component in enumerate(k_even(chart, f)):
            got = sol.lie_components.get(2 * i)
            if got is None:
                if not component.is_zero:
                    return False, f"chain degree {2 * i} nonzero, solver zero, f = {f}"
            elif component != got:
                return False, f"chain and solver differ at degree {2 * i} for f = {f}"
    return True, None


def check_odd_chain(ctx):
    chart = ctx.chart
    for f in ctx.functions:
        df = Form.function(f).d()
        sol = solve_hamiltonian(ctx.theta, df)
        for i, component in enumerate(k_odd(chart, f)):
            got = sol.lie_components.get(2 * i + 1)
            if got is None:
                if not component.is_zero:
                    return False, f"chain degree {2 * i + 1} nonzero, solver zero, f = {f}"
            elif component != got:
                return False, f"chain and solver differ at degree {2 * i + 1} for f = {f}"
    return True, None


def check_sign_outcome(ctx):
    return True, (
        "even chain matches the solver when seeded at minus the classical "
        "field and stepped by -J^{-1}(R(_,_)K); odd chain matches with no "
        "extra step sign; displayed Kahler chain K^{2i+1} = (-1)^{i+1} "
        "d^nabla K^{2i} holds against the renormalized even sequence"
    )


def check_fastpath(ctx):
    chart = ctx.chart
    asserted = bool(chart.kahler_expected)
    for f, h in ctx.function_pairs():
        for kind in ("ff", "f_dh", "df_dh"):
            fast = bracket_fastpath(kind, f, h, chart)
            alpha = Form.function(f)
            beta = Form.function(h)
            if kind == "df_dh":
                alpha = alpha.d()
            if kind in ("f_dh", "df_dh"):
                beta = beta.d()
            slow = even_bracket(alpha, beta, ctx.theta)
            if fast != slow:
                witness = f"kind {kind}, f = {f}, h = {h}: {_defect_witness(fast, slow)}"
                if asserted:
                    return False, witness
                return True, f"not asserted off the Kahler charts; recorded defect: {witness}"
    if asserted:
        return True, None
    return True, "agreed everywhere although the chart is not flagged Kahler"


# -- kahler checks -----------------------------------------------------------------------


def _kahler_chain_defect(ctx):
    chart = ctx.chart
    for f in ctx.functions:
        evens = [-component for component in k_even(chart, f)]
        if evens[0] != chart.classical_hamiltonian(f).as_vvform():
            return f"renormalized seed is not the classical field for f = {f}"
        odds = k_odd(chart, f)
        for i, odd in enumerate(odds):
            shift = chart.dnabla(evens[i])
            want = -shift if i % 2 == 0 else shift
            if odd != want:
                return f"K^{2 * i + 1} != (-1)^{i + 1} d^nabla K^{2 * i} for f = {f}"
    return None


def check_kahler_seed(ctx):
    chart = ctx.chart
    for f in ctx.functions:
        seed = k_odd(chart, f)[0]
        want = -chart.dnabla(chart.classical_hamiltonian(f).as_vvform())
        if seed != want:
            witness = f"K^1 + d^nabla X_f != 0 for f = {f}"
            if chart.kahler_expected:
                return False, witness
            return True, f"not asserted off the Kahler charts; recorded defect: {witness}"
    return True, None


def check_kahler_chain(ctx):
    defect = _kahler_chain_defect(ctx)
    if defect is None:
        return True, None
    if ctx.chart.kahler_expected:
        return False, defect
    return True, f"not asserted off the Kahler charts; recorded defect: {defect}"


# -- paracomplex checks --------------------------------------------------------------------


def check_j_compatibility(ctx):
    chart = ctx.chart
    field = chart.field
    for a in range(chart.dim):
        for b in range(chart.dim):
            value = sum(
                (chart.g[m][b] * chart.j_matrix[m][a] for m in range(chart.dim)),
                field.zero,
            )
            if value != chart.w[a][b]:
                return False, f"omega(e_{a}, e_{b}) - g(J e_{a}, e_{b}) = {chart.w[a][b] - value}"
    if chart.canonical_j is not None:
        for a in range(chart.dim):
            for b in range(chart.dim):
                if chart.j_matrix[a][b] != chart.canonical_j[a][b]:
                    return False, (
                        f"structure solved from omega and g differs from the "
                        f"canonical lift structure at ({a},{b})"
                    )
        return True, "derived endomorphism equals the canonical lift structure"
    return True, None


def check_j_square(ctx):
    chart = ctx.chart
    sign = chart.j_square_scalar()
    if sign is None:
        return False, "J^2 is not a scalar multiple of the identity"
    label = "J^2 = -Id (complex type)" if sign < 0 else "J^2 = +Id (product type)"
    if chart.kahler_expected is True and sign != -1:
        return False, f"chart flagged Kahler but {label}"
    if chart.kahler_expected is False and sign != 1:
        return False, f"chart flagged para-Kahler but {label}"
    return True, label


def check_para_hermitian(ctx):
    chart = ctx.chart
    field = chart.field
    sign = chart.j_square_scalar()
    expected = -1 if sign == 1 else 1
    for a in range(chart.dim):
        for b in range(chart.dim):
            value = field.zero
            for m in range(chart.dim):
                for n in range(chart.dim):
                    value = value + chart.g[m][n] * chart.j_matrix[m][a] * chart.j_matrix[n][b]
            want = chart.g[a][b] * field.constant(expected)
            if value != want:
                return False, f"g(J e_{a}, J e_{b}) != {expected} g(e_{a}, e_{b})"
    if expected == -1:
        return True, "g(JA, JB) = -g(A, B): para-hermitian pairing"
    return True, "g(JA, JB) = +g(A, B): hermitian pairing"


def check_nabla_j_flat(ctx):
    chart = ctx.chart
    for a in range(chart.dim):
        nj = _nabla_j(chart, a)
        for b in range(chart.dim):
            for j in range(chart.dim):
                if not nj[b][j].is_zero:
                    return True, (
                        f"nabla J != 0 (first nonzero entry (nabla_{a} J)^{b}_{j}"
                        f" = {nj[b][j]}); integrability not asserted"
                    )
    return True, "nabla J = 0: the structure is parallel"


# -- registry and runner ----------------------------------------------------------------


class Check:
    __slots__ = ("id", "anchor", "suites", "fn")

    def __init__(self, id, anchor, suites, fn):
        self.id = id
        self.anchor = anchor
        self.suites = suites
        self.fn = fn


CHECKS = [
    Check("even-bilinearity", "[[a+b,c]] = [[a,c]] + [[b,c]] (even bracket)", ("axioms",), check_even_bilinearity),
    Check("even-degree", "|[[a,b]]| = |a| + |b| mod 2 (even bracket)", ("axioms",), check_even_degree),
    Check("even-commutativity", "[[a,b]] = -(-1)^{|a||b|} [[b,a]] (even bracket)", ("axioms",), check_even_commutativity),
    Check("even-leibniz", "[[a,b^c]] = [[a,b]]^c + (-1)^{|a||b|} b^[[a,c]] (even bracket)", ("axioms",), check_even_leibniz),
    Check("even-jacobi", "[[a,[[b,c]]]] = [[[[a,b]],c]] + (-1)^{|a||b|} [[b,[[a,c]]]] (even bracket)", ("axioms",), check_even_jacobi),
    Check("odd-bilinearity", "[[a+b,c]] = [[a,c]] + [[b,c]] (odd bracket)", ("axioms",), check_odd_bilinearity),
    Check("odd-degree", "|[[a,b]]| = |a| + |b| - 1 mod 2 (odd bracket)", ("axioms",), check_odd_degree),
    Check("odd-commutativity", "[[a,b]] = -(-1)^{(|a|-1)(|b|-1)} [[b,a]] (odd bracket)", ("axioms",), check_odd_commutativity),
    Check("odd-leibniz", "[[a,b^c]] = [[a,b]]^c + (-1)^{(|a|-1)|b|} b^[[a,c]] (odd bracket)", ("axioms",), check_odd_leibniz),
    Check("odd-jacobi", "[[a,[[b,c]]]] = [[[[a,b]],c]] + (-1)^{(|a|-1)(|b|-1)} [[b,[[a,c]]]] (odd bracket)", ("axioms",), check_odd_jacobi),
    Check("poisson-extension", "pi_0([[f,h]]) = {f,h}", ("axioms",), check_poisson_extension),
    Check("exterior-insertion", "iota_d Theta_{omega,g} = lambda_omega", ("theorems",), check_exterior_insertion),
    Check("exterior-lie", "L^G_d Theta_{omega,g} = Theta_KS", ("theorems",), check_exterior_lie),
    Check("metric-potential-on-d", "<d; lambda_g> = 0", ("theorems",), check_metric_potential_on_d),
    Check("tensor-insertion-characterization", "iota_d Theta_{omega,g,L} = lambda_omega iff L = 0", ("theorems",), check_tensor_insertion_characterization),
    Check("defect-identity", "d[[a,b]] - [[da,b]] - (-1)^{|a|}[[a,db]] = (-1)^{|a|+|b|} <D_a, D_b; Theta_KS>", ("theorems",), check_defect_identity),
    Check("omega-hamiltonian", "D_omega = i_J", ("theorems", "paracomplex"), check_omega_hamiltonian),
    Check("metric-potential-pairing", "iota_{i_J} lambda_g = 2 omega", ("theorems", "paracomplex"), check_metric_potential_pairing),
    Check("nabla-j-symmetry", "g((nabla_X J)Y, Z) = g((nabla_X J)Z, Y)", ("theorems",), check_nabla_j_symmetry),
    Check("locally-hamiltonian", "L^G_{i_J} Theta_{omega,g,L} = 0", ("theorems", "paracomplex"), check_locally_hamiltonian),
    Check("construction-consistency", "Theta_{omega,g} = Theta_omega + (1/2) d^G lambda_g = closed-form blocks", ("theorems",), check_construction_consistency),
    Check("theta-determinant", "det Theta~ = det omega * det g != 0", ("theorems",), check_theta_determinant),
    Check("ks-cross-oracle", "hamiltonian route = generator route (odd bracket)", ("theorems",), check_ks_cross_oracle),
    Check("ks-poisson-differential", "[[df,dh]]_KS = d{f,h}", ("theorems",), check_ks_poisson_differential),
    Check("solution-parity", "D_f purely even; D_df = i_{sharp df} + odd terms", ("recursion",), check_solution_parity),
    Check("even-chain", "K^{2i} = -J^{-1}(R(_,_)K^{2(i-1)}) matches the solver", ("recursion",), check_even_chain),
    Check("odd-chain", "omega(Y, K^1 U) = Hess f(Y,U); K^{2i+1} = J^{-1}(R(_,_)K^{2i-1}) matches the solver", ("recursion",), check_odd_chain),
    Check("sign-outcome", "recorded resolution of the displayed recursion signs", ("recursion",), check_sign_outcome),
    Check("fastpath", "[[f,h]], [[f,dh]], [[df,dh]] closed forms = solver values", ("recursion",), check_fastpath),
    Check("kahler-seed", "K^1 = -d^nabla X_f", ("kahler",), check_kahler_seed),
    Check("kahler-chain", "K^{2i+1} = (-1)^{i+1} d^nabla K^{2i}", ("kahler",), check_kahler_chain),
    Check("j-compatibility", "omega(A,B) = g(JA,B)", ("paracomplex",), check_j_compatibility),
    Check("j-square", "J^2 = s Id with s = -1 or +1", ("paracomplex",), check_j_square),
    Check("para-hermitian", "g(JA,JB) = -g(A,B) when J^2 = +Id", ("paracomplex",), check_para_hermitian),
    Check("nabla-j", "nabla J = 0 (parallel structure; recorded, not asserted)", ("paracomplex",), check_nabla_j_flat),
]


class CheckRecord:
    __slots__ = ("id", "anchor", "status", "witness")

    def __init__(self, id, anchor, status, witness):
        self.id = id
        self.anchor = anchor
        self.status = status
        self.witness = witness


class Report:
    def __init__(self, chart, suite, ctx, records):
        self.chart = chart.name
        self.suite = suite
        self.seed = ctx.seed
        self.samples = ctx.samples
        self.max_form_degree = ctx.max_form_degree
        self.corpus_functions = [str(f) for f in ctx.functions]
        self.corpus_one_forms = [str(f) for f in ctx.forms_by_degree.get(1, ())]
        self.records = records

    @property
    def failed(self) -> int:
        """Checks that failed or raised."""
        return sum(1 for r in self.records if r.status != "pass")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_text(self) -> str:
        lines = [
            "graded symplectic verification report",
            f"chart: {self.chart}",
            f"suite: {self.suite}",
            f"seed: {self.seed}",
            f"samples: {self.samples}",
            f"max form degree: {self.max_form_degree}",
            "corpus functions: " + "; ".join(self.corpus_functions),
            "corpus one-forms: " + "; ".join(self.corpus_one_forms),
        ]
        for record in self.records:
            line = f"{record.status.upper():4s} {record.id} :: {record.anchor}"
            if record.witness:
                tag = "note" if record.status == "pass" else "witness"
                line += f" :: {tag}: {record.witness}"
            lines.append(line)
        lines.append(
            f"summary: {len(self.records)} checks, "
            f"{len(self.records) - self.failed} passed, {self.failed} failed"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "chart": self.chart,
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "max_form_degree": self.max_form_degree,
            "corpus": {
                "functions": self.corpus_functions,
                "one_forms": self.corpus_one_forms,
            },
            "checks": [
                {
                    "id": record.id,
                    "anchor": record.anchor,
                    "status": record.status,
                    "witness": record.witness,
                }
                for record in self.records
            ],
            "summary": {
                "checks": len(self.records),
                "passed": len(self.records) - self.failed,
                "failed": self.failed,
            },
        }
        return json.dumps(payload, indent=2) + "\n"


def run_suite(
    chart: ChartGeometry,
    suite: str = "all",
    seed: int = 42,
    samples: int = 8,
    max_form_degree: int = 2,
) -> Report:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    ctx = SuiteContext(chart, seed, samples, max_form_degree)
    records = []
    for check in CHECKS:
        if suite != "all" and suite not in check.suites:
            continue
        try:
            ok, witness = check.fn(ctx)
        except Exception as err:  # one broken check must not end the run
            status, witness = "error", f"{type(err).__name__}: {err}"
        else:
            status = "pass" if ok else "fail"
        records.append(CheckRecord(check.id, check.anchor, status, witness))
    return Report(chart, suite, ctx, records)
