"""Exterior calculus substrate: forms, insertions, derivations, commutators."""

import pytest
from hypothesis import given, strategies as st

from gradedpoisson.brackets import solve_hamiltonian
from gradedpoisson.forms import Derivation, Form, VectorValuedForm, _accumulate
from gradedpoisson.geometry import builtin_chart
from gradedpoisson.graded import _decompose, basics, theta_even_cached
from gradedpoisson.scalars import coordinate_field
from reference import (
    derivation_apply,
    directional,
    insert_vector,
    insert_vvform,
    lie_derivative,
    normal_form,
    per_basic_apply,
    scale_vector,
    vector_bracket,
    wedge,
)

F = coordinate_field(("x", "y"))
X, Y = F.gens
DX = Form.coordinate_diff(F, 0)
DY = Form.coordinate_diff(F, 1)
EX = VectorValuedForm.basis(F, 0)
EY = VectorValuedForm.basis(F, 1)
D_OP = Derivation.exterior(F)
F4 = coordinate_field(("x", "y", "z", "w"))


@st.composite
def polys(draw, field=F):
    value = field.zero
    for _ in range(draw(st.integers(0, 3))):
        term = field.constant(draw(st.integers(-3, 3)))
        for index in draw(st.lists(st.integers(0, field.dimension - 1), max_size=3)):
            term = term * field.gens[index]
        value = value + term
    return value


@st.composite
def quotients(draw, field=F):
    """p / q^k with q = 1 + sum c_a x_a^2, a sphere-like conformal denominator."""
    q = field.one
    for gen in field.gens:
        q = q + gen * gen * draw(st.integers(1, 3))
    return draw(polys(field)) / q ** draw(st.integers(1, 2))


@st.composite
def forms(draw, field=F, degree=None, coeffs=polys):
    dim = field.dimension
    if degree is None:
        degree = draw(st.integers(0, dim))
    from itertools import combinations

    terms = {}
    for idx in combinations(range(dim), degree):
        terms[idx] = draw(coeffs(field))
    return Form(field, terms)


@st.composite
def vector_fields(draw, field=F):
    return VectorValuedForm(field, [draw(polys(field)) for _ in range(field.dimension)], degree=0)


def test_wedge_examples():
    assert DX.wedge(DX).is_zero
    assert DX.wedge(DY) == -(DY.wedge(DX))
    assert (DY * X).wedge(DX * Y) == DX.wedge(DY) * (-X * Y)
    assert wedge(Form.function(X), DX, DY) == DX.wedge(DY) * X


def test_exterior_derivative_examples():
    assert (DY * X).d() == DX.wedge(DY)
    top = DX.wedge(DY) * (4 / (1 + X**2 + Y**2) ** 2)
    assert top.d().is_zero


def test_insertion_examples():
    assert insert_vector(DX.wedge(DY), EX) == DY
    assert insert_vector(Form.function(X * Y), EX).is_zero
    assert insert_vector(DY, scale_vector(EY, X)) == Form.function(X)


def test_lie_derivative_examples():
    assert lie_derivative(DY * X, EX) == DY
    f = Form.function(X**2 * Y)
    assert lie_derivative(f, EX) == Form.function(X * Y * 2)


def test_insert_vvform_identity_counts_degree():
    alpha = DX.wedge(DY) * (X + Y)
    ident = VectorValuedForm.identity(F)
    assert insert_vvform(ident, alpha) == 2 * alpha
    assert insert_vvform(ident, Form.function(X)).is_zero
    assert Derivation.exterior(F)(Form.function(X) * 1) == DX


@given(data=st.data())
def test_vector_valued_negation_test_matches_negating(data):
    # is_negation_of answers self == -other without building -other
    degree = data.draw(st.integers(0, 2))
    a, b = (
        VectorValuedForm(F, [data.draw(forms(F, degree, quotients)) for _ in range(2)], degree=degree)
        for _ in range(2)
    )
    for other in (a, -a, b, -b):
        assert a.is_negation_of(other) == (a == -other)
    # zero forms of every degree are equal, as under ==
    zero = [VectorValuedForm(F, [Form.zero(F)] * 2, degree=d) for d in (0, 2)]
    assert zero[0].is_negation_of(zero[1])
    assert EX.is_negation_of(-EX)
    # a form on another chart is never the negation
    assert not EX.is_negation_of(-VectorValuedForm.basis(coordinate_field(("u", "v")), 0))


def test_form_validation():
    with pytest.raises(ValueError):
        Form(F, {(1, 0): F.one})
    with pytest.raises(ValueError):
        Form(F, {(0, 5): F.one})
    with pytest.raises(ValueError):
        VectorValuedForm(F, [DX, Form.function(X)])


@st.composite
def addend_lists(draw, field=F):
    """Forms of mixed degrees, shuffled, some with their negation so that terms cancel."""
    addends = []
    for form in draw(st.lists(forms(field, coeffs=quotients), max_size=4)):
        addends.append(form)
        if draw(st.booleans()):
            addends.append(-form)
    return draw(st.permutations(addends))


@given(addend_lists())
def test_sum_matches_a_fold_of_add(addends):
    folded = Form.zero(F)
    for form in addends:
        folded = folded + form
    assert Form.sum(F, addends) == folded
    assert Form.sum(F, (form for form in addends)) == folded
    want = {}
    for form in addends:
        for idx, coeff in form.terms.items():
            want[idx] = want.get(idx, F.zero) + coeff
    assert Form.sum(F, addends).terms == {i: c for i, c in want.items() if not c.is_zero}


def test_sum_of_nothing_is_zero_and_charts_must_agree():
    assert Form.sum(F, []) == Form.zero(F)
    assert Form.sum(F, iter(())).field is F
    with pytest.raises(ValueError, match="different charts"):
        Form.sum(F, [DX, Form.coordinate_diff(F4, 0)])
    with pytest.raises(ValueError, match="different charts"):
        Form.sum(F4, [DX])
    with pytest.raises(ValueError, match="different charts"):
        DX + Form.coordinate_diff(F4, 0)


def test_a_form_equals_only_forms():
    # equal values must hash equal, and no scalar hashes like a Form, so the
    # zero form equals neither the integer 0 nor the zero scalar
    zero = Form.zero(F)
    assert zero != 0 and zero != F.zero
    assert Form.function(X) != X
    assert 0 not in {zero} and zero not in {0, F.zero}


@given(forms(), forms())
def test_wedge_graded_commutativity(a, b):
    for pa, ha in a.homogeneous_parts().items():
        for pb, hb in b.homogeneous_parts().items():
            sign = -1 if (pa % 2 and pb % 2) else 1
            assert ha.wedge(hb) == sign * hb.wedge(ha)


@given(forms())
def test_d_squared_is_zero(a):
    assert a.d().d().is_zero


@given(forms(), forms())
def test_d_leibniz(a, b):
    for pa, ha in a.homogeneous_parts().items():
        sign = -1 if pa % 2 else 1
        lhs = ha.wedge(b).d()
        rhs = ha.d().wedge(b) + sign * ha.wedge(b.d())
        assert lhs == rhs


@given(vector_fields(), forms())
def test_cartan_formula_matches_leibniz_expansion(x, a):
    # direct expansion: L_X(c dxI) = X(c) dxI + c * sum_m dxI with dx^{i_m} -> d(X^{i_m})
    direct = Form.zero(F)
    for idx, coeff in a.terms.items():
        base = Form._raw(F, {idx: F.one})
        direct = direct + base * directional(x, coeff)
        for pos, i in enumerate(idx):
            dxm = x.components[i].d()
            rest_before = idx[:pos]
            rest_after = idx[pos + 1 :]
            piece = Form._raw(F, {rest_before: F.one}) if rest_before else Form.function(F.one)
            piece = piece.wedge(dxm)
            tail = Form._raw(F, {rest_after: F.one}) if rest_after else Form.function(F.one)
            piece = piece.wedge(tail)
            direct = direct + piece * coeff
    assert lie_derivative(a, x) == direct


@given(vector_fields(), vector_fields(), forms())
def test_basic_commutator_relations(x, y, a):
    lx, ly = Derivation.lie(x), Derivation.lie(y)
    ix, iy = Derivation.insertion(x), Derivation.insertion(y)
    xy = vector_bracket(x, y)
    assert lx.commutator(iy) == Derivation.insertion(xy)
    assert lx.commutator(ly) == Derivation.lie(xy)
    assert ix.commutator(iy).is_zero
    assert lx.commutator(iy)(a) == lx(iy(a)) - iy(lx(a))


@given(forms())
def test_exterior_derivation_is_d(a):
    assert D_OP(a) == a.d()
    assert D_OP.commutator(D_OP).is_zero


def from_pairs(field, pairs):
    """The sum of Derivation.lie(K) + Derivation.insertion(L') over the
    (K, L') pairs of a normal form; either of a pair may be None."""
    total = Derivation.zero(field)
    for kpart, apart in pairs:
        if kpart is not None:
            total = total + Derivation.lie(kpart)
        if apart is not None:
            total = total + Derivation.insertion(apart)
    return total


@st.composite
def derivation_pairs(draw, field=F):
    """The normal-form pairs of a homogeneous derivation."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return [(None, draw(vector_fields(field)))]
    if kind == 1:
        return [(draw(vector_fields(field)), None)]
    k = VectorValuedForm(field, [draw(forms(field, degree=1)) for _ in range(field.dimension)], degree=1)
    lp = VectorValuedForm(field, [draw(forms(field, degree=2)) for _ in range(field.dimension)], degree=2)
    return [(k, lp)]


@st.composite
def derivations(draw, field=F):
    return from_pairs(field, draw(derivation_pairs(field)))


@given(derivations(), forms(), forms())
def test_derivation_graded_leibniz(dv, a, b):
    k = dv.degree
    if k is None or dv.is_zero:
        return
    for pa, ha in a.homogeneous_parts().items():
        sign = -1 if (k % 2 and pa % 2) else 1
        assert dv(ha.wedge(b)) == dv(ha).wedge(b) + sign * ha.wedge(dv(b))


@given(derivations(), derivations())
def test_commutator_matches_operator_composition(dv, ev):
    p, q = dv.degree, ev.degree
    if p is None or q is None:
        return
    sign = -1 if (p % 2 and q % 2) else 1
    comm = dv.commutator(ev)
    for probe in (Form.function(X * Y), DX * Y, DX.wedge(DY) * X):
        assert comm(probe) == dv(ev(probe)) - sign * ev(dv(probe))


@given(derivations(), derivations(), derivations())
def test_commutator_graded_jacobi(a, b, c):
    pa, pb = a.degree, b.degree
    if pa is None or pb is None:
        return
    sign = -1 if (pa % 2 and pb % 2) else 1
    lhs = a.commutator(b.commutator(c))
    nested = b.commutator(a.commutator(c))
    rhs = a.commutator(b).commutator(c) + (nested if sign > 0 else -nested)
    assert lhs == rhs


@given(derivations())
def test_normal_form_round_trip(dv):
    if dv.is_zero:
        return
    r = dv.degree
    k_comps = [dv(Form.function(F.gens[a])) for a in range(2)]
    kpart = VectorValuedForm(F, k_comps, degree=r) if 0 <= r <= 2 else None
    lie_piece = Derivation.lie(kpart) if kpart is not None and not kpart.is_zero else Derivation.zero(F)
    a_comps = [
        dv(Form.coordinate_diff(F, a)) - lie_piece(Form.coordinate_diff(F, a))
        for a in range(2)
    ]
    apart = VectorValuedForm(F, a_comps, degree=r + 1) if 0 <= r + 1 <= 2 else None
    rebuilt = from_pairs(F, [(kpart, apart)])
    assert rebuilt == dv


@given(derivation_pairs(), vector_fields())
def test_equal_values_hash_equal(pairs, x):
    # each value is built twice, by different routes, and goes in a set once
    dv = from_pairs(F, pairs)
    rebuilt = from_pairs(F, normal_form(dv))
    assert rebuilt == dv and hash(rebuilt) == hash(dv)
    assert len({dv, rebuilt}) == 1
    doubled = scale_vector(x, 2)
    twice = VectorValuedForm(F, [c + c for c in x.components], degree=0)
    assert twice == doubled and hash(twice) == hash(doubled)
    assert len({twice, doubled}) == 1
    for kpart, apart in pairs:
        for part in (kpart, apart):
            if part is not None:
                copy = VectorValuedForm(F, [c + Form.zero(F) for c in part.components])
                assert copy == part and hash(copy) == hash(part)
    # zero forms of every degree are equal, so they hash equal
    zeros = {VectorValuedForm(F, [Form.zero(F)] * 2, degree=k) for k in range(3)}
    assert len(zeros) == 1


@given(derivation_pairs(), forms())
def test_basis_coefficients_reproduce_action(pairs, a):
    coeffs = from_pairs(F, pairs).coefficients
    out = Form.zero(F)
    for i in range(2):
        basis = VectorValuedForm.basis(F, i)
        out = out + coeffs[i].wedge(lie_derivative(a, basis))
        out = out + coeffs[2 + i].wedge(a.insert_basis(i))
    assert out == derivation_apply(pairs, a)


@st.composite
def mixed_derivations(draw, field=F, coeffs=polys):
    """Normal-form pairs with a lie and an insertion part in every degree,
    each drawn or left out."""
    dim = field.dimension

    def vvform(degree):
        if not 0 <= degree <= dim or draw(st.booleans()):
            return None
        comps = [draw(forms(field, degree, coeffs)) for _ in range(dim)]
        return VectorValuedForm(field, comps, degree=degree)

    return [(vvform(k), vvform(k + 1)) for k in range(-1, dim + 1)]


@pytest.mark.parametrize(
    "field, coeffs", [(F, polys), (F, quotients), (F4, polys)], ids=["polynomial", "rational", "4d"]
)
@given(data=st.data())
def test_action_matches_cartan_formula(field, coeffs, data):
    pairs = data.draw(mixed_derivations(field, coeffs))
    a = data.draw(forms(field, coeffs=coeffs))
    assert from_pairs(field, pairs)(a) == derivation_apply(pairs, a)


@pytest.mark.parametrize(
    "field, coeffs", [(F, polys), (F, quotients), (F4, polys)], ids=["polynomial", "rational", "4d"]
)
@given(data=st.data())
def test_action_matches_one_form_per_basic(field, coeffs, data):
    dv = from_pairs(field, data.draw(mixed_derivations(field, coeffs)))
    a = data.draw(forms(field, coeffs=coeffs))
    assert dv(a) == per_basic_apply(dv, a)
    # d(d a) = 0: each product of the action meets its negative
    d_op, da = Derivation.exterior(field), a.d()
    assert d_op(da) == per_basic_apply(d_op, da) == Form.zero(field)


def test_action_builds_one_form(monkeypatch):
    # the products go straight into the result, so no Form per lie basic
    kpart = VectorValuedForm(F4, [Form.function(g * g) for g in F4.gens], degree=0)
    apart = VectorValuedForm(F4, [Form.coordinate_diff(F4, i) for i in range(4)], degree=1)
    dv = from_pairs(F4, [(kpart, None), (None, apart)])
    beta = Form(F4, {(0, 1): F4.gens[2], (1, 3): F4.one, (): F4.gens[0]})
    built = []
    raw = Form._raw.__func__

    def counting_raw(cls, *args):
        built.append(args)
        return raw(cls, *args)

    monkeypatch.setattr(Form, "_raw", classmethod(counting_raw))
    assert not dv(beta).is_zero
    assert len(built) == 1


@given(data=st.data())
def test_signed_accumulation_adds_the_negation(data):
    degree = data.draw(st.integers(0, 2))
    a, b = (data.draw(forms(F, degree, quotients)) for _ in range(2))
    signed, negated = dict(a.terms), dict(a.terms)
    for idx, coeff in b.terms.items():
        _accumulate(signed, idx, coeff, -1)
        _accumulate(negated, idx, -coeff)
    assert signed == negated == (a + (-b)).terms
    # a pair that cancels leaves no key behind, whichever sign comes first
    for idx, coeff in b.terms.items():
        for first, second in ((1, -1), (-1, 1)):
            terms = {}
            _accumulate(terms, idx, coeff, first)
            _accumulate(terms, idx, coeff, second)
            assert terms == {}


def test_subtraction_builds_no_negation_and_no_sum(monkeypatch):
    calls = []
    for name in ("__neg__", "__add__"):
        method = getattr(Form, name)

        def counted(*args, name=name, method=method):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(Form, name, counted)
    a = Form(F, {(0,): X, (0, 1): Y / (1 + X * X)})
    b = Form(F, {(0,): X, (1,): F.one})
    assert a - b == Form(F, {(0, 1): Y / (1 + X * X), (1,): -F.one})
    assert b - b == Form.zero(F)
    assert calls == []


def test_equal_forms_hash_equal_in_any_term_order():
    terms = [((0, 1), X / (1 + Y * Y)), ((), X * Y), ((1,), F.one), ((0,), -Y)]
    forward, backward = Form(F, terms), Form(F, terms[::-1])
    assert list(forward.terms) != list(backward.terms)
    assert forward == backward
    assert hash(forward) == hash(backward)
    summed = Form.sum(F, [Form(F, [term]) for term in terms[1::2] + terms[::2]])
    assert summed == forward and hash(summed) == hash(forward)


def test_action_refuses_a_form_on_another_chart():
    d_flat2 = Derivation.exterior(builtin_chart("flat2").field)
    flat4 = builtin_chart("flat4").field
    dx1 = Form.coordinate_diff(flat4, 0)
    for beta in (dx1, Form.function(flat4.one), dx1 * flat4.gens[0]):
        with pytest.raises(ValueError, match="different charts"):
            d_flat2(beta)


SPHERE = builtin_chart("sphere2")


@given(polys(SPHERE.field), st.booleans(), forms(SPHERE.field, coeffs=quotients))
def test_hamiltonian_action_matches_cartan_formula_on_a_curved_chart(f, exact, a):
    # D_f is even, D_df odd, both of mixed degree with rational coefficients
    alpha = Form.function(f).d() if exact else f
    dv = solve_hamiltonian(theta_even_cached(SPHERE, "nabla"), alpha)
    assert dv(a) == derivation_apply(normal_form(dv), a)


@given(data=st.data())
def test_nabla_coefficients_reproduce_action(data):
    # over the nabla basics the insertion coefficients gain the connection
    # twist of the even ones, which a curved chart makes nonzero
    pairs = data.draw(mixed_derivations(SPHERE.field, quotients))
    dv = from_pairs(SPHERE.field, pairs)
    beta = data.draw(forms(SPHERE.field, coeffs=quotients))
    out = Form.zero(SPHERE.field)
    for coeff, basic in zip(_decompose(SPHERE, dv, "nabla"), basics(SPHERE, "nabla")):
        out = out + coeff.wedge(basic(beta))
    assert out == dv(beta)
