"""Field arithmetic, differentiation and evaluation of exact scalars."""

import json
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField

from conftest import fresh_python
from gradedpoisson import cli, scalars as scalar_module
from gradedpoisson.cli import main
from gradedpoisson.factoring import factor
from gradedpoisson.scalars import (
    _exact_quotient,
    _factor,
    _poly_add,
    _poly_diff,
    _poly_mul,
    _poly_neg,
    _poly_pow,
    clear_memos,
    coordinate_field,
)
from reference import (
    eval_at,
    native_poly,
    sympy_elem,
    sympy_factor_list,
    sympy_field,
    sympy_poly,
)

F = coordinate_field(("x", "y"))
X, Y = F.gens


@st.composite
def polynomials(draw, field=F, max_terms=4, max_degree=4):
    value = field.zero
    for _ in range(draw(st.integers(0, max_terms))):
        term = field.constant(draw(st.integers(-3, 3)))
        picks = draw(
            st.lists(
                st.integers(0, field.dimension - 1),
                max_size=max_degree,
            )
        )
        for index in picks:
            term = term * field.gens[index]
        value = value + term
    return value


@st.composite
def scalars(draw, field=F):
    numer = draw(polynomials(field))
    denom = draw(polynomials(field))
    if denom.is_zero:
        denom = field.one + field.gens[0] ** 2
    return numer / denom


@st.composite
def cancelling_pairs(draw, field=F):
    """a = p/(f*g) and b = q/(f*h) with p*h + q*g divisible by f.

    Taking p = u*g + f*s and q = f*t - u*h gives p*h + q*g = f*(s*h + t*g),
    so over the common denominator f*g*h the sum's numerator shares the
    factor f with it, and a + b = s/g + t/h.
    """
    f, g, h, u, s, t = (draw(polynomials(field)) for _ in range(6))
    if not any(f.partial(i) for i in range(field.dimension)):
        f = field.one + field.gens[0] * field.gens[-1]
    g, h, u = (value if value else field.one for value in (g, h, u))
    return (u * g + f * s) / (f * g), (f * t - u * h) / (f * h)


points = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    min_size=2,
    max_size=2,
)


def test_spec_examples():
    assert (X / (1 + Y)) * (1 + Y) == X
    assert 1 / X + 1 / X == 2 / X
    assert (X**2 * Y).partial(0) == 2 * X * Y
    assert (1 / (1 + X**2)).partial(0) == -2 * X / (1 + X**2) ** 2
    assert X.partial("y").is_zero
    assert eval_at(X**2 + Y, [2, 3]) == 7
    assert eval_at(X - X, [Fraction(1, 7), 5]) == 0


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero
    with pytest.raises(ZeroDivisionError):
        eval_at(1 / X, [0, 1])
    with pytest.raises(ZeroDivisionError):
        X ** (-1) * 0 / (Y - Y)
    with pytest.raises(ZeroDivisionError, match="negative power of zero"):
        F.zero ** -2
    with pytest.raises(ValueError, match="zero to the power zero is undefined"):
        F.zero ** 0
    assert F.zero ** 3 == F.zero


def test_normalization_is_canonical():
    assert (2 * X) / 2 == X
    assert X / (-1 - Y) == (-X) / (1 + Y)
    assert hash(X + Y) == hash(Y + X)
    assert str(F.zero) == "0"
    for power, quotient in (
        ((Y - X) ** -1, 1 / (Y - X)),
        ((-X) ** -1, 1 / (-X)),
        ((-X) ** -2, 1 / X**2),
    ):
        assert power == quotient
        assert hash(power) == hash(quotient)


@pytest.mark.parametrize(
    "value, text",
    [
        (-2 / (X**2 + 1), "-2/(x**2 + 1)"),
        (-1 / X, "-1/x"),
        ((X - Y) / (3 * X), "(x - y)/(3*x)"),
        (5 / (X * Y), "5/(x*y)"),
        (-3 * X / 7, "-3*x/7"),
        ((-X - 1) / 7, "(-x - 1)/7"),
        (X**2 - 2 * X * Y + 1, "x**2 - 2*x*y + 1"),
        (-F.one, "-1"),
    ],
)
def test_printed_forms(value, text):
    assert str(value) == text
    assert repr(value) == f"RationalFunction({text})"


@st.composite
def printable_values(draw):
    """A value on 1 to 4 coordinates over a constant, one coordinate, a
    single term or a polynomial of two or three terms, with signs and unit
    coefficients; exponents reach 2**64 and above except over a polynomial,
    where trial division runs for as many steps as an exponent is large."""
    n = draw(st.integers(1, 4))
    field = coordinate_field(("a", "b", "c", "d")[:n])
    kind = draw(st.sampled_from(["constant", "generator", "term", "polynomial"]))
    exponents = st.integers(0, 3) if kind == "polynomial" else HUGE_EXPONENTS
    coefficients = st.integers(-7, 7).filter(bool)

    def polynomial(min_terms, max_terms):
        value = field.zero
        monomials = st.tuples(*[exponents] * n)
        terms = st.dictionaries(monomials, coefficients, min_size=min_terms, max_size=max_terms)
        for monom, coeff in draw(terms).items():
            term = field.constant(coeff)
            for gen, exp in zip(field.gens, monom):
                term = term * gen**exp
            value = value + term
        return value

    if kind == "constant":
        denom = field.constant(draw(coefficients))
    elif kind == "generator":
        denom = draw(st.sampled_from(field.gens)) * draw(st.sampled_from([1, -1]))
    elif kind == "term":
        denom = polynomial(1, 1)
    else:
        denom = polynomial(2, 3)
    return polynomial(0, 4) / (denom if denom else field.one)


@given(printable_values())
def test_values_print_as_sympy_does(value):
    elem = sympy_elem(value)
    assert str(value) == str(elem)
    assert repr(value) == f"RationalFunction({elem})"


def test_field_mismatch_rejected():
    G = coordinate_field(("q",))
    with pytest.raises(ValueError):
        X + G.gens[0]


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(scalars())
def test_partials_commute(f):
    assert f.partial(0).partial(1) == f.partial(1).partial(0)


@given(scalars(), scalars())
def test_quotient_rule(f, g):
    if g.is_zero:
        return
    lhs = (f / g).partial(0)
    rhs = (f.partial(0) * g - f * g.partial(0)) / g**2
    assert lhs == rhs


@given(scalars(), scalars())
def test_memoized_results_equal_fresh_sympy(a, b):
    clear_memos()
    product = sympy_elem(a) * sympy_elem(b)
    derivatives = [sympy_elem(a).diff(gen) for gen in sympy_field(F).gens]
    for _ in range(2):  # misses, then hits
        assert sympy_elem(a * b) == product
        for index, name in enumerate(F.coords):
            assert sympy_elem(a.partial(index)) == derivatives[index]
            assert sympy_elem(a.partial(name)) == derivatives[index]


ORACLE = FracField(F.coords, QQ, order="grlex")


def _terms(poly):
    return {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in poly.terms()}


def _to_oracle(value):
    elem = sympy_elem(value)
    numer, denom = (
        ORACLE.ring.from_dict({m: QQ(c) for m, c in _terms(poly).items()})
        for poly in (elem.numer, elem.denom)
    )
    return ORACLE.new(numer, denom)


def _assert_canonical(value, expected):
    elem = sympy_elem(value)
    numer, denom = _terms(elem.numer), _terms(elem.denom)
    assert (numer, denom) == (_terms(expected.numer), _terms(expected.denom))
    assert all(c.denominator == 1 for c in (*numer.values(), *denom.values()))
    assert elem.numer.gcd(elem.denom) == 1
    assert denom[max(denom, key=lambda m: (sum(m), m))] > 0


@given(scalars(), scalars(), cancelling_pairs())
def test_integer_field_agrees_with_a_rational_oracle(a, b, pair):
    # independent draws rarely make a sum cancel against its denominator
    c, e = pair
    _assert_canonical(c + e, _to_oracle(c) + _to_oracle(e))
    qa, qb = _to_oracle(a), _to_oracle(b)
    _assert_canonical(a + b, qa + qb)
    _assert_canonical(a - b, qa - qb)
    _assert_canonical(a * b, qa * qb)
    if b:
        _assert_canonical(a / b, qa / qb)
    for index, gen in enumerate(ORACLE.gens):
        _assert_canonical(a.partial(index), qa.diff(gen))
    if a:
        for k in range(-3, 4):
            expected = qa**k if k >= 0 else ORACLE.one / qa**-k
            _assert_canonical(a**k, expected)


def test_partial_resolves_names_like_coordinate():
    clear_memos()
    f = X * Y
    entries = len(F._memo)
    assert f.partial("x") is f.partial(0)
    assert len(F._memo) == entries + 1
    with pytest.raises(KeyError, match="unknown coordinate 'z'"):
        f.partial("z")
    with pytest.raises(KeyError, match="unknown coordinate 'z'"):
        F.coordinate("z")


@given(scalars(), scalars(), points)
def test_eval_is_a_homomorphism(a, b, p):
    try:
        va, vb = eval_at(a, p), eval_at(b, p)
        vsum = eval_at(a + b, p)
        vprod = eval_at(a * b, p)
    except ZeroDivisionError:
        return
    assert vsum == va + vb
    assert vprod == va * vb


def _assert_factored_canonical(value):
    """The stored form is the canonical one the module docstring defines."""
    orders = [factor.poly for factor, _ in value.facs]
    assert orders == sorted(orders) and len(set(orders)) == len(orders)
    num = sympy_poly(value.field, value.num)
    for factor, exp in value.facs:
        poly = sympy_poly(value.field, factor.poly)
        assert exp > 0
        assert poly.LC > 0
        # irreducible and primitive: its own single factor, up to sign
        coeff, pairs = poly.factor_list()
        assert abs(coeff) == 1 and len(pairs) == 1 and pairs[0][1] == 1
        assert pairs[0][0] * coeff == poly
        assert num.div(poly)[1] != 0
    assert value.cont > 0
    assert gcd(int(num.content()), value.cont) == 1


@given(scalars(), scalars(), st.integers(-3, 3))
def test_factored_form_stays_canonical(a, b, k):
    results = [a + b, a - b, b - a, a * b, -a, a.partial(0), a.partial(1)]
    if b:
        results += [a / b, 1 / b, (a * b).partial(0) / b]
    if a:
        results.append(a**k)
    for value in results:
        _assert_factored_canonical(value)


# irreducible and distinct; listed in no particular order
IRREDUCIBLES = (Y**2 + 2, 1 + X, X * Y + 1, X, X**2 - Y, 1 + Y, X**2 + Y**2 + 1, Y)


@st.composite
def walk_cases(draw):
    """Operands whose product or sum cancels what the factor walk must find.

    * free: p*f**k times q/(f**m*g), a numerator with no factor divisible
      by the other operand's factors;
    * shared: (u*f + s)/(f**k*g) and (f*t - s)/(f**k*g), one factor list,
      whose sum cancels f wholly (k = 1) or in part;
    * content: the same over c*m*f**k*g with c*u and c*t, so the sum's
      numerator shares the content c, and c*p*f times q/(c*m*f*g);
    * interleaved: four factors in their stored order, alternating between
      the two denominators, each numerator a multiple of some of the other
      side's factors, so the merge must keep the order.
    """
    kind = draw(st.sampled_from(("free", "shared", "content", "interleaved")))
    picks = draw(st.permutations(IRREDUCIBLES))
    p, q, u, s, t = (draw(polynomials()) for _ in range(5))
    p, q = (value if value else F.one for value in (p, q))
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if kind == "free":
        f, g = picks[:2]
        return p * f**k, q / (f**m * g)
    if kind == "shared":
        f, g = picks[:2]
        return (u * f + s) / (f**k * g), (f * t - s) / (f**k * g)
    if kind == "content":
        f, g = picks[:2]
        c = draw(st.integers(2, 6))
        if draw(st.booleans()):
            return c * p * f, q / (c * m * f * g)
        return (c * u * f + s) / (c * m * f**k * g), (c * t * f - s) / (c * m * f**k * g)
    ordered = sorted(picks[:4], key=lambda value: value.num)
    exps = [draw(st.integers(1, 2)) for _ in ordered]
    left, right = ordered[0::2], ordered[1::2]
    a, b = p, q
    for factor, exp in zip(left, exps[0::2]):
        a = a / factor**exp
    for factor, exp in zip(right, exps[1::2]):
        b = b / factor**exp
    for factor in draw(st.lists(st.sampled_from(left), max_size=2)):
        b = b * factor
    for factor in draw(st.lists(st.sampled_from(right), max_size=2)):
        a = a * factor
    return a, b


@given(walk_cases())
def test_the_factor_walk_cancels_what_the_oracle_cancels(case):
    a, b = case
    qa, qb = _to_oracle(a), _to_oracle(b)
    for value, expected in (
        (a * b, qa * qb),
        (b * a, qb * qa),
        (a + b, qa + qb),
        (a - b, qa - qb),
        (b - a, qb - qa),
    ):
        _assert_factored_canonical(value)
        _assert_canonical(value, expected)


def test_factor_signs_follow_graded_lex_order():
    # factor_list makes the lex leading coefficient positive; for x - y**2
    # the graded-lex one is -1, so the stored factor must be y**2 - x
    value = 1 / (X - Y**2)
    assert [str(sympy_poly(F, factor.poly)) for factor, _ in value.facs] == ["y**2 - x"]
    assert str(value) == "-1/(y**2 - x)"
    assert value == -1 / (Y**2 - X)
    assert hash(value) == hash(-1 / (Y**2 - X))
    # with the coordinates swapped, x - y leads with -y, so it is stored as y - x
    swapped = coordinate_field(("y", "x"))
    direct = 1 / (swapped.coordinate("x") - swapped.coordinate("y"))
    assert str(direct) == "-1/(y - x)"


def test_values_outlive_the_memos():
    def build():
        return (X - Y) / (1 + X**2) ** 2 + 1 / (X * (2 + Y**2)) - (3 * Y / (1 + X**2)).partial(0)

    clear_memos()
    before = build()
    clear_memos()
    after = build()
    assert before is not after
    assert before == after
    assert hash(before) == hash(after)
    assert (before - after).is_zero
    assert before / after == 1


def _reciprocals():
    return [key for field in scalar_module._FIELDS.values() for key in field._memo if key[0] == "reciprocal"]


@given(scalars())
def test_a_reciprocal_is_computed_once_per_value(a):
    assume(a)
    clear_memos()
    fresh = 1 / a
    _assert_canonical(fresh, ORACLE.one / _to_oracle(a))
    clear_memos()
    for _ in range(2):  # misses, then hits
        got = (1 / a, F.one / a, a**-1)
        assert got == (fresh, fresh, fresh)
        # 1 / a is the memoized reciprocal itself, not a product by one
        assert got[0] is got[1]
    assert len(_reciprocals()) == 1
    assert a * (1 / a) == 1
    clear_memos()
    assert _reciprocals() == []


def test_a_cli_call_leaves_no_reciprocal_behind(monkeypatch, capsys):
    held = []

    def clearing():
        held.append(len(_reciprocals()))
        clear_memos()

    monkeypatch.setattr(cli, "clear_memos", clearing)
    assert main(["bracket", "builtin:sphere2", "--alpha=x/(1+y^2)", "--beta=1/(x+y)"]) == 0
    assert capsys.readouterr().out
    assert held[0] > 0 and _reciprocals() == []


# -- the sparse polynomial kernel against sympy's PolyElement -------------------

BIG = 2**64
# both sides of each step of the width ladder (32, 64, 128 bits), and beyond
STEPS = [2**31 - 1, 2**31, 2**63 - 1, 2**63, BIG - 1, BIG, BIG + 1, 2**70]
HUGE_EXPONENTS = st.one_of(st.integers(0, 3), st.sampled_from(STEPS))


@st.composite
def polynomial_pairs(draw):
    """A field of 1 to 4 coordinates and two sympy polynomials in its ring,
    in half the draws with exponents at the steps of the width ladder."""
    n = draw(st.integers(1, 4))
    field = coordinate_field(("a", "b", "c", "d")[:n])
    exponents = draw(st.sampled_from([st.integers(0, 3), HUGE_EXPONENTS]))
    monomials = st.tuples(*[exponents] * n)
    coefficients = st.integers(-6, 6).filter(bool)
    ring = sympy_field(field).ring
    p, q = (
        ring.from_dict(draw(st.dictionaries(monomials, coefficients, max_size=4)))
        for _ in range(2)
    )
    return field, p, q


@given(polynomial_pairs(), st.integers(1, 3))
def test_polynomial_kernel_agrees_with_sympy(pair, k):
    field, p, q = pair
    lay = field.layout
    a, b = native_poly(field, p), native_poly(field, q)
    assert sympy_poly(field, a) == p
    assert _poly_add(lay, a, b) == native_poly(field, p + q)
    assert _poly_add(lay, a, _poly_neg(b)) == native_poly(field, p - q)
    assert _poly_neg(a) == native_poly(field, -p)
    assert _poly_mul(lay, a, b) == native_poly(field, p * q)
    assert _poly_pow(lay, a, k) == native_poly(field, p**k)
    for index, gen in enumerate(sympy_field(field).ring.gens):
        assert _poly_diff(lay, a, index) == native_poly(field, p.diff(gen))
    if not (p and q):
        return
    assert _exact_quotient(lay, _poly_mul(lay, a, b), b) == a
    # a long division can run for as many steps as an exponent is large
    if max(max(m) for m in p.monoms() + q.monoms()) < STEPS[0]:
        quotient, remainder = p.div(q)
        if remainder:
            assert _exact_quotient(lay, a, b) is None
        else:
            assert quotient * q == p
            assert _exact_quotient(lay, a, b) == native_poly(field, quotient)


@pytest.mark.parametrize("step", [2**31, 2**63, 2**64])
def test_the_kernel_crosses_each_width_step_exactly(step):
    # x**(step - 1) * x goes up a step and its quotient by x comes back down;
    # the derivative of x**step and x**step + 1 - x**step come down too
    field = coordinate_field(("a", "b"))
    lay = field.layout
    a, b = sympy_field(field).ring.gens
    below, x, up, one = (native_poly(field, p) for p in (a ** (step - 1), a, a**step, a**0))
    assert _poly_mul(lay, below, x) == up
    assert _exact_quotient(lay, up, x) == below
    assert _poly_diff(lay, up, 0) == native_poly(field, step * a ** (step - 1))
    assert _poly_diff(lay, up, 1) == ()
    assert _poly_add(lay, _poly_add(lay, up, one), _poly_neg(up)) == one
    assert _poly_add(lay, up, _poly_neg(up)) == ()
    # a quotient by a polynomial of two terms, and a power
    binomial = native_poly(field, a + b)
    assert _exact_quotient(lay, _poly_mul(lay, up, binomial), binomial) == up
    assert _poly_pow(lay, below, 2) == native_poly(field, a ** (2 * step - 2))


@pytest.mark.parametrize("step", [2**31, 2**63, 2**64])
def test_equal_values_are_equal_tuples_across_the_steps(step):
    # whatever route builds a value, it is stored at the one width of its degree
    built = [
        X ** (step - 1) * X,
        X ** (step + 5) / X**5,
        (X ** (step + 1)).partial(0) / (step + 1),
        X**step * (1 + Y) - X**step * Y,
        (X**step / (1 + X)) * (1 + X),
        1 / (1 / X**step),
    ]
    expected = native_poly(F, sympy_field(F).ring.gens[0] ** step)
    for value in built:
        assert (value.num, value.cont, value.facs) == (expected, 1, ())
        assert value == built[0] and hash(value) == hash(built[0])
    back = [built[0] / X, X ** (step - 1), (X**step).partial(0) / step]
    assert back[0] == back[1] == back[2]
    assert back[0].num == back[1].num == back[2].num
    assert (X**step + 1 - X**step).num == F.one.num


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=4),
    st.integers(-BIG, BIG).filter(bool),
)
def test_single_terms_factor_as_sympy_does(monomial, constant):
    # sympy's factor_list runs as long as an exponent is large, so these
    # exponents stay small; the direct route only reads them
    field = coordinate_field(("a", "b", "c", "d")[: len(monomial)])
    ring = sympy_field(field).ring
    for poly in (ring.ground_new(constant), ring.from_dict({tuple(monomial): constant})):
        num = native_poly(field, poly)
        assert _factored(_factor(field, num)) == sympy_factor_list(field, num)


def _factored(result):
    """A factorization with each factor as its polynomial."""
    sign, content, facs = result
    return sign, content, [(f.poly, exp) for f, exp in facs]


@st.composite
def factorable_polynomials(draw):
    """A field of 1 to 3 coordinates and a product c * m * prod f**e in it:
    c a nonzero integer, m a monomial, and each f a polynomial of one to
    three terms of degree at most 2, to a power of 1 to 3. In half the
    draws the leading coefficient is negative."""
    n = draw(st.integers(1, 3))
    field = coordinate_field(("a", "b", "c")[:n])
    ring = sympy_field(field).ring
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    product = draw(st.integers(1, 12)) * ring.from_dict({draw(monomials): 1})
    terms = st.dictionaries(
        monomials.filter(lambda m: sum(m) <= 2),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=3,
    )
    for _ in range(draw(st.integers(1, 3))):
        product *= ring.from_dict(draw(terms)) ** draw(st.integers(1, 3))
    if draw(st.booleans()) != (product.LC < 0):
        product = -product
    num = native_poly(field, product)
    assume(len(num) > 1 and max(map(sum, product.monoms())) <= 14)
    return field, num


@given(factorable_polynomials())
def test_native_factoring_agrees_with_sympy(case):
    # whatever the native path returns is sympy's factorization, and where
    # it declines, sympy factors
    field, num = case
    expected = sympy_factor_list(field, num)
    native = factor(field.layout, num)
    if native is not None:
        sign, content, pairs = native
        assert (sign, content, sorted(pairs)) == expected
    assert _factored(_factor(field, num)) == expected


G = coordinate_field(("x", "y", "z"))


@pytest.mark.parametrize(
    "build, certified",
    [
        # irreducible over Q, but of degree more than 2 in its one coordinate
        (lambda x, y, z: x**4 + 1, False),
        # every image in x or in y splits into two linear factors
        (lambda x, y, z: (x + y + 1) * (x - y + 2), False),
        # irreducible over Q, but of degree 3 in its one coordinate
        (lambda x, y, z: x**3 + x + 1, False),
        # the content in x is 4 + y**2
        (lambda x, y, z: (2 + x**2) * (4 + y**2), True),
        (lambda x, y, z: (1 + 2 * x**2 + 3 * y**2) ** 2, True),
        # degree 1 in x: 2*y and y**2 + 3 have no common factor
        (lambda x, y, z: 2 * x * y + y**2 + 3, True),
        # -6 * z**2 * (x + y - z**3 - y**4 * z): degree 1 in x, whose coefficient is 1
        (lambda x, y, z: -6 * x * z**2 + 6 * y**4 * z**3 + 6 * z**5 - 6 * y * z**2, True),
    ],
)
def test_native_factoring_cases(build, certified):
    num = build(*G.gens).num
    expected = sympy_factor_list(G, num)
    native = factor(G.layout, num)
    assert (native is not None) == certified
    if certified:
        sign, content, pairs = native
        assert (sign, content, sorted(pairs)) == expected
    assert _factored(_factor(G, num)) == expected


def test_huge_exponents_stay_exact(capsys):
    argv = ["bracket", "builtin:flat2", "--alpha=x^18446744073709551616", "--beta=y"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "(18446744073709551616*x**18446744073709551615)\n"
    # a single-term denominator is factored without sympy, whatever its exponent
    argv = ["bracket", "builtin:flat2", "--alpha=1/x^18446744073709551616", "--beta=y"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "(-18446744073709551616/(x**18446744073709551617))\n"
    # a trial division of a single term by a factor of two terms fails at once
    argv = ["bracket", "builtin:flat2", "--alpha=1/(x-1)", "--beta=y*x^18446744073709551616"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "(-x**18446744073709551616/(x**2 - 2*x + 1))\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ["builtin:sphere2", "--alpha=x^18446744073709551616", "--beta=y", "--fastpath"],
            "(4611686018427387904*x**18446744073709551619 "
            "+ 9223372036854775808*x**18446744073709551617*y**2 "
            "+ 4611686018427387904*x**18446744073709551615*y**4 "
            "+ 9223372036854775808*x**18446744073709551617 "
            "+ 9223372036854775808*x**18446744073709551615*y**2 "
            "+ 4611686018427387904*x**18446744073709551615) "
            "+ (18446744073709551616*x**18446744073709551615)*dx^dy\n",
        ),
        (
            ["builtin:flat2", "--alpha=(x*y)^99999999999999999999999", "--beta=x"],
            "(-99999999999999999999999*x**99999999999999999999999"
            "*y**99999999999999999999998)\n",
        ),
    ],
)
def test_huge_exponents_print_the_same_bytes(argv, out, capsys):
    # exponents of 2**64 and about 2**76, both two width steps past the base
    assert main(["bracket", *argv]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "alpha, beta",
    [
        # sympy would factor x**(2**64) + 1
        ("1/(x^18446744073709551616+1)", "y"),
        # dividing x**(2**64) + x by x - 1 fails only after 2**64 quotient terms
        ("1/(x-1)", "y*(x^18446744073709551616+x)"),
        # (x + 1)**(2**64) has 2**64 + 1 terms
        ("(x+1)^18446744073709551616", "y"),
    ],
)
def test_huge_polynomials_stop_at_the_size_bound(alpha, beta):
    argv = ["bracket", "builtin:flat2", f"--alpha={alpha}", f"--beta={beta}"]
    done = fresh_python("-m", "gradedpoisson.cli", *argv, timeout=5)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "the size bound" in done.stderr


@pytest.mark.parametrize(
    "alpha", ["3^10000000", "(1/3)^18446744073709551616", "(2*x)^18446744073709551616"]
)
def test_huge_integer_powers_stop_at_the_digit_bound(alpha):
    # refused before they are computed: 3**(2**64) would not fit in memory
    argv = ["bracket", "builtin:flat2", f"--alpha={alpha}", "--beta=y"]
    done = fresh_python("-m", "gradedpoisson.cli", *argv, timeout=5)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "the digit bound" in done.stderr


def test_powers_below_the_size_bound_expand_exactly():
    # (x + y)**200 has 201 terms, the bound for two terms to the 200th; to the
    # SIZE_BOUND-th it would have one term more than the bound
    power = _poly_pow(F.layout, (X + Y).num, 200)
    binomials = sympy_field(F).ring.from_dict({(i, 200 - i): comb(200, i) for i in range(201)})
    assert power == native_poly(F, binomials)
    with pytest.raises(scalar_module.SizeError, match="the size bound"):
        _poly_pow(F.layout, (X + Y).num, scalar_module.SIZE_BOUND)


def test_integer_powers_stop_at_the_digit_bound():
    # 3**9000 has 4,294 digits, 3**9013 one more than the bound; the content
    # of a negative power is checked as the numerator of a positive one
    assert str((3 * X) ** 9000).startswith(f"{3**9000}*x**9000")
    refused = [(3 * X, 9013), (3 * X + 1, 9013), (F.one / 3, 9013), (F.constant(3), -9013)]
    for value, exponent in refused:
        with pytest.raises(scalar_module.SizeError, match="the digit bound"):
            value**exponent
    # a product may outgrow the bound, but it cannot be printed
    with pytest.raises(scalar_module.SizeError, match="cannot print an integer"):
        str(F.constant(3**9000) * 3**9000)


def test_a_coordinate_divides_out_in_one_step():
    # x**(2**64) cancels by its exponent, not one power of x at a time
    big = "18446744073709551616"
    argv = ["bracket", "builtin:flat2", f"--alpha=(x^{big}*x+x^{big}*y)/x^{big}", "--beta=y"]
    done = fresh_python("-m", "gradedpoisson.cli", *argv, timeout=5)
    assert (done.returncode, done.stdout, done.stderr) == (0, "(1)\n", "")


def test_a_check_past_the_size_bound_reports_an_error_record(monkeypatch, capsys):
    monkeypatch.setattr(scalar_module, "SIZE_BOUND", 10)
    argv = ["check", "builtin:sphere2", "--suite", "axioms", "--seed", "42", "--samples", "2"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert (
        "ERROR even-jacobi :: [[a,[[b,c]]]] = [[[[a,b]],c]] + (-1)^{|a||b|} [[b,[[a,c]]]] "
        "(even bracket) :: witness: SizeError: cannot divide: the quotient would have "
        "more than 10 terms, the size bound\n"
    ) in out


LOADS_SYMPY = """
import contextlib, io, json, sys
from gradedpoisson.cli import main
loaded = [["sympy" in sys.modules, "gradedpoisson.factoring" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        loaded.append([main(argv), "sympy" in sys.modules])
print(json.dumps(loaded))
"""


def test_sympy_is_imported_only_to_factor():
    # every denominator of the built-in charts is factored natively, sphere2's
    # (x**2 + y**2 + 1)**2 and tlift1q's q**2 + 1 among them; x**4 + 1 is
    # irreducible but of degree 4, past the native certificate, so only
    # sympy factors it
    suite = ["--suite", "all", "--seed", "42", "--samples", "2"]
    charts = ["flat2", "flat4", "tlift1", "halfplane", "sphere2", "tlift1q"]
    argvs = [["check", f"builtin:{chart}", *suite] for chart in charts] + [
        ["bracket", "builtin:flat4", "--alpha=x1^2/(3*x2)*dx3", "--beta=x3*x4+x1"],
        ["bracket", "builtin:flat2", "--alpha=1/(x^4+1)", "--beta=y"],
    ]
    done = fresh_python("-c", LOADS_SYMPY, json.dumps(argvs), timeout=120)
    assert done.returncode == 0, done.stderr
    # the import alone loads neither sympy nor the factoring module
    assert json.loads(done.stdout) == [[False, False]] + [[0, False]] * 7 + [[0, True]]
