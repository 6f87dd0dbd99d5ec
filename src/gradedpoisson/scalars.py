"""Exact rational-function coefficients for chart computations.

Every scalar that appears anywhere in the kernel (metric entries, symplectic
entries, Christoffel symbols, Hamiltonians, bracket values...) is an element
of Q(x_1, ..., x_n) for the chart coordinates x_i. It is stored with its
denominator factored:

    numerator / (content * f_1**e_1 * ... * f_k**e_k)

The numerator lies in Z[x_1, ..., x_n] and the content is a positive
integer. Each f_i is irreducible and primitive, with a positive leading
coefficient under graded-lex order, and each e_i is positive. The pairs
(f_i, e_i) are sorted by the terms of f_i. The form is canonical when no
f_i divides the numerator and the numerator's integer content is coprime to
the content. Z[x] has unique factorization, so these normalizations fix the
denominator's factorization; and as each f_i is irreducible, the numerator
and the denominator are then coprime. So equal values have equal
representations, and equality and hashing compare plain tuples, which is
what every identity check in the test harness relies on. Expanded, the form
is the one sympy's fraction field over ``ZZ`` reaches with a gcd: coprime
parts, the denominator's leading coefficient positive. ``_elem`` builds
that sympy element on first use, for printing and evaluation, so every
report prints the same bytes. sympy types do not leak into the rest of the
package.

No polynomial gcd is taken. A factor can cancel only if an operand already
holds it, so canonical form comes from trial division by those few
factors. This is Henrici's fraction arithmetic (Knuth, TAOCP vol. 2,
section 4.5.1) on the factored denominator:

* A product trial-divides each numerator by the factors that only the
  other operand holds, and takes an integer gcd of the contents.
* A sum raises both sides to the larger exponent of each factor. Where the
  exponents differ, the factor divides one term of the new numerator and
  not the other, so only factors with equal exponents are tried. The same
  holds prime by prime for the contents.
* A partial derivative by the quotient rule gives each factor that depends
  on the coordinate exactly one more power. That power cannot cancel: the
  factor is irreducible and divides neither the numerator nor its own
  derivative. Only the other factors are tried.

Only a division or a negative power puts a new polynomial into a
denominator. It is factored once, with ``PolyElement.factor_list``
(multivariate factoring over the integers, Knuth section 4.6.2).

The brackets differentiate, multiply and divide by the same few values
again and again. So each interned field (see ``coordinate_field``) keeps
one memo dict of results, keyed by value: a product by its two operands in
order, a partial derivative by ``("partial", index, operand)``, and the
factorization of a numerator by ``("factor", numerator)``. A hit returns
what a fresh computation would, and values are never mutated, so one
result can serve every caller. Factors are compared by their polynomial,
never by where they were first seen, so a value stays valid across
``clear_memos``. That empties every field's memo; ``cli.main`` and
``suites.run_suite`` call it when they end, so no call reuses the work of
an earlier one.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from sympy.polys.domains import ZZ
from sympy.polys.fields import FracField

_FIELDS: dict[tuple[str, ...], "ScalarField"] = {}


def coordinate_field(coords) -> "ScalarField":
    """Shared field instance for a coordinate tuple.

    Cached so all values on the same chart share generators and compare
    directly.
    """
    coords = tuple(coords)
    field = _FIELDS.get(coords)
    if field is None:
        field = ScalarField(coords)
        _FIELDS[coords] = field
    return field


def clear_memos() -> None:
    """Empty the product, derivative and factorization memo of every
    interned field."""
    for field in _FIELDS.values():
        field._memo.clear()


class ScalarField:
    """The rational function field Q(x_1, ..., x_n) = Frac(Z[x_1, ..., x_n])
    over named coordinates."""

    def __init__(self, coords):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ValueError(f"duplicate coordinate names in {coords!r}")
        if not coords:
            raise ValueError("a chart needs at least one coordinate")
        self.coords = coords
        self._field = FracField(coords, ZZ, order="grlex")
        self._ring = self._field.ring
        self._memo = {}
        self.zero = RationalFunction(self, self._ring.zero)
        self.one = RationalFunction(self, self._ring.one)
        self.gens = tuple(RationalFunction(self, g) for g in self._ring.gens)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        """0-based position of a coordinate name; KeyError if unknown."""
        try:
            return self.coords.index(name)
        except ValueError:
            raise KeyError(f"unknown coordinate {name!r}") from None

    def coordinate(self, name: str) -> "RationalFunction":
        return self.gens[self.index(name)]

    def constant(self, value) -> "RationalFunction":
        # a Fraction is reduced with a positive denominator: already canonical
        q = Fraction(value)
        return RationalFunction(self, self._ring.ground_new(q.numerator), q.denominator)

    def wrap(self, value) -> "RationalFunction":
        """Coerce ints, Fractions and own elements; reject everything else."""
        if isinstance(value, RationalFunction):
            if value.field is not self:
                raise ValueError(
                    f"scalar from coordinates {value.field.coords} used on "
                    f"coordinates {self.coords}"
                )
            return value
        if isinstance(value, (int, Fraction)):
            return self.constant(value)
        raise TypeError(f"cannot treat {type(value).__name__} as a scalar")

    def __repr__(self):
        return f"ScalarField{self.coords!r}"


# -- the factored form ------------------------------------------------------


class _Factor:
    """An irreducible, primitive polynomial with a positive grlex leading
    coefficient, compared and ordered by its terms."""

    __slots__ = ("poly", "order", "depends", "_hash")

    def __init__(self, poly):
        self.poly = poly
        self.order = tuple(poly.terms())
        # depends[i]: whether the factor involves coordinate i
        self.depends = tuple(map(any, zip(*poly.itermonoms())))
        self._hash = hash(self.order)

    def __eq__(self, other):
        return self is other or self.order == other.order

    def __hash__(self):
        return self._hash


def _by_order(pair):
    return pair[0].order


def _positive(poly):
    """poly and its sign, so that the first has a positive leading coefficient."""
    return (-poly, -1) if poly.LC < 0 else (poly, 1)


def _descending(monom):
    """Heap key that pops monomials from the largest down in graded-lex
    order, the order of every field here."""
    return (-sum(monom), tuple(-e for e in monom)), monom


def _exact_quotient(num, factor):
    """num / factor if factor divides num in Z[x], else None.

    Stops at the first leading term that the factor's leading term does not
    divide: the running remainder of an exact division is itself a multiple
    of the factor, so its leading term would be divisible. A heap yields
    the leading terms, so the division costs O(t log t) in the t terms it
    touches, where a fresh maximum per step would cost O(t**2).
    """
    ring = num.ring
    monomial_div, monomial_mul = ring.monomial_div, ring.monomial_mul
    fm, fc = factor.LT
    tail = [(mf, cf) for mf, cf in factor.iterterms() if mf != fm]
    rest = dict(num)
    heap = [_descending(m) for m in rest]
    heapify(heap)
    quotient = ring.zero
    while heap:
        m = heappop(heap)[1]
        c = rest.pop(m, 0)
        if not c:  # cancelled, or an entry pushed twice
            continue
        qm = monomial_div(m, fm)
        if qm is None or c % fc:
            return None
        qc = c // fc
        quotient[qm] = qc
        for mf, cf in tail:
            mm = monomial_mul(mf, qm)
            value = rest.get(mm)
            if value is None:
                heappush(heap, _descending(mm))
                value = 0
            value -= qc * cf
            if value:
                rest[mm] = value
            else:
                del rest[mm]
    return quotient


def _divide_out(num, factor, limit):
    """Divide factor out of num as often as it goes, at most limit times.

    Returns the quotient and how often it divided."""
    count = 0
    while count < limit:
        quotient = _exact_quotient(num, factor.poly)
        if quotient is None:
            break
        num, count = quotient, count + 1
    return num, count


def _common_content(poly, n):
    """gcd of poly's integer content and n, stopping as soon as it is 1."""
    for coeff in poly.itercoeffs():
        if n == 1:
            break
        n = gcd(n, coeff)
    return n


def _reduce(field, num, cont, shared, exps, tried):
    """The canonical value of num / (cont * prod f**exps[f]).

    ``tried`` lists the factors that may divide num; every other factor of
    ``exps`` is known not to. ``shared`` divides cont, and every integer
    common to num's content and cont divides it.
    """
    if not num:
        return field.zero
    for factor in tried:
        num, count = _divide_out(num, factor, exps[factor])
        exps[factor] -= count
    common = _common_content(num, shared)
    if common != 1:
        num, cont = num.quo_ground(common), cont // common
    facs = tuple(sorted(((f, e) for f, e in exps.items() if e), key=_by_order))
    return RationalFunction(field, num, cont, facs)


def _mul(a, b):
    if not a.num or not b.num:
        return a.field.zero
    aexps, bexps = dict(a.facs), dict(b.facs)
    anum, bnum = a.num, b.num
    # a's numerator is coprime to a's own factors, so only b's others can cancel
    for factor, exp in b.facs:
        if factor not in aexps:
            anum, count = _divide_out(anum, factor, exp)
            bexps[factor] -= count
    for factor, exp in a.facs:
        if factor not in bexps:
            bnum, count = _divide_out(bnum, factor, exp)
            aexps[factor] -= count
    # Fraction-style: gcd(content(a.num), a.cont) = 1 already
    acommon = _common_content(anum, b.cont)
    bcommon = _common_content(bnum, a.cont)
    if acommon != 1:
        anum = anum.quo_ground(acommon)
    if bcommon != 1:
        bnum = bnum.quo_ground(bcommon)
    for factor, exp in bexps.items():
        aexps[factor] = aexps.get(factor, 0) + exp
    facs = tuple(sorted(((f, e) for f, e in aexps.items() if e), key=_by_order))
    cont = (a.cont // bcommon) * (b.cont // acommon)
    return RationalFunction(a.field, anum * bnum, cont, facs)


def _add(a, b, sign):
    """a + sign * b, for sign 1 or -1."""
    if not b.num:
        return a
    if not a.num:
        return b if sign == 1 else RationalFunction(b.field, -b.num, b.cont, b.facs)
    aexps, bexps = dict(a.facs), dict(b.facs)
    afill = bfill = a.field._ring.one
    exps, tried = {}, []
    for factor in aexps.keys() | bexps.keys():
        aexp, bexp = aexps.get(factor, 0), bexps.get(factor, 0)
        if aexp > bexp:
            bfill = bfill * factor.poly ** (aexp - bexp)
        elif bexp > aexp:
            afill = afill * factor.poly ** (bexp - aexp)
        else:
            tried.append(factor)
        exps[factor] = max(aexp, bexp)
    shared = gcd(a.cont, b.cont)
    anum = a.num.mul_ground(b.cont // shared) * afill
    bnum = b.num.mul_ground(a.cont // shared) * bfill
    num = anum + bnum if sign == 1 else anum - bnum
    # a prime can divide both num and the new content only if it divides
    # both contents, and then only to its power in shared (Henrici)
    return _reduce(a.field, num, a.cont // shared * b.cont, shared, exps, tried)


def _partial(a, index):
    field = a.field
    gen = field._ring.gens[index]
    dnum = a.num.diff(gen)
    moving = [factor for factor, _ in a.facs if factor.depends[index]]
    exps = dict(a.facs)
    if moving:
        # d(N / (c prod f**e)) = (N' Q - N sum e f' Q/f) / (c prod f**e * Q),
        # Q the product of the factors that depend on the coordinate
        product = field._ring.one
        for factor in moving:
            product = product * factor.poly
        total = field._ring.zero
        for factor in moving:
            others = field._ring.one
            for other in moving:
                if other is not factor:
                    others = others * other.poly
            total = total + factor.poly.diff(gen).mul_ground(exps[factor]) * others
            exps[factor] += 1
        dnum = dnum * product - a.num * total
    tried = [factor for factor, _ in a.facs if not factor.depends[index]]
    return _reduce(field, dnum, a.cont, a.cont, exps, tried)


def _inverse(a):
    """1 / a for nonzero a, factoring a's numerator once per field memo."""
    field = a.field
    key = ("factor", a.num)
    factored = field._memo.get(key)
    if factored is None:
        coeff, pairs = a.num.factor_list()
        sign, facs = (-1, []) if coeff < 0 else (1, [])
        for poly, exp in pairs:
            poly, unit = _positive(poly)
            sign *= unit**exp
            facs.append((_Factor(poly), exp))
        factored = field._memo[key] = (sign, abs(coeff), tuple(sorted(facs, key=_by_order)))
    sign, content, facs = factored
    num = field._ring.ground_new(sign * a.cont)
    for factor, exp in a.facs:
        num = num * factor.poly**exp
    return RationalFunction(field, num, content, facs)


class RationalFunction:
    """One exact scalar. Immutable; arithmetic accepts int and Fraction.

    Built from the parts of the canonical form (see the module docstring);
    the constructor trusts them to be canonical.
    """

    __slots__ = ("field", "num", "cont", "facs", "_hash", "_view")

    def __init__(self, field: ScalarField, num, cont: int = 1, facs=()):
        self.field = field
        self.num = num
        self.cont = cont
        self.facs = facs
        self._hash = None
        self._view = None

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field is not self.field:
                raise ValueError("scalars from different coordinate fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(other, self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        memo = self.field._memo
        key = (self, other)
        result = memo.get(key)
        if result is None:
            result = memo[key] = _mul(self, other)
        return result

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return _mul(self, _inverse(other))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num:
            raise ZeroDivisionError("division by the zero rational function")
        return _mul(other, _inverse(self))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if not self.num:
            if exponent < 0:
                raise ZeroDivisionError("negative power of zero")
            if exponent == 0:
                raise ValueError("zero to the power zero is undefined")
        elif exponent == 0:
            return self.field.one
        elif exponent < 0:
            base, exponent = _inverse(self), -exponent
        # powers of coprime parts stay coprime: already canonical
        return RationalFunction(
            self.field,
            base.num**exponent,
            base.cont**exponent,
            tuple((factor, exp * exponent) for factor, exp in base.facs),
        )

    def __neg__(self):
        return RationalFunction(self.field, -self.num, self.cont, self.facs)

    # -- calculus --------------------------------------------------------

    def partial(self, coord) -> "RationalFunction":
        """Exact partial derivative. ``coord`` is a 0-based index or a name."""
        field = self.field
        if isinstance(coord, str):
            index = field.index(coord)
        else:
            index = coord
            if not 0 <= index < field.dimension:
                raise IndexError(f"coordinate index {coord} out of range")
        # three entries, so no product or factorization key (two) can equal it
        key = ("partial", index, self)
        result = field._memo.get(key)
        if result is None:
            result = field._memo[key] = _partial(self, index)
        return result

    # -- structure -------------------------------------------------------

    @property
    def _elem(self):
        """The value as a sympy FracElement with an expanded denominator."""
        view = self._view
        if view is None:
            denom = self.field._ring.ground_new(self.cont)
            for factor, exp in self.facs:
                denom = denom * factor.poly**exp
            view = self._view = self.field._field.raw_new(self.num, denom)
        return view

    @property
    def is_zero(self) -> bool:
        return not self.num

    def transplant(self, target: ScalarField) -> "RationalFunction":
        """Re-express this scalar in a larger field containing the same
        coordinate names (used when lifting base-chart data to a bundle
        chart)."""
        if target is self.field:
            return self
        positions = [target.coords.index(c) for c in self.field.coords]

        def convert(poly):
            out = {}
            for monom, coeff in poly.terms():
                lifted = [0] * target.dimension
                for pos, exp in zip(positions, monom):
                    lifted[pos] = exp
                out[tuple(lifted)] = coeff
            return target._ring.from_dict(out)

        # irreducibility and divisibility do not depend on the extra
        # coordinates; only a leading coefficient's sign can change
        num = convert(self.num)
        facs = []
        for factor, exp in self.facs:
            poly, unit = _positive(convert(factor.poly))
            num = num.mul_ground(unit**exp)
            facs.append((_Factor(poly), exp))
        return RationalFunction(target, num, self.cont, tuple(sorted(facs, key=_by_order)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.constant(other)
        elif not isinstance(other, RationalFunction):
            return NotImplemented
        return self is other or (
            self.field is other.field
            and (self.num, self.cont, self.facs) == (other.num, other.cont, other.facs)
        )

    def __hash__(self):
        value = self._hash
        if value is None:
            value = self._hash = hash((self.num, self.cont, self.facs))
        return value

    def __bool__(self):
        return bool(self.num)

    def __str__(self):
        return str(self._elem)

    def __repr__(self):
        return f"RationalFunction({self._elem})"
