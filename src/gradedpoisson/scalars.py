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
what every identity check in the test harness relies on.

A polynomial is a tuple of ``(monomial, coefficient)`` pairs with nonzero
Python-int coefficients, in descending graded-lex order; the zero
polynomial is ``()``. A monomial is one int of n + 1 fields of equal
width: the total degree in the top field, then the exponents of x_1, ...,
x_n below it in order (Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007). So int
order *is* graded-lex order, a product of two monomials is one int
addition and a quotient one subtraction. The top bit of each field is a
guard, clear in every stored monomial: a subtraction that leaves an
exponent negative borrows into a guard bit, so one mask test tells whether
a monomial divides another. The leading term is ``poly[0]``. Multiplying
every monomial by one monomial keeps the order (a monomial order is
compatible with products), and so does dividing every monomial by x_i, so
a product by a single term and a partial derivative need no sort.

The width is a function of the value: a polynomial is packed at the
narrowest width of the ladder 32, 64, 128, ... bits whose fields hold its
total degree below the guard bit. So equal values are equal tuples, and
``==``, ``hash`` and the memo keys stay tuple operations. A chart's data
stays at the base width of 32 bits (``_Layout.limit`` is the first
monomial past it), where a product only compares the sum of the two
leading monomials with that limit. An operand or a result past it goes
through ``_wide``: repacked to a common width, computed there, and
repacked at its own narrowest width. Exponents and coefficients are
unbounded ints, so every value is exact.

A new denominator is factored by the package itself wherever each factor
can be proved irreducible (see ``factoring``): its sign, content and
coordinate powers, a perfect power, the content in one coordinate of a
polynomial in two, and a factor of degree 1 in some coordinate, or of
degree 2 with a univariate image of no square discriminant. A constant or
a single term is factored directly. Only where a factor cannot be
certified does ``factoring.factor_list`` hand the numerator to sympy's
``factor_list`` (multivariate factoring over the integers, Knuth section
4.6.2). That is the only place sympy is called, and it is imported there
on first use; ``factoring`` itself is imported when the first numerator
of two or more terms is factored. x**4 + 1 and x**3 + x + 1 go to sympy,
as would any factor of degree more than 2 in every coordinate, but no
denominator of the built-in charts does. sympy types do not leak into the
rest of the package.

A value prints itself, in the form sympy's ``str`` gives the fraction
field element over ``ZZ`` with the expanded denominator: the canonical
form is the one that field reaches with a gcd (coprime parts, the
denominator's leading coefficient positive), and ``_poly_str`` follows
sympy's rules for signs, unit coefficients and parentheses. So every
report prints the same bytes as when sympy printed it.

``SIZE_BOUND`` caps the three steps whose running time grows with an
exponent rather than with the number of terms: a numerator of two or more
terms is factored only up to that total degree, a power of two or more
terms is expanded only if it cannot have more terms, and a trial division
stops with ``SizeError`` once its quotient would have more terms. Without
it, 1/(x**(2**64) + 1) would hand sympy a polynomial it cannot factor in
any time, (x + 1)**(2**64) would expand 2**64 + 1 terms, and dividing
x**(2**64) + x by x - 1 would run 2**64 steps before it found a remainder.

``DIGIT_BOUND`` caps the one step whose integers grow with an exponent: a
power stops with ``SizeError``, before it is computed, when its leading
coefficient or its content would have more digits. Python prints no
integer longer than that by default, so such a power could not be printed
anyway, and 3**10_000_000 would take seconds to compute. A value whose
integers outgrow it by products stops with ``SizeError`` when it is
printed.

No polynomial gcd is taken. A factor can cancel only if an operand already
holds it, so canonical form comes from trial division by those few
factors. This is Henrici's fraction arithmetic (Knuth, TAOCP vol. 2,
section 4.5.1) on the factored denominator. A product or a sum makes one
ordered walk over the two sorted factor lists, a merge that meets each
factor once and emits the result's list in order, so it needs no sort:

* A product adds the exponents of a factor both operands hold. It
  trial-divides each numerator by the factors that only the other operand
  holds, and takes an integer gcd of the contents. When one operand has
  no factor, only its numerator is tried, and the other's tuple is reused
  unless a factor cancels.
* A sum raises both sides to the larger exponent of each factor. Where the
  exponents differ, the factor divides one term of the new numerator and
  not the other, so only factors with equal exponents are tried. The same
  holds prime by prime for the contents. When the two lists are equal,
  every factor is tried, and the tuple is reused unless a factor cancels.
* A partial derivative by the quotient rule gives each factor that depends
  on the coordinate exactly one more power. That power cannot cancel: the
  factor is irreducible and divides neither the numerator nor its own
  derivative. Only the other factors are tried.

Only a division or a negative power puts a new polynomial into a
denominator. It is factored once.

The brackets differentiate, multiply and divide by the same few values
again and again. So each interned field (see ``coordinate_field``) keeps
one memo dict of results, keyed by value: a product by its two operands in
order, a partial derivative by ``("partial", index, operand)``, a
reciprocal by ``("reciprocal", operand)``, and the factorization of a
numerator by ``("factor", numerator)``. So a value is inverted once per
call, and a quotient 1 / x is that reciprocal itself, with no product by
one. A hit returns what a fresh computation would, and values are never
mutated, so one result can serve every caller. Factors are compared by
their polynomial, never by where they were first seen, so a value stays
valid across ``clear_memos``. That empties every field's memo;
``cli.main`` and ``suites.run_suite`` call it when they end, so no call
reuses the work of an earlier one.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from math import comb, gcd, log10
from operator import attrgetter

# see the module docstring; far above what charts need: full checks of the
# built-in charts and of the Fubini-Study metric on CP^2 make quotients of
# at most 637 terms and factor nothing above total degree 4
SIZE_BOUND = 10_000
# see the module docstring; Python's default limit on the digits of an int
# it converts to or from text
DIGIT_BOUND = 4_300

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
    """Empty the product, derivative, reciprocal and factorization memo of
    every interned field."""
    for field in _FIELDS.values():
        field._memo.clear()


class SizeError(ValueError):
    """A polynomial beyond ``SIZE_BOUND``, refused rather than left to run."""


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
        self._memo = {}
        # the base width, which every polynomial of a chart's own data keeps
        self.layout = _layout(len(coords), BASE_WIDTH)
        self._gen_polys = tuple(((unit, 1),) for unit in self.layout.units)
        self.zero = RationalFunction(self, ())
        self.one = RationalFunction(self, ((0, 1),))  # the monomial 1 is 0
        self.gens = tuple(RationalFunction(self, g) for g in self._gen_polys)

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
        num = ((0, q.numerator),) if q.numerator else ()
        return RationalFunction(self, num, q.denominator)

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


# -- sparse polynomials over Z (see the module docstring) ---------------------

# the narrowest field width, in bits; the ladder doubles it
BASE_WIDTH = 32


class _Layout:
    """How a monomial in n coordinates packs into one int at one field width:
    the total degree in the top field, then x_1, ..., x_n below it."""

    __slots__ = ("n", "width", "top", "mask", "limit", "guard", "shifts", "units")

    def __init__(self, n, width):
        self.n, self.width = n, width
        self.top = n * width  # the shift of the total degree's field
        self.mask = (1 << width) - 1
        # the smallest monomial whose total degree reaches the guard bit
        self.limit = 1 << (self.top + width - 1)
        self.guard = sum(1 << (i * width + width - 1) for i in range(n + 1))
        self.shifts = tuple((n - 1 - i) * width for i in range(n))  # x_i's field
        self.units = tuple((1 << self.top) | (1 << shift) for shift in self.shifts)

    def degree(self, monom):
        return monom >> self.top

    def exponents(self, monom):
        mask = self.mask
        return [(monom >> shift) & mask for shift in self.shifts]


@cache
def _layout(n, width):
    return _Layout(n, width)


def _fitting(base, degree):
    """The narrowest layout on base's ladder whose fields hold ``degree``
    below the guard bit."""
    lay = base
    while degree >> (lay.width - 1):
        lay = _layout(lay.n, 2 * lay.width)
    return lay


def _layout_of(base, poly):
    """The layout poly is packed in: the narrowest that holds its leading
    monomial, whose total degree is the largest."""
    lay = base
    while poly and poly[0][0] >= lay.limit:
        lay = _layout(lay.n, 2 * lay.width)
    return lay


def _degree(base, poly):
    """The total degree of a nonzero poly."""
    return _layout_of(base, poly).degree(poly[0][0])


def _repack(poly, src, dst):
    """poly, packed in layout src, packed in layout dst instead. The order
    of the monomials does not depend on the width."""
    if src is dst:
        return poly
    old, new, mask = src.width, dst.width, src.mask
    out = []
    for monom, coeff in poly:
        packed = shift = 0
        while monom:
            packed |= (monom & mask) << shift
            monom >>= old
            shift += new
        out.append((packed, coeff))
    return tuple(out)


def _narrow(base, poly, lay):
    """A nonzero poly packed in lay, repacked at its own narrowest width."""
    return _repack(poly, lay, _fitting(base, lay.degree(poly[0][0])))


def _wide(base, op, polys, degree, *args):
    """op(layout, *polys, *args) for operands or a result past the base
    width: computed at the narrowest width that holds ``degree`` and every
    operand, where op takes its fast path, and the result repacked at its
    own narrowest width."""
    layouts = [_layout_of(base, poly) for poly in polys]
    common = max(layouts + [_fitting(base, degree)], key=attrgetter("width"))
    result = op(common, *[_repack(p, lay, common) for p, lay in zip(polys, layouts)], *args)
    return _narrow(base, result, common) if result else result


# Each operation below takes the layout of its field. Operands past its
# limit go through ``_wide``, which calls the operation again at a layout
# that holds them.


def _poly_add(lay, p, q):
    if not p:
        return q
    if not q:
        return p
    if p[0][0] >= lay.limit or q[0][0] >= lay.limit:
        return _wide(lay, _poly_add, (p, q), 0)
    terms = dict(p)
    for monom, coeff in q:
        terms[monom] = terms.get(monom, 0) + coeff
    return tuple(sorted([term for term in terms.items() if term[1]], reverse=True))


def _poly_neg(p):
    return tuple([(monom, -coeff) for monom, coeff in p])


def _poly_scale(p, k):
    """k * p for a nonzero integer k."""
    if k == 1:
        return p
    return tuple([(monom, coeff * k) for monom, coeff in p])


def _poly_quo(p, k):
    """p / k for an integer k that divides every coefficient."""
    return tuple([(monom, coeff // k) for monom, coeff in p])


def _poly_mul(lay, p, q):
    if not (p and q):
        return ()
    # no field can carry: the sum of the leading monomials has the largest
    # total degree of the product
    if p[0][0] + q[0][0] >= lay.limit:
        return _wide(lay, _poly_mul, (p, q), _degree(lay, p) + _degree(lay, q))
    if len(p) == 1:
        p, q = q, p
    if len(q) == 1:
        # a product by one term keeps the order
        ((qm, qc),) = q
        return tuple([(monom + qm, coeff * qc) for monom, coeff in p])
    terms = {}
    get = terms.get
    for pm, pc in p:
        for qm, qc in q:
            monom = pm + qm
            terms[monom] = get(monom, 0) + pc * qc
    return tuple(sorted([term for term in terms.items() if term[1]], reverse=True))


def _check_int_pow(base, k):
    """Refuse base**k for a nonzero int base, before computing it, when it
    would have more than ``DIGIT_BOUND`` digits."""
    if k * log10(abs(base)) >= DIGIT_BOUND:
        raise SizeError(
            f"cannot raise an integer to the power {k}: the result would have "
            f"more than {DIGIT_BOUND} digits, the digit bound"
        )


def _poly_pow(lay, p, k):
    """p**k for k >= 1.

    The leading coefficient of p**k is that of p to the k, so a power whose
    leading coefficient would pass ``DIGIT_BOUND`` stops with ``SizeError``.
    A power of two or more terms also stops when it could have more than
    ``SIZE_BOUND`` terms: a product of k of the t terms is one of at most
    comb(t + k - 1, t - 1) monomials, and in n coordinates at most
    comb(k * degree + n, n) monomials have a degree up to k * degree.
    """
    if p:
        _check_int_pow(p[0][1], k)
    if len(p) <= 1:
        if p and p[0][0] * k >= lay.limit:
            return _wide(lay, _poly_pow, (p,), _degree(lay, p) * k, k)
        return tuple([(monom * k, coeff**k) for monom, coeff in p])
    terms, degree, n = len(p), _degree(lay, p), lay.n
    if min(comb(terms + k - 1, terms - 1), comb(k * degree + n, n)) > SIZE_BOUND:
        raise SizeError(
            f"cannot raise a polynomial of {terms} terms to the power {k}: the result "
            f"could have more than {SIZE_BOUND} terms, the size bound"
        )
    result = p
    for bit in bin(k)[3:]:
        result = _poly_mul(lay, result, result)
        if bit == "1":
            result = _poly_mul(lay, result, p)
    return result


def _poly_diff(lay, p, index):
    """The partial derivative by coordinate ``index``. Each monomial loses
    one x_index, which keeps the order and maps distinct monomials apart."""
    if p and p[0][0] >= lay.limit:
        return _wide(lay, _poly_diff, (p,), 0, index)
    shift, mask, unit = lay.shifts[index], lay.mask, lay.units[index]
    out = []
    for monom, coeff in p:
        exp = (monom >> shift) & mask
        if exp:
            out.append((monom - unit, coeff * exp))
    return tuple(out)


def _exact_quotient(lay, num, factor):
    """num / factor if factor divides num in Z[x], else None.

    Stops at the first leading term that the factor's leading term does not
    divide: the running remainder of an exact division is itself a multiple
    of the factor, so its leading term would be divisible. A heap yields
    the leading terms, so the division costs O(t log t) in the t terms it
    touches, where a fresh maximum per step would cost O(t**2). A monomial
    divides another when their difference sets no guard bit.

    Two tests come first, so that a division that must fail does not run
    for as many steps as an exponent is large. A single term has only
    single-term divisors. The smallest term of a product is the product of
    the smallest terms, so the factor's smallest term must divide num's.
    num is nonzero.
    """
    if num[0][0] >= lay.limit or factor[0][0] >= lay.limit:
        return _wide(lay, _exact_quotient, (num, factor), 0)
    guard = lay.guard
    (fm, fc), tail = factor[0], factor[1:]
    (lm, lc), (tm, tc) = num[-1], factor[-1]
    if (len(num) == 1 and tail) or lc % tc or (lm - tm) & guard:
        return None
    rest = dict(num)
    heap = [-monom for monom in rest]
    heapify(heap)
    quotient = []
    while heap:
        monom = -heappop(heap)
        c = rest.pop(monom, 0)
        if not c:  # cancelled, or an entry pushed twice
            continue
        qm = monom - fm
        if qm & guard or c % fc:
            return None
        if len(quotient) == SIZE_BOUND:
            raise SizeError(
                f"cannot divide: the quotient would have more than {SIZE_BOUND} terms, "
                "the size bound"
            )
        qc = c // fc
        quotient.append((qm, qc))
        for mf, cf in tail:
            mm = mf + qm
            value = rest.get(mm)
            if value is None:
                heappush(heap, -mm)
                value = 0
            value -= qc * cf
            if value:
                rest[mm] = value
            else:
                del rest[mm]
    return tuple(quotient)


def _positive(poly):
    """poly and its sign, so that the first has a positive leading coefficient."""
    return (_poly_neg(poly), -1) if poly[0][1] < 0 else (poly, 1)


# -- the factored form ------------------------------------------------------


class _Factor:
    """An irreducible, primitive polynomial with a positive grlex leading
    coefficient, compared and ordered by its terms."""

    __slots__ = ("poly", "depends", "_hash")

    def __init__(self, base, poly):
        self.poly = poly
        lay, used = _layout_of(base, poly), 0
        for monom, _ in poly:
            used |= monom
        # depends[i]: whether the factor involves coordinate i
        self.depends = tuple(bool((used >> shift) & lay.mask) for shift in lay.shifts)
        self._hash = hash(poly)

    def __eq__(self, other):
        return self is other or self.poly == other.poly

    def __hash__(self):
        return self._hash


def _by_order(pair):
    return pair[0].poly


def _divide_out(base, num, factor, limit):
    """Divide factor out of num as often as it goes, at most limit times.

    Returns the quotient and how often it divided. A factor of one term is
    a coordinate x_i, which divides num as often as it divides every term:
    that count is read off the exponents, not found one division at a
    time, which would take as many steps as an exponent is large. A single
    term has only single-term divisors, so once num is one term no longer
    factor is trial-divided into it.
    """
    if len(factor.poly) == 1:
        index = factor.depends.index(True)
        lay = _layout_of(base, num)
        shift, mask = lay.shifts[index], lay.mask
        count = min(limit, min((monom >> shift) & mask for monom, _ in num))
        if count:
            # dividing every term by one monomial keeps the order
            drop = count * lay.units[index]
            num = _narrow(base, tuple([(monom - drop, coeff) for monom, coeff in num]), lay)
        return num, count
    count = 0
    while count < limit and len(num) > 1:
        quotient = _exact_quotient(base, num, factor.poly)
        if quotient is None:
            break
        num, count = quotient, count + 1
    return num, count


def _common_content(poly, n):
    """gcd of poly's integer content and n, stopping as soon as it is 1."""
    for _, coeff in poly:
        if n == 1:
            break
        n = gcd(n, coeff)
    return n


def _reduce(field, num, cont, shared, facs, tried):
    """The canonical value of num / (cont * prod f**e) over the ordered
    (factor, exponent) pairs ``facs``.

    ``tried`` lists the positions in facs of the factors that may divide
    num; every other factor is known not to. facs is kept as it is unless
    a factor cancels. ``shared`` divides cont, and every integer common to
    num's content and cont divides it.
    """
    if not num:
        return field.zero
    cut = None
    for pos in tried:
        factor, exp = facs[pos]
        num, count = _divide_out(field.layout, num, factor, exp)
        if count:
            if cut is None:
                cut = list(facs)
            cut[pos] = (factor, exp - count)
    common = _common_content(num, shared)
    if common != 1:
        num, cont = _poly_quo(num, common), cont // common
    facs = tuple(facs) if cut is None else tuple([pair for pair in cut if pair[1]])
    return RationalFunction(field, num, cont, facs)


def _mul(a, b):
    if not a.num or not b.num:
        return a.field.zero
    lay = a.field.layout
    anum, bnum, afacs, bfacs = a.num, b.num, a.facs, b.facs
    # one ordered walk over both factor lists: a factor both operands hold
    # adds its exponents, and one that only one holds may divide the other's
    # numerator (an operand's numerator is coprime to its own factors)
    facs, cancelled, i, j, na, nb = [], 0, 0, 0, len(afacs), len(bfacs)
    while i < na or j < nb:
        if i < na and j < nb:
            f, e = afacs[i]
            g, k = bfacs[j]
            if f is g or f.poly == g.poly:
                facs.append((f, e + k))
                i, j = i + 1, j + 1
                continue
            a_first = f.poly < g.poly
        else:
            a_first = i < na
        if a_first:
            pair = factor, exp = afacs[i]
            bnum, count = _divide_out(lay, bnum, factor, exp)
            i += 1
        else:
            pair = factor, exp = bfacs[j]
            anum, count = _divide_out(lay, anum, factor, exp)
            j += 1
        if count:
            cancelled += count
            if count < exp:
                facs.append((factor, exp - count))
        else:
            facs.append(pair)
    # with no factor on one side and none cancelled, the walk copied the other
    facs = tuple(facs) if cancelled or (afacs and bfacs) else afacs or bfacs
    # Fraction-style: gcd(content(a.num), a.cont) = 1 already
    acommon = _common_content(anum, b.cont)
    bcommon = _common_content(bnum, a.cont)
    if acommon != 1:
        anum = _poly_quo(anum, acommon)
    if bcommon != 1:
        bnum = _poly_quo(bnum, bcommon)
    cont = (a.cont // bcommon) * (b.cont // acommon)
    return RationalFunction(a.field, _poly_mul(lay, anum, bnum), cont, facs)


def _add(a, b, sign):
    """a + sign * b, for sign 1 or -1."""
    if not b.num:
        return a
    if not a.num:
        return b if sign == 1 else RationalFunction(b.field, _poly_neg(b.num), b.cont, b.facs)
    lay = a.field.layout
    shared = gcd(a.cont, b.cont)
    anum = _poly_scale(a.num, b.cont // shared)
    bnum = _poly_scale(b.num, sign * (a.cont // shared))
    afacs, bfacs = a.facs, b.facs
    # one ordered walk over both factor lists raises each side to the larger
    # exponent of every factor; only factors with equal exponents are tried
    facs, tried, i, j, na, nb = [], [], 0, 0, len(afacs), len(bfacs)
    while i < na or j < nb:
        if i < na and j < nb:
            f, e = afacs[i]
            g, k = bfacs[j]
            if f is g or f.poly == g.poly:
                if e > k:
                    bnum = _poly_mul(lay, bnum, _poly_pow(lay, f.poly, e - k))
                elif k > e:
                    anum = _poly_mul(lay, anum, _poly_pow(lay, f.poly, k - e))
                else:
                    tried.append(len(facs))
                facs.append(afacs[i] if e >= k else bfacs[j])
                i, j = i + 1, j + 1
                continue
            a_first = f.poly < g.poly
        else:
            a_first = i < na
        if a_first:
            pair = afacs[i]
            bnum = _poly_mul(lay, bnum, _poly_pow(lay, pair[0].poly, pair[1]))
            i += 1
        else:
            pair = bfacs[j]
            anum = _poly_mul(lay, anum, _poly_pow(lay, pair[0].poly, pair[1]))
            j += 1
        facs.append(pair)
    if len(tried) == len(facs):
        facs = afacs  # equal lists: every factor tried, and a's tuple reused
    # a prime can divide both num and the new content only if it divides
    # both contents, and then only to its power in shared (Henrici)
    num = _poly_add(lay, anum, bnum)
    return _reduce(a.field, num, a.cont // shared * b.cont, shared, facs, tried)


def _partial(a, index):
    lay = a.field.layout
    dnum = _poly_diff(lay, a.num, index)
    facs = a.facs
    moving = [pair for pair in facs if pair[0].depends[index]]
    if moving:
        # d(N / (c prod f**e)) = (N' Q - N sum e f' Q/f) / (c prod f**e * Q),
        # Q the product of the factors that depend on the coordinate
        product, total = moving[0][0].poly, ()
        for other, _ in moving[1:]:
            product = _poly_mul(lay, product, other.poly)
        for factor, exp in moving:
            term = _poly_scale(_poly_diff(lay, factor.poly, index), exp)
            for other, _ in moving:
                if other is not factor:
                    term = _poly_mul(lay, term, other.poly)
            total = _poly_add(lay, total, term)
        dnum = _poly_add(
            lay, _poly_mul(lay, dnum, product), _poly_neg(_poly_mul(lay, a.num, total))
        )
        facs = [(f, e + 1) if f.depends[index] else (f, e) for f, e in facs]
    tried = [pos for pos, (factor, _) in enumerate(a.facs) if not factor.depends[index]]
    return _reduce(a.field, dnum, a.cont, a.cont, facs, tried)


def _factor(field, num):
    """(sign, content, factors) with num = sign * content * prod f**e, the
    factors normalized and sorted as in the canonical form. A constant or a
    single term c * x**a * ... is factored directly: its sign, |c|, and each
    coordinate to its exponent. A longer numerator is factored by
    ``factoring.factor`` where that certifies every factor, else by sympy's
    ``factor_list`` through ``factoring.factor_list``."""
    lay = field.layout
    if len(num) == 1:
        ((monom, coeff),) = num
        sign, content = (-1 if coeff < 0 else 1), abs(coeff)
        exps = _layout_of(lay, num).exponents(monom)
        facs = [(gen, exp) for gen, exp in zip(field._gen_polys, exps) if exp]
    else:
        degree = _degree(lay, num)
        if degree > SIZE_BOUND:
            raise SizeError(
                f"cannot factor a polynomial of total degree {degree}: "
                f"the size bound is {SIZE_BOUND}"
            )
        # imported on first use, so that a run that factors no polynomial
        # of two or more terms never loads it; the bound keeps num at the
        # base width
        from .factoring import factor, factor_list

        sign, content, facs = factor(lay, num) or factor_list(field, num)
    return sign, content, tuple(sorted(((_Factor(lay, f), e) for f, e in facs), key=_by_order))


def _inverse(a):
    """1 / a for nonzero a, computed once per value and factoring a's
    numerator once per field memo."""
    field = a.field
    memo = field._memo
    # a product key holds two values, never a string, so none equals this
    key = ("reciprocal", a)
    result = memo.get(key)
    if result is None:
        factor_key = ("factor", a.num)
        factored = memo.get(factor_key)
        if factored is None:
            factored = memo[factor_key] = _factor(field, a.num)
        sign, content, facs = factored
        result = memo[key] = RationalFunction(field, _expand(field, sign * a.cont, a.facs), content, facs)
    return result


def _divide(a, b):
    """a / b for nonzero b: b's reciprocal itself when a is one."""
    inverse = _inverse(b)
    return inverse if a == a.field.one else _mul(a, inverse)


def _expand(field, cont, facs):
    """The polynomial cont * prod f**e over the (factor, exponent) pairs."""
    lay, poly = field.layout, ((0, cont),)
    for factor, exp in facs:
        poly = _poly_mul(lay, poly, _poly_pow(lay, factor.poly, exp))
    return poly


def _poly_str(field, poly):
    """A nonzero polynomial as sympy's ``str`` prints it: terms in the stored
    order joined by " + " or " - ", a leading "-" for a negative first term,
    no coefficient 1 or -1 before a monomial, and x**e for e > 1."""
    coords, lay = field.coords, _layout_of(field.layout, poly)
    pieces = []
    for monom, coeff in poly:
        pieces.append(" - " if coeff < 0 else " + ")
        factors = [
            name if exp == 1 else f"{name}**{exp}"
            for name, exp in zip(coords, lay.exponents(monom))
            if exp
        ]
        if abs(coeff) != 1 or not factors:
            try:
                factors.insert(0, str(abs(coeff)))
            except ValueError:  # past the interpreter's limit on printed digits
                raise SizeError(
                    f"cannot print an integer of more than {sys.get_int_max_str_digits()} digits"
                ) from None
        pieces.append("*".join(factors))
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


class RationalFunction:
    """One exact scalar. Immutable; arithmetic accepts int and Fraction.

    Built from the parts of the canonical form (see the module docstring);
    the constructor trusts them to be canonical.
    """

    __slots__ = ("field", "num", "cont", "facs", "_hash")

    def __init__(self, field: ScalarField, num, cont: int = 1, facs=()):
        self.field = field
        self.num = num
        self.cont = cont
        self.facs = facs
        self._hash = None

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
        if not self.num:
            return self
        if not other.num:
            return other
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
        return _divide(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num:
            raise ZeroDivisionError("division by the zero rational function")
        return _divide(other, self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if not self.num:
            if exponent < 0:
                raise ZeroDivisionError("negative power of zero")
            if exponent == 0:
                raise ValueError("zero to the power zero is undefined")
            return self
        if exponent == 0:
            return self.field.one
        elif exponent < 0:
            base, exponent = _inverse(self), -exponent
        # powers of coprime parts stay coprime: already canonical
        _check_int_pow(base.cont, exponent)
        return RationalFunction(
            self.field,
            _poly_pow(self.field.layout, base.num, exponent),
            base.cont**exponent,
            tuple((factor, exp * exponent) for factor, exp in base.facs),
        )

    def __neg__(self):
        return RationalFunction(self.field, _poly_neg(self.num), self.cont, self.facs)

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
        # three entries, so no product, reciprocal or factorization key (two)
        # can equal it
        key = ("partial", index, self)
        result = field._memo.get(key)
        if result is None:
            result = field._memo[key] = _partial(self, index)
        return result

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def is_negation_of(self, other: "RationalFunction") -> bool:
        """self == -other, compared term by term without building -other:
        negation keeps the canonical denominator and negates the numerator."""
        return (
            self.field is other.field
            and self.cont == other.cont
            and self.facs == other.facs
            and len(self.num) == len(other.num)
            and all(m == n and c == -d for (m, c), (n, d) in zip(self.num, other.num))
        )

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
        """The value as numerator/denominator, the denominator expanded; a
        numerator of two or more terms and a denominator other than one
        coordinate or a constant in parentheses, as sympy prints it."""
        if not self.num:
            return "0"
        field = self.field
        numer = _poly_str(field, self.num)
        if self.cont == 1 and not self.facs:
            return numer
        if len(self.num) > 1:
            numer = f"({numer})"
        denom = _expand(field, self.cont, self.facs)
        text = _poly_str(field, denom)
        monom, coeff = denom[0]
        if len(denom) > 1 or not (monom == 0 or (coeff == 1 and monom in field.layout.units)):
            text = f"({text})"
        return f"{numer}/{text}"

    def __repr__(self):
        return f"RationalFunction({self})"
