"""Factoring a polynomial over Z where each factor can be proved irreducible.

``factor`` takes a nonzero polynomial of the scalar layer (see
``scalars``) and returns its sign, integer content and factors, or None.
The sign, the integer content and each coordinate's power come off first.
Three steps split what is left, p:

* A perfect power p = q**k is found term by term from its leading term,
  and q is factored in turn.
* In two coordinates, the content of p in one of them (the gcd of its
  coefficients, polynomials in the other) is divided out when it is not
  1, and both parts are factored in turn.
* Otherwise p is irreducible when, in some x_v in which its content is 1,
  it has degree 1, or degree 2 and an image at a small integer point of
  the other coordinates that keeps that degree and whose discriminant is
  not a square.

The product of the factors is p exactly. Where a piece cannot be
certified, ``factor`` returns None and the caller calls ``factor_list``,
sympy's factoring, at the cost of importing sympy: x**4 + 1 and
x**3 + x + 1 are irreducible but have degree more than 2 in every
coordinate, and every image of (x + y + 1)*(x - y + 2) splits. Every
denominator of the built-in charts and of the benchmark's manifests is
certified by degree 1 or an image of degree 2.

Polynomials are packed as in ``scalars``, at the base width of their
field's layout: ``scalars.SIZE_BOUND`` keeps the total degree of anything
factored far below it. Exponents are unpacked only where a dense
univariate image is built.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt

from .scalars import _exact_quotient, _poly_add, _poly_neg, _poly_pow, _positive

# the values the certificate tries for the other coordinates
_VALUES = (1, 2, -1)


def factor(lay, num):
    """(sign, content, [(f, e), ...]) with num = sign * content * prod f**e,
    each f irreducible and primitive with a positive leading coefficient;
    or None where a piece cannot be certified. num is nonzero and packed in
    the layout lay.
    """
    sign = -1 if num[0][1] < 0 else 1
    content = 0
    for _, coeff in num:
        content = gcd(content, coeff)
    low = list(map(min, zip(*(lay.exponents(monom) for monom, _ in num))))
    # dividing every term by one monomial keeps the order
    shift = _pack(lay, low)
    rest = tuple([(monom - shift, coeff * sign // content) for monom, coeff in num])
    pieces = _pieces(lay, rest)
    if pieces is None:
        return None
    exps = {_from_dense(lay, [0, 1], v): exp for v, exp in enumerate(low) if exp}
    for poly, exp in pieces:
        exps[poly] = exps.get(poly, 0) + exp
    return sign, content, list(exps.items())


@cache
def _ring(coords):
    """sympy's polynomial ring over the coordinates."""
    from sympy.polys.domains import ZZ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import PolyRing

    return PolyRing(coords, ZZ, grlex)


def _to_sympy(field, poly):
    lay = field.layout
    return _ring(field.coords).from_dict(
        {tuple(lay.exponents(monom)): coeff for monom, coeff in poly}
    )


def _from_sympy(lay, poly):
    terms = [(_pack(lay, monom), int(coeff)) for monom, coeff in poly.items()]
    return tuple(sorted(terms, reverse=True))


def factor_list(field, num):
    """(sign, content, [(f, e), ...]) as ``factor`` gives them, from sympy's
    ``factor_list``, for any nonzero num of the field at its base width."""
    coeff, pairs = _to_sympy(field, num).factor_list()
    sign, facs = (-1 if coeff < 0 else 1), []
    for poly, exp in pairs:
        poly, unit = _positive(_from_sympy(field.layout, poly))
        sign *= unit**exp
        facs.append((poly, exp))
    return sign, abs(int(coeff)), facs


def _pieces(lay, p):
    """[(f, e), ...] with p = prod f**e and each f certified irreducible, or
    None. p is primitive with a positive leading coefficient, and no
    coordinate divides it.

    A perfect power is factored through its root. In two coordinates v and
    w, the content of p in x_v (the gcd of its coefficients in Z[w]) is
    divided out when it is not 1. Otherwise p is irreducible if, for some
    x_v in which its content is 1, it has degree 1, or degree 2 and
    ``_certified`` holds.
    """
    if len(p) == 1:
        return []  # the constant 1
    root = _perfect_root(lay, p)
    if root is not None:
        q, k = root
        pieces = _pieces(lay, q)
        return None if pieces is None else [(f, e * k) for f, e in pieces]
    used = 0
    for monom, _ in p:
        used |= monom
    slots = [v for v, shift in enumerate(lay.shifts) if (used >> shift) & lay.mask]
    candidates = []
    for slot in slots:
        coeffs = {}  # exponent of x_v -> the terms with it
        shift, unit = lay.shifts[slot], lay.units[slot]
        for term in p:
            coeffs.setdefault((term[0] >> shift) & lay.mask, []).append(term)
        # a coefficient that is an integer leaves no content
        if not any(len(terms) == 1 and terms[0][0] == e * unit for e, terms in coeffs.items()):
            if len(slots) != 2:
                continue
            (other,) = [s for s in slots if s != slot]
            content = _dense_content(lay, coeffs.values(), other)
            if len(content) > 1:
                divisor = _from_dense(lay, content, other)
                quotient = _exact_quotient(lay, p, divisor)
                first, second = _pieces(lay, divisor), _pieces(lay, quotient)
                return None if first is None or second is None else first + second
        candidates.append((max(coeffs), slot))
    for degree, slot in sorted(candidates):
        if degree == 1 or (degree == 2 and _certified(lay, p, slot, slots)):
            return [(p, 1)]
    return None


def _certified(lay, p, slot, slots):
    """Whether p, of degree 2 in x_v, has an image in Z[x_v] at a small
    integer point of the other coordinates that keeps that degree and whose
    discriminant is not a square, so that the image is irreducible over Q.

    With p's content in x_v equal to 1, that proves p irreducible: each
    factor of a product p = A * B has positive degree in x_v (one of degree
    0 would divide the content), so both have degree 1; the leading
    coefficients of the images multiply to a nonzero one, so both images
    keep degree 1 and would give the image a rational root.
    """
    others = [s for s in slots if s != slot]
    for start in range(len(_VALUES) if others else 1):
        point = [(s, _VALUES[(start + i) % len(_VALUES)]) for i, s in enumerate(others)]
        image = [0, 0, 0]
        for monom, coeff in p:
            exps = lay.exponents(monom)
            for s, value in point:
                coeff *= value ** exps[s]
            image[exps[slot]] += coeff
        low, mid, lead = image
        if lead:
            disc = mid**2 - 4 * lead * low
            if disc < 0 or isqrt(disc) ** 2 != disc:
                return True
    return False


def _perfect_root(lay, p):
    """(q, k) with p = q**k for a prime k and q's leading coefficient
    positive, or None.

    k must divide every exponent of p's first and last monomials, whose
    coefficients must be k-th powers. q is found term by term from its
    leading term q_1: the leading term of p - (q_1 + ... + q_i)**k is
    k * q_1**(k-1) * q_{i+1}. The search stops at the first term that does
    not divide exactly or does not lie between q_i and the k-th root of p's
    last monomial.
    """
    (lm, lc), (tm, tc) = p[0], p[-1]
    exps = 0
    for e in lay.exponents(lm) + lay.exponents(tm):
        exps = gcd(exps, e)
    for k in _prime_divisors(exps):
        head = _iroot(lc, k)
        if head is None or _iroot(tc, k) is None:
            continue
        # k divides every field of lm and tm, so it divides them field by field
        last = tm // k
        root = [(lm // k, head)]
        dm, dc = root[0][0] * (k - 1), k * head ** (k - 1)
        while True:
            rest = _poly_add(lay, p, _poly_neg(_poly_pow(lay, tuple(root), k)))
            if not rest:
                return tuple(root), k
            monom, coeff = rest[0]
            qm = monom - dm
            if qm & lay.guard or coeff % dc or not last <= qm < root[-1][0]:
                break
            root.append((qm, coeff // dc))
    return None


def _prime_divisors(n):
    """The primes dividing the positive integer n, in increasing order."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


def _iroot(c, k):
    """The integer r with r**k = c, of c's sign, or None."""
    if c < 0:
        r = None if k % 2 == 0 else _iroot(-c, k)
        return None if r is None else -r
    # Newton's iteration from above, to the floor of the k-th root
    r = 1 << (c.bit_length() // k + 1)
    while True:
        s = ((k - 1) * r + c // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == c else None
        r = s


def _dense_content(lay, groups, slot):
    """The primitive gcd over Z of polynomials in the one coordinate ``slot``,
    each given by its terms, as a dense list of coefficients from degree 0
    up, the last one positive."""
    shift, mask = lay.shifts[slot], lay.mask
    content = None
    for terms in groups:
        exps = [(monom >> shift) & mask for monom, _ in terms]
        dense = [0] * (max(exps) + 1)
        for exp, (_, coeff) in zip(exps, terms):
            dense[exp] = coeff
        content = _primitive(dense) if content is None else _dense_gcd(content, dense)
        if len(content) == 1:
            break
    return content


def _primitive(dense):
    content = 0
    for coeff in dense:
        content = gcd(content, coeff)
    if dense[-1] < 0:
        content = -content
    return [coeff // content for coeff in dense]


def _dense_gcd(a, b):
    """The primitive gcd of a primitive a and a nonzero b, by the primitive
    remainder sequence (Knuth, TAOCP vol. 2, section 4.6.1)."""
    b = _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        # the pseudo-remainder of a by b
        rest, lead = list(a), b[-1]
        while len(rest) >= len(b):
            top, shift = rest.pop(), len(rest) + 1 - len(b)
            rest = [coeff * lead for coeff in rest]
            for i, coeff in enumerate(b[:-1]):
                rest[shift + i] -= top * coeff
            while rest and not rest[-1]:
                rest.pop()
        if not rest:
            return b
        a, b = b, _primitive(rest)
    return [1]


def _pack(lay, exponents):
    """The monomial with these exponents, packed in the layout lay."""
    monom = sum(exponents) << lay.top
    for exp, shift in zip(exponents, lay.shifts):
        monom |= exp << shift
    return monom


def _from_dense(lay, dense, slot):
    """The polynomial in the one coordinate ``slot`` with these coefficients."""
    unit = lay.units[slot]
    return tuple(
        (degree * unit, dense[degree]) for degree in range(len(dense) - 1, -1, -1) if dense[degree]
    )

