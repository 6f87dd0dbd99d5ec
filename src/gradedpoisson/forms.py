"""Differential forms, vector-valued forms, and derivations.

A vector field is a VectorValuedForm of degree 0, as in the
Frolicher-Nijenhuis calculus the paper builds its derivations from: L_K and
i_K take a vector field and a vector-valued form of any degree alike.

The derivation algebra of the form algebra is the home of everything graded
in this package. A derivation D is fixed by what it does to the coordinates,
K_a = D(x^a) and C_a = D(dx^a), and it is stored as exactly these 2n forms,
its coefficients over the lie basics: the Lie derivatives L_a along the
coordinate fields and the insertions i_a,

    D(beta) = sum_a K_a ^ partial_a beta + sum_a C_a ^ i_a beta

where partial_a differentiates beta's coefficients along x_a. So an
application takes only partial derivatives of beta's own coefficients and
wedges, sums and negation work coefficientwise, and the graded commutator
is read off from its values on x^a and dx^a. In the Frolicher-Nijenhuis
normal form D = L_K + i_{L'}, C_a = L'_a + (-1)^k (dK)_a on the part of
degree k.

Index tuples in a form are strictly increasing and zero coefficients are
never stored, so equality is literal dictionary equality. Every sum is
accumulated term by term into one dictionary by _accumulate: a sum of
finished forms through Form.sum, a sum of products through _wedge_into,
the one wedge loop, and a vector-slot or table-row contraction through one
of two row kernels beside it: _pair_into, the wedges of two rows of forms
(the twist, the curvature's action, the graded contractions and the
curvature pairing), and _scale_into, term dicts scaled by scalars
(apply_endo, pair and the bivector insertion). The derivation action and
the solver's A^-1 step keep their own per-term loops. None of these
builds a Form per addend.
_accumulate carries the addend's sign: onto an existing entry it
subtracts, and it negates a coefficient only when that coefficient starts
a new entry, so a signed product, a term of d or of an insertion, a term
of the twist, and the subtrahend of Form.__sub__ are never negated just to
be added.
"""

from __future__ import annotations

from .scalars import RationalFunction, ScalarField


def _merge_indices(left, right):
    """Sort the concatenation of two strictly increasing index tuples.

    Returns (sign, merged) with the permutation sign, or None when an index
    repeats (the wedge vanishes).
    """
    sign = 1
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # right[j] moves past the rest of left
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def _accumulate(terms, idx, coeff, sign=1):
    """Add sign * coeff, sign 1 or -1, to the entry idx of the term dict."""
    current = terms.get(idx)
    if current is None:
        total = coeff if sign > 0 else -coeff
    else:
        total = current + coeff if sign > 0 else current - coeff
    if total.is_zero:
        terms.pop(idx, None)
    else:
        terms[idx] = total


def _wedge_into(terms, left, right, sign=1, koszul=False):
    """Accumulate sign * (left ^ right) into the term dict ``terms`` and return it.

    left and right are term dicts of forms on one chart. With ``koszul``
    each left term of odd degree flips its sign, the (-1)^{|gamma|} a
    coefficient gamma picks up passing an insertion. Each product is
    accumulated as it is made, so no partial result is built as a Form.
    """
    for li, lc in left.items():
        lsign = -sign if koszul and len(li) % 2 else sign
        for ri, rc in right.items():
            merged = _merge_indices(li, ri)
            if merged is None:
                continue
            msign, idx = merged
            _accumulate(terms, idx, lc * rc, msign * lsign)
    return terms


def _pair_into(terms, lefts, rights, sign=1, koszul=False):
    """Accumulate sign * sum_k lefts[k] ^ rights[k] into the term dict
    ``terms`` and return it, for forms lefts[k] and rights[k]; a pair with
    a zero form is skipped, and ``koszul`` is _wedge_into's."""
    for left, right in zip(lefts, rights):
        if left.terms and right.terms:
            _wedge_into(terms, left.terms, right.terms, sign, koszul)
    return terms


def _scale_into(terms, pairs, sign=1):
    """Accumulate sign * sum m * part into ``terms`` and return it, over the
    (part, m) pairs of a term dict and a scalar, skipping an empty part or
    a zero m; each term c of a part adds c * m, so no scaled part is built."""
    for part, m in pairs:
        if not part or m.is_zero:
            continue
        for idx, c in part.items():
            _accumulate(terms, idx, c * m, sign)
    return terms


class Form:
    """A differential form, possibly of mixed degree."""

    __slots__ = ("field", "terms")

    def __init__(self, field: ScalarField, terms=()):
        dim = field.dimension
        clean: dict[tuple[int, ...], RationalFunction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for idx, coeff in items:
            idx = tuple(idx)
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError(f"index tuple {idx} out of range for dim {dim}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            _accumulate(clean, idx, field.wrap(coeff))
        self.field = field
        self.terms = clean

    @classmethod
    def _raw(cls, field, terms):
        form = object.__new__(cls)
        form.field = field
        form.terms = terms
        return form

    @classmethod
    def zero(cls, field: ScalarField) -> "Form":
        return cls._raw(field, {})

    @classmethod
    def function(cls, scalar) -> "Form":
        """A 0-form from a scalar."""
        if scalar.is_zero:
            return cls._raw(scalar.field, {})
        return cls._raw(scalar.field, {(): scalar})

    @classmethod
    def coordinate_diff(cls, field: ScalarField, index: int) -> "Form":
        """The coordinate differential dx^index."""
        if not 0 <= index < field.dimension:
            raise ValueError(f"coordinate index {index} out of range")
        return cls._raw(field, {(index,): field.one})

    # -- ring structure ----------------------------------------------------

    @classmethod
    def sum(cls, field: ScalarField, forms) -> "Form":
        """The sum of an iterable of forms on ``field``, Form.zero when empty.

        Every addend's terms are accumulated into one dictionary, so no
        partial sum is built as a Form. Forms are immutable, so while the
        running total is zero the next addend is taken as it is, and its
        terms are copied only when a further addend arrives.
        """
        only, terms = None, {}
        for form in forms:
            if form.field is not field:
                raise ValueError("forms on different charts")
            if not terms:
                only, terms = form, form.terms
                continue
            if only is not None:
                only, terms = None, dict(terms)
            for idx, coeff in form.terms.items():
                _accumulate(terms, idx, coeff)
        return only if only is not None else cls._raw(field, terms)

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return Form.sum(self.field, (self, other))

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if other.field is not self.field:
            raise ValueError("forms on different charts")
        terms = dict(self.terms)
        for idx, coeff in other.terms.items():
            _accumulate(terms, idx, coeff, -1)
        return Form._raw(self.field, terms)

    def __neg__(self):
        return Form._raw(self.field, {i: -c for i, c in self.terms.items()})

    def __mul__(self, scalar):
        """Scalar scaling. Use wedge() for products of forms."""
        if isinstance(scalar, Form):
            return NotImplemented
        coeff = self.field.wrap(scalar)
        if coeff.is_zero:
            return Form.zero(self.field)
        return Form._raw(
            self.field, {i: c * coeff for i, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        if other.field is not self.field:
            raise ValueError("forms on different charts")
        return Form._raw(self.field, _wedge_into({}, self.terms, other.terms))

    # -- calculus ------------------------------------------------------------

    def d(self) -> "Form":
        """Exterior derivative."""
        terms: dict = {}
        for idx, coeff in self.terms.items():
            for k in range(self.field.dimension):
                if k in idx:
                    continue
                dc = coeff.partial(k)
                if dc.is_zero:
                    continue
                # k is not in idx, so dx^k ^ dx^idx does not vanish
                sign, midx = _merge_indices((k,), idx)
                _accumulate(terms, midx, dc, sign)
        return Form._raw(self.field, terms)

    def insert_basis(self, index: int) -> "Form":
        """Interior product with the coordinate field along ``index``."""
        terms: dict = {}
        for idx, coeff in self.terms.items():
            if index not in idx:
                continue
            pos = idx.index(index)
            rest = idx[:pos] + idx[pos + 1 :]
            _accumulate(terms, rest, coeff, -1 if pos % 2 else 1)
        return Form._raw(self.field, terms)

    def partial(self, index: int) -> "Form":
        """Lie derivative along the coordinate field ``index``.

        It differentiates each coefficient along x_index, because
        L_{d_a} dx^i = d(d_a x^i) = 0.
        """
        terms = {}
        for idx, coeff in self.terms.items():
            value = coeff.partial(index)
            if not value.is_zero:
                terms[idx] = value
        return Form._raw(self.field, terms)

    def lie_basic(self, r: int) -> "Form":
        """The lie basic r applied to the form: L_r = partial(r) for r < n,
        then the insertions i_{r-n}."""
        dim = self.field.dimension
        return self.insert_basis(r - dim) if r >= dim else self.partial(r)

    # -- grading -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted({len(i) for i in self.terms})

    def is_homogeneous(self, degree: int) -> bool:
        return all(len(i) == degree for i in self.terms)

    def homogeneous_part(self, degree: int) -> "Form":
        return Form._raw(
            self.field,
            {i: c for i, c in self.terms.items() if len(i) == degree},
        )

    def homogeneous_parts(self) -> dict[int, "Form"]:
        return {p: self.homogeneous_part(p) for p in self.degrees()}

    def coefficient(self, idx) -> RationalFunction:
        return self.terms.get(tuple(idx), self.field.zero)

    def scalar_part(self) -> RationalFunction:
        """The 0-form coefficient."""
        return self.terms.get((), self.field.zero)

    def is_negation_of(self, other: "Form") -> bool:
        """self == -other, compared term by term without building -other."""
        if self.field is not other.field or len(self.terms) != len(other.terms):
            return False
        terms = other.terms
        return all(
            idx in terms and coeff.is_negation_of(terms[idx])
            for idx, coeff in self.terms.items()
        )

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.field is other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        coords = self.field.coords
        pieces = []
        for idx in sorted(self.terms, key=lambda i: (len(i), i)):
            coeff = str(self.terms[idx])
            if idx:
                monom = "^".join(f"d{coords[i]}" for i in idx)
                pieces.append(f"({coeff})*{monom}")
            else:
                pieces.append(f"({coeff})")
        return " + ".join(pieces)

    def __repr__(self):
        return f"Form<{self}>"


class VectorValuedForm:
    """A vector-valued form: one homogeneous Form per coordinate direction.

    A vector field is one of degree 0, its components 0-forms; degree 1
    covers endomorphism fields like J and the identity.
    """

    __slots__ = ("field", "components", "degree")

    def __init__(self, field: ScalarField, components, degree=None):
        comps = []
        for c in components:
            if isinstance(c, RationalFunction):
                c = Form.function(c)
            comps.append(c)
        if len(comps) != field.dimension:
            raise ValueError(
                f"{len(comps)} components on a {field.dimension}-dim chart"
            )
        if degree is None:
            degrees = {d for c in comps for d in c.degrees()}
            if len(degrees) > 1:
                raise ValueError(f"mixed component degrees {sorted(degrees)}")
            degree = degrees.pop() if degrees else 0
        for c in comps:
            if not c.is_homogeneous(degree):
                raise ValueError(f"component {c} is not homogeneous of degree {degree}")
        if not 0 <= degree <= field.dimension:
            raise ValueError(f"impossible component degree {degree}")
        self.field = field
        self.components = tuple(comps)
        self.degree = degree

    @classmethod
    def basis(cls, field: ScalarField, index: int) -> "VectorValuedForm":
        """The coordinate vector field e_index."""
        comps = [Form.zero(field)] * field.dimension
        comps[index] = Form.function(field.one)
        return cls(field, comps, degree=0)

    @classmethod
    def identity(cls, field: ScalarField) -> "VectorValuedForm":
        """Id = dx^i (x) e_i; its Lie derivation is the exterior derivative."""
        return cls(
            field,
            [Form.coordinate_diff(field, i) for i in range(field.dimension)],
            degree=1,
        )

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __neg__(self):
        return VectorValuedForm(
            self.field, [-c for c in self.components], degree=self.degree
        )

    def is_negation_of(self, other: "VectorValuedForm") -> bool:
        """self == -other, compared componentwise without building -other."""
        if self.field is not other.field:
            return False
        if not all(a.is_negation_of(b) for a, b in zip(self.components, other.components)):
            return False
        return self.is_zero or self.degree == other.degree

    def __eq__(self, other):
        if not isinstance(other, VectorValuedForm):
            return NotImplemented
        if self.field is not other.field:
            return False
        if self.components != other.components:
            return False
        return self.is_zero or self.degree == other.degree

    def __hash__(self):
        # zero forms of every degree are equal, so the degree stays out
        return hash((self.field, self.components))

    def __str__(self):
        pieces = [
            f"[{c}] (x) e_{name}"
            for c, name in zip(self.components, self.field.coords)
            if not c.is_zero
        ]
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"VectorValuedForm<deg {self.degree}: {self}>"


class Derivation:
    """A derivation of the form algebra, by its coefficients over the lie basics.

    ``coefficients`` holds 2n Forms: first K_a = D(x^a), then C_a = D(dx^a),
    so that D = sum_a K_a ^ L_a + sum_a C_a ^ i_a. The degree of a
    homogeneous derivation is the degree of its K_a and one less than that
    of its C_a.
    """

    __slots__ = ("field", "coefficients")

    def __init__(self, field: ScalarField, coefficients):
        coefficients = tuple(coefficients)
        if len(coefficients) != 2 * field.dimension:
            raise ValueError(
                f"{len(coefficients)} coefficients on a {field.dimension}-dim chart"
            )
        self.field = field
        self.coefficients = coefficients

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: ScalarField) -> "Derivation":
        return cls(field, [Form.zero(field)] * (2 * field.dimension))

    @classmethod
    def lie(cls, kpart) -> "Derivation":
        """L_K = [i_K, d] for a vector-valued k-form K: L_K dx^a = (-1)^k dK_a."""
        dks = [c.d() for c in kpart.components]
        if kpart.degree % 2:
            dks = [-c for c in dks]
        return cls(kpart.field, kpart.components + tuple(dks))

    @classmethod
    def insertion(cls, apart) -> "Derivation":
        field = apart.field
        return cls(field, [Form.zero(field)] * field.dimension + list(apart.components))

    @classmethod
    def exterior(cls, field: ScalarField) -> "Derivation":
        return cls.lie(VectorValuedForm.identity(field))

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coefficients)

    @property
    def degree(self):
        """The degree when homogeneous, None when mixed, 0 when zero."""
        dim = self.field.dimension
        degrees = {
            len(idx) - (r >= dim) for r, c in enumerate(self.coefficients) for idx in c.terms
        }
        if len(degrees) > 1:
            return None
        return degrees.pop() if degrees else 0

    def _halves(self):
        """(parity, half) for the nonzero even and odd halves of D."""
        dim = self.field.dimension
        halves = ([], [])
        for r, coeff in enumerate(self.coefficients):
            split = ({}, {})
            for idx, c in coeff.terms.items():
                # an insertion coefficient counts one degree lower
                split[(len(idx) - (r >= dim)) % 2][idx] = c
            for half, terms in zip(halves, split):
                half.append(Form._raw(self.field, terms))
        return [
            (p, Derivation(self.field, half))
            for p, half in enumerate(halves)
            if any(not c.is_zero for c in half)
        ]

    # -- action --------------------------------------------------------------

    def __call__(self, form) -> Form:
        """D(beta) = sum_a K_a ^ L_a beta + sum_a C_a ^ i_a beta, term by term.

        A term c dx^I of beta contributes K_a ^ (partial_a c) dx^I and, for
        each a in I, C_a ^ (+-c) dx^{I - a}, the sign that of moving dx^a to
        the front. Every product goes straight into the result's terms.
        """
        if isinstance(form, RationalFunction):
            form = Form.function(form)
        field = self.field
        if form.field is not field:
            raise ValueError("forms on different charts")
        dim = field.dimension
        coeffs = self.coefficients
        lies = [(a, c.terms) for a, c in enumerate(coeffs[:dim]) if c.terms]
        inserts = [(a, c.terms) for a, c in enumerate(coeffs[dim:]) if c.terms]
        terms: dict = {}
        for idx, coeff in form.terms.items():
            for a, left in lies:
                value = coeff.partial(a)
                if not value.is_zero:
                    _wedge_into(terms, left, {idx: value})
            for a, left in inserts:
                if a in idx:
                    pos = idx.index(a)
                    rest = {idx[:pos] + idx[pos + 1 :]: coeff}
                    _wedge_into(terms, left, rest, -1 if pos % 2 else 1)
        return Form._raw(field, terms)

    def commutator(self, other: "Derivation") -> "Derivation":
        """Graded commutator [D, E], read off coordinatewise.

        [D, E] sends x^a and dx^a to D(E(.)) -+ E(D(.)), and E(x^a), E(dx^a)
        are E's own coefficients, so coefficient r of [D, E] is
        D(E.c[r]) -+ E(D.c[r]), with + only when both are odd.
        """
        addends = [[] for _ in self.coefficients]
        for p, dpart in self._halves():
            for q, epart in other._halves():
                for r, (dc, ec) in enumerate(zip(dpart.coefficients, epart.coefficients)):
                    first, second = dpart(ec), epart(dc)
                    addends[r].append(first + second if p and q else first - second)
        return Derivation(self.field, [Form.sum(self.field, a) for a in addends])

    def __add__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return Derivation(
            self.field, [a + b for a, b in zip(self.coefficients, other.coefficients)]
        )

    def __neg__(self):
        return Derivation(self.field, [-c for c in self.coefficients])

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.field is other.field and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.field, self.coefficients))

    def __str__(self):
        coords = self.field.coords
        names = [f"L_{c}" for c in coords] + [f"i_{c}" for c in coords]
        pieces = [f"[{c}] {name}" for c, name in zip(self.coefficients, names) if not c.is_zero]
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"Derivation<{self}>"
