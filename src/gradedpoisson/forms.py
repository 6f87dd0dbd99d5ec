"""Differential forms, vector fields, vector-valued forms, and derivations.

The derivation algebra of the form algebra is the home of everything graded
in this package: a derivation D is stored in normal form D = L_K + i_{L'}
with K and L' vector-valued forms, mixed degrees being explicit sums of
homogeneous pieces. Commutators are computed by operator composition and
then reconstructed into normal form from the action on coordinates and
coordinate differentials, which determines a derivation uniquely.

A derivation acts through its coefficients over the lie basics, the Lie
derivatives L_a along the coordinate fields and the insertions i_a. With
K_a the components of K, and C_a = L'_a + (-1)^k (dK)_a summed over the
parts of degree k,

    D(beta) = sum_a K_a ^ partial_a beta + sum_a C_a ^ i_a beta

where partial_a differentiates beta's coefficients along x_a. So an
application takes only partial derivatives of beta's own coefficients and
wedges; basis_coefficients computes the (K_a, C_a) once per derivation.

Index tuples in a form are strictly increasing and zero coefficients are
never stored, so equality is literal dictionary equality.
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


def _accumulate(terms, idx, coeff):
    current = terms.get(idx)
    total = coeff if current is None else current + coeff
    if total.is_zero:
        terms.pop(idx, None)
    else:
        terms[idx] = total


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

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if other.field is not self.field:
            raise ValueError("forms on different charts")
        terms = dict(self.terms)
        for idx, coeff in other.terms.items():
            _accumulate(terms, idx, coeff)
        return Form._raw(self.field, terms)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

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
        terms: dict = {}
        for li, lc in self.terms.items():
            for ri, rc in other.terms.items():
                merged = _merge_indices(li, ri)
                if merged is None:
                    continue
                sign, idx = merged
                _accumulate(terms, idx, lc * rc if sign > 0 else -(lc * rc))
        return Form._raw(self.field, terms)

    # -- calculus ------------------------------------------------------------

    def d(self) -> "Form":
        """Exterior derivative."""
        terms: dict = {}
        for idx, coeff in self.terms.items():
            for k in range(self.field.dimension):
                dc = coeff.partial(k)
                if dc.is_zero:
                    continue
                merged = _merge_indices((k,), idx)
                if merged is None:
                    continue
                sign, midx = merged
                _accumulate(terms, midx, dc if sign > 0 else -dc)
        return Form._raw(self.field, terms)

    def insert_basis(self, index: int) -> "Form":
        """Interior product with the coordinate field along ``index``."""
        terms: dict = {}
        for idx, coeff in self.terms.items():
            try:
                pos = idx.index(index)
            except ValueError:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            _accumulate(terms, rest, coeff if pos % 2 == 0 else -coeff)
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

    def __eq__(self, other):
        if not isinstance(other, Form):
            if other == 0:
                return not self.terms
            return NotImplemented
        return self.field is other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])))))

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


class VectorField:
    """A vector field on the chart, one scalar component per coordinate."""

    __slots__ = ("field", "components")

    def __init__(self, field: ScalarField, components):
        components = tuple(field.wrap(c) for c in components)
        if len(components) != field.dimension:
            raise ValueError(
                f"{len(components)} components on a {field.dimension}-dim chart"
            )
        self.field = field
        self.components = components

    @classmethod
    def basis(cls, field: ScalarField, index: int) -> "VectorField":
        comps = [field.zero] * field.dimension
        comps[index] = field.one
        return cls(field, comps)

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(
            self.field,
            [a + b for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return VectorField(self.field, [-c for c in self.components])

    def __mul__(self, scalar):
        coeff = self.field.wrap(scalar)
        return VectorField(self.field, [c * coeff for c in self.components])

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def as_vvform(self) -> "VectorValuedForm":
        return VectorValuedForm(
            self.field, [Form.function(c) for c in self.components], degree=0
        )

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.field is other.field and self.components == other.components

    def __str__(self):
        pieces = [
            f"({c})*e_{name}"
            for c, name in zip(self.components, self.field.coords)
            if not c.is_zero
        ]
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"VectorField<{self}>"


class VectorValuedForm:
    """A vector-valued form: one homogeneous Form per coordinate direction.

    Components of degree 0 are vector fields; degree 1 covers endomorphism
    fields like the compatibility tensor and the identity.
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

    def __add__(self, other):
        if not isinstance(other, VectorValuedForm):
            return NotImplemented
        if other.is_zero:
            degree = self.degree
        elif self.is_zero:
            degree = other.degree
        elif self.degree != other.degree:
            raise ValueError("cannot add vector-valued forms of different degree")
        else:
            degree = self.degree
        return VectorValuedForm(
            self.field,
            [a + b for a, b in zip(self.components, other.components)],
            degree=degree,
        )

    def __sub__(self, other):
        if not isinstance(other, VectorValuedForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return VectorValuedForm(
            self.field, [-c for c in self.components], degree=self.degree
        )

    def __eq__(self, other):
        if not isinstance(other, VectorValuedForm):
            return NotImplemented
        if self.field is not other.field:
            return False
        if self.components != other.components:
            return False
        return self.is_zero or self.degree == other.degree

    def __str__(self):
        pieces = [
            f"[{c}] (x) e_{name}"
            for c, name in zip(self.components, self.field.coords)
            if not c.is_zero
        ]
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"VectorValuedForm<deg {self.degree}: {self}>"


def _d_componentwise(vvform: VectorValuedForm) -> VectorValuedForm:
    return VectorValuedForm(
        vvform.field,
        [c.d() for c in vvform.components],
        degree=min(vvform.degree + 1, vvform.field.dimension),
    )


class Derivation:
    """A derivation of the form algebra in normal form.

    ``parts`` maps each occurring degree k to a pair (K, L') with K a
    vector-valued k-form (or None) and L' a vector-valued (k+1)-form (or
    None), the operator being the sum of L_K + i_{L'} over parts. Purely
    algebraic degree -1 parts store K = None.
    """

    __slots__ = ("field", "parts", "_coeffs")

    def __init__(self, field: ScalarField, parts):
        clean = {}
        for degree, (kpart, apart) in parts.items():
            if kpart is not None and kpart.is_zero:
                kpart = None
            if apart is not None and apart.is_zero:
                apart = None
            if kpart is None and apart is None:
                continue
            if kpart is not None and kpart.degree != degree:
                raise ValueError(
                    f"lie part of degree {kpart.degree} filed under {degree}"
                )
            if apart is not None and apart.degree != degree + 1:
                raise ValueError(
                    f"insertion part of degree {apart.degree} filed under {degree}"
                )
            clean[degree] = (kpart, apart)
        self.field = field
        self.parts = clean
        self._coeffs = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: ScalarField) -> "Derivation":
        return cls(field, {})

    @classmethod
    def lie(cls, kpart) -> "Derivation":
        if isinstance(kpart, VectorField):
            kpart = kpart.as_vvform()
        return cls(kpart.field, {kpart.degree: (kpart, None)})

    @classmethod
    def insertion(cls, apart) -> "Derivation":
        if isinstance(apart, VectorField):
            apart = apart.as_vvform()
        return cls(apart.field, {apart.degree - 1: (None, apart)})

    @classmethod
    def exterior(cls, field: ScalarField) -> "Derivation":
        return cls.lie(VectorValuedForm.identity(field))

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def degree(self):
        """The degree when homogeneous, None when mixed, 0 when zero."""
        if not self.parts:
            return 0
        if len(self.parts) > 1:
            return None
        return next(iter(self.parts))

    # -- action --------------------------------------------------------------

    def __call__(self, form) -> Form:
        """D(beta) = sum_a K_a ^ partial_a beta + sum_a C_a ^ i_a beta over the lie basics."""
        if isinstance(form, RationalFunction):
            form = Form.function(form)
        out = Form.zero(self.field)
        for a, (lie, ins) in enumerate(zip(*self.basis_coefficients())):
            for coeff, act in ((lie, form.partial), (ins, form.insert_basis)):
                if not coeff.is_zero:
                    value = act(a)
                    if not value.is_zero:
                        out = out + coeff.wedge(value)
        return out

    def commutator(self, other: "Derivation") -> "Derivation":
        """Graded commutator [D, E], reconstructed into normal form."""
        total = Derivation.zero(self.field)
        for p, ppart in self.parts.items():
            dpiece = Derivation(self.field, {p: ppart})
            for q, qpart in other.parts.items():
                epiece = Derivation(self.field, {q: qpart})
                total = total + _commutator_piece(dpiece, p, epiece, q)
        return total

    def __add__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        merged = dict(self.parts)
        for degree, (kpart, apart) in other.parts.items():
            if degree in merged:
                k0, a0 = merged[degree]
                kpart = kpart if k0 is None else (k0 if kpart is None else k0 + kpart)
                apart = apart if a0 is None else (a0 if apart is None else a0 + apart)
            merged[degree] = (kpart, apart)
        return Derivation(self.field, merged)

    def __neg__(self):
        return Derivation(
            self.field,
            {
                d: (None if k is None else -k, None if a is None else -a)
                for d, (k, a) in self.parts.items()
            },
        )

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.field is other.field and self.parts == other.parts

    def basis_coefficients(self, shift=_d_componentwise):
        """Coefficients of D over the basic operators, one Form per direction.

        Returns (lie_coeffs, ins_coeffs) such that, as operators,
        D = sum_a lie_coeffs[a] * B_a + sum_a ins_coeffs[a] * i_a, where B_a
        is the basic Lie derivative along coordinate a (the default, with
        ``shift`` the componentwise d), or the basic covariant derivative
        when ``shift`` is the exterior covariant derivative on vector-valued
        forms. A form-coefficiented operator acts by wedging the coefficient
        on the left of the operator's output.

        Both are tuples, computed once per shift and kept on the derivation.
        """
        if shift in self._coeffs:
            return self._coeffs[shift]
        dim = self.field.dimension
        lie_coeffs = [Form.zero(self.field) for _ in range(dim)]
        ins_coeffs = [Form.zero(self.field) for _ in range(dim)]
        for degree, (kpart, apart) in self.parts.items():
            sign = -1 if degree % 2 else 1
            if kpart is not None:
                shifted = shift(kpart)
                for a in range(dim):
                    lie_coeffs[a] = lie_coeffs[a] + kpart.components[a]
                    correction = shifted.components[a]
                    ins_coeffs[a] = ins_coeffs[a] + (
                        correction if sign > 0 else -correction
                    )
            if apart is not None:
                for a in range(dim):
                    ins_coeffs[a] = ins_coeffs[a] + apart.components[a]
        coeffs = self._coeffs[shift] = (tuple(lie_coeffs), tuple(ins_coeffs))
        return coeffs

    def __str__(self):
        if not self.parts:
            return "0"
        pieces = []
        for degree in sorted(self.parts):
            kpart, apart = self.parts[degree]
            if kpart is not None:
                pieces.append(f"L[{kpart}]")
            if apart is not None:
                pieces.append(f"i[{apart}]")
        return " + ".join(pieces)

    def __repr__(self):
        return f"Derivation<{self}>"


def _commutator_piece(dpiece: Derivation, p: int, epiece: Derivation, q: int) -> Derivation:
    """[D, E] for homogeneous D, E of degrees p, q, in normal form.

    The lie part is read off from the action on coordinate functions, the
    insertion part from what remains on coordinate differentials.
    """
    field = dpiece.field
    dim = field.dimension
    sign = -1 if (p % 2 and q % 2) else 1

    def op(form: Form) -> Form:
        first = dpiece(epiece(form))
        second = epiece(dpiece(form))
        return first - second if sign > 0 else first + second

    r = p + q
    k_comps = [op(Form.function(field.gens[a])) for a in range(dim)]
    if 0 <= r <= dim:
        kpart = VectorValuedForm(field, k_comps, degree=r)
    else:
        if any(not c.is_zero for c in k_comps):
            raise ValueError(f"commutator lie part escapes degree range at {r}")
        kpart = None

    a_comps = []
    for a in range(dim):
        value = op(Form.coordinate_diff(field, a))
        if kpart is not None and not kpart.is_zero:
            # L_K dx^a = [i_K, d] dx^a = (-1)^r dK_a
            dk = kpart.components[a].d()
            value = value - (dk if r % 2 == 0 else -dk)
        a_comps.append(value)
    if 0 <= r + 1 <= dim:
        apart = VectorValuedForm(field, a_comps, degree=r + 1)
    else:
        if any(not c.is_zero for c in a_comps):
            raise ValueError(f"commutator insertion part escapes degree range at {r + 1}")
        apart = None

    if kpart is None and apart is None:
        return Derivation.zero(field)
    return Derivation(field, {r: (kpart, apart)})
