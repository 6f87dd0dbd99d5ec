"""Exact rational-function coefficients for chart computations.

Every scalar that appears anywhere in the kernel (metric entries, symplectic
entries, Christoffel symbols, Hamiltonians, bracket values...) is an element
of Q(x_1, ..., x_n) for the chart coordinates x_i, stored as an element of
Frac(Z[x_1, ..., x_n]): a numerator and a denominator with integer
coefficients. Representations are kept canonical at all times: the two
polynomials are coprime in Z[x_1, ..., x_n], integer content included, and
the denominator's leading coefficient under graded-lex order is positive.
That makes equality a plain representation comparison, which is what every
identity check in the test harness relies on.

Backed by sympy's sparse rational function fields over ``ZZ``. Over ``QQ``
sympy would reach the same canonical form, but every gcd would first clear
denominators and convert both polynomials into a ``ZZ`` ring and back. The
wrapper pins the public surface and keeps sympy types from leaking into the
rest of the package.

Every sympy multiply or derivative renormalizes through a gcd, and the
brackets differentiate and multiply the same few values again and again.
So each interned field (see ``coordinate_field``) keeps one memo dict of
results, keyed by value: a product by its two operand elements in order, a
partial derivative by its coordinate index and operand element. A hit
returns the same normalized value a fresh computation would, and values
are never mutated, so one result object can serve every caller.
``clear_memos`` empties every field's memo; ``cli.main`` and
``suites.run_suite`` call it when they end, so no call reuses the work
of an earlier one.
"""

from __future__ import annotations

from fractions import Fraction

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
    """Empty the product and derivative memo of every interned field."""
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
        self.zero = RationalFunction(self, self._field.zero)
        self.one = RationalFunction(self, self._field.one)
        self.gens = tuple(RationalFunction(self, g) for g in self._field.gens)

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
        ring = self._ring
        elem = self._field.raw_new(
            ring.ground_new(q.numerator), ring.ground_new(q.denominator)
        )
        return RationalFunction(self, elem)

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


def _eval_poly(poly, values):
    """Evaluate a sympy PolyElement at Fraction values, exactly."""
    total = Fraction(0)
    for monom, coeff in poly.terms():
        term = Fraction(int(coeff.numerator), int(coeff.denominator))
        for exp, val in zip(monom, values):
            if exp:
                term *= val**exp
        total += term
    return total


class RationalFunction:
    """One exact scalar. Immutable; arithmetic accepts int and Fraction."""

    __slots__ = ("field", "_elem")

    def __init__(self, field: ScalarField, elem):
        self.field = field
        self._elem = elem

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field is not self.field:
                raise ValueError("scalars from different coordinate fields")
            return other._elem
        if isinstance(other, (int, Fraction)):
            return self.field.constant(other)._elem
        return None

    def __add__(self, other):
        elem = self._coerce(other)
        if elem is None:
            return NotImplemented
        return RationalFunction(self.field, self._elem + elem)

    __radd__ = __add__

    def __sub__(self, other):
        elem = self._coerce(other)
        if elem is None:
            return NotImplemented
        return RationalFunction(self.field, self._elem - elem)

    def __rsub__(self, other):
        elem = self._coerce(other)
        if elem is None:
            return NotImplemented
        return RationalFunction(self.field, elem - self._elem)

    def __mul__(self, other):
        elem = self._coerce(other)
        if elem is None:
            return NotImplemented
        memo = self.field._memo
        key = (self._elem, elem)
        result = memo.get(key)
        if result is None:
            result = memo[key] = RationalFunction(self.field, self._elem * elem)
        return result

    __rmul__ = __mul__

    def __truediv__(self, other):
        elem = self._coerce(other)
        if elem is None:
            return NotImplemented
        if not elem:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.field, self._elem / elem)

    def __rtruediv__(self, other):
        elem = self._coerce(other)
        if elem is None:
            return NotImplemented
        if not self._elem:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.field, elem / self._elem)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if not self._elem:
            if exponent < 0:
                raise ZeroDivisionError("negative power of zero")
            if exponent == 0:
                raise ValueError("zero to the power zero is undefined")
        elem = self._elem**exponent
        # sympy swaps the parts of a negative power without a sign fix; they
        # stay coprime, so negating both restores the canonical form
        if elem.denom.LC < 0:
            elem = elem.raw_new(-elem.numer, -elem.denom)
        return RationalFunction(self.field, elem)

    def __neg__(self):
        return RationalFunction(self.field, -self._elem)

    def __pos__(self):
        return self

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
        # three entries, so no product key (two entries) can ever equal it
        key = ("partial", index, self._elem)
        result = field._memo.get(key)
        if result is None:
            gen = field._field.gens[index]
            result = field._memo[key] = RationalFunction(field, self._elem.diff(gen))
        return result

    def eval_at(self, point) -> Fraction:
        """Exact value at a rational point.

        Raises ZeroDivisionError when the denominator vanishes there.
        """
        values = [Fraction(p) for p in point]
        if len(values) != self.field.dimension:
            raise ValueError(
                f"point has {len(values)} entries for a "
                f"{self.field.dimension}-dimensional chart"
            )
        denom = _eval_poly(self._elem.denom, values)
        if denom == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return _eval_poly(self._elem.numer, values) / denom

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._elem

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

        numer = convert(self._elem.numer)
        denom = convert(self._elem.denom)
        return RationalFunction(target, target._field.new(numer, denom))

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.field is other.field and self._elem == other._elem
        if isinstance(other, (int, Fraction)):
            return self._elem == self.field.constant(other)._elem
        return NotImplemented

    def __hash__(self):
        return hash(self._elem)

    def __bool__(self):
        return bool(self._elem)

    def __str__(self):
        return str(self._elem)

    def __repr__(self):
        return f"RationalFunction({self._elem})"
