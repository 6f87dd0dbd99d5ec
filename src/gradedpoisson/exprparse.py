"""Parsing of scalar and differential-form expressions.

The grammar is deliberately small: rational-coefficient arithmetic over
the chart coordinates with + - * / and integer powers, coordinate
differentials written d<coord>, and ^ joining wedge factors. A scalar
multiplies a wedge monomial through *; juxtaposition is a syntax error.
/ binds like *, and ^ binds tighter than both. Every diagnostic carries
a 1-based column so manifest errors can point at the offending entry.
"""

from __future__ import annotations

import re

from .forms import Form
from .geometry import ChartGeometry
from .scalars import RationalFunction, ScalarField


class ExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            column = len(text) - len(stripped) + 1
            raise ExprError(f"malformed token {stripped[0]!r}", column)
        kind = match.lastgroup
        value = match.group(kind)
        tokens.append((kind, value, match.start(kind) + 1))
        pos = match.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent over the token list; values are (form, literal)
    pairs so integer literals stay available as exponents."""

    def __init__(self, text: str, field: ScalarField):
        self.field = field
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExprError(f"expected {op!r}", position)
        self.advance()

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Form:
        value, _ = self.expr()
        kind, text, position = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", position)
        return value

    def expr(self):
        value, literal = self.term()
        terms = [value]
        kind, op, _ = self.peek()
        while kind == "op" and op in "+-":
            self.advance()
            rhs, _ = self.term()
            terms.append(rhs if op == "+" else -rhs)
            kind, op, _ = self.peek()
        return (value, literal) if len(terms) == 1 else (Form.sum(self.field, terms), None)

    def term(self):
        value, literal = self.signed()
        while True:
            kind, op, position = self.peek()
            if kind != "op" or op not in "*/":
                return value, literal
            self.advance()
            rhs, _ = self.signed()
            if op == "*":
                value = value.wedge(rhs)
            else:
                divisor = rhs.scalar_part()
                if rhs != Form.function(divisor):
                    raise ExprError("cannot divide by a form of positive degree", position)
                if divisor.is_zero:
                    raise ExprError("division by zero", position)
                value = value * (self.field.one / divisor)
            literal = None

    def unary_sign(self) -> int:
        """Consume a run of unary + and -: -1 for an odd number of minuses, else 1."""
        kind, op, _ = self.peek()
        sign = 1
        while kind == "op" and op in "+-":
            if op == "-":
                sign = -sign
            self.advance()
            kind, op, _ = self.peek()
        return sign

    def signed(self):
        sign = self.unary_sign()
        value, literal = self.power()
        if sign < 0:
            return -value, None
        return value, literal

    def power(self):
        value, literal = self.atom()
        while True:
            kind, op, position = self.peek()
            if kind != "op" or op != "^":
                return value, literal
            self.advance()
            rhs, rhs_literal = self.exponent_operand()
            if rhs_literal is not None:
                base = value.scalar_part()
                if value != Form.function(base):
                    raise ExprError(
                        "cannot raise a form of positive degree to a power", position
                    )
                if rhs_literal < 0 and base.is_zero:
                    raise ExprError("division by zero", position)
                if rhs_literal == 0 and base.is_zero:
                    raise ExprError("zero to the power zero is undefined", position)
                value = Form.function(base**rhs_literal)
            elif rhs.degrees() and rhs.degrees() != [0]:
                value = value.wedge(rhs)
            else:
                raise ExprError("exponent must be an integer literal", position)
            literal = None

    def exponent_operand(self):
        # one signed atom; negative literals stay literal so x^-2 works
        sign = self.unary_sign()
        value, literal = self.atom()
        if literal is not None:
            return value, sign * literal
        return (-value if sign < 0 else value), None

    def atom(self):
        kind, text, position = self.advance()
        if kind == "int":
            try:
                number = int(text)
            except ValueError:  # past the interpreter's limit on converted digits
                message = f"integer literal of {len(text)} digits is too long"
                raise ExprError(message, position) from None
            return Form.function(self.field.constant(number)), number
        if kind == "name":
            return self.resolve(text, position), None
        if kind == "op" and text == "(":
            value, _ = self.expr()
            self.expect_op(")")
            return value, None
        raise ExprError(f"unexpected {text!r}" if text else "unexpected end of expression", position)

    def resolve(self, name: str, position: int) -> Form:
        coords = self.field.coords
        if name in coords:
            return Form.function(self.field.coordinate(name))
        if name.startswith("d") and name[1:] in coords:
            return Form.coordinate_diff(self.field, coords.index(name[1:]))
        raise ExprError(f"unknown coordinate or differential {name!r}", position)


def parse_form_expr(text: str, chart: ChartGeometry) -> Form:
    """Parse an expression to a Form over the chart's coordinate field."""
    return _Parser(text, chart.field).parse()


def parse_scalar_expr(text: str, field: ScalarField) -> RationalFunction:
    """Parse an expression that must come out as a plain scalar."""
    form = _Parser(text, field).parse()
    scalar = form.scalar_part()
    if form != Form.function(scalar):
        # point at the first differential: every parsed non-coordinate name is one
        column = next(p for kind, name, p in _tokenize(text) if kind == "name" and name not in field.coords)
        raise ExprError("expected a scalar expression, got a form of positive degree", column)
    return scalar
