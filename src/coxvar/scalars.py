"""Exact scalars of the quadratic field Q(sqrt 2).

QSqrt2 is one number a + b*sqrt(2) with a, b rational, on top of
fractions.Fraction, with the field operations and equality; it
interoperates with int and Fraction operands.  It is what the package
hands out and reads as a single exact value: parsed and formatted
report values, parameters such as lambda, and the entries that
linalg_exact.PairMatrix.item returns.  Exact vectors and matrices (the
reflection tables, exact lifts, reflections) are PairMatrix, which
works on integer arrays and also holds the exact order (its sign).
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Rational


def _coerce(x):
    if isinstance(x, QSqrt2):
        return x
    if isinstance(x, Rational):
        return QSqrt2(x, 0)
    return None


class QSqrt2:
    """An element a + b*sqrt(2) of Q(sqrt 2), with exact field arithmetic."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        n = o.a * o.a - 2 * o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return QSqrt2((self.a * o.a - 2 * self.b * o.b) / n, (self.b * o.a - self.a * o.b) / n)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    # -- text ------------------------------------------------------------

    def __repr__(self):
        return f"QSqrt2({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        sep = "+" if self.b > 0 else "-"
        return f"{self.a}{sep}{abs(self.b)}*sqrt2"


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)

_TERM = re.compile(r"^([+-]?(?:\d[\d/]*)?)\s*\*?\s*(sqrt2)?$")


def parse_scalar(text):
    """Parse 'a', 'a+b*sqrt2', '-1/2*sqrt2' style strings into QSqrt2.

    Decimal strings (containing '.' or exponents) are rejected; those
    belong to the float backend.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    # split into at most two signed terms
    parts = re.findall(r"[+-]?[^+-]+", s)
    if not parts or len(parts) > 2:
        raise ValueError(f"cannot parse scalar {text!r}")
    a = Fraction(0)
    b = Fraction(0)
    for part in parts:
        m = _TERM.match(part)
        if not m or (not m.group(1) and not m.group(2)):
            raise ValueError(f"cannot parse scalar {text!r}")
        coeff = m.group(1)
        if coeff in ("", "+", "-"):
            if not m.group(2):
                raise ValueError(f"cannot parse scalar {text!r}")
            coeff = coeff + "1"
        try:
            value = Fraction(coeff)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {text!r}") from None
        if m.group(2):
            b += value
        else:
            a += value
    return QSqrt2(a, b)


def format_scalar(x):
    """Render a scalar for reports: exact values verbatim, floats at 17 digits."""
    if isinstance(x, QSqrt2):
        return str(x)
    if isinstance(x, Rational):
        return str(x)
    return format(float(x), ".17g")
