"""Exact scalars of the quadratic field Q(sqrt 2).

Every vector in the reflection tables has coordinates of the form
a + b*sqrt(2) with a, b rational, so all orthogonality and norm checks
can be done with no rounding at all.  QSqrt2 is a small field
implementation on top of fractions.Fraction that interoperates with int
and Fraction operands.  It is the scalar of the package: table
coordinates, parsed and formatted report values, parameters such as
lambda and exact signs.  Exact matrices are linalg_exact.PairMatrix,
which works on integer arrays and only hands single entries out as
QSqrt2; is_exact tells exact data of either kind from float data.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import sqrt
from numbers import Rational

import numpy as np


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

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __pos__(self):
        return self

    # -- order structure -----------------------------------------------

    def sign(self):
        """Exact sign of a + b*sqrt(2), one of -1, 0, +1."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # a, b of opposite signs: compare a^2 with 2 b^2
        if a > 0:  # b < 0
            return 1 if a * a > 2 * b * b else (0 if a * a == 2 * b * b else -1)
        return 1 if a * a < 2 * b * b else (0 if a * a == 2 * b * b else -1)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    # -- conversions -----------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * sqrt(2.0)

    def conjugate(self):
        """The Galois conjugate a - b*sqrt(2)."""
        return QSqrt2(self.a, -self.b)

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


def is_exact(x):
    """Is x exact data: a PairMatrix, a QSqrt2 or rational scalar, or an
    array or sequence of QSqrt2 (judged by its first entry)?

    Float and integer numpy arrays are float-backend data.
    """
    if isinstance(x, (QSqrt2, Rational)):
        return True
    if isinstance(x, np.ndarray) and x.dtype != object:
        return False
    from .linalg_exact import PairMatrix  # linalg_exact imports this module

    if isinstance(x, PairMatrix):
        return True
    flat = np.asarray(x, dtype=object).reshape(-1)
    return len(flat) > 0 and isinstance(flat[0], QSqrt2)
