import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvar.scalars import ONE, SQRT2, QSqrt2, format_scalar, parse_scalar


def test_basic_arithmetic():
    x = QSqrt2(1, 1)
    y = QSqrt2(Fraction(1, 2), -1)
    assert x + y == QSqrt2(Fraction(3, 2), 0)
    assert x * SQRT2 == QSqrt2(2, 1)
    assert SQRT2 * SQRT2 == 2
    assert (x - x) == 0
    assert -x == QSqrt2(-1, -1)


def test_division_and_inverse():
    x = QSqrt2(1, 1)
    assert x * (1 / x) == 1
    assert (QSqrt2(2) / SQRT2) == SQRT2
    with pytest.raises(ZeroDivisionError):
        _ = ONE / QSqrt2(0, 0)


def test_sign_and_comparisons():
    assert SQRT2 > 1
    assert SQRT2 < Fraction(3, 2)
    assert QSqrt2(1, Fraction(-1, 2)).sign() == 1       # 1 - sqrt2/2 > 0
    assert QSqrt2(-1, Fraction(3, 4)).sign() == 1        # 3 sqrt2/4 > 1
    assert QSqrt2(3, -2).sign() == 1                     # 3 > 2 sqrt2 ~ 2.83
    assert QSqrt2(2, -2).sign() == -1
    assert abs(QSqrt2(2, -2)) == QSqrt2(-2, 2)


def test_conjugate():
    x = QSqrt2(3, -2)
    assert x * x.conjugate() == 9 - 8


def test_parse_and_format_roundtrip():
    for text in ["1", "-3/2", "sqrt2", "-sqrt2", "1+1/2*sqrt2", "1-1/2*sqrt2", "2/3*sqrt2"]:
        val = parse_scalar(text)
        assert parse_scalar(format_scalar(val)) == val
    with pytest.raises(ValueError):
        parse_scalar("1.5")
    with pytest.raises(ValueError):
        parse_scalar("")
    with pytest.raises(ValueError):
        parse_scalar("1/0*sqrt2")


def test_format_float():
    assert format_scalar(0.1) == "0.10000000000000001"


fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
elements = st.builds(QSqrt2, fractions, fractions)


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    if y != 0:
        assert (x / y) * y == x


@settings(max_examples=60, deadline=None)
@given(elements)
def test_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-12:
        assert x.sign() == (1 if f > 0 else -1)
    assert math.isclose(float(abs(x)), abs(f), abs_tol=1e-12)
