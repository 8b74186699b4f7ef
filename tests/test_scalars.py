import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvar.linalg_exact import PairMatrix
from coxvar.scalars import SQRT2, QSqrt2, format_scalar, parse_scalar


def test_basic_arithmetic():
    x = QSqrt2(1, 1)
    y = QSqrt2(Fraction(1, 2), -1)
    assert x + y == QSqrt2(Fraction(3, 2), 0)
    assert x * SQRT2 == QSqrt2(2, 1)
    assert SQRT2 * SQRT2 == 2
    assert (x - x) == 0


def test_division_and_inverse():
    x = QSqrt2(1, 1)
    assert x * (1 / x) == 1
    assert (QSqrt2(2) / SQRT2) == SQRT2
    with pytest.raises(ZeroDivisionError):
        _ = QSqrt2(1) / QSqrt2(0, 0)


def test_rational_operands_combine_on_either_side():
    x = QSqrt2(Fraction(1, 3), 2)
    assert 1 - x == QSqrt2(Fraction(2, 3), -2)
    assert x - 1 == QSqrt2(Fraction(-2, 3), 2)
    assert Fraction(1, 2) * x == x * Fraction(1, 2) == QSqrt2(Fraction(1, 6), 1)
    assert 2 / SQRT2 == SQRT2 and SQRT2 / 2 == QSqrt2(0, Fraction(1, 2))
    assert True + x == x + 1 and x * False == 0
    assert 3 + x == x + 3 == QSqrt2(Fraction(10, 3), 2)


@pytest.mark.parametrize("other", [0.5, 1.0, "1"], ids=["float", "integral-float", "str"])
def test_other_operands_are_refused(other):
    x = QSqrt2(1, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)


def test_equality_with_other_operands():
    assert (QSqrt2(1) == 0.5) is False
    assert (QSqrt2(1) == 1.0) is False  # a float is not read as an exact value
    assert (QSqrt2(1) == 1) is True and (1 == QSqrt2(1)) is True
    assert (QSqrt2(1) == Fraction(2, 2)) is True and (QSqrt2(1) != "1") is True


def _pell(n):
    """(a, b) with a + b sqrt2 = (1 + sqrt2)^n, so a^2 - 2 b^2 = (-1)^n: a - b sqrt2
    has that sign but lies within 1/(2b) of 0, far below the float resolution of a."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = a + 2 * b, a + b
    return a, b


def test_sign_and_comparisons():
    # the exact order of Q(sqrt 2) is PairMatrix.sign, entry by entry
    a, b = _pell(81)  # a, b past 2**62: Python-int arrays
    assert a > 2 ** 62 and a * a - 2 * b * b == -1
    x = PairMatrix.of([SQRT2 - 1, SQRT2 - Fraction(3, 2),
                       QSqrt2(1, Fraction(-1, 2)),   # 1 - sqrt2/2 > 0
                       QSqrt2(-1, Fraction(3, 4)),   # 3 sqrt2/4 > 1
                       QSqrt2(3, -2),                # 3 > 2 sqrt2 ~ 2.83
                       QSqrt2(2, -2), 0, QSqrt2(a, -b), QSqrt2(-a, b)])
    assert x.a.dtype == object
    assert x.sign().tolist() == [1, -1, 1, 1, 1, -1, 0, -1, 1]
    assert abs(x).item(5) == QSqrt2(-2, 2)
    assert abs(x).item(7) == QSqrt2(-a, b)
    assert PairMatrix.of(QSqrt2(a, -b)).sign() == -1  # one entry: a 0-d object array


def _decimal_sign(a, b):
    """The sign of a + b sqrt2 from 200 significant digits: far more than
    integers below 2**90 need, since |a + b sqrt2| >= 1 / |a - b sqrt2| then."""
    with localcontext() as ctx:
        ctx.prec = 200
        value = Decimal(a) + Decimal(b) * Decimal(2).sqrt()
    return (value > 0) - (value < 0)


_INT64 = st.integers(-2 ** 62 + 1, 2 ** 62 - 1) | st.integers(-3, 3)
_BIG = st.integers(-2 ** 90, 2 ** 90) | st.integers(-3, 3)


@st.composite
def _pairs(draw, ints):
    """(a, b) pairs: random, exactly zero, or a within 1 of -b sqrt2."""
    b = draw(ints)
    kind = draw(st.sampled_from(["random", "zero", "near"]))
    if kind == "zero":
        return 0, 0
    if kind == "near":
        return -isqrt(2 * b * b) * (1 if b >= 0 else -1) + draw(st.integers(-1, 1)), b
    return draw(ints), b


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([_INT64, _BIG]).flatmap(lambda ints: st.lists(_pairs(ints), min_size=1,
                                                                       max_size=12)))
def test_sign_matches_decimal_reference(pairs):
    a, b = (np.array(v, dtype=np.int64 if max(map(abs, v)) < 2 ** 62 else object)
            for v in zip(*pairs))
    m = PairMatrix(a, b)
    assert m.sign().tolist() == [_decimal_sign(x, y) for x, y in pairs]
    assert m.sign().dtype == np.int64
    assert PairMatrix(a[0], b[0]).sign() == _decimal_sign(*pairs[0])


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


@pytest.mark.parametrize("text", ["--1", "1+", "*sqrt2", "2*", "+", "1+2+3", "1/2/3",
                                  "sqrt2*2", ""])
def test_parse_refuses_stray_operators(text):
    # the whole string must be one or two signed terms: nothing is skipped
    with pytest.raises(ValueError):
        parse_scalar(text)


@pytest.mark.parametrize("text, value", [
    ("2sqrt2", QSqrt2(0, 2)),
    ("1/2*sqrt2+3", QSqrt2(3, Fraction(1, 2))),
    ("sqrt2+sqrt2", QSqrt2(0, 2)),
    ("+sqrt2", SQRT2),
    ("1 / 2", QSqrt2(Fraction(1, 2))),
    ("1+2", QSqrt2(3)),
])
def test_parse_grammar_values(text, value):
    assert parse_scalar(text) == value


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
@given(st.lists(elements, min_size=1, max_size=6))
def test_sign_matches_float(xs):
    m = PairMatrix.of(xs)
    f = np.asarray(m, dtype=float)
    sign = m.sign()
    for k, x in enumerate(xs):
        if x == 0:
            assert sign[k] == 0
        elif abs(f[k]) > 1e-12:
            assert sign[k] == (1 if f[k] > 0 else -1)
    assert np.allclose(np.asarray(abs(m), dtype=float), np.abs(f), rtol=0, atol=1e-12)
    assert sign.shape == (len(xs),) and m[0].sign().shape == ()
