"""Differential tests of the dense kernels in modforms.polys against sympy.Poly
over QQ, plus square-and-multiply against repeated multiplication, and of the
row reduction in modforms.linalg against sympy.Matrix.rref."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modforms.linalg import invert_rational, kernel_vector, row_reduce
from modforms.numfield import QQ, NumberField
from modforms.polys import (
    RatPoly,
    _binary_power,
    _dense_divmod,
    _dense_gcd,
    _dense_mul,
    _dense_trim,
)
from modforms.qseries import QSeries

X = sympy.Symbol("x")

small_fractions = st.fractions(min_value=-7, max_value=7, max_denominator=5)
# dense operands, possibly empty and possibly carrying trailing zeros
padded_coeffs = st.tuples(
    st.lists(small_fractions, min_size=0, max_size=7), st.integers(0, 3)
).map(lambda t: t[0] + [Fraction(0)] * t[1])


def to_sympy(coeffs) -> sympy.Poly:
    rationals = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return sympy.Poly(rationals or [0], X, domain=sympy.QQ)


def from_sympy(poly: sympy.Poly) -> list[Fraction]:
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return _dense_trim(coeffs)


@settings(max_examples=200, deadline=None)
@given(padded_coeffs, padded_coeffs)
def test_dense_mul_matches_sympy(a, b):
    out = _dense_mul(a, b, Fraction(0))
    if not a or not b:
        assert out == []
    else:
        assert len(out) == len(a) + len(b) - 1
    assert _dense_trim(out) == from_sympy(to_sympy(a) * to_sympy(b))


@settings(max_examples=200, deadline=None)
@given(padded_coeffs, padded_coeffs, st.integers(1, 12))
def test_truncated_dense_mul_matches_sympy(a, b, n):
    out = _dense_mul(a, b, Fraction(0), n)
    assert len(out) == (min(n, len(a) + len(b) - 1) if a and b else 0)
    full = from_sympy(to_sympy(a) * to_sympy(b))
    assert _dense_trim(out) == _dense_trim(full[:n])


@settings(max_examples=200, deadline=None)
@given(padded_coeffs, padded_coeffs)
def test_dense_divmod_matches_sympy(a, b):
    b = _dense_trim(b)
    assume(b)
    quot, rem = _dense_divmod(a, b)
    sq, sr = sympy.div(to_sympy(a), to_sympy(b))
    assert quot == from_sympy(sq)
    assert rem == from_sympy(sr)
    assert len(rem) < len(b)


@settings(max_examples=200, deadline=None)
@given(padded_coeffs, padded_coeffs, padded_coeffs)
def test_dense_gcd_matches_sympy(a, b, common):
    # a shared factor makes nontrivial gcds common rather than rare
    a = _dense_mul(a, common, Fraction(0))
    b = _dense_mul(b, common, Fraction(0))
    g = _dense_gcd(a, b)
    assert g == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))
    if g:
        assert g[-1] == 1


def test_dense_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _dense_divmod([Fraction(1)], [])


def _repeated(x, e, one):
    acc = one
    for _ in range(e):
        acc = acc * x
    return acc


def test_binary_power_quadratic_field():
    K = NumberField(RatPoly([-20468736, -1080, 1]))
    x = K.element([Fraction(2, 3), Fraction(-1, 7)])
    for e in range(34):
        assert _binary_power(x, e, K.one()) == _repeated(x, e, K.one())
        assert x**e == _repeated(x, e, K.one())


def test_binary_power_qseries():
    s = QSeries(QQ, [Fraction(1), Fraction(-2, 3), Fraction(0), Fraction(5), Fraction(1, 4)], 9)
    one = QSeries.constant(QQ, 1, 9)
    for e in range(34):
        assert _binary_power(s, e, one) == _repeated(s, e, one)
        assert s**e == _repeated(s, e, one)


def test_binary_power_skips_the_last_squaring():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for e in range(1, 34):
        calls.clear()
        assert _binary_power(3, e, 1, mul) == 3**e
        # bit_length - 1 squarings plus one product per further set bit
        assert len(calls) == (e.bit_length() - 1) + (bin(e).count("1") - 1)
    assert _binary_power(3, 0, 1, mul) == 1


# rational matrices of 1..5 rows and columns; zeros are frequent, and when
# the flag is set the last row is a combination of the first two, so singular
# and rank-deficient matrices come up often
def _matrices(rows, cols):
    entry = st.one_of(st.just(Fraction(0)), small_fractions)
    body = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)

    def dependent(t):
        m, flag = t
        if flag and len(m) >= 3:
            m[-1] = [x + 2 * y for x, y in zip(m[0], m[1])]
        return m

    return st.tuples(body, st.booleans()).map(dependent)


rational_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda rc: _matrices(*rc)
)
square_matrices = st.integers(1, 5).flatmap(lambda n: _matrices(n, n))


def to_sympy_matrix(m) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy_matrix(m: sympy.Matrix) -> list[list[Fraction]]:
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_row_reduce_matches_sympy_rref(m):
    work = [row[:] for row in m]
    pivots = row_reduce(work, Fraction(0), Fraction(1))
    rref, sympy_pivots = to_sympy_matrix(m).rref()
    assert work == from_sympy_matrix(rref)
    assert pivots == list(sympy_pivots)


@settings(max_examples=150, deadline=None)
@given(square_matrices)
def test_invert_rational_matches_sympy(m):
    a = to_sympy_matrix(m)
    if a.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            invert_rational(m)
    else:
        assert invert_rational(m) == from_sympy_matrix(a.inv())


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_kernel_vector_matches_sympy_nullspace(m):
    nullspace = to_sympy_matrix(m).nullspace()
    if not nullspace:
        with pytest.raises(ValueError, match="trivial kernel"):
            kernel_vector(m, QQ)
        return
    v = kernel_vector(m, QQ)
    assert any(x != 0 for x in v)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    # the first free column gives sympy's first nullspace basis vector
    assert v == [row[0] for row in from_sympy_matrix(nullspace[0])]

