"""Differential tests of the dense kernels in modforms.polys against sympy.Poly
over QQ, plus square-and-multiply against repeated multiplication, and of the
integer Bareiss solve, inverse, rank, matrix product and charpoly against
sympy.Matrix; the rank over a quadratic field is checked against the
Gauss-Jordan loop it replaced, itself checked against sympy's rref. The
integer charpoly, the integer path of the product over Q, the Newton series
inverse and the Bareiss extended gcd are also checked against the Fraction
Faddeev-LeVerrier loop, the Fraction product loop, the coefficient
recurrence and the Euclidean loop they replaced, the number-field reduction
against sympy.rem and the former zeta-power embedding loop, and the
trace-form discriminant against sympy and the Sylvester determinant it
replaced (itself checked against sympy's res_q). The Horner evaluation
kernel is checked against sympy, the former private loops of
roots.aberth_roots and RatPoly.evaluate, and mpmath.polyval. The Krylov
Hecke eigenvector is checked against the Gauss-Jordan kernel over the Hecke
field (itself checked against sympy's nullspace), and cyclotomic polynomials
against sympy.cyclotomic_poly."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import res_q

from modforms.forms import cusp_dim
from modforms.hecke import certified_charpoly, charpoly, hecke_field, hecke_matrix
from modforms.linalg import (
    charpoly_rational, invert_rational, kernel_vector, mat_mul, rank, weighted_sum,
)
from modforms.numfield import QQ, NumberField, cyclotomic_field, embed_cyclotomic
from modforms.polys import (
    RatPoly,
    _binary_power,
    _dense_divmod,
    _dense_eval,
    _dense_gcd,
    _dense_mul,
    _dense_trim,
    bareiss_solve,
    clear_denominators,
    cyclotomic_polynomial,
    discriminant,
    poly_xgcd,
)
from modforms.qseries import QSeries
from test_certificates import _direct_patterns

X = sympy.Symbol("x")

small_fractions = st.fractions(min_value=-7, max_value=7, max_denominator=5)
# dense operands, possibly empty and possibly carrying trailing zeros
padded_coeffs = st.tuples(
    st.lists(small_fractions, min_size=0, max_size=7), st.integers(0, 3)
).map(lambda t: t[0] + [Fraction(0)] * t[1])


# rational or integer polynomials of degree at most 8 (or zero), with zero
# constant terms (powers of x) and trailing zero padding
sylvester_coeffs = st.tuples(
    st.integers(0, 3),
    st.one_of(
        st.lists(small_fractions, min_size=0, max_size=9),
        st.lists(st.integers(-30, 30).map(Fraction), min_size=0, max_size=9),
    ),
    st.integers(0, 3),
).map(lambda t: ([Fraction(0)] * t[0] + t[1])[:9] + [Fraction(0)] * t[2])


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


# divisors with interior zeros, whose division step skips those coefficients:
# sparse lists with a nonzero top, and cyclotomic polynomials
sparse_divisors = st.one_of(
    st.tuples(
        st.lists(st.one_of(st.just(Fraction(0)), small_fractions), max_size=9),
        small_fractions.filter(bool),
    ).map(lambda t: t[0] + [t[1]]),
    st.integers(1, 60).map(lambda m: list(cyclotomic_polynomial(m).coeffs)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(padded_coeffs, st.lists(small_fractions, max_size=40)),
    st.one_of(padded_coeffs, sparse_divisors),
)
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


def euclid_xgcd(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly, RatPoly]:
    """The former extended Euclidean loop over RatPoly, kept as the oracle."""
    r0, r1 = a, b
    u0, u1 = RatPoly([1]), RatPoly([])
    v0, v1 = RatPoly([]), RatPoly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    inv = 1 / r0.lead
    return r0 * inv, u0 * inv, v0 * inv


@settings(max_examples=200, deadline=None)
@given(padded_coeffs, padded_coeffs, padded_coeffs)
def test_poly_xgcd_matches_sympy_and_euclid(a, b, common):
    # a common factor of positive degree makes the operands share a factor;
    # zero, constant and zero-padded operands come from the strategy itself
    common = _dense_trim(common)
    if common:
        a, b = _dense_mul(a, common, Fraction(0)), _dense_mul(b, common, Fraction(0))
    expected_gcd = RatPoly(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
    a, b = RatPoly(a), RatPoly(b)
    g, u, v = poly_xgcd(a, b)
    assert g == expected_gcd
    assert u * a + v * b == g
    # the least-degree pair; no such pair exists when a or b is zero or when
    # a and b are both constant multiples of g
    if not a.is_zero() and not b.is_zero() and max(a.degree, b.degree) > g.degree:
        assert u.degree < b.degree - g.degree
        assert v.degree < a.degree - g.degree
    assert (g, u, v) == euclid_xgcd(a, b)


def reduction_fields() -> list[NumberField]:
    """Q(zeta_m) for m <= 30 and the Hecke fields of four weights."""
    fields = [cyclotomic_field(m) for m in range(1, 31)]
    for k in (24, 36, 48, 96):
        _, cp, cert = certified_charpoly(k)
        fields.append(NumberField(cp, cert))
    return fields


def test_number_field_inverse_on_cyclotomic_and_hecke_fields():
    rng = random.Random(30)
    for K in reduction_fields():
        elements = [K.gen(), K.one() + K.gen()]
        for _ in range(3):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(K.degree)]
            elements.append(K.element(coords))
        for x in elements:
            if x.is_zero():
                continue
            inv = x.inverse()
            assert x * inv == K.one()
            assert inv == K.from_poly(euclid_xgcd(RatPoly(x.coords), K.modulus)[1].coeffs)


def test_dense_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _dense_divmod([Fraction(1)], [])


small_ints = st.lists(st.integers(-50, 50), min_size=0, max_size=9)


@settings(max_examples=200, deadline=None)
@given(small_ints, small_ints)
def test_dense_divmod_by_a_monic_int_divisor_stays_in_zz(a, b):
    # a monic divisor needs no inverse, so ints divide over ZZ with no float
    b = b + [1]
    quot, rem = _dense_divmod(a, b)
    assert all(type(c) is int for c in quot + rem)
    zz = lambda c: sympy.Poly(list(reversed(c)) or [0], X, domain=sympy.ZZ)
    sq, sr = sympy.div(zz(a), zz(b))
    assert quot == _dense_trim([int(c) for c in reversed(sq.all_coeffs())])
    assert rem == _dense_trim([int(c) for c in reversed(sr.all_coeffs())])


def test_number_field_reduction_matches_sympy_rem():
    rng = random.Random(9)
    rand = lambda n: [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(n)]
    for K in reduction_fields():
        d, modulus = K.degree, to_sympy(K.modulus.coeffs)
        for n in range(3 * d + 2):  # polynomials of degree up to 3d
            coeffs = rand(n)
            expected = from_sympy(sympy.rem(to_sympy(coeffs), modulus))
            assert K.from_poly(coeffs).coords == tuple(expected + [0] * (d - len(expected)))
        for _ in range(4):
            x, y = K.element(rand(d)), K.element(rand(d))
            expected = from_sympy(sympy.rem(to_sympy(x.coords) * to_sympy(y.coords), modulus))
            assert (x * y).coords == tuple(expected + [0] * (d - len(expected)))


def zeta_pow_embedding(x, target):
    """The former embed_cyclotomic loop, one zeta power per coordinate, kept
    as the oracle."""
    step = target.zeta_order // x.parent.zeta_order
    out = target.zero()
    for j, c in enumerate(x.coords):
        if c != 0:
            out = out + target.zeta_pow(j * step) * c
    return out


def test_embed_cyclotomic_matches_the_zeta_pow_loop():
    rng = random.Random(12)
    for M in range(1, 31):
        target = cyclotomic_field(M)
        for m in (m for m in range(1, M + 1) if M % m == 0):
            source = cyclotomic_field(m)
            for _ in range(3):
                coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(source.degree)]
                x = source.element(coords)
                assert embed_cyclotomic(x, target) == zeta_pow_embedding(x, target)


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


def gauss_jordan_rref(m, zero, one) -> list[int]:
    """Bring the rows of m to reduced row echelon form in place; returns the
    pivot columns. The Fraction Gauss-Jordan loop that every inverse, echelon
    basis and Hankel rank went through before the integer Bareiss solve and
    the rank, kept as the oracle."""
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        pivot = next((r for r in range(row, len(m)) if not m[r][col] == zero), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = one / m[row][col]
        m[row] = [inv * x for x in m[row]]
        for r in range(len(m)):
            if r != row and not m[r][col] == zero:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    return pivots


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_gauss_jordan_rref_matches_sympy_rref(m):
    work = [row[:] for row in m]
    pivots = gauss_jordan_rref(work, Fraction(0), Fraction(1))
    rref, sympy_pivots = to_sympy_matrix(m).rref()
    assert work == from_sympy_matrix(rref)
    assert pivots == list(sympy_pivots)


@st.composite
def integer_systems(draw):
    """Integer rows [A | B], A of 1..6 rows with entries in -9..9 (zeros
    frequent, a dependent last row when the flag is set), B of 1..3 columns."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n + r, max_size=n + r), min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        rows[-1][:n] = [x - 2 * y for x, y in zip(rows[0][:n], rows[1][:n])]
    return rows


@settings(max_examples=200, deadline=None)
@given(integer_systems())
def test_bareiss_solve_matches_sympy(m):
    n = len(m)
    a = sympy.Matrix([row[:n] for row in m])
    b = sympy.Matrix([row[n:] for row in m])
    D, w = bareiss_solve([row[:] for row in m])
    assert D == a.det()
    if D == 0:
        assert w is None
    else:
        assert a * sympy.Matrix(w) == D * b
        assert all(type(x) is int for row in w for x in row)


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_rank_matches_sympy_over_q(m):
    copy = [row[:] for row in m]
    assert rank(m, Fraction(0), Fraction(1)) == to_sympy_matrix(m).rank()
    assert m == copy


def test_rank_matches_the_gauss_jordan_oracle_over_a_quadratic_field():
    K = NumberField(RatPoly([-5, 0, 1]))  # Q(sqrt 5)
    rng = random.Random(25)
    ranks = set()
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [
            [K.element([rng.choice([0, 0, 1, -2, Fraction(1, 3)]) for _ in range(2)])
             for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows >= 3 and rng.random() < 0.5:
            # a dependent last row over K, not over Q
            m[-1] = [x * K.gen() + y for x, y in zip(m[0], m[1])]
        expected = len(gauss_jordan_rref([row[:] for row in m], K.zero(), K.one()))
        assert rank(m, K.zero(), K.one()) == expected
        ranks.add((expected, min(rows, cols)))
    assert any(r < full for r, full in ranks)


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
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda t: st.tuples(_matrices(t[0], t[1]), _matrices(t[1], t[2]))
    )
)
def test_mat_mul_matches_sympy(ab):
    a, b = ab
    assert mat_mul(a, b) == from_sympy_matrix(to_sympy_matrix(a) * to_sympy_matrix(b))


def fraction_charpoly(a) -> RatPoly:
    """The Faddeev-LeVerrier loop on Fractions that charpoly_rational ran
    before its integer path, kept as the oracle."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        if k > 1:
            shifted = [
                [mk[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            mk = mat_mul(a, shifted)
        coeffs[n - k] = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
    return RatPoly(coeffs)


@st.composite
def charpoly_matrices(draw):
    """Square rational matrices of 1..6 rows with one entry t + 1/e, e >= 2, so
    the integer path always scales by a D > 1."""
    m = draw(st.integers(1, 6).flatmap(lambda n: _matrices(n, n)))
    i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
    m[i][j] = draw(st.integers(-7, 7)) + Fraction(1, draw(st.integers(2, 12)))
    return m


@settings(max_examples=150, deadline=None)
@given(charpoly_matrices())
def test_charpoly_rational_matches_sympy_and_the_fraction_loop(m):
    cp = charpoly_rational(m)
    assert cp == fraction_charpoly(m)
    expected = to_sympy_matrix(m).charpoly(X).all_coeffs()[::-1]
    assert list(cp.coeffs) == [Fraction(int(x.p), int(x.q)) for x in expected]


def test_certified_charpoly_160_matches_the_fraction_loop_and_direct_patterns():
    matrix, cp, cert = certified_charpoly(160)
    assert cp == fraction_charpoly([list(row) for row in matrix.entries])
    assert cert.is_irreducible
    assert cert.patterns == _direct_patterns(cp, len(cert.patterns))


def gauss_jordan_kernel_vector(a, field):
    """One nonzero kernel vector of a matrix over a field, from its first free
    column; raises when the kernel is trivial. The Gauss-Jordan solve over the
    Hecke field that the rational eigenvector solve replaced."""
    n = len(a[0])
    m = [row[:] for row in a]
    zero, one = field.zero(), field.one()
    pivots = gauss_jordan_rref(m, zero, one)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        raise ValueError("trivial kernel")
    v = [zero] * n
    v[free] = one
    for r, pc in enumerate(pivots):
        v[pc] = -m[r][free]
    return v


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_kernel_vector_matches_sympy_nullspace(m):
    nullspace = to_sympy_matrix(m).nullspace()
    if not nullspace:
        with pytest.raises(ValueError, match="trivial kernel"):
            gauss_jordan_kernel_vector(m, QQ)
        return
    v = gauss_jordan_kernel_vector(m, QQ)
    assert any(x != 0 for x in v)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    # the first free column gives sympy's first nullspace basis vector
    assert v == [row[0] for row in from_sympy_matrix(nullspace[0])]


@pytest.mark.parametrize(
    "k", [k for k in range(24, 101, 2) if cusp_dim(k) >= 2] + [118, 132, 160]
)
def test_krylov_eigenvector_matches_the_gauss_jordan_kernel(k):
    matrix, field = hecke_field(k)
    x = field.gen()
    t_minus_x = [
        [field.coerce(e) - (x if i == j else field.zero()) for j, e in enumerate(row)]
        for i, row in enumerate(matrix.entries)
    ]
    w = kernel_vector(matrix.entries, field)
    assert w[0] == field.one()
    assert all(weighted_sum(row, w, field.zero()) == 0 for row in t_minus_x)
    v = gauss_jordan_kernel_vector(t_minus_x, field)
    v0 = v[0].inverse()
    assert w == [v0 * y for y in v]


def test_cyclotomic_polynomial_matches_sympy():
    for m in [*range(1, 301), 714, 2310]:
        expected = sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(m).coeffs) == [Fraction(int(c)) for c in expected]


# ---------------------------------------------------------------------------
# The product over Q on integer numerators, and the Newton series inverse
# ---------------------------------------------------------------------------


def fraction_loop_mul(a, b, n=None):
    """The generic Fraction loop that _dense_mul ran over Q before clearing
    denominators; kept as the oracle for the integer path."""
    if not a or not b:
        return []
    m = len(a) + len(b) - 1
    if n is not None:
        m = min(m, n)
    out = [Fraction(0)] * m
    for i, x in enumerate(a[:m]):
        if x == 0:
            continue
        for j, y in enumerate(b[: m - i]):
            out[i + j] = out[i + j] + x * y
    return out


# numerators up to about 10^40 over denominators up to about 10^6: coprime
# primes (so the lcm grows), shared small factors, and arbitrary values
big_denominators = st.one_of(
    st.sampled_from([1, 2, 3, 4, 7, 12, 691, 3617, 43867, 999983, 10**6]),
    st.integers(1, 10**6),
)
big_entries = st.one_of(
    st.just(Fraction(0)),
    st.just(0),
    st.integers(-(10**40), 10**40),
    st.builds(Fraction, st.integers(-(10**40), 10**40), big_denominators),
)
big_operands = st.one_of(
    st.lists(big_entries, min_size=0, max_size=12),
    st.integers(1, 6).map(lambda k: [Fraction(0)] * k),
    st.tuples(st.lists(big_entries, min_size=1, max_size=8), st.integers(1, 4)).map(
        lambda t: t[0] + [0] * t[1]
    ),
)


@settings(max_examples=300, deadline=None)
@given(big_operands, big_operands, st.data())
def test_rational_dense_mul_matches_fraction_loop_and_sympy(a, b, data):
    full = len(a) + len(b) - 1
    n = data.draw(st.one_of(st.none(), st.integers(1, max(full, 1))))
    out = _dense_mul(a, b, Fraction(0), n)
    assert out == fraction_loop_mul(a, b, n)
    for c in out:
        assert type(c) is Fraction
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
    expected = from_sympy(to_sympy([Fraction(x) for x in a]) * to_sympy([Fraction(x) for x in b]))
    assert _dense_trim(out) == _dense_trim(expected[: len(out)])


def recurrence_inverse(f: QSeries) -> list:
    """The coefficient recurrence that QSeries.inverse ran before Newton
    iteration; kept as the oracle."""
    inv0 = 1 / f.coeffs[0]
    out = [inv0]
    for n in range(1, f.prec):
        s = f.field.zero()
        for i in range(1, n + 1):
            ai = f.coeffs[i]
            if ai == 0:
                continue
            s = s + ai * out[n - i]
        out.append(-inv0 * s)
    return out


def pentagonal(prec: int, a0) -> list:
    """a0 * prod (1 - q^n) by Euler's pentagonal theorem: sparse, entries +-a0."""
    coeffs = [0] * prec
    m = 0
    while m * (3 * m - 1) // 2 < prec:
        for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if e < prec:
                coeffs[e] = (-1) ** m * a0
        m += 1
    return coeffs


def check_inverse_against_recurrence(field, coeffs, precs):
    oracle = recurrence_inverse(QSeries(field, coeffs, max(precs)))
    for prec in precs:
        assert QSeries(field, coeffs, prec).inverse().coeffs == oracle[:prec]


@pytest.mark.parametrize("a0", [1, -1, 3, Fraction(7, 2)])
def test_newton_inverse_matches_recurrence_over_qq(a0):
    dense = [a0] + [Fraction((5 * i) % 11 - 5, i % 3 + 1) for i in range(1, 80)]
    for coeffs in (pentagonal(80, a0), dense):
        check_inverse_against_recurrence(QQ, coeffs, range(1, 81))


def test_newton_inverse_matches_recurrence_over_a_quadratic_field():
    K = NumberField(RatPoly([-5, 0, 1]))
    a0 = K.element([Fraction(1, 2), Fraction(1, 2)])  # the golden ratio
    dense = [a0] + [K.element([i % 3 - 1, Fraction(i % 4, 3)]) for i in range(1, 80)]
    # every prec up to 17 and both sides of the doublings at 32 and 64; the
    # doubling schedule itself does not depend on the field and is checked at
    # every prec up to 80 over QQ
    precs = [*range(1, 18), 31, 32, 33, 63, 64, 65, 80]
    for coeffs in (pentagonal(80, K.gen()), dense):
        check_inverse_against_recurrence(K, coeffs, precs)


def test_newton_inverse_of_a_non_unit_raises():
    K = NumberField(RatPoly([-5, 0, 1]))
    for field in (QQ, K):
        for prec in (1, 2, 9):
            with pytest.raises(ZeroDivisionError):
                QSeries(field, [0, 1, 1], prec).inverse()


def sympy_fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def sylvester_resultant(p: RatPoly, q: RatPoly) -> Fraction:
    """Res(p, q) over Q as the integer Bareiss determinant of the Sylvester
    matrix: the route polys.discriminant took before the trace form."""
    if p.is_zero() or q.is_zero():
        return Fraction(0)
    dp, dq = p.degree, q.degree
    ap, pi = clear_denominators(p.coeffs)
    aq, qi = clear_denominators(q.coeffs)
    n = dp + dq
    rows = [[0] * i + pi[::-1] + [0] * (n - dp - 1 - i) for i in range(dq)]
    rows += [[0] * i + qi[::-1] + [0] * (n - dq - 1 - i) for i in range(dp)]
    return Fraction(bareiss_solve(rows)[0], ap**dq * aq**dp)


def sylvester_discriminant(p: RatPoly) -> Fraction:
    """disc(p) = (-1)^(d(d-1)/2) Res(p, p') / lead(p), for degree d >= 1."""
    d = p.degree
    derivative = RatPoly([i * c for i, c in enumerate(p.coeffs)][1:])
    return (-1) ** (d * (d - 1) // 2) * sylvester_resultant(p, derivative) / p.lead


@settings(max_examples=200, deadline=None)
@given(sylvester_coeffs, sylvester_coeffs)
def test_resultant_matches_sympy(a, b):
    """The Sylvester oracle against sympy's subresultant PRS over Q.
    sympy.resultant itself is not the oracle: it drops a sign when the second
    operand has a zero constant term (sympy 1.14 gives resultant(x + 1, x**3)
    = 1; the Sylvester determinant is -1)."""
    p, q = RatPoly(a), RatPoly(b)
    if p.is_zero() or q.is_zero():
        expected = Fraction(0)  # sympy.resultant's convention; res_q raises
    else:
        expected = sympy_fraction(res_q(to_sympy(a).as_expr(), to_sympy(b).as_expr(), X))
    assert sylvester_resultant(p, q) == expected


nonzero_leads = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)


@settings(max_examples=300, deadline=None)
@given(sylvester_coeffs, nonzero_leads, sylvester_coeffs, st.booleans())
def test_discriminant_matches_sylvester(a, lead, c, square):
    """Non-monic and negative leads, and a squared factor (a vanishing
    discriminant) in half the cases."""
    p = RatPoly((a[:8] or [0]) + [lead])
    if square:
        f = RatPoly((c[:2] or [0]) + [lead])
        p = p * f * f
    assert discriminant(p) == sylvester_discriminant(p)


@pytest.mark.parametrize("k", [100, 132, 160, 200])
def test_discriminant_of_the_t2_charpoly_matches_sylvester(k):
    cp = charpoly(hecke_matrix(2, k))
    assert cp.degree >= 8
    assert discriminant(cp) == sylvester_discriminant(cp)


@settings(max_examples=200, deadline=None)
@given(sylvester_coeffs, sylvester_coeffs, st.booleans())
def test_discriminant_matches_sympy(a, c, square):
    # a squared factor makes vanishing discriminants common rather than rare
    if square:
        a = _dense_mul(a[:5], _dense_mul(c[:3], c[:3], Fraction(0)), Fraction(0))
    p = RatPoly(a)
    if p.degree < 1:
        with pytest.raises(ValueError):
            discriminant(p)
        return
    assert discriminant(p) == sympy_fraction(sympy.discriminant(to_sympy(a)))


# ---------------------------------------------------------------------------
# The evaluation kernel against sympy and the loops it replaced
# ---------------------------------------------------------------------------

eval_coeffs = st.one_of(
    st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=13),
    st.lists(small_fractions, min_size=0, max_size=13),
)


@settings(max_examples=300, deadline=None)
@given(eval_coeffs, st.one_of(st.integers(-9, 9), small_fractions))
@example([], 3)
@example([Fraction(5, 2)], Fraction(-1, 3))
@example(list(range(-6, 7)), 2)
def test_dense_eval_matches_sympy(coeffs, x):
    """Empty, constant and degree up to 12, on int and Fraction coefficients."""
    value = to_sympy([Fraction(c) for c in coeffs]).eval(sympy.Rational(x.numerator, x.denominator))
    assert _dense_eval(coeffs, x) == sympy_fraction(value)


def former_aberth_val(z: complex, poly) -> complex:
    """The Horner loop roots.aberth_roots kept privately, kept as the oracle."""
    acc = 0j
    for c in reversed(poly):
        acc = acc * z + c
    return acc


def test_dense_eval_matches_the_former_aberth_loop_on_complex_doubles():
    rng = random.Random(21)
    rand = lambda: complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
    for n in range(14):
        cs = [rand() for _ in range(n)]
        for z in (rand(), complex(rng.uniform(-1, 1)), 0j, -0.0 + 0j):
            assert _dense_eval(cs, z) == former_aberth_val(z, cs)


def former_ratpoly_evaluate(coeffs, x):
    """The loop RatPoly.evaluate carried, kept as the oracle."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_dense_eval_matches_the_former_ratpoly_loop_at_number_field_elements():
    rng = random.Random(22)
    rand = lambda n: [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    for K in reduction_fields()[::3]:
        for n in (0, 1, 2, 5, 9):
            p = RatPoly(rand(n))
            x = K.element(rand(K.degree))
            assert p.evaluate(x) == former_ratpoly_evaluate(p.coeffs, x)
            assert _dense_eval(p.coeffs, x) == former_ratpoly_evaluate(p.coeffs, x)
        # a Hecke field's generator is a root of its modulus
        assert K.modulus.evaluate(K.gen()) == K.zero()


def test_dense_eval_equals_mpmath_polyval_at_200_bits():
    """Equal, not close: the same products and sums in the same order."""
    rng = random.Random(23)
    with mpmath.workprec(200):
        rand = lambda: mpmath.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) / 7
        for n in range(1, 14):
            for coeffs in ([rand() for _ in range(n)], [rand().real for _ in range(n)]):
                x = rand()
                assert _dense_eval(coeffs, x) == mpmath.polyval(coeffs[::-1], x)
