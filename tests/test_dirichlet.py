import cmath
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modforms.arith import divisors
from modforms.dirichlet import (
    _unit_root_fixed,
    abs_embed,
    bernoulli_number,
    bernoulli_polynomial,
    characters_mod,
    compositum_field,
    galois_orbits,
    gen_bernoulli,
    induce,
    sigma_gen,
    trivial_character,
    unit_group,
)
from modforms.numfield import cyclotomic_field
from modforms.polys import _dense_eval
from modforms.qseries import QSeries
from modforms.scans import alpha_beta, finiteness_scan


def gen_bernoulli_series_oracle(kmax: int, chi) -> list:
    """Taylor coefficients of sum_a chi(a) t e^(at) / (e^(Nt) - 1), times k!.

    Independent of the closed form: exact truncated power-series division
    over the cyclotomic value field.
    """
    N = chi.modulus
    K = chi.value_field()
    prec = kmax + 1
    fact = [math.factorial(i) for i in range(prec + 1)]
    # (e^(Nt) - 1)/t has constant term N, a unit
    den = QSeries(K, [Fraction(N ** (i + 1), fact[i + 1]) for i in range(prec)], prec)
    total = QSeries.zero(K, prec)
    a_range = range(N) if N > 1 else (0,)
    for a in a_range:
        e = chi.exponent_of(a)
        if e is None:
            continue
        num = QSeries(K, [K.zeta_pow(e) * Fraction(a**i, fact[i]) for i in range(prec)], prec)
        total = total + num
    series = total * den.inverse()
    return [series.coeff(k) * fact[k] for k in range(kmax + 1)]


def gen_bernoulli_fraction_horner(k: int, chi):
    """The former closed-form evaluation, kept as the oracle: B_k(a/N) by a
    Fraction Horner for each residue a, summed in the value field."""
    N = chi.modulus
    field = chi.value_field()
    bk = bernoulli_polynomial(k)
    total = field.zero()
    for a in range(N) if N > 1 else (0,):
        e = chi.exponent_of(a)
        if e is None:
            continue
        val = bk.evaluate(Fraction(a, N))
        if val:
            total = total + field.zeta_pow(e) * val
    return total * Fraction(N) ** (k - 1)


def bernoulli_recurrence(kmax: int) -> list:
    """The former body of bernoulli_number, kept as its oracle: B_n from
    sum_{j <= n} C(n + 1, j) B_j = 0 in Fractions."""
    b = [Fraction(1)]
    for n in range(1, kmax + 1):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b


def abs_embed_mpmath(x) -> float:
    """The former body of abs_embed, kept as its oracle: a floating Horner
    in mpmath at the coordinates' bit length plus 106 bits, doubled until |x|
    clears degree * 2^-prec * max|coord| by a factor 2^64."""
    import mpmath

    m = x.parent.zeta_order
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in x.coords)
    prec = bits + 106
    while True:
        with mpmath.workprec(prec):
            coords = [mpmath.mpf(c.numerator) / c.denominator for c in x.coords]
            value = mpmath.fabs(_dense_eval(coords, mpmath.exp(2j * mpmath.pi / m)))
            if value >= mpmath.ldexp(len(coords) * max(map(mpmath.fabs, coords)), 64 - prec):
                return float(value)
        prec *= 2


def odd_character_mod4():
    return next(c for c in characters_mod(4) if c.parity() == -1)


def test_characters_mod_counts():
    assert len(characters_mod(8)) == 4
    chars1 = characters_mod(1)
    assert len(chars1) == 1 and chars1[0].is_trivial()
    chars4 = characters_mod(4)
    assert len(chars4) == 2
    odd = odd_character_mod4()
    assert odd.rational_value(3) == -1
    assert odd.rational_value(2) == 0


def test_multiplicativity_exhaustive():
    for N in range(1, 25):
        for chi in characters_mod(N):
            K = chi.value_field()
            for a in range(1, N + 1):
                for b in range(1, N + 1):
                    lhs = chi.value_in(K, a * b)
                    rhs = chi.value_in(K, a) * chi.value_in(K, b)
                    assert lhs == rhs


def test_orthogonality_exhaustive():
    for N in range(1, 25):
        for chi in characters_mod(N):
            K = chi.value_field()
            total = K.zero()
            for n in range(N):
                total = total + chi.value_in(K, n)
            if chi.is_trivial():
                assert total == unit_group(N).phi
            else:
                assert total.is_zero()


def test_conductor_examples():
    assert trivial_character(6).conductor() == 1
    odd = odd_character_mod4()
    assert odd.conductor() == 4 and odd.is_primitive()
    # the mod-8 character lifted from the odd mod-4 one
    lifted = induce(odd, 8)
    assert lifted.conductor() == 4
    assert not lifted.is_primitive()
    for a in (1, 3, 5, 7):
        assert lifted.rational_value(a) == odd.rational_value(a)


def test_parity():
    assert trivial_character(1).parity() == 1
    assert odd_character_mod4().parity() == -1
    assert [chi.parity() for chi in characters_mod(1) + characters_mod(2)] == [1, 1]
    for N in range(1, 20):
        for chi in characters_mod(N):
            K = chi.value_field()
            assert chi.value_in(K, N - 1 if N > 1 else 1) == K.coerce(chi.parity())


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(16) == Fraction(-3617, 510)
    assert bernoulli_number(24) == Fraction(-236364091, 2730)


def test_bernoulli_numbers_match_the_recurrence():
    expected = bernoulli_recurrence(300)
    assert [bernoulli_number(k) for k in range(301)] == expected


def test_bernoulli_polynomial():
    # B_2(x) = x^2 - x + 1/6
    b2 = bernoulli_polynomial(2)
    assert b2.coeffs == (Fraction(1, 6), Fraction(-1), Fraction(1))
    # difference property: B_k(x+1) - B_k(x) = k x^(k-1) at sample points
    for k in (1, 2, 3, 5):
        bk = bernoulli_polynomial(k)
        for x in (Fraction(0), Fraction(1, 2), Fraction(3)):
            assert bk.evaluate(x + 1) - bk.evaluate(x) == k * x ** (k - 1)


def test_gen_bernoulli_matches_plain_bernoulli():
    triv = trivial_character(1)
    for k in range(2, 21):
        assert gen_bernoulli(k, triv).as_rational() == bernoulli_number(k)


def test_gen_bernoulli_matches_fraction_horner():
    # every character mod N, imprimitive ones included, at both parities of k;
    # then characters mod 101 of orders 100 and 50, whose exponent vectors are
    # longer than the degrees 40 and 20 of their value fields
    cases = [
        (chi, k)
        for N in range(1, 15)
        for chi in characters_mod(N)
        for k in (1, 2, 3, 4, 11, 12, 29, 30, 59, 60)
    ]
    large = characters_mod(101)[1:3]
    assert [chi.order for chi in large] == [100, 50]
    cases += [(chi, k) for chi in large for k in (2, 12)]
    for chi, k in cases:
        expected = gen_bernoulli_fraction_horner(k, chi)
        assert gen_bernoulli(k, chi) == expected, (chi.modulus, chi.exponents, k)


def test_gen_bernoulli_keeps_no_table_of_zeta_powers():
    # the value field is built and the memo cleared first, so what the call
    # leaves allocated is its own: a table of zeta^e for the 504 exponents of
    # an order-504 character would hold about 4 MB
    chi = characters_mod(1009)[2]
    assert chi.order == 504
    cyclotomic_field(504)
    gen_bernoulli.cache_clear()
    tracemalloc.start()
    try:
        value = gen_bernoulli(12, chi)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not value.is_zero()  # chi is even, like k
    assert held < 0.5 * 2**20, held


def test_gen_bernoulli_k1_mod4():
    odd = odd_character_mod4()
    assert gen_bernoulli(1, odd).as_rational() == Fraction(-1, 2)


def test_gen_bernoulli_k4_trivial():
    assert gen_bernoulli(4, trivial_character(1)).as_rational() == Fraction(-1, 30)


def test_parity_vanishing_exhaustive():
    for N in range(1, 13):
        for chi in characters_mod(N):
            for k in range(1, 9):
                if chi.parity() != (-1) ** k:
                    value = gen_bernoulli(k, chi)
                    if N == 1 and k == 1:
                        continue  # B_1 = -1/2 under this convention
                    assert value.is_zero(), (N, k, chi.exponents)


def test_generating_function_equivalence():
    for N in range(1, 13):
        for chi in characters_mod(N):
            oracle = gen_bernoulli_series_oracle(8, chi)
            for k in range(1, 9):
                assert gen_bernoulli(k, chi) == oracle[k], (N, k, chi.exponents)


def test_sigma_gen_examples():
    triv = trivial_character(1)
    assert sigma_gen(11, triv, triv, 2).as_rational() == 2049
    assert sigma_gen(3, triv, triv, 2).as_rational() == 9
    odd = odd_character_mod4()
    assert sigma_gen(1, triv, odd, 5).as_rational() == 6
    with pytest.raises(ValueError, match="nonnegative"):
        sigma_gen(-1, triv, triv, 2)


def sigma_gen_loop(kminus1, psi, phi, n):
    """The former divisor loop of sigma_gen, kept as its oracle: it skips a
    zero psi(n/m) before reading phi(m), then a zero phi(m)."""
    field = compositum_field(psi, phi)
    total = field.zero()
    for m in divisors(n):
        a = psi.value_in(field, n // m)
        if a.is_zero():
            continue
        b = phi.value_in(field, m)
        if b.is_zero():
            continue
        total = total + a * b * Fraction(m) ** kminus1
    return total


def test_sigma_gen_matches_the_divisor_loop():
    # (11, 13) reaches the compositum of order 60
    for N1, N2 in ((1, 1), (1, 4), (3, 1), (1, 5), (5, 3), (4, 7), (1, 13), (11, 13)):
        for psi in characters_mod(N1):
            for phi in characters_mod(N2):
                for kminus1 in (0, 2, 5):
                    for n in range(1, 31):
                        got = sigma_gen(kminus1, psi, phi, n)
                        expected = sigma_gen_loop(kminus1, psi, phi, n)
                        assert got == expected, (psi, phi, kminus1, n)
                        assert got.parent.zeta_order == expected.parent.zeta_order


def test_abs_embed():
    assert abs(abs_embed(Fraction(-691, 2730)) - 691 / 2730) < 1e-15
    C4 = cyclotomic_field(4)
    assert abs(abs_embed(C4.gen()) - 1.0) < 1e-12
    assert abs(abs_embed(C4.one() + C4.gen()) - 2**0.5) < 1e-12
    # coordinates past the 4300-digit limit of int -> str conversion
    big = 10**5000
    x = cyclotomic_field(5).element([Fraction(big + 1, big), 0, 0, 1])  # 1 + zeta_5^3
    assert abs(abs_embed(x) - abs(1 + cmath.exp(6j * math.pi / 5))) < 1e-12


def test_abs_embed_relative_error_under_cancellation():
    # phi = 1 + zeta_5 + zeta_5^4 is the golden ratio, and F(n + 1) - F(n) phi
    # = (-1/phi)^n: 63 digits cancel between coordinates of 63 digits
    import mpmath

    C5 = cyclotomic_field(5)
    phi = C5.one() + C5.gen() + C5.zeta_pow(4)
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    x = fib[301] - phi * fib[300]
    with mpmath.workdps(60):
        exact = float(((1 + mpmath.sqrt(5)) / 2) ** -300)
    assert abs(abs_embed(x) / exact - 1) < 1e-12
    assert abs_embed(C5.zero()) == 0.0
    assert abs_embed(x) == abs_embed_mpmath(x)


def test_abs_embed_matches_mpmath_on_the_finiteness_scan():
    # every alpha and beta of a benchmark finiteness job, conjugate cells included
    report = finiteness_scan(Fraction(1), Fraction(1), 30, 14)
    values = []
    for cell in report.cells:
        (phi,) = [c for c in characters_mod(cell.conductor) if c.exponents == cell.exponents]
        values.extend(alpha_beta(cell.k, phi))
    assert len(values) == 2 * len(report.cells) > 400
    assert [abs_embed(x) for x in values] == [abs_embed_mpmath(x) for x in values]


def sigma(x, a: int):
    """sigma_a(x) for x in Q(zeta_m), exactly: the substitution zeta -> zeta^a
    on x's coordinates, reduced modulo Phi_m."""
    m = x.parent.zeta_order
    spread = [Fraction(0)] * m
    for i, c in enumerate(x.coords):
        spread[i * a % m] += c
    return x.parent.element(spread)


@pytest.mark.parametrize("N", [*range(1, 41), 105, 120])
def test_galois_orbits_match_the_orbits_as_sets(N):
    chars = characters_mod(N)
    for order in (chars, chars[::-1]):
        orbit_of = {}
        for chi in order:
            units = [a for a in range(1, chi.order + 1) if math.gcd(a, chi.order) == 1]
            orbit_of[chi] = frozenset(chi**a for a in units)
        got = list(galois_orbits(order))
        assert [chi for chi, _, _ in got] == order
        for chi, rep, a in got:
            assert 1 <= a <= rep.order and math.gcd(a, rep.order) == 1
            assert chi == rep**a
            # chi(n) = rep(n)^a on every unit n, read from the values alone
            for n in range(N):
                e, f = chi.exponent_of(n), rep.exponent_of(n)
                assert (e is None) == (f is None)
                if e is not None:
                    assert e == f * a % rep.order
            assert rep == next(psi for psi in order if chi in orbit_of[psi])


def test_gen_bernoulli_is_sigma_a_of_the_orbit_representative():
    # B_{k,chi} by the former Fraction-Horner closed form against sigma_a of
    # the representative's value, and |B_{k,chi}| by mpmath against abs_embed
    # of the representative's value at a
    seen = 0
    for N in (5, 7, 11, 13, 16, 21, 25):
        primitive = [chi for chi in characters_mod(N) if chi.is_primitive()]
        for chi, rep, a in galois_orbits(primitive):
            seen += rep is not chi
            for k in (1, 2, 3, 4, 12):
                direct = gen_bernoulli_fraction_horner(k, chi)
                assert direct == sigma(gen_bernoulli(k, rep), a), (chi, k)
                assert abs_embed(gen_bernoulli(k, rep), a) == abs_embed_mpmath(direct), (chi, k)
    assert seen > 30


def test_unit_root_fixed_is_within_one_unit_on_the_whole_circle():
    import mpmath

    for m in (1, 2, 3, 5, 7, 12, 60):
        for a in range(m):
            for bits in (1, 8, 106, 424):
                c, s = _unit_root_fixed(m, a, bits)
                with mpmath.workprec(bits + 64):
                    theta = 2 * mpmath.pi * a / m
                    assert abs(c - mpmath.ldexp(mpmath.cos(theta), bits)) <= 1, (m, a, bits)
                    assert abs(s - mpmath.ldexp(mpmath.sin(theta), bits)) <= 1, (m, a, bits)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 60).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.fractions(max_denominator=50).filter(lambda c: abs(c) <= 10**6),
                min_size=cyclotomic_field(m).degree,
                max_size=cyclotomic_field(m).degree,
            ),
            st.integers(-3 * m, 3 * m).filter(lambda a: math.gcd(a, m) == 1),
        )
    )
)
def test_abs_embed_at_a_is_the_absolute_value_of_sigma_a(case):
    m, coords, a = case
    x = cyclotomic_field(m).element(coords)
    image = sigma(x, a % m)
    got = abs_embed(x, a)
    assert got == abs_embed(image) == abs_embed_mpmath(image)
    assert got == abs_embed(x, -a)


def test_abs_embed_needs_a_prime_to_the_zeta_order():
    x = cyclotomic_field(12).gen()
    for a in (0, 2, 3, 6, -4):
        with pytest.raises(ValueError):
            abs_embed(x, a)
    assert abs_embed(Fraction(-3, 4), 2) == 0.75  # a rational is fixed by every sigma_a
