import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from modforms.numfield import NumberField
from modforms.polys import (
    RatPoly,
    cyclotomic_polynomial,
    discriminant,
    factor_degrees_mod_p,
    poly_irreducible,
    poly_xgcd,
    _pdivmod,
    _pmul,
)

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
poly_coeffs = st.lists(small_fractions, min_size=0, max_size=5)


@settings(max_examples=150, deadline=None)
@given(small_fractions, small_fractions, small_fractions)
def test_rational_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a.denominator > 0  # always stored reduced with positive denominator


@settings(max_examples=150, deadline=None)
@given(poly_coeffs, poly_coeffs, poly_coeffs)
def test_ring_laws(a, b, c):
    p, q, r = RatPoly(a), RatPoly(b), RatPoly(c)
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + RatPoly([]) == p
    assert p * RatPoly([1]) == p


@settings(max_examples=100, deadline=None)
@given(poly_coeffs, poly_coeffs)
def test_divmod_contract(a, b):
    p, q = RatPoly(a), RatPoly(b)
    if q.is_zero():
        return
    quot, rem = divmod(p, q)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def test_discriminant_examples():
    assert discriminant(RatPoly([1, 0, 1])) == -4
    assert discriminant(RatPoly([-1, -1, 1])) == 5
    # cross-check 83041344 = 24^2 * 144169
    assert discriminant(RatPoly([-20468736, -1080, 1])) == 83041344
    assert 83041344 == 24**2 * 144169
    with pytest.raises(ValueError):
        discriminant(RatPoly([3]))


def test_discriminant_from_roots_oracle():
    # disc(lead * prod (x - r_i)) = lead^(2d-2) * prod_{i<j} (r_i - r_j)^2
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(2, 5)
        roots = rng.sample(range(-8, 9), d)
        lead = Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 2]))
        poly = RatPoly([lead])
        for r in roots:
            poly = poly * RatPoly([-r, 1])
        expected = lead ** (2 * d - 2)
        for i in range(d):
            for j in range(i + 1, d):
                expected *= Fraction(roots[i] - roots[j]) ** 2
        assert discriminant(poly) == expected


def test_factor_degrees_mod_p():
    assert factor_degrees_mod_p([1, 0, 1], 5) == [1, 1]
    assert factor_degrees_mod_p([1, 0, 1], 3) == [2]
    # reduce mod 7 and brute-force roots: x^2 + 5x + 6 = (x+2)(x+3)
    assert factor_degrees_mod_p([-20468736, -1080, 1], 7) == [1, 1]
    with pytest.raises(ValueError):
        factor_degrees_mod_p([1, 0, 7], 7)


def test_factor_degrees_mod_p_matches_sympy():
    # random integer P, non-monic and negative leads included, at primes q
    # dividing neither the lead nor disc(P); a unit multiple has the same pattern
    x = sympy.Symbol("x")
    rng = random.Random(29)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101]
    checked = 0
    while checked < 80:
        d = rng.randint(1, 8)
        P = [rng.randint(-30, 30) for _ in range(d)] + [rng.choice([-1, 1]) * rng.randint(1, 12)]
        disc, q = discriminant(RatPoly(P)), rng.choice(primes)
        if P[-1] % q == 0 or disc.numerator % q == 0:
            continue
        factors = sympy.Poly(P[::-1], x, modulus=q).factor_list()[1]
        expected = sorted(f.degree() for f, e in factors for _ in range(e))
        assert factor_degrees_mod_p(P, q) == expected
        u = rng.randint(1, q - 1) + q * rng.randint(-3, 3)
        assert factor_degrees_mod_p([u * c for c in P], q) == expected
        checked += 1
    with pytest.raises(ValueError, match="leading"):
        factor_degrees_mod_p([1, 2, -10], 5)
    with pytest.raises(ValueError, match="squarefree"):
        factor_degrees_mod_p([1, 2, 1], 5)  # (x + 1)^2


def test_fp_kernels_on_empty_and_short_operands():
    assert _pmul([], [1, 2], 7) == _pmul([3], [], 7) == _pmul([], [], 7) == []
    assert _pdivmod([1, 2], [1, 2, 3], 7) == ([], [1, 2])
    assert _pdivmod([], [1, 2], 7) == ([], [])


def test_factor_degrees_against_root_count():
    # number of 1s in the pattern equals the number of roots mod p
    rng = random.Random(3)
    for _ in range(40):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [1]
        poly = RatPoly(coeffs)
        p = rng.choice([3, 5, 7, 11, 13])
        disc = discriminant(poly)
        if disc == 0 or disc.numerator % p == 0:
            continue
        pattern = factor_degrees_mod_p(coeffs, p)
        assert sum(pattern) == poly.degree
        roots = sum(1 for x in range(p) if poly.evaluate(Fraction(x)).numerator % p == 0)
        assert pattern.count(1) == roots


def test_poly_irreducible_examples():
    assert poly_irreducible(RatPoly([-20468736, -1080, 1])).is_irreducible
    cert = poly_irreducible(RatPoly([-1, 0, 1]))
    assert cert.is_reducible and cert.witness_root in (1, -1)
    assert poly_irreducible(RatPoly([-2, 0, 0, 1])).is_irreducible  # x^3 - 2
    assert poly_irreducible(RatPoly([1, 0, 1])).is_irreducible
    assert poly_irreducible(RatPoly([2, 3])).is_irreducible  # degree 1


def test_poly_irreducible_never_contradicts_rational_roots():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(2, 5)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(d)] + [Fraction(1)]
        poly = RatPoly(coeffs)
        cert = poly_irreducible(poly)
        if cert.is_irreducible:
            # rational-root theorem scan must find nothing
            c0 = poly.coeffs[0]
            if c0 != 0:
                for a in range(1, abs(c0.numerator) + 1):
                    if c0.numerator % a == 0:
                        assert poly.evaluate(Fraction(a)) != 0
                        assert poly.evaluate(Fraction(-a)) != 0


def test_poly_irreducible_x4_plus_1_is_unknown():
    # x^4 + 1 factors mod every prime, so degree patterns alone cannot decide
    cert = poly_irreducible(RatPoly([1, 0, 0, 0, 1]))
    assert cert.status == "unknown"


def test_poly_irreducible_non_integral_modulus():
    # primes dividing a coefficient denominator are skipped like bad primes
    p = RatPoly([Fraction(1, 3), 0, 0, 0, 1])  # x^4 + 1/3
    cert = poly_irreducible(p)
    assert cert.is_irreducible
    assert 3 not in cert.patterns and len(cert.patterns) == 30
    # a number field needs a monic integral modulus
    with pytest.raises(ValueError):
        NumberField(p)


def test_poly_xgcd_and_gcd():
    a = RatPoly([-1, 0, 1])  # (x-1)(x+1)
    b = RatPoly([1, 1])
    g, u, v = poly_xgcd(a, b)
    assert u * a + v * b == g
    assert g == RatPoly([1, 1])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == RatPoly([-1, 1])
    assert cyclotomic_polynomial(2) == RatPoly([1, 1])
    assert cyclotomic_polynomial(4) == RatPoly([1, 0, 1])
    assert cyclotomic_polynomial(8) == RatPoly([1, 0, 0, 0, 1])
    assert cyclotomic_polynomial(12) == RatPoly([1, 0, -1, 0, 1])
    # product over divisors reconstructs x^n - 1
    for n in (6, 10, 12):
        prod = RatPoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == RatPoly([-1] + [0] * (n - 1) + [1])


def test_cyclotomic_closed_forms_at_large_index():
    # Phi_2p(x) = Phi_p(-x) for an odd prime p, and Phi_m(x) = Phi_r(x^(m/r))
    # when m and its divisor r have the same prime factors
    phi_5003 = cyclotomic_polynomial(5003).coeffs
    assert cyclotomic_polynomial(10006) == RatPoly([c * (-1) ** i for i, c in enumerate(phi_5003)])
    phi_714 = cyclotomic_polynomial(714).coeffs
    spread = [Fraction(0)] * (7 * len(phi_714) - 6)
    spread[::7] = phi_714
    assert cyclotomic_polynomial(4998) == RatPoly(spread)
