import random
from fractions import Fraction

import pytest

from modforms.forms import dim_Sk
from modforms.hecke import certified_charpoly
from modforms.numfield import (
    QQ,
    NumberField,
    cyclotomic_field,
    dedekind_index_test,
    embed_cyclotomic,
)
from modforms.polys import RatPoly, discriminant, power_sums


def quad(d):
    return NumberField(RatPoly([-d, 0, 1]))


def test_basic_arithmetic_sqrt5():
    K = quad(5)
    x = K.gen()
    assert x * x == 5
    assert x.inverse() == K.element([0, Fraction(1, 5)])
    assert x * x.inverse() == K.one()


def test_inverse_sqrt144169():
    K = quad(144169)
    x = K.gen()
    assert x.inverse() == K.element([0, Fraction(1, 144169)])


def test_mismatched_parents_rejected():
    a = quad(5).gen()
    b = quad(7).gen()
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ZeroDivisionError):
        quad(5).zero().inverse()


def test_construction_requires_certificate():
    with pytest.raises(ValueError):
        NumberField(RatPoly([-1, 0, 1]))  # x^2 - 1 reducible
    with pytest.raises(ValueError):
        NumberField(RatPoly([-2, 0, 2]))  # not monic
    with pytest.raises(ValueError, match="monic with integer coefficients"):
        NumberField(RatPoly([Fraction(-5, 4), 0, 1]), assume_irreducible=True)  # not integral


def test_hecke_charpolys_are_monic_integral_moduli():
    weights = [k for k in range(12, 101, 2) if dim_Sk(k) >= 1] + [118, 132, 146, 160]
    for k in weights:
        _, cp, cert = certified_charpoly(k)
        assert cp.is_monic() and cp.is_integral(), k
        assert NumberField(cp, cert).degree == dim_Sk(k)


def test_inverse_property_random_quadratic_fields():
    rng = random.Random(0)
    ds = [2, 3, 5, 144169, -1]
    for d in ds:
        K = quad(d)
        count = 0
        while count < 100:
            a = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)])
            if a.is_zero():
                continue
            count += 1
            assert a * a.inverse() == K.one()


def test_mul_commutative_associative():
    rng = random.Random(1)
    K = NumberField(RatPoly([-2, 0, 0, 1]))  # x^3 - 2
    for _ in range(50):
        a, b, c = (
            K.element([Fraction(rng.randint(-5, 5)) for _ in range(3)]) for _ in range(3)
        )
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_power_traces_quadratic():
    K = NumberField(RatPoly([-20468736, -1080, 1]))
    assert K.power_traces(2) == (Fraction(2), Fraction(1080))
    # Tr(x) and Tr(x^2) = (sum of roots)^2 - 2 * (product of roots)
    assert K.power_traces(3)[1] == 1080
    assert K.power_traces(3)[2] == 1080 * 1080 + 2 * 20468736


def test_power_traces_cubic_newton():
    # x^3 - 2: power sums of the three cube roots of 2 are 3, 0, 0
    assert NumberField(RatPoly([-2, 0, 0, 1])).power_traces(3) == (3, 0, 0)
    # x^3 - x - 1: e1 = 0, e2 = -1 so p2 = e1^2 - 2 e2 = 2
    assert NumberField(RatPoly([-1, -1, 0, 1])).power_traces(3) == (3, 0, 2)


def test_power_traces_past_the_degree():
    # x^3 - 2: Tr(x^(3m)) = 3 * 2^m, the other powers have trace 0
    K = NumberField(RatPoly([-2, 0, 0, 1]))
    assert K.power_traces(10) == (3, 0, 0, 6, 0, 0, 12, 0, 0, 24)
    # x^3 - x - 1: p_j = p_(j-2) + p_(j-3), the Perrin sequence
    K = NumberField(RatPoly([-1, -1, 0, 1]))
    assert K.power_traces(12) == (3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17, 22)


@pytest.mark.parametrize(
    "modulus, traces",
    [
        ([-20468736, -1080, 1], (2, 1080, 1080 * 1080 + 2 * 20468736)),
        ([-2, 0, 0, 1], (3, 0, 0, 6, 0, 0, 12, 0, 0, 24)),
        ([-1, -1, 0, 1], (3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17, 22)),
    ],
)
def test_power_sums_are_the_power_traces(modulus, traces):
    """polys.power_sums is the one Newton recurrence: power_traces calls it,
    and so does the discriminant."""
    for count in range(len(traces) + 1):
        assert power_sums(modulus, count) == traces[:count]
        assert NumberField(RatPoly(modulus)).power_traces(count) == traces[:count]


def test_rationals_answer_the_trace_form_hooks_as_the_degree_one_field():
    # Q = Q[x]/(x): its one root is 0, and an element is its own coordinate
    for count in range(6):
        assert QQ.power_traces(count) == power_sums([0, 1], count)
    assert QQ.power_traces(4) == (1, 0, 0, 0)
    assert QQ.coords(Fraction(-3, 7)) == (Fraction(-3, 7),)
    K = quad(5)
    el = K.element([Fraction(1, 2), 3])
    assert K.coords(el) == el.coords == (Fraction(1, 2), Fraction(3))


def test_power_traces_match_the_trace_of_the_power():
    """Tr(x^l) from Newton's recurrence against the trace of the matrix of
    multiplication by x^l, read column by column from the field product."""
    K = NumberField(RatPoly([7, -3, 0, 5, 1]))
    d = K.degree
    x, power = K.gen(), K.one()
    for l, t in enumerate(K.power_traces(3 * d)):
        basis = [K.element([0] * i + [1]) for i in range(d)]
        assert sum((power * b).coords[i] for i, b in enumerate(basis)) == t, l
        power = power * x


def test_conjugate_quadratic():
    K = quad(5)
    a = K.element([2, 3])
    conj = K.conjugate_quadratic(a)
    assert conj == K.element([2, -3])
    assert K.conjugate_quadratic(conj) == a
    K2 = NumberField(RatPoly([-20468736, -1080, 1]))
    x = K2.gen()
    assert K2.conjugate_quadratic(x) == 1080 - x


def test_cyclotomic_fields_and_embedding():
    C4 = cyclotomic_field(4)
    i = C4.gen()
    assert i * i == -1
    C12 = cyclotomic_field(12)
    lifted = embed_cyclotomic(i, C12)
    assert lifted == C12.zeta_pow(3)
    assert lifted * lifted == -1
    C1 = cyclotomic_field(1)
    assert C1.zeta_pow(0) == C1.one()
    C2 = cyclotomic_field(2)
    assert C2.zeta_pow(1) == -1


def test_dedekind_examples():
    # field disc of Q(sqrt(5)) is 5 while the poly disc is 20: index 2
    assert dedekind_index_test(RatPoly([-5, 0, 1]), 2) is True
    assert dedekind_index_test(RatPoly([-20468736, -1080, 1]), 2) is True
    assert dedekind_index_test(RatPoly([1, 0, 1]), 3) is False
    assert dedekind_index_test(RatPoly([1, 0, 1]), 2) is False  # Z[i] is maximal
    assert dedekind_index_test(RatPoly([-2, 0, 1]), 2) is False  # Z[sqrt(2)] maximal
    assert dedekind_index_test(RatPoly([-1, -1, 1]), 2) is False


def test_dedekind_unramified_primes_never_divide_index():
    rng = random.Random(5)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(60):
        d = rng.randint(2, 4)
        poly = RatPoly([rng.randint(-9, 9) for _ in range(d)] + [1])
        disc = discriminant(poly)
        if disc == 0:
            continue
        for q in primes:
            if disc.numerator % q:
                assert dedekind_index_test(poly, q) is False
