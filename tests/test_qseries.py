import random
from fractions import Fraction

import pytest

from modforms.numfield import QQ, NumberField
from modforms.polys import RatPoly
from modforms.qseries import QSeries


def qs(coeffs, prec=None):
    return QSeries(QQ, coeffs, prec)


def random_series(rng, prec=20):
    return qs([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(prec)])


def test_mul_examples():
    assert (qs([1, 1], 3) * qs([1, -1], 3)).coeffs == [1, 0, -1]
    e4_like = qs([1, 240, 2160], 3)
    sq = e4_like * e4_like
    assert sq.coeffs == [1, 480, 61920]


def test_mul_associative_commutative_200_triples():
    rng = random.Random(0)
    for _ in range(200):
        f, g, h = (random_series(rng) for _ in range(3))
        assert (f * g).coeffs == (g * f).coeffs
        assert ((f * g) * h).coeffs == (f * (g * h)).coeffs


def test_precision_contract():
    f = qs([1] * 10, 10)
    g = qs([2] * 7, 7)
    assert (f * g).prec == 7
    assert (f + g).prec == 7
    assert (f - g).prec == 7
    assert (f**3).prec == 10
    assert f.inverse().prec == 10


def test_inverse():
    geo = qs([1, -1], 6).inverse()
    assert geo.coeffs == [1, 1, 1, 1, 1, 1]
    assert qs([2], 2).inverse().coeffs == [Fraction(1, 2), 0]
    with pytest.raises(ZeroDivisionError):
        qs([0, 1], 3).inverse()
    rng = random.Random(1)
    for _ in range(30):
        f = random_series(rng, 12)
        if f.coeff(0) == 0:
            continue
        prod = f * f.inverse()
        assert prod.coeffs == [1] + [0] * 11


def test_pow():
    f = qs([1, 1], 3)
    assert (f**0).coeffs == [1, 0, 0]
    assert (f**2).coeffs == [1, 2, 1]
    binom = qs([1, -1], 4) ** 24
    assert binom.coeffs == [1, -24, 276, -2024]


def test_pow_additivity():
    rng = random.Random(2)
    for _ in range(20):
        f = random_series(rng, 15)
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        assert (f ** (a + b)).coeffs == (f**a * f**b).coeffs


def test_valuation():
    assert qs([0, 0, 3], 5).valuation() == 2
    assert qs([1, 1], 4).valuation() == 0
    assert QSeries.zero(QQ, 10).valuation() is None


def test_delta_unit_inverse():
    from modforms.forms import delta, eisenstein_level1

    unit = delta(31).series.shift(-1)  # Delta/q, constant term 1
    inv = unit.inverse()
    assert inv.coeffs[:3] == [1, 24, 324]
    prod = unit * inv
    assert prod.coeffs == [1] + [0] * 29
    assert eisenstein_level1(4, 5).series.valuation() == 0


def test_shift():
    f = qs([1, 2, 3], 3)
    assert f.shift(0) == f
    up = f.shift(2)
    assert up.prec == 5 and up.coeffs == [0, 0, 1, 2, 3]
    down = qs([0, 0, 1, 2], 4).shift(-2)
    assert down.prec == 2 and down.coeffs == [1, 2]
    with pytest.raises(ValueError):
        qs([1, 0], 2).shift(-1)


def test_field_mismatch_rejected():
    K = NumberField(RatPoly([-5, 0, 1]))
    f = qs([1, 2], 2)
    g = QSeries(K, [K.one()], 2)
    with pytest.raises(ValueError):
        f * g
    with pytest.raises(ValueError):
        f + g


def test_number_field_coefficients():
    K = NumberField(RatPoly([-5, 0, 1]))
    x = K.gen()
    f = QSeries(K, [K.one(), x], 3)
    sq = f * f
    assert sq.coeffs[0] == K.one()
    assert sq.coeffs[1] == 2 * x
    assert sq.coeffs[2] == K.coerce(5)
    inv = f.inverse()
    assert (f * inv).coeffs == [K.one(), K.zero(), K.zero()]


def test_as_json_round_shape():
    f = qs([1, Fraction(1, 2)], 2)
    payload = f.as_json()
    assert payload == {"prec": 2, "field": "Q", "coeffs": ["1", "1/2"]}
