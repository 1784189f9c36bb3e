from fractions import Fraction

import pytest

from modforms.arith import sigma
from modforms.dirichlet import characters_mod, trivial_character
from modforms.forms import (
    delta,
    dim_Mk,
    dim_Sk,
    eisenstein_level1,
    eisenstein_levelN,
    jfunction,
    miller_basis,
)
from modforms.numfield import QQ
from modforms.polys import _binary_power, _dense_mul
from modforms.qseries import QSeries


def test_eisenstein_coefficients():
    e4 = eisenstein_level1(4, 5)
    assert [e4.coeff(i) for i in range(4)] == [1, 240, 2160, 6720]
    assert eisenstein_level1(6, 3).coeff(1) == -504
    assert eisenstein_level1(12, 3).coeff(1) == Fraction(65520, 691)
    with pytest.raises(ValueError):
        eisenstein_level1(5, 5)
    with pytest.raises(ValueError):
        eisenstein_level1(2, 5)


def test_delta_brute_force_product_oracle():
    # expand q prod (1-q^n)^24 by direct polynomial multiplication
    prec = 20
    expected = [Fraction(0)] * prec
    expected[1] = Fraction(1)
    series = QSeries(QQ, expected, prec)
    work = QSeries(QQ, [1], prec)
    for n in range(1, prec):
        factor = QSeries(QQ, [1] + [0] * (n - 1) + [-1], prec)
        work = work * factor**24
    oracle = work.shift(1).truncate(prec)
    assert delta(prec).series.coeffs == oracle.coeffs


def test_delta_pentagonal_eta_matches_product_loop():
    # eta = prod (1 - q^n) expanded factor by factor, then raised to the 24th
    prec = 600
    eta = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        for i in range(prec - 1, n - 1, -1):
            eta[i] -= eta[i - n]
    power = _binary_power(eta, 24, [1], lambda a, b: _dense_mul(a, b, 0, prec))
    assert delta(prec).series.coeffs == [0] + power[: prec - 1]


def test_delta_tau_values():
    d = delta(6)
    assert [d.coeff(i) for i in range(6)] == [0, 1, -24, 252, -1472, 4830]
    assert d.series.valuation() == 1


def test_tau_congruence_mod_691():
    d = delta(51)
    for n in range(1, 51):
        tau = d.coeff(n)
        assert (tau.numerator - sigma(11, n)) % 691 == 0


def test_jfunction():
    jq = jfunction(4)
    assert jq.coeff(0) == 1
    assert jq.coeff(1) == 744
    assert jq.coeff(2) == 196884
    with pytest.raises(ValueError):
        jfunction(1)


def test_j_related_identities():
    prec = 30
    e4 = eisenstein_level1(4, prec).series
    e6 = eisenstein_level1(6, prec).series
    e12 = eisenstein_level1(12, prec).series
    # E_12 = (441 E_4^3 + 250 E_6^2)/691
    lhs = e12.scale(691)
    rhs = (e4**3).scale(441) + (e6**2).scale(250)
    assert (lhs - rhs).is_zero()
    # E_12/Delta - j = -432000/691: multiplied by q the difference series is
    # exactly (-432000/691) q
    dl_over_q = delta(prec + 1).series.shift(-1)
    e12_over = e12 * dl_over_q.inverse()
    jq = jfunction(prec)
    diff = e12_over - jq
    assert diff.coeff(0) == 0
    assert diff.coeff(1) == Fraction(-432000, 691)
    for n in range(2, diff.prec):
        assert diff.coeff(n) == 0


def test_dimensions():
    assert dim_Mk(12) == 2
    assert dim_Mk(14) == 1
    assert dim_Sk(24) == 2
    assert dim_Mk(0) == 1
    assert dim_Mk(2) == 0
    assert dim_Sk(10) == 0
    assert dim_Mk(-4) == 0
    assert [dim_Sk(k) for k in (-4, 0, 1, 2, 3, 4)] == [0] * 6


def test_dim_matches_monomial_count():
    # echelonized monomial count equals the dimension formula for 4 <= k <= 120
    for k in range(4, 121, 2):
        basis = miller_basis(k, dim_Mk(k) + 2)
        assert basis.dim == dim_Mk(k)
        cusp = miller_basis(k, dim_Mk(k) + 2, cusp_only=True)
        assert cusp.dim == dim_Sk(k)


def test_miller_basis_weight12():
    basis = miller_basis(12, 10)
    assert basis.dim == 2
    assert basis.forms[0].coeff(0) == 1 and basis.forms[0].coeff(1) == 0
    assert basis.forms[1].series.coeffs[:3] == [0, 1, -24]  # the cusp row is Delta


def test_miller_basis_weight0():
    basis = miller_basis(0, 5)
    assert basis.dim == 1
    assert basis.forms[0].series.coeffs == [1, 0, 0, 0, 0]


def test_miller_basis_echelon_property():
    for k, cusp in ((28, True), (36, True), (48, False)):
        basis = miller_basis(k, 25, cusp_only=cusp)
        offset = 1 if cusp else 0
        for i, form in enumerate(basis.forms):
            assert form.series.valuation() == i + offset
            assert form.coeff(i + offset) == 1
            for j in range(len(basis.forms)):
                if j != i:
                    assert form.coeff(j + offset) == 0


def test_miller_basis_prec_guard():
    with pytest.raises(ValueError):
        miller_basis(48, 4)


def test_ramanujan_identity_prec100():
    prec = 100
    e12 = eisenstein_level1(12, prec).series
    e6 = eisenstein_level1(6, prec).series
    dl = delta(prec).series
    assert (e12 - e6 * e6 - dl.scale(Fraction(1008 * 756, 691))).is_zero()


def test_delta_from_e4_e6_prec100():
    prec = 100
    e4 = eisenstein_level1(4, prec).series
    e6 = eisenstein_level1(6, prec).series
    assert (delta(prec).series - (e4**3 - e6**2).scale(Fraction(1, 1728))).is_zero()


def test_eisenstein_levelN_trivial_pair_proportional_to_level1():
    triv = trivial_character(1)
    for k in (4, 6, 12):
        form = eisenstein_levelN(triv, triv, 1, k, 8)
        e = eisenstein_level1(k, 8)
        a0 = form.coeff(0).as_rational()
        assert a0 != 0
        for n in range(8):
            assert form.coeff(n).as_rational() == a0 * e.coeff(n)


def test_eisenstein_levelN_constant_term_vanishes():
    triv = trivial_character(1)
    odd = next(c for c in characters_mod(4) if c.parity() == -1)
    form = eisenstein_levelN(odd, triv, 1, 3, 6)
    assert form.coeff(0).is_zero()
    # first coefficient is 2 psi(1) phi(1)
    assert form.coeff(1).as_rational() == 2
    assert form.level == 4


def test_eisenstein_levelN_dilation():
    triv = trivial_character(1)
    odd = next(c for c in characters_mod(4) if c.parity() == -1)
    base = eisenstein_levelN(triv, odd, 1, 3, 5)
    dilated = eisenstein_levelN(triv, odd, 2, 3, 10)
    for n in range(5):
        assert dilated.coeff(2 * n) == base.coeff(n)
        if 2 * n + 1 < 10:
            assert dilated.coeff(2 * n + 1).is_zero()
    assert dilated.level == 8


def test_eisenstein_levelN_order4_character():
    # a genuinely irrational-valued pair: order-4 character mod 5
    from modforms.hecke import hecke_action

    triv = trivial_character(1)
    chi4 = next(c for c in characters_mod(5) if c.order == 4)
    assert chi4.parity() == -1 and chi4.is_primitive()
    form = eisenstein_levelN(triv, chi4, 1, 3, 13)
    K = form.series.field
    assert K.zeta_order == 4
    i = K.gen()
    # a_1 = 2, a_2 = 2(1 + chi(2) 2^2) with chi(2) a primitive fourth root
    assert form.coeff(1) == K.coerce(2)
    chi2 = chi4.value_in(K, 2)
    assert chi2 in (i, -i)
    assert form.coeff(2) == 2 * (K.one() + chi2 * 4)
    # eigenvalue relation at p = 2: psi(2) + chi(2) 2^2
    image = hecke_action(form.series, 2, 3, chi=form.character, prec=4)
    lam = K.one() + chi2 * 4
    assert image == form.series.truncate(4).scale(lam)


def test_eisenstein_levelN_parity_guard():
    triv = trivial_character(1)
    odd = next(c for c in characters_mod(4) if c.parity() == -1)
    with pytest.raises(ValueError):
        eisenstein_levelN(triv, odd, 1, 4, 5)
    with pytest.raises(ValueError):
        eisenstein_levelN(triv, triv, 1, 3, 5)
