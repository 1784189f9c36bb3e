import math
from fractions import Fraction

import pytest

from modforms.dirichlet import characters_mod, trivial_character
from modforms.forms import (
    delta, dim_Sk, eisenstein_level1, eisenstein_levelN, miller_basis, weight_monomials,
)
from modforms.hecke import charpoly, eigenbasis, galois_conjugate, hecke_action, hecke_matrix
from modforms.linalg import charpoly_rational, invert_rational, mat_mul
from modforms.numfield import QQ, NumberFieldElement
from modforms.polys import RatPoly
from modforms.qseries import QSeries
from modforms.scans import maeda_check


def test_action_examples():
    dl = delta(11).series
    assert hecke_action(dl, 2, 12, prec=5) == dl.truncate(5).scale(-24)
    e12 = eisenstein_level1(12, 11).series
    assert hecke_action(e12, 2, 12, prec=5) == e12.truncate(5).scale(1 + 2**11)
    assert hecke_action(dl, 1, 12, prec=11) == dl


def test_action_precision_guard():
    dl = delta(8).series
    with pytest.raises(ValueError, match="needs 9"):
        hecke_action(dl, 2, 12, prec=5)


def test_matrix_examples():
    assert hecke_matrix(2, 12).entries == ((Fraction(-24),),)
    m24 = hecke_matrix(2, 24)
    assert m24.entries[0][0] + m24.entries[1][1] == 1080
    assert hecke_matrix(2, 16).entries == ((Fraction(216),),)


def test_charpoly_examples():
    assert charpoly(hecke_matrix(2, 12)) == RatPoly([24, 1])
    assert charpoly(hecke_matrix(2, 24)) == RatPoly([-20468736, -1080, 1])
    cp28 = charpoly(hecke_matrix(2, 28))
    from modforms.arith import squarefree_kernel
    from modforms.polys import discriminant

    split = squarefree_kernel(discriminant(cp28).numerator)
    assert split.complete and split.squarefree == 131 * 139


def test_multiplication_rule_coprime():
    # T_2 T_3 = T_6 on S_24 and S_36
    for k in (24, 36):
        m2 = hecke_matrix(2, k).entries
        m3 = hecke_matrix(3, k).entries
        m6 = hecke_matrix(6, k).entries
        assert mat_mul([list(r) for r in m2], [list(r) for r in m3]) == [
            list(r) for r in m6
        ]


def test_multiplication_rule_prime_power():
    # T_2^2 = T_4 + 2^(k-1) Id on one-dimensional cusp spaces
    for k in (12, 16, 18, 20, 22, 26):
        m2 = [list(r) for r in hecke_matrix(2, k).entries]
        m4 = [list(r) for r in hecke_matrix(4, k).entries]
        d = len(m2)
        lhs = mat_mul(m2, m2)
        rhs = [
            [m4[i][j] + (Fraction(2 ** (k - 1)) if i == j else 0) for j in range(d)]
            for i in range(d)
        ]
        assert lhs == rhs


def test_commutativity_up_to_40():
    for k in range(12, 41, 2):
        if dim_Sk(k) == 0:
            continue
        m2 = [list(r) for r in hecke_matrix(2, k).entries]
        m3 = [list(r) for r in hecke_matrix(3, k).entries]
        assert mat_mul(m2, m3) == mat_mul(m3, m2)


def test_eigenbasis_weight12():
    g = eigenbasis(12, prec=10)[0]
    assert g.field is QQ
    assert g.a(1) == 1 and g.a(2) == -24


def test_eigenbasis_weight24():
    g = eigenbasis(24, prec=10)[0]
    K = g.field
    assert K.modulus == RatPoly([-20468736, -1080, 1])
    assert g.a(1) == K.one()
    assert g.a(2) == K.gen()
    # a_2 satisfies the charpoly
    assert K.modulus.evaluate(g.a(2)) == K.zero()


def test_eigenbasis_weight26_rational():
    g = eigenbasis(26, prec=10)[0]
    assert g.field is QQ
    assert g.a(1) == 1


def test_eigenbasis_eigenvalue_consistency():
    for k in (12, 24, 36):
        g = eigenbasis(k, prec=26)[0]
        for m in (2, 3, 5):
            image = hecke_action(g.series, m, k, prec=5)
            expected = g.series.truncate(5).scale(g.a(m))
            assert image == expected


def test_galois_conjugate():
    g = eigenbasis(24, prec=8)[0]
    K = g.field
    conj = galois_conjugate(g)
    assert conj.a(2) == 1080 - K.gen()
    double = galois_conjugate(conj)
    assert double.series == g.series
    rational = eigenbasis(12, prec=8)[0]
    assert galois_conjugate(rational) is rational


def test_eisenstein_eigenvalues_level1():
    for k in range(4, 17, 2):
        series = eisenstein_level1(k, 26).series
        for p in (2, 3, 5):
            image = hecke_action(series, p, k, prec=5)
            assert image == series.truncate(5).scale(1 + p ** (k - 1))


def test_eisenstein_constant_term_relation():
    # a_0 sum_{m1 | m} chi(m1) m1^(k-1) = lambda_m a_0
    from modforms.arith import divisors

    for k in (4, 6, 8):
        series = eisenstein_level1(k, 31).series
        for m in (2, 3, 4, 6):
            image = hecke_action(series, m, k, prec=5)
            lam = image.coeff(1) / series.coeff(1)
            assert image.coeff(0) == lam * series.coeff(0)
            assert image.coeff(0) == sum(d ** (k - 1) for d in divisors(m))
    # composite m under a non-real character: values in Q(i) (order 4 mod 5,
    # odd, k = 3) and Q(zeta_5) (order 5 mod 11, even, k = 4)
    for modulus, order, k in ((5, 4, 3), (11, 5, 4)):
        phi = next(c for c in characters_mod(modulus) if c.order == order)
        form = eisenstein_levelN(trivial_character(1), phi, 1, k, 19)
        K, chi, a0 = form.series.field, form.character, form.coeff(0)
        assert K.zeta_order == order and not a0.is_zero()
        for m in (4, 6, 9):
            image = hecke_action(form.series, m, k, chi=chi, prec=2)
            expected = sum((chi.value_in(K, d) * d ** (k - 1) for d in divisors(m)), K.zero())
            assert image.coeff(0) == expected * a0


def test_eisenstein_levelN_eigenvalue():
    triv = trivial_character(1)
    odd = next(c for c in characters_mod(4) if c.parity() == -1)
    form = eisenstein_levelN(triv, odd, 1, 3, 16)
    for p in (3, 5):
        image = hecke_action(form.series, p, 3, chi=form.character, prec=3)
        lam = 1 + odd.rational_value(p) * p**2
        assert image == form.series.truncate(3).scale(Fraction(lam))


def test_power_basis_matrix_is_integral():
    def power_basis_matrix(n, k):
        """T_n on the cusp monomials Delta^j E_4^((k-12j)/4), j = 1..dim: with
        4 | k these are Miller's monomials for j >= 1."""
        m = hecke_matrix(n, k)
        d = m.dim
        monos = weight_monomials(k, d + 1)[1:]
        p = [[monos[j].coeff(i + 1) for j in range(d)] for i in range(d)]
        return mat_mul(mat_mul(invert_rational(p), [list(r) for r in m.entries]), p)

    for n, k in ((2, 24), (2, 16), (3, 24), (2, 28)):
        for row in power_basis_matrix(n, k):
            for x in row:
                assert x.denominator == 1
    # similar matrices share the charpoly
    assert charpoly_rational(power_basis_matrix(2, 24)) == charpoly(hecke_matrix(2, 24))


def test_eigenbasis_rejects_empty_space():
    with pytest.raises(ValueError):
        eigenbasis(10)


def test_galois_conjugate_degree3_unsupported():
    from modforms.hecke import UnsupportedHeckeField

    g = eigenbasis(36, prec=12)[0]
    assert g.field.degree == 3
    with pytest.raises(UnsupportedHeckeField):
        galois_conjugate(g)


def test_eigenbasis_and_maeda_share_the_certificate_policy():
    # at 20 primes the T_2 certificate is unknown here, at 30 it is decisive
    cert = eigenbasis(72)[0].field.certificate
    assert cert == maeda_check(72).certificate
    assert cert.is_irreducible


@pytest.mark.parametrize("k", [24, 72, 100])
def test_eigenbasis_makes_no_field_inverse(k, monkeypatch):
    # the eigenvector is solved over Q and comes out with a_1 = 1, and the
    # q-expansion is an integer product, so no Hecke-field element is inverted
    calls = []
    inverse = NumberFieldElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(NumberFieldElement, "inverse", counted)
    eigenbasis(k)
    assert len(calls) == 0


def test_eigenbasis_weight_118_is_certified():
    # at 20 primes the T_2 certificate is undecided here
    g = eigenbasis(118)[0]
    assert g.a(2) == g.field.gen()
    assert g.field.degree == dim_Sk(118)


def test_hecke_matrix_rejects_nonpositive_index_before_building_a_basis():
    for n in (0, -2):
        with pytest.raises(ValueError, match="operator index must be positive"):
            hecke_matrix(n, 24)


def hecke_action_loop(series, m, k, chi=None):
    """The former per-coefficient loop of hecke_action, kept as its oracle: for
    every output coefficient n it lists the divisors of gcd(m, n) and reads
    chi on each of them afresh."""
    from modforms.arith import divisors

    field = series.field
    out = []
    for n in range((series.prec - 1) // m + 1):
        s = field.zero()
        for m1 in divisors(math.gcd(m, n)):
            if chi is None:
                v = Fraction(1)
            elif field is QQ:
                v = chi.rational_value(m1)
            else:
                v = chi.value_in(field, m1)
            if v == 0:
                continue
            s = s + v * Fraction(m1) ** (k - 1) * series.coeff(m * n // (m1 * m1))
        out.append(s)
    return QSeries(field, out)


def _assert_action_matches_the_loop(series, k, chi=None):
    for m in range(1, 13):
        image = hecke_action(series, m, k, chi=chi)
        expected = hecke_action_loop(series, m, k, chi)
        assert image == expected, (m, k)
        assert image.as_json() == expected.as_json()


@pytest.mark.parametrize("k", [4, 12, 24, 36])
def test_action_matches_the_loop_without_a_character(k):
    # 61 coefficients give T_12 six output terms
    _assert_action_matches_the_loop(eisenstein_level1(k, 61).series, k)
    _assert_action_matches_the_loop(miller_basis(k, 61).forms[-1].series, k)
    _assert_action_matches_the_loop(eisenstein_level1(k, 61).series, k, trivial_character(1))


def test_action_matches_the_loop_over_a_hecke_field():
    g = eigenbasis(24, prec=61)[0]
    assert g.field.degree == 2
    _assert_action_matches_the_loop(g.series, 24)


@pytest.mark.parametrize("modulus", [3, 4, 5, 8, 12])
def test_action_matches_the_loop_for_real_characters_over_q(modulus):
    for phi in characters_mod(modulus):
        if phi.order != 2 or not phi.is_primitive():
            continue
        for k in (3, 5) if phi.parity() == -1 else (4, 6):
            form = eisenstein_levelN(trivial_character(1), phi, 1, k, 61)
            series = form.series.map_coefficients(QQ, QQ.coerce)
            _assert_action_matches_the_loop(series, k, form.character)


@pytest.mark.parametrize("modulus,order", [(5, 4), (7, 6), (11, 5), (13, 12), (9, 3)])
def test_action_matches_the_loop_for_complex_characters_over_cyclotomic_fields(modulus, order):
    phi = next(c for c in characters_mod(modulus) if c.order == order and c.is_primitive())
    for k in (3, 5) if phi.parity() == -1 else (4, 6):
        form = eisenstein_levelN(trivial_character(1), phi, 1, k, 61)
        assert form.series.field.zeta_order == order
        _assert_action_matches_the_loop(form.series, k, form.character)
