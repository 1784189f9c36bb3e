"""Concrete modular forms: level-1 Eisenstein series, the discriminant form,
the j-function, echelonized bases, and level-N Eisenstein series with
characters."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import sigma
from .dirichlet import (
    DirichletCharacter,
    bernoulli_number,
    compositum_field,
    gen_bernoulli,
    induce,
    sigma_gen,
    trivial_character,
)
from .numfield import QQ, embed_cyclotomic
from .polys import _binary_power, _dense_mul, bareiss_solve, clear_denominators
from .qseries import QSeries


class ModularForm(NamedTuple):
    weight: int
    level: int
    character: DirichletCharacter
    series: QSeries
    label: str

    def coeff(self, n: int):
        return self.series.coeff(n)

    @property
    def prec(self) -> int:
        return self.series.prec

    def as_json(self) -> dict:
        return {
            "weight": self.weight,
            "level": self.level,
            "character": self.character.as_json(),
            "label": self.label,
            "series": self.series.as_json(),
        }


def dim_Mk(k: int) -> int:
    """Dimension of the weight-k forms for the full modular group."""
    if k < 0 or k % 2:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


def dim_Sk(k: int) -> int:
    """Dimension of the weight-k cusp subspace."""
    return max(dim_Mk(k) - 1, 0)


def cusp_dim(k: int) -> int:
    """dim S_k for a weight that has cusp forms; ValueError for one without."""
    d = dim_Sk(k)
    if d == 0:
        raise ValueError(f"weight {k} has no cusp forms")
    return d


def eisenstein_level1(k: int, prec: int) -> ModularForm:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, exact rational coefficients."""
    if k % 2 or k < 4:
        raise ValueError("level-1 Eisenstein series need even weight k >= 4")
    factor = Fraction(-2 * k) / bernoulli_number(k)
    coeffs = [Fraction(1)] + [factor * sigma(k - 1, n) for n in range(1, prec)]
    return ModularForm(k, 1, trivial_character(1), QSeries(QQ, coeffs), f"E{k}")


def delta(prec: int) -> ModularForm:
    """The discriminant cusp form q prod (1 - q^n)^24, by exact expansion."""
    if prec < 1:
        raise ValueError("prec must be positive")
    # Euler's pentagonal theorem: prod (1 - q^n) = sum over m in Z of
    # (-1)^m q^(m(3m-1)/2), so eta has O(sqrt(prec)) nonzero coefficients
    eta = [0] * prec
    m = 0
    while m * (3 * m - 1) // 2 < prec:
        for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if e < prec:
                eta[e] = (-1) ** m
        m += 1
    # plain ints here: with a Fraction zero each squaring would convert to ints
    # and back
    power = _binary_power(eta, 24, [1], lambda a, b: _dense_mul(a, b, 0, prec))
    coeffs = [0] + power[: prec - 1]
    return ModularForm(12, 1, trivial_character(1), QSeries(QQ, coeffs, prec), "Delta")


def jfunction(prec: int) -> QSeries:
    """The series of j*q = E_4^3 / (Delta/q); consumers shift the exponent by one."""
    if prec < 2:
        raise ValueError("prec must be at least 2")
    e4 = eisenstein_level1(4, prec).series
    delta_over_q = delta(prec + 1).series.shift(-1)
    return (e4**3) * delta_over_q.inverse()


class SpaceBasis(NamedTuple):
    weight: int
    forms: tuple[ModularForm, ...]
    prec: int

    @property
    def dim(self) -> int:
        return len(self.forms)


def weight_monomials(k: int, prec: int) -> list[QSeries]:
    """E_4^a E_6^b Delta^j for j = 0 .. dim M_k - 1, with 4a + 6b = k - 12j
    and b in {0, 1}: Delta^j leads, at q^j, so the list spans M_k."""
    e4 = eisenstein_level1(4, prec).series
    e6 = eisenstein_level1(6, prec).series
    dl = delta(prec).series
    monomials = []
    dpow = QSeries.constant(QQ, 1, prec)
    for j in range(dim_Mk(k)):
        w = k - 12 * j
        b = 1 if w % 4 == 2 else 0
        monomials.append((e4 ** ((w - 6 * b) // 4)) * (e6**b) * dpow)
        dpow = dpow * dl
    return monomials


def miller_basis(k: int, prec: int, cusp_only: bool = False) -> SpaceBasis:
    """Echelonized monomial basis of the weight-k space (or its cusp subspace).

    The rows [L | R] of weight_monomials are integral, L unit upper triangular,
    so one bareiss_solve gives [I | L^-1 R]: form i at valuation i, leading 1.
    """
    if k % 2 or k < 0 or k == 2:
        raise ValueError("weight must be 0 or an even integer >= 4")
    d = dim_Mk(k)
    if prec <= d:
        raise ValueError(f"prec must exceed the dimension {d} to echelonize")
    D, w = bareiss_solve([clear_denominators(m.coeffs)[1] for m in weight_monomials(k, prec)])
    assert D == 1
    start = 1 if cusp_only else 0
    tag = "S" if cusp_only else "M"
    forms = tuple(
        ModularForm(k, 1, trivial_character(1),
                    QSeries(QQ, [int(i == j) for i in range(d)] + w[j], prec), f"{tag}{k}.{j}")
        for j in range(start, d)
    )
    return SpaceBasis(k, forms, prec)


def eisenstein_levelN(
    psi: DirichletCharacter,
    phi: DirichletCharacter,
    t: int,
    k: int,
    prec: int,
) -> ModularForm:
    """Eisenstein series for a pair of primitive characters, dilated by t.

    Constant term delta(psi) * (-B_{k,phi}/k); higher coefficients are twice
    the twisted divisor sums, with q^n -> q^(tn) under the dilation.
    """
    if k < 3:
        raise ValueError("weight must be at least 3")
    if t < 1:
        raise ValueError("dilation must be positive")
    if not (psi.is_primitive() and phi.is_primitive()):
        raise ValueError("both characters must be primitive")
    if psi.parity() * phi.parity() != (-1) ** k:
        raise ValueError("parity mismatch: the series vanishes identically")
    field = compositum_field(psi, phi)
    coeffs = [field.zero()] * prec
    if psi.modulus == 1:
        coeffs[0] = embed_cyclotomic(gen_bernoulli(k, phi), field) * Fraction(-1, k)
    for n in range(1, (prec - 1) // t + 1):
        coeffs[t * n] = 2 * sigma_gen(k - 1, psi, phi, n)
    level = t * psi.modulus * phi.modulus
    character = induce(psi, level) * induce(phi, level)
    label = f"Eis[{psi.modulus}.{'.'.join(map(str, psi.exponents))},{phi.modulus}.{'.'.join(map(str, phi.exponents))},{t},{k}]"
    return ModularForm(k, level, character, QSeries(field, coeffs, prec), label)
