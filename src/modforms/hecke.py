"""Hecke operators on q-expansions: exact matrices on the echelon cusp basis,
characteristic polynomials, and normalized eigenbases over number fields."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import SquarefreeSplit, divisors, squarefree_kernel
from .dirichlet import DirichletCharacter
from .forms import SpaceBasis, cusp_dim, miller_basis
from .linalg import charpoly_rational, kernel_vector, mat_mul, weighted_sum
from .numfield import QQ, NumberField, NumberFieldElement, field_json
from .polys import (
    IrreducibilityCertificate, RatPoly, clear_denominators, discriminant, poly_irreducible,
)
from .qseries import QSeries


class UnsupportedHeckeField(ArithmeticError):
    """Raised when no irreducibility certificate backs the eigenbasis
    construction (or a charpoly is exhibited reducible)."""


def hecke_action(
    series: QSeries,
    m: int,
    k: int,
    chi: DirichletCharacter | None = None,
    prec: int | None = None,
) -> QSeries:
    """Apply T_m to a q-expansion of weight k.

    Coefficientwise: the n-th output is the sum over d | gcd(m, n) of
    chi(d) d^(k-1) a_{mn/d^2}, for every n >= 0 (at n = 0, gcd(m, 0) = m):
    one weighted_sum against the weights chi(d) d^(k-1), built once per
    operator. The input must carry at least m*(prec-1)+1 coefficients.
    """
    if m < 1:
        raise ValueError("operator index must be positive")
    if prec is None:
        prec = (series.prec - 1) // m + 1
    required = m * (prec - 1) + 1
    if series.prec < required:
        raise ValueError(
            f"insufficient precision: T_{m} to {prec} terms needs {required}, have {series.prec}"
        )
    field = series.field
    weights = []  # (d, chi(d) d^(k-1)) for the divisors d of m with chi(d) != 0
    for d in divisors(m):
        if chi is None:
            c = Fraction(1)
        else:
            c = chi.rational_value(d) if field is QQ else chi.value_in(field, d)
        if c != 0:
            weights.append((d, c * Fraction(d) ** (k - 1)))
    out = []
    for n in range(prec):
        terms = [(d, w) for d, w in weights if n % d == 0]
        out.append(
            weighted_sum(
                [series.coeff(m * n // (d * d)) for d, _ in terms],
                [w for _, w in terms],
                field.zero(),
            )
        )
    return QSeries(field, out, prec)


class HeckeMatrix(NamedTuple):
    index: int
    weight: int
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_json(self) -> dict:
        cp = charpoly(self)
        den, ints = clear_denominators(cp.coeffs)
        return {
            "index": self.index,
            "weight": self.weight,
            "entries": [[str(x) for x in row] for row in self.entries],
            "charpoly": {"coeffs": ints, "denominator": den},
        }


def hecke_matrix(n: int, k: int, basis: SpaceBasis | None = None) -> HeckeMatrix:
    """Matrix of T_n on the echelon cusp basis of weight k.

    The echelon structure makes coordinates equal to the coefficients at
    q^1..q^dim, so columns are read off directly from the transformed basis.
    A given weight-k cusp basis is used when it carries the n*(dim+1)+2
    coefficients T_n needs; otherwise one is built.
    """
    if n < 1:
        raise ValueError("operator index must be positive")
    d = cusp_dim(k)
    need = n * (d + 1) + 2
    if basis is None or basis.prec < need:
        basis = miller_basis(k, need, cusp_only=True)
    cols = []
    for form in basis.forms:
        image = hecke_action(form.series, n, k, prec=d + 1)
        cols.append([image.coeff(i) for i in range(1, d + 1)])
    entries = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
    return HeckeMatrix(n, k, entries)


def charpoly(matrix: HeckeMatrix) -> RatPoly:
    """Exact characteristic polynomial det(xI - T_n)."""
    return charpoly_rational([list(row) for row in matrix.entries])


# The operator of every Hecke-field certificate; its eigenvalue a_2 generates
# the field (Maeda's conjecture is a statement about this charpoly).
HECKE_INDEX = 2


def certified_charpoly(
    k: int, basis: SpaceBasis | None = None
) -> tuple[HeckeMatrix, RatPoly, IrreducibilityCertificate]:
    """(T_2, charpoly, certificate) in weight k: the one certificate policy
    for every Hecke field. poly_irreducible chooses how many primes to read."""
    matrix = hecke_matrix(HECKE_INDEX, k, basis)
    cp = charpoly(matrix)
    return matrix, cp, poly_irreducible(cp)


def hecke_field(k: int, basis: SpaceBasis | None = None) -> tuple[HeckeMatrix, NumberField]:
    """(T_2, Q(a_2)) in weight k: the one gate from the certificate of
    certified_charpoly to a Hecke field. A charpoly that the certificate shows
    reducible, or leaves undecided, raises UnsupportedHeckeField."""
    matrix, cp, cert = certified_charpoly(k, basis)
    if cert.is_reducible:
        raise UnsupportedHeckeField(
            f"T_{HECKE_INDEX} charpoly reducible in weight {k}: root {cert.witness_root}"
        )
    if not cert.is_irreducible:
        raise UnsupportedHeckeField(
            f"no irreducibility certificate for weight {k}: the T_{HECKE_INDEX} charpoly "
            f"is {cert.status} after {len(cert.patterns)} primes"
        )
    return matrix, NumberField(cp, certificate=cert)


def sqrt_of_disc_part(K: NumberField) -> tuple[NumberFieldElement, SquarefreeSplit]:
    """For quadratic K = Q[x]/(x^2 - s x - c), return (sqrt(D), split) with split
    the complete squarefree split D f^2 of the modulus's discriminant, which the
    callers read the field from; sqrt(D) is positive at the larger real root."""
    assert K.degree == 2
    s = -K.modulus.coeffs[1]
    disc = discriminant(K.modulus)
    assert disc.denominator == 1
    split = squarefree_kernel(disc.numerator)
    if not split.complete:
        raise ArithmeticError("could not certify the squarefree part of the discriminant")
    root = (2 * K.gen() - s) * Fraction(1, split.square_root)
    assert root * root == split.squarefree
    return root, split


class Eigenform(NamedTuple):
    weight: int
    field: object  # QQ or NumberField
    series: QSeries
    label: str

    def a(self, n: int):
        return self.series.coeff(n)

    @property
    def prec(self) -> int:
        return self.series.prec

    def as_json(self) -> dict:
        return {
            "weight": self.weight,
            "label": self.label,
            "field": field_json(self.field),
            "series": self.series.as_json(),
        }


def eigenbasis(k: int, prec: int | None = None) -> list[Eigenform]:
    """Normalized eigenbasis of the weight-k cusp space, as one orbit
    representative over the Hecke field.

    For dim >= 2 this requires an irreducibility certificate for the T_2
    charpoly, and a_2 is the field generator; the Galois conjugates of the
    returned form are implicit.
    """
    d = cusp_dim(k)
    if prec is None:
        prec = max(3 * d + 5, 12)
    basis = miller_basis(k, max(prec, 3 * d + 5), cusp_only=True)
    if d == 1:
        return [Eigenform(k, QQ, basis.forms[0].series.truncate(prec), f"S{k}.a")]
    n = HECKE_INDEX
    if prec <= n:
        raise ValueError(f"prec must exceed {n}: a_{n} generates the Hecke field")
    matrix, field = hecke_field(k, basis)
    # a_r = sum_j v_j b_j(r): one integer product of the basis rows and W, over D db
    D, w = kernel_vector(matrix.entries)
    db, bs = clear_denominators([f.series.coeff(r) for r in range(prec) for f in basis.forms])
    rows = mat_mul([bs[r * d : (r + 1) * d] for r in range(prec)], w)
    coeffs = [field.reduce(D * db, row) for row in rows]
    g = Eigenform(k, field, QSeries(field, coeffs, prec), f"S{k}.a")
    assert g.a(n) == field.gen()
    assert field.modulus.evaluate(g.a(n)) == field.zero()
    return [g]


def galois_conjugate(f: Eigenform) -> Eigenform:
    """Coefficientwise nontrivial conjugation; quadratic Hecke fields only."""
    if f.field is QQ:
        return f
    if f.field.degree != 2:
        raise UnsupportedHeckeField("conjugation implemented for degree <= 2 fields")
    series = f.series.map_coefficients(f.field, f.field.conjugate_quadratic)
    return Eigenform(f.weight, f.field, series, f.label + "'")
