"""Verification engine: exact identity checks between concrete forms, and the
decomposition of eigenform squares against a normalized eigenbasis."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import sigma
from .forms import cusp_dim, delta, dim_Sk, eisenstein_level1
from .hecke import Eigenform, eigenbasis, galois_conjugate, sqrt_of_disc_part
from .linalg import invert_rational, rank, weighted_sum
from .numfield import QQ, NumberField, NumberFieldElement, coeff_json
from .qseries import QSeries

# Reference constants the verification suite reproduces (exact rationals).
RAMANUJAN_FACTOR = Fraction(1008 * 756, 691)
E24_A = Fraction(-(2**14 * 3**8 * 5**4 * 7**4 * 13**2 * 1571), 103 * 691**2 * 2294797)
E24_B = Fraction(-(2**8 * 3**5 * 5**3 * 7**2 * 13**3 * 37), 103 * 691 * 2294797)
E32_A = Fraction(
    -(2**18 * 3**8 * 5**5 * 7**4 * 11 * 13**2 * 17**2 * 4273),
    37 * 683 * 3617**2 * 305065927,
)
E32_B = Fraction(
    -(2**12 * 3**4 * 5**3 * 7**2 * 13 * 17**2 * 23 * 1433),
    37 * 683 * 3617 * 305065927,
)

# Reference data for the two quadratic eigenform-square decompositions.
TABLE1_DISCS = {24: 144169, 32: 18295489}
# The q^2-eigenvalue forces 324204/691 in the weight-24 reconstruction; the
# reference table prints 32404/691, which verify_table1 reports as a
# discrepancy (likewise the 24/sqrt(D) coefficient normalization, off by 24^2).
TABLE1_ROW1_CONST = Fraction(324204, 691)
TABLE1_ROW1_CONST_REFERENCE = Fraction(32404, 691)
TABLE1_ROW2_X_SHIFT = Fraction(20532)
TABLE1_ROW2_X_DEN = Fraction(1728)
TABLE1_PREC = 30  # the terms each Table 1 row is checked to

TABLE2_FIELD_DISCS = {
    24: 144169,
    28: 131 * 139,
    48: 31 * 6093733 * 1675615524399270726046829566281283,
    56: 41132621 * 48033296728783687292737439509259855449806941,
}


class IdentityReport(NamedTuple):
    name: str
    status: str  # "verified" | "failed"
    prec: int
    first_failure: int | None = None
    detail: str = ""
    discrepancies: tuple[dict, ...] = ()

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def as_json(self) -> dict:
        return self._asdict()


def verify_quadratic_identity(
    name: str,
    h: QSeries,
    f: QSeries,
    g: QSeries,
    a,
    b,
) -> IdentityReport:
    """Exact coefficientwise check of h = a f^2 + b f g + g^2 to the common
    precision of the three series, which share one coefficient field."""
    residual = h - (f * f).scale(a) - (f * g).scale(b) - g * g
    n = residual.valuation()
    if n is not None:
        return IdentityReport(name, "failed", residual.prec, first_failure=n)
    return IdentityReport(name, "verified", residual.prec)


def verify_ramanujan(prec: int) -> IdentityReport:
    """E_12 - E_6^2 = (1008*756/691) Delta exactly, and the induced congruence
    tau(n) = sigma_11(n) mod 691 for n <= 500."""
    congruence_range = 500
    e12 = eisenstein_level1(12, prec).series
    e6 = eisenstein_level1(6, prec).series
    dl = delta(max(prec, congruence_range + 1)).series
    residual = e12 - e6 * e6 - dl.truncate(prec).scale(RAMANUJAN_FACTOR)
    n = residual.valuation()
    if n is not None:
        return IdentityReport("ramanujan", "failed", prec, first_failure=n)
    for n in range(1, congruence_range + 1):
        tau = dl.coeff(n)
        assert tau.denominator == 1
        if (tau.numerator - sigma(11, n)) % 691:
            return IdentityReport(
                "ramanujan", "failed", prec, first_failure=n, detail="congruence break"
            )
    return IdentityReport(
        "ramanujan",
        "verified",
        prec,
        detail=f"identity to {prec} terms; congruence mod 691 for n <= {congruence_range}",
    )


def solve_product_identity(h: QSeries, f: QSeries, g: QSeries) -> tuple[Fraction, Fraction]:
    """Solve h = a f^2 + b f g + g^2 for (a, b) from the q^1 and q^2 rows,
    assuming f = q + O(q^2) and g = 1 + O(q)."""
    if min(h.prec, f.prec, g.prec) < 3:
        raise ValueError("solving for (a, b) reads q^2: precision must be at least 3")
    assert f.coeff(0) == 0 and f.coeff(1) == 1 and g.coeff(0) == 1
    fg = f * g
    gg = g * g
    b = (h.coeff(1) - gg.coeff(1)) / fg.coeff(1)
    a = h.coeff(2) - b * fg.coeff(2) - gg.coeff(2)  # (f^2)_2 = 1
    return a, b


# The product identities h = a f^2 + b f g + g^2: for each, the function giving
# (h, f, g) at a precision, and the reference constants (a, b).
PRODUCT_IDENTITIES = {
    "e24": (
        lambda prec: (
            eisenstein_level1(24, prec).series,
            delta(prec).series,
            eisenstein_level1(12, prec).series,
        ),
        (E24_A, E24_B),
    ),
    "e32": (
        lambda prec: (
            eisenstein_level1(32, prec).series,
            eisenstein_level1(4, prec).series * delta(prec).series,
            eisenstein_level1(16, prec).series,
        ),
        (E32_A, E32_B),
    ),
}


def verify_product_identity(name: str, prec: int) -> IdentityReport:
    """Solve a PRODUCT_IDENTITIES entry for (a, b), check the identity to prec
    terms, and fail unless the reference constants come out."""
    series, reference = PRODUCT_IDENTITIES[name]
    h, f, g = series(prec)
    a, b = solve_product_identity(h, f, g)
    report = verify_quadratic_identity(name, h, f, g, a, b)
    if (a, b) != reference:
        detail = f"a = {a}, b = {b} (reference constants not reproduced)"
        return report._replace(status="failed", detail=detail)
    return report._replace(detail=f"a = {a}, b = {b}")


# ---------------------------------------------------------------------------
# Eigenform-square decompositions
# ---------------------------------------------------------------------------
#
# With g one eigenform over K = Q[x]/(T) and its conjugates implicit (Q is the
# case T = x, d2 = 1, with t = (1, 0, ...) and coordinates (a_n(g),)), the
# decomposition series = sum_i c_i g_i collapses to a linear system over the
# base field F1 of the input series: writing c in L = F1[x]/(T), the
# coefficient rows become Tr(c * a_n(g)) = a_n(series). With t_l = Tr(x^l),
# the rational matrix M[n][j] = Tr(x^j a_n(g)) = sum_i a_n(g)_i t_(i+j) factors
# as (a_n(g_i)) times an invertible Vandermonde in the roots of T, so
# det M != 0 certifies the nonsingularity of the eigenvalue matrix itself.
# The i-th coefficient is c_i = sigma_i(c); deg gcd(c(x), T(x)) over F1 of
# them vanish. T is separable, so d2 - deg gcd(c, T) is the rank of the form
# (u, w) -> Tr(c u w) on L, whose matrix is the Hankel matrix of
# s_l = Tr(c x^l) = sum_m c_m t_(m+l).


class EigenDecomposition(NamedTuple):
    weight: int
    base_field: object
    hecke_field: object
    coords: tuple  # c over the base field, in the power basis of the Hecke field
    dim: int
    vanishing_count: int
    verified_prec: int
    eigenform: Eigenform  # the eigenform of the weight decomposed against

    @property
    def all_nonzero(self) -> bool:
        return self.vanishing_count == 0

    def conjugate_pair(self) -> tuple[NumberFieldElement, NumberFieldElement]:
        """Explicit (c_1, c_2) for a quadratic Hecke field over base Q."""
        if self.base_field is not QQ:
            raise ValueError("explicit coefficients need a rational base field")
        if self.hecke_field.degree != 2:
            raise ValueError("explicit listing implemented for quadratic fields")
        c = self.hecke_field.element(self.coords)
        return c, self.hecke_field.conjugate_quadratic(c)


def decompose_in_eigenbasis(
    series: QSeries,
    weight: int,
    prec: int | None = None,
) -> EigenDecomposition:
    """Decompose a cusp expansion against the normalized eigenbasis of the
    given weight; exact in the base field of the input."""
    d2 = cusp_dim(weight)
    if prec is None:
        prec = min(series.prec, max(3 * d2 + 5, 20))
    if series.prec < prec:
        raise ValueError(f"series precision {series.prec} below requested {prec}")
    if prec <= d2:
        raise ValueError(f"need more than {d2} coefficients to decompose and verify")
    g = eigenbasis(weight, prec=prec)[0]
    base = series.field
    K = g.field
    t = K.power_traces(3 * d2 - 2)
    # rows[n][j] = Tr(x^j a_n(g)): rows 1..d2 are the system, every row the check
    rows = [
        [weighted_sum(K.coords(g.a(n)), t[j : j + d2], Fraction(0)) for j in range(d2)]
        for n in range(prec)
    ]
    try:
        minv = invert_rational(rows[1 : d2 + 1])
    except ValueError:
        raise ArithmeticError(
            "valence-formula violation: eigenvalue coefficient matrix is singular"
        ) from None
    rhs = [series.coeff(n + 1) for n in range(d2)]
    coords = [weighted_sum(rhs, minv[j], base.zero()) for j in range(d2)]
    for n in range(prec):
        if weighted_sum(coords, rows[n], base.zero()) != series.coeff(n):
            raise ArithmeticError(f"decomposition fails at coefficient {n}")
    s = [weighted_sum(coords, t[l : l + d2], base.zero()) for l in range(2 * d2 - 1)]
    hankel = [s[u : u + d2] for u in range(d2)]
    vanishing = d2 - rank(hankel, base.zero(), base.one())
    return EigenDecomposition(weight, base, K, tuple(coords), d2, vanishing, prec, g)


def decompose_square(f: Eigenform, prec: int | None = None) -> EigenDecomposition:
    """Decompose f^2 against the eigenbasis of weight 2k."""
    fsq = f.series * f.series
    return decompose_in_eigenbasis(fsq, 2 * f.weight, prec=prec)


class NonvanishingReport(NamedTuple):
    weight: int
    square_weight: int
    dim: int
    all_nonzero: bool
    vanishing_count: int
    entries: list[tuple[int, str | list[str] | None, bool]]  # (index, coeff_json or None, is_zero)
    decomposition: EigenDecomposition

    def as_json(self) -> dict:
        return {
            "weight": self.weight,
            "square_weight": self.square_weight,
            "dim": self.dim,
            "all_nonzero": self.all_nonzero,
            "vanishing_count": self.vanishing_count,
            "entries": [
                {"index": i, "value": v, "is_zero": z} for i, v, z in self.entries
            ],
        }


def nonvanishing_report(k: int, prec: int | None = None) -> NonvanishingReport:
    """Exact zero/nonzero status of the coefficients of f^2 against the
    eigenbasis of weight 2k, for f the weight-k eigenform.

    A nonzero coefficient certifies a nonzero inner product against that
    eigenform: distinct eigenforms are orthogonal with positive norms, so the
    projection cannot vanish while the coefficient does not. The Hecke field
    of weight 2k is never Q: dim S_2k >= 2 wherever S_k has a form.
    """
    f = eigenbasis(k, prec=max(3 * dim_Sk(2 * k) + 5, prec or 20))[0]
    dec = decompose_square(f, prec=prec)
    if dec.base_field is QQ and dec.hecke_field.degree == 2:
        entries = [(i, coeff_json(c), c.is_zero()) for i, c in enumerate(dec.conjugate_pair(), 1)]
    else:
        # per-index values live in conjugate embeddings; only the exact count
        # of vanishing ones is listed
        entries = [(i, None, not dec.all_nonzero) for i in range(1, dec.dim + 1)]
    return NonvanishingReport(
        k, 2 * k, dec.dim, dec.all_nonzero, dec.vanishing_count, entries, dec
    )


# ---------------------------------------------------------------------------
# The two quadratic eigenform-square rows
# ---------------------------------------------------------------------------


def verify_table1() -> IdentityReport:
    """Reconstruct both quadratic eigenform-square decomposition rows from the
    computed eigenbases and check the reference values.

    Two reference entries are not reproducible and are reported as verified
    discrepancies: the weight-24 series constant (digit dropped) and the
    overall coefficient normalization (off by 24^2 from the a_1 = 1
    convention used here).
    """
    discrepancies: list[dict] = []

    def check_row(k: int, products: tuple[QSeries, QSeries], scales) -> tuple[bool, str]:
        """The row's series is sum_i scales(K, root)_i * products_i, with the
        products over Q and the scales in the Hecke field K."""
        dec = nonvanishing_report(k, prec=TABLE1_PREC).decomposition
        K = dec.hecke_field
        root, split = sqrt_of_disc_part(K)
        d = split.squarefree
        if d != TABLE1_DISCS[2 * k]:
            return False, f"discriminant part {d} != {TABLE1_DISCS[2 * k]}"
        terms = [p.coerce_into(K) for p in products]

        def reference_series(root: NumberFieldElement) -> QSeries:
            a, b = scales(K, root)
            return terms[0].scale(a) + terms[1].scale(b)

        g = dec.eigenform
        n = (reference_series(root) - g.series).valuation()
        if n is not None:
            return False, f"series reconstruction differs at q^{n}"
        n = (reference_series(-root) - galois_conjugate(g).series).valuation()
        if n is not None:
            return False, f"conjugate reconstruction differs at q^{n}"
        c1, c2 = dec.conjugate_pair()
        if not (c1 + c2).is_zero():
            return False, "coefficients are not antisymmetric"
        if c1 * (24 * root) != K.one():
            return False, "coefficient magnitude differs from 1/(24 sqrt(D))"
        reference_c = 24 * root * Fraction(1, d)  # 24/sqrt(D)
        factor = reference_c / c1
        discrepancies.append(
            {
                "entry": f"row(k={k}).coefficient",
                "reference": f"24/sqrt({d})",
                "computed": f"1/(24*sqrt({d}))",
                "exact_ratio": str(factor.as_rational()),
            }
        )
        return True, f"c_1 = 1/(24*sqrt({d})), c_2 = -c_1"

    e4, e6, e12 = (eisenstein_level1(w, TABLE1_PREC).series for w in (4, 6, 12))
    dl = delta(TABLE1_PREC).series

    def row1_scales(K: NumberField, root: NumberFieldElement):
        """E12 Delta + (12 sqrt(D) + const) Delta^2"""
        return K.one(), 12 * root + K.coerce(TABLE1_ROW1_CONST)

    def row2_scales(K: NumberField, root: NumberFieldElement):
        """Delta (x E4^5 + (1 - x) E4^2 E6^2)"""
        x = (12 * root + K.coerce(TABLE1_ROW2_X_SHIFT)) * (1 / TABLE1_ROW2_X_DEN)
        return x, K.one() - x

    ok1, detail1 = check_row(12, (e12 * dl, dl * dl), row1_scales)
    discrepancies.append(
        {
            "entry": "row(k=12).series_constant",
            "reference": str(TABLE1_ROW1_CONST_REFERENCE),
            "computed": str(TABLE1_ROW1_CONST),
            "note": "forced by the q^2 eigenvalue of the reconstructed eigenform",
        }
    )
    ok2, detail2 = check_row(16, (dl * e4**5, dl * e4**2 * e6**2), row2_scales)
    status = "verified" if ok1 and ok2 else "failed"
    return IdentityReport(
        "table1",
        status,
        TABLE1_PREC,
        detail=f"row1: {detail1}; row2: {detail2}",
        discrepancies=tuple(discrepancies),
    )


# Each verification target and its report at a requested precision, capped
# per target (Table 1 is always checked to TABLE1_PREC terms); `verify_all`
# and the CLI's `verify` read this one table.
VERIFY_TARGETS = {
    "ramanujan": lambda prec: verify_ramanujan(min(prec, 200)),
    **{
        name: lambda prec, name=name: verify_product_identity(name, min(prec, 80))
        for name in PRODUCT_IDENTITIES
    },
    "table1": lambda prec: verify_table1(),
}


def verify_all(prec: int) -> list[IdentityReport]:
    return [verify(prec) for verify in VERIFY_TARGETS.values()]
