"""Zeros of weight-12n Eisenstein series on the unit-circle arc of the
fundamental domain, and the algebraicity of the j-values there.

The exact side expands E_{12n} in the monomials E_12^(n-l) Delta^l by
iterated constant-term extraction; the numeric side locates arc zeros via
the real-valued rotation exp(ik theta/2) E_k(exp(i theta)) and matches the
j-values against the roots of the associated monic rational polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .forms import delta, eisenstein_level1
from .polys import RatPoly, _fixed_eval, clear_denominators
from .qseries import QSeries
from .roots import aberth_roots, step_tolerance

ARC_LOW = math.pi / 3
ARC_HIGH = math.pi / 2
DPS = 40  # decimal digits of every mpmath evaluation
J_SHIFT = Fraction(432000, 691)  # j - J_SHIFT = E_12 / Delta


class MonomialExpansion(NamedTuple):
    """E_{12n} = sum_l a_l E_12^(n-l) Delta^l with a_0 = 1 and all a_l in Q."""

    n: int
    coeffs: tuple[Fraction, ...]


def expand_E12n(n: int) -> MonomialExpansion:
    """Iterated constant-term extraction of the monomial coefficients.

    Before step l the residual is sum_{j >= l} a_j E_12^(n-j) Delta^j, which
    is a_l q^l + O(q^(l+1)) because E_12 = 1 + O(q) and Delta = q + O(q^2);
    so a_l is its q^l coefficient. The final residual must vanish to the
    working precision of 4n + 20 terms, which also catches a nonzero lower
    coefficient.
    """
    if n < 1:
        raise ValueError("n must be positive")
    prec = 4 * n + 20
    e12 = eisenstein_level1(12, prec).series
    dl = delta(prec).series
    e12_pows = [QSeries.constant(e12.field, 1, prec)]
    for _ in range(n):
        e12_pows.append(e12_pows[-1] * e12)
    residual = eisenstein_level1(12 * n, prec).series - e12_pows[n]
    coeffs = [Fraction(1)]
    dl_pow = QSeries.constant(dl.field, 1, prec)
    for l in range(1, n + 1):
        dl_pow = dl_pow * dl
        a_l = residual.coeff(l)
        coeffs.append(a_l)
        if a_l != 0:
            residual = residual - (e12_pows[n - l] * dl_pow).scale(a_l)
    if not residual.is_zero():
        raise ArithmeticError("monomial expansion residual is nonzero")
    return MonomialExpansion(n, tuple(coeffs))


def algebraic_poly(expansion: MonomialExpansion) -> RatPoly:
    """P(x) = sum_l a_l x^(n-l): monic of degree n; its roots are the values
    E_12/Delta at the arc zeros."""
    return RatPoly(list(reversed(expansion.coeffs)))


# ---------------------------------------------------------------------------
# High-precision evaluation on the arc
# ---------------------------------------------------------------------------


def _zeta_upper(s: int) -> float:
    """Cheap upper bound for zeta(s), s >= 2."""
    return 1.0 + 2.0**-s + 2.0 ** (1 - s) / (s - 1)


class SeriesEvaluator:
    """sum a_n q^n for a rational q-series, by a fixed-point Horner on its
    integer numerators, with a bound on the dropped tail.

    The tail bound rests on |a_n| <= |a_1| zeta(weight-1) n^(weight-1), which
    holds for the level-1 Eisenstein series, whose a_n = a_1 sigma_{weight-1}(n),
    and for normalized eigenforms such as Delta; a series with a_1 = 0 has no
    such bound and is refused.
    """

    def __init__(self, series: QSeries, weight: int):
        a1 = series.coeff(1)
        if a1 == 0:
            raise ValueError("no coefficient bound for a series with a_1 = 0")
        self.prec = series.prec
        self.exponent = weight - 1
        self.coeff_bound = abs(a1.numerator) / a1.denominator * _zeta_upper(weight - 1)
        self.denominator, numerators = clear_denominators(series.coeffs)
        self.valuation = 0 if numerators[0] else 1  # keeps a cusp form's error relative
        self.numerators = numerators[self.valuation :]

    def __call__(self, q):
        """The sum at q, |q| < 1, as an mpc at DPS digits: q is rounded to 20
        bits past the working precision, and each step of polys._fixed_eval
        floors once at that scale, so the integer sum is off by under
        sqrt(2) / (1 - |q|) units."""
        import mpmath
        with mpmath.workdps(DPS):
            q, bits = mpmath.mpmathify(q), mpmath.mp.prec + 20
            with mpmath.workprec(bits + 2):  # nint is exact here, as |q| < 1
                qr, qi = (int(mpmath.nint(mpmath.ldexp(x, bits))) for x in (q.real, q.imag))
            re, im = _fixed_eval(self.numerators, qr, qi, bits)
            return mpmath.mpc(re, im) / (self.denominator << bits) * q**self.valuation

    def at(self, z):
        """(value, tail bound) at q = exp(2 pi i z), for Im(z) >= 0.85, where
        |q| <= 0.00482 and the tail is controlled."""
        import mpmath
        with mpmath.workdps(DPS):
            z = mpmath.mpc(z)
            if z.imag < 0.85:
                raise ValueError("evaluation restricted to Im(z) >= 0.85")
            q = mpmath.exp(2j * mpmath.pi * z)
            return self(q), self.tail_bound(abs(q))

    def tail_bound(self, r) -> float:
        """Bound on |sum_{n >= prec} a_n q^n| over |q| <= r, from
        (1 + j/P)^e <= exp(j e/P): a geometric series of ratio r exp(e/P)."""
        import mpmath
        P, e = self.prec, self.exponent
        with mpmath.workdps(DPS):
            r = mpmath.mpf(r)
            if r**P > mpmath.mpf("1e-30"):
                raise ValueError(f"precision {P} too small: |q|^prec must be below 1e-30")
            ratio = float(r) * math.exp(e / P)
            if ratio >= 0.5:
                raise ValueError("tail ratio bound fails; increase the precision")
            return float(mpmath.mpf(self.coeff_bound) * mpmath.mpf(P) ** e * r**P / (1 - ratio))


@cache
def _e4_e6_evaluators() -> tuple[SeriesEvaluator, SeriesEvaluator]:
    """E_4 and E_6 to 80 terms, built once for every zero jvalue_at visits."""
    return tuple(SeriesEvaluator(eisenstein_level1(w, 80).series, w) for w in (4, 6))


def jvalue_at(z):
    """j(z) = E_4(z)^3 / Delta(z) with Delta recovered from E_4 and E_6."""
    import mpmath
    with mpmath.workdps(DPS):
        e4, e6 = (evaluate.at(z)[0] for evaluate in _e4_e6_evaluators())
        dlt = (e4**3 - e6**2) / 1728
        return e4**3 / dlt


class ArcZero(NamedTuple):
    theta: float
    residual: float

    def as_json(self) -> dict:
        return {"theta": f"{self.theta:.15f}", "residual": f"{self.residual:.3e}"}


def arc_function(k: int):
    """theta -> exp(ik theta/2) E_k(exp(i theta)), real on the arc."""
    import mpmath
    evaluate = SeriesEvaluator(eisenstein_level1(k, max(k + 10, 40)).series, k)
    with mpmath.workdps(DPS):
        # |q| is largest at the arc's low end, where Im(z) = sin(pi/3)
        tail = evaluate.tail_bound(mpmath.exp(-2 * mpmath.pi * mpmath.sin(mpmath.mpf(ARC_LOW))))

    def f(theta):
        with mpmath.workdps(DPS):
            theta = mpmath.mpf(theta)
            q = mpmath.exp(2j * mpmath.pi * mpmath.exp(1j * theta))
            rotated = mpmath.exp(0.5j * k * theta) * evaluate(q)
            assert abs(rotated.imag) <= tail + mpmath.mpf("1e-25") * (1 + abs(rotated))
            return rotated.real

    f.tail_bound = tail
    return f


def find_arc_zeros(k: int, tol: float = 1e-12) -> list[ArcZero]:
    """Zeros of E_k on the arc, k a multiple of 12, by bisection between the
    points theta_m = 2 pi m / k, m = k/6 .. k/4.

    Rankin and Swinnerton-Dyer ("On the zeros of Eisenstein series", 1970)
    write the rotated form as 2 cos(k theta/2) + R with |R| < 2 on the arc,
    so its sign at theta_m is (-1)^m and each of the k/12 gaps holds exactly
    one zero. Callers still check the count. Bisection stops at width tol or
    at the working precision, where the midpoint meets an endpoint.
    """
    if k % 12:
        raise ValueError("arc-zero search is defined for weights divisible by 12")
    if not 0 < tol < math.inf:
        raise ValueError(f"zero tolerance must be positive and finite, got {tol}")
    import mpmath
    f = arc_function(k)
    with mpmath.workdps(DPS):
        grid = [2 * mpmath.pi * m / k for m in range(k // 6, k // 4 + 1)]
        values = [f(t) for t in grid]
        zeros: list[ArcZero] = []
        for i in range(len(grid) - 1):
            a, b = grid[i], grid[i + 1]
            fa, fb = values[i], values[i + 1]
            if fa * fb < 0:
                while b - a > tol:
                    mid = (a + b) / 2
                    if mid == a or mid == b:
                        break
                    fm = f(mid)
                    if fm == 0:
                        a = b = mid
                        break
                    if fa * fm < 0:
                        b, fb = mid, fm
                    else:
                        a, fa = mid, fm
                theta = (a + b) / 2
                zeros.append(ArcZero(float(theta), float(abs(f(theta)))))
        return zeros


class JAlgebraicityReport(NamedTuple):
    n: int
    expansion: MonomialExpansion
    zeros: list[ArcZero]
    j_values: list[complex]
    poly_roots_shifted: list[complex]
    max_pair_distance: float
    status: str
    tol: float

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "coeffs": [str(c) for c in self.expansion.coeffs],
            "zeros": [z.as_json() for z in self.zeros],
            "j_values": [f"{v.real:.12e}{v.imag:+.3e}j" for v in self.j_values],
            "poly_roots_shifted": [f"{v.real:.12e}{v.imag:+.3e}j" for v in self.poly_roots_shifted],
            "max_pair_distance": f"{self.max_pair_distance:.3e}",
            "status": self.status,
            "tol": f"{self.tol:.1e}",
        }


def _real_roots(roots: list) -> list | None:
    """The real parts of roots (mpc from aberth_roots at DPS digits), sorted,
    or None unless they are distinct reals: each imaginary part within the
    step tolerance, and consecutive real parts apart by more than its square
    root, so that the two approximations of a double root, which stay about
    that far apart, count as one."""
    import mpmath
    with mpmath.workdps(DPS):
        eps = step_tolerance()
        if any(abs(z.imag) > eps * max(1, abs(z)) for z in roots):
            return None
        xs, gap = sorted(z.real for z in roots), mpmath.sqrt(eps)
        distinct = all(b - a > gap * max(1, abs(b)) for a, b in zip(xs, xs[1:]))
        return xs if distinct else None


def _pairing_distance(xs: list[complex], ys: list[complex]) -> float:
    """Maximum pointwise distance with both lists paired in order of real part.

    For real values this is the least maximum distance over all pairings;
    otherwise it bounds that least value from above, so a pass stays sound.
    """
    xs, ys = (sorted(v, key=lambda z: z.real) for v in (xs, ys))
    return max(abs(x - y) for x, y in zip(xs, ys))


def jvalue_algebraicity_check(
    n: int,
    tol_match: float = 1e-8,
    tol_zero: float = 1e-12,
) -> JAlgebraicityReport:
    """Match the j-values at the arc zeros of E_{12n} against the roots of the
    exact monomial polynomial shifted by 432000/691."""
    if not 0 < tol_match < math.inf:
        raise ValueError(f"match tolerance must be positive and finite, got {tol_match}")
    import mpmath
    expansion = expand_E12n(n)
    poly = algebraic_poly(expansion)
    zeros = find_arc_zeros(12 * n, tol=tol_zero)
    with mpmath.workdps(DPS):
        jvals = [complex(jvalue_at(mpmath.exp(1j * mpmath.mpf(z.theta)))) for z in zeros]
        polished = aberth_roots(poly.coeffs)
    real = _real_roots(polished)  # Rankin-Swinnerton-Dyer: all real
    roots = [complex(r) + float(J_SHIFT) for r in real or polished]
    found = len(zeros) == n and real is not None
    dist = _pairing_distance(jvals, roots) if found else math.inf
    status = "verified" if dist <= tol_match else "failed"
    return JAlgebraicityReport(n, expansion, zeros, jvals, roots, dist, status, tol_match)
