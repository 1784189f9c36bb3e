"""Quantitative scans: the Bernoulli-magnitude sandwich, the finiteness region
for the quadratic eigenform equation, irreducibility/symmetric-group evidence,
and Hecke-field discriminant coprimality."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import factorize, squarefree_kernel
from .dirichlet import (
    DirichletCharacter,
    abs_embed,
    bernoulli_number,
    characters_mod,
    galois_orbits,
    gen_bernoulli,
)
from .forms import cusp_dim
# hecke_matrix stays bound here: perfbench/tests/test_bench_tracer.py checks
# that the tracer replaces this binding along with the one in modforms.hecke
from .hecke import (  # noqa: F401
    HECKE_INDEX, certified_charpoly, hecke_field, hecke_matrix, sqrt_of_disc_part,
)
from .numfield import NumberFieldElement, dedekind_index_test, embed_cyclotomic
from .polys import IrreducibilityCertificate, RatPoly, discriminant


def _floor_scaled(num: int, den: int, shift: int) -> int:
    """floor(num 2^shift / den) for den > 0 and any integer shift."""
    if shift >= 0:
        return (num << shift) // den
    return num // (den << -shift)


@lru_cache(maxsize=None)
def _euler_maclaurin_coefficients() -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of B_2j / (2j)! for j = 1..21."""
    return tuple(
        (c.numerator, c.denominator)
        for c in (bernoulli_number(2 * j) / math.factorial(2 * j) for j in range(1, 22))
    )


@lru_cache(maxsize=None)
def zeta_direct(s: int) -> float:
    """zeta(s) for integer s >= 3 as the double nearest to it, in integer
    arithmetic.

    Euler-Maclaurin at N = 16: zeta(s) = sum_{n < 16} n^-s + 16^(1-s)/(s-1)
    + 16^-s/2 + sum_{j=1}^{20} B_2j/(2j)! s(s+1)...(s+2j-2) 16^(1-s-2j) + R.
    Every derivative of x^-s keeps one sign on [16, inf), so |R| is at most
    the first omitted term, j = 21. Each of the 37 terms is floored at `bits`
    fractional bits, which puts zeta(s) 2^bits in [S - R, S + 37 + R] for
    their sum S. The precision starts at 64 bits and doubles until both ends
    of that interval round to one double.
    """
    if s < 3:
        raise ValueError("s >= 3 required (the bound checks never need less)")
    *corrections, (omitted_num, omitted_den) = _euler_maclaurin_coefficients()
    bits = 64
    while bits <= 4096:
        one = 1 << bits
        # n^-s floors to 0 once n^s > 2^bits
        total = sum(one // n**s for n in range(1, 16) if s * (n.bit_length() - 1) <= bits)
        total += _floor_scaled(1, s - 1, bits - 4 * (s - 1))
        total += _floor_scaled(1, 2, bits - 4 * s)
        rising = s  # s(s+1)...(s+2j-2)
        for j, (num, den) in enumerate(corrections, 1):
            total += _floor_scaled(num * rising, den, bits - 4 * (s + 2 * j - 1))
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        # the first omitted term, rounded up
        r = -_floor_scaled(-abs(omitted_num) * rising, omitted_den, bits - 4 * (s + 41))
        lo, hi = (total - r) / one, (total + 37 + r) / one
        if lo == hi:
            return lo
        bits *= 2
    raise ArithmeticError(f"zeta({s}) lies too close to a rounding boundary")


def bernoulli_lower_bound(k: int, conductor: int) -> float:
    """Lower sandwich bound 2 zeta(2k)/zeta(k) k! (2 pi)^(-k) l^(k-1/2)."""
    return (
        2.0
        * zeta_direct(2 * k)
        / zeta_direct(k)
        * _factorial_over_power(k)
        * conductor ** (k - 0.5)
    )


def bernoulli_upper_bound(k: int, conductor: int) -> float:
    """Upper sandwich bound 2 zeta(k) k! (2 pi)^(-k) l^(k-1/2)."""
    return 2.0 * zeta_direct(k) * _factorial_over_power(k) * conductor ** (k - 0.5)


def _factorial_over_power(k: int) -> float:
    """k! (2 pi)^(-k) without intermediate overflow."""
    return math.exp(math.lgamma(k + 1) - k * math.log(2 * math.pi))


class BoundCheck(NamedTuple):
    k: int
    conductor: int
    holds: bool
    lower: float
    upper: float
    actual: float

    def as_json(self) -> dict:
        return {
            "k": self.k,
            "conductor": self.conductor,
            "holds": self.holds,
            "lower": f"{self.lower:.12e}",
            "upper": f"{self.upper:.12e}",
            "actual": f"{self.actual:.12e}",
        }


def bernoulli_bound_check(k: int, chi: DirichletCharacter, a: int = 1) -> BoundCheck:
    """Sandwich verdict for |B_{k,chi^a}| = |sigma_a(B_{k,chi})|, primitive
    parity-matching chi, a prime to ord(chi)."""
    if k < 3:
        raise ValueError("k >= 3 required")
    if not chi.is_primitive():
        raise ValueError("character must be primitive")
    if chi.parity() != (-1) ** k:
        raise ValueError("parity mismatch: the Bernoulli value vanishes")
    l = chi.conductor()
    try:
        lower = bernoulli_lower_bound(k, l)
        upper = bernoulli_upper_bound(k, l)
    except OverflowError:
        upper = math.inf
    if math.isinf(upper):
        raise ValueError(
            f"the sandwich bounds for weight {k} at conductor {l} exceed the double range"
        )
    val = abs_embed(gen_bernoulli(k, chi), a)
    # at conductor 1 the upper bound is an exact equality, so comparisons get
    # the stated embedding-error budget
    slack = 1e-11
    holds = lower <= val * (1 + slack) and val * (1 - slack) <= upper
    return BoundCheck(k, l, holds, lower, upper, val)


# ---------------------------------------------------------------------------
# Finiteness scan for h = a f^2 + b f g + g^2
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def alpha_beta(
    k: int, phi: DirichletCharacter
) -> tuple[NumberFieldElement, NumberFieldElement]:
    """Exact leading-coefficient scalars: alpha = -4k/B_{2k,phi^2} and
    beta = -2k/B_{k,phi}, in their cyclotomic value fields, once per
    (k, phi)."""
    b1 = gen_bernoulli(k, phi)
    if b1.is_zero():
        raise ValueError("vanishing Bernoulli value: parity mismatch for beta")
    beta = Fraction(-2 * k) / b1
    b2 = gen_bernoulli(2 * k, phi**2)
    if b2.is_zero():
        raise ValueError("vanishing Bernoulli value for alpha")
    alpha = Fraction(-4 * k) / b2
    return alpha, beta


def _inv_lower_bound(k: int, conductor: int) -> float:
    """1 / bernoulli_lower_bound, and 0.0 past the double range."""
    try:
        return 1 / bernoulli_lower_bound(k, conductor)
    except OverflowError:
        return 0.0


def envelope(k: int, conductor: int = 1) -> float:
    """Upper envelope for |alpha| + 2|beta| from the sandwich lower bounds;
    decreasing in both arguments."""
    return 4 * k * _inv_lower_bound(2 * k, conductor) + 4 * k * _inv_lower_bound(
        k, conductor
    )


def conductor_cutoff(k: int, b_abs: float) -> int:
    """Largest conductor l with envelope(k, l) >= |b| (0 when none); beyond it
    the magnitude bound alone rules the coefficient equation out. Conductors
    past 10,000 are an error."""
    if envelope(k, 1) < b_abs:
        return 0
    l = 1
    while l <= 10_000 and envelope(k, l + 1) >= b_abs:
        l += 1
    if l > 10_000:
        raise ArithmeticError("conductor cutoff exceeded the hard cap")
    return l


class ScanCell(NamedTuple):
    k: int
    conductor: int
    exponents: tuple[int, ...]
    alpha_abs: float
    beta_abs: float
    satisfies_eq: bool
    excluded_by: str  # "" for candidates inside the cutoff region

    def as_json(self) -> dict:
        return {
            "k": self.k,
            "conductor": self.conductor,
            "character": list(self.exponents),
            "alpha_abs": f"{self.alpha_abs:.12e}",
            "beta_abs": f"{self.beta_abs:.12e}",
            "satisfies_eq": self.satisfies_eq,
            "excluded_by": self.excluded_by,
        }


class FinitenessReport(NamedTuple):
    a: Fraction
    b: Fraction
    k_bound: int
    k_enumerated_to: int
    l_max: int
    survivors: list[ScanCell]
    cells: list[ScanCell]
    cutoffs: dict[int, int]  # k -> conductor cutoff actually used
    monotone_from_8: bool
    complete: bool
    notes: str = ""

    def as_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "k_bound": self.k_bound,
            "k_enumerated_to": self.k_enumerated_to,
            "l_max": self.l_max,
            "survivors": [c.as_json() for c in self.survivors],
            "cells": [c.as_json() for c in self.cells],
            "cutoffs": {str(k): v for k, v in self.cutoffs.items()},
            "monotone_from_8": self.monotone_from_8,
            "complete": self.complete,
            "notes": self.notes,
        }


@lru_cache(maxsize=None)
def eq12_holds_exactly(b: Fraction, k: int, phi: DirichletCharacter) -> bool:
    """Exact test of the q^1 coefficient relation b + 2 beta = alpha, memoized, in
    beta's field Q(zeta_ord(phi)), which holds alpha since ord(phi^2) | ord(phi)."""
    alpha, beta = alpha_beta(k, phi)
    return beta.parent.coerce(b) + 2 * beta == embed_cyclotomic(alpha, beta.parent)


def finiteness_scan(
    a: Fraction,
    b: Fraction,
    k_max: int = 60,
    l_max: int = 10,
) -> FinitenessReport:
    """Exhibit the finiteness of the coefficient equation b + 2 beta = alpha.

    k_bound is the largest k <= 200 at which the magnitude envelope still
    allows a solution (monotonicity of the envelope, checked from 8 to 200,
    extends the exclusion beyond); below it every primitive character cell
    inside the conductor cutoff is enumerated and the relation is re-checked
    exactly.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("both coefficients must be nonzero")
    # an |b| past the double range is above every envelope
    b_abs = float(abs(b)) if abs(b) <= sys.float_info.max else math.inf
    envs = {k: envelope(k) for k in range(3, 201)}
    above = [k for k, v in envs.items() if v >= b_abs]
    k_bound = max(above) if above else 2
    monotone = all(envs[k + 1] < envs[k] for k in range(8, 200))
    k_enum = min(k_bound, k_max)
    survivors: list[ScanCell] = []
    cells: list[ScanCell] = []
    cutoffs: dict[int, int] = {}
    admissible: dict[int, list[DirichletCharacter]] = {}  # modulus -> characters
    for k in range(3, k_enum + 1):
        l_star = conductor_cutoff(k, b_abs)
        bound = max(l_max, l_star)
        cutoffs[k] = l_star
        for modulus in range(1, bound + 1):
            if modulus not in admissible:
                admissible[modulus] = [
                    phi
                    for phi in characters_mod(modulus)
                    if phi.is_primitive() and (phi**2).conductor() == modulus
                ]
            chars = [phi for phi in admissible[modulus] if phi.parity() == (-1) ** k]
            # phi = rep^j: sigma_j carries rep's alpha, beta and relation (b is rational) to phi's
            for phi, rep, j in galois_orbits(chars):
                alpha, beta = alpha_beta(k, rep)
                ok = eq12_holds_exactly(b, k, rep)
                cell = ScanCell(
                    k,
                    modulus,
                    phi.exponents,
                    abs_embed(alpha, j),
                    abs_embed(beta, j),
                    ok,
                    "" if modulus <= l_star else "bound",
                )
                cells.append(cell)
                if ok:
                    if cell.excluded_by:
                        raise ArithmeticError(
                            "exact solution found in the bound-excluded region"
                        )
                    survivors.append(cell)
    complete = k_max >= k_bound and monotone
    notes = "" if complete else "enumeration truncated below the computed k bound"
    return FinitenessReport(
        a, b, k_bound, k_enum, l_max, survivors, cells, cutoffs, monotone, complete, notes
    )


# ---------------------------------------------------------------------------
# Irreducibility and symmetric-group evidence
# ---------------------------------------------------------------------------


class MaedaReport(NamedTuple):
    """poly_disc is the discriminant of the charpoly, computed and split once
    per weight: disc_squarefree and, at d = 2, quad_field_disc read that split.
    The cycle-type flags read the certificate's patterns. The report of a
    one-dimensional space has no charpoly, no certificate and every flag set."""

    weight: int
    dim: int
    charpoly: RatPoly | None
    certificate: IrreducibilityCertificate | None
    poly_disc: Fraction | None
    disc_squarefree: int | None
    disc_factor_complete: bool
    quad_field_disc: int | None

    @property
    def patterns(self) -> dict[int, tuple[int, ...]]:
        return self.certificate.patterns if self.certificate else {}

    @property
    def has_full_cycle(self) -> bool:
        d = self.dim
        return d <= 1 or any(pat == (d,) for pat in self.patterns.values())

    @property
    def has_transposition(self) -> bool:
        d = self.dim
        return d <= 1 or any(sorted(pat) == [1] * (d - 2) + [2] for pat in self.patterns.values())

    @property
    def has_single_odd_cycle(self) -> bool:
        # a transposition generates the full group when d = 2, so the odd-cycle
        # witness is vacuous there (and unobservable: patterns are (1,1) or (2))
        return self.dim <= 2 or any(
            sum(1 for x in pat if x > 1) == 1 and max(pat) % 2 == 1 and max(pat) > 1
            for pat in self.patterns.values()
        )

    @property
    def irreducible(self) -> bool:
        return bool(self.certificate and self.certificate.is_irreducible) or self.dim <= 1

    @property
    def sn_evidence(self) -> bool:
        """Heuristic witness only; never a proof of the Galois group."""
        return self.has_full_cycle and self.has_transposition and self.has_single_odd_cycle

    def as_json(self) -> dict:
        return {
            "weight": self.weight,
            "dim": self.dim,
            "hecke_index": HECKE_INDEX if self.certificate else None,
            "charpoly": [str(c) for c in self.charpoly.coeffs] if self.charpoly else None,
            "status": self.certificate.status if self.certificate else "trivial",
            "poly_disc": str(self.poly_disc) if self.poly_disc is not None else None,
            "disc_squarefree": (
                str(self.disc_squarefree) if self.disc_squarefree is not None else None
            ),
            "disc_factor_complete": self.disc_factor_complete,
            "quad_field_disc": self.quad_field_disc,
            "patterns": {str(p): list(pat) for p, pat in self.patterns.items()},
            "sn_evidence": {
                "full_cycle": self.has_full_cycle,
                "transposition": self.has_transposition,
                "single_odd_cycle": self.has_single_odd_cycle,
                "heuristic_sn": self.sn_evidence,
            },
        }


def maeda_check(k: int) -> MaedaReport:
    """Irreducibility certificate for the T_2 charpoly plus mod-p cycle-type
    evidence for the full symmetric group (one-sided, explicitly heuristic).
    The evidence reads the patterns of hecke.certified_charpoly's certificate."""
    d = cusp_dim(k)
    if d == 1:
        return MaedaReport(k, 1, None, None, None, None, True, None)
    _, cp, cert = certified_charpoly(k)
    disc = discriminant(cp)
    # bounded caps: large higher-degree discriminants come back flagged partial
    split = squarefree_kernel(disc.numerator, trial_bound=10**5, rho_iterations=20_000)
    quad_disc = split.field_discriminant() if d == 2 and split.complete else None
    squarefree = split.squarefree if split.complete else None
    return MaedaReport(k, d, cp, cert, disc, squarefree, split.complete, quad_disc)


# ---------------------------------------------------------------------------
# Hecke-field discriminant coprimality for the weight pairs (k, 2k)
# ---------------------------------------------------------------------------


class SharedPrimeFinding(NamedTuple):
    p: int
    ramified_in_quadratic: bool
    index_divisor_in_double: bool | None
    conclusion: str  # "clear" | "common-ramification" | "unknown"

    def as_json(self) -> dict:
        return self._asdict()


class IntersectionReport(NamedTuple):
    k: int
    pair: tuple[int, int]
    verdict: str  # "coprime" | "common-ramification" | "unknown"
    quad_field_disc: int | None
    poly_disc_k: Fraction | None
    poly_disc_2k: Fraction | None
    shared: list[SharedPrimeFinding]
    detail: str = ""

    def as_json(self) -> dict:
        return {
            "k": self.k,
            "pair": list(self.pair),
            "verdict": self.verdict,
            "quad_field_disc": self.quad_field_disc,
            "poly_disc_k": str(self.poly_disc_k) if self.poly_disc_k is not None else None,
            "poly_disc_2k": str(self.poly_disc_2k) if self.poly_disc_2k is not None else None,
            "shared_primes": [s.as_json() for s in self.shared],
            "detail": self.detail,
        }


def hecke_field_intersection_check(k: int) -> IntersectionReport:
    """Certify coprimality of the Hecke-field discriminants for (k, 2k).

    Route: gcd of the two charpoly discriminants, trial-division factoring of
    the gcd, exact quadratic field discriminant on the k side, and the
    Dedekind index test on the 2k side for any genuinely shared ramified
    prime. Inconclusive primes are reported as unknown, never passed.
    """
    d1 = cusp_dim(k)
    if d1 == 1:
        return IntersectionReport(
            k, (k, 2 * k), "coprime", None, None, None, [], detail="rational Hecke field"
        )
    if d1 != 2:
        raise ValueError("the quadratic-side route needs dim 2 in weight k")
    _, K1 = hecke_field(k)
    _, K2 = hecke_field(2 * k)
    split = sqrt_of_disc_part(K1)[1]  # K1.modulus has discriminant D f^2
    disc1, disc2 = Fraction(split.squarefree * split.square_root**2), discriminant(K2.modulus)
    quad_disc = split.field_discriminant()
    g = math.gcd(abs(disc1.numerator), abs(disc2.numerator))
    fact = factorize(g, trial_bound=10**6, rho_iterations=0)
    findings: list[SharedPrimeFinding] = []
    verdict = "coprime"
    for p in sorted(fact.factors):
        ram1 = quad_disc % p == 0
        if not ram1:
            findings.append(SharedPrimeFinding(p, False, None, "clear"))
            continue
        divides_index = dedekind_index_test(K2.modulus, p)
        if not divides_index:
            # p divides the charpoly discriminant but not the index, so it
            # divides the field discriminant on the 2k side as well
            findings.append(SharedPrimeFinding(p, True, False, "common-ramification"))
            verdict = "common-ramification"
        else:
            findings.append(SharedPrimeFinding(p, True, True, "unknown"))
            if verdict == "coprime":
                verdict = "unknown"
    detail = ""
    if not fact.complete:
        verdict = "unknown"
        detail = f"gcd cofactor {fact.cofactor} not factored by trial division"
    return IntersectionReport(
        k, (k, 2 * k), verdict, quad_disc, disc1, disc2, findings, detail
    )
