import math
import random
import time
from fractions import Fraction

import pytest

from modforms.dirichlet import abs_embed, characters_mod, trivial_character
from modforms import arith, hecke, scans
from modforms.hecke import UnsupportedHeckeField, certified_charpoly
from modforms.numfield import embed_cyclotomic
from modforms.polys import RatPoly, discriminant, poly_irreducible
from modforms.scans import (
    alpha_beta,
    bernoulli_bound_check,
    conductor_cutoff,
    envelope,
    eq12_holds_exactly,
    finiteness_scan,
    hecke_field_intersection_check,
    maeda_check,
    zeta_direct,
)


def test_zeta_direct():
    assert abs(zeta_direct(4) - math.pi**4 / 90) < 1e-13
    assert abs(zeta_direct(6) - math.pi**6 / 945) < 1e-13
    assert abs(zeta_direct(3) - 1.2020569031595943) < 1e-12
    with pytest.raises(ValueError):
        zeta_direct(2)


def test_zeta_direct_matches_mpmath():
    import mpmath

    with mpmath.workdps(30):
        expected = [float(mpmath.zeta(s)) for s in range(3, 401)]
    assert [zeta_direct(s) for s in range(3, 401)] == expected


def test_zeta_direct_at_a_huge_argument_is_quick():
    start = time.perf_counter()
    assert zeta_direct.__wrapped__(10**5) == 1.0
    assert time.perf_counter() - start < 0.1


def test_alpha_beta_values():
    triv = trivial_character(1)
    assert alpha_beta(4, triv)[1].as_rational() == 240
    assert alpha_beta(6, triv)[1].as_rational() == -504
    assert alpha_beta(12, triv)[1].as_rational() == Fraction(65520, 691)


def test_alpha_beta_parity_guard():
    triv = trivial_character(1)
    with pytest.raises(ValueError):
        alpha_beta(3, triv)  # odd weight with even character


def test_bound_check_examples():
    triv = trivial_character(1)
    assert bernoulli_bound_check(12, triv).holds
    odd4 = next(c for c in characters_mod(4) if c.parity() == -1)
    assert bernoulli_bound_check(5, odd4).holds
    odd7 = next(
        c for c in characters_mod(7) if c.parity() == -1 and c.is_primitive()
    )
    assert bernoulli_bound_check(3, odd7).holds


def test_bound_check_guards():
    odd4 = next(c for c in characters_mod(4) if c.parity() == -1)
    with pytest.raises(ValueError):
        bernoulli_bound_check(4, odd4)  # parity mismatch
    lifted = next(c for c in characters_mod(8) if c.conductor() == 4)
    with pytest.raises(ValueError):
        bernoulli_bound_check(5, lifted)  # not primitive


def test_bound_sandwich_sweep_conductor_20():
    for modulus in range(1, 21):
        for chi in characters_mod(modulus):
            if not chi.is_primitive():
                continue
            for k in range(3, 17):
                if chi.parity() != (-1) ** k:
                    continue
                assert bernoulli_bound_check(k, chi).holds, (modulus, k)


def test_envelope_monotone_for_k_at_least_8():
    values = [envelope(k) for k in range(8, 120)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_finiteness_scan_unit_coefficients():
    report = finiteness_scan(Fraction(1), Fraction(1), k_max=60, l_max=10)
    assert report.complete
    assert report.k_bound < 60
    assert report.monotone_from_8
    assert report.survivors == []
    # every survivor (none here) would have been re-verified exactly; spot
    # re-check a handful of enumerated cells through the exact route
    rng = random.Random(9)
    cells = [c for c in report.cells if c.conductor <= 12]
    for cell in rng.sample(cells, min(10, len(cells))):
        chars = [
            c for c in characters_mod(cell.conductor) if c.exponents == cell.exponents
        ]
        assert len(chars) == 1
        assert eq12_holds_exactly(Fraction(1), cell.k, chars[0]) == cell.satisfies_eq


def test_finiteness_cells_match_their_own_characters():
    # alpha and beta are evaluated once per Galois orbit; each cell still
    # equals a direct, unmemoized evaluation of its own character
    alpha_beta.cache_clear()
    report = finiteness_scan(Fraction(3), Fraction(-1, 7), 40, 12)
    evaluated = alpha_beta.cache_info().misses
    orbits = set()
    conjugate_cells = 0
    for cell in report.cells:
        (phi,) = [c for c in characters_mod(cell.conductor) if c.exponents == cell.exponents]
        conjugate_cells += phi.order > 2
        units = [j for j in range(1, phi.order + 1) if math.gcd(j, phi.order) == 1]
        orbits.add((cell.k, frozenset(phi**j for j in units)))
        alpha, beta = alpha_beta.__wrapped__(cell.k, phi)
        assert (cell.alpha_abs, cell.beta_abs, cell.satisfies_eq) == (
            abs_embed(alpha),
            abs_embed(beta),
            beta.parent.coerce(Fraction(-1, 7)) + 2 * beta == embed_cyclotomic(alpha, beta.parent),
        ), cell
    assert conjugate_cells > 100
    assert len(orbits) < len(report.cells) - conjugate_cells // 2
    assert evaluated == len(orbits)


def test_finiteness_scan_large_b_no_survivors():
    report = finiteness_scan(Fraction(1), Fraction(1000), k_max=60, l_max=5)
    assert report.survivors == []
    assert report.k_bound <= 8


@pytest.mark.parametrize("b", [Fraction(10) ** 309, -Fraction(10) ** 309, Fraction(10**400, 3)])
def test_finiteness_b_past_the_double_range(b):
    # an |b| no double holds is above every envelope, as |b| = 1e300 is
    report = finiteness_scan(Fraction(1), b, k_max=10, l_max=2)
    reference = finiteness_scan(Fraction(1), Fraction(10) ** 300, k_max=10, l_max=2)
    assert report == reference._replace(b=b)
    assert (report.k_bound, report.cells, report.complete) == (2, [], True)


def test_finiteness_trivial_sanity_k4():
    # beta = 240 for the trivial character, so b = alpha - 2 beta needs
    # b close to alpha - 480; unit b fails exactly
    triv = trivial_character(1)
    alpha, beta = alpha_beta(4, triv)
    assert beta.as_rational() == 240
    b_required = alpha.as_rational() - 2 * beta.as_rational()
    assert b_required != 1
    assert not eq12_holds_exactly(Fraction(1), 4, triv)


def test_excluded_pairs_spot_check():
    # 50 random (k, character) pairs excluded by the conductor cutoff for
    # b = 1: none satisfies the exact coefficient relation
    rng = random.Random(0)
    pool = []
    for k in range(3, 21):
        l_star = conductor_cutoff(k, 1.0)
        for modulus in range(1, 21):
            if modulus <= l_star:
                continue
            for chi in characters_mod(modulus):
                if not chi.is_primitive():
                    continue
                if (chi**2).conductor() != modulus:
                    continue
                if chi.parity() != (-1) ** k:
                    continue
                pool.append((k, chi))
    assert len(pool) >= 50
    for k, chi in rng.sample(pool, 50):
        assert not eq12_holds_exactly(Fraction(1), k, chi)


def test_maeda_check_examples():
    rep24 = maeda_check(24)
    assert rep24.irreducible
    assert rep24.disc_squarefree == 144169
    assert rep24.quad_field_disc == 144169
    rep28 = maeda_check(28)
    assert rep28.irreducible
    assert rep28.quad_field_disc == 18209
    rep12 = maeda_check(12)
    assert rep12.dim == 1 and rep12.irreducible


def test_maeda_agrees_with_square_test_for_quadratics():
    for k in (24, 28, 30, 32, 34, 38):
        rep = maeda_check(k)
        assert rep.dim == 2
        disc = discriminant(rep.charpoly)
        assert disc.denominator == 1
        root = math.isqrt(abs(disc.numerator))
        is_square = disc.numerator >= 0 and root * root == disc.numerator
        assert rep.certificate.is_irreducible == (not is_square)
        assert not is_square


# The field discriminant of Q(sqrt(disc T_2)) at each weight with dim S_k = 2
QUADRATIC_FIELD_DISCS = {
    24: 144169, 28: 18209, 30: 51349, 32: 18295489, 34: 2356201, 38: 63737521,
}


def _count_calls(monkeypatch, fn, modules):
    """Bind a counting wrapper of fn in each module; returns the argument list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("k", sorted(QUADRATIC_FIELD_DISCS))
def test_maeda_reads_the_quadratic_field_from_its_one_split(monkeypatch, k):
    """At d = 2 the capped split of the T_2 discriminant also answers the
    field discriminant; nothing factors the squarefree part again."""
    calls = _count_calls(monkeypatch, arith.squarefree_kernel, (arith, hecke, scans))
    rep = maeda_check(k)
    assert rep.dim == 2 and rep.disc_factor_complete
    assert len(calls) == 1
    assert rep.quad_field_disc == QUADRATIC_FIELD_DISCS[k]


def test_maeda_sn_evidence_for_moderate_weights():
    for k in (24, 36, 48):
        rep = maeda_check(k)
        assert rep.certificate.is_irreducible
        assert rep.has_full_cycle
        assert rep.has_transposition


def test_intersection_checks():
    rep24 = hecke_field_intersection_check(24)
    assert rep24.verdict == "coprime"
    assert rep24.quad_field_disc == 144169
    assert all(s.conclusion == "clear" for s in rep24.shared)
    rep28 = hecke_field_intersection_check(28)
    assert rep28.verdict == "coprime"
    assert rep28.quad_field_disc == 18209
    rep16 = hecke_field_intersection_check(16)
    assert rep16.verdict == "coprime"
    assert "rational" in rep16.detail


def test_intersection_check_computes_the_weight_k_discriminant_once(monkeypatch):
    cp24 = certified_charpoly(24)[1]
    calls = _count_calls(monkeypatch, discriminant, (hecke, scans))
    splits = _count_calls(monkeypatch, arith.squarefree_kernel, (arith, hecke, scans))
    hecke_field_intersection_check(24)
    assert sum(p == cp24 for (p,) in calls) == 1
    assert len(splits) == 1


@pytest.mark.parametrize("k", sorted(QUADRATIC_FIELD_DISCS))
def test_intersection_report_at_every_quadratic_weight(k):
    """The whole report, against discriminants computed here: the two charpoly
    discriminants share only the primes 2 and 3, and neither of them ramifies
    in the weight-k quadratic field."""
    cp_k, cp_2k = certified_charpoly(k)[1], certified_charpoly(2 * k)[1]
    clear = [
        {"p": p, "ramified_in_quadratic": False, "index_divisor_in_double": None,
         "conclusion": "clear"}
        for p in (2, 3)
    ]
    assert hecke_field_intersection_check(k).as_json() == {
        "k": k,
        "pair": [k, 2 * k],
        "verdict": "coprime",
        "quad_field_disc": QUADRATIC_FIELD_DISCS[k],
        "poly_disc_k": str(discriminant(cp_k)),
        "poly_disc_2k": str(discriminant(cp_2k)),
        "shared_primes": clear,
        "detail": "",
    }


def test_intersection_check_without_a_certificate_raises(monkeypatch):
    """The check reads both fields through hecke.hecke_field, so an undecided
    weight-k certificate is an error, never a verdict."""
    cp = RatPoly([1, 0, 0, 0, 1])  # x^4 + 1 splits mod every prime: no certificate
    cert = poly_irreducible(cp)
    assert cert.status == "unknown"
    monkeypatch.setattr(hecke, "certified_charpoly", lambda k, basis=None: (None, cp, cert))
    with pytest.raises(UnsupportedHeckeField, match="no irreducibility certificate for weight 24"):
        hecke_field_intersection_check(24)


def test_intersection_quadratic_side_matches_reference_table():
    from modforms.identities import TABLE2_FIELD_DISCS

    assert hecke_field_intersection_check(24).quad_field_disc == TABLE2_FIELD_DISCS[24]
    assert hecke_field_intersection_check(28).quad_field_disc == TABLE2_FIELD_DISCS[28]
