"""Irreducibility certificates: verdicts against sympy, the mod-p patterns
the certificate carries against the discriminant-filtered primes, the Mahler
stop on polynomials that are not squarefree, and how often the Hecke callers
recompute them."""

import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from modforms import forms, hecke, identities, polys, scans
from modforms.arith import iter_primes
from modforms.polys import RatPoly, discriminant, factor_degrees_mod_p, poly_irreducible

X = sympy.symbols("x")

ints = st.integers(min_value=-20, max_value=20)
nonzero = ints.filter(bool)


@st.composite
def integer_polys(draw):
    """Random integer polys of degree 2..7; half of them are products with a
    linear or quadratic factor."""
    def poly(degree):
        return RatPoly(draw(st.lists(ints, min_size=degree, max_size=degree)) + [draw(nonzero)])

    if draw(st.booleans()):
        return poly(draw(st.integers(min_value=2, max_value=7)))
    factor = poly(draw(st.integers(min_value=1, max_value=2)))
    return factor * poly(draw(st.integers(min_value=1, max_value=7 - factor.degree)))


def _sympy_irreducible(p: RatPoly) -> bool:
    return sympy.Poly(list(reversed(p.coeffs)), X, domain=sympy.QQ).is_irreducible


def _direct_patterns(p: RatPoly, count: int) -> dict[int, tuple[int, ...]]:
    """factor_degrees_mod_p at the first count primes dividing no coefficient
    denominator, the leading numerator or the discriminant."""
    den, _ = polys.clear_denominators(p.coeffs)
    disc = discriminant(p)
    out: dict[int, tuple[int, ...]] = {}
    if disc == 0:
        return out
    for q in iter_primes():
        if len(out) == count:
            return out
        if den % q and p.lead.numerator % q and disc.numerator % q:
            out[q] = tuple(factor_degrees_mod_p(p, q))


@settings(max_examples=150, deadline=None)
@given(integer_polys())
def test_verdicts_agree_with_sympy(p):
    cert = poly_irreducible(p)
    if cert.is_irreducible:
        assert _sympy_irreducible(p)
    elif cert.is_reducible:
        assert p.evaluate(cert.witness_root) == 0
        assert not _sympy_irreducible(p)
    else:
        assert cert.status == "unknown" and p.degree >= 4


@settings(max_examples=60, deadline=None)
@given(integer_polys())
def test_certificate_patterns_skip_the_discriminant_primes(p):
    cert = poly_irreducible(p)
    assert cert.patterns == _direct_patterns(p, len(cert.patterns))
    assert len(cert.patterns) >= 30 or discriminant(p) == 0


@pytest.mark.parametrize(
    "coeffs",
    [
        [1, 0, 1],  # x^2 + 1
        [-1, 0, 1],  # (x - 1)(x + 1)
        [-2, 0, 0, 1],  # x^3 - 2
        [0, 0, 1, 1],  # x^2 (x + 1): vanishing discriminant
        [Fraction(1, 3), 0, 0, 0, 1],  # x^4 + 1/3
        [Fraction(1, 3), Fraction(1, 2), 0, 1],
    ],
)
def test_patterns_for_small_degrees(coeffs):
    p = RatPoly(coeffs)
    cert = poly_irreducible(p)
    assert cert.patterns == _direct_patterns(p, len(cert.patterns))
    assert len(cert.patterns) == (0 if discriminant(p) == 0 else 30)


@pytest.mark.parametrize(
    "factors, status, root",
    [
        ([[1, 0, 1]] * 2, "unknown", None),  # (x^2 + 1)^2: no rational root
        ([[-2, 0, 1]] * 2 + [[3, 1]], "reducible", -3),  # (x^2 - 2)^2 (x + 3)
        ([[2, 0, 1]] * 3, "unknown", None),  # (x^2 + 2)^3
        ([[1, 1]] * 2, "reducible", -1),  # (x + 1)^2
        ([[Fraction(-1, 2), 1]] * 2, "reducible", Fraction(1, 2)),  # (x - 1/2)^2
        ([[-1, 1]] * 2 + [[3, 1]], "reducible", -3),  # (x - 1)^2 (x + 3)
        ([[-1, 0, 1]] * 2, "reducible", -1),  # (x^2 - 1)^2
    ],
)
def test_a_square_factor_stops_at_the_mahler_bound(factors, status, root):
    """Every prime reads p as not squarefree; once the skipped primes' product
    passes Mahler's bound, the reads end with no pattern, and the verdict is
    the one the rational roots alone decide."""
    p = RatPoly([1])
    for f in factors:
        p = p * RatPoly(f)
    assert discriminant(p) == 0
    cert = poly_irreducible(p)
    assert cert.patterns == {}
    assert (cert.status, cert.witness_root) == (status, root)


@settings(max_examples=60, deadline=None)
@given(integer_polys(), integer_polys().filter(lambda g: g.degree <= 3))
def test_a_square_factor_leaves_no_patterns(f, g):
    p = f * g * g
    cert = poly_irreducible(p)
    assert cert.patterns == {}
    assert not cert.is_irreducible
    if cert.is_reducible:
        assert p.evaluate(cert.witness_root) == 0


def test_an_undecided_certificate_reads_4d_primes():
    # x^8 + 1 splits mod every prime into factors of equal degree 1, 2 or 4
    p = RatPoly([1] + [0] * 7 + [1])
    cert = poly_irreducible(p)
    assert cert.status == "unknown"
    assert cert.patterns == _direct_patterns(p, 32)


def test_t2_decides_past_30_primes_at_weight_198():
    _, cp, cert = hecke.certified_charpoly(198)
    assert cert.is_irreducible and len(cert.patterns) == 31
    assert dict(list(cert.patterns.items())[:30]) == _direct_patterns(cp, 30)


def test_t2_decides_at_weight_240():
    # the first 30 primes leave T_2 undecided here
    _, cp, cert = hecke.certified_charpoly(240)
    assert cert.is_irreducible and len(cert.patterns) == 38
    assert cp.degree == forms.dim_Sk(240) == 20


def test_witness_prime_is_the_first_one_piece_pattern():
    cp = hecke.charpoly(hecke.hecke_matrix(2, 36))
    cert = poly_irreducible(cp)
    assert cert.is_irreducible and len(cert.patterns) == 30
    first = next(q for q, pat in cert.patterns.items() if pat == (cp.degree,))
    assert cert.witness_prime == first


def _count_calls(monkeypatch, names):
    """Wrap each polys/forms/hecke function in every modforms namespace that
    binds it; returns the live lists of each function's call arguments."""
    calls = {name: [] for name in names}
    namespaces = [m for n, m in list(sys.modules.items()) if n.startswith("modforms")]
    for name in names:
        original = getattr({"miller_basis": forms, "eigenbasis": hecke}.get(name, polys), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, key, counted)
    return calls


@pytest.mark.parametrize(
    "call, expected",
    [
        # every prime up to the 30th good one: 149 (disc has 2, 3, 5, 7, 31)
        (lambda: scans.maeda_check(48), {"discriminant": 1, "factor_degrees_mod_p": 35}),
        # up to 173: disc has 2, 3, 5, 7, 11, 13, 17, 19, 41, 89
        (lambda: scans.maeda_check(96), {"discriminant": 1, "factor_degrees_mod_p": 40}),
        (lambda: hecke.eigenbasis(48), {"miller_basis": 1}),
        (lambda: identities.nonvanishing_report(24), {"miller_basis": 2}),
        (
            lambda: identities.verify_table1(),
            {"eigenbasis": 4, "miller_basis": 4, "discriminant": 2},
        ),
    ],
    ids=["maeda_check(48)", "maeda_check(96)", "eigenbasis(48)", "nonvanishing_report(24)",
         "verify_table1"],
)
def test_each_charpoly_and_basis_is_computed_once(monkeypatch, call, expected):
    """factor_degrees_mod_p also sees the primes where the charpoly is not
    squarefree, which it rejects; no prime is read twice."""
    calls = _count_calls(monkeypatch, expected)
    call()
    assert {name: len(args) for name, args in calls.items()} == expected
    primes = [q for _, q in calls.get("factor_degrees_mod_p", [])]
    assert len(set(primes)) == len(primes)
