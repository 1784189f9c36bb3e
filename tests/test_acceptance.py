"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Two reference-table constants are not mathematically reproducible (see
test_identities for the strict-xfail forms of the literal values); here the
corrected values are asserted exactly together with their exact relation to
the printed ones.
"""

import math
import time
from fractions import Fraction

from modforms.arith import sigma
from modforms.dirichlet import characters_mod
from modforms.forms import delta, dim_Sk, eisenstein_level1
from modforms.hecke import charpoly, eigenbasis, hecke_action, hecke_matrix
from modforms.identities import (
    E24_A,
    E24_B,
    E32_A,
    E32_B,
    TABLE1_ROW1_CONST,
    TABLE1_ROW1_CONST_REFERENCE,
    TABLE2_FIELD_DISCS,
    PRODUCT_IDENTITIES,
    decompose_square,
    nonvanishing_report,
    solve_product_identity,
    verify_ramanujan,
    verify_table1,
)
from modforms.linalg import mat_mul
from modforms.polys import poly_irreducible
from modforms.scans import (
    bernoulli_bound_check,
    envelope,
    eq12_holds_exactly,
    finiteness_scan,
    hecke_field_intersection_check,
)
from modforms.zeros import expand_E12n, jvalue_algebraicity_check


def run_criterion(num, label, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded the {budget}s budget"


def test_criterion_01_ramanujan():
    def check():
        prec = 200
        e12 = eisenstein_level1(12, prec).series
        e6 = eisenstein_level1(6, prec).series
        dl = delta(501).series
        residual = e12 - e6 * e6 - dl.truncate(prec).scale(Fraction(762048, 691))
        assert residual.is_zero()
        for n in range(1, 501):
            tau = dl.coeff(n)
            assert (tau.numerator - sigma(11, n)) % 691 == 0
        assert verify_ramanujan(200).verified

    run_criterion(1, "ramanujan identity and congruence", 5, check)


def test_criterion_02_e24_constants():
    def check():
        series, _ = PRODUCT_IDENTITIES["e24"]
        a, b = solve_product_identity(*series(80))
        assert a == Fraction(
            -(2**14 * 3**8 * 5**4 * 7**4 * 13**2 * 1571), 103 * 691**2 * 2294797
        )
        assert b == Fraction(
            -(2**8 * 3**5 * 5**3 * 7**2 * 13**3 * 37), 103 * 691 * 2294797
        )
        assert (a, b) == (E24_A, E24_B)

    run_criterion(2, "weight-24 product identity constants", 5, check)


def test_criterion_03_e32_constants():
    def check():
        series, _ = PRODUCT_IDENTITIES["e32"]
        a, b = solve_product_identity(*series(80))
        assert a == Fraction(
            -(2**18 * 3**8 * 5**5 * 7**4 * 11 * 13**2 * 17**2 * 4273),
            37 * 683 * 3617**2 * 305065927,
        )
        assert b == Fraction(
            -(2**12 * 3**4 * 5**3 * 7**2 * 13 * 17**2 * 23 * 1433),
            37 * 683 * 3617 * 305065927,
        )
        assert (a, b) == (E32_A, E32_B)

    run_criterion(3, "weight-32 product identity constants", 5, check)


def test_criterion_04_table1_rows():
    def check():
        report = verify_table1()
        assert report.verified, report.detail
        # exact coefficient values: a_1 = -a_2 with a_1 = 1/(24 sqrt(D))
        for k, disc in ((12, 144169), (16, 18295489)):
            f = eigenbasis(k, prec=32)[0]
            dec = decompose_square(f, prec=30)
            c1, c2 = dec.conjugate_pair()
            K = dec.hecke_field
            trace = -K.modulus.coeffs[1]
            sqrt_d = (2 * K.gen() - trace) * Fraction(1, 24)
            assert sqrt_d * sqrt_d == disc
            assert c1 + c2 == K.zero()
            assert c1 * (24 * sqrt_d) == K.one()
            # exact relation to the printed magnitude 24/sqrt(D): ratio 24^2
            printed = 24 * sqrt_d * Fraction(1, disc)
            assert printed == c1 * 576
        # exact relation of the printed weight-24 series constant
        assert TABLE1_ROW1_CONST - TABLE1_ROW1_CONST_REFERENCE == Fraction(291800, 691)
        assert any(
            d["entry"] == "row(k=12).series_constant" for d in report.discrepancies
        )

    run_criterion(4, "eigenform-square decomposition rows", 10, check)


def test_criterion_05_table2_discriminants():
    def check():
        for k, expected in ((24, 144169), (28, 18209)):
            rep = hecke_field_intersection_check(k)
            assert rep.quad_field_disc == expected == TABLE2_FIELD_DISCS[k]
            assert rep.verdict == "coprime"
        assert TABLE2_FIELD_DISCS[28] == 131 * 139

    run_criterion(5, "quadratic discriminants and coprime pairs", 30, check)


def test_criterion_06_jvalue_pipeline():
    def check():
        rep1 = jvalue_algebraicity_check(1, tol_match=1e-8)
        assert rep1.verified
        assert abs(rep1.j_values[0] - 432000 / 691) < 1e-8
        for n in (2, 3):
            rep = jvalue_algebraicity_check(n, tol_match=1e-8)
            assert rep.verified
            assert rep.max_pair_distance < 1e-8
        exp2 = expand_E12n(2)
        assert exp2.coeffs[1] == E24_B and exp2.coeffs[2] == E24_A

    run_criterion(6, "j-value algebraicity pipeline", 60, check)


def test_criterion_07_bound_sandwich():
    def check():
        cells = 0
        for modulus in range(1, 21):
            for chi in characters_mod(modulus):
                if not chi.is_primitive():
                    continue
                for k in range(3, 17):
                    if chi.parity() != (-1) ** k:
                        continue
                    assert bernoulli_bound_check(k, chi).holds, (modulus, k)
                    cells += 1
        assert cells >= 100

    run_criterion(7, "Bernoulli magnitude sandwich", 60, check)


def test_criterion_08_finiteness_scan():
    def check():
        report = finiteness_scan(Fraction(1), Fraction(1), k_max=60, l_max=10)
        assert report.complete
        assert 3 <= report.k_bound < 60
        for cell in report.survivors:
            chi = next(
                c
                for c in characters_mod(cell.conductor)
                if c.exponents == cell.exponents
            )
            assert eq12_holds_exactly(Fraction(1), cell.k, chi)
        values = [envelope(k) for k in range(8, 150)]
        assert all(a > b for a, b in zip(values, values[1:]))

    run_criterion(8, "finiteness scan with unit coefficients", 120, check)


def test_criterion_09_hecke_algebra_suite():
    def check():
        for k in (24, 36):
            m2 = [list(r) for r in hecke_matrix(2, k).entries]
            m3 = [list(r) for r in hecke_matrix(3, k).entries]
            m6 = [list(r) for r in hecke_matrix(6, k).entries]
            m4 = [list(r) for r in hecke_matrix(4, k).entries]
            assert mat_mul(m2, m3) == m6
            d = len(m2)
            expected = [
                [m4[i][j] + (Fraction(2 ** (k - 1)) if i == j else 0) for j in range(d)]
                for i in range(d)
            ]
            assert mat_mul(m2, m2) == expected
        for k in (12, 24, 36):
            g = eigenbasis(k, prec=26)[0]
            assert g.a(1) == g.series.field.one()
            for m in (2, 3, 5):
                image = hecke_action(g.series, m, k, prec=5)
                assert image == g.series.truncate(5).scale(g.a(m))
        for k in range(12, 101, 2):
            if dim_Sk(k) < 2:
                continue
            cert = poly_irreducible(charpoly(hecke_matrix(2, k)))
            assert cert.is_irreducible, f"weight {k}: {cert.status}"
            assert len(cert.patterns) == 30, f"weight {k}"

    run_criterion(9, "Hecke algebra suite", 120, check)


def test_criterion_10_nonvanishing():
    def check():
        for k in range(12, 31, 2):
            if dim_Sk(k) == 0:
                continue  # no eigenform to square in weight 14
            rep = nonvanishing_report(k)
            assert rep.all_nonzero, f"weight {k}"
            assert rep.vanishing_count == 0
            # nonsingularity is asserted inside the solve; reaching here
            # means the coefficient matrix was invertible
            assert rep.decomposition.dim == dim_Sk(2 * k)

    run_criterion(10, "square-decomposition nonvanishing", 60, check)
