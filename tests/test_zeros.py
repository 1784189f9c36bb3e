import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from modforms import roots, zeros
from modforms.forms import delta, eisenstein_level1
from modforms.identities import E24_A, E24_B
from modforms.polys import RatPoly, _dense_eval
from modforms.qseries import QSeries
from modforms.roots import aberth_roots, step_tolerance
from modforms.zeros import (
    ARC_HIGH,
    ARC_LOW,
    SeriesEvaluator,
    _pairing_distance,
    algebraic_poly,
    arc_function,
    expand_E12n,
    find_arc_zeros,
    jvalue_algebraicity_check,
    jvalue_at,
)


def test_expand_n1():
    exp = expand_E12n(1)
    assert exp.coeffs == (Fraction(1), Fraction(0))


def test_expand_n2_matches_weight24_identity():
    exp = expand_E12n(2)
    assert exp.coeffs[0] == 1
    assert exp.coeffs[1] == E24_B
    assert exp.coeffs[2] == E24_A


def test_expansion_exactness_gate():
    # the constructor itself asserts the residual vanishes; run it broadly
    for n in range(1, 7):
        exp = expand_E12n(n)
        assert exp.coeffs[0] == 1
        assert all(isinstance(c, Fraction) for c in exp.coeffs)


def _expand_by_unit_inverse(n):
    """The former extraction, kept as the oracle: a_l is the constant term of
    residual / Delta^l, through the unit inverse (Delta/q)^(-1)."""
    prec = 4 * n + 20
    e12 = eisenstein_level1(12, prec).series
    dl = delta(prec).series
    unit_inv = dl.shift(-1).inverse()
    residual = eisenstein_level1(12 * n, prec).series - e12**n
    coeffs = [Fraction(1)]
    dl_pow = QSeries.constant(dl.field, 1, prec)
    unit_inv_pow = QSeries.constant(dl.field, 1, prec)
    for l in range(1, n + 1):
        dl_pow = dl_pow * dl
        unit_inv_pow = unit_inv_pow * unit_inv
        a_l = (residual.shift(-l) * unit_inv_pow).coeff(0)
        coeffs.append(a_l)
        residual = residual - (e12 ** (n - l) * dl_pow).scale(a_l)
    assert residual.is_zero()
    return tuple(coeffs)


@pytest.mark.parametrize("n", range(1, 13))
def test_expansion_matches_unit_inverse_extraction(n):
    assert expand_E12n(n).coeffs == _expand_by_unit_inverse(n)


def test_algebraic_poly():
    assert algebraic_poly(expand_E12n(1)) == RatPoly([0, 1])
    p2 = algebraic_poly(expand_E12n(2))
    assert p2.degree == 2 and p2.is_monic()
    assert p2.coeffs[1] == E24_B and p2.coeffs[0] == E24_A


def test_series_evaluator_delta_i():
    value, tail = SeriesEvaluator(delta(60).series, 12).at(1j)
    assert tail < 1e-100
    assert abs(value.imag) < 1e-30
    # independent re-summation at two precisions
    value2, _ = SeriesEvaluator(delta(30).series, 12).at(1j)
    assert abs(value - value2) < 1e-25
    assert abs(float(value.real) - 0.0017853698) < 1e-9


def test_eval_series_region_guard():
    with pytest.raises(ValueError):
        SeriesEvaluator(delta(60).series, 12).at(0.5j)
    with pytest.raises(ValueError):
        SeriesEvaluator(delta(10).series, 12).at(1j)  # too few terms


def test_e6_vanishes_at_i():
    value, tail = SeriesEvaluator(eisenstein_level1(6, 60).series, 6).at(1j)
    assert abs(value) < 1e-25


def test_series_without_a1_has_no_tail_bound():
    # Delta^2 = q^2 + ...: the |a_1| zeta(w - 1) bound would read 0
    dl = delta(60).series
    with pytest.raises(ValueError):
        SeriesEvaluator(dl * dl, 24)


def _horner_at_80_digits(series, q):
    """sum a_n q^n by Horner over mpc at 80 digits, kept as the oracle."""
    with mpmath.workdps(80):
        acc = mpmath.mpc(0)
        for c in reversed(series.coeffs):
            acc = acc * q + mpmath.mpf(c.numerator) / c.denominator
        return acc


@pytest.mark.parametrize(
    "name, weight, prec",
    [("E4", 4, 80), ("E6", 6, 80), ("Delta", 12, 80)]
    + [(f"E{12 * n}", 12 * n, max(12 * n + 10, 40)) for n in range(1, 21)],
)
def test_series_evaluator_matches_80_digit_horner(name, weight, prec):
    series = delta(prec).series if name == "Delta" else eisenstein_level1(weight, prec).series
    evaluate = SeriesEvaluator(series, weight)
    off_arc = ((0, 0.85), (0.3, 0.9), (-0.5, 1.2), (0.1, 2), (0.25, 5))
    with mpmath.workdps(zeros.DPS):
        # points z = exp(i theta) on the arc, away from the zeros, then
        # points off it with Im(z) >= 0.85
        points = [mpmath.exp(1j * theta) for theta in (1.3, 1.44, 1.52)]
        points += [mpmath.mpc(x, y) for x, y in off_arc]
        qs = [mpmath.exp(2j * mpmath.pi * z) for z in points]
    for z, q in zip(points, qs):
        value = evaluate(q)
        expected = _horner_at_80_digits(series, q)
        with mpmath.workdps(80):
            assert abs(value - expected) <= mpmath.mpf("1e-38") * abs(expected), (name, z)


class _MpcHornerEvaluator(SeriesEvaluator):
    """The former evaluator, kept as the oracle: Horner over mpc with every
    coefficient rounded to DPS digits."""

    def __init__(self, series, weight):
        super().__init__(series, weight)
        with mpmath.workdps(zeros.DPS):
            self.coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(series.coeffs)]

    def __call__(self, q):
        with mpmath.workdps(zeros.DPS):
            acc = mpmath.mpc(0)
            for c in self.coeffs:
                acc = acc * q + c
            return acc


@pytest.mark.parametrize("n", range(1, 13))
def test_arc_zeros_match_the_mpc_evaluator(n, monkeypatch):
    found = [(z.theta, z.as_json()) for z in find_arc_zeros(12 * n)]
    monkeypatch.setattr(zeros, "SeriesEvaluator", _MpcHornerEvaluator)
    assert found == [(z.theta, z.as_json()) for z in find_arc_zeros(12 * n)]


def test_j_at_i_is_1728():
    value = jvalue_at(1j)
    assert abs(value - 1728) < 1e-20


def test_zero_counts():
    assert len(find_arc_zeros(12)) == 1
    assert len(find_arc_zeros(24)) == 2
    assert len(find_arc_zeros(36)) == 3
    assert len(find_arc_zeros(48)) == 4
    with pytest.raises(ValueError):
        find_arc_zeros(14)


def _grid(k):
    with mpmath.workdps(40):
        return [2 * mpmath.pi * m / k for m in range(k // 6, k // 4 + 1)]


@pytest.mark.parametrize("n", range(1, 21))
def test_grid_signs_alternate_and_count_zeros(n):
    # the sign at theta_m = 2 pi m / k is (-1)^m, so each of the n gaps holds
    # one sign change; a coarse tol keeps the bisections short
    k = 12 * n
    f = arc_function(k)
    with mpmath.workdps(40):
        for m, theta in zip(range(k // 6, k // 4 + 1), _grid(k)):
            assert (f(theta) > 0) == (m % 2 == 0), m
    assert len(find_arc_zeros(k, tol=1e-3)) == n


def test_grid_costs_n_plus_one_evaluations(monkeypatch):
    n, k = 7, 84
    calls = []

    def counting_arc_function(*args, **kwargs):
        f = arc_function(*args, **kwargs)

        def counted(theta):
            calls.append(theta)
            return f(theta)

        return counted

    monkeypatch.setattr(zeros, "arc_function", counting_arc_function)
    # tol above the gap width: the grid, then one residual evaluation per zero
    assert len(find_arc_zeros(k, tol=1.0)) == n
    assert calls[: n + 1] == _grid(k)
    assert len(calls) == (n + 1) + n
    calls.clear()
    find_arc_zeros(k)
    steps = math.ceil(math.log2(2 * math.pi / k / 1e-12))
    assert len(calls) == (n + 1) + n * (steps + 1) < 300


def _scan_arc_zeros(k, tol=1e-12, samples=2048):
    """The former search, kept as the oracle: sign changes on a fixed grid of
    2048 steps over [pi/3, pi/2], then bisection."""
    f = arc_function(k)
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(ARC_LOW), mpmath.mpf(ARC_HIGH)
        step = (hi - lo) / samples
        grid = [lo + i * step for i in range(samples + 1)]
        values = [f(t) for t in grid]
        thetas = []
        for i in range(samples):
            a, b = grid[i], grid[i + 1]
            fa, fb = values[i], values[i + 1]
            if fa == 0:
                thetas.append(float(a))
                continue
            if fa * fb < 0:
                while b - a > tol:
                    mid = (a + b) / 2
                    fm = f(mid)
                    if fm == 0:
                        a = b = mid
                        break
                    if fa * fm < 0:
                        b, fb = mid, fm
                    else:
                        a, fa = mid, fm
                thetas.append(float((a + b) / 2))
        return thetas


@pytest.mark.parametrize("n", range(1, 9))
def test_grid_search_matches_fixed_scan(n):
    tol = 1e-12
    found = [z.theta for z in find_arc_zeros(12 * n, tol=tol)]
    expected = _scan_arc_zeros(12 * n, tol=tol)
    assert len(found) == len(expected) == n
    assert all(abs(a - b) <= tol for a, b in zip(found, expected))


def test_zero_residuals_and_range():
    for z in find_arc_zeros(24, tol=1e-12):
        assert ARC_LOW <= z.theta <= ARC_HIGH
        assert z.residual < 1e-6  # steep slope; residual scale is the issue
    # the residual measures |F| at the midpoint; the theta interval is 1e-12


def _arc_zero_at_80_digits(k, tol=1e-12):
    """The former dps=80 search, kept as the oracle for weights with one arc
    zero: the rotated E_k summed at 80 digits, bisected over [pi/3, pi/2]."""
    coeffs = eisenstein_level1(k, max(k + 10, 40)).series.coeffs
    with mpmath.workdps(80):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]

        def f(theta):
            q = mpmath.exp(2j * mpmath.pi * mpmath.exp(1j * theta))
            return (mpmath.exp(0.5j * k * theta) * mpmath.polyval(cs, q)).real

        a, b = mpmath.pi / 3, mpmath.pi / 2
        fa = f(a)
        while b - a > tol:
            mid = (a + b) / 2
            fm = f(mid)
            if fa * fm < 0:
                b = mid
            else:
                a, fa = mid, fm
        return float((a + b) / 2)


def test_zero_stability_under_higher_precision():
    base = find_arc_zeros(12)
    assert len(base) == 1
    assert abs(base[0].theta - _arc_zero_at_80_digits(12)) < 1e-10



def test_aberth_root_contract():
    polys = [
        RatPoly([-2, 0, 0, 1]),
        RatPoly([6, -5, 1]),
        algebraic_poly(expand_E12n(3)),
        RatPoly([1, 0, 0, 0, 1]),
    ]
    for poly in polys:
        roots = aberth_roots(poly.coeffs)
        scale = max(abs(complex(c)) for c in poly.coeffs)
        for r in roots:
            val = sum(complex(c) * r**i for i, c in enumerate(poly.coeffs))
            assert abs(val) <= 1e-10 * scale


def test_aberth_known_roots():
    roots = sorted(r.real for r in aberth_roots(RatPoly([6, -5, 1]).coeffs))
    assert abs(roots[0] - 2) < 1e-12 and abs(roots[1] - 3) < 1e-12


def test_jvalue_check_n1():
    report = jvalue_algebraicity_check(1)
    assert report.verified
    assert len(report.zeros) == 1
    assert abs(report.j_values[0] - 432000 / 691) < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_jvalue_check_small_n(n):
    report = jvalue_algebraicity_check(n)
    assert report.verified
    assert len(report.zeros) == n
    assert report.max_pair_distance < 1e-8


def _brute_force_pairing(xs, ys):
    """Least maximum distance over all n! pairings."""
    return min(
        max(abs(x - ys[j]) for x, j in zip(xs, perm))
        for perm in itertools.permutations(range(len(ys)))
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_sorted_pairing_matches_brute_force(n):
    rng = random.Random(n)
    for _ in range(20):
        xs = [complex(rng.uniform(0, 1728), 0) for _ in range(n)]
        ys = [complex(x.real + rng.uniform(-50, 50), rng.uniform(-1e-9, 1e-9)) for x in xs]
        rng.shuffle(ys)
        best = _brute_force_pairing(xs, ys)
        assert best <= _pairing_distance(xs, ys) <= best + 1e-6
        reals = [complex(y.real, 0) for y in ys]
        assert _pairing_distance(xs, reals) == _brute_force_pairing(xs, reals)


def test_jvalue_check_n10_verifies():
    for n in (10, 12):
        report = jvalue_algebraicity_check(n)
        assert report.verified, n
        assert len(report.zeros) == n


@pytest.mark.parametrize("n", [16, 20, 28, 30, 32])
def test_jvalue_check_verifies_past_double_precision(n):
    # the double-precision Aberth roots alone miss 1e-8 from n = 16 on, and
    # from n = 30 on some of them are not even near the real line
    report = jvalue_algebraicity_check(n)
    assert report.verified
    assert all(v.imag == 0 for v in report.poly_roots_shifted)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ([-6, 11, -6, 1], [1, 2, 3]),
        ([Fraction(-1, 3), 0, 1], [-(3**-0.5), 3**-0.5]),
        ([1, 0, 1], None),  # x^2 + 1: no real roots
        ([-2, 5, -4, 1], None),  # (x - 1)^2 (x - 2): a repeated root
    ],
)
def test_real_roots_are_distinct_refined_reals_or_none(coeffs, expected):
    poly = RatPoly(coeffs)
    with mpmath.workdps(zeros.DPS):
        roots = zeros._real_roots(aberth_roots(poly.coeffs))
    if expected is None:
        assert roots is None
        return
    assert all(isinstance(r, mpmath.mpf) for r in roots)
    with mpmath.workdps(zeros.DPS):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in poly.coeffs]
        for r, e in zip(roots, expected):
            assert abs(r - e) < 1e-15
            assert abs(_dense_eval(cs, r)) < 1e-30


@pytest.mark.parametrize("n", [8, 16, 20, 30])
def test_aberth_roots_are_polished_past_double_precision(n):
    """Against mpmath.polyroots at 80 digits, the roots are good far past the
    double-precision stage's 3.2e-11 at n = 16 and 5.6e-9 at n = 20; the
    coefficients are rounded once to 40 digits, and the conditioning of the
    polynomial costs up to 12 of them at n = 30 (8.5e-29)."""
    coeffs = algebraic_poly(expand_E12n(n)).coeffs
    with mpmath.workdps(80):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        exact = sorted(mpmath.polyroots(cs, maxsteps=200, extraprec=400), key=lambda z: z.real)
    with mpmath.workdps(zeros.DPS):
        assert step_tolerance() == mpmath.mpf("1e-20")
        found = sorted(aberth_roots(coeffs), key=lambda z: z.real)
    assert all(isinstance(z, mpmath.mpc) for z in found)
    with mpmath.workdps(80):
        assert max(abs(a - b) / max(1, abs(b)) for a, b in zip(found, exact)) < 1e-24


@pytest.mark.parametrize("n", [16, 30])
def test_double_stage_stops_once_its_step_stops_shrinking(monkeypatch, n):
    """From n = 16 on, rounding noise keeps the double-precision step above
    1e-13; the stage ends where the step stops shrinking, within tens of
    passes instead of all 500, and the working-precision stage finishes."""
    passes = []
    original = roots._aberth

    def counted(cs, zs):
        passes.append(0)
        for item in original(cs, zs):
            passes[-1] += 1
            yield item

    monkeypatch.setattr(roots, "_aberth", counted)
    with mpmath.workdps(zeros.DPS):
        assert zeros._real_roots(aberth_roots(algebraic_poly(expand_E12n(n)).coeffs))
    double, working = passes
    assert double < 100 and working < 20


def test_check_fails_without_distinct_real_roots(monkeypatch):
    monkeypatch.setattr(zeros, "_real_roots", lambda roots: None)
    report = jvalue_algebraicity_check(2)
    assert report.status == "failed" and report.max_pair_distance == math.inf
    assert len(report.poly_roots_shifted) == 2  # the Aberth roots as found


def test_jvalues_build_e4_and_e6_once(monkeypatch):
    built = []
    real = zeros.eisenstein_level1

    def counted(k, prec):
        built.append(k)
        return real(k, prec)

    monkeypatch.setattr(zeros, "eisenstein_level1", counted)
    zeros._e4_e6_evaluators.cache_clear()
    assert jvalue_algebraicity_check(3).verified
    # E_12 and E_36 for the expansion, E_36 for the arc, E_4 and E_6 for all 3 zeros
    assert sorted(built) == [4, 6, 12, 36, 36]
