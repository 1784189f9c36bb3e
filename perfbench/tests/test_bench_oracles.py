"""Cross-check the golden outputs against oracles that share no code with
modforms: sympy for charpolys, factorization, discriminants, divisor sums,
Bernoulli numbers and row reduction, and mpmath.polyroots for j-values."""

import json
import re
from fractions import Fraction

import mpmath
import pytest
import sympy

from conftest import ROOT
from mfbench.golden import check_output, load_golden
from mfbench.jobs import FAMILIES, Job
from mfbench.proc import child_env, cli_argv, run_process

X = sympy.Symbol("x")


def eisenstein(k: int, prec: int) -> list[Fraction]:
    """E_k = 1 - (2k / B_k) sum sigma_{k-1}(n) q^n."""
    c = Fraction(-2 * k) / Fraction(str(sympy.bernoulli(k)))
    return [Fraction(1)] + [c * int(sympy.divisor_sigma(n, k - 1)) for n in range(1, prec)]


def mul(a: list, b: list, prec: int) -> list:
    out = [0] * prec
    for i, x in enumerate(a[:prec]):
        if x:
            for j, y in enumerate(b[: prec - i]):
                out[i + j] += x * y
    return out


def delta(prec: int) -> list[Fraction]:
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    return [(a - b) / 1728 for a, b in zip(mul(mul(e4, e4, prec), e4, prec), mul(e6, e6, prec))]


def run_job(job: Job):
    res = run_process(cli_argv(job.argv), child_env(ROOT), ROOT)
    return res, json.loads(res.stdout)


def golden_jobs(workload: str, family: str) -> list[Job]:
    fam = next(f for f in FAMILIES[workload] if f.name == family)
    return [Job(family, p) for p in fam.reachable()]


def test_delta_golden_matches_eisenstein_oracle():
    entry = load_golden("series")["qexp_delta"]["payload"]["series"]
    prec = entry["prec"]
    assert prec == 2000
    assert [Fraction(c) for c in entry["coeffs"]] == delta(prec)


def test_j_golden_matches_e4_cubed_over_delta():
    entry = load_golden("series")["qexp_j"]["payload"]
    prec = entry["prec"]
    e4 = eisenstein(4, prec)
    num = mul(mul(e4, e4, prec), e4, prec)
    unit = delta(prec + 1)[1:]  # Delta / q = 1 - 24 q + ...
    jq = []
    for n in range(prec):
        jq.append(num[n] - sum(unit[i] * jq[n - i] for i in range(1, n + 1)))
    assert [Fraction(c) for c in entry["coeffs"]] == jq


@pytest.mark.parametrize("name,f,g,h", [
    ("e24", lambda p: delta(p), lambda p: eisenstein(12, p), lambda p: eisenstein(24, p)),
    ("e32", lambda p: mul(eisenstein(4, p), delta(p), p), lambda p: eisenstein(16, p),
     lambda p: eisenstein(32, p)),
])
def test_identity_constants_satisfy_the_identity(name, f, g, h):
    """h = a f^2 + b f g + g^2 with the golden a, b, on 12 coefficients."""
    report = load_golden("series")[f"verify {name}"]["exact"]["reports"][0]
    assert report["status"] == "verified"
    a, b = (Fraction(v) for v in re.match(r"a = (\S+), b = ([^ ,]+)", report["detail"]).groups())
    p = 12
    fs, gs, hs = f(p), g(p), h(p)
    rhs = [a * x + b * y + z for x, y, z in zip(mul(fs, fs, p), mul(fs, gs, p), mul(gs, gs, p))]
    assert rhs == hs


def test_hecke_charpolys_match_sympy():
    golden = load_golden("hecke")
    for job in golden_jobs("hecke", "hecke"):
        entry = golden[" ".join(job.argv[:-2])]["exact"]
        matrix = sympy.Matrix([[sympy.Rational(v) for v in row] for row in entry["entries"]])
        want = matrix.charpoly(X).all_coeffs()[::-1]
        got = [sympy.Rational(c, entry["charpoly"]["denominator"]) for c in entry["charpoly"]["coeffs"]]
        assert got == want, job.argv


def test_maeda_certificates_and_discriminants_match_sympy():
    golden = load_golden("hecke")
    checked = 0
    for job in golden_jobs("hecke", "maeda"):
        report = golden[" ".join(job.argv[:-2])]["exact"]["reports"][0]
        if report["charpoly"] is None:  # dim 1: nothing to certify
            assert report["status"] == "trivial" and report["dim"] == 1
            continue
        checked += 1
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(report["charpoly"])], X)
        _, factors = sympy.factor_list(poly.as_expr(), X)
        irreducible = len(factors) == 1 and factors[0][1] == 1
        if report["status"] == "irreducible":
            assert irreducible, job.argv
        elif report["status"] == "reducible":
            assert not irreducible, job.argv
        if "poly_disc" in report and poly.degree() > 1:
            assert sympy.Rational(report["poly_disc"]) == sympy.discriminant(poly), job.argv
    assert checked >= 3


def _echelon_basis(k: int, prec: int) -> list[list]:
    """Reduced row echelon form of the span of E4^a E6^b, 4a + 6b = k."""
    rows = []
    for b in range(k // 6 + 1):
        if (k - 6 * b) % 4 == 0:
            a = (k - 6 * b) // 4
            row = [Fraction(1)] + [Fraction(0)] * (prec - 1)
            for _ in range(a):
                row = mul(row, eisenstein(4, prec), prec)
            for _ in range(b):
                row = mul(row, eisenstein(6, prec), prec)
            rows.append([sympy.Rational(c.numerator, c.denominator) for c in row])
    reduced, pivots = sympy.Matrix(rows).rref()
    return [[reduced[i, j] for j in range(prec)] for i in range(len(pivots))]


def test_basis_outputs_match_golden_and_row_reduction():
    golden = load_golden("series")
    for job in golden_jobs("series", "basis")[:3]:
        res, payload = run_job(job)
        assert check_output(golden, job, res.returncode, res.stdout) is None, job.argv
        prec = payload["forms"][0]["series"]["prec"]
        got = [[sympy.Rational(c) for c in f["series"]["coeffs"]] for f in payload["forms"]]
        assert got == _echelon_basis(job.param, prec), job.argv


def test_zero_search_golden_matches_polyroots():
    """The shifted roots of the golden monomial polynomial, found by
    mpmath.polyroots at 50 digits, match the golden j-values and roots
    within the job's tolerance; one arc zero per root."""
    golden = load_golden("analytic")
    for job in golden_jobs("analytic", "zeros"):
        entry = golden[" ".join(job.argv[:-2])]["exact"]
        floats = golden[" ".join(job.argv[:-2])]["floats"]
        n = job.param
        assert entry["status"] == "verified" and len(entry["zeros"]) == n
        coeffs = [Fraction(c) for c in entry["coeffs"]]  # a_0 = 1 leads x^n
        with mpmath.workdps(50):
            roots = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / c.denominator for c in coeffs], maxsteps=200, extraprec=200
            )
            shifted = sorted(float(mpmath.re(r)) + 432000 / 691 for r in roots)
            assert all(abs(mpmath.im(r)) < 1e-30 for r in roots)
        # floats hold n thetas, then n j-values, then n shifted roots
        j_values = sorted(complex(v).real for v in floats[n : 2 * n])
        poly_roots = sorted(complex(v).real for v in floats[2 * n : 3 * n])
        tol = float(entry["tol"])
        assert max(abs(a - b) for a, b in zip(shifted, j_values)) <= tol
        assert max(abs(a - b) for a, b in zip(shifted, poly_roots)) <= tol
