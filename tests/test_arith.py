import random

import pytest

from modforms import arith
from modforms.arith import (
    _int_nth_root_exact,
    _iroot,
    _pollard_brent,
    divisors,
    factorize,
    is_probable_prime,
    sigma,
    squarefree_kernel,
)


@pytest.mark.parametrize("p", [2, 3, 691, 144169, 2294797, 305065927])
def test_is_probable_prime_true(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("n", [1, 4, 18209, 691 * 691, 131 * 139])
def test_is_probable_prime_false(n):
    assert not is_probable_prime(n)


def test_factorize_small():
    f = factorize(83041344)
    assert f.complete
    assert f.factors == {2: 6, 3: 2, 144169: 1}


def test_factorize_reconstructs():
    for n in [2, 97, 1001, 2**20, 3_628_800, 18209, 10538201664]:
        f = factorize(n)
        assert f.complete
        prod = f.cofactor
        for p, e in f.factors.items():
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n


def _divisors_by_trial_division(n: int) -> list[int]:
    """The former arith.divisors body, kept as an oracle."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def test_divisors_match_trial_division():
    for n in range(1, 5001):
        assert divisors(n) == _divisors_by_trial_division(n), n
    assert divisors(-360) == _divisors_by_trial_division(360)
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_and_sigma():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert sigma(11, 2) == 1 + 2**11
    assert sigma(3, 2) == 9
    assert sigma(0, 36) == 9


def test_squarefree_kernel():
    assert squarefree_kernel(83041344)[:2] == (144169, 24)
    assert squarefree_kernel(4)[:2] == (1, 2)
    assert squarefree_kernel(5)[:2] == (5, 1)
    s = squarefree_kernel(-18)
    assert (s.squarefree, s.square_root) == (-2, 3)
    assert s.squarefree * s.square_root**2 == -18
    with pytest.raises(ValueError):
        squarefree_kernel(0)


def test_quad_field_discriminant():
    """The split answers the discriminant of Q(sqrt(n)) from its squarefree part."""
    assert squarefree_kernel(144169).field_discriminant() == 144169  # 144169 = 1 mod 4
    assert squarefree_kernel(18209).field_discriminant() == 18209  # 131*139 = 1 mod 4
    assert squarefree_kernel(2).field_discriminant() == 8
    assert squarefree_kernel(-1).field_discriminant() == -4
    assert squarefree_kernel(5).field_discriminant() == 5
    # a square part leaves the field alone: Q(sqrt(12)) = Q(sqrt(3)), and
    # Q(sqrt(83041344)) = Q(sqrt(144169)), the weight-24 Hecke field
    assert squarefree_kernel(12).field_discriminant() == 12
    assert squarefree_kernel(83041344).field_discriminant() == 144169
    assert squarefree_kernel(-18).field_discriminant() == -8
    with pytest.raises(ValueError):
        squarefree_kernel(1).field_discriminant()  # Q(sqrt(1)) = Q
    with pytest.raises(ValueError):
        squarefree_kernel(49).field_discriminant()
    # trial division to 100 and no rho leave 1000003 * 1000033 unfactored
    partial = squarefree_kernel(1000003 * 1000033, trial_bound=100, rho_iterations=0)
    assert not partial.complete
    with pytest.raises(ValueError, match="factoring caps"):
        partial.field_discriminant()


def int_nth_root_scan(n):
    """The former perfect-power test, kept as its oracle: every exponent from
    the bit length down to 2, so the exponent it returns is maximal."""
    for e in range(n.bit_length(), 1, -1):
        b = _iroot(n, e)
        if b > 1 and b**e == n:
            return b, e
    return None


def _least_prime_factor(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


# 1009 * 1013 and 101 * 103 * 107 are composite, with every factor above the
# trial bound of 100 used below, so their powers reach the rho stage
POWER_BASES = [2, 3, 7, 10, 12, 1000003, 1009 * 1013, 101 * 103 * 107]


@pytest.mark.parametrize("b", POWER_BASES)
@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6, 12])
def test_perfect_power_by_the_least_prime_exponent(b, e):
    n = b**e
    scan = int_nth_root_scan(n)
    if scan is None:
        assert _int_nth_root_exact(n) is None
        return
    base, exp = scan  # base is no perfect power, and n = base**exp
    p = _least_prime_factor(exp)
    assert _int_nth_root_exact(n) == (base ** (exp // p), p)
    assert (_int_nth_root_exact(n + 1) is None) == (int_nth_root_scan(n + 1) is None)


def _factor_with_rho_calls(monkeypatch, n, root):
    calls = []

    def recorded(m, seed=1, max_iter=arith.DEFAULT_RHO_ITERATIONS):
        calls.append((m, seed))
        return _pollard_brent(m, seed, max_iter)

    monkeypatch.setattr(arith, "_pollard_brent", recorded)
    monkeypatch.setattr(arith, "_int_nth_root_exact", root)
    return arith.factorize(n, trial_bound=100), calls


def test_prime_exponents_keep_factorize_and_its_rho_calls(monkeypatch):
    rng = random.Random(15)
    primes = [101, 103, 107, 109, 1009, 1013, 1000003]
    cases = [b**e for b in POWER_BASES for e in (4, 6, 12)]
    cases += [101**4 * 103**6, (1009 * 1013) ** 6 * 107**3, 2**12 * (101 * 103) ** 4]
    for _ in range(60):
        base = 1
        for p in rng.sample(primes, rng.randint(1, 3)):
            base *= p ** rng.randint(1, 3)
        cases.append(base ** rng.choice([2, 3, 4, 6, 8, 9, 12]))
    rho_calls = 0
    for n in cases:
        new = _factor_with_rho_calls(monkeypatch, n, _int_nth_root_exact)
        old = _factor_with_rho_calls(monkeypatch, n, int_nth_root_scan)
        assert new == old, n
        rho_calls += len(new[1])
    assert rho_calls > 100


def test_a_collapsed_rho_walk_tries_the_next_seed():
    """Seed 15 collapses on 101 * 103 * 107: its gcd reaches the whole number
    at once. The walk goes on with seed 16 instead of leaving the composite as
    the cofactor, which lost one power of each prime here."""
    n = 101 * 103 * 107
    assert _pollard_brent(n, seed=15) in (101, 103, 107, n // 101, n // 103, n // 107)
    f = factorize(n**12, trial_bound=100)
    assert (f.factors, f.cofactor) == ({101: 12, 103: 12, 107: 12}, 1)


@pytest.mark.parametrize("iterations", [0, 1, 100])
def test_the_rho_cap_leaves_a_composite_cofactor(iterations):
    p, q = 1000000000039, 1000000000061
    assert is_probable_prime(p) and is_probable_prime(q)
    assert factorize(p * q, trial_bound=100, rho_iterations=iterations) == ({}, p * q)
    assert factorize(p * q, trial_bound=100).factors == {p: 1, q: 1}


def test_factorize_tests_each_cofactor_for_primality_once(monkeypatch):
    """Trial division leaves no prime factor up to trial_bound, so an integer
    below trial_bound**2 is prime untested, and every larger one is tested
    once: 1000003 is above the bound and splits off by rho, and the product
    of the two Mersenne primes stays the cofactor."""
    calls: dict[int, int] = {}

    def counted(m):
        calls[m] = calls.get(m, 0) + 1
        return is_probable_prime(m)

    monkeypatch.setattr(arith, "is_probable_prime", counted)
    cofactor = (2**89 - 1) * (2**107 - 1)
    f = arith.factorize(cofactor * 1000003)
    assert (f.factors, f.cofactor) == ({1000003: 1}, cofactor)
    repeated = {m: c for m, c in calls.items() if m >= arith.DEFAULT_TRIAL_BOUND**2 and c > 1}
    assert repeated == {}
