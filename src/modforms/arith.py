"""Integer utilities: primality, bounded factoring, squarefree decomposition."""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_TRIAL_BOUND = 10**6
DEFAULT_RHO_ITERATIONS = 200_000


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a base set that is deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iter_primes() -> Iterator[int]:
    """Yield primes in increasing order, without an upper bound."""
    yield 2
    n = 3
    while True:
        if is_probable_prime(n):
            yield n
        n += 2


def _pollard_brent(n: int, seed: int = 1, max_iter: int = DEFAULT_RHO_ITERATIONS) -> int | None:
    """Brent-cycle Pollard rho on an odd composite n; returns a nontrivial
    factor, or None once max_iter iterations are spent. A walk whose gcd
    collapses to n restarts with the next seed on the iterations left."""
    count = 0
    while count < max_iter:
        y, c, m = (seed % (n - 1)) + 1, (seed % (n - 3)) + 1, 128
        g, r, q = 1, 1, 1
        while g == 1 and count < max_iter:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
                count += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                count += 1
                if count >= max_iter:
                    return None
        if 1 < g < n:
            return g
        seed += 1
    return None


class Factorization(NamedTuple):
    factors: dict[int, int]
    cofactor: int  # unfactored remainder, 1 when the factorization is complete

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


def factorize(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_iterations: int = DEFAULT_RHO_ITERATIONS,
) -> Factorization:
    """Factor |n| by trial division then bounded Pollard rho.

    Never guesses: whatever rho leaves unfactored within rho_iterations per
    composite, over all the seeds it tries, is reported as a cofactor.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p <= trial_bound:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    cofactor = 1
    seed = 1
    while stack:
        m = stack.pop()
        # trial division left no prime factor up to trial_bound, so m is prime
        # when it is below trial_bound**2, and is tested only otherwise
        if m <= trial_bound * trial_bound or is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = _int_nth_root_exact(m)
        if root is not None:
            base, exp = root
            stack.extend([base] * exp)
            continue
        d = _pollard_brent(m, seed=seed, max_iter=rho_iterations)
        seed += 1
        if d is None:
            cofactor *= m
            continue
        stack.append(d)
        stack.append(m // d)
    return Factorization(factors, cofactor)


def _iroot(n: int, e: int) -> int:
    """Floor of the e-th root of n >= 0, exact integer Newton iteration."""
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // e))
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _int_nth_root_exact(n: int) -> tuple[int, int] | None:
    """If n = b**e for some e >= 2, return (b, e) with e the least such prime;
    else None. b may itself be a perfect power: factorize examines it again."""
    for e in iter_primes():
        if e > n.bit_length():
            return None
        b = _iroot(n, e)
        if b**e == n:
            return b, e


def _divisors_from_factorization(factors: dict[int, int]) -> list[int]:
    out = [1]
    for p, e in factors.items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted, from the prime powers of factorize(n)."""
    fact = factorize(n)
    if not fact.complete:
        raise ArithmeticError(f"cannot list the divisors of {n}: {fact.cofactor} is unfactored")
    return _divisors_from_factorization(fact.factors)


def sigma(e: int, n: int) -> int:
    """Divisor power sum: sum of d**e over positive divisors d of n."""
    return sum(d**e for d in divisors(n))


class SquarefreeSplit(NamedTuple):
    squarefree: int
    square_root: int  # n == squarefree * square_root**2
    complete: bool  # False when the factoring caps were hit

    def field_discriminant(self) -> int:
        """Discriminant of Q(sqrt(n)): s when s = 1 mod 4, else 4s, for the squarefree
        part s. An incomplete split, or s = 1 (Q(sqrt(n)) = Q), raises ValueError."""
        s = self.squarefree
        if not self.complete:
            raise ValueError(f"could not certify {s} squarefree within the factoring caps")
        if s == 1:
            raise ValueError("a square n gives Q(sqrt(n)) = Q, which is not quadratic")
        return s if s % 4 == 1 else 4 * s


def squarefree_kernel(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_iterations: int = DEFAULT_RHO_ITERATIONS,
) -> SquarefreeSplit:
    """Split n = s * f**2 with s squarefree and f > 0.

    A partial factorization is flagged via complete=False; the returned pair
    is then only guaranteed to satisfy n == s * f**2, not squarefreeness of s.
    """
    if n == 0:
        raise ValueError("squarefree_kernel(0) is undefined")
    sign = -1 if n < 0 else 1
    fact = factorize(abs(n), trial_bound, rho_iterations)
    s, f = 1, 1
    for p, e in fact.factors.items():
        f *= p ** (e // 2)
        if e % 2:
            s *= p
    s *= fact.cofactor  # unfactored part carried into s, flagged below
    return SquarefreeSplit(sign * s, f, fact.complete)

