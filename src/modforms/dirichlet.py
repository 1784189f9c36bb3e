"""Dirichlet characters mod N with exact cyclotomic values and Galois orbits,
Bernoulli numbers, generalized Bernoulli numbers, and twisted divisor sums."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .arith import divisors, factorize
from .numfield import NumberField, NumberFieldElement, cyclotomic_field
from .polys import RatPoly, _dense_eval, _fixed_eval, clear_denominators


# ---------------------------------------------------------------------------
# Unit groups (Z/NZ)^x
# ---------------------------------------------------------------------------


def _primitive_root_mod_prime(p: int) -> int:
    if p == 2:
        return 1
    fact = factorize(p - 1)
    assert fact.complete
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fact.factors):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")


def _primitive_root_mod_prime_power(p: int, e: int) -> int:
    g = _primitive_root_mod_prime(p)
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@lru_cache(maxsize=None)
def unit_group(N: int) -> "UnitGroup":
    return UnitGroup(N)


class UnitGroup:
    """(Z/NZ)^x presented by independent generators via the CRT decomposition."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("modulus must be positive")
        self.N = N
        fact = factorize(N)
        assert fact.complete
        components: list[tuple[int, int, int]] = []  # (prime power, local gen, order)
        for p in sorted(fact.factors):
            e = fact.factors[p]
            pe = p**e
            if p == 2:
                if e == 1:
                    continue
                if e == 2:
                    components.append((4, 3, 2))
                else:
                    components.append((pe, pe - 1, 2))  # -1
                    components.append((pe, 5, 1 << (e - 2)))
            else:
                g = _primitive_root_mod_prime_power(p, e)
                components.append((pe, g, pe // p * (p - 1)))
        generators = []
        orders = []
        for pe, g, order in components:
            # x = g mod pe, x = 1 mod rest (pow(pe, -1, 1) is 0)
            rest = N // pe
            lifted = (g + pe * ((1 - g) * pow(pe, -1, rest) % rest)) % N
            generators.append(lifted)
            orders.append(order)
        self.generators = tuple(generators)
        self.orders = tuple(orders)
        self.phi = math.prod(orders) if orders else 1
        dlog: dict[int, tuple[int, ...]] = {}
        for exps in product(*[range(o) for o in self.orders]):
            u = 1
            for g, t in zip(self.generators, exps):
                u = u * pow(g, t, N) % N
            dlog[u % N] = exps
        assert len(dlog) == self.phi
        self._dlog = dlog

    def dlog(self, n: int) -> tuple[int, ...] | None:
        """Exponent tuple of a unit, or None when gcd(n, N) > 1."""
        n %= self.N
        if math.gcd(n, self.N) != 1:
            return None
        return self._dlog[n]


class DirichletCharacter:
    """Character of (Z/NZ)^x stored as exponents against the group generators,
    extended by zero off the units."""

    __slots__ = ("group", "exponents", "order", "_conductor")

    def __init__(self, group: UnitGroup, exponents: tuple[int, ...]):
        if len(exponents) != len(group.orders):
            raise ValueError("exponent tuple does not match the generator list")
        self.group = group
        self.exponents = tuple(e % o for e, o in zip(exponents, group.orders))
        order = 1
        for e, o in zip(self.exponents, group.orders):
            order = math.lcm(order, o // math.gcd(e, o))
        self.order = order
        self._conductor: int | None = None

    @property
    def modulus(self) -> int:
        return self.group.N

    def exponent_of(self, n: int) -> int | None:
        """e with chi(n) = zeta_order^e, or None when chi(n) = 0."""
        t = self.group.dlog(n)
        if t is None:
            return None
        m = self.order
        total = 0
        for ti, ei, oi in zip(t, self.exponents, self.group.orders):
            total += ti * (ei * m // oi)
        return total % m

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def parity(self) -> int:
        """chi(-1), always +1 or -1."""
        e = self.exponent_of(-1)
        if e == 0:
            return 1
        assert 2 * e == self.order
        return -1

    def value_field(self) -> NumberField:
        return cyclotomic_field(self.order)

    def value_in(self, field: NumberField, n: int) -> NumberFieldElement:
        m = field.zeta_order
        if m is None or m % self.order:
            raise ValueError("target field does not contain the character values")
        e = self.exponent_of(n)
        if e is None:
            return field.zero()
        return field.zeta_pow(e * (m // self.order))

    def rational_value(self, n: int) -> Fraction:
        """chi(n) as a rational number; requires a character of order <= 2."""
        if self.order > 2:
            raise ValueError("character has irrational values")
        e = self.exponent_of(n)
        if e is None:
            return Fraction(0)
        return Fraction(1) if e == 0 else Fraction(-1)

    def conductor(self) -> int:
        if self._conductor is None:
            N = self.modulus
            for d in divisors(N):
                ok = True
                for a in range(1, N + 1, d):
                    if math.gcd(a, N) == 1 and self.exponent_of(a) != 0:
                        ok = False
                        break
                if ok:
                    self._conductor = d
                    break
        return self._conductor

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.group is not other.group and self.group.N != other.group.N:
            raise ValueError("characters of different moduli; induce first")
        return DirichletCharacter(
            self.group, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def __pow__(self, j: int) -> "DirichletCharacter":
        return DirichletCharacter(self.group, tuple(e * j for e in self.exponents))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.exponents))

    def __repr__(self) -> str:
        return f"DirichletCharacter(mod {self.modulus}, exponents {list(self.exponents)})"

    def as_json(self) -> dict:
        m = self.order
        images = [e * m // o for e, o in zip(self.exponents, self.group.orders)]
        return {
            "modulus": self.modulus,
            "order": m,
            "generators": list(self.group.generators),
            "generator_images": images,  # exponents of zeta_order
            "conductor": self.conductor(),
            "parity": self.parity(),
        }


def characters_mod(N: int) -> list[DirichletCharacter]:
    """All phi(N) characters mod N, in lexicographic exponent order."""
    group = unit_group(N)
    return [
        DirichletCharacter(group, exps)
        for exps in product(*[range(o) for o in group.orders])
    ]


def trivial_character(N: int = 1) -> DirichletCharacter:
    group = unit_group(N)
    return DirichletCharacter(group, tuple(0 for _ in group.orders))


def induce(chi: DirichletCharacter, N: int) -> DirichletCharacter:
    """The character mod N agreeing with chi on units; requires chi.modulus | N."""
    if N % chi.modulus:
        raise ValueError("target modulus must be a multiple of the character modulus")
    group = unit_group(N)
    m = chi.order
    exponents = []
    for g, o in zip(group.generators, group.orders):
        j = chi.exponent_of(g)
        assert j is not None
        assert (j * o) % m == 0
        exponents.append(j * o // m)
    return DirichletCharacter(group, tuple(exponents))


# ---------------------------------------------------------------------------
# Bernoulli numbers, Bernoulli polynomials, generalized Bernoulli numbers
# ---------------------------------------------------------------------------

_bernoulli_even: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...


def bernoulli_number(k: int) -> Fraction:
    """B_k with the convention B_1 = -1/2.

    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) for the tangent numbers
    T_j = tan^(2j-1)(0), which come from the O(n^2) integer recurrence of
    Brent and Harvey ("Fast computation of Bernoulli, tangent and secant
    numbers", 2013). The table of even B_2j at least doubles when a call
    reads past it, so ascending calls cost O(n^2) integer steps in all.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k % 2:
        return Fraction(-1, 2) if k == 1 else Fraction(0)
    if k // 2 >= len(_bernoulli_even):
        n = max(k // 2, 2 * (len(_bernoulli_even) - 1))
        t = [0, 1] + [0] * (n - 1)  # t[j] = T_j
        for j in range(2, n + 1):
            t[j] = (j - 1) * t[j - 1]
        for i in range(2, n + 1):
            for j in range(i, n + 1):
                t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
        _bernoulli_even[1:] = [
            Fraction((-1) ** (j - 1) * 2 * j * t[j], 4**j * (4**j - 1)) for j in range(1, n + 1)
        ]
    return _bernoulli_even[k // 2]


@lru_cache(maxsize=None)
def bernoulli_polynomial(k: int) -> RatPoly:
    """B_k(x) = sum_j C(k, j) B_j x^(k-j)."""
    coeffs = [Fraction(0)] * (k + 1)
    for j in range(k + 1):
        coeffs[k - j] = math.comb(k, j) * bernoulli_number(j)
    return RatPoly(coeffs)


@lru_cache(maxsize=None)
def gen_bernoulli(k: int, chi: DirichletCharacter) -> NumberFieldElement:
    """Generalized Bernoulli number B_{k,chi} in Q(zeta_order(chi)), memoized.

    Closed form N^(k-1) * sum_a chi(a) B_k(a/N) over a = 0..N-1; for the
    trivial character mod 1 this is the ordinary Bernoulli number. For
    B_k = sum_i c_i x^i, h = d sum_i c_i N^(k-i) x^i is integral; the
    summands h(a) / (d N), one integer Horner each, are summed by exponent e
    of chi(a) = zeta^e into one integer vector, reduced once modulo Phi_order.
    """
    if k < 1:
        raise ValueError("k must be positive")
    N = chi.modulus
    poly = bernoulli_polynomial(k).coeffs
    d, h = clear_denominators([c * N ** (k - i) for i, c in enumerate(poly)])
    sums = [0] * chi.order
    for a in range(N):
        if (e := chi.exponent_of(a)) is not None:
            sums[e] += _dense_eval(h, a)
    return chi.value_field().reduce(d * N, sums)


def galois_orbits(chars):
    """(chi, rep, a) for each chi in chars, in order: chi = rep^a for a unit a
    mod ord(rep), 1 <= a <= ord(rep), and rep is the first of chars in chi's
    Galois orbit. sigma_a: zeta -> zeta^a maps rep's exact values to chi's, as
    B_{k,rep^a} = sigma_a(B_{k,rep}) (Washington, Introduction to Cyclotomic
    Fields, GTM 83, ch. 4); abs_embed(x, a) reads |sigma_a(x)|."""
    seen: dict[DirichletCharacter, tuple[DirichletCharacter, int]] = {}
    for chi in chars:
        if chi not in seen:
            m = chi.order
            seen.update((chi**a, (chi, a)) for a in range(1, m + 1) if math.gcd(a, m) == 1)
        yield (chi, *seen[chi])


def sigma_gen(
    kminus1: int,
    psi: DirichletCharacter,
    phi: DirichletCharacter,
    n: int,
) -> NumberFieldElement:
    """Twisted divisor sum: sum over m | n of psi(n/m) phi(m) m^(k-1), valued
    in the compositum cyclotomic field Q(zeta_M). Each term adds m^(k-1) at
    the exponent of zeta_M in psi(n/m) phi(m), and the integer vector is
    reduced once modulo Phi_M."""
    if n < 1:
        raise ValueError("n must be positive")
    if kminus1 < 0:
        raise ValueError("k - 1 must be nonnegative")
    field = compositum_field(psi, phi)
    M = field.zeta_order
    sums = [0] * M
    for m in divisors(n):
        e_psi, e_phi = psi.exponent_of(n // m), phi.exponent_of(m)
        if e_psi is not None and e_phi is not None:
            sums[(e_psi * (M // psi.order) + e_phi * (M // phi.order)) % M] += m**kminus1
    return field.reduce(1, sums)


def compositum_field(psi: DirichletCharacter, phi: DirichletCharacter) -> NumberField:
    return cyclotomic_field(math.lcm(psi.order, phi.order))


@lru_cache(maxsize=None)
def _pi_fixed(bits: int) -> int:
    """pi 2^bits by Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239).
    Each series term floors twice, so the result is off by under
    8 (bits + 8) units."""

    def arctan_inv(x: int) -> int:
        total, power, i = 0, (1 << bits) // x, 1  # power ~ x^-i 2^bits
        while power:
            total += power // i if i % 4 == 1 else -(power // i)
            power //= x * x
            i += 2
        return total

    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


@lru_cache(maxsize=None)
def _unit_root_fixed(m: int, a: int, bits: int) -> tuple[int, int]:
    """(cos, sin)(2 pi a / m) 2^bits for 0 <= a < m, each within one unit: the
    Taylor series at G = bits + 32 + L guard bits, L = bits.bit_length(),
    rounded once. In units of 2^-G, theta < 2 pi is off by under 16 G + 129
    (pi by under 8 (G + 8)). Earlier floors reach a term scaled by at most
    theta^r / r!, so each term is off by under e^theta < 2^10; the terms floor
    to 0 by i = G + 35 and not before i > 2 theta, so the tail is under 2^11.
    Sums are off by under 2^11 (G + 38) units, below half a final unit, 2^(31 + L)."""
    guard = bits + 32 + bits.bit_length()
    theta = 2 * a * _pi_fixed(guard) // m
    parts = [0, 0, 0, 0]  # sums of theta^i / i! over i mod 4
    term, i = 1 << guard, 0
    while term:
        parts[i % 4] += term
        i += 1
        term = term * theta // (i << guard)
    shift = guard - bits
    half = 1 << (shift - 1)
    return (parts[0] - parts[2] + half) >> shift, (parts[1] - parts[3] + half) >> shift


def abs_embed(x: NumberFieldElement | Fraction | int, a: int = 1) -> float:
    """|sigma_a(x)|, the value of |x| under zeta_m -> exp(2 pi i a / m) for a
    prime to m, with relative error well below 1e-12, in integer arithmetic.

    Write x = sum c_i zeta^i / d with integers c_i. polys._fixed_eval runs
    the Horner on the c_i at exp(2 pi i a / m) rounded to `bits` fractional
    bits; for degree n and M = max |c_i| it is off by under 4 n^2 M 2^-bits.
    The precision starts at 106 bits and doubles while the value does not
    clear that bound by a factor 2^64 (zero reads 0 >= 0 at once). sigma_-a(x)
    is the complex conjugate of sigma_a(x): both read the angle in [0, pi].
    """
    if isinstance(x, (int, Fraction)):
        return float(abs(Fraction(x)))
    m = x.parent.zeta_order
    if m is None:
        raise ValueError("absolute value is defined for cyclotomic elements")
    if math.gcd(a, m) != 1:
        raise ValueError(f"a = {a} is not prime to the zeta order {m}")
    a = min(a % m, -a % m)
    bound = 4 * len(x.ints) ** 2 * max(map(abs, x.ints)) << 64
    bits = 106
    while True:
        re, im = _fixed_eval(x.ints, *_unit_root_fixed(m, a, bits), bits)
        norm = re * re + im * im
        if norm >= bound * bound:
            return math.isqrt(norm) / (x.den << bits)
        bits *= 2
