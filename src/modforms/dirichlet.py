"""Dirichlet characters mod N with exact cyclotomic values, Bernoulli numbers,
generalized Bernoulli numbers, and twisted divisor sums."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .arith import divisors, factorize
from .linalg import weighted_sum
from .numfield import NumberField, NumberFieldElement, cyclotomic_field
from .polys import RatPoly, _dense_eval, clear_denominators


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

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli_number(k: int) -> Fraction:
    """B_k with the convention B_1 = -1/2, by the standard recurrence."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    while len(_bernoulli_cache) <= k:
        n = len(_bernoulli_cache)
        s = Fraction(0)
        for j in range(n):
            s += math.comb(n + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-s / (n + 1))
    return _bernoulli_cache[k]


@lru_cache(maxsize=None)
def bernoulli_polynomial(k: int) -> RatPoly:
    """B_k(x) = sum_j C(k, j) B_j x^(k-j)."""
    coeffs = [Fraction(0)] * (k + 1)
    for j in range(k + 1):
        coeffs[k - j] = math.comb(k, j) * bernoulli_number(j)
    return RatPoly(coeffs)


def gen_bernoulli(k: int, chi: DirichletCharacter) -> NumberFieldElement:
    """Generalized Bernoulli number B_{k,chi} in Q(zeta_order(chi)).

    Closed form N^(k-1) * sum_a chi(a) B_k(a/N) over a = 0..N-1; for the
    trivial character mod 1 this is the ordinary Bernoulli number. For
    B_k = sum_i c_i x^i the summand is chi(a) h(a) / (d N) with h = d sum_i
    c_i N^(k-i) x^i integral: one integer Horner per a, one sum per chi(a).
    """
    if k < 1:
        raise ValueError("k must be positive")
    N = chi.modulus
    field = chi.value_field()
    d, h = clear_denominators(
        [c * N ** (k - i) for i, c in enumerate(bernoulli_polynomial(k).coeffs)]
    )
    sums: dict[int, int] = {}
    for a in range(N):
        if (e := chi.exponent_of(a)) is not None:
            sums[e] = sums.get(e, 0) + _dense_eval(h, a)
    coords = [0] * field.degree
    for e, total in sums.items():
        # zeta^e has integer coordinates, since Phi_m is monic and integral
        for j, c in enumerate(field.zeta_pow(e).coords):
            coords[j] += total * c.numerator
    return field.element([Fraction(c, d * N) for c in coords])


def sigma_gen(
    kminus1: int,
    psi: DirichletCharacter,
    phi: DirichletCharacter,
    n: int,
) -> NumberFieldElement:
    """Twisted divisor sum: sum over m | n of psi(n/m) phi(m) m^(k-1), valued
    in the compositum cyclotomic field."""
    if n < 1:
        raise ValueError("n must be positive")
    field = compositum_field(psi, phi)
    ms = divisors(n)
    return weighted_sum(
        [Fraction(m) ** kminus1 for m in ms],
        [psi.value_in(field, n // m) * phi.value_in(field, m) for m in ms],
        field.zero(),
    )


def compositum_field(psi: DirichletCharacter, phi: DirichletCharacter) -> NumberField:
    return cyclotomic_field(math.lcm(psi.order, phi.order))


def abs_embed(x: NumberFieldElement | Fraction | int) -> float:
    """|x| under zeta_m -> exp(2 pi i / m), with relative error well below
    1e-12. The Horner starts at the coordinates' largest bit length plus 106
    guard bits and doubles the precision while |x| does not clear the
    absolute error bound degree * 2^-prec * max|coord| by a factor 2^64
    (zero reads 0 >= 0 at once)."""
    if isinstance(x, (int, Fraction)):
        return float(abs(Fraction(x)))
    m = x.parent.zeta_order
    if m is None:
        raise ValueError("absolute value is defined for cyclotomic elements")
    import mpmath
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in x.coords)
    prec = bits + 106
    while True:
        with mpmath.workprec(prec):
            coords = [mpmath.mpf(c.numerator) / c.denominator for c in x.coords]
            value = mpmath.fabs(_dense_eval(coords, mpmath.exp(2j * mpmath.pi / m)))
            if value >= mpmath.ldexp(len(coords) * max(map(mpmath.fabs, coords)), 64 - prec):
                return float(value)
        prec *= 2
