"""Number fields Q[x]/(m) with exact element arithmetic, traces, and the
Dedekind index-divisor test."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .polys import (
    IrreducibilityCertificate,
    RatPoly,
    _binary_power,
    _dense_divmod,
    _dense_mul,
    _dense_trim,
    _pdivmod,
    _pgcd,
    clear_denominators,
    cyclotomic_polynomial,
    poly_irreducible,
    poly_xgcd,
    power_sums,
    radical_mod_p,
)


class RationalField:
    """Q as the degree-1 field Q[x]/(x), backed by fractions.Fraction."""

    degree = 1

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, NumberFieldElement):
            return x.as_rational()
        return Fraction(x)

    def coords(self, x: Fraction) -> tuple[Fraction]:
        return (x,)

    def power_traces(self, count: int) -> tuple[int, ...]:
        """Traces of 1, x, ..., x^(count-1) in Q[x]/(x): 1, then zeros."""
        return tuple(int(l == 0) for l in range(count))

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class NumberField:
    """Q[x]/(modulus) for a monic irreducible modulus with integer coefficients."""

    def __init__(
        self,
        modulus: RatPoly,
        certificate: IrreducibilityCertificate | None = None,
        assume_irreducible: bool = False,
    ):
        if modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if not modulus.is_monic() or not modulus.is_integral():
            raise ValueError("modulus must be monic with integer coefficients")
        if not assume_irreducible:
            if certificate is None:
                certificate = poly_irreducible(modulus)
            if not certificate.is_irreducible:
                raise ValueError(f"modulus not certified irreducible: {certificate.status}")
        self.modulus = modulus
        self.certificate = certificate
        self.degree = modulus.degree
        self.zeta_order: int | None = None  # set by cyclotomic_field
        self._int_modulus = [int(c) for c in modulus.coeffs]

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, NumberField) and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"NumberField({self.modulus!r})"

    def element(self, coeffs: Sequence[Fraction | int]) -> "NumberFieldElement":
        """The polynomial in the generator with rational coefficients coeffs
        (any length), reduced modulo the modulus."""
        return self.reduce(*clear_denominators(coeffs))

    def reduce(self, den: int, ints: Sequence[int]) -> "NumberFieldElement":
        """The element (ints mod modulus) / den in lowest terms, den > 0: the one
        constructor of elements, on Python ints, as the modulus is monic and integral."""
        if len(ints) > self.degree:
            ints = _dense_divmod(ints, self._int_modulus)[1]
        ints = [*ints, *[0] * (self.degree - len(ints))]
        g = math.gcd(den, *ints) if den > 0 else -math.gcd(den, *ints)
        if g != 1:
            den //= g
            ints = [c // g for c in ints]
        return NumberFieldElement(self, den, tuple(ints))

    def zero(self) -> "NumberFieldElement":
        return self.element([])

    def one(self) -> "NumberFieldElement":
        return self.element([1])

    def gen(self) -> "NumberFieldElement":
        return self.element([0, 1])

    def coerce(self, x) -> "NumberFieldElement":
        if isinstance(x, NumberFieldElement):
            if x.parent == self:
                return x
            raise ValueError("element of a different number field")
        return self.element([Fraction(x)])

    def coords(self, el: "NumberFieldElement") -> tuple[Fraction, ...]:
        return el.coords

    def power_traces(self, count: int) -> tuple[int, ...]:
        """Traces of 1, x, ..., x^(count-1): integers, since the modulus is
        monic and integral."""
        return power_sums(self._int_modulus, count)

    def conjugate_quadratic(self, el: "NumberFieldElement") -> "NumberFieldElement":
        """The nontrivial conjugate x -> trace(x) - x, degree-2 fields only."""
        if self.degree != 2:
            raise ValueError("quadratic conjugation needs a degree-2 field")
        s = -self._int_modulus[1]  # sum of the two roots
        a, b = el.ints
        return self.reduce(el.den, [a + b * s, -b])

    def zeta_pow(self, j: int) -> "NumberFieldElement":
        if self.zeta_order is None:
            raise ValueError("not a cyclotomic field")
        return self.reduce(1, [0] * (j % self.zeta_order) + [1])


class NumberFieldElement:
    """Element ints / den of Q[x]/(m), one int per power of the generator, den > 0
    and gcd(den, *ints) = 1, as NumberField.reduce builds it (Cohen, GTM 138, 4.2.1)."""

    __slots__ = ("parent", "den", "ints")

    def __init__(self, parent: NumberField, den: int, ints: tuple[int, ...]):
        self.parent = parent
        self.den = den
        self.ints = ints

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational coordinates ints / den, built on each read."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    def _check(self, other: "NumberFieldElement") -> None:
        if self.parent != other.parent:
            raise ValueError("elements of different number fields")

    def is_zero(self) -> bool:
        return not any(self.ints)

    def is_rational(self) -> bool:
        return not any(self.ints[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.ints[0], self.den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other, sign: int = 1):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        d = math.lcm(self.den, other.den)
        sa, sb = d // self.den, sign * (d // other.den)
        return self.parent.reduce(d, [x * sa + y * sb for x, y in zip(self.ints, other.ints)])

    __radd__ = __add__

    def __neg__(self):
        return self.parent.reduce(self.den, [-x for x in self.ints])

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def _coerced(self, other):
        if isinstance(other, NumberFieldElement):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.parent.coerce(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return self.parent.reduce(self.den * other.denominator, [x * n for x in self.ints])
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        self._check(other)
        return self.parent.reduce(self.den * other.den, _dense_mul(self.ints, other.ints, 0))

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse in a number field")
        g, u, _ = poly_xgcd(RatPoly(self.coords), self.parent.modulus)
        if g.degree != 0:
            raise ArithmeticError("modulus is not irreducible: gcd has positive degree")
        return self.parent.element(u.coeffs)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.parent.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _binary_power(self, e, self.parent.one())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.ints[0] == other * self.den
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den and self.parent == other.parent

    def __hash__(self) -> int:
        if self.is_rational():  # equal to its Fraction, so hashed as one
            return hash(self.as_rational())
        return hash((self.parent, self.den, self.ints))

    def __repr__(self) -> str:
        return f"NFE{list(self.coords)}"


def field_json(field) -> str | dict:
    """JSON description of a coefficient field: "Q", or a number field's modulus."""
    if isinstance(field, NumberField):
        return {"modulus": [str(c) for c in field.modulus.coeffs]}
    return "Q"


def coeff_json(c) -> str | list[str]:
    """JSON form of one coefficient: a rational's string, or a number-field
    element's coordinate strings."""
    if isinstance(c, NumberFieldElement):
        return [str(x) for x in c.coords]
    return str(c)


@lru_cache(maxsize=None)
def cyclotomic_field(m: int) -> NumberField:
    """Q(zeta_m) presented as Q[x]/(Phi_m); irreducibility of Phi_m is classical."""
    field = NumberField(cyclotomic_polynomial(m), assume_irreducible=True)
    field.zeta_order = m
    return field


def embed_cyclotomic(x: NumberFieldElement, target: NumberField) -> NumberFieldElement:
    """Map Q(zeta_m) -> Q(zeta_M) along zeta_m -> zeta_M^(M/m); requires m | M."""
    m = x.parent.zeta_order
    M = target.zeta_order
    if m is None or M is None or M % m:
        raise ValueError("incompatible cyclotomic fields")
    if x.parent == target:
        return x
    step = M // m
    spread = [0] * ((x.parent.degree - 1) * step + 1)
    spread[::step] = x.ints
    return target.reduce(x.den, spread)


# ---------------------------------------------------------------------------
# Dedekind's criterion
# ---------------------------------------------------------------------------


def dedekind_index_test(p: RatPoly, q: int) -> bool:
    """True when the prime q divides the index [O_K : Z[alpha]] for K = Q[x]/(p).

    Dedekind's criterion on the radical/cofactor splitting of p mod q; p must
    be monic with integer coefficients.
    """
    if not p.is_monic() or not p.is_integral():
        raise ValueError("monic integral polynomial required")
    f = [int(c) for c in p.coeffs]
    fbar = _dense_trim([c % q for c in f])
    g1 = radical_mod_p(fbar, q)
    h1, rem = _pdivmod(fbar, g1, q)
    assert not rem
    gh = _dense_mul(g1, h1, 0)
    gh += [0] * (len(f) - len(gh))
    diff = [a - b for a, b in zip(gh, f)]
    if any(c % q for c in diff):
        raise AssertionError("radical splitting failed to lift")
    fcap = _dense_trim([(c // q) % q for c in diff])
    d = _pgcd(_pgcd(fcap, g1, q), h1, q)
    return len(d) > 1
