"""Number fields Q[x]/(m) with exact element arithmetic, traces, and the
Dedekind index-divisor test."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

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
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"NumberField({self.modulus!r})"

    def element(self, coords: Iterable[Fraction | int]) -> "NumberFieldElement":
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError("too many coordinates")
        coords += [Fraction(0)] * (self.degree - len(coords))
        return NumberFieldElement(self, tuple(coords))

    def from_poly(self, coeffs: Sequence[Fraction | int]) -> "NumberFieldElement":
        """Reduce a polynomial in the generator modulo the modulus."""
        return self.reduce(*clear_denominators(coeffs))

    def reduce(self, den: int, ints: list[int]) -> "NumberFieldElement":
        """The element (ints mod modulus) / den: the only reduction, on Python
        ints, since the modulus is monic and integral."""
        rem = _dense_divmod(ints, self._int_modulus)[1]
        rem += [0] * (self.degree - len(rem))
        return NumberFieldElement(self, tuple(Fraction(c, den) for c in rem))

    def zero(self) -> "NumberFieldElement":
        return self.element([])

    def one(self) -> "NumberFieldElement":
        return self.element([1])

    def gen(self) -> "NumberFieldElement":
        return self.from_poly([0, 1])

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
        s = -self.modulus.coeffs[1]  # sum of the two roots
        a, b = el.coords
        return self.element([a + b * s, -b])

    def zeta_pow(self, j: int) -> "NumberFieldElement":
        if self.zeta_order is None:
            raise ValueError("not a cyclotomic field")
        return self.reduce(1, [0] * (j % self.zeta_order) + [1])


class NumberFieldElement:
    """Element of Q[x]/(m) as a rational coordinate vector of length deg(m)."""

    __slots__ = ("parent", "coords", "_cleared")

    def __init__(self, parent: NumberField, coords: tuple[Fraction, ...]):
        self.parent = parent
        self.coords = coords
        self._cleared = None

    def cleared(self) -> tuple[int, tuple[int, ...]]:
        """(d, ints) with coords = ints / d, cleared once per element."""
        if self._cleared is None:
            d, ints = clear_denominators(self.coords)
            self._cleared = d, tuple(ints)
        return self._cleared

    def _check(self, other: "NumberFieldElement") -> None:
        if self.parent != other.parent:
            raise ValueError("elements of different number fields")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return NumberFieldElement(
            self.parent, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.parent, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

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
            return NumberFieldElement(self.parent, tuple(a * other for a in self.coords))
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        self._check(other)
        (da, a), (db, b) = self.cleared(), other.cleared()
        return self.parent.reduce(da * db, _dense_mul(a, b, 0))

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse in a number field")
        g, u, _ = poly_xgcd(RatPoly(self.coords), self.parent.modulus)
        if g.degree != 0:
            raise ArithmeticError("modulus is not irreducible: gcd has positive degree")
        return self.parent.from_poly(u.coeffs)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.parent.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _binary_power(self, e, self.parent.one())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.parent == other.parent and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.parent.modulus.coeffs, self.coords))

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
    spread[::step] = x.coords
    return target.from_poly(spread)


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
