"""Truncated q-expansions with exact coefficients over a pluggable field.

Precision is data: every series knows how many coefficients it holds, and
every operation truncates to the minimum of the operand precisions.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .numfield import coeff_json, field_json
from .polys import _binary_power, _dense_mul


class QSeries:
    """Coefficients a_0 .. a_{prec-1} of sum a_n q^n over a coefficient field."""

    __slots__ = ("field", "coeffs", "prec")

    def __init__(self, field, coeffs: Iterable, prec: int | None = None):
        coeffs = [field.coerce(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if prec <= 0:
            raise ValueError("prec must be positive")
        if len(coeffs) < prec:
            zero = field.zero()
            coeffs += [zero] * (prec - len(coeffs))
        else:
            coeffs = coeffs[:prec]
        self.field = field
        self.coeffs = coeffs
        self.prec = prec

    @classmethod
    def zero(cls, field, prec: int) -> "QSeries":
        return cls(field, [], prec)

    @classmethod
    def constant(cls, field, value, prec: int) -> "QSeries":
        return cls(field, [value], prec)

    def coeff(self, n: int):
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient {n} outside known precision {self.prec}")
        return self.coeffs[n]

    def _check(self, other: "QSeries") -> None:
        if self.field != other.field:
            raise ValueError("series over different coefficient fields")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        prec = min(self.prec, other.prec)
        return QSeries(
            self.field, [a + b for a, b in zip(self.coeffs[:prec], other.coeffs[:prec])], prec
        )

    def __neg__(self) -> "QSeries":
        return QSeries(self.field, [-a for a in self.coeffs], self.prec)

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        prec = min(self.prec, other.prec)
        return QSeries(
            self.field, [a - b for a, b in zip(self.coeffs[:prec], other.coeffs[:prec])], prec
        )

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._check(other)
        prec = min(self.prec, other.prec)
        return QSeries(
            self.field, _dense_mul(self.coeffs, other.coeffs, self.field.zero(), prec), prec
        )

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "QSeries":
        scalar = self.field.coerce(scalar)
        return QSeries(self.field, [scalar * a for a in self.coeffs], self.prec)

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError("negative series power; use inverse() first")
        return _binary_power(self, e, QSeries.constant(self.field, self.field.one(), self.prec))

    def inverse(self) -> "QSeries":
        """1/self by Newton iteration g <- g (2 - f g), doubling the correct terms
        of g per step. Both products run in _dense_mul; 2 - f g is 1, then zeros
        up to q^len(g), which the product skips as its first operand."""
        f = self.coeffs
        if f[0] == 0:
            raise ZeroDivisionError("not a unit: constant term is zero")
        zero = self.field.zero()
        g = [1 / f[0]]
        while len(g) < self.prec:
            m = min(2 * len(g), self.prec)
            e = [-c for c in _dense_mul(f[:m], g, zero, m)]
            e[0] += 2
            g = _dense_mul(e, g, zero, m)
        return QSeries(self.field, g, self.prec)

    def valuation(self) -> int | None:
        """Smallest n with a_n != 0, or None when zero to precision."""
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return n
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def shift(self, j: int) -> "QSeries":
        """Multiply by q^j; for j < 0 the dropped coefficients must vanish."""
        if j >= 0:
            zero = self.field.zero()
            return QSeries(self.field, [zero] * j + self.coeffs, self.prec + j)
        if any(c != 0 for c in self.coeffs[:-j]):
            raise ValueError("cannot shift below a nonzero coefficient")
        if self.prec + j <= 0:
            raise ValueError("shift would exhaust the known precision")
        return QSeries(self.field, self.coeffs[-j:], self.prec + j)

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise ValueError(f"cannot extend precision {self.prec} to {prec}")
        return QSeries(self.field, self.coeffs[:prec], prec)

    def map_coefficients(self, field, fn: Callable) -> "QSeries":
        return QSeries(field, [fn(c) for c in self.coeffs], self.prec)

    def coerce_into(self, field) -> "QSeries":
        """Reinterpret a rational series over a larger coefficient field."""
        return self.map_coefficients(field, field.coerce)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.field == other.field and self.prec == other.prec and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        more = ", ..." if self.prec > 6 else ""
        return f"QSeries([{shown}{more}] + O(q^{self.prec}))"

    def as_json(self) -> dict:
        coeffs = [coeff_json(c) for c in self.coeffs]
        return {"prec": self.prec, "field": field_json(self.field), "coeffs": coeffs}
