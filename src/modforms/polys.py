"""Exact univariate polynomial arithmetic over Q, with mod-p factor patterns
and one-sided irreducibility certificates."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from itertools import islice, zip_longest
from typing import Iterable, NamedTuple, Sequence

from .arith import _divisors_from_factorization, factorize, iter_primes

# ---------------------------------------------------------------------------
# Dense kernels: ascending coefficient lists over any coefficient ring, using
# the coefficients' own +, -, * and /, except that a product over Q clears
# denominators and runs on Python ints, and division by a monic polynomial
# never divides. Every series, polynomial and number-field product, division,
# gcd, power and evaluation in the package runs here, as does every series
# inverse and every reduction modulo a number field's modulus; only the F_p
# product, division and gcd below keep their own loops, which reduce mod q at
# every step, and the fixed-point Horner, which floors at every step.
# ---------------------------------------------------------------------------


def _dense_trim(a):
    """a without its trailing zero coefficients (same sequence type)."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _dense_mul(a, b, zero, n=None):
    """Product of dense coefficient lists, truncated to n terms when n is given.

    Zero coefficients of a are skipped (a is checked once per entry, b never),
    so the sparser operand belongs first. The result is not trimmed; it is
    empty when either operand is.

    Over Q (a Fraction zero; entries Fraction or int) each operand is scaled
    by the lcm of its denominators, the loop runs on the integer numerators,
    and each output entry is one Fraction over the product of the two lcms.
    """
    if not a or not b:
        return []
    m = len(a) + len(b) - 1
    if n is not None:
        m = min(m, n)
    if isinstance(zero, Fraction):
        (da, na), (db, nb) = clear_denominators(a[:m]), clear_denominators(b[:m])
        d = da * db
        return [Fraction(c, d) for c in _dense_mul(na, nb, 0, m)]
    out = [zero] * m
    for i, x in enumerate(a[:m]):
        if x == 0:
            continue
        k = min(len(b), m - i)
        out[i : i + k] = [o + x * y for o, y in zip(out[i : i + k], b)]
    return out


def _dense_eval(a, x):
    """a(x) by Horner's rule: acc starts at the top coefficient (the int 0
    for an empty list) and takes acc * x + c for each lower one, as
    mpmath.polyval does. Only the operands' own + and * are used, so x and
    the coefficients may come from any ring that mixes with them: Q, Z, a
    number field, complex doubles or mpmath numbers."""
    acc = a[-1] if a else 0
    for c in a[-2::-1]:
        acc = acc * x + c
    return acc


def _fixed_eval(a, qr: int, qi: int, bits: int) -> tuple[int, int]:
    """sum a_i q^i for integers a_i at a complex q given in fixed point,
    qr + i qi ~ q 2^bits: the integer Horner that the arc evaluator in zeros
    and the cyclotomic absolute value in dirichlet share. It returns (re, im)
    ~ value * 2^bits. Each step floors both parts once at that scale: an
    error under sqrt(2) units, which every later step multiplies by
    |qr + i qi| / 2^bits."""
    re = im = 0
    for c in reversed(a):
        re, im = ((re * qr - im * qi) >> bits) + (c << bits), (re * qi + im * qr) >> bits
    return re, im


def clear_denominators(a) -> tuple[int, list[int]]:
    """(d, ints) for rational entries a: d > 0 is the lcm of the denominators,
    the least d with every d * x an integer, and ints holds those integers."""
    d = math.lcm(*[x.denominator for x in a])
    return d, [x.numerator * (d // x.denominator) for x in a]


def _dense_divmod(a, b):
    """Quotient and remainder of dense polynomials, both trimmed; b must be
    trimmed. A monic b divides over any ring, ints included, since each
    quotient entry is then the leading remainder itself; any other b needs a
    field."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    d = len(b) - 1
    rem = list(a)
    inv = None if b[-1] == 1 else 1 / b[-1]
    # (j - d, b_j) for the nonzero b_j, j < d: a step skips the zeros of b
    # (a cyclotomic modulus is mostly zeros)
    terms = [(j - d, y) for j, y in enumerate(b[:d]) if y != 0]
    quot = []  # filled from the top coefficient down
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            quot.append(c)
            continue
        q = c if inv is None else c * inv
        quot.append(q)
        for j, y in terms:
            rem[i + j] -= q * y
    quot.reverse()
    return _dense_trim(quot), _dense_trim(rem[:d])


def _dense_gcd(a, b):
    """Monic gcd of dense polynomials over a field ([] when both are zero)."""
    a, b = _dense_trim(list(a)), _dense_trim(list(b))
    while b:
        a, b = b, _dense_divmod(a, b)[1]
    if a:
        inv = 1 / a[-1]
        a = [c * inv for c in a]
    return a


def _binary_power(base, e: int, one, mul=operator.mul):
    """base**e for e >= 0 by square-and-multiply; one is returned for e = 0.

    The base is squared only while higher bits remain, and the first factor
    is taken as is rather than multiplied into one.
    """
    if e < 0:
        raise ValueError("negative power")
    result = None
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return one if result is None else result
        base = mul(base, base)


class RatPoly:
    """Polynomial over Q as an ascending coefficient tuple, trailing zeros trimmed.

    The zero polynomial has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        self.coeffs = _dense_trim(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        return RatPoly(_dense_mul(self.coeffs, other.coeffs, Fraction(0)))

    __rmul__ = __mul__

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        quot, rem = _dense_divmod(self.coeffs, other.coeffs)
        return RatPoly(quot), RatPoly(rem)

    def __floordiv__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[0]

    def __pow__(self, e: int) -> "RatPoly":
        return _binary_power(self, e, RatPoly([1]))

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.lead
        return self if lead == 1 else RatPoly([c / lead for c in self.coeffs])

    def evaluate(self, x):
        return _dense_eval(self.coeffs, x)

    def __repr__(self) -> str:
        if self.is_zero():
            return "RatPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "RatPoly(" + " + ".join(parts) + ")"


def poly_xgcd(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly, RatPoly]:
    """Extended gcd in Q[x]: returns (g, u, v) with u*a + v*b = g, g monic, and
    u = (a/g)^-1 mod b/g of least degree, as the Euclidean algorithm gives it."""
    if b.is_zero():
        return (a, RatPoly([1]), b) if a.is_zero() else (a.monic(), RatPoly([1 / a.lead]), b)
    g = RatPoly([1])
    u = _inverse_mod(a.coeffs, b.coeffs)
    if u is None:  # a common factor
        g = RatPoly(_dense_gcd(a.coeffs, b.coeffs))
        u = _inverse_mod((a // g).coeffs, (b // g).coeffs)
    u = RatPoly(u)
    return g, u, (g - u * a) // b


def _inverse_mod(a, b) -> list[Fraction] | None:
    """a^-1 modulo b != 0 ([] when b is constant), or None when a and b share a
    factor. Column j of the integer matrix M is x^j a mod b scaled by s L^j (s
    clears a mod b, L leads b scaled to integers); bareiss_solve gives w = D M^-1 e_0,
    D = det M, and u_j = s L^j w_j / D."""
    d = len(b) - 1
    s, col = clear_denominators(_dense_divmod(a, b)[1])
    B = clear_denominators(b)[1]
    cols = [col + [0] * (d - len(col))]
    while len(cols) < d:
        cols.append([B[-1] * x - cols[-1][-1] * y for x, y in zip([0] + cols[-1][:-1], B)])
    D, w = bareiss_solve([[*row, int(i == 0)] for i, row in enumerate(zip(*cols))])
    return None if w is None else [Fraction(s * B[-1] ** j * x, D) for j, (x,) in enumerate(w)]


# ---------------------------------------------------------------------------
# Integer Bareiss: determinants, linear solves and trace-form discriminants
# ---------------------------------------------------------------------------


def bareiss_solve(m: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(D, W) for the integer rows m = [A | B], A square, overwriting m: the
    one integer determinant D = det A, by fraction-free elimination, and the
    one rational solve W = D A^-1 B, integral (None when D = 0). The back
    substitution on the triangular U X = C left in m divides exactly, since
    W_k = D X_k = (D C_k - sum_(j>k) U_kj W_j) / U_kk."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if i is None:
                return 0, None
            m[k], m[i] = m[i], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k][k + 1 :]
        for row in m[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1 :], top)]
            row[k] = 0
        prev = pivot
    D = sign * prev  # the last pivot is the determinant of the swapped rows
    w = []  # W_k, ..., W_(n-1)
    for k in reversed(range(n)):
        acc = [D * x for x in m[k][n:]]
        for u, y in zip(m[k][k + 1 : n], w):
            acc = [a - u * b for a, b in zip(acc, y)]
        w.insert(0, [a // m[k][k] for a in acc])
    return D, w


def power_sums(c: Sequence[int], count: int) -> tuple[int, ...]:
    """Power sums of the roots, exponents 0 .. count-1, of the monic
    polynomial with ascending integer coefficients c, by Newton's identities;
    past the degree d the recurrence runs on the last d sums."""
    d = len(c) - 1
    p = [d]
    for j in range(1, count):
        s = -j * c[d - j] if j <= d else 0
        for i in range(1, min(j, d + 1)):
            s -= c[d - i] * p[j - i]
        p.append(s)
    return tuple(p[:count])


def discriminant(p: RatPoly) -> Fraction:
    """disc(p) for degree d >= 1. P = den p is integral with lead a, so
    Q(y) = a^(d-1) P(y/a) is monic and integral; disc(Q), the determinant of
    the trace form [s_(i+j)] of its power sums (Cohen, GTM 138, 4.4), is
    a^((d-1)(d-2)) den^(2d-2) disc(p)."""
    d = p.degree
    if d < 1:
        raise ValueError("discriminant requires degree >= 1")
    den, P = clear_denominators(p.coeffs)
    a = P[-1]
    s = power_sums([x * a ** (d - 1 - i) for i, x in enumerate(P[:-1])] + [1], 2 * d - 1)
    det = bareiss_solve([list(s[i : i + d]) for i in range(d)])[0]
    return Fraction(det, a ** ((d - 1) * (d - 2)) * den ** (2 * d - 2))


# ---------------------------------------------------------------------------
# Polynomials modulo a prime (ascending int lists, reduced mod p)
# ---------------------------------------------------------------------------


def _pmul(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return _dense_trim(out)


def _pdivmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError
    rem = a[:]
    d = len(b) - 1
    inv = pow(b[-1], -1, q)
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c * inv % q
        quot[i - d] = f
        for j, y in enumerate(b):
            rem[i - d + j] = (rem[i - d + j] - f * y) % q
    return _dense_trim(quot), _dense_trim(rem)


def _pgcd(a: list[int], b: list[int], q: int) -> list[int]:
    while b:
        a, b = b, _pdivmod(a, b, q)[1]
    if a:
        inv = pow(a[-1], -1, q)
        a = [c * inv % q for c in a]
    return a


def _pderiv(a: list[int], q: int) -> list[int]:
    return _dense_trim([i * c % q for i, c in enumerate(a)][1:])


def _ppowmod(base: list[int], e: int, mod: list[int], q: int) -> list[int]:
    return _binary_power(
        _pdivmod(base, mod, q)[1], e, [1], lambda a, b: _pdivmod(_pmul(a, b, q), mod, q)[1]
    )


def _pth_root(a: list[int], q: int) -> list[int]:
    # valid when a' == 0 in F_q[x]: a(x) = b(x)^q with b read off every q-th slot
    return _dense_trim(a[::q])


def radical_mod_p(f: list[int], q: int) -> list[int]:
    """Product of the distinct irreducible factors of f in F_q[x], monic."""
    f = [c % q for c in f]
    f = _dense_trim(f)
    if not f:
        raise ValueError("radical of the zero polynomial")
    inv = pow(f[-1], -1, q)
    f = [c * inv % q for c in f]
    if len(f) == 1:
        return [1]
    df = _pderiv(f, q)
    if not df:
        return radical_mod_p(_pth_root(f, q), q)
    c = _pgcd(f, df, q)
    w = _pdivmod(f, c, q)[0]
    r = c
    g = _pgcd(r, w, q)
    while len(g) > 1:
        r = _pdivmod(r, g, q)[0]
        g = _pgcd(r, w, q)
    if len(r) == 1:
        return w
    return _pmul(w, radical_mod_p(_pth_root(r, q), q), q)


def factor_degrees_mod_p(P: Sequence[int], q: int) -> list[int]:
    """Degrees of the irreducible factors mod q (sorted, with multiplicity of
    distinct factors) of the integer polynomial with ascending, trimmed
    coefficients P; raises ValueError when q divides the leading coefficient
    or P is not squarefree mod q."""
    if len(P) < 2:
        raise ValueError("degree >= 1 required")
    if P[-1] % q == 0:
        raise ValueError(f"{q} divides the leading coefficient")
    inv = pow(P[-1], -1, q)
    f = [c * inv % q for c in P]
    df = _pderiv(f, q)
    if len(_pgcd(f, df, q)) != 1:
        raise ValueError(f"polynomial is not squarefree mod {q}")
    degrees: list[int] = []
    x = [0, 1]
    frob = x[:]  # x^(q^d) mod f, advanced one Frobenius power per round
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        frob = _ppowmod(frob, q, f, q)
        g = _pgcd([(a - b) % q for a, b in zip_longest(frob, x, fillvalue=0)], f, q)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            f = _pdivmod(f, g, q)[0]
            frob = _pdivmod(frob, f, q)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return sorted(degrees)


# ---------------------------------------------------------------------------
# Irreducibility certificates (one-sided: Unknown is an honest outcome)
# ---------------------------------------------------------------------------


class IrreducibilityCertificate(NamedTuple):
    """Outcome of poly_irreducible with the data it was decided on.

    patterns maps each prime poly_irreducible read to the factor degrees of p
    mod that prime (empty for degree 1 and when the discriminant vanishes).
    """

    status: str  # "irreducible" | "reducible" | "unknown"
    patterns: dict[int, tuple[int, ...]]
    witness_prime: int | None = None
    witness_root: Fraction | None = None

    @property
    def is_irreducible(self) -> bool:
        return self.status == "irreducible"

    @property
    def is_reducible(self) -> bool:
        return self.status == "reducible"


def _rational_root_candidates(P: Sequence[int]) -> list[Fraction] | None:
    """All rational-root candidates of the integer polynomial with ascending
    coefficients P, or None when the endpoint coefficients do not factor by
    trial division to 10^5."""
    c0, lead = P[0], P[-1]
    if c0 == 0:
        return [Fraction(0)]
    f0 = factorize(abs(c0), trial_bound=10**5, rho_iterations=0)
    fl = factorize(abs(lead), trial_bound=10**5, rho_iterations=0)
    if not (f0.complete and fl.complete):
        return None
    nums = _divisors_from_factorization(f0.factors)
    dens = _divisors_from_factorization(fl.factors)
    if len(nums) * len(dens) > 20_000:
        return None
    cands = set()
    for a in nums:
        for b in dens:
            cands.add(Fraction(a, b))
            cands.add(Fraction(-a, b))
    return sorted(cands)


def _subset_sums(pattern: Sequence[int]) -> int:
    """Bitset of the degrees that a product of some factors in the pattern has."""
    reachable = 1
    for x in pattern:
        reachable |= reachable << x
    return reachable


def poly_irreducible(p: RatPoly) -> IrreducibilityCertificate:
    """Certificate-based irreducibility test over Q.

    The mod-q factor patterns of P = den p (den the lcm of the coefficient
    denominators) come first, at the first 30 good primes: q divides neither
    den nor the leading numerator, so P is a unit times p mod q and has its
    pattern, and factor_degrees_mod_p finds P squarefree mod q. A skipped q
    divides disc(P), and |disc(P)| <= d^d (sum c_i^2)^(d-1) over the
    coefficients c_i of P (Mahler, 1964): once the skipped primes' product
    passes that bound, disc(P) = 0 and no pattern is read.
    Rational-root candidates are tried only while every pattern still allows
    a linear factor, since a rational root shows up as a 1 in every pattern.
    While a proper factor degree stays open, one more good prime is read at
    a time, up to 4d primes for degree d. Witnesses:

    - "irreducible": a prime where p stays in one piece, a pattern set that
      rules out every proper factor degree, or (degree <= 3) the absence of
      a rational root, which for degree 2 is a non-square b^2 - 4ac of P;
    - "reducible": a rational root;
    - anything else is "unknown".
    """
    d = p.degree
    if d < 1:
        raise ValueError("degree >= 1 required")
    if d == 1:
        return IrreducibilityCertificate("irreducible", {})
    den, P = clear_denominators(p.coeffs)
    bad, mahler = den * p.lead.numerator, d**d * sum(c * c for c in P) ** (d - 1)

    def good_patterns():
        skipped = 1
        for q in (q for q in iter_primes() if bad % q):
            try:
                pattern = tuple(factor_degrees_mod_p(P, q))
            except ValueError:  # q is prime to bad, so P is not squarefree mod q
                skipped *= q
                if skipped > mahler:
                    return
                continue
            yield q, pattern

    good = good_patterns()
    patterns = dict(islice(good, 30))
    cert = partial(IrreducibilityCertificate, patterns=patterns)
    if d == 2:
        c, b, a = P
        disc = b * b - 4 * a * c
        r = math.isqrt(max(disc, 0))
        if r * r != disc:
            return cert("irreducible")
        return cert("reducible", witness_root=Fraction(r - b, 2 * a))
    if all(1 in pat for pat in patterns.values()):
        candidates = _rational_root_candidates(P)
        if candidates is not None:
            for r in candidates:
                if _dense_eval(P, r) == 0:
                    return cert("reducible", witness_root=r)
            if d == 3:
                # a reducible cubic over Q must have a rational root
                return cert("irreducible")
    # bit j: every pattern allows a factor of degree j, for 1 <= j <= d/2
    open_degrees = (1 << (d // 2 + 1)) - 2
    for pat in patterns.values():
        open_degrees &= _subset_sums(pat)
    while open_degrees and len(patterns) < 4 * d and (read := next(good, None)):
        q, pat = read
        patterns[q] = pat
        open_degrees &= _subset_sums(pat)
    for q, pat in patterns.items():
        if pat == (d,):
            return cert("irreducible", witness_prime=q)
    return cert("unknown" if open_degrees else "irreducible")


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------


def cyclotomic_polynomial(m: int) -> RatPoly:
    """The m-th cyclotomic polynomial on Python ints: for m > 1, the power
    series prod_(d | m) (1 - x^d)^mu(m/d) truncated past x^phi(m)."""
    if m < 1:
        raise ValueError("m >= 1 required")
    if m == 1:
        return RatPoly([-1, 1])
    fact = factorize(m)
    if not fact.complete:
        raise ArithmeticError(f"cannot factor the cyclotomic index {m}")
    terms = [(1, 1)]  # (s, mu(s)) for the squarefree divisors s of m
    for p in fact.factors:
        terms += [(s * p, -mu) for s, mu in terms]
    n = sum(mu * (m // s) for s, mu in terms)  # phi(m)
    c = [1] + [0] * n
    for s, mu in terms:
        d = m // s  # a downward pass multiplies by 1 - x^d, an upward one divides
        for i in range(n, d - 1, -1) if mu == 1 else range(d, n + 1):
            c[i] -= mu * c[i - d]
    return RatPoly(c)
