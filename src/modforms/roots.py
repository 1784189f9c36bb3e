"""Simultaneous polynomial root finding by Aberth-Ehrlich iteration.

A fixed perturbation of the start circle keeps runs reproducible; no
external polynomial library is involved.
"""

from __future__ import annotations

import cmath
import random
from itertools import islice

from .polys import _dense_eval


def step_tolerance():
    """10^(-dps/2) at mpmath's working precision: the relative step at which
    the working-precision stage of aberth_roots stops."""
    import mpmath
    return mpmath.mpf(10) ** (-mpmath.mp.dps / 2)


def aberth_roots(coeffs) -> list:
    """All complex roots of a polynomial given by ascending coefficients, as
    mpc at mpmath's working precision.

    The iteration runs in double precision from a fixed start circle until
    the relative step is below 1e-13 or, having shrunk, stops shrinking, as
    it does once rounding noise dominates; then from those roots on the
    coefficients rounded once to the working precision, to a relative step
    below step_tolerance(). Each stage stops after 500 iterations at the
    latest.
    """
    import mpmath
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("degree >= 1 required")
    cs = [complex(c) for c in coeffs]

    # Fujiwara root bound keeps the start circle close to the actual roots
    radius = 2.0 * max(abs(cs[n - k] / cs[n]) ** (1.0 / k) for k in range(1, n + 1))
    radius = max(radius, 0.5)
    rng = random.Random(0)
    zs = [
        radius * cmath.exp(2j * cmath.pi * (i + 0.35 + 0.01 * rng.random()) / n)
        for i in range(n)
    ]
    last, shrank = 0.0, False
    for zs, step in islice(_aberth(cs, zs), 500):
        if step < 1e-13 or shrank and step >= last:
            break
        last, shrank = step, step < last
    tol = step_tolerance()
    stage = _aberth([mpmath.mpmathify(c) for c in coeffs], [mpmath.mpc(z) for z in zs])
    for zs, step in islice(stage, 500):
        if step < tol:
            break
    return sorted(zs, key=lambda z: (round(z.real, 10), round(z.imag, 10)))


def _aberth(cs, zs):
    """Aberth-Ehrlich corrections of the approximations zs to the roots of
    sum cs[i] x^i, in whatever arithmetic cs and zs carry: yields the new
    approximations and the largest step relative to max(1, |z|) after each
    pass over all of them."""
    lead = cs[-1]
    cs = [c / lead for c in cs]
    deriv = [i * c for i, c in enumerate(cs)][1:]
    while True:
        moved = 0.0
        new = list(zs)
        for i, z in enumerate(zs):
            pz = _dense_eval(cs, z)
            dz = _dense_eval(deriv, z)
            if dz == 0:
                new[i] = z + (0.01 + 0.01j)
                moved = max(moved, 1.0)
                continue
            w = pz / dz
            s = 0j
            for j, other in enumerate(zs):
                if j != i and z != other:
                    s += 1.0 / (z - other)
            denom = 1.0 - w * s
            corr = w / denom if denom != 0 else w
            new[i] = z - corr
            moved = max(moved, abs(corr) / max(1.0, abs(z)))
        zs = new
        yield zs, moved
