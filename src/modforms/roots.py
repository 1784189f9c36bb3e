"""Simultaneous polynomial root finding by Aberth-Ehrlich iteration.

A fixed perturbation of the start circle keeps runs reproducible; no
external polynomial library is involved.
"""

from __future__ import annotations

import cmath
import random

from .polys import _dense_eval


def aberth_roots(coeffs) -> list[complex]:
    """All complex roots of a polynomial given by ascending coefficients, to a
    relative step below 1e-13 or after 500 iterations."""
    cs = [complex(c) for c in coeffs]
    while cs and abs(cs[-1]) == 0:
        cs.pop()
    n = len(cs) - 1
    if n < 1:
        raise ValueError("degree >= 1 required")
    lead = cs[-1]
    cs = [c / lead for c in cs]
    deriv = [i * c for i, c in enumerate(cs)][1:]

    # Fujiwara root bound keeps the start circle close to the actual roots
    radius = 2.0 * max(abs(cs[n - k]) ** (1.0 / k) for k in range(1, n + 1))
    radius = max(radius, 0.5)
    rng = random.Random(0)
    zs = [
        radius * cmath.exp(2j * cmath.pi * (i + 0.35 + 0.01 * rng.random()) / n)
        for i in range(n)
    ]
    for _ in range(500):
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
        if moved < 1e-13:
            break
    return sorted(zs, key=lambda z: (round(z.real, 10), round(z.imag, 10)))

