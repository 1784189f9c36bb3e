"""Small dense exact linear algebra: products, charpolys on integers, row
reduction for inverses and echelon forms, and Hecke eigenvectors by
Cayley-Hamilton."""

from __future__ import annotations

from fractions import Fraction

from .polys import RatPoly, clear_denominators


def mat_mul(a, b):
    """Product of matrices over Z or Q (the int 0 starts every entry)."""
    assert len(a[0]) == len(b)
    cols = list(zip(*b))
    return [[weighted_sum(row, col, 0) for col in cols] for row in a]


def weighted_sum(elems, weights, zero):
    """sum_i elems[i] * weights[i] for ring elements and weights, skipping
    zero weights: the one dot product of every exact linear combination."""
    acc = zero
    for e, w in zip(elems, weights):
        if w != 0:
            acc = acc + e * w
    return acc


def charpoly_rational(a) -> RatPoly:
    """det(xI - A) for a rational matrix A by Faddeev-LeVerrier on the integer
    matrix B = D A (D clears the denominators): M_1 = B, M_k = B (M_(k-1) +
    c_(n-k+1) I), c_(n-k) = -tr(M_k) / k, exact since det(xI - B) is integral;
    its c_i is D^(n-i) times that of det(xI - A)."""
    n = len(a)
    D, flat = clear_denominators([x for row in a for x in row])
    b = [flat[i * n : (i + 1) * n] for i in range(n)]
    c = [0] * n + [1]
    m = [row[:] for row in b]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += c[n - k + 1]
            m = mat_mul(b, m)
        c[n - k] = -sum(m[i][i] for i in range(n)) // k
    return RatPoly([Fraction(x, D ** (n - i)) for i, x in enumerate(c)])


def row_reduce(m, zero, one) -> list[int]:
    """Bring the rows of m to reduced row echelon form in place; returns the
    pivot columns.

    Entries must support +, -, *, / and ==; the one exact elimination loop
    that every inverse, echelon basis and Hankel rank goes through.
    """
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        pivot = next((r for r in range(row, len(m)) if not m[r][col] == zero), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = one / m[row][col]
        m[row] = [inv * x for x in m[row]]
        for r in range(len(m)):
            if r != row and not m[r][col] == zero:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    return pivots


def invert_rational(a):
    """Inverse of a square rational matrix; raises ValueError when singular."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    if row_reduce(m, Fraction(0), Fraction(1)) != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in m]


def kernel_vector(t, field):
    """The eigenvector w of a rational matrix T for the generator x of
    K = Q[x]/(P), P = sum c_i y^i the monic charpoly of T, with no product or
    inverse in K: by Cayley-Hamilton, w = sum_(i+m<d) c_(i+1+m) x^m T^i e_1
    satisfies (T - x) w = P(T) e_1 - P(x) e_1 = 0. Coordinate m of w_j is one
    rational dot product with the Krylov vectors u_i = T^i e_1; w_1 has
    x^(d-1)-coordinate c_d = 1, and irreducible P makes w span the kernel."""
    c = field.modulus.coeffs
    u = [[int(j == 0) for j in range(len(t))]]
    while len(u) < len(t):
        u.append([weighted_sum(row, u[-1], 0) for row in t])
    return [field.element(weighted_sum(c[m + 1 :], col, 0) for m in range(len(c) - 1))
            for col in zip(*u)]
