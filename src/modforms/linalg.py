"""Small dense exact linear algebra: products, charpolys and inverses on
integers, ranks over number fields, and Hecke eigenvectors from one integer
Krylov solve."""

from __future__ import annotations

from fractions import Fraction

from .polys import RatPoly, bareiss_solve, clear_denominators


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


def rank(m, zero, one) -> int:
    """Rank of the rows m over a field (entries with +, -, *, / and ==), by
    eliminating each pivot's column from the rows left; m is not changed."""
    rows = [list(row) for row in m]  # the rows not yet taken as a pivot
    for col in range(len(m[0]) if m else 0):
        i = next((i for i, row in enumerate(rows) if not row[col] == zero), None)
        if i is None:
            continue
        pivot = rows.pop(i)
        below = [row for row in rows if not row[col] == zero]
        inv = one / pivot[col] if below else None  # the last pivot, with nothing to clear
        for row in below:
            f = row[col] * inv
            row[col + 1 :] = [x - f * y for x, y in zip(row[col + 1 :], pivot[col + 1 :])]
    return len(m) - len(rows)


def invert_rational(a):
    """(D, W), integers with A^-1 = W / D, for a square rational matrix A = M / c,
    M integral: D = det M and W = c adj M from (D, adj M) = bareiss_solve([M | I]);
    raises ValueError when A is singular."""
    n = len(a)
    c, flat = clear_denominators([x for row in a for x in row])
    D, w = bareiss_solve([flat[i * n : (i + 1) * n] + [int(i == j) for j in range(n)]
                          for i in range(n)])
    if w is None:
        raise ValueError("singular matrix")
    return D, [[c * x for x in row] for row in w]


def kernel_vector(t):
    """(D, W) for the eigenvector v of a rational matrix T for the generator x of
    K = Q[x]/(P), P the irreducible charpoly of T, with v_1 = 1 and no
    arithmetic in K: the rows u_i = e_1^T T^i give U v = (1, x, ..., x^(d-1)),
    and U is invertible, so row j of W / D = U^-1 holds the coordinates of v_j."""
    u = [[int(j == 0) for j in range(len(t))]]
    while len(u) < len(t):
        u.append(mat_mul(u[-1:], t)[0])
    return invert_rational(u)
