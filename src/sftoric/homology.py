"""Divisor and curve class arithmetic on a complete smooth toric surface.

Classes are plain length-d vectors (int or Fraction entries) in the basis of
toric prime divisors D_1..D_d; two vectors represent the same (co)homology
class iff they differ by the span of the linear-equivalence relations
L_j = sum_i v_i^j D_i.  Equality and membership compare the canonical
representative of ``reduce_class``; the pairing profile against all D_i is
pairing data for the products.  The functions taking class vectors raise
ParameterMismatch for a vector that is not a sequence with one entry per ray
(text and bytes do not count as sequences).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import ParameterMismatch
from .fan import Fan, det
from .laurent import _TEXT, _exact

Vector = tuple


def intersection(fan: Fan, i: int, j: int) -> int:
    """D_i . D_j: self-intersection on the diagonal, adjacency off it."""
    d = fan.d
    i0, j0 = (i - 1) % d, (j - 1) % d
    if i0 == j0:
        return fan.self_intersection(i)
    if (i0 - j0) % d in (1, d - 1):
        return 1
    return 0


def gram_matrix(fan: Fan) -> list[list[int]]:
    d = fan.d
    return [[intersection(fan, i, j) for j in range(1, d + 1)] for i in range(1, d + 1)]


def _check_length(fan: Fan, *vectors: Sequence) -> None:
    for x in vectors:
        # a tuple skips the slow ABC test; text and bytes are no class vectors
        if type(x) is not tuple and (not isinstance(x, Sequence) or isinstance(x, _TEXT)):
            raise ParameterMismatch(f"class vector {x!r} is not a sequence")
        if len(x) != fan.d:
            raise ParameterMismatch(f"class vector with {len(x)} entries for {fan.d} rays")


def pair(fan: Fan, x: Sequence, y: Sequence):
    """Bilinear extension of the intersection pairing to class vectors."""
    _check_length(fan, x, y)
    g = gram_matrix(fan)
    total = 0
    for a, xa in enumerate(x):
        if not xa:
            continue
        row = g[a]
        total += xa * sum(row[b] * yb for b, yb in enumerate(y) if yb)
    return total


def profile(fan: Fan, x: Sequence) -> tuple:
    """Pairings (x . D_1, ..., x . D_d); determines the class of x in H^2."""
    _check_length(fan, x)
    g = gram_matrix(fan)
    d = fan.d
    return tuple(sum(g[a][b] * x[a] for a in range(d) if x[a]) for b in range(d))


def chern_number(fan: Fan, alpha: Sequence[int]) -> int:
    """c_1(alpha) = alpha . sum_i D_i = sum_k m_k (2 + D_k^2) by adjunction."""
    _check_length(fan, alpha)
    return sum(
        m * (2 + fan.self_intersection(k)) for k, m in enumerate(alpha, start=1) if m
    )


def linear_relations(fan: Fan) -> tuple[Vector, Vector]:
    """The classes L_j = sum_i v_i^j D_i, j = 1, 2, generating linear equivalence."""
    l1 = tuple(v[0] for v in fan.rays)
    l2 = tuple(v[1] for v in fan.rays)
    return l1, l2


def unit_vector(d: int, i: int) -> Vector:
    """Coordinate divisor class [D_i] (1-based)."""
    return tuple(1 if a == i - 1 else 0 for a in range(d))


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence[Sequence]):
    """Gauss-Jordan elimination of M X = B with exact rational entries.

    M is n x m of any rank and B is n x c (c may be zero).  Returns
    (rank, solutions): solutions[j] is a Fraction solution x of
    M x = B[:, j] with every free unknown set to zero, or None when that
    column is inconsistent.  Each row of [M | B] is scaled to integers and
    eliminated fraction-free, divided by the gcd of its entries after every
    step; zero entries are skipped, so sparse systems stay cheap.
    Raises ParameterMismatch unless M and B are sequences, M has a row, B has
    one row per row of M, and the rows of each are of one length.
    """
    pairs = zip(matrix, rhs) if isinstance(matrix, Sequence) and isinstance(rhs, Sequence) else ()
    rows = [(_exact(a, "row of M"), _exact(b, "row of B")) for a, b in pairs]
    if not rows or len(matrix) != len(rhs) or len({(len(a), len(b)) for a, b in rows}) > 1:
        raise ParameterMismatch("M x = B needs n >= 1 rows in M and in B, each of one width")
    n, m = len(rows), len(rows[0][0])
    aug = []
    for a, b in rows:
        vals = a + b
        scale = lcm(*(v.denominator for v in vals))
        aug.append([v.numerator * (scale // v.denominator) for v in vals])
    pivots: list[int] = []
    for col in range(m):
        top = len(pivots)
        piv = next((r for r in range(top, n) if aug[r][col]), None)
        if piv is None:
            continue
        aug[top], aug[piv] = aug[piv], aug[top]
        p = aug[top][col]
        nonzero = [(c, v) for c, v in enumerate(aug[top]) if v]
        for r in range(n):
            f = aug[r][col]
            if r != top and f:
                row = [a * p for a in aug[r]]
                for c, v in nonzero:
                    row[c] -= f * v
                g = gcd(*row)
                aug[r] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == n:
            break
    rank = len(pivots)
    solutions = []
    for j in range(m, len(aug[0])):
        if any(aug[r][j] for r in range(rank, n)):
            solutions.append(None)
            continue
        x = [Fraction(0)] * m
        for r, col in enumerate(pivots):
            x[col] = Fraction(aug[r][j], aug[r][col])
        solutions.append(x)
    return rank, solutions


def fiber_classes(fan: Fan):
    """For each opposite-ray pair (a, b), a < b, the ruling fiber class.

    b is the ray index of -v_a.  Projecting along v_a maps the fan onto the fan
    of P^1, and the fiber over one fixed point is f = sum_k max(det(v_a, v_k), 0)
    D_k: effective, f.D_a = f.D_b = 1, f.D_k = 0 for every other k, f^2 = 0
    and c_1(f) = 2.
    """
    index = {v: k for k, v in enumerate(fan.rays, start=1)}
    out = []
    for a, va in enumerate(fan.rays, start=1):
        b = index.get((-va[0], -va[1]), 0)
        if b > a:
            out.append(((a, b), tuple(max(det(va, vk), 0) for vk in fan.rays)))
    return out


def reduce_class(fan: Fan, x: Sequence) -> Vector:
    """Canonical representative of x modulo L_1, L_2: the one with x_{d-1} = x_d = 0.

    On the last two coordinates the relations form the matrix with rows
    v_{d-1}, v_d, whose determinant is one (the rays span a smooth cone), so
    its inverse is integral and integer input stays integral.  The entries
    may be rationals or QPoly coefficients, which reduce the same way.
    """
    _check_length(fan, x)
    (u1, u2), (w1, w2) = fan.rays[-2:]
    xu, xw = x[-2], x[-1]
    lam1 = w2 * xu - u2 * xw
    lam2 = u1 * xw - w1 * xu
    out = tuple(v - lam1 * a - lam2 * b for v, (a, b) in zip(x, fan.rays))
    assert not out[-2] and not out[-1]
    return out
