"""Divisor and curve class arithmetic on a complete smooth toric surface.

Classes are plain length-d vectors (int or Fraction entries) in the basis of
toric prime divisors D_1..D_d; two vectors represent the same (co)homology
class iff they differ by the span of the linear-equivalence relations
L_j = sum_i v_i^j D_i.  The intersection pairing descends to H^2 and the
pairing profile against all D_i separates classes, which is how equality and
membership tests are implemented.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .errors import IsP2, SingularPairing
from .fan import Fan, det

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


def pair(fan: Fan, x: Sequence, y: Sequence):
    """Bilinear extension of the intersection pairing to class vectors."""
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
    g = gram_matrix(fan)
    d = fan.d
    return tuple(sum(g[a][b] * x[a] for a in range(d) if x[a]) for b in range(d))


def chern_number(fan: Fan, alpha: Sequence[int]) -> int:
    """c_1(alpha) = alpha . sum_i D_i = sum_k m_k (2 + D_k^2) by adjunction."""
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
    """
    n, m = len(matrix), len(matrix[0])
    aug = []
    for r in range(n):
        vals = [Fraction(a) for a in (*matrix[r], *rhs[r])]
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


def _independent_mod_relations(fan: Fan, subset: Sequence[int]) -> bool:
    """Do the [D_i], i in subset, stay independent modulo L_1, L_2?"""
    d = fan.d
    l1, l2 = linear_relations(fan)
    cols = [unit_vector(d, i) for i in subset] + [l1, l2]
    if len(cols) != d:
        return False
    mat = [[cols[c][r] for c in range(d)] for r in range(d)]
    return solve_linear(mat, [()] * d)[0] == d


def dual_bases(fan: Fan, subset: Sequence[int] | None = None):
    """A coordinate-divisor basis of H^2 and its dual under the pairing.

    Returns (basis, dual): basis[a] = [D_{subset[a]}] and dual[b] a rational
    divisor class with pair(basis[a], dual[b]) = delta_ab.  With no subset
    given, the first (d-2)-subset of ray indices (in lexicographic order)
    whose classes are independent modulo linear equivalence is used.
    """
    d = fan.d
    if d < 4:
        raise IsP2("H^2 has rank < 2; dual bases need at least 4 rays")
    if subset is None:
        chosen = None
        for cand in combinations(range(1, d + 1), d - 2):
            if _independent_mod_relations(fan, cand):
                chosen = cand
                break
        if chosen is None:
            raise SingularPairing("no coordinate subset spans H^2")
        subset = chosen
    subset = tuple(subset)
    basis = [unit_vector(d, i) for i in subset]
    n = len(subset)
    gram = [[intersection(fan, a, b) for b in subset] for a in subset]
    rank, inv = solve_linear(gram, [unit_vector(n, r) for r in range(1, n + 1)])
    if rank < n:
        raise SingularPairing(f"Gram matrix of {subset} is singular")
    dual = []
    for b in range(n):
        vec = [Fraction(0)] * d
        for a in range(n):
            vec[subset[a] - 1] += inv[b][a]
        dual.append(tuple(vec))
    return basis, dual


def fiber_classes(fan: Fan):
    """For each opposite-ray pair {a, b}, the ruling fiber class.

    The projection along v_a maps the fan onto the fan of P^1; the fiber over
    one of the two torus-fixed points is sum_{det(v_a, v_k) > 0} det(v_a, v_k) D_k,
    an effective representative with f.D_a = f.D_b = 1 and zero pairing with
    every other divisor, f^2 = 0 and c_1(f) = 2.
    """
    d = fan.d
    out = []
    for a in range(1, d + 1):
        va = fan.ray(a)
        for b in range(a + 1, d + 1):
            vb = fan.ray(b)
            if va[0] + vb[0] == 0 and va[1] + vb[1] == 0:
                rep = [0] * d
                for k in range(1, d + 1):
                    w = det(va, fan.ray(k))
                    if w > 0:
                        rep[k - 1] = w
                out.append(((a, b), tuple(rep)))
    return out


def elimination_pair(fan: Fan):
    """Coordinate pair used for the canonical representative modulo L_1, L_2.

    Picks the pair (i, j), i < j, with the largest indices (ordered by (j, i)
    descending) on which the relation matrix is invertible, and returns
    (i, j, Minv) with Minv the rational inverse of [[L1_i, L2_i], [L1_j, L2_j]].
    """
    d = fan.d
    l1, l2 = linear_relations(fan)
    for i, j in sorted(combinations(range(1, d + 1), 2), key=lambda p: (p[1], p[0]), reverse=True):
        m11, m12 = l1[i - 1], l2[i - 1]
        m21, m22 = l1[j - 1], l2[j - 1]
        dd = m11 * m22 - m12 * m21
        if dd != 0:
            inv = (
                (Fraction(m22, dd), Fraction(-m12, dd)),
                (Fraction(-m21, dd), Fraction(m11, dd)),
            )
            return i, j, inv
    raise SingularPairing("no invertible coordinate pair for the relations")


def reduce_class(fan: Fan, x: Sequence) -> Vector:
    """Canonical representative of x modulo L_1, L_2 (zeroes the chosen pair).

    The entries may be rationals (int or Fraction; an integral result entry
    comes back as an int) or QPoly coefficients, which reduce the same way.
    """
    i, j, inv = elimination_pair(fan)
    l1, l2 = linear_relations(fan)
    xi, xj = x[i - 1], x[j - 1]
    lam1 = inv[0][0] * xi + inv[0][1] * xj
    lam2 = inv[1][0] * xi + inv[1][1] * xj
    out = [v - lam1 * a - lam2 * b for v, a, b in zip(x, l1, l2)]
    assert not out[i - 1] and not out[j - 1]
    return tuple(
        v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v for v in out
    )


def classes_equal(fan: Fan, x: Sequence, y: Sequence) -> bool:
    """Equality in H^2, i.e. modulo the linear-equivalence relations."""
    return reduce_class(fan, x) == reduce_class(fan, y)
