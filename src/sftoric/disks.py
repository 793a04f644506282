"""Maslov index two disk classes and their open Gromov-Witten invariants.

A disk class is a basic class beta_i plus a sphere part alpha = sum s_k D_k.
The invariant n_b depends only on i and on the class of alpha in H_2(X), and
it is 1 exactly for the classes that ``enumerate_admissible`` lists: alpha = 0
(basic classes always count one), or D_i^2 = -2 and alpha is supported on the
(-2)-chain through D_i (the rays strictly between two consecutive corners,
as ``Fan.minus_two_chains`` gives them) as a contiguous interval of that tuple
containing i, with the multiplicity sequence admissible centered at i:

* every value is a positive integer,
* s_j <= s_{j+1} <= s_j + 1 left of the center,
* s_j >= s_{j+1} >= s_j - 1 from the center on,
* both endpoint values are at most one.

Padded with zeros to the whole n-ray chain, centered at position p, such a
sequence is one choice of rises L in [0, p] and falls R in [p, n), as many of
each and at least one: s_j = #{l in L : l <= j} - #{r in R : r < j}.  So
there are C(n+1, p+1) - 1 of them, and with the basic class the ray a+j
between consecutive corners a < b carries C(b-a, j) counted classes, the
terms of the edge product q^{C_a} prod_j (1 + m_j x) that
``verifier.edge_factorisation`` checks on W.

``open_gw`` decides n_b by looking up (i, class of alpha) in that list, so
two vectors alpha of one class get one count; it, ``maslov_index`` and
``potential.z_beta`` refuse a malformed class alike.  Every other class of
Maslov index two has n_b = 0.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import combinations

from .errors import ParameterMismatch, WrongMaslov
from .fan import Fan, _memoised
from .homology import chern_number, reduce_class
from .laurent import _exact


class DiskClass(namedtuple("DiskClass", "i alpha")):
    """beta_i + sum_k alpha[k-1] D_k: a 1-based basic index i and an int tuple alpha."""

    __slots__ = ()

    @staticmethod
    def basic(fan: Fan, i: int) -> "DiskClass":
        return DiskClass(i, (0,) * fan.d)

    def total_multiplicity(self) -> int:
        return sum(self.alpha)


def maslov_index(fan: Fan, b: DiskClass) -> int:
    """mu(beta_i + alpha) = 2 + 2 c_1(alpha); ParameterMismatch for a malformed class."""
    return 2 + 2 * chern_number(fan, _checked_class(fan, b).alpha)


def _chain_parts(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """Every admissible tuple on an n-ray chain centered at position p, by rises and falls."""
    for size in range(1, min(p + 1, n - p) + 1):
        for rises in combinations(range(p + 1), size):
            for falls in combinations(range(p, n), size):
                yield tuple(
                    sum(r <= j for r in rises) - sum(f < j for f in falls) for j in range(n)
                )


def _checked_class(fan: Fan, b: DiskClass) -> DiskClass:
    """b with exact integer entries, else ParameterMismatch, as for b.i off 1..d."""
    (i,) = _exact((b.i,), "basic index", integral=True)
    b = DiskClass(i, _exact(b.alpha, "sphere part", integral=True))
    if not 1 <= b.i <= fan.d:
        raise ParameterMismatch(f"basic index {b.i} is not a ray index 1..{fan.d}")
    return b


def open_gw(fan: Fan, b: DiskClass) -> int:
    """n_b for a Maslov index two class, read off ``enumerate_admissible``.

    One iff some listed class has basic index b.i and a sphere part of the
    class of b.alpha in H_2(X), so the count does not depend on the vector
    representing alpha.  Raises ParameterMismatch unless b.i and alpha are
    exact integers, 1 <= b.i <= d and alpha has one entry per ray,
    WrongMaslov off Maslov index two and NotSemiFano off the semi-Fano range.
    """
    b = _checked_class(fan, b)
    if maslov_index(fan, b) != 2:
        raise WrongMaslov(f"class has Maslov index {maslov_index(fan, b)}, not 2")
    target = reduce_class(fan, b.alpha)
    same_i = (a.alpha for a in enumerate_admissible(fan) if a.i == b.i)
    return 1 if any(reduce_class(fan, alpha) == target for alpha in same_i) else 0


def enumerate_admissible(fan: Fan) -> list[DiskClass]:
    """All Maslov index two classes with n_b = 1, in a deterministic order.

    Sorted by basic index, then total sphere multiplicity, then the
    multiplicity vector; found once per fan.  Raises NotSemiFano off the semi-Fano range.
    """
    return list(_admissible(fan))


@_memoised
def _admissible(fan: Fan) -> tuple[DiskClass, ...]:
    fan.require_semi_fano("the disk count formula")
    out = [DiskClass.basic(fan, i) for i in range(1, fan.d + 1)]
    for chain in fan.minus_two_chains():
        for p, i in enumerate(chain):
            for part in _chain_parts(len(chain), p):
                alpha = [0] * fan.d
                for k, v in zip(chain, part):
                    alpha[k - 1] = v
                out.append(DiskClass(i, tuple(alpha)))
    return tuple(sorted(out, key=lambda b: (b.i, b.total_multiplicity(), b.alpha)))
