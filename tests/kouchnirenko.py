"""dim Jac(W) by Kouchnirenko's theorem at one q-sample, used only by the tests.

The package proves the dimension on the whole open Kahler cone from the
closed-form factorisation of every edge polynomial of the symbolic W; this
per-sample test (end coefficients and a rational Euclid on each edge) is the
earlier route to it, kept as the reference.
"""

from __future__ import annotations

from fractions import Fraction

from sftoric.fan import Fan, det
from sftoric.laurent import LaurentPoly, QPoly


def _value(qp: QPoly) -> Fraction:
    return qp.specialize(())


def _squarefree(f: list[Fraction]) -> bool:
    """gcd(f, f') = 1 for f = sum_t f[t] x^t with f[-1] != 0 (Euclid over Q)."""
    a, b = f, [t * c for t, c in enumerate(f)][1:]
    while b:
        a, b = b, list(a)
        while len(b) >= len(a):
            lead = b[-1] / a[-1]
            shift = len(b) - len(a)
            for i, c in enumerate(a):
                b[shift + i] -= lead * c
            while b and not b[-1]:
                b.pop()
    return len(a) == 1


def newton_dimension(fan: Fan, w: LaurentPoly) -> int | None:
    """dim Jac(W) = 2 area(Delta) by Kouchnirenko's theorem, or None.

    W must be supported on the lattice points of Delta = conv(rays), so that
    Delta is its Newton polygon with the origin inside.  The edges of Delta
    run between consecutive rays with D^2 != -2 (a (-2)-ray is the midpoint
    of its neighbours), and the edge polynomial sum_t c_t x^t takes c_t from
    the t-th ray along the edge.  None when an end coefficient vanishes or
    an edge polynomial has a repeated root (W is degenerate there).
    """
    fan.require_semi_fano("the Newton polygon argument")
    terms = w.terms
    if not set(terms) <= {(0, 0), *fan.rays}:
        return None
    zero = QPoly.zero(w.k)
    corners = [i for i in range(1, fan.d + 1) if fan.self_intersection(i) != -2]
    for a, b in zip(corners, corners[1:] + [corners[0] + fan.d]):
        f = [_value(terms.get(fan.ray(i), zero)) for i in range(a, b + 1)]
        if not (f[0] and f[-1] and _squarefree(f)):
            return None
    return sum(det(fan.ray(i), fan.ray(i + 1)) for i in range(1, fan.d + 1))
