"""Dual bases of H^2 built from the intersection form, used only by the tests.

The package computes quantum products without a dual basis, because a curve
class is its own Poincare dual; the tests build dual bases here to check that
identity and the paper's formulas written with them.
"""

from __future__ import annotations

from typing import Sequence

from sftoric.fan import Fan
from sftoric.homology import intersection, solve_linear, unit_vector


def dual_basis(fan: Fan, subset: Sequence[int]) -> list[tuple] | None:
    """The divisor classes dual to [D_i], i in subset, or None if they are no basis."""
    n = len(subset)
    gram = [[intersection(fan, a, b) for b in subset] for a in subset]
    rank, inv = solve_linear(gram, [unit_vector(n, r) for r in range(1, n + 1)])
    if rank < n:
        return None
    dual = []
    for row in inv:
        vec = [0] * fan.d
        for i, x in zip(subset, row):
            vec[i - 1] += x
        dual.append(tuple(vec))
    return dual
