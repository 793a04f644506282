"""Kahler classes of toric surfaces with exact symbolic parameters.

The polytope of a surface is cut out by the facet inequalities
<v_i, x> >= c_i where each constant is an integer linear form in the Kahler
parameters t_1..t_k, stored through its negation: c_i = -(C_1 t_1 + ... +
C_k t_k).  With q_l = exp(-t_l) this makes exp(c_i) the q-monomial with
exponent vector (C_1, ..., C_k); the C_l may be negative (several bundled
surfaces need mixed signs).

Every linear form here (file rows, edge lattice lengths and curve areas) is
a plain tuple of k ints, its coefficients in the t_l, where k is the width
of the rows.  An area form is directly the q-exponent vector of exp(-area).
The rows give the Kahler class omega = sum_j row_j D_j, and the area of a
curve class alpha is omega . alpha through the intersection form; for
alpha = D_i this is the lattice length of facet i.  Validity of the Kahler
data is certified at one positive integer sample point, found by a grid
search, where every edge has strictly positive length.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

from .errors import DegenerateEdge, InvalidKahlerData
from .fan import Fan
from .homology import _check_length, gram_matrix
from .laurent import _exact


def _combination(coeffs: Sequence[int], forms: Sequence[Sequence[int]], k: int) -> tuple[int, ...]:
    """The form sum_j coeffs[j] forms[j], each form a tuple of k ints."""
    total = (0,) * k
    for c, f in zip(coeffs, forms):
        if c:
            total = tuple(a + c * b for a, b in zip(total, f))
    return total


class KahlerSpec:
    """A fan with one row of polytope constants per ray, all k wide; immutable after validation.

    Validity is certified at an integer sample point inside the Kahler cone:
    t = (1,...,1) when that works, otherwise the first point (grid search over
    small positive integer vectors) where every edge length is positive.  The
    bundled X7 needs this: its edge 2 has length t2+t3-t1-t5, which vanishes
    on the all-ones diagonal.
    """

    # _memo: what fan._memoised built from the spec (the superpotential)
    __slots__ = ("fan", "k", "rows", "name", "sample_point", "_edges", "_memo")

    def __init__(self, fan: Fan, rows: Sequence[Sequence[int]], name: str = ""):
        if not isinstance(rows, Sequence):
            raise InvalidKahlerData(f"rows {rows!r} are not a sequence")
        rows = tuple(_exact(row, "row", InvalidKahlerData, integral=True) for row in rows)
        if len(rows) != fan.d:
            raise InvalidKahlerData(
                f"{len(rows)} constant rows for a fan with {fan.d} rays"
            )
        k = len(rows[0])
        for i, row in enumerate(rows, start=1):
            if len(row) != k:
                raise InvalidKahlerData(f"row {i} {row} does not have {k} entries like row 1")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "name", name)
        # L_i = omega . D_i = sum_j (D_i . D_j) row_j
        edges = []
        for i, g in enumerate(gram_matrix(fan), start=1):
            length = _combination(g, rows, k)
            if not any(length):
                raise DegenerateEdge(f"edge {i} has identically zero length")
            edges.append(length)
        object.__setattr__(self, "_edges", tuple(edges))
        object.__setattr__(self, "sample_point", self._find_sample())
        object.__setattr__(self, "_memo", {})

    def _find_sample(self) -> tuple[int, ...]:
        for bound in range(1, 6):
            for point in product(range(1, bound + 1), repeat=self.k):
                if max(point) != bound:
                    continue  # already tried under a smaller bound
                if all(sum(a * t for a, t in zip(e, point)) > 0 for e in self._edges):
                    return point
        raise InvalidKahlerData(
            "no small positive integer point makes every edge positive; "
            "the constants do not describe a Kahler class "
            "(entries up to 5 were tried)"
        )

    def __setattr__(self, name, value):
        raise AttributeError("KahlerSpec is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which re-validates
        return (KahlerSpec, (self.fan, self.rows, self.name))

    @property
    def d(self) -> int:
        return self.fan.d

    def edge_length(self, i: int) -> tuple[int, ...]:
        """Lattice length of the facet T_i normal to v_i; i is an exact integer, cyclic."""
        (i,) = _exact((i,), "ray index", integral=True)
        return self._edges[(i - 1) % self.d]

    def curve_area(self, alpha: Sequence[int]) -> tuple[int, ...]:
        """Symplectic area of the curve class sum_k alpha_k D_k.

        The area of the divisor D_k as a curve is the lattice length of its
        facet; the result is linear in alpha and invariant under adding the
        linear-equivalence relations (the polygon closes up).  Raises
        ParameterMismatch unless alpha has one exact integer per ray.
        """
        _check_length(self.fan, alpha)
        alpha = _exact(alpha, "curve class", integral=True)
        return _combination(alpha, self._edges, self.k)

    def disk_coefficient(self, i: int) -> tuple[int, ...]:
        """q-exponent vector of the basic class beta_i, exp(c_i) = prod q_l^{C_l}; i cyclic."""
        (i,) = _exact((i,), "ray index", integral=True)
        return self.rows[(i - 1) % self.d]

    def __repr__(self) -> str:
        label = self.name or f"{self.d} rays"
        return f"KahlerSpec({label}, k={self.k})"
