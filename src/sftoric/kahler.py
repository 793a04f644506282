"""Moment polytopes with exact symbolic Kahler parameters.

The polytope of a surface is cut out by the facet inequalities
<v_i, x> >= c_i where each constant is an integer linear form in the Kahler
parameters t_1..t_k, stored through its negation: c_i = -(C_1 t_1 + ... +
C_k t_k).  With q_l = exp(-t_l) this makes exp(c_i) the q-monomial with
exponent vector (C_1, ..., C_k); the C_l may be negative (several bundled
surfaces need mixed signs).

Every linear form here (facet constants, vertex coordinates, edge lattice
lengths and curve areas) is a plain tuple of k ints, its coefficients in the
t_l.  An area form is therefore directly the q-exponent vector of exp(-area).
Validity of the Kahler data is certified at one positive integer sample
point, found by a grid search, where every edge has strictly positive length.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .errors import DegenerateEdge, InvalidKahlerData, ParameterMismatch
from .fan import Fan


def _combine(m: int, x: Sequence[int], n: int, y: Sequence[int]) -> tuple[int, ...]:
    """The form m x + n y."""
    return tuple(m * a + n * b for a, b in zip(x, y))


class KahlerSpec:
    """A fan together with polytope constants; immutable after validation.

    Validity is certified at an integer sample point inside the Kahler cone:
    t = (1,...,1) when that works, otherwise the first point (grid search over
    small positive integer vectors) where every edge length is positive.  The
    bundled X7 needs this: its edge 2 has length t2+t3-t1-t5, which vanishes
    on the all-ones diagonal.
    """

    __slots__ = ("fan", "k", "rows", "name", "sample_point", "_vertices", "_edges")

    def __init__(self, fan: Fan, k: int, rows: Sequence[Sequence[int]], name: str = ""):
        rows = tuple(tuple(int(a) for a in row) for row in rows)
        if len(rows) != fan.d:
            raise InvalidKahlerData(
                f"{len(rows)} constant rows for a fan with {fan.d} rays"
            )
        for row in rows:
            if len(row) != k:
                raise InvalidKahlerData(f"row {row} does not have {k} entries")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "name", name)
        vertices = []
        for i in range(1, fan.d + 1):
            u, w = fan.ray(i), fan.ray(i + 1)
            ci, cj = self.c(i), self.c(i + 1)
            vertices.append((_combine(w[1], ci, -u[1], cj), _combine(u[0], cj, -w[0], ci)))
        object.__setattr__(self, "_vertices", tuple(vertices))
        object.__setattr__(self, "_edges", self._edge_lengths())
        object.__setattr__(self, "sample_point", self._find_sample())

    def _find_sample(self) -> tuple[int, ...]:
        if self.k == 0:
            return ()
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

    @property
    def d(self) -> int:
        return self.fan.d

    def c(self, i: int) -> tuple[int, ...]:
        """The constant c_i as a form in the t_l (note the stored sign convention)."""
        return tuple(-a for a in self.rows[(i - 1) % self.d])

    def vertex(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Vertex on facets i and i+1: solves <v_i,x> = c_i, <v_{i+1},x> = c_{i+1}.

        The facet normals form a basis with determinant one, so the solution
        is an integer form (Cramer with the adjugate).
        """
        return self._vertices[(i - 1) % self.d]

    def edge_length(self, i: int) -> tuple[int, ...]:
        """Lattice length of the facet T_i normal to v_i."""
        return self._edges[(i - 1) % self.d]

    def _edge_lengths(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for i in range(1, self.d + 1):
            a, b = self.vertex(i - 1), self.vertex(i)
            diff = (_combine(1, b[0], -1, a[0]), _combine(1, b[1], -1, a[1]))
            v = self.fan.ray(i)
            direction = (v[1], -v[0])  # counterclockwise along the boundary
            c = 0 if direction[0] != 0 else 1
            coeffs = []
            for num in diff[c]:
                q, r = divmod(num, direction[c])
                assert r == 0, "edge direction does not divide the vertex difference"
                coeffs.append(q)
            length = tuple(coeffs)
            # the difference must be proportional to the primitive direction
            assert diff[1 - c] == tuple(direction[1 - c] * a for a in length)
            if not any(length):
                raise DegenerateEdge(f"edge {i} has identically zero length")
            out.append(length)
        return tuple(out)

    def curve_area(self, alpha: Sequence[int]) -> tuple[int, ...]:
        """Symplectic area of the curve class sum_k alpha_k D_k.

        The area of the divisor D_k as a curve is the lattice length of its
        facet; the result is linear in alpha and invariant under adding the
        linear-equivalence relations (the polygon closes up).  Raises
        ParameterMismatch unless alpha has one entry per ray.
        """
        if len(alpha) != self.d:
            raise ParameterMismatch(f"class vector with {len(alpha)} entries for {self.d} rays")
        total = (0,) * self.k
        for m, e in zip(alpha, self._edges):
            if m:
                total = _combine(1, total, m, e)
        return total

    def disk_coefficient(self, i: int) -> tuple[int, ...]:
        """q-exponent vector of the basic disk class beta_i: exp(c_i) = prod q_l^{C_l}."""
        return self.rows[(i - 1) % self.d]

    def __repr__(self) -> str:
        label = self.name or f"{self.d} rays"
        return f"KahlerSpec({label}, k={self.k})"
