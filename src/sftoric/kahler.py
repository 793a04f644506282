"""Moment polytopes with exact symbolic Kahler parameters.

The polytope of a surface is cut out by the facet inequalities
<v_i, x> >= c_i where each constant is an integer linear form in the Kahler
parameters t_1..t_k, stored through its negation: c_i = -(C_1 t_1 + ... +
C_k t_k).  With q_l = exp(-t_l) this makes exp(c_i) the q-monomial with
exponent vector (C_1, ..., C_k); the C_l may be negative (several bundled
surfaces need mixed signs).

Vertices, edge lattice lengths and curve areas are all exact integer forms in
the t_l.  Validity of the Kahler data is certified at one positive integer
sample point, found by a grid search, where every edge has strictly
positive length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import DegenerateEdge, InvalidKahlerData, ParameterMismatch
from .fan import Fan


@dataclass(frozen=True)
class TForm:
    """Integer linear form sum_l coeffs[l] * t_l."""

    coeffs: tuple[int, ...]

    def __add__(self, other: "TForm") -> "TForm":
        if len(self.coeffs) != len(other.coeffs):
            raise ParameterMismatch("t-forms over different parameter counts")
        return TForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TForm") -> "TForm":
        if len(self.coeffs) != len(other.coeffs):
            raise ParameterMismatch("t-forms over different parameter counts")
        return TForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TForm":
        return TForm(tuple(-a for a in self.coeffs))

    def scale(self, m: int) -> "TForm":
        return TForm(tuple(m * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def value_at(self, point: Sequence[int]):
        return sum(a * t for a, t in zip(self.coeffs, point))

    def value_at_one(self) -> int:
        """Value at t = (1,...,1), i.e. the total coefficient sum."""
        return sum(self.coeffs)

    @staticmethod
    def zero(k: int) -> "TForm":
        return TForm((0,) * k)


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
        object.__setattr__(self, "_vertices", None)
        object.__setattr__(self, "_edges", None)
        edges = tuple(self._edge_lengths())
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "sample_point", self._find_sample(edges))

    def _find_sample(self, edges: Sequence[TForm]) -> tuple[int, ...]:
        if self.k == 0:
            return ()
        for bound in range(1, 6):
            for point in product(range(1, bound + 1), repeat=self.k):
                if max(point) != bound:
                    continue  # already tried under a smaller bound
                if all(e.value_at(point) > 0 for e in edges):
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

    def c(self, i: int) -> TForm:
        """The constant c_i as a t-form (note the stored sign convention)."""
        return TForm(tuple(-a for a in self.rows[(i - 1) % self.d]))

    def vertex(self, i: int) -> tuple[TForm, TForm]:
        """Vertex on facets i and i+1: solves <v_i,x> = c_i, <v_{i+1},x> = c_{i+1}.

        The facet normals form a basis with determinant one, so the solution
        is an integer form (Cramer with the adjugate).
        """
        if self._vertices is None:
            self._compute_vertices()
        return self._vertices[(i - 1) % self.d]

    def _compute_vertices(self):
        verts = []
        for i in range(1, self.d + 1):
            u, w = self.fan.ray(i), self.fan.ray(i + 1)
            ci, cj = self.c(i), self.c(i + 1)
            x1 = ci.scale(w[1]) - cj.scale(u[1])
            x2 = cj.scale(u[0]) - ci.scale(w[0])
            verts.append((x1, x2))
        object.__setattr__(self, "_vertices", tuple(verts))

    def edge_length(self, i: int) -> TForm:
        """Lattice length of the facet T_i normal to v_i."""
        return self._edges[(i - 1) % self.d]

    def _edge_lengths(self) -> list[TForm]:
        out = []
        for i in range(1, self.d + 1):
            a = self.vertex(i - 1)
            b = self.vertex(i)
            diff = (b[0] - a[0], b[1] - a[1])
            v = self.fan.ray(i)
            direction = (v[1], -v[0])  # counterclockwise along the boundary
            c = 0 if direction[0] != 0 else 1
            coeffs = []
            for l in range(self.k):
                num = diff[c].coeffs[l]
                q, r = divmod(num, direction[c])
                assert r == 0, "edge direction does not divide the vertex difference"
                coeffs.append(q)
            length = TForm(tuple(coeffs))
            # the difference must be proportional to the primitive direction
            assert (diff[1 - c] - length.scale(direction[1 - c])).is_zero()
            if length.is_zero():
                raise DegenerateEdge(f"edge {i} has identically zero length")
            out.append(length)
        return out

    def curve_area(self, alpha: Iterable[int]) -> TForm:
        """Symplectic area of the curve class sum_k alpha_k D_k.

        The area of the divisor D_k as a curve is the lattice length of its
        facet; the result is linear in alpha and invariant under adding the
        linear-equivalence relations (the polygon closes up).
        """
        total = TForm.zero(self.k)
        for k0, m in enumerate(alpha, start=1):
            if m:
                total = total + self.edge_length(k0).scale(m)
        return total

    def disk_coefficient(self, i: int) -> tuple[int, ...]:
        """q-exponent vector of the basic disk class beta_i: exp(c_i) = prod q_l^{C_l}."""
        return self.rows[(i - 1) % self.d]

    def __repr__(self) -> str:
        label = self.name or f"{self.d} rays"
        return f"KahlerSpec({label}, k={self.k})"
