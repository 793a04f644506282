"""Complete smooth fans in Z^2 and their combinatorics.

A fan is stored as its cyclically ordered list of primitive ray generators
v_1, ..., v_d (strictly counterclockwise, adjacent determinants +1).  Ray and
divisor indices are 1-based throughout, matching the labels D_1..D_d, and all
index arithmetic is cyclic.  A (-2)-chain is the tuple of rays strictly
between two consecutive corners (rays with D^2 != -2); on a semi-Fano fan it
is the interior of an edge of the Newton polygon Delta = conv(rays).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import wraps
from math import gcd

from .errors import (
    NotComplete,
    NotCounterclockwise,
    NotPrimitive,
    NotSemiFano,
    NotSmooth,
)
from .laurent import _exact

Vec = tuple[int, int]


def det(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _memoised(build):
    """Run build(obj) once per Fan or KahlerSpec, kept in obj._memo; a raise stores nothing."""
    @wraps(build)
    def once(obj):
        if build not in obj._memo:
            obj._memo[build] = build(obj)
        return obj._memo[build]
    return once


class Fan:
    """A complete smooth 2D fan; immutable after validation."""

    # _memo: what _memoised built from the rays (canonical form, chains, disk and curve classes)
    __slots__ = ("rays", "_memo")

    def __init__(self, rays: Sequence[Sequence[int]]):
        if not isinstance(rays, Sequence):
            raise NotPrimitive(f"rays {rays!r} are not a sequence")
        rays = tuple(_exact(v, "ray", NotPrimitive, integral=True) for v in rays)
        for v in rays:
            if len(v) != 2 or v == (0, 0) or gcd(abs(v[0]), abs(v[1])) != 1:
                raise NotPrimitive(f"ray {v} is not a primitive vector of Z^2")
        if len(rays) < 3:
            raise NotComplete("a complete fan needs at least 3 rays")
        d = len(rays)
        for k in range(d):
            a, b = rays[k], rays[(k + 1) % d]
            dk = det(a, b)
            if dk <= 0:
                raise NotCounterclockwise(
                    f"rays {a}, {b} are not in strict counterclockwise order"
                )
            if dk != 1:
                raise NotSmooth(f"cone spanned by {a}, {b} has index {dk}")
        # each step turns by an angle in (0, pi), so the rays wind w >= 1
        # times around the origin, and 3d + sum_k D_k^2 = 12 w; for w = 1
        # this is Noether's formula K^2 + e = 12, with K^2 = sum_k D_k^2 + 2d
        # and e = d.  The fan is complete and simple iff w = 1.
        winding = (3 * d - sum(det(rays[k - 1], rays[(k + 1) % d]) for k in range(d))) // 12
        if winding != 1:
            raise NotComplete(f"ray angles wrap {winding} times, expected once")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "_memo", {})

    # Fan is conceptually frozen; block accidental mutation.
    def __setattr__(self, name, value):
        raise AttributeError("Fan is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return (Fan, (self.rays,))

    @property
    def d(self) -> int:
        return len(self.rays)

    def ray(self, i: int) -> Vec:
        """Ray generator v_i, 1-based and cyclic in i; i is an exact integer."""
        if type(i) is not int:  # an int, the hot case, skips the check
            (i,) = _exact((i,), "ray index", integral=True)
        return self.rays[(i - 1) % self.d]

    def self_intersection(self, i: int) -> int:
        """D_i^2 = -det(v_{i-1}, v_{i+1}); i is an exact integer, cyclic."""
        if type(i) is not int:
            (i,) = _exact((i,), "ray index", integral=True)
        return -det(self.ray(i - 1), self.ray(i + 1))

    def self_intersections(self) -> tuple[int, ...]:
        return tuple(self.self_intersection(i) for i in range(1, self.d + 1))

    def is_semi_fano(self) -> bool:
        return all(s >= -2 for s in self.self_intersections())

    def require_semi_fano(self, what: str) -> None:
        """Raise NotSemiFano("<what> requires a semi-Fano surface") off that range."""
        if not self.is_semi_fano():
            raise NotSemiFano(f"{what} requires a semi-Fano surface")

    def is_fano(self) -> bool:
        # -K is ample iff it is positive on every D_i, i.e. all D_i^2 >= -1
        return all(s >= -1 for s in self.self_intersections())

    @_memoised
    def _corner_pairs(self) -> tuple[tuple[int, int], ...]:
        """Each corner a (a ray with D^2 != -2) with the next one b, a < b <= a + d."""
        # a corner exists, as all D_i^2 = -2 gives v_i = v_0 + i(v_1 - v_0), never closing
        corners = [i for i, s in enumerate(self.self_intersections(), 1) if s != -2]
        return tuple(zip(corners, corners[1:] + [corners[0] + self.d]))

    @_memoised
    def minus_two_chains(self) -> tuple[tuple[int, ...], ...]:
        """The rays strictly between consecutive corners, sorted by first index.

        Each tuple lists its rays in cyclic order along the chain.  Found once
        per fan, like ``canonical_form``.
        """
        d = self.d
        runs = (tuple((r - 1) % d + 1 for r in range(a + 1, b)) for a, b in self._corner_pairs())
        chains = tuple(sorted(run for run in runs if run))
        for chain in chains:  # Prop. on (-2)-chains: midpoint relation
            for j in range(1, len(chain) - 1):
                prev, mid, nxt = (self.ray(chain[j + t]) for t in (-1, 0, 1))
                assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (2 * mid[0], 2 * mid[1])
        return chains

    def blowup(self, i: int) -> "Fan":
        """Star subdivision of the cone (v_i, v_{i+1}); i is an exact integer, 1-based, cyclic."""
        (i,) = _exact((i,), "blowup index", integral=True)
        d = self.d
        k = (i - 1) % d
        a, b = self.rays[k], self.rays[(k + 1) % d]
        return Fan(self.rays[: k + 1] + ((a[0] + b[0], a[1] + b[1]),) + self.rays[k + 1 :])

    @_memoised
    def canonical_form(self) -> tuple[Vec, ...]:
        """Normal form under lattice automorphisms, rotation and reflection.

        Rotate/reflect the ray list, map the first two rays to (1,0), (0,1)
        by the unique unimodular matrix, and keep the lexicographically
        smallest encoding.
        """
        best: tuple[Vec, ...] | None = None
        reflected = tuple((v[1], v[0]) for v in reversed(self.rays))
        for rays in (self.rays, reflected):
            d = len(rays)
            for r in range(d):
                rot = rays[r:] + rays[:r]
                (a, b), (c, e) = rot[0], rot[1]
                # inverse of the column matrix [v_0 | v_1], determinant 1
                mapped = tuple((e * x - c * y, -b * x + a * y) for x, y in rot)
                if best is None or mapped < best:
                    best = mapped
        return best

    def __eq__(self, other) -> bool:
        return isinstance(other, Fan) and self.rays == other.rays

    def __hash__(self) -> int:
        return hash(self.rays)

    def __repr__(self) -> str:
        return f"Fan({list(self.rays)})"


def fans_isomorphic(f1: Fan, f2: Fan) -> bool:
    """Equality up to GL(2,Z), cyclic rotation and orientation reversal."""
    return f1.canonical_form() == f2.canonical_form()


P2_RAYS = ((1, 0), (0, 1), (-1, -1))
F0_RAYS = ((1, 0), (0, 1), (-1, 0), (0, -1))
F2_RAYS = ((1, 0), (0, 1), (-1, 2), (0, -1))


def classify_semi_fano(max_rays: int = 9) -> list[Fan]:
    """All isomorphism classes of complete smooth semi-Fano fans with <= max_rays rays.

    One work-list, seeded with P^2, F_0 and F_2 (the only semi-Fano surfaces
    without a (-1)-ray): a candidate past max_rays or with some D^2 <= -3 is
    skipped (blowing down a (-1)-ray keeps a surface semi-Fano, so this loses
    nothing), and the first of each canonical form is kept as Fan(form) with
    its d blowups pushed.  Output is sorted by ray count, then by encoding.
    """
    (max_rays,) = _exact((max_rays,), "max_rays", integral=True)
    if max_rays < 3:
        raise NotComplete("max_rays must be at least 3")
    classes: dict[tuple, Fan] = {}
    todo = [Fan(P2_RAYS), Fan(F0_RAYS), Fan(F2_RAYS)]
    while todo:
        fan = todo.pop()
        if fan.d > max_rays or not fan.is_semi_fano():
            continue
        key = fan.canonical_form()
        if key not in classes:
            classes[key] = rep = Fan(key)
            todo.extend(rep.blowup(i) for i in range(1, rep.d + 1))
    return sorted(classes.values(), key=lambda f: (f.d, f.canonical_form()))
