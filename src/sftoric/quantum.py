"""Small quantum cohomology of a semi-Fano toric surface other than P^2.

The quantum Stanley-Reisner relations are generated by the products
D_i * D_j over primitive pairs (non-adjacent rays), each computed from the
rational curve classes of GW one with c_1 = 2 and a point constraint, and
with c_1 = 1 and no constraint.  Both families follow one product rule.

A core is a curve that meets two toric divisors D_a, D_b once each and no
other toric divisor apart from itself: a fiber f of a ruling (c_1 = 2, a and
b an opposite-ray pair) or a (-1)-divisor D_r (c_1 = 1, a = r - 1 and
b = r + 1).  After blowing up the point a fiber is a (-1)-curve too, and the
count is the local invariant of the core with the (-2)-chains it meets at
D_a and D_b.  It is one exactly for the classes core + alpha + alpha' where
beta_a + alpha and beta_b + alpha' are counted disks of
``enumerate_admissible`` (alpha = 0 included), and zero for every other
class with that c_1.

With these counts the product of a primitive pair is

    D_i * D_j = sum_{c1(a)=2} (D_i.a)(D_j.a) GW(a; pt) q^a
              + sum_m ( sum_{c1(a)=1} (D_i.a)(D_j.a)(D^m.a) GW(a) q^a ) D_m

for dual bases {D^m}, {D_m} of H^2.  On a surface a curve class is its own
Poincare dual, sum_m (D^m.a) D_m = [a], so the H^2 part is
sum_{c1(a)=1} (D_i.a)(D_j.a) GW(a) q^a [a] and no dual basis is needed.  Each
[a] is taken as the canonical representative modulo linear equivalence.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .disks import enumerate_admissible
from .errors import IsP2, NotPrimitivePair, ParameterMismatch, WrongChern
from .fan import Fan, _memoised
from .homology import chern_number, fiber_classes, profile, reduce_class, unit_vector
from .kahler import KahlerSpec
from .laurent import QPoly, _exact, _shared


class QHElement(namedtuple("QHElement", "scalar divisor")):
    """scalar * 1 + sum_k divisor[k-1] * D_k with QPoly coefficients.

    The divisor tuple is stored as the canonical representative modulo the
    linear-equivalence classes (its last two coordinates are zero).
    """

    __slots__ = ()


def primitive_pairs(fan: Fan) -> list[tuple[int, int]]:
    """All unordered non-adjacent ray pairs; P^2 has none and is excluded."""
    d = fan.d
    if d == 3:
        raise IsP2("P^2 has no two-element primitive collections")
    # i < j are adjacent when j - i is 1 or d - 1
    return [(i, j) for i in range(1, d + 1) for j in range(i + 2, d + 1) if j - i != d - 1]


def _cores(fan: Fan):
    """(c_1, core, a, b) for each core of the module docstring, meeting D_a and D_b once.

    Each ruling fiber f of ``fiber_classes`` (c_1 = 2, a and b opposite),
    then each (-1)-divisor D_r (c_1 = 1, a = r - 1 and b = r + 1, cyclic).
    """
    for (a, b), f in fiber_classes(fan):
        yield 2, f, a, b
    d = fan.d
    for r in range(1, d + 1):
        if fan.self_intersection(r) == -1:
            yield 1, unit_vector(d, r), (r - 2) % d + 1, r % d + 1


@_memoised
def _classes(fan: Fan) -> dict[int, tuple]:
    """The classes with GW one, keyed by c_1 (2 and 1); found once per fan.

    The product rule of the module docstring: core + alpha + alpha' for each
    core of ``_cores`` in turn, alpha over the disks at a (outer loop) and
    alpha' over those at b, in ``enumerate_admissible`` order.  Each value
    holds (rep, profile, canonical rep) per class, sorted by rep; the first
    representative enumerated stands for its class.  Every rep has the c_1
    of its key and entries in 0..d + 2.  Raises NotSemiFano off the
    semi-Fano range.
    """
    fan.require_semi_fano("the curve class enumeration")
    disks = enumerate_admissible(fan)
    seen: dict[int, dict[tuple, tuple[int, ...]]] = {2: {}, 1: {}}
    for c1, core, a, b in _cores(fan):
        at_b = [disk.alpha for disk in disks if disk.i == b]
        for alpha in (disk.alpha for disk in disks if disk.i == a):
            for alpha2 in at_b:
                rep = tuple(m + x + y for m, x, y in zip(core, alpha, alpha2))
                seen[c1].setdefault(reduce_class(fan, rep), rep)
    return {
        c1: tuple(sorted((r, profile(fan, r), canon) for canon, r in classes.items()))
        for c1, classes in seen.items()
    }


def c1_two_classes(fan: Fan) -> list[tuple[int, ...]]:
    """Effective representatives of every c_1 = 2 class with point-GW one, sorted."""
    return [rep for rep, _, _ in _classes(fan)[2]]


def c1_one_classes(fan: Fan) -> list[tuple[int, ...]]:
    """Effective representatives of every c_1 = 1 class with unconstrained GW one, sorted."""
    return [rep for rep, _, _ in _classes(fan)[1]]


def _sphere_count(fan: Fan, alpha: Sequence[int], c1: int) -> int:
    """1 when alpha reduces to the canonical rep of a class in ``_classes(fan)[c1]``, else 0.

    Raises ParameterMismatch unless alpha is exact and WrongChern unless c_1(alpha) = c1.
    """
    alpha = _exact(alpha, "curve class", integral=True)
    if chern_number(fan, alpha) != c1:
        raise WrongChern(f"c_1(alpha) = {chern_number(fan, alpha)}, expected {c1}")
    target = reduce_class(fan, alpha)
    return 1 if any(canon == target for _, _, canon in _classes(fan)[c1]) else 0


def gw_c1_2_point(fan: Fan, alpha: Sequence[int]) -> int:
    """One-point genus zero GW invariant of a class with c_1 = 2 (0 or 1)."""
    return _sphere_count(fan, alpha, 2)


def gw_c1_1(fan: Fan, alpha: Sequence[int]) -> int:
    """Unconstrained genus zero GW invariant of a class with c_1 = 1 (0 or 1)."""
    return _sphere_count(fan, alpha, 1)


def _check_supported(fan: Fan, spec: KahlerSpec) -> None:
    if fan != spec.fan:
        raise ParameterMismatch(f"{fan} is not the fan of {spec}")


def _product(fan: Fan, k: int, data, i: int, j: int, table: dict) -> QHElement:
    """D_i * D_j from the curve data that ``_relations`` shares between the pairs.

    The H^2 part sums (D_i.a)(D_j.a) q^a [a] over the c_1 = 1 classes; the
    representatives [a] are canonical, so the sum is too.  The product of
    two integral classes is integral: its coefficients are integers.  They
    are stored through ``laurent._shared`` in table, so the products built
    with one table keep each equal coefficient once.
    """
    zero = QPoly.zero(k)
    scalar = zero
    for prof, _, qa in data[2]:
        c = prof[i - 1] * prof[j - 1]
        if c:
            scalar = scalar + qa.scale(c)
    divisor = [zero] * fan.d
    for prof, rep, qa in data[1]:
        c = prof[i - 1] * prof[j - 1]
        if not c:
            continue
        for coord, m in enumerate(rep):
            if m:
                divisor[coord] = divisor[coord] + qa.scale(c * m)
    return QHElement(_shared(scalar, table), tuple(_shared(c, table) for c in divisor))


@_memoised
def _relations(spec: KahlerSpec) -> tuple:
    """((i, j), D_i * D_j) per primitive pair, in ``primitive_pairs`` order; built once per spec.

    The pairs share the curve data (profile, canonical rep, q^area) per class,
    keyed by c_1 like ``_classes``, and one ``_shared`` table.
    """
    fan, k = spec.fan, spec.k
    data = {
        c1: [(p, canon, QPoly.monomial(k, spec.curve_area(rep))) for rep, p, canon in rows]
        for c1, rows in _classes(fan).items()
    }
    table: dict = {}
    return tuple((pr, _product(fan, k, data, *pr, table)) for pr in primitive_pairs(fan))


def quantum_product(fan: Fan, spec: KahlerSpec, i: int, j: int) -> QHElement:
    """D_i * D_j for a primitive pair, as an element of H^0 + H^2.

    D_i * D_j = sum_{c1(a)=2} (D_i.a)(D_j.a) GW(a; pt) q^a
              + sum_{c1(a)=1} (D_i.a)(D_j.a) GW(a) q^a [a],
    where [a] = sum_m (D^m.a) D_m for any dual bases {D^m}, {D_m} of H^2 by
    Poincare duality; [a] is reduced modulo linear equivalence.  Checks the
    pair against ``primitive_pairs`` (IsP2 on P^2) and reads its entry of
    the relations that ``quantum_sr_relations`` returns.  Raises
    ParameterMismatch when fan is not spec.fan or i, j are not exact integers.
    """
    _check_supported(fan, spec)
    i, j = _exact((i, j), "ray index pair", integral=True)
    d = fan.d
    i0, j0 = (i - 1) % d + 1, (j - 1) % d + 1
    pairs = primitive_pairs(fan)
    pr = (min(i0, j0), max(i0, j0))
    if pr not in pairs:
        raise NotPrimitivePair(f"rays {i0}, {j0} span a cone")
    return _relations(spec)[pairs.index(pr)][1]


def quantum_sr_relations(fan: Fan, spec: KahlerSpec) -> tuple:
    """The quantum expansion ((i, j), D_i * D_j) of every primitive pair, as a tuple.

    Built once per spec and shared by every caller: later calls return the
    same tuple.  Raises IsP2 on P^2, then ParameterMismatch when fan is not
    spec.fan, and NotSemiFano off the semi-Fano range.
    """
    primitive_pairs(fan)  # IsP2 on P^2
    _check_supported(fan, spec)
    return _relations(spec)
