"""Small quantum cohomology of a semi-Fano toric surface other than P^2.

The quantum Stanley-Reisner relations are generated by the products
D_i * D_j over primitive pairs (non-adjacent rays), each computed from two
families of rational curve classes:

* c_1 = 2 with a point constraint.  Such a class is a fiber class f of a
  ruling (an opposite-ray pair) plus a configuration of (-2)-divisors that the
  fiber meets.  After blowing up the point the fiber becomes a (-1)-curve and
  the count is the local invariant of a chain of rational curves: it is one
  exactly when the multiplicities form an admissible sequence centered where
  the fiber hits the chain (one-chain shape), or, when both rays of the pair
  lie on (-2)-chains, when both sides are unit runs hanging off the fiber
  (two-chain path shape).  Everything else counts zero.

* c_1 = 1 with no constraint.  These are connected chains of toric divisors
  with exactly one (-1)-divisor, all others (-2), and the count is one exactly
  when all multiplicities are one (both arms admissible about the (-1)).

With these counts the product of a primitive pair is

    D_i * D_j = sum_{c1(a)=2} (D_i.a)(D_j.a) GW(a; pt) q^a
              + sum_m ( sum_{c1(a)=1} (D_i.a)(D_j.a)(D^m.a) GW(a) q^a ) D_m

for dual bases {D^m}, {D_m} of H^2.  On a surface a curve class is its own
Poincare dual, sum_m (D^m.a) D_m = [a], so the H^2 part is
sum_{c1(a)=1} (D_i.a)(D_j.a) GW(a) q^a [a] and no dual basis is needed.  Each
[a] is taken as the canonical representative modulo linear equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .disks import enumerate_admissible
from .errors import IsP2, NotPrimitivePair, ParameterMismatch, WrongChern
from .fan import Fan
from .homology import chern_number, count_by_class, fiber_classes, profile, reduce_class
from .kahler import KahlerSpec
from .laurent import QPoly, share_tuples


@dataclass(slots=True)
class QHElement:
    """scalar * 1 + sum_k divisor[k-1] * D_k with QPoly coefficients.

    The divisor vector is stored as the canonical representative modulo the
    linear-equivalence classes (its last two coordinates are zero).
    """

    scalar: QPoly
    divisor: tuple[QPoly, ...]

    def is_zero(self) -> bool:
        return self.scalar.is_zero() and all(c.is_zero() for c in self.divisor)


def primitive_pairs(fan: Fan) -> list[tuple[int, int]]:
    """All unordered non-adjacent ray pairs; P^2 has none and is excluded."""
    d = fan.d
    if d == 3:
        raise IsP2("P^2 has no two-element primitive collections")
    out = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if (j - i) % d in (1, d - 1):
                continue
            out.append((i, j))
    return out


def _runs_from(chain, a: int):
    """Contiguous all-ones runs inside the chain with a at one end."""
    pos = chain.position(a)
    n = len(chain)
    runs = []
    for hi in range(pos, n):
        runs.append(tuple(chain.indices[pos : hi + 1]))
    for lo in range(pos - 1, -1, -1):
        runs.append(tuple(chain.indices[lo : pos + 1]))
    return runs


def c1_two_classes(fan: Fan) -> list[tuple[int, ...]]:
    """Effective representatives of every c_1 = 2 class with point-GW one.

    Read off the fibers f of ``fiber_classes`` and the counted disks of
    ``enumerate_admissible``, in the two shapes of the module docstring.
    """
    fan.require_semi_fano("the curve class enumeration")
    d = fan.d
    disks = enumerate_admissible(fan)
    seen: dict[tuple, tuple[int, ...]] = {}

    def record(rep):
        assert chern_number(fan, rep) == 2
        assert all(m <= d + 2 for m in rep)  # enumeration stays inside the bound
        seen.setdefault(profile(fan, rep), tuple(rep))

    for (a, b), f in fiber_classes(fan):
        # one-chain shape: f + alpha for each disk beta_end + alpha counted at an end
        for disk in disks:
            if disk.i in (a, b):
                record([m + x for m, x in zip(f, disk.alpha)])
        # two-chain shape: unit runs hanging off both ends of the fiber
        # (opposite rays can never lie on one chain: its heads are collinear)
        chain_a, chain_b = fan.chain_through(a), fan.chain_through(b)
        if chain_a and chain_b and chain_a != chain_b:
            for run_a in _runs_from(chain_a, a):
                for run_b in _runs_from(chain_b, b):
                    rep = list(f)
                    for k in run_a + run_b:
                        rep[k - 1] += 1
                    record(rep)
    return sorted(seen.values())


def c1_one_classes(fan: Fan) -> list[tuple[int, ...]]:
    """Effective representatives of every c_1 = 1 class with unconstrained GW one."""
    fan.require_semi_fano("the curve class enumeration")
    d = fan.d
    s = fan.self_intersections()
    seen: dict[tuple, tuple[int, ...]] = {}
    for start in range(d):
        for length in range(1, d):
            idx = [(start + off) % d for off in range(length)]
            vals = [s[k] for k in idx]
            if vals.count(-1) != 1 or any(v not in (-1, -2) for v in vals):
                continue
            rep = [0] * d
            for k in idx:
                rep[k] = 1
            assert chern_number(fan, rep) == 1
            seen.setdefault(profile(fan, rep), tuple(rep))
    return sorted(seen.values())


def _sphere_count(fan: Fan, alpha: Sequence[int], c1: int, classes) -> int:
    """1 when alpha has the class of one of ``classes(fan)``, else 0.

    Raises WrongChern unless c_1(alpha) = c1.
    """
    if chern_number(fan, alpha) != c1:
        raise WrongChern(f"c_1(alpha) = {chern_number(fan, alpha)}, expected {c1}")
    return count_by_class(fan, alpha, classes(fan))


def gw_c1_2_point(fan: Fan, alpha: Sequence[int]) -> int:
    """One-point genus zero GW invariant of a class with c_1 = 2 (0 or 1)."""
    return _sphere_count(fan, alpha, 2, c1_two_classes)


def gw_c1_1(fan: Fan, alpha: Sequence[int]) -> int:
    """Unconstrained genus zero GW invariant of a class with c_1 = 1 (0 or 1)."""
    return _sphere_count(fan, alpha, 1, c1_one_classes)


def _curve_data(fan: Fan, spec: KahlerSpec):
    """What every product D_i * D_j of one surface shares.

    Returns (two, one), a table of (profile, rep, q^area) for the c_1 = 2 and
    for the c_1 = 1 classes, with rep the canonical representative of the
    class.  All products built from it share the exponent tuples of these
    q-monomials.
    """

    def table(reps):
        return [
            (profile(fan, rep), reduce_class(fan, rep),
             QPoly.monomial(spec.k, spec.curve_area(rep)))
            for rep in reps
        ]

    return table(c1_two_classes(fan)), table(c1_one_classes(fan))


def _check_supported(fan: Fan, spec: KahlerSpec) -> None:
    if fan != spec.fan:
        raise ParameterMismatch(f"{fan} is not the fan of {spec}")


def _product(fan: Fan, k: int, data, i: int, j: int) -> QHElement:
    """D_i * D_j from the shared curve data of ``_curve_data``.

    The H^2 part sums (D_i.a)(D_j.a) q^a [a] over the c_1 = 1 classes; the
    representatives [a] are canonical, so the sum is too.
    """
    two, one = data
    zero = QPoly.zero(k)
    scalar = zero
    for prof, _, qa in two:
        c = prof[i - 1] * prof[j - 1]
        if c:
            scalar = scalar + qa.scale(c)
    divisor = [zero] * fan.d
    for prof, rep, qa in one:
        c = prof[i - 1] * prof[j - 1]
        if not c:
            continue
        for coord, m in enumerate(rep):
            if m:
                divisor[coord] = divisor[coord] + qa.scale(c * m)
    # the product of two integral classes is integral
    assert scalar.has_integer_coefficients()
    assert all(c.has_integer_coefficients() for c in divisor)
    return QHElement(scalar, tuple(divisor))


def quantum_product(fan: Fan, spec: KahlerSpec, i: int, j: int) -> QHElement:
    """D_i * D_j for a primitive pair, as an element of H^0 + H^2.

    D_i * D_j = sum_{c1(a)=2} (D_i.a)(D_j.a) GW(a; pt) q^a
              + sum_{c1(a)=1} (D_i.a)(D_j.a) GW(a) q^a [a],
    where [a] = sum_m (D^m.a) D_m for any dual bases {D^m}, {D_m} of H^2 by
    Poincare duality; [a] is reduced modulo linear equivalence.  Checks the
    pair against ``primitive_pairs`` (IsP2 on P^2) and builds it alone from
    ``_curve_data``, as ``quantum_sr_relations`` does.  Raises
    ParameterMismatch when fan is not spec.fan.
    """
    _check_supported(fan, spec)
    d = fan.d
    i0, j0 = (i - 1) % d + 1, (j - 1) % d + 1
    if (min(i0, j0), max(i0, j0)) not in primitive_pairs(fan):
        raise NotPrimitivePair(f"rays {i0}, {j0} span a cone")
    return _product(fan, spec.k, _curve_data(fan, spec), i0, j0)


def quantum_sr_relations(fan: Fan, spec: KahlerSpec):
    """The quantum expansion of D_i D_j for every primitive pair.

    The curve classes, their representatives and q-monomials are built once
    and shared by all pairs.  Equal coefficients are one object, and so are
    equal exponent and coefficient tuples of different coefficients.  Raises
    ParameterMismatch when fan is not spec.fan, IsP2 on P^2 and NotSemiFano
    off the semi-Fano range.
    """
    pairs = primitive_pairs(fan)
    _check_supported(fan, spec)
    data = _curve_data(fan, spec)
    out = []
    shared: dict[QPoly, QPoly] = {}  # one object per coefficient value
    pool: dict[tuple, tuple] = {}  # one object per exponent or coefficient tuple

    def one(c: QPoly) -> QPoly:
        s = shared.get(c)
        if s is None:
            s = shared[c] = share_tuples(c, pool)
        return s

    for pr in pairs:
        el = _product(fan, spec.k, data, *pr)
        out.append((pr, QHElement(one(el.scalar), tuple(one(c) for c in el.divisor))))
    return out
