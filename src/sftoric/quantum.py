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

Products are expanded through a dual pair of H^2 bases and the divisor part is
reduced to a canonical representative modulo linear equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .disks import admissible_sequences
from .errors import IsP2, NotPrimitivePair, NotSemiFano, WrongChern
from .fan import Fan
from .homology import (
    chern_number,
    dual_bases,
    elimination_pair,
    fiber_classes,
    linear_relations,
    pair,
    profile,
)
from .kahler import KahlerSpec
from .laurent import QPoly


@dataclass
class QHElement:
    """scalar * 1 + sum_k divisor[k-1] * D_k with QPoly coefficients.

    The divisor vector is stored as the canonical representative modulo the
    linear-equivalence classes (two fixed coordinates are zeroed out).
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
    """Effective representatives of every c_1 = 2 class with point-GW one."""
    d = fan.d
    seen: dict[tuple, tuple[int, ...]] = {}

    def record(rep):
        assert chern_number(fan, rep) == 2
        assert all(m <= d + 2 for m in rep)  # enumeration stays inside the bound
        seen.setdefault(profile(fan, rep), tuple(rep))

    for (a, b), f in fiber_classes(fan):
        record(f)
        chains = {}
        for end in (a, b):
            if fan.self_intersection(end) == -2:
                chains[end] = fan.chain_through(end)
        # one-chain shape: an admissible sequence on an interval of the chain
        # through one end, centered where the fiber meets it
        for end, chain in chains.items():
            center = chain.position(end)
            n = len(chain)
            for lo in range(center + 1):
                for hi in range(center, n):
                    for seq in admissible_sequences(lo, hi, center):
                        rep = list(f)
                        for p, v in seq.items():
                            rep[chain.indices[p] - 1] += v
                        record(rep)
        # two-chain shape: unit runs hanging off both ends of the fiber
        # (opposite rays can never lie on one chain: its heads are collinear)
        if len(chains) == 2 and chains[a] != chains[b]:
            for run_a in _runs_from(chains[a], a):
                for run_b in _runs_from(chains[b], b):
                    rep = list(f)
                    for k in run_a + run_b:
                        rep[k - 1] += 1
                    record(rep)
    return sorted(seen.values())


def c1_one_classes(fan: Fan) -> list[tuple[int, ...]]:
    """Effective representatives of every c_1 = 1 class with unconstrained GW one."""
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


def gw_c1_2_point(fan: Fan, alpha: Sequence[int]) -> int:
    """One-point genus zero GW invariant of a class with c_1 = 2 (0 or 1)."""
    if chern_number(fan, alpha) != 2:
        raise WrongChern(f"c_1(alpha) = {chern_number(fan, alpha)}, expected 2")
    target = profile(fan, alpha)
    return 1 if any(profile(fan, rep) == target for rep in c1_two_classes(fan)) else 0


def gw_c1_1(fan: Fan, alpha: Sequence[int]) -> int:
    """Unconstrained genus zero GW invariant of a class with c_1 = 1 (0 or 1)."""
    if chern_number(fan, alpha) != 1:
        raise WrongChern(f"c_1(alpha) = {chern_number(fan, alpha)}, expected 1")
    target = profile(fan, alpha)
    return 1 if any(profile(fan, rep) == target for rep in c1_one_classes(fan)) else 0


def _q_area(spec: KahlerSpec, rep: Sequence[int]) -> QPoly:
    return QPoly.monomial(spec.k, spec.q_exponent(spec.curve_area(rep)))


def _reduce_qpoly_vector(fan: Fan, vec: list[QPoly]) -> tuple[QPoly, ...]:
    i, j, inv = elimination_pair(fan)
    l1, l2 = linear_relations(fan)
    xi, xj = vec[i - 1], vec[j - 1]
    lam1 = xi.scale(inv[0][0]) + xj.scale(inv[0][1])
    lam2 = xi.scale(inv[1][0]) + xj.scale(inv[1][1])
    out = []
    for coord in range(fan.d):
        c = vec[coord] - lam1.scale(l1[coord]) - lam2.scale(l2[coord])
        out.append(c)
    assert out[i - 1].is_zero() and out[j - 1].is_zero()
    return tuple(out)


def quantum_product(
    fan: Fan,
    spec: KahlerSpec,
    i: int,
    j: int,
    subset: Sequence[int] | None = None,
) -> QHElement:
    """D_i * D_j for a primitive pair, as an element of H^0 + H^2.

    D_i * D_j = sum_{c1(a)=2} (D_i.a)(D_j.a) GW(a; pt) q^a
              + sum_m ( sum_{c1(a)=1} (D_i.a)(D_j.a)(D^m.a) GW(a) q^a ) D_m
    with {D^m}, {D_m} dual bases of H^2 represented by divisors.
    """
    d = fan.d
    if d == 3:
        raise IsP2("quantum Stanley-Reisner data is not computed for P^2")
    if not fan.is_semi_fano():
        raise NotSemiFano("the curve class enumeration requires a semi-Fano surface")
    i0, j0 = (i - 1) % d + 1, (j - 1) % d + 1
    if i0 == j0 or (i0 - j0) % d in (1, d - 1):
        raise NotPrimitivePair(f"rays {i0}, {j0} span a cone")
    scalar = QPoly.zero(spec.k)
    for rep in c1_two_classes(fan):
        prof = profile(fan, rep)
        c = prof[i0 - 1] * prof[j0 - 1]
        if c:
            scalar = scalar + _q_area(spec, rep).scale(c)
    basis, dual = dual_bases(fan, subset)
    vec = [QPoly.zero(spec.k)] * d
    for rep in c1_one_classes(fan):
        prof = profile(fan, rep)
        c = prof[i0 - 1] * prof[j0 - 1]
        if not c:
            continue
        qa = _q_area(spec, rep)
        for m in range(len(basis)):
            weight = c * pair(fan, basis[m], rep)
            if not weight:
                continue
            contrib = qa.scale(weight)
            for coord in range(d):
                if dual[m][coord]:
                    vec[coord] = vec[coord] + contrib.scale(dual[m][coord])
    divisor = _reduce_qpoly_vector(fan, vec)
    # the paper's hand-picked integral dual bases are a convenience; the
    # reduced result itself must be integral
    assert scalar.has_integer_coefficients()
    assert all(c.has_integer_coefficients() for c in divisor)
    return QHElement(scalar, divisor)


def quantum_sr_relations(fan: Fan, spec: KahlerSpec):
    """The quantum expansion of D_i D_j for every primitive pair.

    Raises NotSemiFano (through quantum_product) off the semi-Fano range.
    """
    return [(pr, quantum_product(fan, spec, pr[0], pr[1])) for pr in primitive_pairs(fan)]
