"""Maslov index two disk classes and their open Gromov-Witten invariants.

A disk class is a basic class beta_i plus a sphere part alpha = sum s_k D_k.
The invariant n_b is 1 exactly for the admissible classes: alpha = 0 (basic
classes always count one), or D_i^2 = -2 and alpha is supported on the maximal
(-2)-chain through D_i as a contiguous interval containing i, with the
multiplicity sequence admissible centered at i:

* every value is a positive integer,
* s_j <= s_{j+1} <= s_j + 1 left of the center,
* s_j >= s_{j+1} >= s_j - 1 from the center on,
* both endpoint values are at most one.

Everything else of Maslov index two has n_b = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from .errors import ParameterMismatch, WrongMaslov
from .fan import Fan, MinusTwoChain
from .homology import chern_number


@dataclass(frozen=True, slots=True)
class DiskClass:
    """beta_i + sum_k alpha[k-1] D_k with a 1-based basic index i."""

    i: int
    alpha: tuple[int, ...]

    @staticmethod
    def basic(fan: Fan, i: int) -> "DiskClass":
        return DiskClass(i, (0,) * fan.d)

    def total_multiplicity(self) -> int:
        return sum(self.alpha)


def maslov_index(fan: Fan, b: DiskClass) -> int:
    """mu(beta_i + alpha) = 2 + 2 c_1(alpha)."""
    return 2 + 2 * chern_number(fan, b.alpha)


def is_admissible_sequence(s: Mapping[int, int], center: int) -> bool:
    """The admissibility predicate for a sequence on an integer interval.

    ``s`` maps each index of a finite interval [m1, m2] to its value; the
    empty sequence is admissible.
    """
    if not s:
        return True
    keys = sorted(s)
    m1, m2 = keys[0], keys[-1]
    if keys != list(range(m1, m2 + 1)):
        raise ParameterMismatch("sequence indices must form a contiguous interval")
    if any(not isinstance(v, int) or v < 1 for v in s.values()):
        return False
    if s[m1] > 1 or s[m2] > 1:
        return False
    for i in range(m1, m2):
        if i < center:
            if not s[i] <= s[i + 1] <= s[i] + 1:
                return False
        else:
            if not s[i] >= s[i + 1] >= s[i] - 1:
                return False
    return True


def admissible_sequences(m1: int, m2: int, center: int) -> Iterator[dict[int, int]]:
    """Generate every admissible sequence on [m1, m2] with the given center.

    Constructive: climb from 1 at m1 by steps in {0, +1} up to the center,
    then descend by steps in {0, -1}, keeping the final value at 1.  This is
    exactly the solution set of the predicate (checked against brute force in
    the tests).
    """
    if not m1 <= center <= m2:
        return
    n = m2 - m1
    for steps in product((0, 1), repeat=n):
        vals = [1]
        for i in range(n):
            idx = m1 + i
            vals.append(vals[-1] + steps[i] if idx < center else vals[-1] - steps[i])
        if vals[-1] != 1 or any(v < 1 for v in vals):
            continue
        yield {m1 + i: vals[i] for i in range(n + 1)}


def is_admissible_class(fan: Fan, b: DiskClass) -> bool:
    if any(m < 0 for m in b.alpha):
        return False
    support = [k for k, m in enumerate(b.alpha, start=1) if m]
    if not support:
        return True
    if fan.self_intersection(b.i) != -2:
        return False
    chain = fan.chain_through(b.i)
    assert chain is not None
    if any(k not in chain for k in support):
        return False
    positions = sorted(chain.position(k) for k in support)
    if positions != list(range(positions[0], positions[-1] + 1)):
        return False
    center = chain.position(b.i)
    if not positions[0] <= center <= positions[-1]:
        return False
    seq = {p: b.alpha[chain.indices[p] - 1] for p in positions}
    return is_admissible_sequence(seq, center)


def open_gw(fan: Fan, b: DiskClass) -> int:
    """n_b for a Maslov index two class: one iff admissible."""
    if maslov_index(fan, b) != 2:
        raise WrongMaslov(f"class has Maslov index {maslov_index(fan, b)}, not 2")
    return 1 if is_admissible_class(fan, b) else 0


def chain_sequences(chain: MinusTwoChain, i: int) -> Iterator[dict[int, int]]:
    """Every admissible multiplicity sequence on the chain centered at ray i.

    Keyed by ray index: every interval [lo, hi] of chain positions containing
    the center, then every admissible sequence on it.
    """
    center = chain.position(i)
    for lo in range(center + 1):
        for hi in range(center, len(chain)):
            for seq in admissible_sequences(lo, hi, center):
                yield {chain.indices[p]: v for p, v in seq.items()}


def enumerate_admissible(fan: Fan) -> list[DiskClass]:
    """All Maslov index two classes with n_b = 1, in a deterministic order.

    Sorted by basic index, then total sphere multiplicity, then the
    multiplicity vector itself.
    """
    out = [DiskClass.basic(fan, i) for i in range(1, fan.d + 1)]
    for chain in fan.minus_two_chains():
        for i in chain.indices:
            for seq in chain_sequences(chain, i):
                alpha = [0] * fan.d
                for k, v in seq.items():
                    alpha[k - 1] = v
                out.append(DiskClass(i, tuple(alpha)))
    out.sort(key=lambda b: (b.i, b.total_multiplicity(), b.alpha))
    return out
