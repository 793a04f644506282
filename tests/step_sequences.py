"""The admissible sequences found by filtering step vectors, used only by the tests.

The package writes each sequence down directly from its rises and falls;
this scan over every sub-interval of a chain and every 0/1 step vector on it
is the earlier, independent route to them, kept as the reference.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from sftoric.disks import DiskClass
from sftoric.fan import Fan


def admissible_sequences(m1: int, m2: int, center: int) -> Iterator[dict[int, int]]:
    """Generate every admissible sequence on [m1, m2] with the given center.

    Constructive: climb from 1 at m1 by steps in {0, +1} up to the center,
    then descend by steps in {0, -1}, keeping the final value at 1.
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


def chain_sequences(chain: tuple[int, ...], i: int) -> Iterator[dict[int, int]]:
    """Every admissible multiplicity sequence on the chain centered at ray i.

    Keyed by ray index: every interval [lo, hi] of chain positions containing
    the center, then every admissible sequence on it.
    """
    center = chain.index(i)
    for lo in range(center + 1):
        for hi in range(center, len(chain)):
            for seq in admissible_sequences(lo, hi, center):
                yield {chain[p]: v for p, v in seq.items()}


def step_filter_classes(fan: Fan) -> list[DiskClass]:
    """The basic classes and every chain sequence, in ``enumerate_admissible``'s order."""
    out = [DiskClass.basic(fan, i) for i in range(1, fan.d + 1)]
    for chain in fan.minus_two_chains():
        for i in chain:
            for seq in chain_sequences(chain, i):
                alpha = [0] * fan.d
                for k, v in seq.items():
                    alpha[k - 1] = v
                out.append(DiskClass(i, tuple(alpha)))
    return sorted(out, key=lambda b: (b.i, b.total_multiplicity(), b.alpha))
