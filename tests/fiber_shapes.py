"""The c_1 = 2 classes built from the fiber, chain and run shapes, used only by the tests.

The package reads these classes off the counted disks at the two ends of
each ruling fiber; this shape enumeration is the earlier, independent route
to them, kept as the reference.
"""

from __future__ import annotations

from sftoric.disks import enumerate_admissible
from sftoric.fan import Fan
from sftoric.homology import fiber_classes, reduce_class


def _chain_through(fan: Fan, i: int) -> tuple[int, ...] | None:
    """The (-2)-chain containing ray i (1 <= i <= d), or None."""
    return next((chain for chain in fan.minus_two_chains() if i in chain), None)


def _runs_from(chain: tuple[int, ...], a: int) -> list[tuple[int, ...]]:
    """Contiguous runs of the chain (an index tuple) with ray a at one end."""
    pos = chain.index(a)
    return [chain[pos : hi + 1] for hi in range(pos, len(chain))] + [
        chain[lo : pos + 1] for lo in range(pos - 1, -1, -1)
    ]


def _two_reps(fan: Fan):
    """Effective c_1 = 2 representatives in the one-chain and two-chain shapes.

    Read off the fibers f of ``fiber_classes`` and the counted disks of
    ``enumerate_admissible``.
    """
    disks = enumerate_admissible(fan)
    for (a, b), f in fiber_classes(fan):
        # one-chain shape: f + alpha for each disk beta_end + alpha counted at an end
        for disk in disks:
            if disk.i in (a, b):
                yield tuple(m + x for m, x in zip(f, disk.alpha))
        # two-chain shape: unit runs hanging off both ends of the fiber
        # (opposite rays can never lie on one chain: its heads are collinear)
        chain_a, chain_b = _chain_through(fan, a), _chain_through(fan, b)
        if chain_a and chain_b and chain_a != chain_b:
            for run_a in _runs_from(chain_a, a):
                for run_b in _runs_from(chain_b, b):
                    run = run_a + run_b
                    yield tuple(m + (k in run) for k, m in enumerate(f, start=1))


def fiber_shapes(fan: Fan) -> list[tuple[int, ...]]:
    """One representative per class of every shape; the first enumerated stands for it."""
    seen: dict[tuple, tuple[int, ...]] = {}
    for rep in _two_reps(fan):
        seen.setdefault(reduce_class(fan, rep), rep)
    return sorted(seen.values())
