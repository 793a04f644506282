"""The (-2)-chains found by scanning the cycle of rays for runs, used only by the tests.

The package reads the chains off the consecutive corners of the fan; this
cyclic-run scan is the earlier, independent route to them, kept as the
reference.
"""

from __future__ import annotations

from sftoric.fan import Fan


def chain_runs(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Maximal cyclic runs of (-2)-rays as 1-based index tuples, sorted by first index."""
    s = fan.self_intersections()
    d = fan.d
    # start just after some non-(-2) ray so no run is split at the seam
    start = next(k for k in range(d) if s[k] != -2)
    chains: list[tuple[int, ...]] = []
    run: list[int] = []
    for off in range(1, d + 1):
        k = (start + off) % d
        if s[k] == -2:
            run.append(k + 1)
        elif run:
            chains.append(tuple(run))
            run = []
    return tuple(sorted(chains))
