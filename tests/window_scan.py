"""The c_1 = 1 classes found by scanning every cyclic window of rays, used only by the tests.

The package reads these classes off the counted disks at the (-1)-ray's
two neighbours; this scan is the earlier, independent route to them, kept as the reference.
"""

from __future__ import annotations

from sftoric.fan import Fan
from sftoric.homology import chern_number, profile


def window_scan(fan: Fan) -> list[tuple[int, ...]]:
    """One representative per class of every window with one (-1)-ray, the rest (-2).

    Each window of 1 to d - 1 cyclically consecutive rays carries
    multiplicity one; the first window of each class stands for it.
    """
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
