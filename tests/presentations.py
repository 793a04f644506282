"""GL(2, Z) presentations of the bundled surfaces, used only by the tests."""

from __future__ import annotations

from sftoric.fan import Fan
from sftoric.kahler import KahlerSpec
from sftoric.surfaces import load_bundled

# GL(2, Z) generators: two rotations, a reflection and the four unit shears
GENERATORS = {
    "S": ((0, -1), (1, 0)),
    "R": ((1, -1), (1, 0)),
    "F": ((0, 1), (1, 0)),
    "T": ((1, 1), (0, 1)),
    "U": ((1, 0), (1, 1)),
    "T-1": ((1, -1), (0, 1)),
    "U-1": ((1, 0), (-1, 1)),
}


def presentation(name, M, shift=0, U=None):
    """The bundled surface with rays M v, isomorphic to it over the lattice.

    A reflection reverses the ray order to keep it counterclockwise; the rows
    are relabelled cyclically by shift and the polytope is translated by U t
    (U a 2 x k integer matrix, zero by default).
    """
    fan, spec = load_bundled(name)
    U = U or ((0,) * spec.k, (0,) * spec.k)
    pairs = []
    for (a, b), row in zip(fan.rays, spec.rows):
        w = (M[0][0] * a + M[0][1] * b, M[1][0] * a + M[1][1] * b)
        pairs.append((w, [c - w[0] * u0 - w[1] * u1 for c, u0, u1 in zip(row, *U)]))
    if M[0][0] * M[1][1] - M[0][1] * M[1][0] < 0:
        pairs.reverse()
    pairs = pairs[shift:] + pairs[:shift]
    rays, rows = zip(*pairs)
    return KahlerSpec(Fan(rays), rows, name=name)
