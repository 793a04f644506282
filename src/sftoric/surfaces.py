"""The surface file format and the bundled semi-Fano surfaces.

Grammar (one declaration per line, ``#`` comments and blank lines ignored)::

    surface NAME
    params K
    ray A B : C1 C2 ... CK

Each ray line contributes the facet inequality <(A, B), x> >= -(C1 t_1 + ...
+ CK t_K); the C's are integers (several bundled surfaces need negative
entries).  Row order is the fan's counterclockwise cyclic order.

Sixteen surfaces ship with the package: the five Fano ones (P2, F0, F1, dP2,
dP3) and the eleven semi-Fano non-Fano ones X1..X11 with ray lists and
polytopes transcribed from the classification tables.  ``load_bundled``
returns one shared immutable (Fan, KahlerSpec) pair per name, so what is
built once per fan or spec (W, the disk and curve classes, the quantum
relations) is built once per process for a bundled surface.
"""

from __future__ import annotations

import os

from .errors import SurfaceSyntaxError
from .fan import Fan
from .kahler import KahlerSpec

BUNDLED = (
    "P2", "F0", "F1", "dP2", "dP3",
    "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11",
)

BUNDLED_NON_FANO = BUNDLED[5:]


def _ints(fields: list[str], message: str, lineno: int) -> tuple[int, ...]:
    """The fields as ints, else SurfaceSyntaxError(message) at the line."""
    try:
        return tuple(int(f) for f in fields)
    except ValueError:  # not a decimal integer, or past the interpreter's digit limit
        raise SurfaceSyntaxError(message, lineno) from None


def parse_surface(text: str) -> tuple[Fan, KahlerSpec]:
    """Parse a surface file; errors carry 1-based line numbers."""
    name = None
    k = None
    rays: list[tuple[int, int]] = []
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "surface":
            if name is not None:
                raise SurfaceSyntaxError("duplicate surface declaration", lineno)
            if len(fields) != 2:
                raise SurfaceSyntaxError("expected: surface NAME", lineno)
            name = fields[1]
        elif fields[0] == "params":
            if k is not None:
                raise SurfaceSyntaxError("duplicate params declaration", lineno)
            if len(fields) != 2:
                raise SurfaceSyntaxError("expected: params K", lineno)
            (k,) = _ints(fields[1:], "expected: params K", lineno)
            if k < 0:
                raise SurfaceSyntaxError("params must be nonnegative", lineno)
        elif fields[0] == "ray":
            if k is None:
                raise SurfaceSyntaxError("params must come before rays", lineno)
            if len(fields) < 4 or fields[3] != ":":
                raise SurfaceSyntaxError("expected: ray A B : C1 ... CK", lineno)
            a, b, *cs = _ints(fields[1:3] + fields[4:], "ray entries must be integers", lineno)
            if len(cs) != k:
                raise SurfaceSyntaxError(
                    f"expected {k} constants, got {len(cs)}", lineno
                )
            rays.append((a, b))
            rows.append(cs)
        else:
            raise SurfaceSyntaxError(f"unknown directive {fields[0]!r}", lineno)
    if name is None:
        raise SurfaceSyntaxError("missing surface declaration")
    if k is None:
        raise SurfaceSyntaxError("missing params declaration")
    if not rays:
        raise SurfaceSyntaxError("no rays declared")
    fan = Fan(rays)
    spec = KahlerSpec(fan, rows, name=name)
    return fan, spec


def parse_surface_file(path) -> tuple[Fan, KahlerSpec]:
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not text
        return parse_surface(fh.read())


def bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"no bundled surface named {name!r}")
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.fan")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# name -> the one (Fan, KahlerSpec) pair of that bundled surface, at most 16
_LOADED: dict[str, tuple[Fan, KahlerSpec]] = {}


def load_bundled(name: str) -> tuple[Fan, KahlerSpec]:
    """The shared pair of a bundled surface, parsed on first use.

    ``parse_surface(bundled_text(name))`` gives a fresh pair with empty memos.
    """
    if name not in BUNDLED or name not in _LOADED:  # bundled_text refuses other names
        _LOADED.setdefault(name, parse_surface(bundled_text(name)))
    return _LOADED[name]
