"""Exception types shared across the package."""


class ToricError(Exception):
    """Base class for every error raised by this package."""


# --- fan validation ---

class NotPrimitive(ToricError):
    """The rays are not a sequence, or a ray generator is not a sequence of
    exact integers (ints or integral Fractions) or not a primitive vector of Z^2."""


class NotCounterclockwise(ToricError):
    """Rays are not in strictly counterclockwise angular order."""


class NotSmooth(ToricError):
    """An adjacent pair of rays spans a cone of index > 1."""


class NotComplete(ToricError):
    """The rays do not wrap around the origin exactly once, or fewer than three
    rays are asked for."""


# --- polytope / Kahler data ---

class DegenerateEdge(ToricError):
    """An edge length is identically zero in the Kahler parameters."""


class InvalidKahlerData(ToricError):
    """Rows that are not a sequence, do not fit the fan, are not exact integers
    or differ in width (the width is the parameter count k), or no grid point t
    makes every edge positive."""


# --- mismatched inputs ---

class ParameterMismatch(ToricError):
    """Inputs that do not match: parameter counts, fan vs KahlerSpec, a
    parameter count k that is no exact integer >= 0 (of the polynomial
    constructors and default_q_sample), a non-LaurentPoly where one is
    needed, a class vector that is not a sequence with one entry per ray, a
    basic index off 1..d, an exponent vector that is not a sequence, or an
    inexact value: a float, str or None where an int or a Fraction is needed
    (as in solve_linear), or a non-integer in an exponent vector, a disk or
    curve class (maslov_index, curve_area) or an index (the ray index of
    Fan.ray, Fan.self_intersection, KahlerSpec.edge_length and
    KahlerSpec.disk_coefficient included)."""


class OutOfRange(ToricError):
    """A q-sample outside the open interval (0, 1) or off the open Kahler cone,
    or a log-derivative index other than 1 or 2."""


# --- disks and potentials ---

class WrongMaslov(ToricError):
    """Open invariants are defined only for Maslov index two classes."""


class NotSemiFano(ToricError):
    """The operation requires every divisor to have self-intersection >= -2.

    Raised by the enumerations of disk classes and of c_1 = 1, 2 curve
    classes, so by every count, potential and product built on them, and by
    the Newton polygon dimension."""


class NonIntegralPairing(ToricError):
    """The bulk divisor class must be integral."""


# --- homology and quantum products ---

class WrongChern(ToricError):
    """The curve class has the wrong first Chern number for this invariant."""


class IsP2(ToricError):
    """Quantum Stanley-Reisner data is defined here only for surfaces != P^2.

    Raised only by quantum.primitive_pairs, so by its callers: quantum_product,
    quantum_sr_relations and verify_homomorphism (after its sample check)."""


class NotPrimitivePair(ToricError):
    """The two rays span a cone, so they are not a primitive collection."""


# --- surface files ---

class SurfaceSyntaxError(ToricError):
    """Malformed surface file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
