"""Exact Laurent polynomials in z_1, z_2 over rational polynomials in q_1..q_k.

QPoly and LaurentPoly share one sparse-polynomial kernel (``_Sparse``): the
parameter count ``k`` and two parallel tuples, the integer exponent vectors
and their nonzero coefficients.  A QPoly has q-exponents of length k and
rational coefficients, each an ``int`` when integral and a ``Fraction``
otherwise; a LaurentPoly has z-exponents of length 2 and QPoly coefficients
over the same k.  Exponents may be negative (X7..X11 need q-ratios).

The public constructors normalize their input once.  Each ring operation
(``+``, ``-``, ``*``, ``scale``) is written once for both types: it builds
its result from clean terms without checking them again, reuses its
operands' exponent tuples and coefficients where it can, and returns the one
shared zero of its type and k when the result vanishes.  Values are
immutable, and ``terms`` returns a fresh dict, so writing into it changes
nothing.  Parallel tuples take about a third less memory than a dict for
the small coefficients that the quantum relations and psi hold.

``canonical_string`` is the package's stable, bit-exact text grammar:

* a q-monomial prints as ``q1^2*q2`` (unit exponents bare, coefficient
  prefixes ``-`` / ``3/2*`` as needed, the empty monomial as its coefficient);
* a QPoly prints its monomials ascending by exponent vector, joined
  sign-aware: ``1 + q2 - q1*q2``;
* a z-term prints as ``(qpoly)*z1^e1*z2^e2`` with zero exponents omitted,
  exponent one bare, parentheses only when the coefficient has at least two
  terms, and a unit coefficient printed only when no z-monomial remains;
* the full polynomial joins its term strings in ascending string order with
  `` + ``; the zero polynomial prints ``0``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import add

from .errors import OutOfRange, ParameterMismatch

QExp = tuple[int, ...]
ZExp = tuple[int, int]
Coeff = int | Fraction
_TEXT = (str, bytes, bytearray, memoryview)  # sequences, but not of numbers


def _integral(v):
    """A computed coefficient: an integral Fraction becomes an int."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _exact(xs, what: str, error: type = ParameterMismatch, integral: bool = False) -> tuple:
    """xs as a tuple of ints and Fractions (an integral one as an int), else raise error.

    The package's one exactness rule: xs must be a sequence of ints and
    Fractions, of exact integers when integral is set, and not text or bytes;
    nothing is coerced.
    """
    if isinstance(xs, Sequence) and not isinstance(xs, _TEXT) and all(
        isinstance(x, (int, Fraction)) and (not integral or x.denominator == 1) for x in xs
    ):
        return tuple(x.numerator if x.denominator == 1 else x for x in xs)
    kind = "exact integers" if integral else "ints and Fractions"
    raise error(f"{what} {xs!r} is not a sequence of {kind}")


def _count(k) -> int:
    """k as an exact integer >= 0 (a parameter count), else ParameterMismatch."""
    if type(k) is not int:
        (k,) = _exact((k,), "parameter count", integral=True)
    if k < 0:
        raise ParameterMismatch(f"parameter count {k} is negative")
    return k


def _q_values(qvals, k: int) -> tuple:
    """qvals as k exact rationals, else ParameterMismatch; OutOfRange off (0, 1)."""
    qvals = _exact(qvals, "q-sample")
    if len(qvals) != k:
        raise ParameterMismatch(f"{len(qvals)} values for k={k}")
    for v in qvals:
        if not 0 < v < 1:
            raise OutOfRange(f"q value {v} is not in (0, 1)")
    return qvals


class _Sparse:
    """Sum of c_e * x^e over parallel tuples of exponent vectors and coefficients.

    A subclass sets ``_ring``, the polynomial type of its coefficients or None
    for rationals, and ``_width``, the exponent length or None for k;
    everything else is shared.
    """

    __slots__ = ("k", "_exps", "_coeffs")

    def __new__(cls, k: int, terms: Mapping | None = None):
        k = _count(k)
        clean = {}
        if terms:
            ring, width = cls._ring, cls._width or k
            for e, c in terms.items():
                if ring is None:
                    c = c if type(c) is int else _exact((c,), "coefficient")[0]
                elif type(c) is not ring:
                    raise ParameterMismatch(f"coefficient {c!r} is not a {ring.__name__}")
                elif c.k != k:
                    raise ParameterMismatch(f"coefficient over k={c.k} in a polynomial over k={k}")
                if not c:
                    continue
                if type(e) is not tuple or not all(type(x) is int for x in e):
                    e = _exact(e, "exponent vector", integral=True)
                if len(e) != width:
                    raise ParameterMismatch(f"exponent vector {e} does not have length {width}")
                clean[e] = c
        return _from_dict(cls, k, clean)

    @classmethod
    def zero(cls, k: int):
        """The zero polynomial; one shared object per type and k."""
        z = _ZEROS.get((cls, k)) if type(k) is int else None  # 2.0 hashes as 2: ints only
        if z is None:
            k = _count(k)
            z = _ZEROS.setdefault((cls, k), _make(cls, k, (), ()))
        return z

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: zero stays shared
        return (type(self), (self.k, self.terms))

    @property
    def terms(self) -> dict:
        """Exponent vector -> coefficient, as a new dict."""
        return dict(zip(self._exps, self._coeffs))

    # --- ring structure ---

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.k != other.k:
            raise ParameterMismatch(f"{type(self).__name__} over k={self.k} vs k={other.k}")

    def __add__(self, other):
        self._check(other)
        big, small = (self, other) if len(self._exps) >= len(other._exps) else (other, self)
        if not small._exps:
            return big
        out = dict(zip(big._exps, big._coeffs))
        for e, c in zip(small._exps, small._coeffs):
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v = v + c
                if v:
                    out[e] = _integral(v)
                else:
                    del out[e]
        return _from_dict(type(self), self.k, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self._exps:
            return self
        return _make(type(self), self.k, self._exps, tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        """Product with a polynomial of the same type, or with an int or Fraction."""
        if type(other) is not type(self):
            return self.__rmul__(other)
        self._check(other)
        a, b = (self, other) if len(self._exps) >= len(other._exps) else (other, self)
        if len(b._exps) == 1 and not any(b._exps[0]):
            return a.scale(b._coeffs[0])
        out = {}
        for e2, c2 in zip(b._exps, b._coeffs):
            for e1, c1 in zip(a._exps, a._coeffs):
                e = tuple(map(add, e1, e2))
                v = out.get(e)
                out[e] = c1 * c2 if v is None else v + c1 * c2
        return _from_dict(type(self), self.k, {e: _integral(v) for e, v in out.items() if v})

    def __rmul__(self, other):
        # a scalar goes through scale; polynomials of two types do not mix
        return NotImplemented if isinstance(other, _Sparse) else self.scale(other)

    def scale(self, c):
        """Multiply by a rational scalar, or a LaurentPoly by a QPoly.

        ``scale(1)`` is the polynomial itself.
        """
        if type(c) is not self._ring:
            c = c if type(c) is int else _exact((c,), "scalar")[0]
            if c == 1:
                return self
        if not c or not self._exps:
            return self.zero(self.k)
        return _make(type(self), self.k, self._exps, tuple(_integral(v * c) for v in self._coeffs))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.k == other.k
            and len(self._exps) == len(other._exps)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.k, tuple(sorted(zip(self._exps, self._coeffs)))))

    def is_zero(self) -> bool:
        return not self._exps

    def __bool__(self) -> bool:
        return bool(self._exps)


_ZEROS: dict[tuple[type, int], _Sparse] = {}  # zero(k) of each type, made on first use
# the slot setters, which skip the immutability guard and the attribute lookup
_SET_K, _SET_EXPS, _SET_COEFFS = (_Sparse.__dict__[name].__set__ for name in _Sparse.__slots__)


def _make(cls: type, k: int, exps: tuple, coeffs: tuple):
    """A polynomial of type cls over parallel tuples that are already clean."""
    p = object.__new__(cls)
    _SET_K(p, k)
    _SET_EXPS(p, exps)
    _SET_COEFFS(p, coeffs)
    return p


def _shared(p: _Sparse, table: dict) -> _Sparse:
    """p, or the equal polynomial that table already holds.

    table maps each polynomial and each coefficient tuple to its first equal
    copy, so what is built with one table keeps every equal part once.
    """
    if p not in table:
        coeffs = table.setdefault(p._coeffs, p._coeffs)
        table[p] = p if coeffs is p._coeffs else _make(type(p), p.k, p._exps, coeffs)
    return table[p]


def _from_dict(cls: type, k: int, terms: dict):
    """A polynomial over terms that are already clean (nonzero, int when integral)."""
    if not terms:
        return cls.zero(k)
    return _make(cls, k, tuple(terms), tuple(terms.values()))


class QPoly(_Sparse):
    """Polynomial in q_1..q_k with rational coefficients and integer exponents."""

    __slots__ = ()
    _ring = None
    _width = None

    @staticmethod
    def constant(k: int, c) -> "QPoly":
        return QPoly(k, {(0,) * _count(k): c})

    @staticmethod
    def one(k: int) -> "QPoly":
        return QPoly.constant(k, 1)

    @staticmethod
    def monomial(k: int, exps: Sequence[int], c=1) -> "QPoly":
        e = exps if type(exps) is tuple else _exact(exps, "exponent vector", integral=True)
        return QPoly(k, {e: c})

    def specialize(self, qvals: Sequence) -> Fraction:
        """The value at exact rationals q_l in (0, 1)."""
        return self._at(_q_values(qvals, self.k))

    def _at(self, qvals: tuple) -> Fraction:
        """The value at q-values that already passed ``_q_values``."""
        total = Fraction(0)
        for e, c in zip(self._exps, self._coeffs):
            m = Fraction(c)
            for exp, q in zip(e, qvals):
                if exp:
                    m *= q**exp
            total += m
        return total

    def has_integer_coefficients(self) -> bool:
        return all(type(c) is int for c in self._coeffs)

    def __repr__(self) -> str:
        return f"QPoly({qpoly_string(self)!r})"


class LaurentPoly(_Sparse):
    """Laurent polynomial in z_1, z_2 with QPoly coefficients."""

    __slots__ = ()
    _ring = QPoly
    _width = 2

    @staticmethod
    def constant(k: int, c) -> "LaurentPoly":
        return LaurentPoly(k, {(0, 0): QPoly.constant(k, c)})

    @staticmethod
    def monomial(k: int, zexp: Sequence[int], coeff: QPoly | None = None) -> "LaurentPoly":
        if coeff is None:
            coeff = QPoly.one(k)
        e = zexp if type(zexp) is tuple else _exact(zexp, "exponent vector", integral=True)
        return LaurentPoly(k, {e: coeff})

    def coefficient(self, zexp: Sequence[int]) -> QPoly:
        """The coefficient of z^zexp; ParameterMismatch unless zexp is two exact integers."""
        zexp = _exact(zexp, "exponent vector", integral=True)
        if len(zexp) != 2:
            raise ParameterMismatch(f"exponent vector {zexp} does not have length 2")
        try:
            return self._coeffs[self._exps.index(zexp)]
        except ValueError:
            return QPoly.zero(self.k)

    # --- the operations the mirror computation needs ---

    def log_derivative(self, j: int) -> "LaurentPoly":
        """z_j * d/dz_j: each term c * z^e goes to (e_j * c) * z^e."""
        (j,) = _exact((j,), "log-derivative index", integral=True)
        if j not in (1, 2):
            raise OutOfRange("j must be 1 or 2")
        terms = zip(self._exps, self._coeffs)
        out = {ze: qp.scale(ze[j - 1]) for ze, qp in terms if ze[j - 1]}
        return _from_dict(LaurentPoly, self.k, out)

    def specialize_q(self, qvals: Sequence) -> "LaurentPoly":
        """Substitute exact rationals in (0, 1) for the q_l; result has k = 0."""
        qvals = _q_values(qvals, self.k)
        out = {}
        for ze, qp in zip(self._exps, self._coeffs):
            c = qp._at(qvals)
            if c:
                out[ze] = _make(QPoly, 0, ((),), (_integral(c),))
        return _from_dict(LaurentPoly, 0, out)

    def __repr__(self) -> str:
        return f"LaurentPoly({canonical_string(self)!r})"


# --- canonical rendering ---


def _monomial_string(letter: str, exps: Sequence[int]) -> str:
    """letter1^e1*letter2^e2*..., skipping zero exponents; "" for the unit."""
    return "*".join(
        f"{letter}{l}" if e == 1 else f"{letter}{l}^{e}"
        for l, e in enumerate(exps, start=1)
        if e
    )


def _coeff_monomial_string(c: Fraction, exps: QExp) -> str:
    body = _monomial_string("q", exps)
    if not body:
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{c}*{body}"


def qpoly_string(p: QPoly) -> str:
    """Monomials ascending by exponent vector, joined sign-aware."""
    if p.is_zero():
        return "0"
    items = sorted(zip(p._exps, p._coeffs))
    out = _coeff_monomial_string(items[0][1], items[0][0])
    for exps, c in items[1:]:
        if c > 0:
            out += " + " + _coeff_monomial_string(c, exps)
        else:
            out += " - " + _coeff_monomial_string(-c, exps)
    return out


def term_string(ze: ZExp, qp: QPoly) -> str:
    ztxt = _monomial_string("z", ze)
    multi = len(qp._exps) >= 2
    if not ztxt:
        return f"({qpoly_string(qp)})" if multi else qpoly_string(qp)
    if multi:
        return f"({qpoly_string(qp)})*{ztxt}"
    m = _coeff_monomial_string(qp._coeffs[0], qp._exps[0])
    if m == "1":
        return ztxt
    if m == "-1":
        return "-" + ztxt
    return f"{m}*{ztxt}"


def canonical_string(p: LaurentPoly) -> str:
    """Deterministic text form, injective on normalized LaurentPolys; else ParameterMismatch."""
    if not isinstance(p, LaurentPoly):
        raise ParameterMismatch(f"{p!r} is not a LaurentPoly")
    if p.is_zero():
        return "0"
    return " + ".join(sorted(map(term_string, p._exps, p._coeffs)))
