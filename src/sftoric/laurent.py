"""Exact Laurent polynomials in z_1, z_2 over rational polynomials in q_1..q_k.

Coefficients are QPoly values: finite sums of q-monomials with exact rational
coefficients, each stored as an ``int`` when it is integral and as a
``fractions.Fraction`` otherwise.  q-exponents are integers and may be
negative (bundled surfaces X7..X11 need q-ratios), z-exponents likewise.
Arithmetic never normalizes away exactness; zero terms are dropped eagerly.

The public constructors normalize their input once.  Every ring operation
builds its result from terms that are already clean (nonzero coefficients,
integer exponent tuples) without checking them again, reuses its operands'
exponent tuples and coefficients where it can, and returns the one shared
zero QPoly of its k when the result vanishes.  A QPoly keeps its terms in
two parallel tuples rather than a dict: results such as the quantum
relations and psi hold many small coefficients, and for two or three terms
the tuples take about a third less memory.

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

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .errors import OutOfRange, ParameterMismatch

QExp = tuple[int, ...]
ZExp = tuple[int, int]
Coeff = int | Fraction


def _lean(c) -> Coeff:
    """An exact rational as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integral(v: Coeff) -> Coeff:
    """A computed coefficient: an integral Fraction becomes an int."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _int_tuple(t) -> bool:
    return type(t) is tuple and all(type(x) is int for x in t)


class QPoly:
    """Polynomial in q_1..q_k with rational coefficients and integer exponents.

    The terms are stored as two parallel tuples, the exponent vectors and
    their nonzero coefficients; ``terms`` returns them as a fresh dict.
    """

    __slots__ = ("k", "_exps", "_coeffs")

    def __new__(cls, k: int, terms: Mapping[QExp, Coeff] | None = None):
        clean: dict[QExp, Coeff] = {}
        if terms:
            for exps, c in terms.items():
                c = _lean(c)
                if not c:
                    continue
                if not _int_tuple(exps):
                    exps = tuple(int(e) for e in exps)
                if len(exps) != k:
                    raise ParameterMismatch(
                        f"exponent vector {exps} does not have length {k}"
                    )
                clean[exps] = c
        return _qpoly(k, clean)

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: zero stays shared
        return (QPoly, (self.k, self.terms))

    @property
    def terms(self) -> dict[QExp, Coeff]:
        """Exponent vector -> coefficient, as a new dict."""
        return dict(zip(self._exps, self._coeffs))

    # --- constructors ---

    @staticmethod
    def zero(k: int) -> "QPoly":
        """The zero polynomial; one shared object per k."""
        z = _ZEROS.get(k)
        if z is None:
            z = _ZEROS[k] = _build(k, (), ())
        return z

    @staticmethod
    def constant(k: int, c) -> "QPoly":
        return QPoly(k, {(0,) * k: c})

    @staticmethod
    def one(k: int) -> "QPoly":
        return QPoly.constant(k, 1)

    @staticmethod
    def monomial(k: int, exps: Sequence[int], c=1) -> "QPoly":
        return QPoly(k, {tuple(exps): c})

    # --- ring structure ---

    def _check(self, other: "QPoly"):
        if self.k != other.k:
            raise ParameterMismatch(f"QPoly over k={self.k} vs k={other.k}")

    def __add__(self, other: "QPoly") -> "QPoly":
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
                v += c
                if v:
                    out[e] = _integral(v)
                else:
                    del out[e]
        return _qpoly(self.k, out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __neg__(self) -> "QPoly":
        if not self._exps:
            return self
        return _build(self.k, self._exps, tuple(-c for c in self._coeffs))

    def __mul__(self, other) -> "QPoly":
        """Product with a QPoly, or with an int or Fraction (as ``scale``)."""
        if not isinstance(other, QPoly):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check(other)
        a, b = (self, other) if len(self._exps) >= len(other._exps) else (other, self)
        if len(b._exps) == 1 and not any(b._exps[0]):
            return a.scale(b._coeffs[0])
        out: dict[QExp, Coeff] = {}
        for e2, c2 in zip(b._exps, b._coeffs):
            for e1, c1 in zip(a._exps, a._coeffs):
                e = tuple(map(add, e1, e2))
                v = out.get(e)
                out[e] = c1 * c2 if v is None else v + c1 * c2
        return _qpoly(self.k, {e: _integral(v) for e, v in out.items() if v})

    def __rmul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "QPoly":
        """Multiply by a rational scalar; ``scale(1)`` is the polynomial itself."""
        c = _lean(c)
        if c == 1:
            return self
        if not c or not self._exps:
            return QPoly.zero(self.k)
        return _build(self.k, self._exps, tuple(_integral(c * v) for v in self._coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QPoly)
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

    def specialize(self, qvals: Sequence[Fraction]) -> Fraction:
        if len(qvals) != self.k:
            raise ParameterMismatch(f"{len(qvals)} values for k={self.k}")
        qvals = [Fraction(q) for q in qvals]
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


_ZEROS: dict[int, QPoly] = {}  # QPoly.zero(k), made on first use


def _build(k: int, exps: tuple, coeffs: tuple) -> QPoly:
    """A QPoly over parallel tuples that are already clean."""
    p = object.__new__(QPoly)
    object.__setattr__(p, "k", k)
    object.__setattr__(p, "_exps", exps)
    object.__setattr__(p, "_coeffs", coeffs)
    return p


def _qpoly(k: int, terms: dict[QExp, Coeff]) -> QPoly:
    """A QPoly over terms that are already clean (nonzero, int when integral)."""
    if not terms:
        return QPoly.zero(k)
    return _build(k, tuple(terms), tuple(terms.values()))


def share_tuples(p: QPoly, pool: dict[tuple, tuple]) -> QPoly:
    """p with its exponent and coefficient tuples taken from ``pool``.

    Equal tuples of the QPolys passed through one pool become one object, so
    a result that holds many coefficients with the same support or the same
    coefficient pattern keeps each tuple once.  Coefficients are normalized,
    so equal coefficient tuples also agree in the type of every entry.
    """
    exps = pool.setdefault(p._exps, p._exps)
    coeffs = pool.setdefault(p._coeffs, p._coeffs)
    if exps is p._exps and coeffs is p._coeffs:
        return p
    return _build(p.k, exps, coeffs)


class LaurentPoly:
    """Laurent polynomial in z_1, z_2 with QPoly coefficients."""

    __slots__ = ("k", "terms")

    def __new__(cls, k: int, terms: Mapping[ZExp, QPoly] | None = None):
        clean: dict[ZExp, QPoly] = {}
        if terms:
            for ze, qp in terms.items():
                if qp.k != k:
                    raise ParameterMismatch(
                        f"coefficient over k={qp.k} in a polynomial over k={k}"
                    )
                if qp._exps:
                    if len(ze) != 2 or not _int_tuple(ze):
                        ze = (int(ze[0]), int(ze[1]))
                    clean[ze] = qp
        return _laurent(k, clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return (LaurentPoly, (self.k, self.terms))

    # --- constructors ---

    @staticmethod
    def zero(k: int) -> "LaurentPoly":
        return _laurent(k, {})

    @staticmethod
    def constant(k: int, c) -> "LaurentPoly":
        return LaurentPoly(k, {(0, 0): QPoly.constant(k, c)})

    @staticmethod
    def monomial(k: int, zexp: Sequence[int], coeff: QPoly | None = None) -> "LaurentPoly":
        if coeff is None:
            coeff = QPoly.one(k)
        return LaurentPoly(k, {tuple(zexp): coeff})

    # --- ring structure ---

    def _check(self, other: "LaurentPoly"):
        if self.k != other.k:
            raise ParameterMismatch(f"LaurentPoly over k={self.k} vs k={other.k}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        if not small.terms:
            return big
        out = dict(big.terms)
        for ze, qp in small.terms.items():
            cur = out.get(ze)
            if cur is None:
                out[ze] = qp
            else:
                s = cur + qp
                if s._exps:
                    out[ze] = s
                else:
                    del out[ze]
        return _laurent(self.k, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return _laurent(self.k, {ze: -qp for ze, qp in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[ZExp, QPoly] = {}
        for z1, q1 in self.terms.items():
            for z2, q2 in other.terms.items():
                ze = (z1[0] + z2[0], z1[1] + z2[1])
                prod = q1 * q2
                cur = out.get(ze)
                out[ze] = prod if cur is None else cur + prod
        return _laurent(self.k, {ze: qp for ze, qp in out.items() if qp._exps})

    def scale(self, c) -> "LaurentPoly":
        """Multiply by a QPoly or a rational scalar."""
        if isinstance(c, QPoly):
            out = {}
            for ze, qp in self.terms.items():
                prod = qp * c
                if prod._exps:
                    out[ze] = prod
            return _laurent(self.k, out)
        c = _lean(c)
        if c == 1:
            return self
        if not c:
            return LaurentPoly.zero(self.k)
        return _laurent(self.k, {ze: qp.scale(c) for ze, qp in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.k == other.k
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.k, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, zexp: Sequence[int]) -> QPoly:
        return self.terms.get(tuple(zexp), QPoly.zero(self.k))

    # --- the operations the mirror computation needs ---

    def log_derivative(self, j: int) -> "LaurentPoly":
        """z_j * d/dz_j: each term c * z^e goes to (e_j * c) * z^e."""
        if j not in (1, 2):
            raise ValueError("j must be 1 or 2")
        return _laurent(
            self.k,
            {ze: qp.scale(ze[j - 1]) for ze, qp in self.terms.items() if ze[j - 1]},
        )

    def specialize_q(self, qvals: Sequence) -> "LaurentPoly":
        """Substitute exact rationals for the q_l; result has k = 0."""
        qvals = [Fraction(v) for v in qvals]
        if len(qvals) != self.k:
            raise ParameterMismatch(f"{len(qvals)} values for k={self.k}")
        for v in qvals:
            if not 0 < v < 1:
                raise OutOfRange(f"q value {v} is not in (0, 1)")
        out: dict[ZExp, QPoly] = {}
        for ze, qp in self.terms.items():
            c = qp.specialize(qvals)
            if c:
                out[ze] = _qpoly(0, {(): _lean(c)})
        return _laurent(0, out)


def _laurent(k: int, terms: dict[ZExp, QPoly]) -> LaurentPoly:
    """A LaurentPoly over terms that are already clean (no zero coefficient)."""
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "k", k)
    object.__setattr__(p, "terms", terms)
    return p


# --- canonical rendering ---


def _coeff_monomial_string(c: Fraction, exps: QExp, letter: str = "q") -> str:
    parts = []
    for l, e in enumerate(exps, start=1):
        if e == 0:
            continue
        parts.append(f"{letter}{l}" if e == 1 else f"{letter}{l}^{e}")
    if not parts:
        return str(c)
    body = "*".join(parts)
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


def _z_monomial_string(ze: ZExp) -> str:
    parts = []
    for j, e in enumerate(ze, start=1):
        if e == 0:
            continue
        parts.append(f"z{j}" if e == 1 else f"z{j}^{e}")
    return "*".join(parts)


def term_string(ze: ZExp, qp: QPoly) -> str:
    ztxt = _z_monomial_string(ze)
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
    """Deterministic text form; injective on normalized polynomials."""
    if p.is_zero():
        return "0"
    return " + ".join(sorted(term_string(ze, qp) for ze, qp in p.terms.items()))
