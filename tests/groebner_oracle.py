"""Groebner-basis reference for the Jacobian ring, used only by the tests.

The package decides membership by cofactor certificates and the dimension
by the Newton polygon; these routines compute the same answers from a
sympy Groebner basis over Q[z1, z2, u] / (u z1 z2 - 1), u = (z1 z2)^(-1),
so the tests can compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from sftoric.laurent import LaurentPoly
from sftoric.verifier import jacobian_ideal


class InfiniteDimensional(Exception):
    """The Jacobian ring is not finite-dimensional at the sampled parameters."""


def _gens():
    from sympy import symbols

    return symbols("z1 z2 u")


def _to_poly(p: LaurentPoly):
    """Clear denominators of a specialized (k = 0) Laurent polynomial.

    z1^e1 z2^e2 = z1^(e1+m) z2^(e2+m) u^m with m = max(0, -e1, -e2); the map
    (e1, e2) -> exponent triple is injective, monomials are units, so
    membership statements are unchanged.
    """
    from sympy import QQ, Poly, Rational

    terms = {}
    for (e1, e2), qp in p.terms.items():
        c = qp.specialize(())
        m = max(0, -e1, -e2)
        terms[(e1 + m, e2 + m, m)] = Rational(c.numerator, c.denominator)
    if not terms:
        terms = {(0, 0, 0): Rational(0)}
    return Poly.from_dict(terms, *_gens(), domain=QQ)


def _groebner_basis(
    ideal: tuple[LaurentPoly, LaurentPoly], qvals: Sequence[Fraction], order: str
):
    """Groebner basis of the ideal (g1, g2) of ``jacobian_ideal`` at qvals.

    The reduced basis is unique for its order, so the algorithm only sets the
    speed; F5B is many times faster than Buchberger on X10 and X11.
    """
    from sympy import QQ, Poly, groebner

    z1, z2, u = _gens()
    gens = [
        *(_to_poly(g.specialize_q(qvals)) for g in ideal),
        Poly(u * z1 * z2 - 1, z1, z2, u, domain=QQ),
    ]
    return groebner(gens, z1, z2, u, order=order, domain=QQ, method="f5b")


def groebner_membership(
    p: LaurentPoly,
    ideal: tuple[LaurentPoly, LaurentPoly],
    qvals: Sequence,
    order: str = "grevlex",
) -> bool:
    """Is p in <g1, g2> inside the Laurent ring, at exact rational q values?"""
    qvals = [Fraction(v) for v in qvals]
    G = _groebner_basis(ideal, qvals, order)
    return G.contains(_to_poly(p.specialize_q(qvals)))


def _standard_monomial_count(G, order: str) -> int:
    if not G.is_zero_dimensional:
        raise InfiniteDimensional("Jacobian ring is not finite-dimensional here")
    lms = [tuple(g.LM(order=order)) for g in G.polys]
    bounds = []
    for var in range(3):
        pure = [
            m[var]
            for m in lms
            if all(e == 0 for v, e in enumerate(m) if v != var)
        ]
        bounds.append(min(pure))
    count = 0
    for a in range(bounds[0]):
        for b in range(bounds[1]):
            for c in range(bounds[2]):
                if not any(
                    a >= m[0] and b >= m[1] and c >= m[2] for m in lms
                ):
                    count += 1
    return count


def groebner_dimension(w: LaurentPoly, order: str = "grevlex") -> int:
    """dim Jac(W) of a specialized (k = 0) W: its standard monomial count."""
    return _standard_monomial_count(_groebner_basis(jacobian_ideal(w), (), order), order)


def normal_forms(G, polys: Sequence[LaurentPoly]) -> list[dict]:
    """Remainders of specialized polynomials modulo G, as monomial -> Fraction."""
    out = []
    for p in polys:
        _, r = G.reduce(_to_poly(p))
        out.append({m: Fraction(int(c.p), int(c.q)) for m, c in r.terms() if c})
    return out
