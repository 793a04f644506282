"""Verification of the ring isomorphism QH*(X) = Jac(W).

The map psi sends a divisor class D to sum_b <b, D> Z_b over the counted
Maslov index two classes (the open divisor equation); ``potential`` builds
it as the first-order part of the bulk potential W_D.  The identity
psi(sum_i v_i^j D_i) = z_j dW/dz_j is checked symbolically in the q_l, as is
the dimension.  Membership runs at one exact rational q-sample in the open
Kahler cone.  Each check comes with evidence the package checks itself:

* Membership.  Every quantum Stanley-Reisner relation
  p = psi(D_i) psi(D_j) - psi(D_i * D_j) must lie in the Jacobian ideal
  <g1, g2>, g_j = z_j dW/dz_j, of the Laurent ring.  Cofactors a, b with
  p = a g1 + b g2 are sought on the lattice points of the Newton polygon
  Delta = conv(rays) of W (for a semi-Fano fan: the origin and the rays) by
  one exact elimination for all relations of a surface, and each solution
  is accepted only after Laurent arithmetic re-checks it.
* Dimension.  By Kouchnirenko's theorem (Polyedres de Newton et nombres de
  Milnor, 1976) dim Jac(W) = 2 area(Delta), which is d = rank H*(X) for a
  smooth fan, when W is nondegenerate on every edge of Delta.  Between
  consecutive corners a < b (the rays with D^2 != -2, whose interior rays
  are the (-2)-chain of Fan.minus_two_chains) the symbolic W must
  have the edge polynomial q^{C_a} prod_{j=1}^{b-a} (1 + m_j x), with
  m_1 = q^{C_{a+1} - C_a} and m_{j+1} = m_j q^{L_{a+j}} (C_i the facet
  constants, L_i the edge lengths).  Its end coefficients are q-monomials,
  and consecutive roots differ by a factor q^{L_r}, L_r the area of a
  (-2)-curve, which is below one on the whole open Kahler cone.  So W is
  nondegenerate at every point of the cone, not only at the sample.

For such W the Newton filtration of the Jacobian ring gives
J cap L(2 Delta) = L(Delta) g1 + L(Delta) g2, where L(P) is the span of the
monomials on the lattice points of P; a relation lies in L(2 Delta), so it
is in J exactly when it has a certificate.  The two checks are therefore
the whole decision procedure: a relation without a certificate fails, and a
W off the edge identity leaves the dimension undefined.  The tests compare
both checks against a Groebner-basis reference.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import isqrt

from .errors import OutOfRange, ParameterMismatch
from .fan import Fan
from .homology import linear_relations, solve_linear, unit_vector
from .kahler import KahlerSpec
from .laurent import LaurentPoly, QPoly, _count, _q_values
from .potential import psi_divisor, superpotential
from .quantum import QHElement, quantum_sr_relations


def jacobian_ideal(w: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Generators (g1, g2), g_j = z_j dW/dz_j, of the Jacobian ideal of W."""
    return w.log_derivative(1), w.log_derivative(2)


def psi_qh(spec: KahlerSpec, el: QHElement) -> LaurentPoly:
    """psi of a scalar + divisor element: psi(1) = 1 on the scalar part."""
    out = LaurentPoly(spec.k, {(0, 0): el.scalar})
    for coord, c in enumerate(el.divisor, start=1):
        if c.is_zero():
            continue
        out = out + psi_divisor(spec, unit_vector(spec.fan.d, coord)).scale(c)
    return out


def verify_linear_identity(spec: KahlerSpec) -> bool:
    """psi(sum_i v_i^j D_i) = d_j W exactly (symbolic q), j = 1, 2."""
    g1, g2 = jacobian_ideal(superpotential(spec).w)
    l1, l2 = linear_relations(spec.fan)
    return psi_divisor(spec, l1) == g1 and psi_divisor(spec, l2) == g2


# --- certificates at a q-sample; every polynomial here is specialized (k = 0) ---


def cofactor_certificates(
    fan: Fan, ideal: tuple[LaurentPoly, LaurentPoly], polys: Sequence[LaurentPoly]
) -> list[tuple[LaurentPoly, LaurentPoly] | None]:
    """Cofactors (a, b) with p = a g1 + b g2 for each p, or None.

    ideal is the pair (g1, g2) of ``jacobian_ideal``.
    The unknowns are the coefficients of a and b on the lattice points s of
    Delta = conv(rays), i.e. the origin and the rays of a semi-Fano fan, so
    the columns are z^s g1 and z^s g2, with one row per monomial in sorted
    order and one right-hand side per p, solved by one elimination.
    A solution is returned only after a * g1 + b * g2 == p is re-checked.
    """
    g1, g2 = ideal
    support = [(0, 0), *fan.rays]
    n = len(support)
    columns = [LaurentPoly.monomial(0, s) * g for g in (g1, g2) for s in support]
    rows = {m: r for r, m in enumerate(sorted({m for p in (*columns, *polys) for m in p.terms}))}

    def dense(ps: Sequence[LaurentPoly]) -> list[list]:
        out = [[0] * len(ps) for _ in rows]
        for col, p in enumerate(ps):
            for m, c in p.terms.items():
                out[rows[m]][col] = c.specialize(())
        return out

    _, solutions = solve_linear(dense(columns), dense(polys))
    out = []
    for p, x in zip(polys, solutions):
        cert = None
        if x is not None:
            a = LaurentPoly(0, {s: QPoly.constant(0, v) for s, v in zip(support, x[:n])})
            b = LaurentPoly(0, {s: QPoly.constant(0, v) for s, v in zip(support, x[n:])})
            if a * g1 + b * g2 == p:
                cert = (a, b)
        out.append(cert)
    return out


def edge_factorisation(spec: KahlerSpec, w: LaurentPoly) -> int | None:
    """dim Jac(W) = 2 area(Delta) = d on the whole open Kahler cone, or None.

    The symbolic w must be supported on the origin and the rays, and each of
    its edge polynomials, between consecutive corners, must be the product in
    the module docstring.  A w that is no LaurentPoly over spec.k (a W
    specialized at a sample, say) raises ParameterMismatch.
    """
    fan, k = spec.fan, spec.k
    if not isinstance(w, LaurentPoly) or w.k != k:
        raise ParameterMismatch(f"w is not a LaurentPoly over k={k}")
    fan.require_semi_fano("the Newton polygon argument")
    if not set(w.terms) <= {(0, 0), *fan.rays}:
        return None
    zero = QPoly.zero(k)
    for a, b in fan._corner_pairs():
        m = [y - x for x, y in zip(spec.disk_coefficient(a), spec.disk_coefficient(a + 1))]
        f = [QPoly.monomial(k, spec.disk_coefficient(a))]
        for r in range(a + 1, b + 1):
            f = [lo + QPoly.monomial(k, m) * hi for lo, hi in zip(f + [zero], [zero] + f)]
            m = [x + y for x, y in zip(m, spec.edge_length(r))]
        if f != [w.coefficient(fan.ray(i)) for i in range(a, b + 1)]:
            return None
    return fan.d


# --- the end-to-end report ---


def default_q_sample(k: int) -> tuple[Fraction, ...]:
    """q_l = 1 / p_l over the k consecutive primes starting at 7.

    ``verify_homomorphism`` runs at this sample when it lies in the open
    Kahler cone, as it does for every bundled surface.  Raises
    ParameterMismatch unless k is an exact integer >= 0.
    """
    k = _count(k)
    primes: list[int] = []
    n = 7
    while len(primes) < k:
        if all(n % p for p in range(2, isqrt(n) + 1)):
            primes.append(n)
        n += 1
    return tuple(Fraction(1, p) for p in primes)


_REPORT_FIELDS = "surface q_sample linear_identity relations dimension expected_dimension"


class VerificationReport(namedtuple("VerificationReport", _REPORT_FIELDS)):
    """Line-oriented record of the QH = Jac verification for one surface.

    ``relations`` lists ((i, j), membership ok) per primitive pair, each
    (i, j) the pair tuple of ``quantum_sr_relations`` itself, and
    ``dimension`` is dim Jac(W) or None.  ``samples_tried`` is [q_sample], the
    one sample the checks ran at: a failed check is final and the default
    sample is chosen in the cone before any check runs.
    """

    __slots__ = ()

    @property
    def samples_tried(self) -> list[tuple]:
        return [self.q_sample]

    @property
    def passed(self) -> bool:
        return (
            self.linear_identity
            and all(ok for _, ok in self.relations)
            and self.dimension == self.expected_dimension
        )

    def to_text(self) -> str:
        lines = [f"surface {self.surface}"]
        lines.append(
            "q-sample " + " ".join(f"q{l}={v}" for l, v in enumerate(self.q_sample, 1))
        )
        lines.append(f"linear-identity {'PASS' if self.linear_identity else 'FAIL'}")
        for (i, j), ok in self.relations:
            lines.append(f"relation D{i}*D{j} membership {'PASS' if ok else 'FAIL'}")
        dim = "undefined" if self.dimension is None else self.dimension
        ok = self.dimension == self.expected_dimension
        lines.append(
            f"jacobian-dimension {dim} expected {self.expected_dimension} "
            f"{'PASS' if ok else 'FAIL'}"
        )
        lines.append(f"RESULT {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def off_cone_edge(spec: KahlerSpec, qvals: Sequence[Fraction]) -> int | None:
    """The first edge i whose q-monomial prod_l q_l^(L_il) is not < 1, or None.

    L_i = spec.edge_length(i).  The sample is the image of a point of the
    open Kahler cone exactly when every edge has positive area, i.e. every
    such monomial is below one.
    """
    for i in range(1, spec.d + 1):
        if QPoly.monomial(spec.k, spec.edge_length(i)).specialize(qvals) >= 1:
            return i
    return None


def _q_sample(spec: KahlerSpec, qvals: Sequence | None) -> tuple:
    """The q-sample of the checks: qvals checked in order, else the default.

    Given qvals must pass ``_q_values`` (exact, k of them, in (0, 1)) and lie
    in the open Kahler cone, else OutOfRange names the first edge whose
    q-monomial is >= 1.  Omitted, the sample is ``default_q_sample(k)`` when
    it lies in the cone, else q_l = 2^(-t_l) at t = spec.sample_point, where
    KahlerSpec certified every edge length L_i . t >= 1, so each edge
    q-monomial is <= 1/2.
    """
    if qvals is None:
        sample = default_q_sample(spec.k)
        if off_cone_edge(spec, sample) is None:
            return sample
        return tuple(Fraction(1, 2**t) for t in spec.sample_point)
    sample = _q_values(qvals, spec.k)
    edge = off_cone_edge(spec, sample)
    if edge is not None:
        raise OutOfRange(
            f"the q-sample lies off the Kahler cone: edge {edge} has q-monomial >= 1"
        )
    return sample


def jac_dimension(spec: KahlerSpec, qvals: Sequence) -> int | None:
    """dim of the Laurent Jacobian ring at exact rational q values.

    The sample is checked by ``_q_sample`` (OutOfRange off the open Kahler
    cone, naming the edge).  The value is ``edge_factorisation`` of the
    symbolic W, which holds on the whole open cone and so at this sample.
    """
    _q_sample(spec, qvals)
    return edge_factorisation(spec, superpotential(spec).w)


def verify_homomorphism(
    spec: KahlerSpec, qvals: Sequence | None = None
) -> VerificationReport:
    """Check every quantum relation and the dimension equality for one surface.

    With qvals omitted the sample is ``default_q_sample(k)``, or 2^(-t) at
    spec.sample_point off the open Kahler cone; given qvals are checked by
    ``_q_sample``.  After the sample, ``quantum_sr_relations`` raises IsP2 on
    P^2.  Membership is certified at the sample, the dimension on the whole
    cone by ``edge_factorisation`` of the symbolic W.
    """
    fan = spec.fan
    sample = _q_sample(spec, qvals)
    w = superpotential(spec).w
    relations = quantum_sr_relations(fan, spec)
    polys = []
    for pr, el in relations:
        lhs, rhs = (psi_divisor(spec, unit_vector(fan.d, i)) for i in pr)
        polys.append((lhs * rhs - psi_qh(spec, el)).specialize_q(sample))
    certs = cofactor_certificates(fan, jacobian_ideal(w.specialize_q(sample)), polys)
    return VerificationReport(
        surface=spec.name or f"{fan.d}-ray surface",
        q_sample=sample,
        linear_identity=verify_linear_identity(spec),
        relations=[(pr, cert is not None) for (pr, _), cert in zip(relations, certs)],
        dimension=edge_factorisation(spec, w),
        expected_dimension=fan.d,
    )
