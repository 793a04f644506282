"""The Landau-Ginzburg superpotential of a semi-Fano toric surface.

Each Maslov index two disk class contributes the monomial

    Z_b = exp(c_i) * q^{area(alpha)} * z^{v_i},       b = beta_i + alpha,

(the boundary of b equals the boundary of beta_i, so the z-exponent is the
ray vector), and the superpotential is the finite sum of Z_b over the classes
with n_b = 1.  Dropping the sphere corrections leaves the Hori-Vafa leading
part W_0 = sum_i Z_{beta_i}, which already is the whole potential in the Fano
case.

A divisor class D deforms W to W_D = sum_b exp<b, D> Z_b, <b, D> = D_i + D.alpha,
and the open divisor equation psi(D) = d/de W_{eD}|_{e=0} = sum_b <b, D> Z_b
is its first-order part: the map QH*(X) -> Jac(W) on divisors, the
Kodaira-Spencer map of Fukaya-Oh-Ohta-Ono (arXiv:0810.5654).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .disks import DiskClass, _checked_class, enumerate_admissible
from .errors import NonIntegralPairing, ParameterMismatch
from .fan import _memoised
from .homology import pair
from .kahler import KahlerSpec
from .laurent import LaurentPoly, QPoly, _exact, canonical_string


def z_beta(spec: KahlerSpec, b: DiskClass) -> LaurentPoly:
    """The monomial Z_b (one Laurent term, one q-monomial); b is checked as by ``open_gw``."""
    b = _checked_class(spec.fan, b)
    base = spec.disk_coefficient(b.i)
    area = spec.curve_area(b.alpha)
    exps = tuple(x + y for x, y in zip(base, area)) if any(area) else base
    return LaurentPoly.monomial(spec.k, spec.fan.ray(b.i), QPoly.monomial(spec.k, exps))


class Superpotential(namedtuple("Superpotential", "w classes")):
    """The potential w with classes, a tuple of one (DiskClass, Z_b) record per counted class."""

    __slots__ = ()


@_memoised
def superpotential(spec: KahlerSpec) -> Superpotential:
    """W = sum of Z_b over all admissible Maslov index two classes; built once per spec."""
    records = []
    w = LaurentPoly.zero(spec.k)
    for b in enumerate_admissible(spec.fan):
        term = z_beta(spec, b)
        records.append((b, term))
        w = w + term
    return Superpotential(w, tuple(records))


def hori_vafa(spec: KahlerSpec) -> LaurentPoly:
    """The leading part W_0: the records of the basic classes (alpha = 0)."""
    basic = (term for b, term in superpotential(spec).classes if not any(b.alpha))
    return sum(basic, LaurentPoly.zero(spec.k))


def _by_pairing(spec: KahlerSpec, D: Sequence) -> dict:
    """The counted Z_b summed by the value of <b, D> = D_i + D.alpha.

    D is a divisor class vector with one int or Fraction entry per ray, else
    ParameterMismatch.  Every basic class is counted and pairs to D_i, so the
    values are all integers exactly when D is integral.
    """
    fan = spec.fan
    D = _exact(D, "divisor class")
    if len(D) != fan.d:
        raise ParameterMismatch(f"divisor class with {len(D)} entries for {fan.d} rays")
    parts: dict = {}
    for b, term in superpotential(spec).classes:
        m = D[b.i - 1] + pair(fan, D, b.alpha)
        parts[m] = parts[m] + term if m in parts else term
    return parts


def psi_divisor(spec: KahlerSpec, D: Sequence) -> LaurentPoly:
    """psi(D) = sum_m m * (the Z_b with <b, D> = m); D may be rational (Fraction)."""
    terms = (part.scale(m) for m, part in _by_pairing(spec, D).items() if m)
    return sum(terms, LaurentPoly.zero(spec.k))


class BulkPotential(namedtuple("BulkPotential", "parts")):
    """Potential deformed by a divisor bulk class, grouped by pairing value.

    The dict ``parts[m]`` collects the Z_b with <b, D> = m, so the potential
    reads sum_m exp(m) * parts[m] plus the constant already folded into
    parts[0].  The symbol exp(m) is kept formal.
    """

    __slots__ = ()

    def canonical_string(self) -> str:
        if not self.parts:
            return "0"
        chunks = []
        for m in sorted(self.parts):
            body = canonical_string(self.parts[m])
            chunks.append(body if m == 0 else f"exp({m})*({body})")
        return " + ".join(chunks)


def bulk_superpotential(spec: KahlerSpec, a=0, D: Sequence | None = None) -> BulkPotential:
    """a + sum over counted b of exp(<b, D>) * Z_b for a divisor class D.

    a must be an int or a Fraction and D must have one such entry per ray,
    else ParameterMismatch; D must be integral, else NonIntegralPairing.
    """
    (a,) = _exact((a,), "bulk constant")
    parts = _by_pairing(spec, (0,) * spec.fan.d if D is None else D)
    if any(m.denominator != 1 for m in parts):  # an integral D pairs to ints
        raise NonIntegralPairing("bulk divisor class must be integral")
    if a:
        parts[0] = parts.get(0, LaurentPoly.zero(spec.k)) + LaurentPoly.constant(spec.k, a)
    return BulkPotential(parts)
