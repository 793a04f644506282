"""The Landau-Ginzburg superpotential of a semi-Fano toric surface.

Each Maslov index two disk class contributes the monomial

    Z_b = exp(c_i) * q^{area(alpha)} * z^{v_i},       b = beta_i + alpha,

(the boundary of b equals the boundary of beta_i, so the z-exponent is the
ray vector), and the superpotential is the finite sum of Z_b over the classes
with n_b = 1.  Dropping the sphere corrections leaves the Hori-Vafa leading
part W_0 = sum_i Z_{beta_i}, which already is the whole potential in the Fano
case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .disks import DiskClass, enumerate_admissible
from .errors import NonIntegralPairing, ParameterMismatch
from .fan import Fan
from .homology import pair
from .kahler import KahlerSpec
from .laurent import LaurentPoly, QPoly, canonical_string


def z_beta(spec: KahlerSpec, b: DiskClass) -> LaurentPoly:
    """The monomial Z_b (a single Laurent term with a single q-monomial)."""
    base = spec.disk_coefficient(b.i)
    area = spec.curve_area(b.alpha)
    exps = tuple(x + y for x, y in zip(base, area)) if any(area) else base
    return LaurentPoly.monomial(spec.k, spec.fan.ray(b.i), QPoly.monomial(spec.k, exps))


def disk_pairing(fan: Fan, D: Sequence, b: DiskClass):
    """<b, D> = D_i + D.alpha for the disk class b = beta_i + alpha."""
    return D[b.i - 1] + pair(fan, D, b.alpha)


@dataclass(slots=True)
class Superpotential:
    """The potential together with one provenance record per counted class."""

    w: LaurentPoly
    classes: list[tuple[DiskClass, LaurentPoly]] = field(default_factory=list)


def superpotential(spec: KahlerSpec) -> Superpotential:
    """W = sum of Z_b over all admissible Maslov index two classes."""
    records = []
    w = LaurentPoly.zero(spec.k)
    for b in enumerate_admissible(spec.fan):
        term = z_beta(spec, b)
        records.append((b, term))
        w = w + term
    return Superpotential(w, records)


def hori_vafa(spec: KahlerSpec) -> LaurentPoly:
    """The leading part W_0: basic disk classes only."""
    w = LaurentPoly.zero(spec.k)
    for i in range(1, spec.fan.d + 1):
        w = w + z_beta(spec, DiskClass.basic(spec.fan, i))
    return w


@dataclass
class BulkPotential:
    """Potential deformed by a divisor bulk class, grouped by pairing value.

    ``parts[m]`` collects the Z_b with <b, D> = m, so the potential reads
    sum_m exp(m) * parts[m] plus the constant already folded into parts[0].
    The symbol exp(m) is kept formal.
    """

    k: int
    parts: dict[int, LaurentPoly]

    def canonical_string(self) -> str:
        if not self.parts:
            return "0"
        chunks = []
        for m in sorted(self.parts):
            body = canonical_string(self.parts[m])
            chunks.append(body if m == 0 else f"exp({m})*({body})")
        return " + ".join(chunks)


def bulk_superpotential(spec: KahlerSpec, a=0, D: Sequence | None = None) -> BulkPotential:
    """a + sum over admissible b of exp(<b, D>) * Z_b for a divisor class D.

    The terms Z_b are those of ``superpotential``.  D must have one entry
    per ray, else ParameterMismatch, and be integral, else NonIntegralPairing.
    """
    pot = superpotential(spec)
    d = spec.fan.d
    if D is None:
        D = (0,) * d
    D = tuple(D)
    if len(D) != d:
        raise ParameterMismatch(f"divisor class with {len(D)} entries for {d} rays")
    if any(Fraction(m).denominator != 1 for m in D):
        raise NonIntegralPairing("bulk divisor class must be integral")
    D = tuple(int(m) for m in D)
    parts: dict[int, LaurentPoly] = {}
    for b, term in pot.classes:
        m = disk_pairing(spec.fan, D, b)
        parts[m] = parts[m] + term if m in parts else term
    a = Fraction(a)
    if a:
        parts[0] = parts.get(0, LaurentPoly.zero(spec.k)) + LaurentPoly.constant(spec.k, a)
    return BulkPotential(spec.k, {m: p for m, p in parts.items() if not p.is_zero()})
