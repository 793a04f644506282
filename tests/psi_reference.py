"""psi in the pairing form of the open divisor equation, used only by the tests.

psi(D) = sum_b (D_i + sum_k alpha_k (D.D_k)) Z_b, one term per counted class
b = beta_i + alpha, with D.D_k read off ``homology.profile``.  The package
sums the Z_b by pairing value first (``potential.psi_divisor``); this sum
shares only the class list and the monomials Z_b with it.
"""

from __future__ import annotations

from sftoric.disks import enumerate_admissible
from sftoric.homology import profile
from sftoric.laurent import LaurentPoly
from sftoric.potential import z_beta


def psi_by_pairing(spec, D) -> LaurentPoly:
    """sum over the counted b of <b, D> Z_b, term by term."""
    fan = spec.fan
    dots = profile(fan, D)
    out = LaurentPoly.zero(spec.k)
    for b in enumerate_admissible(fan):
        weight = D[b.i - 1] + sum(a * x for a, x in zip(b.alpha, dots))
        out = out + z_beta(spec, b).scale(weight)
    return out
