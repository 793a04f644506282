"""Open Gromov-Witten invariants, Landau-Ginzburg superpotentials and quantum
cohomology of semi-Fano toric surfaces, in exact arithmetic."""

from .disks import DiskClass, enumerate_admissible, open_gw
from .fan import Fan, classify_semi_fano, fans_isomorphic
from .kahler import KahlerSpec
from .laurent import LaurentPoly, QPoly, canonical_string
from .potential import bulk_superpotential, hori_vafa, psi_divisor, superpotential, z_beta
from .quantum import quantum_product, quantum_sr_relations
from .surfaces import BUNDLED, load_bundled, parse_surface
from .verifier import jac_dimension, verify_homomorphism, verify_linear_identity

__all__ = [
    "BUNDLED",
    "DiskClass",
    "Fan",
    "KahlerSpec",
    "LaurentPoly",
    "QPoly",
    "bulk_superpotential",
    "canonical_string",
    "classify_semi_fano",
    "enumerate_admissible",
    "fans_isomorphic",
    "hori_vafa",
    "jac_dimension",
    "load_bundled",
    "open_gw",
    "parse_surface",
    "psi_divisor",
    "quantum_product",
    "quantum_sr_relations",
    "superpotential",
    "verify_homomorphism",
    "verify_linear_identity",
    "z_beta",
]

__version__ = "0.1.0"
