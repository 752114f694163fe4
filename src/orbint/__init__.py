"""Orbital-integral functionals on K-theory classes of equal-rank semisimple
Lie groups, evaluated in closed form from root-system data.

Layers: rootsys (exact root systems and Weyl groups), realform (compact /
noncompact splits and generator indexing), toruschar (torus exponentials and
fixed-point sums), ktrace (the tau functionals), stable (stable integrals and
identity limits), tannaka (reconstruction from sampled tau-functions).
"""

from .errors import (
    ConsistencyError,
    LimitPathError,
    ReconstructionError,
    SingularPointError,
    ValidationError,
)
from .realform import KClass, RealFormSpec, generator_key, real_form
from .rootsys import CartanDatum, Weight, build_datum, weight_from_fundamental
from .toruschar import ConjugacyDescriptor, TorusPoint, parse_torus_point

__all__ = [
    "CartanDatum",
    "ConjugacyDescriptor",
    "ConsistencyError",
    "KClass",
    "LimitPathError",
    "RealFormSpec",
    "ReconstructionError",
    "SingularPointError",
    "TorusPoint",
    "ValidationError",
    "Weight",
    "build_datum",
    "generator_key",
    "parse_torus_point",
    "real_form",
    "weight_from_fundamental",
]

__version__ = "0.1.0"
