"""Stable orbital integrals, L-packet sums, the continuity limit at the
identity, and formal degrees.

Summed over the coset translates v.g, the W_K numerators of tau make up the
W numerator, and D(v.g) = sign(v) D(g), so the stable integral is one W-orbit
sum, (-1)^m spin_sign N_W(lambda_hc)(g) / D(g): tau's kernel with
``ktrace.w_orbit``, which builds no group element and gives a parameter on a
wall the empty orbit, an exact zero.  On a compact form W = W_K, and the
numerator takes tau's route (``ktrace.stable_numerator``).  ``lpacket_sum`` keeps the coset route,
the independent side of its packet/stable guard.

Toward the identity along a ray s d, the numerator and D both vanish to order
|R^+|; ``limit_at_identity`` returns the quotient's leading Taylor coefficient
exactly, from integer moments of the same cached W orbit, so no sample is
evaluated.  Whatever the direction off the walls, it is (-1)^m spin_sign
prod <lambda_hc, alpha>/<rho, alpha> over the positive system: up to sign the
formal degree of a discrete-series parameter, and 0 on a singular one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .errors import ConsistencyError, LimitPathError, ValidationError
from .ktrace import class_sum, lds_value, stable_numerator, w_orbit
from .ktrace import tau_class  # noqa: F401 - unused here, but benchmarks/selfcheck.py wraps stable.tau_class
from .realform import (
    KClass,
    RealFormSpec,
    coset_reps,
    generator_key,
    hc_parameter,
    is_regular_param,
    rho_c,
)
from .rootsys import Weight, dimension_ratio, integer_pairings, positive_roots
from .toruschar import TorusPoint, _csum, root_factors, transformed_system

PACKET_TOL = 1e-10


def stable_tau(spec: RealFormSpec, x: KClass, g: TorusPoint) -> complex:
    """Stable orbital integral: the sum of tau over the ordinary conjugacy
    classes inside the stable class of g, as one W-orbit numerator over D(g)
    per term of the class (see the module docstring)."""
    return class_sum(spec, x, g, stable_numerator)


def lpacket_sum(spec: RealFormSpec, lam_hc: Weight, g: TorusPoint) -> complex:
    """Sum of the (limit of) discrete-series characters in the packet of lam_hc:
    per coset representative v, the character of v(lam_hc) on v(R^+), all from
    the root factors of g.  Checked against ``stable_tau`` of the generator
    lam_hc - rho_c whenever that is a valid key."""
    if lam_hc.rank != spec.rank:
        raise ValidationError("weight rank does not match the real form")
    pos = spec.positive_system
    factors = root_factors(g, pos)
    total = _csum(
        lds_value(spec, v.apply(lam_hc), transformed_system(v, pos), g, factors)
        for v in coset_reps(spec)
    )
    try:
        key = generator_key(spec, lam_hc - rho_c(spec))
    except ValidationError:
        key = None
    if key is not None:
        other = stable_tau(spec, KClass.generator(key), g)
        if abs(total - other) > max(PACKET_TOL, 1e-12 * max(1.0, abs(total), abs(other))):
            raise ConsistencyError(
                f"packet sum and stable integral disagree by {abs(total - other):.3e}"
            )
    return total


# ---------------------------------------------------------------------------
# limits at the identity

def limit_at_identity(spec: RealFormSpec, x: KClass, direction: Sequence) -> Fraction:
    """The limit of ``stable_tau(spec, x, s d)`` as s -> 0+, exactly, for a
    rational (or float, taken exactly) direction d = n/q with integers n.

    On the ray each W-orbit image u pairs as s A_u/q, A_u = sum_j c2_j(u) n_j,
    and each root factor is 2i sin(pi s U_alpha/2q), U_alpha = sum_j
    alpha.coords2_j n_j.  The moments sum_u eps_u A_u^k vanish for k < N = |R^+|,
    so the quotient tends to (-1)^m spin_sign sum_u eps_u A_u^N / (N! prod U_alpha),
    term by term of the class.  Some U_alpha = 0 puts the ray in a wall: LimitPathError."""
    if len(direction) != spec.rank:
        raise ValidationError("direction rank does not match the real form")
    q = math.lcm(*(Fraction(c).denominator for c in direction))
    ns = [int(Fraction(c) * q) for c in direction]
    walls = [sum(map(mul, alpha.coords2, ns)) for alpha in spec.positive_system]
    if 0 in walls:
        alpha = spec.positive_system[walls.index(0)]
        raise LimitPathError(f"the direction lies on the wall of root {alpha}")
    total = 0
    for key, coeff in x.terms:
        orbit = w_orbit(spec, hc_parameter(spec, key))
        terms = zip(orbit.signs, zip(*[iter(orbit.coords)] * orbit.rank))
        total += coeff * sum(sign * sum(map(mul, u, ns)) ** len(walls) for sign, u in terms)
    sign = (-1) ** (spec.dim_gk // 2) * spec.spin_sign
    return sign * Fraction(total, math.factorial(len(walls)) * math.prod(walls))


def formal_degree(spec: RealFormSpec, lam_hc: Weight) -> Fraction:
    """Magnitude of the dimension-product formula at the parameter; zero exactly
    when the parameter is singular.  Haar normalizations are not modeled."""
    return abs(dimension_ratio(spec.datum, lam_hc, positive_roots(spec.datum)))


def tau_e(spec: RealFormSpec, x: KClass) -> Fraction:
    """The identity-element functional: formal degrees on discrete-series
    generators (regular parameter), zero on everything else."""
    total = Fraction(0)
    for key, coeff in x.terms:
        lam_hc = hc_parameter(spec, key)
        if is_regular_param(spec, lam_hc):
            total += coeff * formal_degree(spec, lam_hc)
    return total


class ContinuityReport(NamedTuple):
    limit: Fraction
    tau_e_value: Fraction
    passed: bool
    deviation: Fraction  # |limit - signed tau_e|


def continuity_check(spec: RealFormSpec, x: KClass, direction: Sequence) -> ContinuityReport:
    """The exact limit along the ray against tau_e signed term by term as the
    limit is: a generator's limit is eps tau_e, eps = (-1)^m spin_sign times
    the sign of prod <lambda_hc, alpha> over the positive system, so a class
    whose terms have limits of both signs passes too."""
    limit = limit_at_identity(spec, x, direction)
    sign = (-1) ** (spec.dim_gk // 2) * spec.spin_sign
    signed = 0
    for key, coeff in x.terms:
        product = math.prod(integer_pairings(spec.datum, hc_parameter(spec, key), spec.positive_system))
        signed += coeff * sign * ((product > 0) - (product < 0)) * tau_e(spec, KClass.generator(key))
    deviation = abs(limit - signed)
    return ContinuityReport(limit, tau_e(spec, x), deviation == 0, deviation)
