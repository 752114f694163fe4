"""Stable orbital integrals, L-packet sums, the continuity limit at the
identity, and formal degrees.

Summed over the coset translates v.g, the W_K numerators of tau make up the
W numerator, and D(v.g) = sign(v) D(g), so the stable integral is one W-orbit
sum, (-1)^m spin_sign N_W(lambda_hc)(g) / D(g): tau's kernel with
``ktrace.w_orbit``, which builds no group element and gives a parameter on a
wall the empty orbit, an exact zero.  ``lpacket_sum`` keeps the coset route,
the independent side of its packet/stable guard.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .errors import ConsistencyError, LimitPathError, SingularPointError, ValidationError
from .ktrace import class_sum, lds_value, w_orbit
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
from .rootsys import Weight, pairing, positive_roots, rho
from .toruschar import TorusPoint, _csum, root_factors, transformed_system

PACKET_TOL = 1e-10


def stable_tau(spec: RealFormSpec, x: KClass, g: TorusPoint) -> complex:
    """Stable orbital integral: the sum of tau over the ordinary conjugacy
    classes inside the stable class of g, as one W-orbit numerator over D(g)
    per term of the class (see the module docstring)."""
    return class_sum(spec, x, g, w_orbit)


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

class LimitReport(NamedTuple):
    """Richardson-extrapolated limit along a ray toward the identity."""

    direction: TorusPoint
    samples: tuple[tuple[float, complex], ...]
    extrapolated: complex
    residual: float


def richardson(values: Sequence, order: int = 3) -> list:
    """Last column of the Neville table that extrapolates samples at halving
    scales t_k = t_0 2^{-k} to t = 0, at most ``order`` columns deep.  With
    t_{k-j} = 2^j t_k the update is the classical Richardson form
    (2^j T[k][j-1] - T[k-1][j-1]) / (2^j - 1)."""
    column = list(values)
    for j in range(1, min(order, len(column) - 1) + 1):
        factor = 2.0**j
        column = [
            (factor * column[i] - column[i - 1]) / (factor - 1.0) for i in range(1, len(column))
        ]
    return column


def limit_at_identity(
    evaluator: Callable[[TorusPoint], complex],
    direction: TorusPoint,
    start_scale: float = 1e-2,
    levels: int = 6,
    order: int = 3,
) -> LimitReport:
    """Evaluate along t_k = start_scale * 2^{-k} times the direction and
    extrapolate polynomially (Neville to 0, geometric Richardson) at the given order."""
    if direction.exact:
        direction = TorusPoint.real_point(float(c) for c in direction.coords)
    if levels < 1:
        raise ValidationError("need at least two scales to extrapolate")
    scales = [start_scale * 2.0 ** (-k) for k in range(levels + 1)]
    samples = []
    for s in scales:
        point = direction.scaled(s)
        try:
            samples.append((s, complex(evaluator(point))))
        except SingularPointError as err:
            raise LimitPathError(
                f"limit path hit the singular locus at scale {s} ({err}); "
                "choose a different direction"
            ) from err
    final = richardson([v for _, v in samples], order)
    extrapolated = final[-1]
    residual = abs(final[-1] - final[-2]) if len(final) >= 2 else 0.0
    return LimitReport(direction, tuple(samples), extrapolated, residual)


def formal_degree(spec: RealFormSpec, lam_hc: Weight) -> Fraction:
    """Magnitude of the dimension-product formula at the parameter; zero exactly
    when the parameter is singular.  Haar normalizations are not modeled."""
    pos = positive_roots(spec.datum)
    if not pos:
        return Fraction(1)
    r = rho(pos)
    num = Fraction(1)
    den = Fraction(1)
    for alpha in pos:
        num *= pairing(spec.datum, lam_hc, alpha)
        den *= pairing(spec.datum, r, alpha)
    return abs(num / den)


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
    limit: LimitReport
    tau_e_value: Fraction
    deviation: float
    passed: bool


def continuity_check(
    spec: RealFormSpec,
    x: KClass,
    direction: TorusPoint,
    start_scale: float = 1e-2,
    levels: int = 6,
) -> ContinuityReport:
    """Compare the extrapolated stable integral along the ray against the
    identity-element value, in magnitude."""
    report = limit_at_identity(
        lambda point: stable_tau(spec, x, point), direction, start_scale, levels
    )
    expected = tau_e(spec, x)
    deviation = abs(abs(report.extrapolated) - abs(float(expected)))
    tol = max(1e-6, 1e-6 * abs(float(expected)))
    return ContinuityReport(report, expected, deviation, deviation <= tol)
