"""The orbital-integral functional tau_g on K-theory classes: generator values
via the fixed-point character formula, vanishing off the elliptic set, class
distinguishing by random sampling, and (limits of) discrete-series characters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConsistencyError, ValidationError
from .realform import (
    GeneratorKey,
    KClass,
    RealFormSpec,
    hc_parameter,
    weyl_k,
)
from .rootsys import CartanDatum, Weight, positive_roots
from .toruschar import (
    ConjugacyDescriptor,
    TorusPoint,
    _csum,
    char_quotient,
    delta_p_char,
    guard_nonsingular,
    is_regular,
    serialize_torus_point,
    weyl_denominator,
    weyl_numerator,
)

# Two independently computed routes to the same number must agree this well.
DUAL_PATH_TOL = 1e-10
# Verdict threshold for class_is_zero witnesses.
WITNESS_TOL = 1e-8


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return tuple(i for i, f in enumerate(flags) if f)


PRIMES = tuple(p for p in _sieve(997) if p >= 5)


@dataclass(frozen=True)
class TauValue:
    """Orbital-integral value at a generator, recorded along both routes:
    path_a is the direct numerator/denominator quotient, path_b goes through
    the compact character divided by the spinor character."""

    value: complex
    path_a: complex
    path_b: complex

    @property
    def agreement(self) -> float:
        return abs(self.path_a - self.path_b)


def tau_generator(spec: RealFormSpec, key: GeneratorKey, g: TorusPoint) -> TauValue:
    """tau_g on a single Dirac-induction generator.

    Exact points must be regular; real-mode points (limit paths) rely on the
    denominator-magnitude guard instead.
    """
    full_pos = spec.positive_system
    guard_nonsingular(g, full_pos)
    lam_hc = hc_parameter(spec, key)
    m = spec.dim_gk // 2
    sign = (-1) ** m * spec.spin_sign
    group_k = weyl_k(spec)
    numer = weyl_numerator(lam_hc, g, group_k)
    path_a = sign * numer / weyl_denominator(g, full_pos)
    chi_v = char_quotient(lam_hc, g, group_k, spec.compact_positive)
    path_b = (-1) ** m * chi_v / delta_p_char(g, spec)
    scale = max(1.0, abs(path_a), abs(path_b))
    if abs(path_a - path_b) > max(DUAL_PATH_TOL, 1e-12 * scale):
        raise ConsistencyError(
            f"dual-path disagreement {abs(path_a - path_b):.3e} at {g}"
        )
    return TauValue(path_a, path_a, path_b)


def tau_class(spec: RealFormSpec, x: KClass, descriptor: ConjugacyDescriptor) -> complex:
    """tau on a K-theory class: linear in the class on elliptic points, and
    identically zero on non-elliptic and unequal-rank-ambient classes."""
    if descriptor.kind != "elliptic":
        return complex(0)
    g = descriptor.point
    return _csum(coeff * tau_generator(spec, key, g).value for key, coeff in x.terms)


def random_regular_point(
    datum: CartanDatum, rng: random.Random, q_max: int = 997
) -> TorusPoint:
    """Pseudo-random exact-regular torus point with prime-denominator coordinates."""
    primes = [p for p in PRIMES if p <= q_max]
    for _ in range(1000):
        q = rng.choice(primes)
        pt = TorusPoint.exact_point(Fraction(rng.randrange(1, q), q) for _ in range(datum.rank))
        if is_regular(pt, datum):
            return pt
    raise ValidationError("could not draw a regular point (degenerate datum?)")


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of random-sampling a class against zero; deterministic per seed."""

    is_zero: bool
    witness: TorusPoint | None
    witness_value: complex | None
    samples_used: int


def class_is_zero(
    spec: RealFormSpec, x: KClass, samples: int = 20, seed: int = 0
) -> ZeroVerdict:
    """Evaluate tau at seeded random exact-regular points; the first value with
    |tau| above the witness threshold certifies the class nonzero."""
    if x.is_zero:
        return ZeroVerdict(True, None, None, 0)
    rng = random.Random(seed)
    for used in range(1, samples + 1):
        g = random_regular_point(spec.datum, rng)
        value = tau_class(spec, x, ConjugacyDescriptor.elliptic(g))
        if abs(value) > WITNESS_TOL:
            return ZeroVerdict(False, g, value, used)
    return ZeroVerdict(True, None, None, samples)


def tau_value_to_json(value: TauValue) -> dict:
    return {
        "value": value.value,
        "path_a": value.path_a,
        "path_b": value.path_b,
    }


def zero_verdict_to_json(verdict: ZeroVerdict) -> dict:
    record: dict = {
        "is_zero": verdict.is_zero,
        "samples_used": verdict.samples_used,
    }
    if verdict.witness is not None:
        record["witness"] = serialize_torus_point(verdict.witness)
        record["witness_value"] = verdict.witness_value
    return record


def _validate_positive_system(spec: RealFormSpec, system: Sequence[Weight]) -> None:
    pos = positive_roots(spec.datum)
    pos_set = set(pos)
    if len(system) != len(pos):
        raise ValidationError("a positive system must contain one root per positive root")
    seen = set()
    for alpha in system:
        base = alpha if alpha in pos_set else -alpha
        if base not in pos_set:
            raise ValidationError(f"{alpha} is not a root")
        if base in seen:
            raise ValidationError(f"positive system repeats the pair of {alpha}")
        seen.add(base)


def lds_character(
    spec: RealFormSpec, lam_hc: Weight, system: Sequence[Weight], g: TorusPoint
) -> complex:
    """Coherently-continued (limit of) discrete-series character value at g,
    for the Harish-Chandra parameter lam_hc and the chosen positive system."""
    _validate_positive_system(spec, system)
    guard_nonsingular(g, spec.positive_system)
    m = spec.dim_gk // 2
    numer = weyl_numerator(lam_hc, g, weyl_k(spec))
    return (-1) ** m * spec.spin_sign * numer / weyl_denominator(g, system)


def lds_character_sum(
    spec: RealFormSpec, lam_hc: Weight, systems: Sequence[Sequence[Weight]], g: TorusPoint
) -> complex:
    """Sum of lds_character over the supplied positive systems (the character of
    the corresponding induced representation, which vanishes when it is reducible)."""
    return _csum(lds_character(spec, lam_hc, system, g) for system in systems)
