"""The orbital-integral functional tau_g on K-theory classes: generator values
via the fixed-point character formula, vanishing off the elliptic set, class
distinguishing by random sampling, and (limits of) discrete-series characters.

Every tau value comes from one batch kernel, ``tau_grid``: per torus point it
takes the root factors once (``toruschar.root_factors``) and forms the Weyl
denominator and its compact and noncompact parts from them; per generator it
adds only the alternating numerator over the cached W_K orbit of the
Harish-Chandra parameter.  (Limit-of-)discrete-series characters use the
same factors and orbits.

``wk_orbit`` builds each orbit by reflecting the weight itself in the
compact simple roots, so no element of W_K (or of W) is built for an
evaluation.  A parameter on a compact wall gets the empty orbit: its
alternating sum vanishes identically.
"""

from __future__ import annotations

import functools
import random
from array import array
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import ConsistencyError, ValidationError
from .realform import (
    GeneratorKey,
    KClass,
    RealFormSpec,
    hc_parameter,
    weyl_k,  # noqa: F401 - unused here, but benchmarks/selfcheck.py wraps ktrace.weyl_k
)
from .rootsys import (
    CartanDatum,
    Weight,
    _subsystem_simples,
    positive_roots,
    reflection,
    sparse_reflections,
)
from .toruschar import (
    ConjugacyDescriptor,
    RootFactors,
    SignedOrbit,
    TorusPoint,
    _csum,
    is_regular,
    orbit_sum,
    root_factors,
    serialize_torus_point,
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


class TauValue(NamedTuple):
    """Orbital-integral value at a generator, recorded along both routes:
    path_a is the direct numerator/denominator quotient, path_b goes through
    the compact character divided by the spinor character.  conditioning is
    min |2 sin(pi <alpha/2, t>)| over the positive roots."""

    value: complex
    path_a: complex
    path_b: complex
    conditioning: float

    @property
    def agreement(self) -> float:
        return abs(self.path_a - self.path_b)


@functools.lru_cache(maxsize=None)
def _compact_steps(spec: RealFormSpec) -> tuple:
    """The reflections in the compact simple roots, s(v) = v - <v, beta^vee> beta,
    in the sparse form of ``rootsys.sparse_reflections``."""
    simples = _subsystem_simples(spec.compact_positive)
    return tuple(sparse_reflections([reflection(spec.datum, beta) for beta in simples]))


@functools.lru_cache(maxsize=4096)
def wk_orbit(spec: RealFormSpec, lam_hc: Weight) -> SignedOrbit:
    """The signed W_K orbit of a Harish-Chandra parameter, built once.

    Breadth-first over the compact simple reflections applied to lam_hc
    itself: an image first reached at depth d is w(lam_hc) for a unique w of
    length d, so its sign is (-1)^d.  When a reflection fixes an image,
    lam_hc lies on a compact wall, each term cancels against its reflected
    partner, and the orbit is empty.
    """
    steps = _compact_steps(spec)
    start = lam_hc.coords2
    seen = {start}
    frontier = [start]
    coords = list(start)
    signs = [1]
    sign = 1
    while frontier:
        sign = -sign
        nxt = []
        for v in frontier:
            for a_terms, c_terms in steps:
                k = 0
                for j, cj in c_terms:
                    k += cj * v[j]
                if k == 0:
                    return SignedOrbit(lam_hc.rank, (), ())
                image = list(v)
                for j, aj in a_terms:
                    image[j] -= k * aj
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
                    coords.extend(image)
                    signs.append(sign)
        frontier = nxt
    try:
        packed = array("i", coords)
    except OverflowError:  # coordinates beyond 32 bits stay Python ints
        packed = coords
    return SignedOrbit(lam_hc.rank, packed, array("b", signs))


@functools.lru_cache(maxsize=None)
def _root_positions(spec: RealFormSpec) -> tuple[tuple[int, ...], tuple[int, ...], dict]:
    """Positions in ``positive_system`` of the compact and the noncompact
    positive roots (in the spec's orders), and root -> (position, sign) for
    every root."""
    index = {}
    for i, alpha in enumerate(spec.positive_system):
        index[alpha] = (i, 1)
        index[-alpha] = (i, -1)
    compact = tuple(index[alpha][0] for alpha in spec.compact_positive)
    noncompact = tuple(index[alpha][0] for alpha in spec.noncompact_positive)
    return compact, noncompact, index


def _tau_rows(
    spec: RealFormSpec, keys: Sequence[GeneratorKey], points: Sequence[TorusPoint]
) -> Iterator[tuple[RootFactors, list[tuple[complex, complex]]]]:
    """Per point, its root factors and (path_a, path_b) for every key, each
    pair checked against DUAL_PATH_TOL."""
    orbits = [wk_orbit(spec, hc_parameter(spec, key)) for key in keys]
    pos = spec.positive_system
    compact, noncompact, _ = _root_positions(spec)
    every = range(len(pos))
    m = spec.dim_gk // 2
    sign = (-1) ** m * spec.spin_sign
    for g in points:
        factors = root_factors(g, pos)
        denom = factors.product(every)
        denom_c = factors.product(compact)
        delta_p = spec.spin_sign * factors.product(noncompact)
        pairs = []
        for orbit in orbits:
            numer = orbit_sum(orbit, g)
            path_a = sign * numer / denom
            # path_b factors the same numerator as the compact character over the spinor
            path_b = (-1) ** m * (numer / denom_c) / delta_p
            scale = max(1.0, abs(path_a), abs(path_b))
            if abs(path_a - path_b) > max(DUAL_PATH_TOL, 1e-12 * scale):
                raise ConsistencyError(
                    f"dual-path disagreement {abs(path_a - path_b):.3e} at {g}"
                )
            pairs.append((path_a, path_b))
        yield factors, pairs


def tau_grid(
    spec: RealFormSpec, keys: Sequence[GeneratorKey], points: Sequence[TorusPoint]
) -> list[tuple[complex, ...]]:
    """tau_g on several generators at several torus points: entry [i][j] is the
    value of keys[i] at points[j].

    Sharing: each point's positive roots are paired with it once, which gives
    the singular guard and the root factors; the Weyl denominator D, its
    compact part D_c and the spinor character D_n come from those factors and
    serve every key.  Per key and point only the numerator is summed, over the
    W_K orbit of lambda_hc, cached per (spec, lambda_hc) in W_K element order
    with repeated weights kept.

    Bit-identity: every value equals, bit for bit, the per-key formula
    (-1)^m spin_sign * weyl_numerator(lambda_hc, g, W_K) / weyl_denominator(g, R^+)
    after guard_nonsingular(g, R^+), with the dual-path check against
    (-1)^m (numer / weyl_denominator(g, R_c^+)) / delta_p_char(g) kept per key
    and point.  Exact points are decided exactly; real points keep the
    SINGULAR_GUARD threshold and real arithmetic.  Errors are raised at the
    first failing point, in point order; with no keys nothing is evaluated.
    """
    columns: list[list[complex]] = [[] for _ in keys]
    if keys:
        for _, pairs in _tau_rows(spec, keys, points):
            for column, (value, _) in zip(columns, pairs):
                column.append(value)
    return [tuple(column) for column in columns]


def tau_generator(spec: RealFormSpec, key: GeneratorKey, g: TorusPoint) -> TauValue:
    """tau_g on a single Dirac-induction generator, from the per-point kernel
    of ``tau_grid``, with both routes and the point's conditioning.

    Exact points must be regular; real-mode points (limit paths) rely on the
    denominator-magnitude guard instead.
    """
    factors, [(path_a, path_b)] = next(_tau_rows(spec, [key], [g]))
    return TauValue(path_a, path_a, path_b, factors.conditioning)


def tau_class(spec: RealFormSpec, x: KClass, descriptor: ConjugacyDescriptor) -> complex:
    """tau on a K-theory class: linear in the class on elliptic points, and
    identically zero on non-elliptic and unequal-rank-ambient classes."""
    if descriptor.kind != "elliptic":
        return complex(0)
    values = tau_grid(spec, [key for key, _ in x.terms], [descriptor.point])
    return _csum(coeff * column[0] for (_, coeff), column in zip(x.terms, values))


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


class ZeroVerdict(NamedTuple):
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
    return lds_value(spec, lam_hc, system, g, root_factors(g, spec.positive_system))


def lds_value(
    spec: RealFormSpec,
    lam_hc: Weight,
    system: Sequence[Weight],
    g: TorusPoint,
    factors: RootFactors,
) -> complex:
    """``lds_character`` from the root factors of ``spec.positive_system`` at g,
    for a system already known to be valid."""
    _, _, index = _root_positions(spec)
    denom = complex(1.0)
    for beta in system:
        denom *= factors.factor(*index[beta])
    m = spec.dim_gk // 2
    numer = orbit_sum(wk_orbit(spec, lam_hc), g)
    return (-1) ** m * spec.spin_sign * numer / denom


def lds_character_sum(
    spec: RealFormSpec, lam_hc: Weight, systems: Sequence[Sequence[Weight]], g: TorusPoint
) -> complex:
    """Sum of lds_character over the supplied positive systems (the character of
    the corresponding induced representation, which vanishes when it is reducible)."""
    return _csum(lds_character(spec, lam_hc, system, g) for system in systems)
