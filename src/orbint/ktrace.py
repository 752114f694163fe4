"""The orbital-integral functional tau_g on K-theory classes: generator values
via the fixed-point character formula, vanishing off the elliptic set, class
distinguishing by random sampling, and (limits of) discrete-series characters.

Every tau value comes from one per-point body, ``_checked_rows``: from a
point's root factors, taken once with the singular guard, it forms the Weyl
denominator and its compact and noncompact parts; per generator it adds only
the alternating numerator over a cached orbit of the Harish-Chandra
parameter, the W_K orbit (``wk_orbit``) for tau and the W orbit
(``w_orbit``) for the stable integral.  Both orbits walk the weight itself
through simple reflections (``rootsys.reflection_orbit``), so an evaluation
builds no group element, and a parameter on a wall of the group gets the
empty orbit: its alternating sum vanishes identically.

``tau_grid`` feeds it scattered points, whose numerator phases stay
Fractions (``toruschar.orbit_sum``): integer ones are faster, but the
``tau_exact`` benchmark keeps every pass's results, so its peak RSS would pass
its bound.  ``tau_lattice`` feeds it the synthesis lattice t = n/q, each phase
an integer k mod 2q read from one table zeta[k] = e^{i pi k/q}
(``toruschar.Zeta``); k/q is one correctly rounded division, so the doubles
are the same.
"""

from __future__ import annotations

import functools
import random
from array import array
from fractions import Fraction
from itertools import chain, product
from operator import mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ConsistencyError, SingularPointError, ValidationError
from .realform import (
    GeneratorKey,
    KClass,
    RealFormSpec,
    compact_steps,
    hc_parameter,
    weyl_k,  # noqa: F401 - unused here, but benchmarks/selfcheck.py wraps ktrace.weyl_k
)
from .rootsys import (
    CartanDatum,
    Weight,
    positive_roots,
    reflection_orbit,
    simple_steps,
)
from .toruschar import (
    ConjugacyDescriptor,
    RootFactors,
    SignedOrbit,
    TorusPoint,
    Zeta,
    _csum,
    is_regular,
    orbit_sum,
    root_factors,
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


def _signed_orbit(steps: tuple, lam: Weight) -> SignedOrbit:
    """The walk of lam under the steps, packed: an image first reached at depth
    d is w(lam) for a unique w of length d, so its sign is (-1)^d.  When a
    reflection fixes an image, lam lies on a wall of the group, each term
    cancels against its reflected partner, and the orbit is empty."""
    walk = reflection_orbit(steps, lam.coords2)
    if walk is None:
        return SignedOrbit(lam.rank, (), ())
    images, _, _, depths = walk
    coords = list(chain.from_iterable(images))
    try:
        packed = array("i", coords)
    except OverflowError:  # coordinates beyond 32 bits stay Python ints
        packed = coords
    return SignedOrbit(lam.rank, packed, array("b", [-1 if d & 1 else 1 for d in depths]))


@functools.lru_cache(maxsize=4096)
def wk_orbit(spec: RealFormSpec, lam_hc: Weight) -> SignedOrbit:
    """The signed W_K orbit of a Harish-Chandra parameter, built once by
    reflecting it in the compact simple roots; empty on a compact wall."""
    return _signed_orbit(compact_steps(spec), lam_hc)


@functools.lru_cache(maxsize=4096)
def w_orbit(spec: RealFormSpec, lam_hc: Weight) -> SignedOrbit:
    """The signed W orbit of a Harish-Chandra parameter, built once by reflecting
    it in the simple roots; empty for a singular parameter (a limit of discrete
    series).  On a compact form W_K = W, and this is ``wk_orbit``'s orbit."""
    if spec.is_compact:
        return wk_orbit(spec, lam_hc)
    return _signed_orbit(simple_steps(spec.datum), lam_hc)


OrbitBuilder = Callable[[RealFormSpec, Weight], SignedOrbit]


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


def _checked_rows(spec: RealFormSpec, rows: Iterable[tuple], point_of: Callable = lambda g: g) -> Iterator:
    """Per row (point, root factors taken with the guard, each key's numerator):
    the factors and each key's (path_a, path_b) from D, D_c and D_n, checked
    against DUAL_PATH_TOL.  A ConsistencyError names ``point_of(point)``."""
    compact, noncompact, _ = _root_positions(spec)
    every = range(len(spec.positive_system))
    m = spec.dim_gk // 2
    sign = (-1) ** m * spec.spin_sign
    for g, factors, numers in rows:
        denom = factors.product(every)
        denom_c = factors.product(compact)
        delta_p = spec.spin_sign * factors.product(noncompact)
        pairs = []
        for numer in numers:
            path_a = sign * numer / denom
            # path_b factors the same numerator as the compact character over the spinor
            path_b = (-1) ** m * (numer / denom_c) / delta_p
            scale = max(1.0, abs(path_a), abs(path_b))
            if abs(path_a - path_b) > max(DUAL_PATH_TOL, 1e-12 * scale):
                raise ConsistencyError(
                    f"dual-path disagreement {abs(path_a - path_b):.3e} at {point_of(g)}"
                )
            pairs.append((path_a, path_b))
        yield factors, pairs


def _tau_rows(
    spec: RealFormSpec,
    keys: Sequence[GeneratorKey],
    points: Sequence[TorusPoint],
    orbit_of: OrbitBuilder = wk_orbit,
) -> Iterator[tuple[RootFactors, list[tuple[complex, complex]]]]:
    """``_checked_rows`` at scattered points, each numerator over ``orbit_of``:
    ``wk_orbit`` for tau, ``w_orbit`` for the stable integral."""
    orbits = [orbit_of(spec, hc_parameter(spec, key)) for key in keys]
    pos = spec.positive_system
    return _checked_rows(spec, ((g, root_factors(g, pos), [orbit_sum(o, g) for o in orbits]) for g in points))


def _columns(keys: Sequence[GeneratorKey], rows: Iterator) -> list[tuple[complex, ...]]:
    """Each key's values over the checked rows; with no keys nothing is evaluated."""
    if not keys:
        return []
    return list(zip(*[[value for value, _ in pairs] for _, pairs in rows])) or [() for _ in keys]


def tau_grid(
    spec: RealFormSpec, keys: Sequence[GeneratorKey], points: Sequence[TorusPoint]
) -> list[tuple[complex, ...]]:
    """tau_g on several generators at several torus points: entry [i][j] is the
    value of keys[i] at points[j].  Every value equals, bit for bit,
    (-1)^m spin_sign weyl_numerator(lambda_hc, g, W_K) / weyl_denominator(g, R^+)
    after guard_nonsingular(g, R^+), with the dual path (-1)^m (numer / D_c) /
    delta_p_char(g) checked per key and point.  Errors are raised at the first
    failing point, in point order; with no keys nothing is evaluated."""
    return _columns(keys, _tau_rows(spec, keys, points))


def tau_lattice(
    spec: RealFormSpec, keys: Sequence[GeneratorKey], axes: Sequence[Sequence[int]], q: int
) -> list[tuple[complex, ...]]:
    """``tau_grid`` on the product lattice t = (n_1/q, ..., n_r/q), n_j in axes[j],
    in ``itertools.product`` order, bit for bit, errors included."""
    two_q, zeta = 2 * q, Zeta(q)
    halves = [(alpha, [c // 2 for c in alpha.coords2]) for alpha in spec.positive_system]
    orbits = [wk_orbit(spec, hc_parameter(spec, key)) for key in keys]
    terms = [list(zip(o.signs, zip(*[iter(o.coords)] * o.rank))) for o in orbits]

    def rows():  # the guard and factors of ``root_factors``, the numerators of ``orbit_sum``
        for ns in product(*axes):
            plus, minus = [], []
            for alpha, half in halves:
                a = sum(map(mul, half, ns))
                if a % q == 0:
                    raise SingularPointError(f"torus point is singular for root {alpha}", root=alpha)
                plus.append(zeta[a % two_q])
                minus.append(zeta[-a % two_q])
            factors = RootFactors(tuple(plus), tuple(minus), tuple(map(sub, plus, minus)))
            yield ns, factors, [
                _csum([sign * zeta[sum(map(mul, image, ns)) % two_q] for sign, image in orbit])
                for orbit in terms
            ]

    def point_of(ns: tuple[int, ...]) -> TorusPoint:
        return TorusPoint(tuple(Fraction(n, q) for n in ns), True)

    return _columns(keys, _checked_rows(spec, rows(), point_of))


def tau_generator(spec: RealFormSpec, key: GeneratorKey, g: TorusPoint) -> TauValue:
    """tau_g on a single Dirac-induction generator, with both routes and the
    point's conditioning.  Exact points must be regular; real-mode points
    (limit paths) rely on the denominator-magnitude guard instead."""
    factors, [(path_a, path_b)] = next(_tau_rows(spec, [key], [g]))
    return TauValue(path_a, path_a, path_b, factors.conditioning)


def class_sum(
    spec: RealFormSpec, x: KClass, g: TorusPoint, orbit_of: OrbitBuilder = wk_orbit
) -> complex:
    """sum coeff * path_a over the class's terms at g, each numerator over
    ``orbit_of`` (see ``_tau_rows``); the zero class evaluates nothing."""
    if x.is_zero:
        return complex(0)
    _, pairs = next(_tau_rows(spec, [key for key, _ in x.terms], [g], orbit_of))
    return _csum(coeff * value for (_, coeff), (value, _) in zip(x.terms, pairs))


def tau_class(spec: RealFormSpec, x: KClass, descriptor: ConjugacyDescriptor) -> complex:
    """tau on a K-theory class: linear in the class on elliptic points, and
    identically zero on non-elliptic and unequal-rank-ambient classes."""
    if descriptor.kind != "elliptic":
        return complex(0)
    return class_sum(spec, x, descriptor.point)


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
    return {"value": value.value, "path_a": value.path_a, "path_b": value.path_b}


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
    if lam_hc.rank != spec.rank:
        raise ValidationError("weight rank does not match the real form")
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
