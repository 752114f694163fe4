"""The orbital-integral functional tau_g on K-theory classes: generator values
via the fixed-point character formula, vanishing off the elliptic set, class
distinguishing by random sampling, and (limits of) discrete-series characters.

Every tau value at a torus point comes from one single-point body,
``_point_paths``: from the point's root factors (taken with the singular
guard) it forms the Weyl denominator and its compact and noncompact parts as
scalar products, then each key's numerator and both paths, checked against
each other.  The path sign (-1)^m spin_sign goes into D and D_n once per
point, since x / (-d) = -(x / d) exactly.  ``tau_grid`` loops it over its
points, so the first failing point wins.  The numerator phases stay
Fractions (``toruschar.orbit_sum``; ``toruschar`` says why).

A key's W_K numerator has two routes, chosen per key from two exact integers
before either structure is built (``tau_numerator``).  When the K-type is
smaller than W_K (dim V_lambda < |W_K|), Weyl's character formula for K
gives the numerator as chi_V D_c, and chi_V is summed over the K-type's
weights with their multiplicities (``rootsys.weight_multiplicities``,
Freudenthal in integers): fewer terms, all of one sign, so no cancellation
where D_c is small.  Otherwise the numerator is the alternating sum over the
cached W_K orbit of the Harish-Chandra parameter (``wk_orbit``), as it
stands.  The stable integral sums over the W orbit (``w_orbit``), except on
a compact form, where W = W_K and it takes tau's route.  Both orbits walk the
weight itself through simple reflections (``rootsys.reflection_orbit``), so
an evaluation builds no group element, and a parameter on a wall of the
group gets the empty orbit: its alternating sum vanishes identically.
``tannaka.synth_family`` takes the same routes on its synthesis lattice.
"""

from __future__ import annotations

import functools
import random
from array import array
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

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
    is_dominant,
    positive_roots,
    reflection_orbit,
    simple_steps,
    weight_multiplicities,
    weyl_dim,
    weyl_order,
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


def _packed(rank: int, images: Iterable[tuple[int, ...]], coefficients: array) -> SignedOrbit:
    """Weights (rank-long tuples) with one coefficient each, as flat arrays."""
    coords = list(chain.from_iterable(images))
    try:
        packed = array("i", coords)
    except OverflowError:  # coordinates beyond 32 bits stay Python ints
        packed = coords
    return SignedOrbit(rank, packed, coefficients)


def _signed_orbit(steps: tuple, lam: Weight) -> SignedOrbit:
    """The walk of lam under the steps, packed: an image first reached at depth
    d is w(lam) for a unique w of length d, so its sign is (-1)^d.  When a
    reflection fixes an image, lam lies on a wall of the group, each term
    cancels against its reflected partner, and the orbit is empty."""
    walk = reflection_orbit(steps, lam.coords2)
    if walk is None:
        return SignedOrbit(lam.rank, (), ())
    images, _, _, depths = walk
    return _packed(lam.rank, images, array("b", [-1 if d & 1 else 1 for d in depths]))


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


class Numerator(NamedTuple):
    """How the W_K numerator of a key is summed, at scattered points and on
    the synthesis lattice.
    ``route`` "weights": ``terms`` is the K-type's weight table, each weight
    with its multiplicity, whose sum is the character chi_V; by Weyl's
    character formula for K the numerator is chi_V D_c.  ``route`` "orbit":
    ``terms`` is the signed orbit of the Harish-Chandra parameter, summed as
    it stands."""

    route: str
    terms: SignedOrbit


@functools.lru_cache(maxsize=4096)
def tau_numerator(spec: RealFormSpec, key: GeneratorKey) -> Numerator:
    """tau's numerator route for a key, chosen from two exact integers before
    either structure is built: the weight table when the K-type is smaller
    than W_K (dim V_lambda < |W_K|), so the sum has fewer terms and no
    alternating cancellation; otherwise the signed W_K orbit.  A key that is
    not dominant for K (only built by hand) has no K-type: orbit."""
    datum, lam, pos = spec.datum, key.lam, spec.compact_positive
    if is_dominant(datum, lam, pos) and weyl_dim(datum, lam, pos) < weyl_order(datum, pos):
        table = weight_multiplicities(datum, lam, pos)
        return Numerator("weights", _packed(spec.rank, (mu.coords2 for mu in table), array("i", table.values())))
    return Numerator("orbit", wk_orbit(spec, hc_parameter(spec, key)))


@functools.lru_cache(maxsize=4096)
def stable_numerator(spec: RealFormSpec, key: GeneratorKey) -> Numerator:
    """The stable integral's numerator: the signed W orbit, except on a compact
    form, where W = W_K and the numerator is tau's, by the same route.  Cached
    per (spec, key), as ``tau_numerator`` is."""
    if spec.is_compact:
        return tau_numerator(spec, key)
    return Numerator("orbit", w_orbit(spec, hc_parameter(spec, key)))


NumeratorOf = Callable[[RealFormSpec, GeneratorKey], Numerator]


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


@functools.lru_cache(maxsize=None)
def _path_layout(spec: RealFormSpec) -> tuple:
    """What ``_point_paths`` reads of a spec: the compact and noncompact
    root positions, and (-1)^m spin_sign as a complex number, which
    multiplies a complex value exactly as the int does."""
    compact, noncompact, _ = _root_positions(spec)
    return compact, noncompact, complex((-1) ** (spec.dim_gk // 2) * spec.spin_sign)


def _underflow(roots: Sequence[Weight], factors: Sequence[complex]) -> SingularPointError:
    """The error of a point whose root factors multiply to 0.0 (``root_factors``
    has refused every factor that is 0.0 itself), for the root of the first
    smallest factor."""
    i = min(range(len(roots)), key=lambda i: abs(factors[i]))
    return SingularPointError(f"torus point is numerically singular for root {roots[i]}", root=roots[i])


def _product(values: Sequence[complex]) -> complex:
    """The values multiplied in order, seeded with the first; 1.0 for none."""
    return functools.reduce(mul, values) if values else complex(1.0)


def _point_paths(spec: RealFormSpec, numerators: Sequence[Numerator],
                 g: TorusPoint) -> tuple[RootFactors, list[tuple[complex, complex]]]:
    """The point's ``root_factors`` and each numerator's (path_a, path_b) at g;
    path_b is the compact character numer/D_c over the spinor.  A numerator
    is ``orbit_sum`` of its terms, times D_c for a weight table.  A
    denominator of 0.0 (an underflow) raises ``_underflow``'s error before any
    numerator is summed; the first numerator whose paths differ beyond
    DUAL_PATH_TOL raises a ConsistencyError naming the point."""
    pos = spec.positive_system
    row = root_factors(g, pos)
    factors = row.factors
    compact, noncompact, sign = _path_layout(spec)
    # x / (s d) is -(x / d) = (s x) / d exactly for s = -1, so the sign goes
    # into the two shared denominators once instead of into every numerator
    denom = sign * _product(factors)
    denom_c = _product([factors[i] for i in compact])
    delta_p = sign * _product([factors[i] for i in noncompact])
    if denom == 0 or denom_c == 0 or delta_p == 0:
        raise _underflow(pos, factors)
    paths = []
    for n in numerators:
        numer = orbit_sum(n.terms, g)
        if n.route == "weights":
            numer *= denom_c
        a, b = numer / denom, numer / denom_c / delta_p
        if abs(a - b) > max(DUAL_PATH_TOL, 1e-12 * max(1.0, abs(a), abs(b))):
            raise ConsistencyError(f"dual-path disagreement {abs(a - b):.3e} at {g}")
        paths.append((a, b))
    return row, paths


def tau_grid(spec: RealFormSpec, keys: Sequence[GeneratorKey],
             points: Sequence[TorusPoint]) -> list[tuple[complex, ...]]:
    """tau_g on several generators at several torus points: entry [i][j] is the
    value of keys[i] at points[j].  Every value equals, bit for bit,
    (-1)^m spin_sign numer / weyl_denominator(g, R^+) after
    guard_nonsingular(g, R^+), with the dual path (-1)^m (numer / D_c) /
    delta_p_char(g) checked per key and point.  numer is the key's
    ``tau_numerator``: weyl_numerator(lambda_hc, g, W_K) for a key on the orbit
    route, and for one on the weight route the fsum of m e^mu(g) over its
    weight table times weyl_denominator(g, R_c^+).  Errors are raised at the
    first failing point, in point order; with no keys nothing is evaluated."""
    if not keys:
        return []
    numerators = [tau_numerator(spec, key) for key in keys]
    rows = [[a for a, _ in _point_paths(spec, numerators, g)[1]] for g in points]
    return list(zip(*rows)) or [()] * len(keys)


def tau_generator(spec: RealFormSpec, key: GeneratorKey, g: TorusPoint) -> TauValue:
    """tau_g on a single Dirac-induction generator, with both routes and the
    point's conditioning.  The point must be regular, in doubles too: no root
    phase that rounds to an integer, no denominator that underflows to 0.0."""
    factors, [(path_a, path_b)] = _point_paths(spec, [tau_numerator(spec, key)], g)
    return TauValue(path_a, path_a, path_b, factors.conditioning)


def class_sum(
    spec: RealFormSpec, x: KClass, g: TorusPoint, numerator_of: NumeratorOf = tau_numerator
) -> complex:
    """sum coeff * path_a over the class's terms at g, each numerator routed by
    ``numerator_of`` (see ``_point_paths``); the zero class evaluates nothing."""
    if x.is_zero:
        return complex(0)
    _, paths = _point_paths(spec, [numerator_of(spec, key) for key, _ in x.terms], g)
    return _csum(coeff * a for (_, coeff), (a, _) in zip(x.terms, paths))


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
    if denom == 0:  # the product underflowed
        raise _underflow(spec.positive_system, factors.factors)
    m = spec.dim_gk // 2
    numer = orbit_sum(wk_orbit(spec, lam_hc), g)
    return (-1) ** m * spec.spin_sign * numer / denom


def lds_character_sum(
    spec: RealFormSpec, lam_hc: Weight, systems: Sequence[Sequence[Weight]], g: TorusPoint
) -> complex:
    """Sum of lds_character over the supplied positive systems (the character of
    the corresponding induced representation, which vanishes when it is reducible)."""
    return _csum(lds_character(spec, lam_hc, system, g) for system in systems)
