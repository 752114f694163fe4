"""Torus points, exact regularity, weight exponentials, Weyl numerators and
denominators, the spinor character, and the Atiyah-Bott style fixed-point sum.

Torus points are exact (Fractions), and roots pair with t = n/q in integers
(<alpha/2, t> = a/q: singular iff q | a, phase (a mod 2q)/q) before the one
transcendental call per factor; complex values are machine doubles, and a
phase that rounds to an integer in them is numerically singular.
``orbit_sum``'s per-term phases stay Fractions.  Integer phases run the
``tau_exact`` benchmark about 3x faster, but its harness keeps every pass's
results (about 0.083 MB a pass), so more passes read a higher peak RSS, past
that metric's bound; they wait on the harness mend of ROADMAP.md item 1.

The evaluation kernel of tau, stable sums and packets has two parts here,
which ``ktrace`` combines one point at a time (the synthesis lattice
sums the same ``SignedOrbit`` one axis at a time in ``tannaka.synthesize``).
``root_factors`` pairs a point with each positive root once, which gives
both the singular verdict and every root factor.  A ``SignedOrbit`` holds an
alternating numerator's orbit as flat integer arrays (the W_K orbit of tau or the W orbit of the stable integral, which ``ktrace``
builds by walking the weight with ``rootsys.reflection_orbit``), or a K-type's
weight table with multiplicities in place of the signs, and ``orbit_sum``
evaluates either at a point.  Both reproduce ``weyl_denominator`` and
``weyl_numerator`` bit for bit; those stay as the independent routes of the
identity checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import SingularPointError, ValidationError
from .realform import RealFormSpec
from .rootsys import (
    CartanDatum,
    Weight,
    WeylElement,
    _Frozen,
    _set,
    integer_inverse,
    parse_rational,
    positive_roots,
)


class TorusPoint(NamedTuple):
    """Torus coordinates t with g = exp(2 pi sum_j t_j x_j) over the simple coroots,
    so e^lambda(g) = exp(2 pi i <lambda, t>) with lambda in fundamental coordinates.

    The coordinates are Fractions reduced mod 2 (half-integral weights have
    period 2 per coordinate), as ``exact_point`` builds them.
    """

    coords: tuple

    @staticmethod
    def exact_point(values: Iterable) -> "TorusPoint":
        return TorusPoint(tuple(Fraction(v) % 2 for v in values))

    @property
    def rank(self) -> int:
        return len(self.coords)


def parse_torus_point(text: str) -> TorusPoint:
    """Parse comma-separated coordinates, rationals or decimals, each taken
    exactly (``rootsys.parse_rational``): 0.1 is the point 1/10."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValidationError("empty torus point")
    return TorusPoint.exact_point(map(parse_rational, tokens))


def serialize_torus_point(g: TorusPoint) -> list[str]:
    return [str(c) for c in g.coords]


# ---------------------------------------------------------------------------
# conjugacy descriptors

class ConjugacyDescriptor(_Frozen):
    """Tagged class descriptor: elliptic torus point, non-elliptic class, or a
    class in an ambient group of unequal rank."""

    __slots__ = ("kind", "point")
    kind: str
    point: TorusPoint | None

    def __init__(self, kind: str, point: TorusPoint | None = None):
        if kind not in ("elliptic", "non_elliptic", "unequal_rank_ambient"):
            raise ValidationError(f"unknown descriptor kind {kind!r}")
        if (kind == "elliptic") != (point is not None):
            raise ValidationError("exactly the elliptic descriptor carries a point")
        _set(self, "kind", kind)
        _set(self, "point", point)

    @staticmethod
    def elliptic(point: TorusPoint) -> "ConjugacyDescriptor":
        return ConjugacyDescriptor("elliptic", point)

    @staticmethod
    def non_elliptic() -> "ConjugacyDescriptor":
        return ConjugacyDescriptor("non_elliptic")

    @staticmethod
    def unequal_rank_ambient() -> "ConjugacyDescriptor":
        return ConjugacyDescriptor("unequal_rank_ambient")


# ---------------------------------------------------------------------------
# exponentials

def eval_weight(lam: Weight, g: TorusPoint) -> complex:
    """e^lambda(g) = exp(2 pi i <lambda, t>), the lattice pairing taken exactly
    in doubled coordinates before the exponential."""
    if lam.rank != g.rank:
        raise ValidationError("weight and torus point have different ranks")
    return cmath.exp(1j * math.pi * float(sum(map(mul, lam.coords2, g.coords)) % 2))


def _root_pairings(g: TorusPoint, roots: Sequence[Weight]) -> Iterator[tuple[Weight, int, int]]:
    """(alpha, a, q) per root at an exact point t = n/q over its common
    denominator, with <alpha/2, t> = a/q in integers: a = sum_j (c2_j // 2) n_j.
    So alpha is singular at g iff q divides a, and e^{+-alpha/2}(g) =
    exp(i pi ((+-a mod 2q) / q))."""
    q = math.lcm(*(t.denominator for t in g.coords))
    ns = [t.numerator * (q // t.denominator) for t in g.coords]
    for alpha in roots:
        yield alpha, sum(c // 2 * n for c, n in zip(alpha.coords2, ns)), q


def is_regular(g: TorusPoint, datum: CartanDatum) -> bool:
    """Exact regularity: no root pairing lands in the integers."""
    return all(a % q for _, a, q in _root_pairings(g, positive_roots(datum)))


def guard_nonsingular(g: TorusPoint, roots: Sequence[Weight]) -> None:
    """Raise SingularPointError (carrying the offending root) if any factor
    e^{alpha/2} - e^{-alpha/2} vanishes at g: the guard of ``root_factors``."""
    root_factors(g, roots)


class RootFactors(NamedTuple):
    """The exponentials e^{+alpha/2}(g), e^{-alpha/2}(g) and the factors
    e^{alpha/2}(g) - e^{-alpha/2}(g) of every root of a positive system at one
    torus point, in the system's order."""

    plus: tuple[complex, ...]
    minus: tuple[complex, ...]
    factors: tuple[complex, ...]

    def factor(self, i: int, sign: int) -> complex:
        """The factor of beta = sign * (root i): a negated root's factor is the
        same two exponentials subtracted the other way."""
        return self.factors[i] if sign > 0 else self.minus[i] - self.plus[i]

    @property
    def conditioning(self) -> float:
        """min |2 sin(pi <alpha/2, t>)| over the roots: how far g stays from
        the singular locus, the smallest factor of the Weyl denominator."""
        return min(abs(f) for f in self.factors)


def root_factors(g: TorusPoint, roots: Sequence[Weight]) -> RootFactors:
    """One pairing <alpha/2, t> = a/q per root, in integers (``_root_pairings``),
    gives both the singular verdict and the factor of alpha.

    Raises ValidationError first when the point's rank is not the roots' (the
    pairings would silently drop coordinates), then SingularPointError at the
    first root on a wall: exactly (q | a), or numerically, where a phase
    (+-a mod 2q)/q rounds to an integer as a double, so that the factor is 0.0
    or only rounding error.  The exponentials are those of ``eval_weight`` bit
    for bit, e^{i pi (+-a mod 2q)/q}, so each factor equals
    ``eval_weight(alpha/2, g) - eval_weight(-alpha/2, g)``.
    """
    if roots and roots[0].rank != g.rank:
        raise ValidationError("weight and torus point have different ranks")
    plus, minus = [], []
    for alpha, a, q in _root_pairings(g, roots):
        up, down = a % (2 * q) / q, -a % (2 * q) / q
        if up.is_integer() or down.is_integer():  # always so when q | a
            kind = "singular" if a % q == 0 else "numerically singular"
            raise SingularPointError(f"torus point is {kind} for root {alpha}", root=alpha)
        plus.append(cmath.exp(1j * math.pi * up))
        minus.append(cmath.exp(1j * math.pi * down))
    return RootFactors(tuple(plus), tuple(minus), tuple(p - m for p, m in zip(plus, minus)))


class SignedOrbit(NamedTuple):
    """An exponential sum sum_u c_u e^u as flat integer coordinates (``rank``
    entries per weight u) and one integer coefficient c_u per weight: the
    images w(mu) of a weight with the signs of the group elements w, empty
    when the alternating sum over them vanishes identically, or a K-type's
    weights with their multiplicities."""

    rank: int
    coords: Sequence[int]
    signs: Sequence[int]


def orbit_sum(orbit: SignedOrbit, g: TorusPoint) -> complex:
    """sum_u c_u e^u(g) over the terms, each the coefficient times the exact
    phase and exponential of ``eval_weight``: for an orbit, sum_w sign(w)
    e^{w mu}(g), ``weyl_numerator`` bit for bit."""
    if orbit.rank != g.rank:
        raise ValidationError("weight and torus point have different ranks")
    images = zip(*[iter(orbit.coords)] * orbit.rank)  # consecutive rank-long slices
    return _csum([sign * cmath.exp(1j * math.pi * float(sum(map(mul, image, g.coords)) % 2))
                  for sign, image in zip(orbit.signs, images)])


def _csum(values: Iterable[complex]) -> complex:
    vals = list(values)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


def weyl_numerator(mu: Weight, g: TorusPoint, group) -> complex:
    """Alternating exponential sum sum_w sign(w) e^{w mu}(g) over the given elements."""
    return _csum(w.sign * eval_weight(w.apply(mu), g) for w in group)


def weyl_denominator(g: TorusPoint, roots: Sequence[Weight]) -> complex:
    """prod_alpha (e^{alpha/2} - e^{-alpha/2})(g) over the given roots."""
    product = complex(1.0)
    for alpha in roots:
        half = alpha.halved()
        product *= eval_weight(half, g) - eval_weight(-half, g)
    return product


def delta_p_char(g: TorusPoint, spec: RealFormSpec) -> complex:
    """Graded spinor character of the noncompact directions, including the
    real form's sign calibration."""
    return spec.spin_sign * weyl_denominator(g, spec.noncompact_positive)


def char_quotient(mu: Weight, g: TorusPoint, group, roots: Sequence[Weight]) -> complex:
    """Numerator-over-denominator character value; errors carry the singular root."""
    guard_nonsingular(g, roots)
    return weyl_numerator(mu, g, group) / weyl_denominator(g, roots)


def ab_fixed_sum(nu: Weight, g: TorusPoint, group, roots: Sequence[Weight]) -> complex:
    """Fixed-point localization sum sum_w e^{w nu}(g) / prod_alpha (1 - e^{-w alpha}(g)),
    the trace-over-determinant form of the Dolbeault fixed-point terms."""
    guard_nonsingular(g, roots)
    terms = []
    for w in group:
        denom = complex(1.0)
        for alpha in roots:
            denom *= 1.0 - eval_weight(-w.apply(alpha), g)
        terms.append(eval_weight(w.apply(nu), g) / denom)
    return _csum(terms)


# ---------------------------------------------------------------------------
# Weyl action on torus points

def weyl_act_point(w: WeylElement, g: TorusPoint) -> TorusPoint:
    """t -> (w^{-1})^T t mod 2, so that e^mu(w.g) = e^{w^{-1} mu}(g)."""
    return TorusPoint(tuple(sum(map(mul, col, g.coords)) % 2 for col in zip(*integer_inverse(w.matrix))))


def transformed_system(w: WeylElement, roots: Sequence[Weight]) -> tuple[Weight, ...]:
    """The positive system w(R^+), in the image order."""
    return tuple(w.apply(alpha) for alpha in roots)


def negated_system(roots: Sequence[Weight]) -> tuple[Weight, ...]:
    return tuple(-alpha for alpha in roots)
