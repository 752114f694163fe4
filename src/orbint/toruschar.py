"""Torus points, exact regularity, weight exponentials, Weyl numerators and
denominators, the spinor character, and the Atiyah-Bott style fixed-point sum.

Pairings are exact before the one transcendental call per factor; complex
values are machine doubles.  Roots pair with an exact point t = n/q in
integers (<alpha/2, t> = a/q: singular iff q | a, phase (a mod 2q)/q).
``orbit_sum``'s per-term phases stay Fractions (``ktrace`` says why).

The evaluation kernel of tau, stable sums, packets and synthesis has two
parts here, which ``ktrace`` combines a block of points at a time (the
synthesis lattice reads the same doubles from integer phase tables in
``ktrace.tau_lattice``).  ``root_factors`` pairs a point with each positive
root once, which gives both the singular verdict and every root factor.  A
``SignedOrbit`` holds an alternating numerator's orbit as flat integer arrays
(the W_K orbit of tau or the W orbit of the stable integral, which ``ktrace``
builds by walking the weight with ``rootsys.reflection_orbit``), and
``orbit_sum`` evaluates it at a point.  Both reproduce ``weyl_denominator`` and
``weyl_numerator`` bit for bit; those stay as the independent routes of the
identity checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
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
    positive_roots,
)

# Real-mode singularity guard on |e^{alpha/2} - e^{-alpha/2}|; exact mode decides exactly.
SINGULAR_GUARD = 1e-13
# Real coordinates count mod 2; a double of magnitude 2**52 or more has no
# fractional part left, and far larger ones overflow the root pairings.
MAX_REAL_COORD = 2.0**52


class TorusPoint(NamedTuple):
    """Torus coordinates t with g = exp(2 pi sum_j t_j x_j) over the simple coroots,
    so e^lambda(g) = exp(2 pi i <lambda, t>) with lambda in fundamental coordinates.

    Exact points carry Fractions reduced mod 2 (half-integral weights have
    period 2 per coordinate); real points carry floats for limit paths.
    """

    coords: tuple
    exact: bool

    @staticmethod
    def exact_point(values: Iterable) -> "TorusPoint":
        coords = tuple(Fraction(v) % 2 for v in values)
        return TorusPoint(coords, True)

    @staticmethod
    def real_point(values: Iterable) -> "TorusPoint":
        coords = tuple(float(v) for v in values)
        if not all(abs(c) < MAX_REAL_COORD for c in coords):
            raise ValidationError(f"real torus coordinates {coords} are not all finite and below 2**52")
        return TorusPoint(coords, False)

    @property
    def rank(self) -> int:
        return len(self.coords)


def parse_torus_point(text: str) -> TorusPoint:
    """Parse comma-separated coordinates; all-rational tokens give an exact point,
    any decimal token switches the whole point to real mode."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValidationError("empty torus point")
    exact = all(("/" in t or _is_int(t)) for t in tokens)
    try:
        values = [Fraction(t) if ("/" in t or _is_int(t)) else float(t) for t in tokens]
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse torus point {text!r}") from None
    if exact:
        return TorusPoint.exact_point(values)
    return TorusPoint.real_point(values)


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def serialize_torus_point(g: TorusPoint) -> list[str]:
    if g.exact:
        return [str(c) for c in g.coords]
    return [repr(c) for c in g.coords]


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
    if g.exact:
        phase = Fraction(0)
        for c2, t in zip(lam.coords2, g.coords):
            phase += c2 * t
        phase %= 2
        return cmath.exp(1j * math.pi * float(phase))
    total = math.fsum(c2 * t for c2, t in zip(lam.coords2, g.coords))
    return cmath.exp(1j * math.pi * total)


def _root_pairings(g: TorusPoint, roots: Sequence[Weight]) -> Iterator[tuple[Weight, int, int]]:
    """(alpha, a, q) per root at an exact point t = n/q over its common
    denominator, with <alpha/2, t> = a/q in integers: a = sum_j (c2_j // 2) n_j.
    So alpha is singular at g iff q divides a, and e^{+-alpha/2}(g) =
    exp(i pi ((+-a mod 2q) / q))."""
    q = math.lcm(*(t.denominator for t in g.coords))
    ns = [t.numerator * (q // t.denominator) for t in g.coords]
    for alpha in roots:
        yield alpha, sum(c // 2 * n for c, n in zip(alpha.coords2, ns)), q


def root_phase(alpha: Weight, g: TorusPoint):
    """u = <alpha/2, t>, so that e^{alpha/2}(g) = exp(pi i u) and the factor
    e^{alpha/2} - e^{-alpha/2} = 2i sin(pi u) vanishes iff u is an integer.
    Exact (a Fraction) at exact points, an fsum float at real ones."""
    fund = alpha.halved().coords2  # also rejects a non-integral weight
    if g.exact:
        [(_, a, q)] = _root_pairings(g, [alpha])
        return Fraction(a, q)
    return math.fsum(f * t for f, t in zip(fund, g.coords))


def is_regular(g: TorusPoint, datum: CartanDatum) -> bool:
    """Exact regularity: no root pairing lands in the integers.  Real-mode
    points are rejected; regularity is only decided exactly."""
    if not g.exact:
        raise ValidationError("regularity is decided only for exact rational points")
    return all(a % q for _, a, q in _root_pairings(g, positive_roots(datum)))


def guard_nonsingular(g: TorusPoint, roots: Sequence[Weight]) -> None:
    """Raise SingularPointError (carrying the offending root) if any factor
    e^{alpha/2} - e^{-alpha/2} vanishes at g (exactly, or within the real-mode
    guard): the guard of ``root_factors``."""
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
    """One pairing u = <alpha/2, t> per root gives both the singular verdict
    and the factor of alpha: u = a/q in integers at exact points
    (``_root_pairings``), an fsum float at real ones.

    Raises ValidationError first when the point's rank is not the roots' (the
    pairings would silently drop coordinates), then SingularPointError at the
    first singular root (exactly, or below SINGULAR_GUARD at real points).
    The exponentials are those of ``eval_weight`` bit for bit, e^{i pi (+-a mod 2q)/q}
    or e^{+-i pi u}, so each factor equals
    ``eval_weight(alpha/2, g) - eval_weight(-alpha/2, g)``.
    """
    if roots and roots[0].rank != g.rank:
        raise ValidationError("weight and torus point have different ranks")
    plus = []
    minus = []
    if g.exact:
        for alpha, a, q in _root_pairings(g, roots):
            if a % q == 0:
                raise SingularPointError(f"torus point is singular for root {alpha}", root=alpha)
            plus.append(cmath.exp(1j * math.pi * (a % (2 * q) / q)))
            minus.append(cmath.exp(1j * math.pi * (-a % (2 * q) / q)))
    else:
        for alpha in roots:
            u = root_phase(alpha, g)
            if abs(2.0 * math.sin(math.pi * u)) < SINGULAR_GUARD:
                raise SingularPointError(
                    f"torus point is numerically singular for root {alpha}", root=alpha
                )
            plus.append(cmath.exp(1j * math.pi * u))
            minus.append(cmath.exp(1j * math.pi * -u))
    return RootFactors(tuple(plus), tuple(minus), tuple(p - m for p, m in zip(plus, minus)))


class SignedOrbit(NamedTuple):
    """The images w(mu) of a weight with the signs of the group elements w, as
    flat integer coordinates (``rank`` entries per image).  Empty when the
    alternating sum over them vanishes identically."""

    rank: int
    coords: Sequence[int]
    signs: Sequence[int]


def orbit_sum(orbit: SignedOrbit, g: TorusPoint) -> complex:
    """sum_w sign(w) e^{w mu}(g) over the orbit: ``weyl_numerator`` bit for bit,
    each term with the exact phase and exponential of ``eval_weight``."""
    if orbit.rank != g.rank:
        raise ValidationError("weight and torus point have different ranks")
    images = zip(*[iter(orbit.coords)] * orbit.rank)  # consecutive rank-long slices
    terms = []
    if g.exact:
        for sign, image in zip(orbit.signs, images):
            phase = Fraction(0)
            for c2, t in zip(image, g.coords):
                phase += c2 * t
            phase %= 2
            terms.append(sign * cmath.exp(1j * math.pi * float(phase)))
    else:
        for sign, image in zip(orbit.signs, images):
            total = math.fsum(c2 * t for c2, t in zip(image, g.coords))
            terms.append(sign * cmath.exp(1j * math.pi * total))
    return _csum(terms)


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
    """Transform torus coordinates so that e^mu(w.g) = e^{w^{-1} mu}(g)."""
    mat = tuple(zip(*integer_inverse(w.matrix)))  # the transpose
    if g.exact:
        coords = tuple(
            sum(row[j] * g.coords[j] for j in range(len(row))) % 2 for row in mat
        )
        return TorusPoint(coords, True)
    coords = tuple(
        math.fsum(row[j] * g.coords[j] for j in range(len(row))) for row in mat
    )
    return TorusPoint(coords, False)


def transformed_system(w: WeylElement, roots: Sequence[Weight]) -> tuple[Weight, ...]:
    """The positive system w(R^+), in the image order."""
    return tuple(w.apply(alpha) for alpha in roots)


def negated_system(roots: Sequence[Weight]) -> tuple[Weight, ...]:
    return tuple(-alpha for alpha in roots)
