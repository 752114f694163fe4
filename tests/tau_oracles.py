"""The per-key tau formulas that the batch kernel replaced, kept as test oracles.

orbint evaluates tau through ``ktrace.tau_grid``, which pairs each point with
its roots once and sums each key's numerator over a cached weight table or
W_K orbit.  These are the direct per-key, per-point evaluations it replaced:
guard, numerator and every denominator recomputed from ``toruschar``'s
per-weight functions, the numerator on the route ``weight_route`` picks by
the same dim V < |W_K| rule.
``signed_orbit`` is the orbit that ``ktrace.wk_orbit`` and ``ktrace.w_orbit``
replaced: one image per element of the group, each a matrix-vector product.
``stable_tau`` is the coset-translate route that the W-orbit sum replaced,
and ``mp_stable_tau`` the same W-orbit sum in 40-digit mpmath; ``mp_tau`` is
tau's W_K sum in mpmath, at 40 digits past its cancellation.
``fraction_root_phase``, ``fraction_root_factors`` and ``fraction_is_regular``
pair a point with each root in Fractions, the route that the integer
pairings of ``toruschar`` replaced.
"""

import math
from array import array
from fractions import Fraction
from operator import mul

from orbint.errors import ConsistencyError, SingularPointError, ValidationError
from orbint.ktrace import DUAL_PATH_TOL, _validate_positive_system
from orbint.realform import KClass, coset_reps, generator_key, hc_parameter, rho_c, weyl_k
from orbint.rootsys import _matvec, positive_roots, weyl_group
from orbint.stable import PACKET_TOL
from orbint.toruschar import (
    RootFactors,
    SignedOrbit,
    _csum,
    delta_p_char,
    eval_weight,
    guard_nonsingular,
    transformed_system,
    weyl_act_point,
    weyl_denominator,
    weyl_numerator,
)
from weyl_oracles import (
    fraction_is_dominant,
    fraction_weight_multiplicities,
    fraction_weyl_dim,
    fraction_weyl_order,
)


def signed_orbit(mu, group):
    """The images w(mu) over the group's elements in its element order, with
    their signs; repeated images are kept."""
    signs = array("b", [w.sign for w in group])
    coords = array("i", [c for w in group for c in _matvec(w.matrix, mu.coords2)])
    return SignedOrbit(mu.rank, coords, signs)


def weight_route(spec, key):
    """The numerator route of ``ktrace.tau_numerator``, from the Fraction
    oracles: a key dominant for K whose K-type is smaller than W_K."""
    datum, lam, pos = spec.datum, key.lam, spec.compact_positive
    return fraction_is_dominant(datum, lam, pos) and fraction_weyl_dim(datum, lam, pos) < fraction_weyl_order(datum, pos)


def numerator(spec, key, g):
    """The W_K numerator of a key at g: where ``weight_route`` holds, the
    K-type's character, summed over its Fraction Freudenthal table, times
    weyl_denominator over the compact positive roots; otherwise the
    alternating sum over the elements of W_K."""
    if weight_route(spec, key):
        table = fraction_weight_multiplicities(spec.datum, key.lam, spec.compact_positive)
        chi = _csum(m * eval_weight(mu, g) for mu, m in table.items())
        return chi * weyl_denominator(g, spec.compact_positive)
    return weyl_numerator(hc_parameter(spec, key), g, weyl_k(spec))


def tau_paths(spec, key, g):
    """(path_a, path_b) of one generator at one point, its numerator from
    ``numerator``."""
    full_pos = spec.positive_system
    guard_nonsingular(g, full_pos)
    m = spec.dim_gk // 2
    sign = (-1) ** m * spec.spin_sign
    numer = numerator(spec, key, g)
    path_a = sign * numer / weyl_denominator(g, full_pos)
    chi_v = numer / weyl_denominator(g, spec.compact_positive)
    path_b = (-1) ** m * chi_v / delta_p_char(g, spec)
    scale = max(1.0, abs(path_a), abs(path_b))
    if abs(path_a - path_b) > max(DUAL_PATH_TOL, 1e-12 * scale):
        raise ConsistencyError(f"dual-path disagreement {abs(path_a - path_b):.3e} at {g}")
    return path_a, path_b


def tau_grid(spec, keys, points):
    """Key-major: every point for the first key, then the next key."""
    return [tuple(tau_paths(spec, key, g)[0] for g in points) for key in keys]


def tau_class(spec, x, g):
    return _csum(coeff * tau_paths(spec, key, g)[0] for key, coeff in x.terms)


def stable_tau(spec, x, g):
    return _csum(tau_class(spec, x, weyl_act_point(v, g)) for v in coset_reps(spec))


def mp_stable_tau(spec, x, g, dps=40):
    """(-1)^m spin_sign sum_w sign(w) e^{w lambda_hc}(g) / prod_{R+} (e^{a/2} - e^{-a/2})(g)
    per term of the class, over the elements of W, at an exact point: each
    phase exact, each exponential and the arithmetic at ``dps`` digits."""
    import mpmath

    def exp(coords2):  # e^lambda(g) = exp(pi i sum_j coords2_j t_j)
        phase = sum(c * t for c, t in zip(coords2, g.coords)) % 2
        return mpmath.expjpi(mpmath.mpf(phase.numerator) / phase.denominator)

    with mpmath.workdps(dps):
        denom = mpmath.mpc(1)
        for alpha in spec.positive_system:
            half = alpha.halved()
            denom *= exp(half.coords2) - exp((-half).coords2)
        sign = (-1) ** (spec.dim_gk // 2) * spec.spin_sign
        total = mpmath.mpc(0)
        for key, coeff in x.terms:
            lam_hc = hc_parameter(spec, key)
            group = weyl_group(spec.datum)
            numer = mpmath.fsum(w.sign * exp(_matvec(w.matrix, lam_hc.coords2)) for w in group)
            total += coeff * sign * numer / denom
        return complex(total)


def mp_tau(spec, key, g, dps=40):
    """tau of one generator at an exact point, (-1)^m spin_sign
    sum_{w in W_K} sign(w) e^{w lambda_hc}(g) / prod_{R+} (e^{a/2} - e^{-a/2})(g),
    over the elements of W_K, in mpmath with ``dps`` digits left after the
    numerator's cancellation: the working precision adds the digits of 1/|D|
    (and ten more), as the numerator is D times the K-type's character, whose
    terms have modulus 1.  With t = n/q over a common q, each phase is the
    exact integer k = sum_j c2_j n_j mod 2q, and e^mu(g) = exp(pi i k/q)."""
    import mpmath

    q = math.lcm(*(t.denominator for t in g.coords))
    ns = [t.numerator * (q // t.denominator) for t in g.coords]

    def exp(coords2):
        return mpmath.expjpi(mpmath.mpf(sum(map(mul, coords2, ns)) % (2 * q)) / q)

    def denominator():
        denom = mpmath.mpc(1)
        for alpha in spec.positive_system:
            half = alpha.halved()
            denom *= exp(half.coords2) - exp((-half).coords2)
        return denom

    with mpmath.workdps(dps):
        extra = max(0, int(-mpmath.log10(abs(denominator())))) + 10
    with mpmath.workdps(dps + extra):
        lam_hc = hc_parameter(spec, key)
        numer = mpmath.fsum(w.sign * exp(_matvec(w.matrix, lam_hc.coords2)) for w in weyl_k(spec))
        sign = (-1) ** (spec.dim_gk // 2) * spec.spin_sign
        return complex(sign * numer / denominator())


def lds_character(spec, lam_hc, system, g):
    _validate_positive_system(spec, system)
    guard_nonsingular(g, spec.positive_system)
    m = spec.dim_gk // 2
    numer = weyl_numerator(lam_hc, g, weyl_k(spec))
    return (-1) ** m * spec.spin_sign * numer / weyl_denominator(g, system)


def lpacket_sum(spec, lam_hc, g):
    pos = spec.positive_system
    total = _csum(
        lds_character(spec, v.apply(lam_hc), transformed_system(v, pos), g)
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


def fraction_root_phase(alpha, g):
    """<alpha/2, t> at an exact point, summed in Fractions."""
    return sum((Fraction(c, 2) * t for c, t in zip(alpha.coords2, g.coords)), Fraction(0))


def fraction_root_factors(g, roots):
    """The first root whose Fraction pairing is an integer raises
    SingularPointError; otherwise e^{+-alpha/2}(g) from ``eval_weight`` and
    their differences."""
    for alpha in roots:
        if fraction_root_phase(alpha, g).denominator == 1:
            raise SingularPointError(f"torus point is singular for root {alpha}", root=alpha)
    plus = tuple(eval_weight(alpha.halved(), g) for alpha in roots)
    minus = tuple(eval_weight(-alpha.halved(), g) for alpha in roots)
    return RootFactors(plus, minus, tuple(p - m for p, m in zip(plus, minus)))


def fraction_is_regular(g, datum):
    return all(fraction_root_phase(alpha, g).denominator != 1 for alpha in positive_roots(datum))
