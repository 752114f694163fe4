"""The per-key tau formulas that the batch kernel replaced, kept as test oracles.

orbint evaluates tau through ``ktrace.tau_grid``, which pairs each point with
its roots once and sums each key's numerator over a cached W_K orbit.  These
are the direct per-key, per-point evaluations it replaced: guard, numerator
and every denominator recomputed from ``toruschar``'s per-weight functions.
``signed_orbit`` is the orbit that ``ktrace.wk_orbit`` and ``ktrace.w_orbit``
replaced: one image per element of the group, each a matrix-vector product.
``stable_tau`` is the coset-translate route that the W-orbit sum replaced,
and ``mp_stable_tau`` the same W-orbit sum in 40-digit mpmath.
``fraction_root_phase``, ``fraction_root_factors`` and ``fraction_is_regular``
pair a point with each root in Fractions, the route that the integer
pairings of ``toruschar`` replaced.
"""

from array import array
from fractions import Fraction

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


def signed_orbit(mu, group):
    """The images w(mu) over the group's elements in its element order, with
    their signs; repeated images are kept."""
    signs = array("b", [w.sign for w in group])
    coords = array("i", [c for w in group for c in _matvec(w.matrix, mu.coords2)])
    return SignedOrbit(mu.rank, coords, signs)


def tau_paths(spec, key, g):
    """(path_a, path_b) of one generator at one point."""
    full_pos = spec.positive_system
    guard_nonsingular(g, full_pos)
    lam_hc = hc_parameter(spec, key)
    m = spec.dim_gk // 2
    sign = (-1) ** m * spec.spin_sign
    numer = weyl_numerator(lam_hc, g, weyl_k(spec))
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
