"""The per-key tau formulas that the batch kernel replaced, kept as test oracles.

orbint evaluates tau through ``ktrace.tau_grid``, which pairs each point with
its roots once and sums each key's numerator over a cached W_K orbit.  These
are the direct per-key, per-point evaluations it replaced: guard, numerator
and every denominator recomputed from ``toruschar``'s per-weight functions.
"""

from orbint.errors import ConsistencyError, ValidationError
from orbint.ktrace import DUAL_PATH_TOL, _validate_positive_system
from orbint.realform import KClass, coset_reps, generator_key, hc_parameter, rho_c, weyl_k
from orbint.stable import PACKET_TOL
from orbint.toruschar import (
    _csum,
    delta_p_char,
    guard_nonsingular,
    transformed_system,
    weyl_act_point,
    weyl_denominator,
    weyl_numerator,
)


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
