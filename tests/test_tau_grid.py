"""The batch kernel reproduces the per-key formulas it replaced, bit for bit.

Every comparison is ``==``: ``tau_grid``, ``tau_generator``, ``tau_class``,
``stable_tau``, ``synth_family`` and ``lpacket_sum`` against the oracles in
``tau_oracles.py``, on the five presets and three painted forms, at exact and
real-mode points.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
import tau_oracles as oracle
from weyl_oracles import painted_forms

from orbint.errors import ConsistencyError, SingularPointError
from orbint.ktrace import random_regular_point, tau_class, tau_generator, tau_grid, wk_orbit
from orbint.realform import GeneratorKey, hc_parameter, real_form, rho_c
from orbint.rootsys import Weight
from orbint.stable import lpacket_sum, stable_tau
from orbint.tannaka import synth_family
from orbint.toruschar import ConjugacyDescriptor, TorusPoint, is_regular
from orbint.verify import random_class, small_keys

FORMS = [
    real_form(name) for name in ("sl2r", "su21", "sp4r", "compact(A2)", "compact(B3)")
] + painted_forms("G2", [(0,)]) + painted_forms("B3", [(1,)]) + painted_forms("B4", [(0,)])
IDS = [spec.name for spec in FORMS]


@functools.lru_cache(maxsize=None)
def keys_of(spec):
    return small_keys(spec, 4)


def exact_points(spec, seed, count=3):
    rng = random.Random(seed)
    return [random_regular_point(spec.datum, rng) for _ in range(count)]


def real_points(spec, seed):
    """A generic real point and two points of a ray toward the identity."""
    rng = random.Random(seed)
    generic = TorusPoint.real_point(rng.uniform(0.05, 0.95) for _ in range(spec.rank))
    direction = TorusPoint.real_point(rng.uniform(0.3, 1.0) for _ in range(spec.rank))
    return [generic, direction.scaled(1e-2), direction.scaled(2.5e-3)]


def singular_key(spec):
    """A key whose lambda_hc lies on a compact root hyperplane, so its W_K orbit
    repeats weights: lambda_hc = 0 on noncompact forms, the first fundamental
    weight (fixed by the other simple reflections) on compact ones."""
    target = Weight((0,) * spec.rank)
    if spec.is_compact:
        target = Weight((2,) + (0,) * (spec.rank - 1))
    return GeneratorKey(target - rho_c(spec))


@pytest.mark.parametrize("spec", FORMS, ids=IDS)
def test_tau_grid_and_generator_match_the_per_key_formula(spec):
    keys = keys_of(spec)[:3] + [singular_key(spec)]
    points = exact_points(spec, 61) + real_points(spec, 62)
    assert tau_grid(spec, keys, points) == oracle.tau_grid(spec, keys, points)
    for g in points:
        for key in keys:
            value = tau_generator(spec, key, g)
            assert (value.path_a, value.path_b) == oracle.tau_paths(spec, key, g)
            assert value.value == value.path_a


@pytest.mark.parametrize("spec", FORMS[1:], ids=IDS[1:])
def test_singular_key_orbit_repeats_weights(spec):
    # sl2r (FORMS[0]) has W_K = 1, so no orbit of it can repeat
    orbit = wk_orbit(spec, hc_parameter(spec, singular_key(spec)))
    images = list(zip(*[iter(orbit.coords)] * orbit.rank))
    assert len(images) == len(orbit.signs) and len(set(images)) < len(images)


@pytest.mark.parametrize("spec", FORMS, ids=IDS)
def test_class_and_stable_values_match(spec):
    keys = keys_of(spec)
    rng = random.Random(63)
    for g in exact_points(spec, 64, 2) + real_points(spec, 65)[:1]:
        x = random_class(keys, rng)
        assert tau_class(spec, x, ConjugacyDescriptor.elliptic(g)) == oracle.tau_class(spec, x, g)
        assert stable_tau(spec, x, g) == oracle.stable_tau(spec, x, g)


@pytest.mark.parametrize("spec", FORMS, ids=IDS)
def test_lpacket_sum_matches(spec):
    keys = keys_of(spec)[:2]
    lams = [hc_parameter(spec, key) for key in keys] + [hc_parameter(spec, singular_key(spec))]
    for g in exact_points(spec, 66, 2) + real_points(spec, 67)[:1]:
        for lam_hc in lams:
            assert lpacket_sum(spec, lam_hc, g) == oracle.lpacket_sum(spec, lam_hc, g)


@pytest.mark.parametrize(
    "name, axis_count", [("sl2r", None), ("su21", 24), ("compact(A2)", 12), ("sp4r", 12)]
)
def test_synth_family_values_match(name, axis_count):
    spec = real_form(name)
    keys = small_keys(spec, 3)
    family = synth_family(spec, keys, axis_count)
    expected = oracle.tau_grid(spec, keys, family.grid)
    assert [family.values[key.lam] for key in keys] == expected


def singular_exact_point(spec):
    """The first point with coordinates in 1/2, 1/7, 2/7 (lexicographic) that
    lands on a root hyperplane."""
    for coords in itertools.product((Fraction(1, 2), Fraction(1, 7), Fraction(2, 7)), repeat=spec.rank):
        g = TorusPoint.exact_point(coords)
        if not is_regular(g, spec.datum):
            return g
    raise AssertionError("no singular point found")


def raised(fn):
    with pytest.raises(SingularPointError) as info:
        fn()
    return info.value


@pytest.mark.parametrize("spec", FORMS, ids=IDS)
def test_singular_points_raise_the_same_root(spec):
    keys = keys_of(spec)[:2]
    exact = singular_exact_point(spec)
    near = TorusPoint.real_point(float(c) + 1e-16 for c in exact.coords)
    for g in (exact, near):
        points = exact_points(spec, 68, 1) + [g]
        want = raised(lambda: oracle.tau_grid(spec, keys, points))
        for got in (
            raised(lambda: tau_grid(spec, keys, points)),
            raised(lambda: tau_generator(spec, keys[0], g)),
            raised(lambda: lpacket_sum(spec, hc_parameter(spec, keys[0]), g)),
        ):
            assert got.root == want.root and str(got) == str(want)


def test_empty_keys_and_points():
    spec = real_form("su21")
    singular = singular_exact_point(spec)
    # no keys: nothing is evaluated, so even a singular point raises nothing
    assert tau_grid(spec, [], [singular]) == oracle.tau_grid(spec, [], [singular]) == []
    keys = small_keys(spec, 3)
    assert tau_grid(spec, keys, []) == oracle.tau_grid(spec, keys, []) == [(), (), ()]


def test_packet_guard_refuses_the_same_disagreement():
    # the painted-F4 packet query whose two routes differ by 7.1e-10
    (spec,) = painted_forms("F4", [(0,)])
    g = TorusPoint.exact_point([Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(1, 17)])
    lam_hc = Weight((6, 2, 2, 2))
    with pytest.raises(ConsistencyError) as want:
        oracle.lpacket_sum(spec, lam_hc, g)
    with pytest.raises(ConsistencyError) as got:
        lpacket_sum(spec, lam_hc, g)
    assert str(got.value) == str(want.value)


def test_weights_beyond_32_bits():
    # orbit coordinates that overflow array('i') are kept as Python ints
    spec = real_form("compact(A2)")
    key = GeneratorKey(Weight((2 * 10**11, 2)))
    points = exact_points(spec, 69, 2) + real_points(spec, 70)[:1]
    assert tau_grid(spec, [key], points) == oracle.tau_grid(spec, [key], points)
