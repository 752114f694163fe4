"""The batch kernel reproduces the per-key formulas it replaced, bit for bit.

``tau_grid``, ``tau_generator``, ``tau_class`` and ``lpacket_sum`` are
compared ``==`` against the oracles in ``tau_oracles.py``, on the five
presets and three painted forms, at points of small prime denominators and
at binary fractions with denominators near 2^60; the oracles pick each key's
numerator route (K-type weights or W_K orbit) by the same dim V < |W_K| rule.
``stable_tau`` sums over the W orbit instead of the coset translates, so it
is compared within 1e-12 relative to the translate route and to a 40-digit
W-orbit sum.
``synth_family`` synthesizes each key's numerator on its lattice one axis at
a time (``tannaka.synthesize``), which rounds in another order: it is
compared within 1e-12 relative to the mpmath W_K sum at strided lattice
points, and to ``tau_grid`` at every lattice point as the dual-path guard
compares two routes.
"""

import cmath
import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import tau_oracles as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from weyl_oracles import painted_forms

from orbint import ktrace, tannaka
from orbint.errors import ConsistencyError, SingularPointError
from orbint.ktrace import (
    random_regular_point,
    tau_class,
    tau_generator,
    tau_grid,
    w_orbit,
    wk_orbit,
)
from orbint.realform import (
    GeneratorKey,
    KClass,
    coset_reps,
    generator_key,
    hc_parameter,
    is_regular_param,
    real_form,
    rho_c,
    weyl_k,
)
from orbint.rootsys import Weight, weyl_group
from orbint.stable import lpacket_sum, stable_tau
from orbint.tannaka import synth_family
from orbint.toruschar import ConjugacyDescriptor, TorusPoint, is_regular, root_factors
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


def binary_points(spec, seed):
    """A generic point and two points of a ray toward the identity, each
    coordinate a random double taken exactly (a binary fraction)."""
    rng = random.Random(seed)
    generic = TorusPoint.exact_point(rng.uniform(0.05, 0.95) for _ in range(spec.rank))
    direction = [rng.uniform(0.3, 1.0) for _ in range(spec.rank)]
    return [generic] + [TorusPoint.exact_point(s * c for c in direction) for s in (1e-2, 2.5e-3)]


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
    points = exact_points(spec, 61) + binary_points(spec, 62)
    assert tau_grid(spec, keys, points) == oracle.tau_grid(spec, keys, points)
    for g in points:
        for key in keys:
            value = tau_generator(spec, key, g)
            assert (value.path_a, value.path_b) == oracle.tau_paths(spec, key, g)
            assert value.value == value.path_a


def signed_images(orbit):
    """Counter of (image, sign) over an orbit's terms, and its image count."""
    images = list(zip(*[iter(orbit.coords)] * orbit.rank))
    assert len(images) == len(orbit.signs)
    return Counter(zip(images, orbit.signs)), len(images)


@pytest.mark.parametrize("spec", FORMS[1:], ids=IDS[1:])
def test_singular_key_orbit_repeats_weights(spec):
    # sl2r (FORMS[0]) has W_K = 1, so no orbit of it can repeat.  The group
    # orbit repeats weights and its signs cancel on every image, so the
    # alternating sum vanishes identically and wk_orbit returns no terms.
    lam_hc = hc_parameter(spec, singular_key(spec))
    assert signed_images(wk_orbit(spec, lam_hc)) == (Counter(), 0)
    terms, count = signed_images(oracle.signed_orbit(lam_hc, weyl_k(spec)))
    images = {image for image, _ in terms}
    assert len(images) < count
    assert all(terms[(image, 1)] == terms[(image, -1)] for image in images)


ORBIT_FORMS = [
    spec for name in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2") for spec in painted_forms(name)
] + [real_form("compact(B5)"), real_form("compact(D5)")]


@pytest.mark.parametrize("spec", ORBIT_FORMS, ids=[spec.name for spec in ORBIT_FORMS])
def test_wk_orbit_matches_the_group_orbit(spec):
    """Keys and their packet translates v.lambda_hc: ``wk_orbit`` and ``w_orbit``
    give the same signed images as the group-matrix orbits over W_K and W, or
    no terms where that orbit cancels."""
    lams = [hc_parameter(spec, key) for key in small_keys(spec, 3)]
    lams += [v.apply(lam) for lam in lams for v in coset_reps(spec)]
    lams.append(hc_parameter(spec, singular_key(spec)))
    for orbit, group in ((wk_orbit, weyl_k(spec)), (w_orbit, weyl_group(spec.datum))):
        for lam in lams:
            want, count = signed_images(oracle.signed_orbit(lam, group))
            images = {image for image, _ in want}
            if len(images) == count:
                assert signed_images(orbit(spec, lam)) == (want, count)
            else:
                assert signed_images(orbit(spec, lam)) == (Counter(), 0)
                assert all(want[(image, 1)] == want[(image, -1)] for image in images)


@pytest.mark.parametrize("spec", FORMS, ids=IDS)
def test_class_and_stable_values_match(spec):
    keys = keys_of(spec)
    rng = random.Random(63)
    for g in exact_points(spec, 64, 2) + binary_points(spec, 65)[:1]:
        x = random_class(keys, rng)
        assert tau_class(spec, x, ConjugacyDescriptor.elliptic(g)) == oracle.tau_class(spec, x, g)
        value = stable_tau(spec, x, g)
        assert abs(value - oracle.stable_tau(spec, x, g)) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("spec", FORMS, ids=IDS)
def test_stable_tau_is_the_w_orbit_sum(spec):
    """Within 1e-12 relative of the 40-digit W-orbit sum; ``==`` tau on a
    compact form, where W_K = W; an exact zero for a parameter on a wall."""
    pytest.importorskip("mpmath")
    keys = keys_of(spec)
    walls = [
        key for key in keys + [singular_key(spec)] if not is_regular_param(spec, hc_parameter(spec, key))
    ]
    assert walls
    rng = random.Random(71)
    for g in exact_points(spec, 72, 2):
        x = random_class(keys, rng)
        value = stable_tau(spec, x, g)
        ref = oracle.mp_stable_tau(spec, x, g)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
        if spec.is_compact:
            assert value == tau_class(spec, x, ConjugacyDescriptor.elliptic(g))
        for key in walls:
            assert stable_tau(spec, KClass.generator(key), g) == 0


def test_stable_tau_builds_no_weyl_group_element():
    cases = []
    for name in ("F4", "B4"):
        (spec,) = painted_forms(name, [(0,)])
        x = random_class(small_keys(spec, 4), random.Random(73))
        cases.append((spec, x, exact_points(spec, 74, 1)[0]))
    weyl_group.cache_clear()
    coset_reps.cache_clear()
    for spec, x, g in cases:
        stable_tau(spec, x, g)
    assert weyl_group.cache_info().currsize == 0
    assert coset_reps.cache_info().currsize == 0


@pytest.mark.parametrize("spec", FORMS, ids=IDS)
def test_lpacket_sum_matches(spec):
    keys = keys_of(spec)[:2]
    lams = [hc_parameter(spec, key) for key in keys] + [hc_parameter(spec, singular_key(spec))]
    for g in exact_points(spec, 66, 2) + binary_points(spec, 67)[:1]:
        for lam_hc in lams:
            assert lpacket_sum(spec, lam_hc, g) == oracle.lpacket_sum(spec, lam_hc, g)


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
    g = singular_exact_point(spec)
    points = exact_points(spec, 68, 1) + [g]
    want = raised(lambda: oracle.tau_grid(spec, keys, points))
    for got in (
        raised(lambda: tau_grid(spec, keys, points)),
        raised(lambda: tau_generator(spec, keys[0], g)),
        raised(lambda: lpacket_sum(spec, hc_parameter(spec, keys[0]), g)),
    ):
        assert got.root == want.root and str(got) == str(want)


def test_denominators_that_underflow_are_numerically_singular():
    # near the identity each of B5/paint0's 25 root factors is at most about
    # 7e-13: none is 0.0, and no phase rounds to an integer, but their product
    # underflows to 0.0
    (spec,) = painted_forms("B5", [(0,)])
    g = TorusPoint.exact_point(Fraction(k, 10**15) for k in (1, 3, 7, 19, 41))
    factors = root_factors(g, spec.positive_system).factors
    assert 0 < min(map(abs, factors)) and math.prod(factors) == 0
    weakest = spec.positive_system[min(range(len(factors)), key=lambda i: abs(factors[i]))]
    key = singular_key(spec)  # an empty W_K orbit: the denominators alone decide
    points = exact_points(spec, 75, 1) + [g, singular_exact_point(spec)]
    for got in (
        raised(lambda: tau_grid(spec, [key], points)),
        raised(lambda: tau_generator(spec, key, g)),
        raised(lambda: lpacket_sum(spec, hc_parameter(spec, key), g)),
    ):
        assert got.root == weakest and str(got) == f"torus point is numerically singular for root {weakest}"


def test_empty_keys_and_points():
    spec = real_form("su21")
    singular = singular_exact_point(spec)
    # no keys: nothing is evaluated, so even a singular point raises nothing
    assert tau_grid(spec, [], [singular]) == oracle.tau_grid(spec, [], [singular]) == []
    keys = small_keys(spec, 3)
    assert tau_grid(spec, keys, []) == oracle.tau_grid(spec, keys, []) == [(), (), ()]


def test_packet_guard_refuses_the_same_disagreement():
    # the painted-F4 packet query whose two routes differ by about 7.1e-10
    # (7.107e-10 against the translate route, 7.07e-10 against the W orbit)
    (spec,) = painted_forms("F4", [(0,)])
    g = TorusPoint.exact_point([Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(1, 17)])
    lam_hc = Weight((6, 2, 2, 2))
    for route in (oracle.lpacket_sum, lpacket_sum):
        with pytest.raises(ConsistencyError, match="packet sum and stable integral disagree by"):
            route(spec, lam_hc, g)


def test_weights_beyond_32_bits():
    # orbit coordinates that overflow array('i') are kept as Python ints
    spec = real_form("compact(A2)")
    key = GeneratorKey(Weight((2 * 10**11, 2)))
    points = exact_points(spec, 69, 2) + binary_points(spec, 70)[:1]
    assert tau_grid(spec, [key], points) == oracle.tau_grid(spec, [key], points)


# ---------------------------------------------------------------------------
# the synthesis lattice

LATTICE_FORMS = [real_form(name) for name in ("sl2r", "su21", "sp4r", "compact(A2)")]
LATTICE_FORMS += painted_forms("G2", [(0,)]) + painted_forms("A3", [(1,)])
LATTICE_IDS = [spec.name for spec in LATTICE_FORMS]


def lattice_points(axes, q):
    return [TorusPoint(tuple(Fraction(m, q) for m in ns)) for ns in itertools.product(*axes)]


def lattice_keys(spec):
    """Two small keys, one whose lambda_hc is singular (its orbit is empty)
    and one with a coordinate beyond 32 bits."""
    big = GeneratorKey(Weight((2 * 10**11,) + (2,) * (spec.rank - 1)))
    return small_keys(spec, 2) + [singular_key(spec), big]


def assert_agrees_with_tau_grid(spec, keys, family):
    """The synthesized values against ``tau_grid`` at every lattice point, as
    the dual-path guard compares two routes to one number: within
    DUAL_PATH_TOL, or 1e-12 relative to the larger value.  The two round in
    different orders and both err near a wall, so where they differ by more,
    the synthesized value is held within 1e-12 relative of the mpmath sum."""
    points = lattice_points(family.axes, family.q)
    for key, column in zip(keys, tau_grid(spec, keys, points)):
        got = family.values[key.lam]
        assert len(got) == len(column) == family.lattice_size
        for g, a, b in zip(points, got, column):
            if abs(a - b) > max(ktrace.DUAL_PATH_TOL, 1e-12 * max(1.0, abs(a), abs(b))):
                ref = oracle.mp_tau(spec, key, g)
                assert abs(a - ref) <= 1e-12 * max(1.0, abs(ref))


@st.composite
def lattice_cases(draw):
    index = draw(st.integers(0, len(LATTICE_FORMS) - 1))
    n = draw(st.integers(4, 12))
    picks = draw(st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True))
    return index, n, picks


@settings(max_examples=60, deadline=None, database=None)
@given(lattice_cases())
@example((5, 12, [0, 7]))  # A3/paint1 at the largest axis count
def test_lattice_route_matches_tau_grid(case):
    # random axis counts and small keys: the weight route, the orbit route,
    # and empty orbits, on synth_family's own regular lattices
    index, n, picks = case
    spec = LATTICE_FORMS[index]
    keys = [small_keys(spec, 8)[i] for i in picks] + lattice_keys(spec)[2:]
    assert_agrees_with_tau_grid(spec, keys, synth_family(spec, keys, n))


def no_weight_table(*args):
    raise AssertionError("a weight table was built")


@pytest.mark.parametrize("spec", LATTICE_FORMS, ids=LATTICE_IDS)
def test_orbit_route_keys_are_tau_grid_on_the_lattice(spec, monkeypatch):
    # a key whose K-type is not smaller than W_K is synthesized from its W_K
    # orbit, as tau_grid sums it: no weight table is built on the way
    keys = [key for key in lattice_keys(spec) if not oracle.weight_route(spec, key)]
    assert keys
    ktrace.tau_numerator.cache_clear()
    monkeypatch.setattr(ktrace, "weight_multiplicities", no_weight_table)
    assert_agrees_with_tau_grid(spec, keys, synth_family(spec, keys, 4))


def test_large_k_types_are_synthesized_from_their_orbit(monkeypatch):
    # su21 lambda = (200000, 0): a 2-term W_K orbit against a K-type of about
    # 10^5 weights, so the route rule keeps it on the orbit
    spec = real_form("su21")
    key = generator_key(spec, Weight((400000, 0)))
    ktrace.tau_numerator.cache_clear()
    monkeypatch.setattr(ktrace, "weight_multiplicities", no_weight_table)
    family = synth_family(spec, [key], 8)
    assert ktrace.tau_numerator(spec, key).route == "orbit"
    assert_agrees_with_tau_grid(spec, [key], family)


@pytest.mark.parametrize(
    "name, axis_count",
    [("sl2r", None), ("su21", 24), ("compact(A2)", 12), ("sp4r", 12), ("compact(B3)", None), ("compact(B4)", None)],
)
def test_synth_family_values_match(name, axis_count):
    """Within 1e-12 relative of the mpmath W_K sum at about 24 strided lattice
    points, on 32^3 for compact(B3) and 16^4 for compact(B4) (the default axis
    counts), and at the README's points on those two lattices, where the
    orbit route printed 0.99977 + 5.1e-5i and 2.977 - 5.461i for the trivial
    character."""
    pytest.importorskip("mpmath")
    spec = real_form(name)
    keys = small_keys(spec, 3)
    family = synth_family(spec, keys, axis_count)
    lattice = list(itertools.product(*family.axes))
    picks = list(range(0, len(lattice), len(lattice) // 24 + 1))
    readme = {"compact(B3)": (25, 27, 3), "compact(B4)": (1505, 1509, 1461, 713)}.get(name)
    if readme:
        picks.append(lattice.index(tuple(r * family.q // 1552 for r in readme)))
    for i in picks:
        g = TorusPoint(tuple(Fraction(m, family.q) for m in lattice[i]))
        for key in keys:
            ref = oracle.mp_tau(spec, key, g)
            assert abs(family.values[key.lam][i] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_lattice_with_no_keys_evaluates_nothing(monkeypatch):
    def no_synthesis(*args):
        raise AssertionError("a column was synthesized")

    monkeypatch.setattr(tannaka, "synthesize", no_synthesis)
    spec = real_form("su21")
    family = synth_family(spec, [], 4)
    assert family.values == {}
    assert tau_grid(spec, [], lattice_points(family.axes, family.q)) == []


def test_phase_tables_are_kept_per_denominator():
    # interleaved calls at several denominators q = 97n, more than the cache
    # keeps: every call reads the table of its own q, so a repeated axis
    # count gives the same values
    tannaka.phase_tables.cache_clear()
    spec = real_form("su21")
    keys = small_keys(spec, 2)
    seen = {}
    for n in (4, 6, 4, 6, 5, 7, 8, 4, 6):
        family = synth_family(spec, keys, n)
        values = [family.values[key.lam] for key in keys]
        assert seen.setdefault(n, values) == values
        assert_agrees_with_tau_grid(spec, keys, family)
        zeta = tannaka.phase_tables(family.q)
        assert zeta.q == family.q and all(zeta[k] == cmath.exp(1j * math.pi * (k % (2 * family.q) / family.q)) for k in zeta)
    assert tannaka.phase_tables.cache_info().hits >= 2


# synth_family's own lattices at the default axis count and at odd ones, and
# A3/paint1 on 16^3 points
SYNTHESIS_CASES = [(spec, n) for spec in LATTICE_FORMS if spec.rank <= 2 for n in (15, 31, 64)]
SYNTHESIS_CASES += [(LATTICE_FORMS[-1], 16)]


@pytest.mark.parametrize("spec, n", SYNTHESIS_CASES, ids=[f"{spec.name}-{n}" for spec, n in SYNTHESIS_CASES])
def test_lattice_route_matches_tau_grid_on_the_synthesis_lattice(spec, n):
    keys = lattice_keys(spec)
    assert_agrees_with_tau_grid(spec, keys, synth_family(spec, keys, n))
