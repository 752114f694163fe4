"""The batch kernel reproduces the per-key formulas it replaced, bit for bit.

``tau_grid``, ``tau_generator``, ``tau_class``, ``synth_family`` and
``lpacket_sum`` are compared ``==`` against the oracles in ``tau_oracles.py``,
on the five presets and three painted forms, at exact and real-mode points.
``tau_lattice``, the integer-phase route of the synthesis lattice, is
compared ``==`` against ``tau_grid`` over the same points, errors included.
``stable_tau`` sums over the W orbit instead of the coset translates, so it
is compared within 1e-12 relative to the translate route and to a 40-digit
W-orbit sum.
"""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
import tau_oracles as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from weyl_oracles import painted_forms

from orbint.errors import ConsistencyError, SingularPointError
from orbint.ktrace import (
    random_regular_point,
    tau_class,
    tau_generator,
    tau_grid,
    tau_lattice,
    w_orbit,
    wk_orbit,
)
from orbint.realform import (
    GeneratorKey,
    KClass,
    coset_reps,
    hc_parameter,
    is_regular_param,
    real_form,
    rho_c,
    weyl_k,
)
from orbint.rootsys import Weight, weyl_group
from orbint.stable import lpacket_sum, stable_tau
from orbint.tannaka import synth_family
from orbint.toruschar import ConjugacyDescriptor, RootFactors, TorusPoint, is_regular
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
    for g in exact_points(spec, 64, 2) + real_points(spec, 65)[:1]:
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
    points = exact_points(spec, 69, 2) + real_points(spec, 70)[:1]
    assert tau_grid(spec, [key], points) == oracle.tau_grid(spec, [key], points)


# ---------------------------------------------------------------------------
# the lattice route

LATTICE_FORMS = [real_form(name) for name in ("sl2r", "su21", "sp4r", "compact(A2)")]
LATTICE_FORMS += painted_forms("G2", [(0,)]) + painted_forms("A3", [(1,)])
LATTICE_IDS = [spec.name for spec in LATTICE_FORMS]


def lattice(n, offsets):
    """The synthesis lattice's layout: axis j holds 97k + r_j for k < n, over q = 97n."""
    return [[97 * k + r for k in range(n)] for r in offsets], 97 * n


def lattice_points(axes, q):
    return [TorusPoint(tuple(Fraction(m, q) for m in ns), True) for ns in itertools.product(*axes)]


def lattice_keys(spec):
    """Two small keys, one whose lambda_hc is singular (its orbit repeats
    weights) and one with a coordinate beyond 32 bits."""
    big = GeneratorKey(Weight((2 * 10**11,) + (2,) * (spec.rank - 1)))
    return small_keys(spec, 2) + [singular_key(spec), big]


def outcome(fn):
    """The values, or the error's kind, root and message."""
    try:
        return fn()
    except SingularPointError as err:
        return ("singular", err.root, str(err))
    except ConsistencyError as err:
        return ("consistency", str(err))


@st.composite
def lattice_cases(draw):
    index = draw(st.integers(0, len(LATTICE_FORMS) - 1))
    n = draw(st.integers(4, 12))
    offsets = tuple(draw(st.integers(1, 96)) for _ in range(LATTICE_FORMS[index].rank))
    return index, n, offsets


@settings(max_examples=60, deadline=None, database=None)
@given(lattice_cases())
@example((5, 12, (3, 41, 88)))  # A3/paint1 at the largest axis count
@example((1, 4, (50, 3)))  # su21: regular at the first point, singular at the second
def test_lattice_route_matches_tau_grid(case):
    index, n, offsets = case
    spec = LATTICE_FORMS[index]
    axes, q = lattice(n, offsets)
    keys = lattice_keys(spec)
    want = outcome(lambda: tau_grid(spec, keys, lattice_points(axes, q)))
    assert outcome(lambda: tau_lattice(spec, keys, axes, q)) == want


def test_singular_lattice_raises_the_same_root_and_message():
    # su21's first root pairs to a = 2n_1 - n_2 = 97(2k_1 - k_2 + 1) here, so
    # (k_1, k_2) = (0, 1), the second lattice point, is the first singular one
    spec = real_form("su21")
    axes, q = lattice(4, (50, 3))
    keys = lattice_keys(spec)
    want = outcome(lambda: tau_grid(spec, keys, lattice_points(axes, q)))
    assert want[0] == "singular"
    assert outcome(lambda: tau_lattice(spec, keys, axes, q)) == want
    assert outcome(lambda: tau_grid(spec, keys, lattice_points(axes, q)[:1]))[0] != "singular"


@pytest.mark.parametrize("spec", LATTICE_FORMS, ids=LATTICE_IDS)
def test_lattice_dual_path_error_names_the_same_point(spec, monkeypatch):
    # scaling every product splits path_a (one product) from path_b (two)
    product = RootFactors.product
    monkeypatch.setattr(RootFactors, "product", lambda self, indices: 1.5 * product(self, indices))
    axes, q = lattice(4, (3, 41, 88)[: spec.rank])
    keys = small_keys(spec, 2)
    want = outcome(lambda: tau_grid(spec, keys, lattice_points(axes, q)))
    assert want[0] == "consistency"
    assert outcome(lambda: tau_lattice(spec, keys, axes, q)) == want


def test_lattice_with_no_keys_evaluates_nothing():
    spec = real_form("su21")
    axes, q = lattice(4, (50, 3))  # singular, see above
    assert tau_lattice(spec, [], axes, q) == tau_grid(spec, [], lattice_points(axes, q)) == []
