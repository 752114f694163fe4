"""Stable integrals, packet sums, identity limits, formal degrees, coset identity."""

import math
import random
from fractions import Fraction
from operator import mul

import pytest
from weyl_oracles import painted_forms

from orbint import realform, rootsys, stable
from orbint.cli import main
from orbint.errors import LimitPathError, ValidationError
from orbint.ktrace import random_regular_point, w_orbit, wk_orbit
from orbint.realform import (
    KClass, coset_reps, generator_key, hc_parameter, is_regular_param, real_form, rho_c, weyl_k,
)
from orbint.rootsys import Weight, pairing, rho, positive_roots, weyl_dim, weyl_group
from orbint.stable import (
    continuity_check,
    formal_degree,
    limit_at_identity,
    lpacket_sum,
    stable_tau,
    tau_e,
)
from orbint.toruschar import TorusPoint, weyl_act_point
from orbint.verify import PAINTED_FORMS, char_identity_check

SL2R = real_form("sl2r")
SU21 = real_form("su21")
SP4R = real_form("sp4r")
CA2 = real_form("compact(A2)")


def gen_class(spec, coords):
    return KClass.generator(generator_key(spec, Weight(coords)))


def test_sl2r_stable_cancellation():
    x = gen_class(SL2R, (0,))
    for q in [5, 7, 11, 13]:
        g = TorusPoint.exact_point([Fraction(1, q)])
        assert abs(stable_tau(SL2R, x, g)) <= 1e-13


def test_sl2r_stable_closed_form():
    # two-translate sum: sin(3 theta)/sin(theta) with the calibrated sign (+)
    x = gen_class(SL2R, (6,))
    g = TorusPoint.exact_point([Fraction(1, 7)])
    theta = 2 * math.pi / 7
    value = stable_tau(SL2R, x, g)
    assert abs(value - math.sin(3 * theta) / math.sin(theta)) <= 1e-12


def test_compact_stable_equals_tau():
    from orbint.ktrace import tau_class
    from orbint.toruschar import ConjugacyDescriptor

    x = gen_class(CA2, (2, 0))
    rng = random.Random(5)
    for _ in range(3):
        g = random_regular_point(CA2.datum, rng)
        assert stable_tau(CA2, x, g) == tau_class(CA2, x, ConjugacyDescriptor.elliptic(g))


def test_stable_invariance_under_weyl_translates():
    rng = random.Random(21)
    for spec, coords in [(SL2R, (4,)), (SU21, (2, 0))]:
        x = gen_class(spec, coords)
        for _ in range(5):
            g = random_regular_point(spec.datum, rng)
            base = stable_tau(spec, x, g)
            for w in weyl_group(spec.datum):
                moved = stable_tau(spec, x, weyl_act_point(w, g))
                assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


def test_packets_build_no_weyl_group(monkeypatch, capsys):
    # values from before the coset walk, bit for bit, with every route to a
    # group matrix cut off and every cache of the Weyl layer cleared
    (b4,) = painted_forms("B4", [(0,)])
    (f4,) = painted_forms("F4", [(0,)])
    cases = [
        (b4, (-8, 4, 6, 2), ("18/59", "58/59", "23/59", "31/59"), 10.833723522859959 + 1.1546319456101628e-13j),
        (f4, (6, 2, 2, 2), ("1/5", "2/7", "3/11", "5/13"), 3.7355545708562294 + 8.481826966226805e-15j),
    ]

    def no_group(*args):
        raise AssertionError("a Weyl group was built")

    for cached in (weyl_group, weyl_k, coset_reps, realform.compact_steps, wk_orbit, w_orbit):
        cached.cache_clear()
    monkeypatch.setattr(rootsys, "_reflection_group", no_group)
    monkeypatch.setattr(realform, "_reflection_group", no_group)
    for spec, big2, t, expected in cases:
        g = TorusPoint.exact_point(Fraction(c) for c in t)
        assert lpacket_sum(spec, Weight(big2), g) == expected, spec.name
    code = main(["packet", "--type", "B4", "--compact-indices", ",".join(map(str, PAINTED_FORMS["B4/paint0"])),
                 "--Lambda=-4,2,3,1", "--t=18/59,58/59,23/59,31/59"])
    out = capsys.readouterr().out
    assert code == 0 and '"value": {"re": 10.833723522859959, "im": 1.1546319456101628e-13}' in out


def test_packet_sum_matches_stable():
    rng = random.Random(33)
    for spec, coords in [(SL2R, (0,)), (SL2R, (6,)), (SU21, (2, 2)), (SP4R, (0, 3))]:
        key = generator_key(spec, Weight(coords))
        lam_hc = hc_parameter(spec, key)
        for _ in range(6):
            g = random_regular_point(spec.datum, rng)
            lhs = lpacket_sum(spec, lam_hc, g)
            rhs = stable_tau(spec, KClass.generator(key), g)
            assert abs(lhs - rhs) <= 1e-10


def test_sl2r_packet_vanishes_at_singular_parameter():
    g = TorusPoint.exact_point([Fraction(1, 5)])
    assert abs(lpacket_sum(SL2R, Weight((0,)), g)) <= 1e-13


def test_compact_packet_is_full_character():
    from orbint.toruschar import char_quotient

    g = TorusPoint.exact_point([Fraction(1, 5), Fraction(2, 7)])
    lam = Weight((2, 0))
    lam_hc = lam + rho_c(CA2)
    lhs = lpacket_sum(CA2, lam_hc, g)
    rhs = char_quotient(lam_hc, g, weyl_group(CA2.datum), CA2.positive_system)
    assert abs(lhs - rhs) <= 1e-12


def test_limit_rejects_singular_direction():
    # the zero direction lies on every wall, and (1, -1) on the wall of su21's
    # root with doubled coordinates (2, 2)
    with pytest.raises(LimitPathError):
        limit_at_identity(SL2R, gen_class(SL2R, (6,)), [0])
    with pytest.raises(LimitPathError):
        limit_at_identity(SU21, gen_class(SU21, (2, 2)), [1, -1])


def test_formal_degree_values():
    assert formal_degree(SL2R, Weight((6,))) == 3
    assert formal_degree(SL2R, Weight((0,))) == 0
    assert formal_degree(SU21, Weight((0, 2))) == 0  # singular against alpha1
    lam = Weight((2, 0))
    assert formal_degree(CA2, lam + rho(positive_roots(CA2.datum))) == weyl_dim(CA2.datum, lam)


def test_formal_degree_matches_weyl_dim_when_shifted():
    for spec in [CA2, SU21]:
        for coords in [(0, 0), (2, 0), (2, 2)]:
            lam = Weight(coords)
            shifted = lam + rho(positive_roots(spec.datum))
            assert formal_degree(spec, shifted) == weyl_dim(spec.datum, lam)


def test_tau_e_values():
    assert tau_e(SL2R, gen_class(SL2R, (0,))) == 0  # limit of discrete series
    assert tau_e(SL2R, gen_class(SL2R, (6,))) == 3
    assert tau_e(SL2R, KClass.zero()) == 0
    x = gen_class(SL2R, (6,)) + gen_class(SL2R, (0,)).scaled(5)
    assert tau_e(SL2R, x) == 3


def test_continuity_sl2r():
    flat = continuity_check(SL2R, gen_class(SL2R, (0,)), [1])
    assert flat.passed and flat.limit == 0
    heavy = continuity_check(SL2R, gen_class(SL2R, (6,)), [1])
    assert heavy.passed and abs(heavy.limit) == 3


def test_continuity_compares_exactly(monkeypatch):
    # a tau_e off by 1e-30 fails: no tolerance is left in the comparison
    monkeypatch.setattr(stable, "tau_e", lambda spec, x: 3 + Fraction(1, 10**30))
    report = continuity_check(SL2R, gen_class(SL2R, (6,)), [1])
    assert abs(report.limit) == 3 and not report.passed


def test_continuity_su21():
    key = generator_key(SU21, Weight((2, 2)))
    expected = formal_degree(SU21, hc_parameter(SU21, key))
    # a float direction is taken exactly; the limit is exact at any scale of it
    for direction in ([1.0, 0.618], [Fraction(50), Fraction(309, 10)]):
        report = continuity_check(SU21, KClass.generator(key), direction)
        assert report.passed and abs(report.limit) == expected == Fraction(5, 4)


def test_char_identity_residual():
    rng = random.Random(8)
    for spec in [SL2R, SU21, SP4R]:
        for _ in range(10):
            g = random_regular_point(spec.datum, rng)
            nu = Weight(tuple(2 * rng.randrange(-2, 3) for _ in range(spec.rank)))
            assert char_identity_check(spec, nu, g) <= 1e-10


def test_char_identity_compact_single_coset():
    rng = random.Random(18)
    g = random_regular_point(CA2.datum, rng)
    assert char_identity_check(CA2, Weight((2, 4)), g) == 0.0


# ---------------------------------------------------------------------------
# exact jets at the identity

TYPES_UP_TO_RANK_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4")
JET_CASES = [
    pytest.param(name, painted, id=f"{name}/paint{''.join(map(str, painted))}" if painted else f"compact({name})")
    for name in TYPES_UP_TO_RANK_4
    for painted in [()] + [(i,) for i in range(int(name[1]))]
]


def sample_keys(spec, rng):
    """Up to three regular and two singular generator keys among seeded small
    weights (a compact form has no singular parameter)."""
    regular, singular = [], []
    for _ in range(300):
        try:
            key = generator_key(spec, Weight(tuple(rng.randrange(6) for _ in range(spec.rank))))
        except ValidationError:
            continue
        bucket, room = (regular, 3) if is_regular_param(spec, hc_parameter(spec, key)) else (singular, 2)
        if key not in bucket and len(bucket) < room:
            bucket.append(key)
        if len(regular) == 3 and (len(singular) == 2 or spec.is_compact):
            break
    return regular, singular


def off_wall_direction(spec, rng):
    """A seeded rational direction, redrawn until it pairs nonzero with every root."""
    while True:
        d = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(spec.rank)]
        if all(sum(map(mul, alpha.coords2, d)) for alpha in spec.positive_system):
            return d


def wall_direction(spec, rng):
    """An integer direction orthogonal to one seeded positive root."""
    c = rng.choice(spec.positive_system).coords2
    support = [j for j, cj in enumerate(c) if cj]
    n = [0] * spec.rank
    if len(support) >= 2:
        i, j = support[:2]
        n[i], n[j] = c[j], -c[i]
    elif spec.rank > 1:
        n[(support[0] + 1) % spec.rank] = 1
    return n


@pytest.mark.parametrize("name, painted", JET_CASES)
def test_jet_limit_is_the_signed_formal_degree(name, painted):
    (spec,) = painted_forms(name, [painted])
    rng = random.Random(f"{name}/{painted}")
    pos = spec.positive_system
    r = rho(positive_roots(spec.datum))
    sign = (-1) ** (spec.dim_gk // 2) * spec.spin_sign
    regular, singular = sample_keys(spec, rng)
    assert regular
    limits = {}
    for key in regular + singular:
        lam_hc = hc_parameter(spec, key)
        product = math.prod(pairing(spec.datum, lam_hc, a) / pairing(spec.datum, r, a) for a in pos)
        assert (product == 0) == (key in singular)
        orbit = w_orbit(spec, lam_hc)
        for _ in range(2):
            d = off_wall_direction(spec, rng)
            q = math.lcm(*(c.denominator for c in d))
            ns = [int(c * q) for c in d]
            moments = [sum(map(mul, image, ns)) for image in zip(*[iter(orbit.coords)] * orbit.rank)]
            for k in range(len(pos)):  # the numerator vanishes to order |R+| at e
                assert sum(e * a**k for e, a in zip(orbit.signs, moments)) == 0
            x = KClass.generator(key)
            limits[key] = limit_at_identity(spec, x, d)
            assert limits[key] == sign * product  # whichever the direction
            report = continuity_check(spec, x, d)
            assert report.passed and report.tau_e_value == abs(product)
    if len(regular) >= 2:  # linear in the class
        x = KClass.from_pairs([(regular[0], 1), (regular[1], -2)])
        assert limit_at_identity(spec, x, off_wall_direction(spec, rng)) == limits[regular[0]] - 2 * limits[regular[1]]
    with pytest.raises(LimitPathError):
        limit_at_identity(spec, KClass.generator(regular[0]), wall_direction(spec, rng))
