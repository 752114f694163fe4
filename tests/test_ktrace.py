"""tau on generators and classes: closed-form values, vanishing, distinguishing."""

import cmath
import math
import random
from fractions import Fraction

import pytest
import tau_oracles as oracle

from orbint.errors import SingularPointError, ValidationError
from orbint.ktrace import (
    class_is_zero,
    lds_character,
    lds_character_sum,
    random_regular_point,
    tau_class,
    tau_generator,
    tau_numerator,
)
from orbint.realform import KClass, generator_key, real_form
from orbint.rootsys import Weight
from orbint.toruschar import (
    ConjugacyDescriptor,
    TorusPoint,
    is_regular,
    negated_system,
)
from orbint.verify import random_class, small_keys

SL2R = real_form("sl2r")
SU21 = real_form("su21")
SP4R = real_form("sp4r")
CA1 = real_form("compact(A1)")
CA2 = real_form("compact(A2)")
PRESETS = [SL2R, SU21, SP4R, CA2]


def test_sl2r_limit_of_discrete_series_value():
    # tau at the flat generator is 1/(2i sin phi) with phi = 2 pi t
    key = generator_key(SL2R, Weight((0,)))
    g = TorusPoint.exact_point([Fraction(1, 5)])
    value = tau_generator(SL2R, key, g)
    expected = 1 / (2j * math.sin(2 * math.pi / 5))
    assert abs(value.value - expected) <= 1e-13
    assert abs(value.value - (-0.5257311121191336j)) <= 1e-12


def test_sl2r_higher_generator_value():
    key = generator_key(SL2R, Weight((4,)))  # lambda = 2 omega
    g = TorusPoint.exact_point([Fraction(1, 5)])
    value = tau_generator(SL2R, key, g).value
    expected = cmath.exp(4j * math.pi / 5) / (2j * math.sin(2 * math.pi / 5))
    assert abs(value - expected) <= 1e-13


def test_compact_tau_is_the_character():
    key = generator_key(CA1, Weight((2,)))
    g = TorusPoint.exact_point([Fraction(1, 6)])
    value = tau_generator(CA1, key, g).value
    assert abs(value - 1.0) <= 1e-12  # 2 cos(60 degrees)


def test_dual_paths_agree_everywhere():
    rng = random.Random(42)
    for spec in PRESETS:
        keys = small_keys(spec, 5)
        for _ in range(12):
            g = random_regular_point(spec.datum, rng)
            for key in keys:
                tv = tau_generator(spec, key, g)
                assert tv.agreement <= 1e-10
                assert tv.value == tv.path_a


def test_singular_point_rejected():
    key = generator_key(SL2R, Weight((0,)))
    with pytest.raises(SingularPointError):
        tau_generator(SL2R, key, TorusPoint.exact_point([Fraction(1, 2)]))


def test_tau_class_vanishing_and_linearity():
    rng = random.Random(4)
    keys = small_keys(SU21, 5)
    x = KClass.generator(keys[0], 2) + KClass.generator(keys[3], -1)
    y = KClass.generator(keys[1], 1) + KClass.generator(keys[0], -2)
    assert tau_class(SU21, x, ConjugacyDescriptor.non_elliptic()) == 0
    assert tau_class(SU21, x, ConjugacyDescriptor.unequal_rank_ambient()) == 0
    assert tau_class(SU21, KClass.zero(), ConjugacyDescriptor.non_elliptic()) == 0
    for _ in range(5):
        g = random_regular_point(SU21.datum, rng)
        d = ConjugacyDescriptor.elliptic(g)
        lhs = tau_class(SU21, x + y, d)
        rhs = tau_class(SU21, x, d) + tau_class(SU21, y, d)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert tau_class(SU21, KClass.zero(), d) == 0


def test_random_regular_point_determinism():
    a = random_regular_point(SU21.datum, random.Random(1234))
    b = random_regular_point(SU21.datum, random.Random(1234))
    assert a == b
    assert is_regular(a, SU21.datum)
    assert all(c.denominator <= 997 for c in a.coords)


def test_class_is_zero_verdicts():
    keys = small_keys(SL2R, 5)
    assert class_is_zero(SL2R, KClass.zero()).is_zero
    cancel = KClass.generator(keys[1]) - KClass.generator(keys[1])
    assert class_is_zero(SL2R, cancel).is_zero
    verdict = class_is_zero(SL2R, KClass.generator(keys[0]))
    assert not verdict.is_zero
    assert verdict.witness is not None
    assert abs(verdict.witness_value) > 1e-8
    # deterministic given the seed
    again = class_is_zero(SL2R, KClass.generator(keys[0]))
    assert again.witness == verdict.witness


def test_injectivity_style_sweep():
    rng = random.Random(77)
    for spec in [SL2R, SU21]:
        keys = small_keys(spec, 6)
        for _ in range(25):
            x = random_class(keys, rng)
            verdict = class_is_zero(spec, x, samples=20, seed=rng.randrange(10**6))
            assert not verdict.is_zero
            assert verdict.samples_used <= 20


def test_lds_character_and_sign_flip():
    g = TorusPoint.exact_point([Fraction(1, 5)])
    pos = SL2R.positive_system
    plus = lds_character(SL2R, Weight((0,)), pos, g)
    minus = lds_character(SL2R, Weight((0,)), negated_system(pos), g)
    expected = 1 / (2j * math.sin(2 * math.pi / 5))
    assert abs(plus - expected) <= 1e-13
    assert abs(minus + expected) <= 1e-13
    assert abs(abs(plus) - abs(minus)) <= 1e-13
    # the reducible induced character vanishes on the torus
    total = lds_character_sum(SL2R, Weight((0,)), [pos, negated_system(pos)], g)
    assert abs(total) <= 1e-13
    # a single system is just the character
    assert lds_character_sum(SL2R, Weight((0,)), [pos], g) == plus


def test_lds_character_matches_tau_on_default_system():
    rng = random.Random(15)
    for spec in [SL2R, SU21]:
        keys = small_keys(spec, 4)
        for _ in range(5):
            g = random_regular_point(spec.datum, rng)
            for key in keys:
                from orbint.realform import hc_parameter

                lam_hc = hc_parameter(spec, key)
                lhs = lds_character(spec, lam_hc, spec.positive_system, g)
                rhs = tau_generator(spec, key, g).value
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_discrete_series_character_closed_form():
    # regular parameter 3*omega on sl2r: +/- e^{3 i phi}-type quotient
    g = TorusPoint.exact_point([Fraction(1, 7)])
    value = lds_character(SL2R, Weight((6,)), SL2R.positive_system, g)
    phi = 2 * math.pi / 7
    expected = cmath.exp(3j * phi) / (2j * math.sin(phi))
    assert abs(value - expected) <= 1e-13


def test_invalid_positive_system_rejected():
    g = TorusPoint.exact_point([Fraction(1, 5), Fraction(2, 7)])
    pos = SU21.positive_system
    with pytest.raises(ValidationError):
        lds_character(SU21, Weight((2, 2)), pos[:2], g)
    with pytest.raises(ValidationError):
        lds_character(SU21, Weight((2, 2)), (pos[0], pos[0], pos[2]), g)
    with pytest.raises(ValidationError):
        lds_character(SU21, Weight((2, 2)), (Weight((2, 0)), pos[1], pos[2]), g)


def test_value_serializers():
    from orbint.jsonio import dumps
    from orbint.ktrace import tau_value_to_json

    key = generator_key(SL2R, Weight((0,)))
    g = TorusPoint.exact_point([Fraction(1, 5)])
    record = tau_value_to_json(tau_generator(SL2R, key, g))
    assert set(record) == {"value", "path_a", "path_b"}
    text = dumps(record)
    assert '"re"' in text and '"im"' in text


# Points where the alternating W_K numerator cancels.  Summed over the orbit,
# each exited 0 with the wrong value in its comment.  The K-type of each is
# smaller than W_K, so the numerator is its character, summed over its
# weights, times D_c, and nothing cancels.
MENDED = [
    # the README's compact(B6) point: 0.99999999992 + 2.6e-8i
    ("compact(B6)", (0, 0, 0, 0, 0, 0), ("1/7", "2/11", "3/13", "1/17", "5/19", "1/23")),
    # near the identity: 8.4e11 - 1.0e11i
    ("compact(F4)", (2, 0, 0, 0), ("1/1000", "3/1000", "7/1000", "19/1000")),
    # on compact(B4)'s default synthesis lattice, conditioning 0.004: 2.977 - 5.461i
    ("compact(B4)", (0, 0, 0, 0), ("1505/1552", "1509/1552", "1461/1552", "713/1552")),
    # on compact(B3)'s 32^3 lattice, conditioning 0.008: 0.99977 + 5.1e-5i
    ("compact(B3)", (0, 0, 0), ("25/1552", "27/1552", "3/1552")),
    # near the identity: -1.03e20
    ("compact(A2)", (2, 0), ("1/10000000000000", "3/10000000000000")),
]


@pytest.mark.parametrize("name, lam2, t", MENDED, ids=[case[0] for case in MENDED])
def test_cancelling_numerators_are_summed_over_the_k_type(name, lam2, t):
    pytest.importorskip("mpmath")
    spec = real_form(name)
    key = generator_key(spec, Weight(lam2))
    g = TorusPoint.exact_point(Fraction(c) for c in t)
    assert tau_numerator(spec, key).route == "weights"
    value = tau_generator(spec, key, g)
    ref = oracle.mp_tau(spec, key, g)
    assert abs(value.value - ref) <= 1e-12 * abs(ref)
    assert abs(value.path_b - ref) <= 1e-12 * abs(ref)
