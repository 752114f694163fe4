"""Torus exponentials, regularity, numerators/denominators, and fixed-point sums."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbint.errors import SingularPointError, ValidationError
from orbint.realform import real_form
from orbint.rootsys import Weight, build_datum, positive_roots, rho, weyl_group
from orbint.toruschar import (
    ConjugacyDescriptor,
    TorusPoint,
    ab_fixed_sum,
    char_quotient,
    delta_p_char,
    eval_weight,
    guard_nonsingular,
    is_regular,
    negated_system,
    parse_torus_point,
    root_factors,
    serialize_torus_point,
    weyl_act_point,
    weyl_denominator,
    weyl_numerator,
)
from tau_oracles import fraction_is_regular, fraction_root_factors


def rational_points(datum, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
        pt = TorusPoint.exact_point(Fraction(rng.randrange(1, q), q) for _ in range(datum.rank))
        if is_regular(pt, datum):
            out.append(pt)
    return out


def test_eval_weight_examples():
    g = TorusPoint.exact_point([Fraction(1, 4)])
    assert cmath.isclose(eval_weight(Weight((2,)), g), 1j, abs_tol=1e-15)  # omega
    assert cmath.isclose(eval_weight(Weight((0,)), g), 1, abs_tol=1e-15)
    assert cmath.isclose(eval_weight(Weight((4,)), g), -1, abs_tol=1e-15)  # alpha


def test_eval_weight_unit_modulus():
    rng = random.Random(1)
    datum = build_datum("B2")
    for g in rational_points(datum, 20, 2):
        lam = Weight((rng.randrange(-9, 10), rng.randrange(-9, 10)))
        assert abs(abs(eval_weight(lam, g)) - 1) <= 1e-15


def test_exact_coords_reduced():
    g = TorusPoint.exact_point([Fraction(9, 4), Fraction(-1, 3)])
    assert g.coords == (Fraction(1, 4), Fraction(5, 3))
    # reduction mod 2 leaves every half-weight exponential unchanged
    lam = Weight((1, 3))
    h = TorusPoint.exact_point([Fraction(9, 4) + 2, Fraction(-1, 3) - 4])
    assert cmath.isclose(eval_weight(lam, g), eval_weight(lam, h), abs_tol=1e-14)


def test_regularity():
    a1 = build_datum("A1")
    assert not is_regular(TorusPoint.exact_point([Fraction(1, 2)]), a1)
    assert is_regular(TorusPoint.exact_point([Fraction(1, 5)]), a1)
    a2 = build_datum("A2")
    # alpha1 + alpha2 pairs to 1/3 + 2/3 = 1, so this point is singular
    assert not is_regular(TorusPoint.exact_point([Fraction(1, 3), Fraction(2, 3)]), a2)
    # every root pairing at (1/3, 1/3) is 1/3 or 2/3, hence regular
    assert is_regular(TorusPoint.exact_point([Fraction(1, 3), Fraction(1, 3)]), a2)


def test_weyl_numerator_examples():
    a1 = build_datum("A1")
    g = TorusPoint.exact_point([Fraction(1, 4)])
    w_full = weyl_group(a1)
    assert cmath.isclose(weyl_numerator(Weight((2,)), g, w_full), 2j, abs_tol=1e-14)
    ident_only = [w_full.identity()]
    assert cmath.isclose(
        weyl_numerator(Weight((2,)), g, ident_only), eval_weight(Weight((2,)), g), abs_tol=1e-15
    )


def test_numerator_antisymmetry():
    rng = random.Random(5)
    for name in ["A2", "C2", "G2"]:
        datum = build_datum(name)
        group = weyl_group(datum)
        for g in rational_points(datum, 5, hash(name) % 1000):
            mu = Weight((2 * rng.randrange(0, 4), 2 * rng.randrange(0, 4)))
            base = weyl_numerator(mu, g, group)
            for w in group:
                flipped = weyl_numerator(w.apply(mu), g, group)
                assert abs(flipped - w.sign * base) <= 1e-10 * max(1.0, abs(base))


def test_weyl_denominator_examples():
    a1 = build_datum("A1")
    g = TorusPoint.exact_point([Fraction(1, 4)])
    assert cmath.isclose(weyl_denominator(g, positive_roots(a1)), 2j, abs_tol=1e-14)
    singular = TorusPoint.exact_point([Fraction(1, 2)])
    assert abs(weyl_denominator(singular, positive_roots(a1))) <= 1e-14


def test_denominator_formula():
    for name in ["A1", "A2", "B2", "C2", "G2"]:
        datum = build_datum(name)
        pos = positive_roots(datum)
        group = weyl_group(datum)
        r = rho(pos)
        for g in rational_points(datum, 25, hash(name) % 997):
            num = weyl_numerator(r, g, group)
            den = weyl_denominator(g, pos)
            assert abs(num - den) <= 1e-10


def test_delta_p_char():
    sl2r = real_form("sl2r")
    g = TorusPoint.exact_point([Fraction(1, 5)])
    expected = -2j * math.sin(2 * math.pi / 5)  # calibrated sign
    assert cmath.isclose(delta_p_char(g, sl2r), expected, abs_tol=1e-14)
    compact = real_form("compact(A2)")
    g2 = TorusPoint.exact_point([Fraction(1, 5), Fraction(1, 7)])
    assert delta_p_char(g2, compact) == 1.0


def test_wedge_p_identity():
    # prod_{R_n}(1 - e^alpha) = (-1)^{dim/2} * (prod_{R_n^+}(e^{a/2}-e^{-a/2}))^2
    for preset in ["sl2r", "su21", "sp4r", "compact(A2)"]:
        spec = real_form(preset)
        m = spec.dim_gk // 2
        for g in rational_points(spec.datum, 25, 11 + m):
            lhs = complex(1.0)
            for alpha in spec.noncompact_positive:
                lhs *= (1 - eval_weight(alpha, g)) * (1 - eval_weight(-alpha, g))
            chi = weyl_denominator(g, spec.noncompact_positive)
            assert abs(lhs - (-1) ** m * chi * chi) <= 1e-10


def test_char_quotient_examples():
    ca1 = real_form("compact(A1)")
    g = TorusPoint.exact_point([Fraction(1, 6)])
    group = weyl_group(ca1.datum)
    value = char_quotient(Weight((4,)), g, group, ca1.positive_system)
    assert cmath.isclose(value, 2 * math.cos(2 * math.pi / 6), abs_tol=1e-12)

    sl2r = real_form("sl2r")
    g5 = TorusPoint.exact_point([Fraction(1, 5)])
    ident = [weyl_group(sl2r.datum).identity()]
    value = char_quotient(Weight((0,)), g5, ident, sl2r.positive_system)
    assert cmath.isclose(value, 1 / (2j * math.sin(2 * math.pi / 5)), abs_tol=1e-13)


def test_char_quotient_rho_is_one():
    for name in ["A2", "C2"]:
        datum = build_datum(name)
        pos = positive_roots(datum)
        group = weyl_group(datum)
        for g in rational_points(datum, 10, 31):
            value = char_quotient(rho(pos), g, group, pos)
            assert abs(value - 1) <= 1e-10


def test_char_quotient_singular_error_carries_root():
    a1 = build_datum("A1")
    g = TorusPoint.exact_point([Fraction(1, 2)])
    with pytest.raises(SingularPointError) as err:
        char_quotient(Weight((2,)), g, weyl_group(a1), positive_roots(a1))
    assert err.value.root == positive_roots(a1)[0]
    # 2 * (1/2 + 1e-17) rounds to the integer 1.0: the factor is 0.0 in doubles
    near = TorusPoint.exact_point([Fraction(1, 2) + Fraction(1, 10**17)])
    with pytest.raises(SingularPointError, match="numerically singular") as err:
        char_quotient(Weight((2,)), near, weyl_group(a1), positive_roots(a1))
    assert err.value.root == positive_roots(a1)[0]


def test_ab_fixed_sum_examples():
    a1 = build_datum("A1")
    group = weyl_group(a1)
    pos = positive_roots(a1)
    g6 = TorusPoint.exact_point([Fraction(1, 6)])
    value = ab_fixed_sum(Weight((2,)), g6, group, pos)
    assert cmath.isclose(value, 2 * math.cos(2 * math.pi / 6), abs_tol=1e-12)

    g4 = TorusPoint.exact_point([Fraction(1, 4)])
    single = ab_fixed_sum(Weight((0,)), g4, [group.identity()], pos)
    assert cmath.isclose(single, 0.5, abs_tol=1e-14)


def test_ab_fixed_sum_matches_char_quotient():
    # localization form vs alternating-sum form of the same character
    rng = random.Random(13)
    for name in ["A1", "A2", "C2"]:
        datum = build_datum(name)
        group = weyl_group(datum)
        pos = positive_roots(datum)
        r = rho(pos)
        for g in rational_points(datum, 10, 17):
            nu = Weight(tuple(2 * rng.randrange(0, 3) for _ in range(datum.rank)))
            lhs = ab_fixed_sum(nu, g, group, pos)
            rhs = char_quotient(nu + r, g, group, pos)
            assert abs(lhs - rhs) <= 1e-9


def test_weyl_act_point_convention():
    a2 = build_datum("A2")
    g = TorusPoint.exact_point([Fraction(1, 5), Fraction(2, 7)])
    mu = Weight((2, 4))
    for w in weyl_group(a2):
        moved = weyl_act_point(w, g)
        inv = next(
            v
            for v in weyl_group(a2)
            if all(v.apply(w.apply(Weight(tuple(2 if i == j else 0 for i in range(2))))).coords2
                   == (tuple(2 if i == j else 0 for i in range(2))) for j in range(2))
        )
        assert cmath.isclose(eval_weight(mu, moved), eval_weight(inv.apply(mu), g), abs_tol=1e-13)


def test_parse_and_serialize():
    g = parse_torus_point("1/5, 2/7")
    assert g.coords == (Fraction(1, 5), Fraction(2, 7))
    assert serialize_torus_point(g) == ["1/5", "2/7"]
    h = parse_torus_point("0.25,1/2")
    assert h.coords == (Fraction(1, 4), Fraction(1, 2))
    assert serialize_torus_point(h) == ["1/4", "1/2"]
    with pytest.raises(ValidationError):
        parse_torus_point("")
    with pytest.raises(ValidationError):
        parse_torus_point("a,b")


def test_descriptors():
    g = TorusPoint.exact_point([Fraction(1, 5)])
    assert ConjugacyDescriptor.elliptic(g).kind == "elliptic"
    assert ConjugacyDescriptor.non_elliptic().point is None
    assert ConjugacyDescriptor.unequal_rank_ambient().kind == "unequal_rank_ambient"
    with pytest.raises(ValidationError):
        ConjugacyDescriptor("elliptic", None)
    with pytest.raises(ValidationError):
        ConjugacyDescriptor("nonsense", None)


def test_ab_fixed_sum_singular_point_rejected():
    a1 = build_datum("A1")
    group = weyl_group(a1)
    with pytest.raises(SingularPointError):
        ab_fixed_sum(Weight((2,)), TorusPoint.exact_point([Fraction(1, 2)]), group, positive_roots(a1))


# ---------------------------------------------------------------------------
# integer root pairings against the Fraction route they replaced

PAIRING_TYPES = ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4", "B6")
B6_POINT = (
    "B6",
    (Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(1, 17), Fraction(5, 19), Fraction(1, 23)),
)


@st.composite
def typed_points(draw, denominators):
    """(Cartan type, exact coordinates) with denominators drawn from the strategy."""
    name = draw(st.sampled_from(PAIRING_TYPES))
    rank = build_datum(name).rank
    coords = tuple(
        Fraction(draw(st.integers(-(10**15), 10**15)), draw(denominators)) for _ in range(rank)
    )
    return name, coords


ANY_DENOMINATOR = st.one_of(st.integers(1, 60), st.integers(10**6, 10**12))
SMALL_DENOMINATOR = st.sampled_from((1, 2, 3, 4, 6, 12))


def outcome(evaluate, *args):
    """The value, or the root and message of the SingularPointError raised."""
    try:
        return evaluate(*args)
    except SingularPointError as err:
        return ("singular", err.root, str(err))


def check_pairings(name, coords) -> list:
    """Assert that root_factors and guard_nonsingular give the Fraction route's
    outcome on the positive system, its negation and its reversal; return
    those outcomes."""
    pos = positive_roots(build_datum(name))
    g = TorusPoint.exact_point(coords)
    outcomes = []
    for roots in (pos, negated_system(pos), pos[::-1]):
        want = outcome(fraction_root_factors, g, roots)
        assert outcome(root_factors, g, roots) == want
        singular = want[0] == "singular"
        assert outcome(guard_nonsingular, g, roots) == (want if singular else None)
        outcomes.append(want)
    return outcomes


@settings(max_examples=150, deadline=None, database=None)
@given(typed_points(ANY_DENOMINATOR))
@example(B6_POINT)
@example(("A2", (Fraction(1, 1000003), Fraction(999999, 1000033))))
def test_root_factors_match_the_fraction_route(point):
    name, coords = point
    check_pairings(name, coords)


@settings(max_examples=150, deadline=None, database=None)
@given(typed_points(SMALL_DENOMINATOR))
@example(("A2", (Fraction(1, 3), Fraction(2, 3))))
def test_singular_points_raise_the_fraction_route_error(point):
    name, coords = point
    assume(not fraction_is_regular(TorusPoint.exact_point(coords), build_datum(name)))
    assert all(want[0] == "singular" for want in check_pairings(name, coords))


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(typed_points(ANY_DENOMINATOR), typed_points(SMALL_DENOMINATOR)))
@example(B6_POINT)
def test_is_regular_matches_the_fraction_definition(point):
    name, coords = point
    datum = build_datum(name)
    g = TorusPoint.exact_point(coords)
    assert is_regular(g, datum) == fraction_is_regular(g, datum)
