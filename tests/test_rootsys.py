"""Root systems, Weyl groups, pairings, and the Freudenthal oracle."""

import math
import random
import sys
from fractions import Fraction

import pytest
from weyl_oracles import matmul_closure, reflection_matrix

from orbint.errors import ValidationError
from orbint.rootsys import (
    Weight,
    all_roots,
    build_datum,
    pairing,
    parse_rational,
    poincare_polynomial,
    positive_roots,
    rho,
    weight_from_fundamental,
    weight_multiplicities,
    weyl_dim,
    weyl_group,
    zero_weight,
)
from orbint.verify import _matmul, inversion_count

DATUM_NAMES = ["A1", "A2", "B2", "C2", "G2"]
# every Cartan type up to rank 4
UP_TO_RANK_4 = [f"A{n}" for n in range(1, 5)] + ["B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]


def closed_form_order(name):
    series, n = name[0], int(name[1:])
    if series == "A":
        return math.factorial(n + 1)
    if series in "BC":
        return 2**n * math.factorial(n)
    if series == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {"G2": 12, "F4": 1152}[name]


def test_build_named_presets():
    for name in DATUM_NAMES:
        datum = build_datum(name)
        assert datum.rank == int(name[1])
    assert build_datum("A1").cartan == ((2,),)
    assert build_datum("G2").cartan in (((2, -3), (-1, 2)), ((2, -1), (-3, 2)))


def test_wrong_symmetrizer_rejected():
    with pytest.raises(ValidationError):
        build_datum([[2, -3], [-1, 2]], symmetrizer=[1, 1])
    # the correct one passes
    build_datum([[2, -3], [-1, 2]], symmetrizer=[1, 3])


def test_affine_matrix_rejected():
    with pytest.raises(ValidationError):
        build_datum([[2, -2], [-2, 2]], symmetrizer=[1, 1])


def test_positive_diag_and_support_checks():
    with pytest.raises(ValidationError):
        build_datum([[2, -1], [0, 2]], symmetrizer=[1, 1])
    with pytest.raises(ValidationError):
        build_datum([[1]], symmetrizer=[1])
    with pytest.raises(ValidationError):
        build_datum([[2, 1], [1, 2]], symmetrizer=[1, 1])


def test_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "B2": 4, "C2": 4, "G2": 6}
    for name, count in expected.items():
        assert len(positive_roots(build_datum(name))) == count


def test_a1_root_coords():
    datum = build_datum("A1")
    (alpha,) = positive_roots(datum)
    assert alpha.coords2 == (4,)  # alpha = 2*omega


def test_a2_positive_roots():
    datum = build_datum("A2")
    roots = positive_roots(datum)
    coords = {r.coords2 for r in roots}
    assert coords == {(4, -2), (-2, 4), (2, 2)}  # alpha1, alpha2, alpha1+alpha2


def test_roots_closed_under_weyl_and_negation():
    for name in DATUM_NAMES:
        datum = build_datum(name)
        roots = set(all_roots(datum))
        assert roots == {-r for r in roots}
        for w in weyl_group(datum):
            assert {w.apply(r) for r in roots} == roots


def test_weyl_group_orders():
    expected = {"A1": 2, "A2": 6, "B2": 8, "C2": 8, "G2": 12}
    for name, order in expected.items():
        assert weyl_group(build_datum(name)).order == order
    for name in UP_TO_RANK_4 + ["A6", "D6"]:
        assert weyl_group(build_datum(name)).order == closed_form_order(name)


def test_poincare_polynomial_counts_the_walk():
    # every named type up to rank 5: the exponents from the coroot heights
    # against the word lengths of the walked group
    names = UP_TO_RANK_4 + ["A5", "B5", "C5", "D5"]
    for name in names:
        datum = build_datum(name)
        lengths = [0] * (len(positive_roots(datum)) + 1)
        for w in weyl_group(datum):
            lengths[w.length] += 1
        assert poincare_polynomial(datum) == lengths, name


def test_weyl_group_matches_matrix_product_closure():
    # same matrices, signs (determinants), lengths and breadth-first order
    for name in UP_TO_RANK_4:
        datum = build_datum(name)
        simple = positive_roots(datum)[: datum.rank]
        gens = [reflection_matrix(datum, alpha) for alpha in simple]
        expected = matmul_closure(datum.rank, gens)
        assert [(w.matrix, w.sign, w.length) for w in weyl_group(datum)] == expected


def test_weyl_closure_and_uniqueness():
    for name in DATUM_NAMES:
        group = weyl_group(build_datum(name))
        mats = [w.matrix for w in group]
        assert len(mats) == len(set(mats))
        # closed under composition
        for a in group.elements[:4]:
            for b in group.elements[:4]:
                assert _matmul(a.matrix, b.matrix) in set(mats)


def test_sign_equals_det_and_length_parity():
    for name in UP_TO_RANK_4:
        datum = build_datum(name)
        for w in weyl_group(datum):
            assert w.sign == (-1) ** w.length
            assert w.sign == (-1) ** inversion_count(datum, w)
            assert w.length == inversion_count(datum, w)


def test_act_examples():
    a1 = build_datum("A1")
    s = weyl_group(a1).elements[1]
    omega = Weight((2,))
    assert s.apply(omega) == Weight((-2,))
    ident = weyl_group(a1).identity()
    assert ident.apply(omega) == omega

    a2 = build_datum("A2")
    s1 = next(w for w in weyl_group(a2) if w.length == 1 and w.apply(Weight((2, 0))) != Weight((2, 0)))
    # s1(omega1) = omega1 - alpha1
    assert s1.apply(Weight((2, 0))) == Weight((2, 0)) - Weight((4, -2))


def test_pairing_normalization_and_symmetry():
    a1 = build_datum("A1")
    alpha = positive_roots(a1)[0]
    assert pairing(a1, alpha, alpha) == 2
    rng = random.Random(7)
    for name in DATUM_NAMES:
        datum = build_datum(name)
        for _ in range(10):
            a = Weight(tuple(rng.randrange(-6, 7) for _ in range(datum.rank)))
            b = Weight(tuple(rng.randrange(-6, 7) for _ in range(datum.rank)))
            assert pairing(datum, a, b) == pairing(datum, b, a)
            for w in weyl_group(datum):
                assert pairing(datum, w.apply(a), w.apply(b)) == pairing(datum, a, b)


def test_rho_is_sum_of_fundamental_weights():
    for name in ["A2", "C2", "G2"]:
        datum = build_datum(name)
        assert rho(positive_roots(datum)) == Weight((2,) * datum.rank)
    a1 = build_datum("A1")
    assert rho(positive_roots(a1)) == Weight((2,))


def test_weyl_dim_examples():
    a1 = build_datum("A1")
    assert weyl_dim(a1, Weight((2,))) == 2
    a2 = build_datum("A2")
    assert weyl_dim(a2, Weight((2, 0))) == 3
    assert weyl_dim(a2, Weight((2, 2))) == 8
    assert weyl_dim(a2, Weight((0, 0))) == 1
    with pytest.raises(ValidationError):
        weyl_dim(a2, Weight((-2, 0)))


def test_weight_multiplicities_examples():
    a1 = build_datum("A1")
    assert weight_multiplicities(a1, Weight((2,))) == {Weight((2,)): 1, Weight((-2,)): 1}
    assert weight_multiplicities(a1, Weight((0,))) == {Weight((0,)): 1}
    a2 = build_datum("A2")
    adjoint = weight_multiplicities(a2, Weight((2, 2)))
    assert adjoint[zero_weight(2)] == 2
    assert sum(adjoint.values()) == 8
    assert set(adjoint) == {zero_weight(2)} | set(all_roots(a2))


def test_multiplicity_totals_match_weyl_dim():
    rng = random.Random(3)
    for name in DATUM_NAMES:
        datum = build_datum(name)
        for _ in range(3):
            lam = Weight(tuple(2 * rng.randrange(0, 3) for _ in range(datum.rank)))
            table = weight_multiplicities(datum, lam)
            assert sum(table.values()) == weyl_dim(datum, lam)


def test_weight_helpers():
    w = weight_from_fundamental(["1", "1/2"])
    assert w.coords2 == (2, 1)
    assert not w.is_integral
    assert (w + w).is_integral
    assert (-w).coords2 == (-2, -1)
    assert (3 * w).coords2 == (6, 3)
    with pytest.raises(ValidationError):
        weight_from_fundamental([Fraction(1, 3)])
    with pytest.raises(ValidationError):
        w.halved()


@pytest.mark.parametrize(
    "token, value",
    [("0.37", Fraction(37, 100)), ("-1/3", Fraction(-1, 3)), (" 2.5e-3 ", Fraction(1, 400)),
     (".5", Fraction(1, 2)), ("7.", 7), ("+1E2", 100), ("0.1", Fraction(1, 10))],
)
def test_parse_rational_is_exact(token, value):
    assert parse_rational(token) == value


def test_parse_rational_bounds_the_digits_before_building():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert parse_rational("9" * limit) == int("9" * limit)
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    too_long = ["9" * (limit + 1), "1/" + "9" * (limit + 1), f"1e{limit}", f"1e-{limit}",
                "0." + "1" * limit, "1e100000000", "1e-" + "9" * (limit + 1)]
    for token in too_long:
        with pytest.raises(ValidationError, match="digits"):
            parse_rational(token)
    for token in ["nan", "inf", "", "a", "1/2/3", "--1", "1e", "/2", "1 / 2", "1_000"]:
        with pytest.raises(ValidationError, match="not a rational number"):
            parse_rational(token)
    with pytest.raises(ValidationError, match="zero denominator"):
        parse_rational("1/0")


def test_rank_cap_and_unknown_types():
    with pytest.raises(ValidationError):
        build_datum("A9")
    with pytest.raises(ValidationError):
        build_datum("E8")
    with pytest.raises(ValidationError):
        build_datum("Q3")
    assert build_datum("F4").rank == 4
    assert weyl_group(build_datum("A3")).order == 24


def test_rho_empty_subset():
    from orbint.rootsys import rho

    assert rho([], rank=2) == Weight((0, 0))
    with pytest.raises(ValidationError):
        rho([])
