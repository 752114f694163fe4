"""Real-form specs, coset representatives, generator keys, and K-classes."""

import pickle

import pytest
from weyl_oracles import (
    all_compact_reflections_group,
    chamber_coset_reps,
    first_in_each_coset,
    painted_forms,
)

from orbint.cli import main
from orbint.errors import ValidationError
from orbint.realform import (
    KClass,
    build_real_form,
    coset_reps,
    generator_key,
    hc_parameter,
    is_regular_param,
    kclass_from_json,
    painted_indices,
    real_form,
    rho_c,
    rho_n,
    weyl_k,
)
from orbint.rootsys import (
    Weight,
    all_roots,
    build_datum,
    positive_roots,
    weyl_group,
    weyl_order,
)
from orbint.verify import _matmul, kclass_to_json

# every Cartan type up to rank 5
UP_TO_RANK_5 = (
    [f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(2, 6)]
    + [f"C{n}" for n in range(2, 6)] + ["D4", "D5", "G2", "F4"]
)


# every Cartan type up to the rank cap of 6
UP_TO_RANK_6 = UP_TO_RANK_5 + ["A6", "B6", "C6", "D6"]


def single_node_paintings(name):
    return painted_forms(name, [(i,) for i in range(build_datum(name).rank)])


# the presets as positive-root indices, each with its negative added: how
# real_form built them before the painting rule
INDEX_PRESETS = {
    "sl2r": ("A1", (), -1, "spin_descent"),
    "su21": ("A2", (0,), 1, "integral"),
    "sp4r": ("C2", (0,), 1, "spin_descent"),
}


def index_construction(name):
    if name in INDEX_PRESETS:
        type_name, pos_indices, spin_sign, lattice = INDEX_PRESETS[name]
        datum = build_datum(type_name)
        n = len(positive_roots(datum))
        return build_real_form(datum, [*pos_indices, *(i + n for i in pos_indices)], spin_sign, lattice, name)
    datum = build_datum(name.removeprefix("compact(").removesuffix(")"))
    return build_real_form(datum, range(len(all_roots(datum))), 1, "spin_descent", name)  # every root compact


@pytest.mark.parametrize("name", [*INDEX_PRESETS, *(f"compact({t})" for t in UP_TO_RANK_6)])
def test_presets_are_the_index_construction(name):
    assert real_form(name) == index_construction(name)
    assert real_form(f" {name.upper()} ") == index_construction(name)  # names are read case-blind


def fraction_rule_indices(spec):
    """The indices into all_roots of a ``weyl_oracles.painted_forms`` spec's
    compact roots, read from its Fraction coefficients."""
    compact = set(spec.compact_positive)
    return tuple(k for k, alpha in enumerate(all_roots(spec.datum)) if {alpha, -alpha} & compact)


@pytest.mark.parametrize("name", UP_TO_RANK_6)
def test_painted_indices_follow_the_fraction_rule(name):
    # every painting up to rank 4, every single node above it
    rank = build_datum(name).rank
    if rank <= 4:
        paintings = [tuple(i for i in range(rank) if mask >> i & 1) for mask in range(2**rank)]
    else:
        paintings = [()] + [(i,) for i in range(rank)]
    for painted, spec in zip(paintings, painted_forms(name, paintings)):
        assert painted_indices(spec.datum, painted) == fraction_rule_indices(spec), (name, painted)
    for i, spec in enumerate(single_node_paintings(name)):
        assert real_form(f"{name}/paint{i}") == spec  # spin_sign +1, spin-descent lattice
        assert real_form(f"{name.lower()}/PAINT{i}") == spec


def test_painted_forms_of_the_identity_checks():
    # the compact-root indices the checks once listed by hand
    pinned = {
        "A3/paint1": (0, 2, 6, 8),
        "B3/paint0": (1, 2, 4, 6, 10, 11, 13, 15),
        "C3/paint0": (1, 2, 4, 6, 8, 10, 11, 13, 15, 17),
        "B4/paint0": (1, 2, 3, 5, 6, 8, 9, 11, 13, 17, 18, 19, 21, 22, 24, 25, 27, 29),
        "F4/paint0": (1, 2, 3, 5, 6, 8, 9, 12, 15, 23, 25, 26, 27, 29, 30, 32, 33, 36, 39, 47),
    }
    for name, indices in pinned.items():
        datum = build_datum(name[:2])
        assert painted_indices(datum, (int(name[-1]),)) == indices, name
        assert real_form(name) == build_real_form(datum, indices, name=name)


@pytest.mark.parametrize("name", [
    "B4/paint4", "B4/paint-1", "B4/paintx", "B4/paint", "B4/paint10", "Q4/paint0", "B7/paint0", "B/paint0",
    "/paint0", pytest.param("A" + "1" * 5000 + "/paint0", id="a-rank-past-the-int-to-str-limit"),
])
def test_painted_names_that_name_no_form_exit_2(capsys, name):
    with pytest.raises(ValidationError):
        real_form(name)
    assert main(["datum", "--preset", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_painted_indices_refuse_a_node_past_the_rank():
    with pytest.raises(ValidationError, match="painted nodes"):
        painted_indices(build_datum("A2"), (2,))
    with pytest.raises(ValidationError, match="painted nodes"):
        painted_indices(build_datum("A2"), (-1,))


def test_a_painted_preset_prints_what_its_compact_indices_print(capsys):
    # G2 with alpha1 painted is the README's --compact-indices 1,3,7,9
    argv = ["limit", "--lambda", "2,3", "--direction", "0.37,0.61"]
    assert main([*argv, "--preset", "G2/paint0"]) == 0
    painted = capsys.readouterr().out
    assert main([*argv, "--type", "G2", "--compact-indices", "1,3,7,9"]) == 0
    assert capsys.readouterr().out == painted


def test_preset_sl2r():
    spec = real_form("sl2r")
    assert spec.dim_gk == 2
    assert weyl_k(spec).order == 1
    assert spec.spin_sign == -1
    assert rho_c(spec) == Weight((0,))
    assert rho_n(spec) == Weight((2,))


def test_preset_su21():
    spec = real_form("su21")
    assert spec.dim_gk == 4
    assert weyl_k(spec).order == 2
    assert len(coset_reps(spec)) == 3
    assert rho_c(spec) == Weight((2, -1))
    assert rho_n(spec).coords2 == (0, 3)


def test_preset_sp4r():
    spec = real_form("sp4r")
    assert spec.dim_gk == 6
    assert weyl_k(spec).order == 2
    assert len(coset_reps(spec)) == 4
    # the compact simple root is the short one
    alpha1 = positive_roots(spec.datum)[0]
    assert spec.compact_positive == (alpha1,)


def test_preset_compact():
    spec = real_form("compact(A2)")
    assert spec.dim_gk == 0
    assert spec.is_compact
    assert weyl_k(spec).order == 6
    assert len(coset_reps(spec)) == 1
    assert rho_c(spec) == Weight((2, 2))


def test_non_symmetric_compact_set_rejected():
    datum = build_datum("A2")
    pos = positive_roots(datum)
    highest = pos.index(Weight((2, 2)))
    with pytest.raises(ValidationError):
        build_real_form(datum, (highest,))  # alpha1+alpha2 without its negative


def test_non_closed_compact_set_rejected():
    datum = build_datum("A2")
    pos = positive_roots(datum)
    n = len(pos)
    i1 = pos.index(Weight((4, -2)))
    i2 = pos.index(Weight((-2, 4)))
    with pytest.raises(ValidationError):
        # alpha1 and alpha2 compact but alpha1+alpha2 not
        build_real_form(datum, (i1, i2, i1 + n, i2 + n))


def test_coset_translates_tile_weyl_group():
    for preset in ["sl2r", "su21", "sp4r", "compact(A2)"]:
        spec = real_form(preset)
        group = weyl_group(spec.datum)
        seen = set()
        for v in coset_reps(spec):
            for u in weyl_k(spec):
                seen.add(_matmul(u.matrix, v.matrix))
        assert len(seen) == group.order
        assert seen == {w.matrix for w in group}


def test_coset_reps_have_minimal_length():
    spec = real_form("su21")
    for v in coset_reps(spec):
        lengths = []
        for w in weyl_group(spec.datum):
            if any(_matmul(u.matrix, v.matrix) == w.matrix for u in weyl_k(spec)):
                lengths.append(w.length)
        assert v.length == min(lengths)


def test_weyl_k_and_coset_reps_match_first_definitions():
    # every Vogan painting up to rank 3, and the painted B4 and F4 forms
    # (alpha1 painted) of the benchmark
    forms = [
        spec
        for name in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")
        for spec in painted_forms(name)
    ]
    forms += painted_forms("B4", [(0,)]) + painted_forms("F4", [(0,)])
    for spec in forms:
        subgroup = all_compact_reflections_group(spec)
        assert {(u.matrix, u.sign) for u in weyl_k(spec)} == subgroup, spec.name
        assert weyl_k(spec).order == len(subgroup), spec.name
        expected = first_in_each_coset(weyl_group(spec.datum), [m for m, _ in subgroup])
        assert list(coset_reps(spec)) == expected, spec.name


def test_coset_walk_matches_the_chamber_filter_over_w():
    # parabolic and non-parabolic W_K alike: every compact form and every
    # single-node painting up to rank 5
    for name in UP_TO_RANK_5:
        for spec in [real_form(f"compact({name})"), *single_node_paintings(name)]:
            expected = chamber_coset_reps(spec)
            got = coset_reps(spec)
            assert len(got) == len(expected), spec.name
            for v, w in zip(got, expected):
                assert (v.matrix, v.sign, v.length) == (w.matrix, w.sign, w.length), spec.name


def test_group_orders_from_the_product_formula():
    for name in UP_TO_RANK_5:
        datum = build_datum(name)
        assert weyl_order(datum) == weyl_group(datum).order, name
        for spec in single_node_paintings(name):
            assert weyl_order(datum, spec.compact_positive) == weyl_k(spec).order, spec.name
    assert weyl_order(build_datum("A2"), ()) == 1


def test_generator_key_validation():
    sl2r = real_form("sl2r")
    generator_key(sl2r, Weight((0,)))
    generator_key(sl2r, Weight((6,)))
    with pytest.raises(ValidationError):
        generator_key(sl2r, Weight((1,)))  # off the integral lattice
    su21 = real_form("su21")
    generator_key(su21, Weight((0, 0)))
    generator_key(su21, Weight((2, 0)))
    with pytest.raises(ValidationError):
        generator_key(su21, Weight((-2, 0)))  # not dominant for alpha1
    sp4r = real_form("sp4r")
    generator_key(sp4r, Weight((0, 1)))  # half-integral second coordinate
    with pytest.raises(ValidationError):
        generator_key(sp4r, Weight((0, 0)))  # spin descent fails


def test_hc_parameter_and_regularity():
    sl2r = real_form("sl2r")
    key0 = generator_key(sl2r, Weight((0,)))
    assert hc_parameter(sl2r, key0) == Weight((0,))
    assert not is_regular_param(sl2r, hc_parameter(sl2r, key0))
    assert is_regular_param(sl2r, Weight((6,)))

    ca1 = real_form("compact(A1)")
    key = generator_key(ca1, Weight((2,)))
    assert hc_parameter(ca1, key) == Weight((4,))

    su21 = real_form("su21")
    key = generator_key(su21, Weight((0, 0)))
    assert hc_parameter(su21, key) == rho_c(su21)
    assert is_regular_param(su21, Weight((2, 2)))


def test_compact_preset_keys_are_all_dominant_integral():
    spec = real_form("compact(A2)")
    for coords in [(0, 0), (2, 0), (0, 2), (2, 2), (4, 2)]:
        key = generator_key(spec, Weight(coords))
        assert hc_parameter(spec, key) == Weight(coords) + Weight((2, 2))


def test_kclass_arithmetic():
    spec = real_form("sl2r")
    k0 = generator_key(spec, Weight((0,)))
    k2 = generator_key(spec, Weight((2,)))
    x = KClass.generator(k0) + KClass.generator(k2, 3)
    assert len(x.terms) == 2
    assert (x - x).is_zero
    assert (x + (-x)).is_zero
    assert x.scaled(0).is_zero
    y = KClass.generator(k0, -1)
    assert (x + y).terms == ((k2, 3),)


def test_serialization_round_trips():
    spec = real_form("su21")
    key = generator_key(spec, Weight((2, 0)))
    x = KClass.generator(key, 2) + KClass.generator(generator_key(spec, Weight((0, 0))), -1)
    assert kclass_from_json(spec, kclass_to_json(x)) == x
    with pytest.raises(ValidationError):
        kclass_from_json(spec, [{"lambda2": [1, 0], "coeff": 1}])  # off-lattice
    # an integral float keeps its reading; a fraction or a boolean is refused
    assert kclass_from_json(spec, [{"lambda2": [2.0, 0], "coeff": 2.0}]) == KClass.generator(key, 2)
    assert kclass_from_json(spec, [{"lambda2": [2.0, 0.0], "coeff": 1}]) == KClass.generator(key)
    for lam2, coeff in (([2.5, 0], 1), ([True, 0], 1), ([2, 0], 2.5), ([2, 0], True)):
        with pytest.raises(ValidationError, match="malformed K-class term"):
            kclass_from_json(spec, [{"lambda2": lam2, "coeff": coeff}])


def test_sl2r_coset_count():
    spec = real_form("sl2r")
    assert len(coset_reps(spec)) == 2


def test_spec_and_datum_hash_once_with_tuple_equality():
    spec = real_form("su21")
    twin = build_real_form(build_datum("A2"), [0, 3], lattice="integral", name="su21")
    for a, b in ((spec, twin), (spec.datum, twin.datum)):
        assert a is not b and a == b == tuple(b) and hash(a) == hash(b) == hash(tuple(a))
        assert hash(a) == hash(a)  # the second lookup reads the kept value
    flipped = spec._replace(spin_sign=-1)  # a replaced spec hashes its own fields
    assert type(flipped) is type(spec) and flipped != spec and hash(flipped) == hash(tuple(flipped))
    restored = pickle.loads(pickle.dumps(spec))
    assert restored == spec and type(restored) is type(spec) and not vars(restored)
