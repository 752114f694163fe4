"""The invariant form in integers against the Fraction route it replaced.

Pairings, dominance, coroots, Weyl orders, dimension products, formal degrees,
generator-key verdicts and Freudenthal's weight tables must come out equal
(``==``, the same messages) to the Fraction formulas kept in ``weyl_oracles``."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from weyl_oracles import (
    fraction_formal_degree,
    fraction_generator_key,
    fraction_is_dominant,
    fraction_pairing,
    fraction_reflection,
    fraction_weight_multiplicities,
    fraction_weyl_dim,
    fraction_weyl_order,
    painted_forms,
)

from orbint import rootsys
from orbint.errors import ValidationError
from orbint.realform import generator_key, real_form, rho_c, rho_n
from orbint.rootsys import (
    Weight,
    build_datum,
    integer_form,
    is_dominant,
    pairing,
    positive_roots,
    reflection,
    weight_multiplicities,
    weyl_dim,
    weyl_order,
)
from orbint.stable import formal_degree

# every Cartan type the CLI accepts, up to the rank-6 cap
CLI_TYPES = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)] + ["D4", "D5", "D6", "G2", "F4"]
)
UP_TO_RANK_4 = [f"A{n}" for n in range(1, 5)] + ["B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]
# every compact form and every single-node painting up to rank 4
FORMS = [
    spec
    for name in UP_TO_RANK_4
    for spec in [real_form(f"compact({name})")]
    + painted_forms(name, [(i,) for i in range(build_datum(name).rank)])
]
FORM_IDS = [spec.name for spec in FORMS]


def outcome(f, *args):
    """f(*args), or the message of the ValidationError it raises."""
    try:
        return f(*args)
    except ValidationError as exc:
        return ("refused", str(exc))


def random_weights(rank, rng, count, box=8):
    return [Weight(rng.randint(-box, box) for _ in range(rank)) for _ in range(count)]


def key_candidates(spec, rng, count):
    """Seeded weights k 2 rho_c + offset, k in 0..2, the offsets cycling through
    the parity classes of the integral lattice, of the spin-descent lattice
    (that of rho_n) and a random one, so that both lattices accept some."""
    base = (2 * rho_c(spec)).coords2
    out = []
    for i in range(count):
        parity = [(0,) * spec.rank, rho_n(spec).coords2, [rng.randint(0, 1) for _ in base]][i % 3]
        k = rng.randint(0, 2)
        out.append(Weight(k * b + p % 2 + 2 * rng.randint(-2, 2) for b, p in zip(base, parity)))
    return out


coordinate = st.one_of(st.integers(-12, 12), st.integers(-10**40, 10**40))


@st.composite
def typed_weight_pairs(draw):
    datum = build_datum(draw(st.sampled_from(CLI_TYPES)))
    a, b = (Weight(draw(st.lists(coordinate, min_size=datum.rank, max_size=datum.rank))) for _ in "ab")
    return datum, a, b


@settings(max_examples=300, deadline=None, database=None)
@given(typed_weight_pairs())
def test_pairing_equals_the_fraction_sum(case):
    datum, a, b = case
    assert pairing(datum, a, b) == fraction_pairing(datum, a, b)


@pytest.mark.parametrize("name", CLI_TYPES)
def test_integer_form_is_symmetric_and_scaled_by_its_least_denominator(name):
    datum = build_datum(name)
    matrix, scale = integer_form(datum)
    assert all(matrix[i][j] == matrix[j][i] for i in range(datum.rank) for j in range(datum.rank))
    assert all(pairing(datum, alpha, alpha) == fraction_pairing(datum, alpha, alpha) for alpha in positive_roots(datum))
    # s is the least common denominator of the pairings of fundamental weights
    basis = [Weight(tuple(2 * (k == j) for k in range(datum.rank))) for j in range(datum.rank)]
    assert math.lcm(*(pairing(datum, u, v).denominator for u in basis for v in basis)) == scale


@pytest.mark.parametrize("spec", FORMS, ids=FORM_IDS)
def test_root_data_match_the_fraction_route(spec):
    datum = spec.datum
    pos = positive_roots(datum)
    assert weyl_order(datum) == fraction_weyl_order(datum)
    assert weyl_order(datum, spec.compact_positive) == fraction_weyl_order(datum, spec.compact_positive)
    for alpha in pos:
        assert reflection(datum, alpha) == fraction_reflection(datum, alpha)
    assert outcome(reflection, datum, Weight((0,) * datum.rank)) == ("refused", "cannot reflect in a null vector")
    rng = random.Random(spec.name)
    weights = random_weights(spec.rank, rng, 40) + [Weight(abs(c) for c in w.coords2) for w in random_weights(spec.rank, rng, 10)]
    for lam in weights:
        for system in (pos, spec.compact_positive):
            assert is_dominant(datum, lam, system) == fraction_is_dominant(datum, lam, system)
            assert outcome(weyl_dim, datum, lam, system) == outcome(fraction_weyl_dim, datum, lam, system)
        assert formal_degree(spec, lam) == fraction_formal_degree(spec, lam)


@pytest.mark.parametrize("spec", FORMS, ids=FORM_IDS)
def test_generator_key_verdicts_match_the_fraction_route(spec):
    rng = random.Random(spec.name)
    weights = key_candidates(spec, rng, 60) + random_weights(spec.rank, rng, 20, box=6)
    accepted = 0
    for form in (spec, spec._replace(lattice="integral")):
        for lam in weights:
            got = outcome(generator_key, form, lam)
            assert got == outcome(fraction_generator_key, form, lam), (form.name, form.lattice, lam)
            accepted += got[0] != "refused"
    assert accepted >= 10
    wrong_rank = Weight((0,) * (spec.rank + 1))
    assert outcome(generator_key, spec, wrong_rank) == outcome(fraction_generator_key, spec, wrong_rank)


def test_generator_key_reads_no_pairing(monkeypatch):
    # keys of 200 seeded weights with every Fraction pairing cut off, once the
    # form's caches are warm
    forms = painted_forms("B4", [(0,)]) + painted_forms("F4", [(0,)])
    for spec in forms:
        outcome(generator_key, spec, Weight((0,) * spec.rank))
    rng = random.Random(12)
    cases = [(spec, lam) for spec in forms for lam in key_candidates(spec, rng, 100)]
    expected = [outcome(fraction_generator_key, spec, lam) for spec, lam in cases]

    def no_pairing(*args):
        raise AssertionError("a Fraction pairing was built")

    monkeypatch.setattr(rootsys, "pairing", no_pairing)
    got = [outcome(generator_key, spec, lam) for spec, lam in cases]
    assert got == expected
    assert sum(g[0] != "refused" for g in got) >= 20


@pytest.mark.parametrize("spec", FORMS, ids=FORM_IDS)
def test_weight_tables_match_the_fraction_route(spec):
    """Every key with fundamental coordinates in 0, 1/2, ..., 2 whose K-type is
    smaller than W_K (the tables ``ktrace.tau_numerator`` builds): the integer
    table equals the Fraction recursion's, and its multiplicities add up to the
    dimension.  On a spin-descent form with rho_n off the lattice the keys are
    half-integral for G, and their tables are compared too."""
    datum, pos = spec.datum, spec.compact_positive
    order = weyl_order(datum, pos)
    compared = []
    for coords2 in itertools.product(range(5), repeat=spec.rank):
        try:
            key = generator_key(spec, Weight(coords2))
        except ValidationError:
            continue
        dim = weyl_dim(datum, key.lam, pos)
        if dim < order:
            table = weight_multiplicities(datum, key.lam, pos)
            assert table == fraction_weight_multiplicities(datum, key.lam, pos), key.lam
            assert sum(table.values()) == dim
            compared.append(key.lam)
    assert compared or order == 1  # W_K = 1: no K-type is smaller
    assert any(not lam.is_integral for lam in compared) == (not rho_n(spec).is_integral)


# modules whose dominant weights include weights on walls of the subsystem:
# adjoint and minuscule modules of G, and K-types of painted forms (B4/paint0's
# is half-integral for G)
WALL_MODULES = [
    ("A3", None, (2, 0, 2)), ("B3", None, (0, 0, 2)), ("D4", None, (0, 2, 0, 0)), ("F4", None, (2, 0, 0, 0)),
    ("B4", 0, (1, 0, 0, 2)), ("C3", 1, (0, 0, 2)), ("G2", 0, (2, 0)),
]


@pytest.mark.parametrize("name, painted, coords2", WALL_MODULES, ids=[f"{m[0]}/{m[1]}/{m[2]}" for m in WALL_MODULES])
def test_weight_tables_spread_dominant_weights_on_walls(name, painted, coords2):
    """The table is the Fraction recursion's in its order (lam, then by depth
    below lam, each depth in coordinate order), although Freudenthal runs on
    the dominant weights only and a dominant weight on a wall is fixed by a
    simple reflection of the walk that spreads it."""
    if painted is None:
        datum, pos = build_datum(name), None
    else:
        (spec,) = painted_forms(name, [(painted,)])
        datum, pos = spec.datum, spec.compact_positive
    lam = Weight(coords2)
    table = weight_multiplicities(datum, lam, pos)
    assert list(table.items()) == list(fraction_weight_multiplicities(datum, lam, pos).items())
    simples = rootsys._subsystem_simples(positive_roots(datum) if pos is None else pos)
    on_walls = [mu for mu in table if min(rootsys.integer_pairings(datum, mu, simples)) == 0]
    assert any(is_dominant(datum, mu, simples) for mu in on_walls)


def test_weight_tables_refuse_what_the_fraction_route_refuses():
    # compact(A2): (1/2, 0) is dominant but not integral, (-1, 0) not dominant;
    # su21 (K = U(2), compact root alpha_1): (-1, 5) is not dominant for K, and
    # (1/2, 0) not integral for K, while (1, 1/2) is (two weights, as for V_1)
    ca2, su21 = real_form("compact(A2)"), real_form("su21")
    cases = [(ca2, (1, 0)), (ca2, (-2, 0)), (su21, (-2, 10)), (su21, (1, 0)), (su21, (2, 1))]
    for spec, coords2 in cases:
        args = (spec.datum, Weight(coords2), spec.compact_positive)
        assert outcome(weight_multiplicities, *args) == outcome(fraction_weight_multiplicities, *args)
    assert outcome(weight_multiplicities, ca2.datum, Weight((1, 0)), ca2.compact_positive)[0] == "refused"
    assert len(weight_multiplicities(su21.datum, Weight((2, 1)), su21.compact_positive)) == 2
