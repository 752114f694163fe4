"""Round trips of the reconstruction pipeline."""

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbint.tannaka
from orbint.errors import ReconstructionError, ValidationError
from orbint.realform import generator_key, real_form
from orbint.rootsys import Weight, is_dominant, pairing, rho, weight_multiplicities, weyl_dim
from orbint.toruschar import TorusPoint, is_regular
from orbint.verify import TANNAKA_CASES, _form, fourier_multiplicities, small_keys
from weyl_oracles import painted_forms

from orbint.tannaka import (
    CharacterRecovery,
    candidate_box,
    canonical_sign,
    divide_binomial,
    lattice_fourier,
    lattice_twiddles,
    recover_characters,
    recover_dims,
    recover_highest_weights,
    recover_noncompact_weights,
    run_reconstruction,
    synth_family,
    unit_factorizations,
)

SL2R = real_form("sl2r")
CA1 = real_form("compact(A1)")
CA2 = real_form("compact(A2)")


def keys_of(spec, coords_list):
    return [generator_key(spec, Weight(c)) for c in coords_list]


def test_compact_a1_round_trip():
    keys = keys_of(CA1, [(0,), (2,), (4,)])
    report = run_reconstruction(CA1, keys)
    assert report.dims == {Weight((0,)): 1, Weight((2,)): 2, Weight((4,)): 3}
    assert report.reference_label == Weight((0,))
    assert report.highest_weights == {
        Weight((0,)): Weight((0,)),
        Weight((2,)): Weight((2,)),
        Weight((4,)): Weight((4,)),
    }
    assert report.noncompact_weights == frozenset()
    assert report.spin_power == 0


def test_sl2r_round_trip():
    keys = keys_of(SL2R, [(0,), (2,), (4,)])
    report = run_reconstruction(SL2R, keys)
    assert report.dims == {Weight((0,)): 1, Weight((2,)): 1, Weight((4,)): 1}
    assert report.spin_power == 1
    alpha = Weight((4,))
    assert report.noncompact_weights == {canonical_sign(alpha)}
    assert report.noncompact_residual < 1e-6


def test_empty_family():
    family = synth_family(SL2R, [])
    assert recover_dims(family, CharacterRecovery(Weight((0,)), {})) == {}
    with pytest.raises(ReconstructionError, match="no label whose reciprocal"):
        recover_noncompact_weights(family, candidate_box(1, 3))


def test_fourier_extraction_matches_freudenthal():
    keys = keys_of(CA1, [(0,), (4,)])
    family = synth_family(CA1, keys)
    chars = recover_characters(family, Weight((0,)))
    table = fourier_multiplicities(family, chars.char_lattice[Weight((4,))], bound=6)
    assert table == weight_multiplicities(CA1.datum, Weight((4,)))


def test_fourier_coefficient_accuracy():
    keys = keys_of(CA1, [(0,), (2,)])
    family = synth_family(CA1, keys)
    chars = recover_characters(family, Weight((0,)))
    coeffs = lattice_fourier(chars.char_lattice[Weight((2,))], lattice_twiddles(family, 5))
    for w, c in coeffs.items():
        expected = 1.0 if w.coords2 in ((2,), (-2,)) else 0.0
        assert abs(c - expected) <= 1e-6


def test_compact_a2_round_trip_small():
    keys = keys_of(CA2, [(0, 0), (2, 0), (2, 2)])
    report = run_reconstruction(CA2, keys, axis_count=24, weight_bound=4)
    assert report.dims == {Weight((0, 0)): 1, Weight((2, 0)): 3, Weight((2, 2)): 8}
    assert report.highest_weights[Weight((2, 0))] == Weight((2, 0))
    assert report.highest_weights[Weight((2, 2))] == Weight((2, 2))
    assert report.noncompact_weights == frozenset()


def test_candidate_box_and_canonical_sign():
    box = candidate_box(1, 3)
    assert box == (Weight((2,)), Weight((4,)), Weight((6,)))
    assert canonical_sign(Weight((-2, 4))) == Weight((2, -4))
    assert canonical_sign(Weight((0, -2))) == Weight((0, 2))
    box2 = candidate_box(2, 1)
    assert Weight((0, 0)) not in box2
    assert len(box2) == 4  # (2,2),(2,0),(2,-2),(0,2)


def test_noncompact_fit_needs_candidates():
    keys = keys_of(SL2R, [(0,), (2,)])
    family = synth_family(SL2R, keys)
    with pytest.raises(ReconstructionError, match="no candidate set factors"):
        recover_noncompact_weights(family, [Weight((6,))])  # true root missing


def test_ambiguous_noncompact_fit_is_refused(monkeypatch):
    keys = keys_of(SL2R, [(0,), (2,)])
    family = synth_family(SL2R, keys)
    root, twin = Weight((4,)), Weight((6,))
    # the twin divides as the true root does, so both one-element sets leave a unit
    monkeypatch.setattr(
        orbint.tannaka, "divide_binomial", lambda poly, w: divide_binomial(poly, root if w == twin else w)
    )
    with pytest.raises(ReconstructionError, match=r"two candidate sets factor .*\(4,\).*\(6,\)"):
        recover_noncompact_weights(family, [root, twin])


def times_binomial(poly, beta):
    """poly * (e^{beta/2} - e^{-beta/2}), doubled exponents."""
    out = {}
    for e, a in poly.items():
        for sign in (1, -1):
            key = tuple(x + sign * b // 2 for x, b in zip(e, beta.coords2))
            out[key] = out.get(key, 0) + sign * a
    return {e: a for e, a in out.items() if a}


def is_unit_multiple(poly, other):
    """poly = +-e^mu * other for some mu."""
    if len(poly) != len(other):
        return False
    (e0, a0), (f0, b0) = min(poly.items()), min(other.items())
    if abs(a0) != abs(b0):
        return False
    sign = a0 // b0
    return all(poly.get(tuple(x - y + z for x, y, z in zip(e, f0, e0))) == sign * b for e, b in other.items())


FIT_FORMS = {
    spec.name: spec
    for spec in [SL2R, real_form("su21"), real_form("sp4r")]
    + [f for name in ("A2", "B2", "C2", "G2") for f in painted_forms(name, [(0,), (1,)])]
}


@functools.cache
def fit_inputs(name):
    """A form's family and the reference label's reciprocal, a Laurent
    polynomial; a coarse lattice will do."""
    spec = FIT_FORMS[name]
    family = synth_family(spec, small_keys(spec, 3), axis_count=16)
    ref = recover_noncompact_weights(family, candidate_box(spec.rank, 3)).reference_label
    poly, _ = orbint.tannaka._integral_reciprocal(family, ref)
    return spec, family, poly


@functools.cache
def exhaustive_sets(name, bound):
    """Every set of candidates whose binomials times a unit give the
    reciprocal: all 2^|candidates| products, built by multiplication."""
    spec, _, poly = fit_inputs(name)
    cands = candidate_box(spec.rank, bound)
    found = set()
    for size in range(len(cands) + 1):
        for subset in itertools.combinations(cands, size):
            product = {(0,) * len(cands[0].coords2): 1}
            for beta in subset:
                product = times_binomial(product, beta)
                if len(product) > len(poly):
                    break
            else:
                if is_unit_multiple(poly, product):
                    found.add(frozenset(subset))
    return found


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(sorted(FIT_FORMS)), st.integers(1, 2), st.randoms(use_true_random=False))
def test_noncompact_search_matches_exhaustive_oracle(name, bound, rng):
    spec, family, poly = fit_inputs(name)
    candidates = list(candidate_box(spec.rank, bound))
    rng.shuffle(candidates)
    truth = {canonical_sign(a) for a in spec.noncompact_positive}
    assert {frozenset(s) for s in unit_factorizations(poly, candidates)} == exhaustive_sets(name, bound)

    def outcome(cands):
        try:
            return recover_noncompact_weights(family, cands)
        except ReconstructionError:
            return ReconstructionError

    found = outcome(candidates)
    if truth <= set(candidates):  # a small box may miss a root
        assert found.weights == truth and found.spin_power == len(truth)
    else:
        assert found is ReconstructionError
    assert outcome([w for w in candidates if w not in truth]) is ReconstructionError


laurent = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), st.integers(-3, 3).filter(bool), max_size=6
)


@settings(max_examples=200, deadline=None, database=None)
@given(laurent, st.sampled_from(candidate_box(2, 3)), st.data())
def test_binomial_division_is_exact(q, beta, data):
    # exponents are doubled coordinates of both parities; a multiple divides
    # back to its cofactor, and a multiple changed in one coefficient is refused
    product = times_binomial(q, beta)
    assert divide_binomial(product, beta) == q
    e = data.draw(st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
    bumped = dict(product)
    bumped[e] = bumped.get(e, 0) + 1
    assert divide_binomial({k: a for k, a in bumped.items() if a}, beta) is None


def test_sl2r_half_root_divides_but_leaves_no_unit():
    # 1/chi on sl2r is e^{alpha/2} - e^{-alpha/2} with alpha = 2 omega: the
    # binomial of omega divides it, leaving e^{omega/2} + e^{-omega/2}, but only
    # {alpha} leaves a unit
    family = synth_family(SL2R, keys_of(SL2R, [(0,)]))
    poly, _ = orbint.tannaka._integral_reciprocal(family, Weight((0,)))
    assert poly == {(2,): 1, (-2,): -1}
    omega, alpha = Weight((2,)), Weight((4,))
    assert divide_binomial(poly, omega) == {(1,): 1, (-1,): 1}
    assert divide_binomial(poly, alpha) == {(0,): 1}
    assert unit_factorizations(poly, candidate_box(1, 3)) == [(alpha,)]


def whole_window_reciprocal(family, label):
    """``_integral_reciprocal`` as one transform of the whole window, both
    parities at once, with no screen."""
    n, rank = family.axis_count, family.rank
    stride = max(1, n // orbint.tannaka.COARSEST_AXIS)
    while True:
        if n % stride == 0:
            m = n // stride
            recip = [1 / v for v in orbint.tannaka._sublattice(family.values[label], n, rank, stride)]
            windows = [range(-c - m, -c + m) for c in label.coords2]
            coeffs = lattice_fourier(recip, orbint.tannaka.axis_twiddles(family, windows, stride))
            classes = {}
            for w, c in coeffs.items():
                classes.setdefault(tuple(x % 2 for x in w.coords2), []).append((w.coords2, c))
            integral = []
            for members in classes.values():
                residual = max(abs(c - round(c.real)) for _, c in members)
                poly = {e: round(c.real) for e, c in members if round(c.real)}
                if residual <= orbint.tannaka.DIM_TOL and poly:
                    integral.append((poly, residual))
            if len(integral) == 1:
                return integral[0]
        if stride == 1:
            return None
        stride //= 2


@pytest.mark.parametrize("spec, axis_count", [
    (real_form("su21"), None), (real_form("compact(C2)"), None), (painted_forms("G2", [(0,)])[0], None),
    (painted_forms("B3", [(1,)])[0], 16), (painted_forms("B3", [(2,)])[0], 8),
], ids=["su21", "compact(C2)", "G2/paint0", "B3/paint1", "B3/paint2"])
def test_screened_classes_give_the_whole_window_verdicts(spec, axis_count):
    # every label, refused or not: the same polynomial and residual, bit for bit
    family = synth_family(spec, small_keys(spec, 3), axis_count)
    for label in family.labels:
        assert orbint.tannaka._integral_reciprocal(family, label) == whole_window_reciprocal(family, label)


def test_refused_labels_are_screened_without_a_whole_class(monkeypatch):
    # B3 painted at its last node, default axis count: each label's reciprocal
    # is refused at every stride, and every parity class fails the screen, so
    # each call of the transform reads one frequency per axis
    spec = painted_forms("B3", [(2,)])[0]
    labels = [Weight(c) for c in ((0, 0, 2), (0, 0, 4), (2, 0, 0))]
    family = synth_family(spec, [generator_key(spec, lab) for lab in labels])
    widths = []
    transform = orbint.tannaka.lattice_fourier
    monkeypatch.setattr(
        orbint.tannaka, "lattice_fourier", lambda x, tables: widths.append([len(t) for t in tables]) or transform(x, tables)
    )
    for label in labels:
        widths.clear()
        assert orbint.tannaka._integral_reciprocal(family, label) is None
        assert widths and all(w == [1, 1, 1] for w in widths)


SWEEP_FORMS = [(real_form(name), None) for name in ("sl2r", "su21", "sp4r")]
SWEEP_FORMS += [
    (spec, axis_count)
    for names, axis_count in ((("A2", "B2", "C2", "G2"), None), (("A3", "B3", "C3"), 16))
    for name in names
    for spec in [real_form(f"compact({name})")] + painted_forms(name, [(i,) for i in range(int(name[1]))])
]


@pytest.mark.parametrize("spec, axis_count", SWEEP_FORMS, ids=[spec.name for spec, _ in SWEEP_FORMS])
def test_reconstruction_sweep(spec, axis_count):
    keys = small_keys(spec, 3)
    if spec.name == "B3/paint1":  # no one-dimensional K-type of the lattice's parity
        with pytest.raises(ReconstructionError):
            run_reconstruction(spec, keys, axis_count)
        return
    report = run_reconstruction(spec, keys, axis_count)
    ref = keys[0].lam
    assert report.reference_label == ref
    ref_dim = weyl_dim(spec.datum, ref, spec.compact_positive)
    assert report.dims == {key.lam: weyl_dim(spec.datum, key.lam, spec.compact_positive) / ref_dim for key in keys}
    # the character of label j is chi_j / chi_ref: its highest weight is the label less the reference
    assert report.highest_weights == {key.lam: key.lam - ref for key in keys}
    assert report.noncompact_weights == {canonical_sign(a) for a in spec.noncompact_positive}
    assert report.spin_power == len(spec.noncompact_positive)
    assert report.noncompact_residual < 1e-6


@pytest.mark.parametrize(
    "painted, dims", [((0,), (1, 3, 6)), ((1,), (1, 2, 3)), ((2,), (1, 1, 1))],
    ids=["A3/paint0", "A3/paint1", "A3/paint2"],
)
def test_painted_a3_round_trip(painted, dims):
    spec = painted_forms("A3", [painted])[0]
    labels = [Weight((0, 0, 2 * k)) for k in range(3)]
    report = run_reconstruction(
        spec, [generator_key(spec, lab) for lab in labels], axis_count=16, weight_bound=3
    )
    assert report.dims == dict(zip(labels, dims))
    assert report.highest_weights == {lab: lab for lab in labels}
    assert report.noncompact_weights == {canonical_sign(a) for a in spec.noncompact_positive}
    assert report.noncompact_residual <= 1e-6
    assert report.spin_power == len(spec.noncompact_positive)


@pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2"])
def test_painted_rank2_highest_weights(name):
    # the lexicographically greatest dominant weight is (2,0), (2,0), (4,0) and
    # (6,0) on the label ending in 4; the highest weight is the label minus the
    # reference label
    spec = painted_forms(name, [(0,)])[0]
    keys = small_keys(spec, 3)
    report = run_reconstruction(spec, keys, axis_count=32, weight_bound=4)
    ref = report.reference_label
    assert report.labels[-1].coords2[-1] == 4
    assert report.highest_weights == {lab: lab - ref for lab in report.labels}


def test_sp4r_dims_and_noncompact_without_trivial_type():
    # sp4r has no trivial K-type on its lattice; dims and the noncompact set
    # are still recovered (they are invariant under the reference-label twist),
    # and highest weights come out shifted by the rank-one reference label
    spec = real_form("sp4r")
    keys = keys_of(spec, [(0, 1), (2, 1), (0, 3)])
    report = run_reconstruction(spec, keys, axis_count=32, weight_bound=4)
    assert report.dims == {Weight((0, 1)): 1, Weight((2, 1)): 2, Weight((0, 3)): 1}
    assert report.spin_power == 3
    assert report.noncompact_weights == {
        canonical_sign(a) for a in spec.noncompact_positive
    }
    assert report.noncompact_residual < 1e-6
    ref = report.reference_label
    assert all(report.highest_weights[lab] == lab - ref for lab in report.labels)


@pytest.mark.parametrize(
    "spec",
    [CA1, real_form("su21"), painted_forms("A3", [(1,)])[0]],
    ids=["compact(A1)", "su21", "A3/paint1"],
)
def test_lattice_coordinates_are_the_shifted_grid(spec):
    # no keys: the lattice is laid out, nothing is evaluated
    family = synth_family(spec, [])
    n, q = family.axis_count, family.q
    offsets = [Fraction(r, 97) for r in orbint.tannaka._grid_offsets(spec.datum)]
    assert q == 97 * n and len(family.axes) == spec.rank and family.lattice_size == n**spec.rank
    lattice = itertools.product(*family.axes)
    want = itertools.product(range(n), repeat=spec.rank)
    for ns, index in zip(lattice, want, strict=True):
        expected = tuple((Fraction(k, n) + off / n) % 2 for k, off in zip(index, offsets))
        assert TorusPoint.exact_point(Fraction(m, q) for m in ns).coords == expected


@pytest.mark.parametrize("spec", [spec for spec, _ in SWEEP_FORMS], ids=[spec.name for spec, _ in SWEEP_FORMS])
def test_grid_offsets_make_every_lattice_point_regular(spec):
    # a root pairs with 97k + r to the residue mod 97 it has with r, so a
    # regular r/97 makes every point regular: checked point by point
    rs = orbint.tannaka._grid_offsets(spec.datum)
    assert all(1 <= r <= 96 for r in rs)
    q = 97 * 8
    for ns in itertools.product(*[[97 * k + r for k in range(8)] for r in rs]):
        assert is_regular(TorusPoint.exact_point(Fraction(m, q) for m in ns), spec.datum)


def test_too_large_frequency_box_is_refused_before_synthesis(monkeypatch):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synth_family was called")

    monkeypatch.setattr(orbint.tannaka, "synth_family", no_synthesis)
    spec = real_form("su21")
    keys = [generator_key(spec, Weight(c)) for c in ((0, 0), (2, 0))]
    for axis_count, bound in ((None, 32), (None, 40), (16, 8)):  # the default axis count is 64
        with pytest.raises(ValidationError, match="grid too coarse for the requested frequency box"):
            run_reconstruction(spec, keys, axis_count=axis_count, weight_bound=bound)


@pytest.mark.parametrize("rank, n, bound", [(1, 64, 6), (2, 64, 6), (3, 32, 6), (4, 16, 6), (5, 8, 3), (6, 4, 1)])
def test_default_weight_bound_fits_the_axis_count(monkeypatch, rank, n, bound):
    # 6 up to rank 4; from rank 5 the default axis count is below 13, and the
    # default bound shrinks to (n - 1) // 2 instead of refusing the run
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    checked = []
    check_box = orbint.tannaka._check_box
    monkeypatch.setattr(orbint.tannaka, "_check_box", lambda *args: checked.append(args) or check_box(*args))
    monkeypatch.setattr(orbint.tannaka, "synth_family", reached)
    spec = real_form(f"compact(A{rank})")
    keys = keys_of(spec, [(0,) * rank])
    with pytest.raises(Reached):
        run_reconstruction(spec, keys)
    assert checked == [(n, bound)]
    with pytest.raises(ValidationError, match="grid too coarse for the requested frequency box"):
        run_reconstruction(spec, keys, weight_bound=n // 2)  # an explicit bound is checked as given


@pytest.mark.parametrize("rank", range(1, 7))
def test_default_axis_count_fits_the_cap(rank):
    # 64 up to rank 2, then the largest power of two whose lattice fits
    n = orbint.tannaka.default_axis_count(rank)
    assert n == (64, 64, 32, 16, 8, 4)[rank - 1]
    assert n**rank <= orbint.tannaka.MAX_LATTICE_POINTS < (2 * n) ** rank or n == 64
    assert orbint.tannaka.default_axis_count(rank, 12) == 12


def test_vanishing_samples_raise_reconstruction_error():
    family = synth_family(SL2R, keys_of(SL2R, [(0,), (2,), (4,)]))
    ref = family.labels[0]

    def zeroed(index):
        values = dict(family.values)
        values[ref] = values[ref][:index] + (0j,) + values[ref][index + 1 :]
        return family._replace(values=values)

    silent = dict(family.values)  # another label whose samples all vanish
    silent[family.labels[1]] = (0j,) * family.lattice_size
    cases = [
        (lambda: recover_noncompact_weights(zeroed(0), candidate_box(1, 3)), "lattice samples"),  # on every sub-lattice
        (lambda: recover_characters(zeroed(5), ref), "lattice samples"),
        (lambda: recover_dims(family._replace(values=silent), recover_characters(family._replace(values=silent), ref)),
         "is not a positive integer"),
    ]
    for run, what in cases:
        with pytest.raises(ReconstructionError, match=what):
            run()


def float_twiddles(family, bound):
    """e^{-2 pi i f (k + r/97)/n} from the float formula, with axis j's residue
    r its first numerator (axis j holds 97k + r over q = 97n)."""
    n = family.axis_count
    return [
        {2 * f: [cmath.exp(-2j * math.pi * f * (k + axis[0] / 97) / n) for k in range(n)] for f in range(-bound, bound + 1)}
        for axis in family.axes
    ]


def full_transform_highest_weights(family, chars, bound, datum, dominance_roots):
    """``recover_highest_weights`` as it was before the reference label's
    shortcut: every label's character transformed, with float twiddles."""
    r = rho(dominance_roots, datum.rank)
    twiddles = float_twiddles(family, bound)
    out = {}
    for label in family.labels:
        coeffs = lattice_fourier(chars.char_lattice[label], twiddles)
        dominant = [w for w, c in coeffs.items() if abs(c) > 0.5 and is_dominant(datum, w, dominance_roots)]
        out[label] = max(dominant, key=lambda w: (pairing(datum, w + r, w + r), w.coords2))
    return out


FOLD_CASES = [  # (form, axis count, folds per axis, window name, windows as fundamental-coordinate ranges)
    ("su21", n, folds, window, ranges)
    for n, folds in ((64, 2), (24, 2), (30, 1), (15, 0))
    for window, ranges in (("full", [(-6, 6), (-6, 6)]), ("dominant", [(0, 6), (-6, 6)]))
]
# a middle axis contracted first: lines strided across the later axis and chunked by the earlier
FOLD_CASES += [("A3/paint1", 12, 2, "mixed", [(-2, 2), (0, 1), (-3, 3)])]


@pytest.mark.parametrize(
    "name, axis_count, folds, window, ranges", FOLD_CASES, ids=[f"{c[0]}-{c[1]}-{c[3]}" for c in FOLD_CASES]
)
def test_folded_transform_matches_the_plain_sums(name, axis_count, folds, window, ranges):
    # each coefficient of the folded transform within 1e-13 sum|x|/N of the
    # plain dot products over the same lattice twiddles, on random samples
    spec = painted_forms("A3", [(1,)])[0] if name == "A3/paint1" else real_form(name)
    family = synth_family(spec, [], axis_count)
    windows = [range(2 * lo, 2 * hi + 1, 2) for lo, hi in ranges]
    folded = orbint.tannaka.axis_twiddles(family, windows, fold=True)
    plain = orbint.tannaka.axis_twiddles(family, windows)
    for table in folded:
        assert (table.folds if isinstance(table, orbint.tannaka.FoldedAxis) else 0) == folds
    rng = random.Random(axis_count)
    samples = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(family.lattice_size)]
    want = lattice_fourier(samples, plain)
    got = lattice_fourier(samples, folded)
    assert set(got) == set(want) == {Weight(c) for c in itertools.product(*windows)}
    tol = 1e-13 * sum(map(abs, samples)) / len(samples)
    assert all(abs(got[w] - want[w]) <= tol for w in want)
    # a window with an odd doubled frequency (a half-integral weight) does not fold
    assert all(isinstance(t, dict) for t in orbint.tannaka.axis_twiddles(family, [range(-1, 2)] * spec.rank, fold=True))


HW_CASES = [  # (spec, keys, axis count, weight bound)
    (real_form("su21"), [(0, 0), (2, 0), (0, 2)], None, 6),
    (SL2R, [(0,), (2,), (4,)], None, 6),
    (real_form("sp4r"), [(0, 1), (2, 1), (0, 3)], 32, 4),
    (CA1, [(0,), (2,), (4,)], None, 6),
    (CA2, [(0, 0), (2, 0), (2, 2)], 24, 4),
]
HW_CASES += [(spec, None, 32, 4) for name in ("A2", "B2", "C2", "G2") for spec in painted_forms(name, [(0,), (1,)])]
HW_CASES += [(spec, [(0, 0, 2 * k) for k in range(3)], 16, 3) for spec in painted_forms("A3", [(0,), (1,), (2,)])]


@pytest.mark.parametrize("spec, coords, axis_count, bound", HW_CASES, ids=[case[0].name for case in HW_CASES])
def test_reference_shortcut_matches_the_full_transform(spec, coords, axis_count, bound):
    keys = small_keys(spec, 3) if coords is None else keys_of(spec, coords)
    family = synth_family(spec, keys, axis_count)
    ref = recover_noncompact_weights(family, candidate_box(spec.rank, 3)).reference_label
    chars = recover_characters(family, ref)
    got = recover_highest_weights(family, chars, bound, spec.datum, spec.compact_positive)
    assert got == full_transform_highest_weights(family, chars, bound, spec.datum, spec.compact_positive)
    # the reference character is 1 up to rounding: its weight 0 is all there is
    coeffs = lattice_fourier(chars.char_lattice[ref], lattice_twiddles(family, bound))
    assert all(abs(c) < 1e-15 for w, c in coeffs.items() if not w.is_zero)
    assert got[chars.reference_label].is_zero


@pytest.mark.parametrize(
    "spec, axis_count, bound",
    [(SL2R, None, 6), (real_form("su21"), None, 6), (painted_forms("A3", [(1,)])[0], 16, 7)],
    ids=["sl2r", "su21", "A3/paint1"],
)
def test_integer_twiddles_match_the_float_formula(spec, axis_count, bound):
    # the float formula's argument -2 pi f (k + offset)/n is rounded at up to
    # |theta| 2^-53, so it is the bound there; the table's argument pi m/q has
    # |theta| <= 2 pi, and its factors are held to an mpmath value
    mpmath = pytest.importorskip("mpmath")
    family = synth_family(spec, [], axis_count)
    n = family.axis_count
    residues = [ns[0] for ns in family.axes]
    for axis, floats, r in zip(lattice_twiddles(family, bound), float_twiddles(family, bound), residues):
        for f in range(-bound, bound + 1):
            for k in range(n):
                theta = 2 * math.pi * f * (k + r / 97) / n
                assert abs(axis[2 * f][k] - floats[2 * f][k]) <= 2e-15 * (1 + abs(theta))
                with mpmath.workdps(30):
                    exact = complex(mpmath.expjpi(-2 * f * (k + mpmath.mpf(r) / 97) / n))
                assert abs(axis[2 * f][k] - exact) <= 2e-15


def tannaka_case(name):
    spec = _form(name)
    return spec, [generator_key(spec, Weight(c)) for c in TANNAKA_CASES[name][0]]


@pytest.mark.parametrize(
    "first, second",
    [("compact(A1)", "sl2r"), ("A3/paint1", "compact(A3)"), ("compact(B3)", "B3/paint0"), ("compact(B4)", "B4/paint0")],
)
def test_kept_lattice_constants_change_nothing(first, second):
    # two forms on one datum share a lattice: in each order, from cleared
    # caches, the first runs cold and the second warm, reading what the first
    # kept; each form's report fields are the same cold and warm
    cases = [tannaka_case(first), tannaka_case(second)]
    lattices = [synth_family(spec, []) for spec, _ in cases]
    assert len({(lattice.axes, lattice.q) for lattice in lattices}) == 1
    runs = {spec.name: [] for spec, _ in cases}
    for order in (cases, cases[::-1]):
        orbint.tannaka.phase_tables.cache_clear()
        for spec, keys in order:
            report = run_reconstruction(spec, keys)
            runs[spec.name].append((*report, report.dims.margin, list(report.dims.items())))
    for name, (one, other) in runs.items():
        assert one == other, name


@pytest.mark.parametrize("fold", [False, True])
def test_kept_twiddle_rows_are_the_rows_of_the_phase_table(fold):
    # at every stride, folded or not: the kept rows are tuples equal to rows
    # built straight from the lattice's table, and a second call reads them
    orbint.tannaka.phase_tables.cache_clear()
    family = synth_family(real_form("su21"), [])
    zeta, two_q = orbint.tannaka.phase_tables(family.q), 2 * family.q
    windows = [range(-12, 13, 2), range(-7, 8)]  # an even window folds, an odd one never does
    for stride in (1, 2, 4, 8):
        tables = orbint.tannaka.axis_twiddles(family, windows, stride, fold)
        again = orbint.tannaka.axis_twiddles(family, windows, stride, fold)
        for table, repeat, axis, window in zip(tables, again, family.axes, windows):
            folds = table.folds if isinstance(table, orbint.tannaka.FoldedAxis) else 0
            rows = table.factors if folds else table
            assert folds == (orbint.tannaka.fold_count(64 // stride) if fold and window.step == 2 else 0)
            assert list(rows) == list(window)
            points = axis[::stride][: (64 // stride) >> folds]
            for c, row in rows.items():
                assert type(row) is tuple and row == tuple(zeta[-c * a % two_q] for a in points)
                assert (repeat.factors if folds else repeat)[c] is row


def contracted_dim(family, samples):
    """The per-axis Dirichlet contraction that the one-dot read replaced: one
    table per axis, contracted by ``lattice_fourier``."""
    zeta, two_q = orbint.tannaka.phase_tables(family.q), 2 * family.q
    width = 2 * ((family.axis_count - 1) // 2) + 1
    dirichlet = [{0: [zeta[width * a % two_q].imag / zeta[a].imag for a in ax]} for ax in family.axes]
    [raw] = lattice_fourier(samples, dirichlet).values()
    return raw


@pytest.mark.parametrize("name", sorted(TANNAKA_CASES))
def test_one_dot_dimension_read_matches_the_contraction(monkeypatch, name):
    # one lattice_fourier call per label but the reference, whose dimension is
    # 1 unread; each read within 1e-12 relative of the per-axis contraction
    spec, keys = tannaka_case(name)
    family = synth_family(spec, keys)
    ref = family.labels[0]
    chars = recover_characters(family, ref)
    assert chars.char_lattice[ref] == (1,) * family.lattice_size
    reads = []
    transform = orbint.tannaka.lattice_fourier
    monkeypatch.setattr(
        orbint.tannaka, "lattice_fourier", lambda x, tables: reads.append((x, transform(x, tables))) or reads[-1][1]
    )
    dims = recover_dims(family, chars)
    assert dims[ref] == 1 and len(reads) == len(family.labels) - 1
    raws = []
    for label, (samples, coeffs) in zip(family.labels[1:], reads):
        assert samples is chars.char_lattice[label]
        [raw] = coeffs.values()
        want = contracted_dim(family, samples)
        assert abs(raw - want) <= 1e-12 * abs(want), (label, raw, want)
        assert dims[label] == round(raw.real) == TANNAKA_CASES[name][1][family.labels.index(label)]
        raws.append(raw)
    assert dims.margin == max(abs(raw - round(raw.real)) / orbint.tannaka.DIM_TOL for raw in raws)


# ---------------------------------------------------------------------------
# the denominators' sine columns

def brute_sine(a, q):
    """sin(pi a/q) as (-1)^j sin(pi (a - j q)/q), with j the nearest integer to
    a/q, so the argument lies in [-pi/2, pi/2]."""
    j = (2 * a + q) // (2 * q)
    return (-1) ** j * math.sin(math.pi * (a - j * q) / q)


SLICE_CASES = [  # (n, b): last coordinates 0, negative and >= 2n among them
    (n, b)
    for n in (4, 5, 7, 16, 64)
    for b in [(1,), (0,), (-3,), (2 * n + 1,), (2, -1), (-1, 0), (1, 2 * n), (3, 1, -2), (-2, 1, 0), (1, -1, 2, 2 * n + 3)]
    if n ** len(b) <= orbint.tannaka.MAX_LATTICE_POINTS
]


@pytest.mark.parametrize("n, b", SLICE_CASES, ids=[f"n{n}-{b}" for n, b in SLICE_CASES])
def test_sine_columns_read_each_points_own_pairing(n, b):
    # every entry of the sliced column is the sine of the point's own pairing
    # 97 <b, k> + <b, r>, exactly
    q, rs = 97 * n, [5, 41, 96, 1][: len(b)]
    family = orbint.tannaka.ChiFamily((), tuple(tuple(97 * k + r for k in range(n)) for r in rs), q, {})
    column = orbint.tannaka.sine_column(family, Weight(tuple(2 * c for c in b)))
    points = list(itertools.product(*family.axes))
    assert len(column) == len(points)
    assert column == [brute_sine(sum(c * a for c, a in zip(b, ns)), q) for ns in points]


DATUM_CASES = {}  # one TANNAKA_CASES form per datum: forms on one datum share its lattice and roots
for _name in TANNAKA_CASES:
    DATUM_CASES.setdefault(_form(_name).datum, []).append(_name)


@pytest.mark.parametrize("names", DATUM_CASES.values(), ids=["+".join(names) for names in DATUM_CASES.values()])
def test_sine_columns_are_the_root_factors(names):
    # 2i times each column is toruschar's root factor at every point of the
    # forms' lattice, within 1e-12 relative; the smallest entry of each
    # column, the point nearest a wall, within 1e-15 relative of mpmath
    mpmath = pytest.importorskip("mpmath")
    from orbint.toruschar import root_factors

    spec = _form(names[0])
    family = synth_family(spec, [])
    assert all(synth_family(_form(name), []).axes == family.axes for name in names)
    roots = spec.positive_system
    columns = {beta: orbint.tannaka.sine_column(family, beta) for beta in roots}
    for i, ns in enumerate(itertools.product(*family.axes)):
        factors = root_factors(TorusPoint(tuple(Fraction(m, family.q) for m in ns)), roots).factors
        for beta, factor in zip(roots, factors):
            assert abs(2j * columns[beta][i] - factor) <= 1e-12 * abs(factor), (beta, ns)
    lattice = list(itertools.product(*family.axes))
    for beta, column in columns.items():
        i = min(range(len(column)), key=lambda i: abs(column[i]))
        a = sum(c // 2 * m for c, m in zip(beta.coords2, lattice[i]))
        with mpmath.workdps(40):
            exact = float(mpmath.sinpi(mpmath.mpf(a) / family.q))
        assert abs(column[i] - exact) <= 1e-15 * abs(exact), (beta, lattice[i])


def test_only_the_routes_roots_build_columns(monkeypatch):
    # a compact form whose keys are all on the weight route divides by nothing
    # and builds no column; su21's weight-route keys build D_n's columns only
    from orbint.ktrace import tau_numerator

    spec, keys = tannaka_case("compact(B4)")
    assert all(tau_numerator(spec, key).route == "weights" for key in keys)
    want = synth_family(spec, keys).values
    build, built = orbint.tannaka.sine_column, []

    def no_column(*args):
        raise AssertionError("a sine column was built")

    monkeypatch.setattr(orbint.tannaka, "sine_column", no_column)
    assert synth_family(spec, keys).values == want
    su21 = real_form("su21")
    assert synth_family(su21, []).values == {}
    keys = [key for key in small_keys(su21, 4) if tau_numerator(su21, key).route == "weights"]
    assert keys
    monkeypatch.setattr(orbint.tannaka, "sine_column", lambda family, beta: built.append(beta) or build(family, beta))
    synth_family(su21, keys)
    assert built == list(su21.noncompact_positive)


def test_dirichlet_kernel_is_kept_per_lattice():
    # the n^r kernel is built on a lattice's first dimension read, as the
    # product of the per-axis rows, and a later read of that lattice reuses it
    orbint.tannaka.phase_tables.cache_clear()
    spec, keys = tannaka_case("su21")
    family = synth_family(spec, keys)
    chars = recover_characters(family, family.labels[0])
    dims = recover_dims(family, chars)
    zeta, two_q = orbint.tannaka.phase_tables(family.q), 2 * family.q
    [kernel] = zeta.dirichlet.values()
    rows = [[zeta[63 * a % two_q].imag / zeta[a].imag for a in axis] for axis in family.axes]
    assert type(kernel) is tuple and kernel == tuple(x * y for x in rows[0] for y in rows[1])
    assert recover_dims(family, chars) == dims and next(iter(zeta.dirichlet.values())) is kernel
