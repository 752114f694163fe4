"""Round trips of the reconstruction pipeline."""

import math

import pytest

from orbint.errors import ReconstructionError
from orbint.realform import generator_key, real_form
from orbint.rootsys import Weight, weight_multiplicities
from orbint.tannaka import (
    candidate_box,
    canonical_sign,
    fourier_multiplicities,
    lattice_fourier,
    recover_characters,
    recover_dims,
    recover_noncompact_weights,
    run_reconstruction,
    synth_family,
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
    # |psi| = 2|sin(2 pi t)| at the first ray scale t = 1e-2 times the direction
    family = synth_family(SL2R, keys)
    t = 1e-2 * family.ray_direction[0]
    assert abs(abs(report.psi_ray[0]) - 2 * abs(math.sin(2 * math.pi * t))) <= 1e-10


def test_empty_family():
    family = synth_family(SL2R, [])
    assert recover_dims(family) == {}


def test_fourier_extraction_matches_freudenthal():
    keys = keys_of(CA1, [(0,), (4,)])
    family = synth_family(CA1, keys)
    dims = recover_dims(family)
    chars = recover_characters(family, dims)
    table = fourier_multiplicities(family, chars.char_lattice[Weight((4,))], bound=6)
    assert table == weight_multiplicities(CA1.datum, Weight((4,)))


def test_fourier_coefficient_accuracy():
    keys = keys_of(CA1, [(0,), (2,)])
    family = synth_family(CA1, keys)
    chars = recover_characters(family, recover_dims(family))
    coeffs = lattice_fourier(family, chars.char_lattice[Weight((2,))], bound=5)
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
    chars = recover_characters(family, recover_dims(family))
    with pytest.raises(ReconstructionError):
        recover_noncompact_weights(family, chars, [Weight((6,))])  # true root missing


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
