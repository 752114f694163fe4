"""Reconstruction pipeline: from sampled tau-functions recover K-type
dimensions, characters, highest weights, and the noncompact weight set up to
sign.

Forward synthesis (synth_family) may consult the real-form data to place its
sample grid away from singular loci; the recovery functions see only labels,
grid coordinates, and sampled values.  The lattice, t = n/q with q = 97n,
goes through ``ktrace.tau_lattice`` (integer phases, one slab of points at a
time), the ray and probe points through ``tau_grid``: one checked body.  Its
points are built only when read (``LatticeGrid``), and the Fourier twiddles
are entries of the lattice's own table of e^{i pi k/q} (``ktrace.phase_tables``).
A highest weight is the dominant support weight with the largest |w + rho_c|;
the reference label's character is 1, so its weight is 0 without a transform.
The noncompact set is the one candidate subset that fits the probes, found by
an exact meet-in-the-middle search.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from collections import abc
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ReconstructionError, ValidationError
from .ktrace import phase_tables, tau_grid, tau_lattice
from .realform import GeneratorKey, RealFormSpec
from .rootsys import CartanDatum, Weight, is_dominant, pairing, positive_roots, rho
from .toruschar import TorusPoint, is_regular, min_root_phase, root_phase

RAY_LEVELS = 6
RAY_START_SCALE = 1e-2
PROBE_STEP = 0.004
PROBE_BASES = (0.23, 0.29, 0.31, 0.37, 0.41, 0.19, 0.43)
DIM_TOL = 1e-3
FIT_TOL = 1e-6


class ProbeSpec(NamedTuple):
    """Derivative stencil along a ray: six points (base + offset) * direction."""

    direction: tuple[float, ...]
    base: float
    step: float
    start: int  # index of the first stencil point in the family grid


class LatticeGrid(abc.Sequence):
    """The points t = (n_1/q, ..., n_r/q), n_j in axes[j], in ``itertools.product``
    order, each built when it is read, followed by the points of ``tail``."""

    def __init__(self, axes: Sequence[Sequence[int]], q: int, tail: Sequence[TorusPoint]):
        self.axes, self.q, self.tail = axes, q, tuple(tail)
        self.lattice_size = math.prod(map(len, axes))

    def __len__(self) -> int:
        return self.lattice_size + len(self.tail)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self)))))
        i = range(len(self))[index]  # negative indices count from the end; IndexError past it
        if i >= self.lattice_size:
            return self.tail[i - self.lattice_size]
        coords = []
        for axis in reversed(self.axes):
            i, k = divmod(i, len(axis))
            coords.append(Fraction(axis[k], self.q))
        return TorusPoint(tuple(reversed(coords)), True)


class ChiFamily(NamedTuple):
    """Sampled tau-functions chi_j(g) for a list of generator labels.

    The grid is the concatenation of a shifted uniform lattice (exact points,
    axis_count per axis, built when read), a near-identity ray, and the
    derivative probes; every value list has grid length.
    """

    labels: tuple[Weight, ...]
    grid: LatticeGrid
    values: dict
    axis_count: int
    offsets: tuple[Fraction, ...]
    ray_direction: tuple[float, ...]
    ray_scales: tuple[float, ...]
    ray_start: int
    probes: tuple[ProbeSpec, ...]

    @property
    def rank(self) -> int:
        return len(self.ray_direction)

    @property
    def lattice_size(self) -> int:
        return self.axis_count**self.rank

    def ray_values(self, label: Weight) -> tuple[complex, ...]:
        start = self.ray_start
        return tuple(self.values[label][start : start + len(self.ray_scales)])

    def check(self) -> None:
        want = self.lattice_size + len(self.ray_scales) + 6 * len(self.probes)
        if len(self.grid) != want:
            raise ValidationError("family grid length does not match its layout")
        for label in self.labels:
            if len(self.values[label]) != len(self.grid):
                raise ValidationError("value list length does not match the grid")


# ---------------------------------------------------------------------------
# forward synthesis

def _sin_margin(datum: CartanDatum, coords: Sequence[float]) -> float:
    g = TorusPoint.real_point(coords)
    return min(abs(math.sin(math.pi * root_phase(alpha, g))) for alpha in positive_roots(datum))


def _pick_ray_direction(datum: CartanDatum, seed: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    for _ in range(200):
        cand = tuple(rng.uniform(0.3, 1.0) for _ in range(datum.rank))
        if min_root_phase(datum, TorusPoint.real_point(cand)) >= 0.02:
            return cand
    raise ValidationError("could not place a regular ray direction")


def _pick_probes(datum: CartanDatum, grid_len: int) -> tuple[list[ProbeSpec], list[tuple[float, ...]]]:
    """Axis-dominant probe directions with two admissible stencil bases each."""
    probes: list[ProbeSpec] = []
    points: list[tuple[float, ...]] = []
    rank = datum.rank
    for axis in range(rank):
        direction = tuple(
            1.0 if j == axis else 0.1373 + 0.0691 * ((axis + j) % 3) for j in range(rank)
        )
        if min_root_phase(datum, TorusPoint.real_point(direction)) < 0.02:
            direction = tuple(
                1.0 if j == axis else 0.2141 + 0.0577 * ((axis + 2 * j) % 5) for j in range(rank)
            )
        if min_root_phase(datum, TorusPoint.real_point(direction)) < 0.02:
            raise ValidationError("could not place probe directions")
        found = 0
        for base in PROBE_BASES:
            h = PROBE_STEP
            stencil = [base + d for d in (-h, -h / 2, -h / 4, h / 4, h / 2, h)]
            coords = [tuple(s * c for c in direction) for s in stencil]
            if all(_sin_margin(datum, pt) >= 0.1 for pt in coords):
                probes.append(ProbeSpec(direction, base, h, grid_len + len(points)))
                points.extend(coords)
                found += 1
                if found == 2:
                    break
        if found < 2:
            raise ValidationError("could not place enough probe bases on an axis")
    return probes, points


def _grid_offsets(datum: CartanDatum, seed: int = 0) -> tuple[Fraction, ...]:
    """Per-axis fractional offsets r/97 making every lattice point exact-regular."""
    for attempt in range(200):
        rng = random.Random(seed + attempt)
        offs = tuple(Fraction(rng.randrange(1, 97), 97) for _ in range(datum.rank))
        if is_regular(TorusPoint.exact_point(offs), datum):
            return offs
    raise ValidationError("could not choose regular grid offsets")


def default_axis_count(rank: int, axis_count: int | None = None) -> int:
    return (64 if rank <= 2 else 32) if axis_count is None else int(axis_count)


def synth_family(
    spec: RealFormSpec,
    keys: Sequence[GeneratorKey],
    axis_count: int | None = None,
) -> ChiFamily:
    """Sample chi_j(g) = tau_g(generator_j) over a shifted uniform lattice, a
    near-identity ray, and derivative probes."""
    datum = spec.datum
    n = default_axis_count(datum.rank, axis_count)
    if n < 4:
        raise ValidationError("grid too coarse")
    offsets = _grid_offsets(datum)
    # coordinate k of an axis with offset r/97 is (97k + r)/q with q = 97n, in [0, 1)
    q = 97 * n
    axes = [[97 * k + off.numerator for k in range(n)] for off in offsets]
    ray_direction = _pick_ray_direction(datum, seed=101)
    scales = tuple(RAY_START_SCALE * 2.0 ** (-k) for k in range(RAY_LEVELS + 1))
    ray_points = [TorusPoint.real_point(tuple(s * c for c in ray_direction)) for s in scales]
    probes, probe_coords = _pick_probes(datum, n**datum.rank + len(ray_points))
    probe_points = [TorusPoint.real_point(c) for c in probe_coords]
    grid = LatticeGrid(axes, q, ray_points + probe_points)
    columns = zip(tau_lattice(spec, keys, axes, q), tau_grid(spec, keys, ray_points + probe_points))
    values = {key.lam: on + off for key, (on, off) in zip(keys, columns)}
    family = ChiFamily(
        labels=tuple(key.lam for key in keys),
        grid=grid,
        values=values,
        axis_count=n,
        offsets=offsets,
        ray_direction=ray_direction,
        ray_scales=scales,
        ray_start=grid.lattice_size,
        probes=tuple(probes),
    )
    family.check()
    return family


# ---------------------------------------------------------------------------
# recovery

def _nonzero(values: Sequence, what: str) -> Sequence:
    """The values, unless one is zero (recovery divides by them or takes logs)."""
    if 0 in values:
        raise ReconstructionError(f"{what} include a zero")
    return values


def richardson(values: Sequence, order: int = 3) -> list:
    """Last column of the Neville table that extrapolates samples at halving
    scales t_k = t_0 2^{-k} to t = 0, at most ``order`` columns deep.  With
    t_{k-j} = 2^j t_k the update is the classical Richardson form
    (2^j T[k][j-1] - T[k-1][j-1]) / (2^j - 1)."""
    column = list(values)
    for j in range(1, min(order, len(column) - 1) + 1):
        factor = 2.0**j
        column = [
            (factor * column[i] - column[i - 1]) / (factor - 1.0) for i in range(1, len(column))
        ]
    return column


def recover_dims(family: ChiFamily) -> dict:
    """K-type dimensions from ratio limits along the near-identity ray.

    The reference label j0 minimizes the limits |chi_j / chi_j'|, which marks a
    one-dimensional K-type; its dimension is set to 1 and every other limit
    must sit within 1e-3 of an integer.
    """
    if not family.labels:
        return {}
    ref = family.labels[0]
    ref_vals = _nonzero(family.ray_values(ref), f"the ray samples of {ref}")
    limits = {}
    for label in family.labels:
        vals = family.ray_values(label)
        ratio = [abs(v) / abs(w) for v, w in zip(vals, ref_vals)]
        limits[label] = richardson(ratio)[-1]
    j0 = min(family.labels, key=lambda lab: limits[lab])  # ties: label order via min
    _nonzero([limits[j0]], "the ratio limits")
    dims = {}
    for label in family.labels:
        raw = limits[label] / limits[j0]
        nearest = round(raw)
        if nearest < 1 or abs(raw - nearest) > DIM_TOL:
            raise ReconstructionError(
                f"ratio limit {raw!r} for label {label} is not a positive integer"
            )
        dims[label] = int(nearest)
    return dims


class CharacterRecovery(NamedTuple):
    reference_label: Weight
    psi_ray: tuple[complex, ...]
    char_lattice: dict


def recover_characters(family: ChiFamily, dims: dict) -> CharacterRecovery:
    """psi = i |chi_j0|^{-1} on the ray, and lattice character samples via the
    ratio chi_j / chi_j0; psi * chi_j must be a fourth root of unity times a
    positive real near the identity."""
    j0 = next((lab for lab in family.labels if dims[lab] == 1), None)
    if j0 is None:
        raise ReconstructionError("no label of dimension 1 to serve as reference")
    v0_ray = _nonzero(family.ray_values(j0), f"the ray samples of {j0}")
    psi_ray = tuple(1j / abs(v) for v in v0_ray)
    char_lattice = {}
    size = family.lattice_size
    v0 = _nonzero(family.values[j0][:size], f"the lattice samples of {j0}")
    for label in family.labels:
        vals = family.ray_values(label)
        tail = [psi_ray[k] * vals[k] for k in (-1, -2)]
        z = (tail[0] + tail[1]) / 2
        if abs(z) < 1e-9:
            raise ReconstructionError(f"samples of {label} too close to zero near the identity")
        if max((u * z).real for u in (1 + 0j, -1 + 0j, 1j, -1j)) < 0.5 * abs(z):
            raise ReconstructionError(f"sign of {label} unresolved near the identity")
        char_lattice[label] = tuple(map(operator.truediv, family.values[label], v0))
    return CharacterRecovery(j0, psi_ray, char_lattice)


def _check_box(axis_count: int, bound: int) -> None:
    if axis_count <= 2 * bound:
        raise ValidationError("grid too coarse for the requested frequency box")


def lattice_twiddles(family: ChiFamily, bound: int) -> list[dict]:
    """The factors e^{-2 pi i f (k + offset) / n} per axis and frequency |f| <= bound,
    read from the lattice's table: with offsets r/d and q = n d, the point
    k + r/d of an axis is a_k/q with a_k = d k + r, so the factor is
    zeta[-2 f a_k mod 2q]."""
    n = family.axis_count
    _check_box(n, bound)
    d = math.lcm(*(off.denominator for off in family.offsets))
    two_q = 2 * n * d
    zeta, _, _ = phase_tables(n * d)
    return [
        {f: [zeta[-2 * f * (d * k + r) % two_q] for k in range(n)] for f in range(-bound, bound + 1)}
        for r in (off.numerator * d // off.denominator for off in family.offsets)
    ]


def lattice_fourier(family: ChiFamily, samples: Sequence[complex], bound: int, twiddles=None) -> dict:
    """Discrete Fourier inner products <chi, e^mu> over the shifted lattice, for all integral
    mu with fundamental coordinates in [-bound, bound]; ``twiddles`` as lattice_twiddles'."""
    n = family.axis_count
    rank = family.rank
    if twiddles is None:
        twiddles = lattice_twiddles(family, bound)
    blocks = {(): list(samples[: family.lattice_size])}
    for axis in range(rank - 1, -1, -1):
        new: dict = {}
        for suffix, vec in blocks.items():
            rows = [vec[i : i + n] for i in range(0, len(vec), n)]
            for f, tw in twiddles[axis].items():
                new[(f,) + suffix] = [sum(map(operator.mul, row, tw)) for row in rows]
        blocks = new
    total = n**rank
    return {
        Weight(tuple(2 * f for f in key)): vec[0] / total for key, vec in blocks.items()
    }


def recover_highest_weights(
    family: ChiFamily,
    chars: CharacterRecovery,
    bound: int,
    datum: CartanDatum,
    dominance_roots: Sequence[Weight],
) -> dict:
    """Per label: among the dominant weights whose Fourier coefficient exceeds
    1/2, the one with the largest |w + rho| (rho of ``dominance_roots``), ties
    to the greater coords2.  In an irreducible representation the highest
    weight is the unique weight with the largest |mu + rho|; the greatest
    weight in lexicographic order need not be it.  The reference label's
    character is its samples over themselves, 1 up to rounding, so its
    weight is 0 without a transform."""
    out = {}
    r = rho(dominance_roots, datum.rank)
    twiddles = lattice_twiddles(family, bound)
    for label in family.labels:
        if label == chars.reference_label:
            out[label] = Weight((0,) * datum.rank)
            continue
        coeffs = lattice_fourier(family, chars.char_lattice[label], bound, twiddles)
        support = [w for w, c in coeffs.items() if abs(c) > 0.5]
        if not support:
            raise ReconstructionError(f"no Fourier coefficient above 1/2 for {label}")
        dominant = [w for w in support if is_dominant(datum, w, dominance_roots)]
        if not dominant:
            raise ReconstructionError(f"no dominant weight in the support of {label}")
        out[label] = max(dominant, key=lambda w: (pairing(datum, w + r, w + r), w.coords2))
    return out


def canonical_sign(w: Weight) -> Weight:
    for c in w.coords2:
        if c > 0:
            return w
        if c < 0:
            return -w
    return w


def candidate_box(rank: int, bound: int) -> tuple[Weight, ...]:
    """Nonzero integral weights with fundamental coordinates in [-bound, bound],
    one representative per +/- pair."""
    seen = set()
    for fund in itertools.product(range(-bound, bound + 1), repeat=rank):
        w = Weight(tuple(2 * f for f in fund))
        if w.is_zero:
            continue
        seen.add(canonical_sign(w))
    return tuple(sorted(seen, key=lambda w: w.coords2))


class NoncompactRecovery(NamedTuple):
    weights: frozenset
    residual: float
    spin_power: int


def _log_derivatives(family: ChiFamily, chars: CharacterRecovery) -> list[float]:
    v0 = family.values[chars.reference_label]
    out = []
    for probe in family.probes:
        stencil = _nonzero(v0[probe.start : probe.start + 6], "the probe samples of the reference label")
        logs = [-math.log(abs(v)) for v in stencil]
        h = probe.step
        d_h = (logs[5] - logs[0]) / (2 * h)
        d_h2 = (logs[4] - logs[1]) / h
        d_h4 = (logs[3] - logs[2]) / (h / 2)
        r1 = (4 * d_h2 - d_h) / 3
        r2 = (4 * d_h4 - d_h2) / 3
        out.append((16 * r2 - r1) / 15)
    return out


def _model_term(w: Weight, probe: ProbeSpec) -> float:
    u = root_phase(w, TorusPoint.real_point(probe.direction))
    x = math.pi * probe.base * u
    s = math.sin(x)
    if abs(s) < 1e-12:
        return math.inf
    return math.pi * u * math.cos(x) / s


def recover_noncompact_weights(
    family: ChiFamily, chars: CharacterRecovery, candidates: Sequence[Weight]
) -> NoncompactRecovery:
    """Fit the log-derivative of psi along the probes by a sum of cotangent
    terms over a subset of the candidate weights; the subset size is the spin
    power recovered from the ray decay of |psi|.  The search is exact: every
    subset within FIT_TOL (rms) is found, and the fit is refused unless there
    is exactly one."""
    scales = family.ray_scales
    psi_mag = [abs(p) for p in chars.psi_ray]
    slope = (math.log(psi_mag[-1]) - math.log(psi_mag[-3])) / (
        math.log(scales[-1]) - math.log(scales[-3])
    )
    m = round(slope)
    if abs(slope - m) > 0.1 or m < 0:
        raise ReconstructionError(f"decay exponent {slope!r} of psi is not a clean integer")
    if m == 0:
        return NoncompactRecovery(frozenset(), 0.0, 0)
    data = _log_derivatives(family, chars)
    cands = tuple(dict.fromkeys(canonical_sign(w) for w in candidates if not w.is_zero))
    if len(cands) < m:
        raise ReconstructionError("candidate set smaller than the required subset")
    terms = [[_model_term(w, p) for p in family.probes] for w in cands]

    def residual(subset) -> float:
        sq = 0.0
        for i in range(len(data)):
            model = sum(terms[w][i] for w in subset)
            if not math.isfinite(model):
                return math.inf
            sq += (data[i] - model) ** 2
        return math.sqrt(sq / len(data))

    # Meet in the middle (Horowitz-Sahni): a subset with rms residual <= FIT_TOL
    # is within FIT_TOL * sqrt(P) of data[0] on the first probe.  Split each
    # index subset into its first ceil(m/2) indices and the rest, and bisect the
    # sorted first-probe sums of the rests for that window, twice as wide to
    # absorb rounding.  A candidate with a singular term fits nothing.
    usable = [i for i, row in enumerate(terms) if all(map(math.isfinite, row))]
    tails = sorted(
        (sum(terms[i][0] for i in tail), tail)
        for tail in itertools.combinations(usable, m - (m + 1) // 2)
    )
    sums = [s for s, _ in tails]
    width = 2 * FIT_TOL * math.sqrt(len(data))
    hits = []
    for head in itertools.combinations(usable, (m + 1) // 2):
        target = data[0] - sum(terms[i][0] for i in head)
        lo = bisect.bisect_left(sums, target - width)
        for _, tail in tails[lo : bisect.bisect_right(sums, target + width)]:
            if not tail or tail[0] > head[-1]:
                hits.append((residual(head + tail), head + tail))
    fits = sorted(hit for hit in hits if hit[0] <= FIT_TOL)
    if len(fits) > 1:
        a, b = ([cands[i].coords2 for i in subset] for _, subset in fits[:2])
        raise ReconstructionError(f"two candidate subsets fit the psi derivatives: {a} and {b}")
    if not fits:
        best = f"best residual {min(hits)[0]!r}" if hits else "no subset reached the first-probe window"
        raise ReconstructionError(f"no candidate subset fits the psi derivatives ({best})")
    return NoncompactRecovery(frozenset(cands[i] for i in fits[0][1]), fits[0][0], m)


# ---------------------------------------------------------------------------
# end-to-end pipeline

class RecoveryReport(NamedTuple):
    labels: tuple[Weight, ...]
    dims: dict
    reference_label: Weight
    highest_weights: dict
    noncompact_weights: frozenset
    noncompact_residual: float
    spin_power: int
    psi_ray: tuple[complex, ...]


def run_reconstruction(
    spec: RealFormSpec,
    keys: Sequence[GeneratorKey],
    axis_count: int | None = None,
    weight_bound: int = 6,
    candidate_bound: int = 3,
) -> RecoveryReport:
    """synth -> dims -> characters -> highest weights -> noncompact weights.
    A frequency box the grid cannot resolve is refused before any synthesis."""
    _check_box(default_axis_count(spec.rank, axis_count), weight_bound)
    family = synth_family(spec, keys, axis_count)
    dims = recover_dims(family)
    chars = recover_characters(family, dims)
    highest = recover_highest_weights(
        family, chars, weight_bound, spec.datum, spec.compact_positive
    )
    nc = recover_noncompact_weights(
        family, chars, candidate_box(spec.rank, candidate_bound)
    )
    return RecoveryReport(
        labels=family.labels,
        dims=dims,
        reference_label=chars.reference_label,
        highest_weights=highest,
        noncompact_weights=nc.weights,
        noncompact_residual=nc.residual,
        spin_power=nc.spin_power,
        psi_ray=chars.psi_ray,
    )
