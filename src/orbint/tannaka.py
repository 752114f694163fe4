"""Reconstruction pipeline: from sampled tau-functions recover K-type
dimensions, characters, highest weights, and the noncompact weight set up to
sign.

Forward synthesis (synth_family) may consult the real-form data to place its
sample grid away from singular loci; the recovery functions see only labels,
grid coordinates, and sampled values.  The lattice is t = n/q with q = 97n;
a family holds it as its integer axes and q, and builds no point.  Every step
is one separable transform, ``synthesize`` onto the lattice and
``lattice_fourier`` back, with its own per-axis table of factors, each an
entry of the lattice's table of e^{i pi k/q} (``phase_tables``):

- synthesis (``synthesize``) evaluates a sparse Laurent polynomial, a key's
  numerator (``ktrace.tau_numerator``: its K-type's weight table or its
  signed W_K orbit), at every point, one axis at a time, and divides it by
  real sines read from a table of 2n per root (``sine_column``); the
  lattice's regularity rests on its offsets (``_grid_offsets``), and no
  dual path is checked there, since both paths would divide one numerator;
- the reference label is the first whose reciprocal is a Laurent polynomial
  with integer coefficients, +-e^mu prod_{beta in S} (e^{beta/2} - e^{-beta/2}),
  read on the coarsest sub-lattice that resolves it; S, the noncompact set, is
  the one candidate set whose binomials divide it exactly down to a unit, and
  |S| is the spin power;
- a dimension is the value at the identity of chi_j / chi_ref, the sum of its
  Fourier coefficients: one Dirichlet-kernel dot product, none for the reference;
- a highest weight is the dominant support weight with the largest
  |w + rho_c|, read from the dominant window of the box only, on the coarsest
  sub-lattice that resolves it (16 points per axis at the defaults, refined
  until the window's coefficients are integers); the reference label's
  character is 1, so its weight is 0 without a transform, and a weight whose
  Weyl dimension is not its label's is refused.

A lattice's offsets, twiddle rows, sine tables and Dirichlet kernel (the largest:
n^r floats, about 2 MB at 16^4) are pure functions of (q, offsets, axis count), so
``phase_tables(q)`` keeps them, for the last four q, as tuples no caller can
change, and a later call on the same lattice reads the same doubles.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import ReconstructionError, ValidationError
from .ktrace import tau_numerator
from .realform import GeneratorKey, RealFormSpec
from .rootsys import CartanDatum, Weight, is_dominant, pairing, positive_roots, rho, weyl_dim
from .toruschar import TorusPoint, is_regular

DIM_TOL = 1e-3  # how far a dimension or a spinor coefficient may sit from an integer
COARSEST_AXIS = 8  # points per axis of the first sub-lattice the spinor is read on
MAX_LATTICE_POINTS = 2**16  # the largest lattice a reconstruction synthesizes: 64^2, 32^3, 16^4


class ChiFamily(NamedTuple):
    """Sampled tau-functions chi_j(g) for a list of generator labels on the
    lattice t = (n_1/q, ..., n_r/q), n_j in axes[j] (all of one length), one
    value per point in ``itertools.product`` order."""

    labels: tuple[Weight, ...]
    axes: tuple[tuple[int, ...], ...]
    q: int
    values: dict

    @property
    def rank(self) -> int:
        return len(self.axes)

    @property
    def axis_count(self) -> int:
        return len(self.axes[0])

    @property
    def lattice_size(self) -> int:
        return self.axis_count**self.rank


# ---------------------------------------------------------------------------
# forward synthesis

def _grid_offsets(datum: CartanDatum, seed: int = 0) -> tuple[int, ...]:
    """Per-axis residues r_j in [1, 97) with r/97 regular, which makes the whole
    lattice regular: axis j holds 97k + r_j over q = 97n, a root pairs with a
    point to a = sum_j (c2_j // 2) n_j = sum_j (c2_j // 2) r_j mod 97, and
    q | a needs 97 | a, a wall through r/97."""
    for attempt in range(200):
        rng = random.Random(seed + attempt)
        rs = tuple(rng.randrange(1, 97) for _ in range(datum.rank))
        if is_regular(TorusPoint.exact_point(Fraction(r, 97) for r in rs), datum):
            return rs
    raise ValidationError("could not choose regular grid offsets")


def default_axis_count(rank: int, axis_count: int | None = None) -> int:
    """The given axis count, else the largest power of two, at most 64, whose
    lattice fits MAX_LATTICE_POINTS: 64 up to rank 2, then 32, 16, 8, 4."""
    if axis_count is not None:
        return int(axis_count)
    return min(64, 2 ** ((MAX_LATTICE_POINTS.bit_length() - 1) // rank))


def synth_family(
    spec: RealFormSpec,
    keys: Sequence[GeneratorKey],
    axis_count: int | None = None,
) -> ChiFamily:
    """Sample chi_j(g) = tau_g(generator_j) over a shifted uniform lattice.
    Each key's numerator is its ``ktrace.tau_numerator``, synthesized on the
    lattice (``synthesize``): the K-type's weight table, whose sum chi_V is
    divided by (-1)^m spin_sign D_n, or the signed W_K orbit, divided by
    (-1)^m spin_sign D.  A root factor is 2i sin(pi <beta/2, t>), so with p the
    route's root count the exact (-1)^m spin_sign (2i)^p is folded into the
    numerator's coefficients and the rest is a real product of ``sine_column``s:
    none for a route with no roots, and D's only when a key is on the orbit route."""
    datum = spec.datum
    n = default_axis_count(datum.rank, axis_count)
    if n < 4:
        raise ValidationError("grid too coarse")
    # coordinate k of an axis with residue r is (97k + r)/q with q = 97n, in [0, 1)
    q = 97 * n
    offsets = phase_tables(q).offsets
    offsets[datum] = offsets.get(datum) or _grid_offsets(datum)
    axes = tuple(tuple(97 * k + r for k in range(n)) for r in offsets[datum])
    family = ChiFamily(labels=tuple(key.lam for key in keys), axes=axes, q=q, values={})
    numerators = [tau_numerator(spec, key) for key in keys]
    if not numerators:
        return family

    def times_sines(column: list | None, roots: Sequence[Weight]) -> list | None:
        for sines in (sine_column(family, beta) for beta in roots):
            column = sines if column is None else list(map(operator.mul, column, sines))
        return column

    sign, noncompact = (-1) ** (spec.dim_gk // 2) * spec.spin_sign, spec.noncompact_positive
    denoms = {"weights": (times_sines(None, noncompact), len(noncompact))}
    if any(numer.route == "orbit" for numer in numerators):
        denoms["orbit"] = (times_sines(denoms["weights"][0], spec.compact_positive), len(spec.positive_system))
    for key, numer in zip(keys, numerators):
        terms, (den, p) = numer.terms, denoms[numer.route]
        unit = sign * (-0.5j) ** p  # 1 / ((-1)^m spin_sign (2i)^p), exactly
        column = synthesize(family, zip(zip(*[iter(terms.coords)] * terms.rank), map(unit.__mul__, terms.signs)))
        family.values[key.lam] = tuple(column if den is None else map(operator.truediv, column, den))
    return family


def sine_column(family: ChiFamily, beta: Weight) -> list[float]:
    """sin(pi <beta/2, t>) at every lattice point, in product order.  With b = beta.coords2 // 2,
    (97k + r)/q pairs to a/q, a = 97 <b, k> + <b, r>, and 97 * 2n = 2q, so its sine is entry
    <b, k> mod 2n of one table of 2n per <b, r> (``phase_tables``), each (-1)^(a // q) sin(pi x/q)
    with x the nearer to 0 of a mod q and q - a mod q, which keeps the digits near a wall.  A line
    of the last axis starts at <b_head, head> mod 2n and steps by b_last mod 2n: one slice of the
    table repeated (one entry n times for step 0)."""
    zeta, n, q, b = phase_tables(family.q), family.axis_count, family.q, [c // 2 for c in beta.coords2]
    if (shift := sum(c * axis[0] for c, axis in zip(b, family.axes))) not in zeta.sines:
        pairings = range(shift, shift + 2 * q, 97)  # 97m + <b, r> for m in [0, 2n)
        zeta.sines[shift] = tuple([(-1) ** (a // q) * math.sin(math.pi * min(a % q, q - a % q) / q) for a in pairings])
    table, starts, step = zeta.sines[shift], [0], b[-1] % (2 * n)
    for c in b[:-1]:
        starts = [(x + c * k) % (2 * n) for x in starts for k in range(n)]
    long = table * (2 + step // 2)
    lines = {x: long[x : x + step * n : step] if step else (table[x],) * n for x in set(starts)}
    return list(itertools.chain.from_iterable(map(lines.__getitem__, starts)))


def synthesize(family: ChiFamily, terms: Iterable[tuple[tuple[int, ...], int]]) -> list[complex]:
    """sum_mu c_mu e^mu(t) at every lattice point, in ``itertools.product``
    order, for terms (mu.coords2, c_mu) with distinct mu: ``lattice_fourier``
    run backwards.  At t = a/q, e^mu(t) = prod_j zeta[mu2_j a_j], so the axes
    are contracted one at a time, the last first (sum factorization): the
    terms that agree on the axes before j are summed into one column over the
    points of the axes from j on.  Each term's column grows by its row of axis
    j (``axis_twiddles`` taken at -mu2_j) as one outer product, row entry times
    column entry with the row index outer; a zero exponent's row is all ones,
    so its column is only repeated."""
    level = {mu: [complex(c)] for mu, c in terms}
    if not level:
        return [0j] * family.lattice_size
    rows = axis_twiddles(family, [{-mu[j] for mu in level} for j in range(family.rank)])
    for table in reversed(rows):
        merged: dict = {}
        for mu, column in level.items():
            m = mu[-1]
            column = [z * x for z in table[-m] for x in column] if m else column * family.axis_count
            prefix = mu[:-1]
            merged[prefix] = list(map(operator.add, merged[prefix], column)) if prefix in merged else column
        level = merged
    return level[()]


# ---------------------------------------------------------------------------
# the transform

def _quotients(num: Iterable, den: Sequence[complex], label: Weight) -> tuple:
    """num / den pointwise, where den holds the lattice samples of ``label``;
    refused when one of them is zero (complex division raises exactly there)."""
    try:
        return tuple(map(operator.truediv, num, den))
    except ZeroDivisionError:
        raise ReconstructionError(f"the lattice samples of {label} include a zero") from None


def _check_box(axis_count: int, bound: int) -> None:
    if axis_count <= 2 * bound:
        raise ValidationError("grid too coarse for the requested frequency box")


class _PhaseTable(dict):
    """zeta[k] = e^{i pi k/q} for the lattice t = n/q, filled where read, and the
    lattice's other constants; ``phase_tables(q)`` shares one per q (the last four q)."""

    def __init__(self, q: int):
        self.q, self.offsets, self.rows, self.dirichlet, self.sines = q, {}, {}, {}, {}

    def __missing__(self, k: int) -> complex:
        value = self[k] = cmath.exp(1j * math.pi * ((k % (2 * self.q)) / self.q))
        return value


phase_tables = functools.lru_cache(maxsize=4)(_PhaseTable)


def axis_twiddles(family: ChiFamily, windows: Sequence[Collection[int]], stride: int = 1) -> list[dict]:
    """Per axis j and doubled frequency c in windows[j], the factors
    e^{-pi i c t} = zeta[-c a_k mod 2q] (``phase_tables``) at the points
    t = a_k/q, k = 0, stride, 2 stride, ....  Each row is built once per
    lattice (``phase_tables``)."""
    zeta, two_q, tables = phase_tables(family.q), 2 * family.q, []
    for window, axis in zip(windows, family.axes):
        known, ax = zeta.rows.setdefault((axis[0], len(axis), stride), {}), axis[::stride]
        known.update({c: tuple([zeta[-c * a % two_q] for a in ax]) for c in window if c not in known})
        tables.append({c: known[c] for c in window})
    return tables


def _rows(vec: list, n: int, inner: int) -> list:
    """The lines of ``vec`` along an axis of n points with ``inner`` entries
    per point (the product of the later axes' lengths), in product order of
    the other axes."""
    span = n * inner
    return [vec[i + k : i + span : inner] for i in range(0, len(vec), span) for k in range(inner)]


def lattice_fourier(samples: Sequence[complex], twiddles: Sequence[dict]) -> dict:
    """Discrete Fourier inner products <chi, e^mu> over a (sub-)lattice, one per
    choice of a key on each axis of ``twiddles`` (as axis_twiddles'), keyed by
    the tuple of those doubled coordinates, mu.coords2 (a caller builds a
    ``Weight`` only for the few coefficients it keeps); the samples are in
    ``itertools.product`` order over the axes' points.

    The axes are contracted one at a time, the one with the fewest keys first
    and, among equals, the last first, so the order of the sums depends on the
    tables' sizes alone.  Each coefficient is one dot product of length n per
    line.  The partial sums are one flat list with a run per key, each key a
    tuple of doubled coordinates in axis order whose slot j is filled when
    axis j is contracted, so the keys come out in the order the contractions
    nest, with no sort."""
    shape = [len(next(iter(table.values()))) for table in twiddles]
    keys, vec = [(0,) * len(twiddles)], list(samples)  # one run of vec per key, in key order
    for j in sorted(range(len(twiddles)), key=lambda j: (len(twiddles[j]), -j)):
        n, inner, shape[j] = shape[j], math.prod(shape[j + 1 :]), 1
        rows = _rows(vec, n, inner)
        dots = [[sum(map(operator.mul, row, tw)) for row in rows] for tw in twiddles[j].values()]
        # dots[c] runs over (key, line); the new runs are (key, c)
        per = len(dots[0]) // len(keys)
        vec = [x for i in range(0, len(dots[0]), per) for d in dots for x in d[i : i + per]]
        keys = [key[:j] + (c,) + key[j + 1 :] for key in keys for c in twiddles[j]]
    return {key: x / len(samples) for key, x in zip(keys, vec)}


# ---------------------------------------------------------------------------
# recovery

def canonical_sign(w: Weight) -> Weight:
    """w or -w, whichever has a positive first nonzero coordinate (w for 0)."""
    return -w if next((c for c in w.coords2 if c), 0) < 0 else w


def candidate_box(rank: int, bound: int) -> tuple[Weight, ...]:
    """Nonzero integral weights with fundamental coordinates in [-bound, bound],
    one representative per +/- pair: the ``canonical_sign`` one, listed in
    increasing coords2 order directly, as i zeros, a first nonzero coordinate
    in [1, bound] and any rest, for i from rank - 1 down to 0."""
    box = range(-2 * bound, 2 * bound + 1, 2)
    heads = [(0,) * i + (2 * f,) for i in reversed(range(rank)) for f in range(1, bound + 1)]
    return tuple(Weight(head + rest) for head in heads for rest in itertools.product(box, repeat=rank - len(head)))


def divide_binomial(poly: dict, beta: Weight) -> dict | None:
    """poly / (e^{beta/2} - e^{-beta/2}) for a Laurent polynomial (doubled
    exponents -> nonzero integers), or None when it does not divide.  With
    y = e^beta the binomial is e^{-beta/2} (y - 1): on each line x + Z beta
    the coefficients a_k of x + k beta must sum to 0, and the quotient there
    has -(a_lo + ... + a_k) at x + k beta + beta/2."""
    b = beta.coords2
    j = next(i for i, c in enumerate(b) if c)
    lines: dict = {}
    for e, a in poly.items():
        k = e[j] // b[j]
        lines.setdefault(tuple(x - k * y for x, y in zip(e, b)), {})[k] = a
    if any(sum(line.values()) for line in lines.values()):
        return None
    out = {}
    for base, line in lines.items():
        partial = 0
        for k in range(min(line), max(line) + 1):
            partial -= line.get(k, 0)
            if partial:
                out[tuple(x + k * y + y // 2 for x, y in zip(base, b))] = partial
    return out


def unit_factorizations(poly: dict, candidates: Sequence[Weight]) -> list[tuple[Weight, ...]]:
    """Every set of candidates (in candidate order) whose binomials
    e^{beta/2} - e^{-beta/2} divide ``poly`` exactly and leave a unit +-e^mu.
    A binomial that divides a quotient divides ``poly``, so only the divisors
    of ``poly`` are searched."""
    divisors = [w for w in candidates if divide_binomial(poly, w) is not None]
    found = []

    def search(rest: dict, start: int, chosen: tuple) -> None:
        if len(rest) == 1 and abs(next(iter(rest.values()))) == 1:
            found.append(chosen)
            return
        for i in range(start, len(divisors)):
            quotient = divide_binomial(rest, divisors[i])
            if quotient is not None:
                search(quotient, i + 1, chosen + (divisors[i],))

    if poly:
        search(poly, 0, ())
    return found


def _strides(n: int, coarsest: int) -> Iterator[int]:
    """The strides a coarse-to-fine read tries: coarsest, halved down to 1,
    each that divides n (a sub-lattice of n / stride points per axis)."""
    while coarsest > 1:
        if n % coarsest == 0:
            yield coarsest
        coarsest //= 2
    yield 1


def _sublattice(values: Sequence, n: int, rank: int, stride: int) -> Sequence:
    """The values at every ``stride``-th point per axis, in product order."""
    if stride == 1:
        return values
    index = [0]
    for axis in range(rank):
        step = n ** (rank - 1 - axis)
        index = [i + k * step for i in index for k in range(0, n, stride)]
    return [values[i] for i in index]


def _off_integer(samples: Sequence[complex], tables: Sequence[dict], ks: Sequence[int]) -> bool:
    """Whether the coefficient at doubled frequencies ``ks`` (one key of each
    table) sits further than DIM_TOL from an integer."""
    [coeff] = lattice_fourier(samples, [{k: table[k]} for table, k in zip(tables, ks)]).values()
    return abs(coeff - round(coeff.real)) > DIM_TOL


def _integral_reciprocal(family: ChiFamily, label: Weight) -> tuple[dict, float] | None:
    """1/chi_label as a Laurent polynomial with integer coefficients, with the
    worst distance of its coefficients from integers, or None.  Read on the
    sub-lattice of COARSEST_AXIS points per axis, at the doubled frequencies of
    both parities in a window of that many per parity around -label; the stride
    halves until exactly one parity class is integral and nonzero.  A window
    that misses the support aliases with the phase of the offset, r/97, so it
    comes out non-integral rather than wrong.

    Each parity class is transformed on its own, and only after a screen: its
    coefficient nearest -label, and the one two doubled units below it on the
    last axis, must sit within DIM_TOL of an integer.  A class is integral
    only if all its coefficients are, so a class that fails the screen is
    not.  ``lattice_fourier`` computes each coefficient from that frequency's
    own twiddles, by the same sums in the same order whatever else the tables
    hold as long as every axis has as many keys, so the screened coefficients
    and each transformed class are the doubles of the whole window's
    transform, and every verdict is the same.  So a refusal, where no class
    is integral, computes one or two coefficients per class and stride rather
    than all (2m)^r of the window."""
    n, rank = family.axis_count, family.rank
    for stride in _strides(n, max(1, n // COARSEST_AXIS)):
        m = n // stride
        samples = _sublattice(family.values[label], n, rank, stride)
        recip = _quotients(itertools.repeat(1), samples, label)
        windows = [range(-c - m, -c + m) for c in label.coords2]
        twiddles = axis_twiddles(family, windows, stride)
        integral = []
        for parity in itertools.product((0, 1), repeat=rank):
            tables = [{c: tw for c, tw in table.items() if c % 2 == p} for table, p in zip(twiddles, parity)]
            nearest = [-c + (c + p) % 2 for c, p in zip(label.coords2, parity)]
            below = nearest[:-1] + [nearest[-1] - 2]
            if any(_off_integer(recip, tables, ks) for ks in (nearest, below)):
                continue
            coeffs = lattice_fourier(recip, tables)
            residual = max(abs(c - round(c.real)) for c in coeffs.values())
            poly = {k: round(c.real) for k, c in coeffs.items() if round(c.real)}
            if residual <= DIM_TOL and poly:
                integral.append((poly, residual))
        if len(integral) == 1:
            return integral[0]
    return None


class NoncompactRecovery(NamedTuple):
    reference_label: Weight
    weights: frozenset
    residual: float  # worst distance of the spinor's coefficients from integers
    spin_power: int


def recover_noncompact_weights(family: ChiFamily, candidates: Sequence[Weight]) -> NoncompactRecovery:
    """The reference label is the first whose reciprocal is a Laurent polynomial
    with integer coefficients, +-e^mu prod_{beta in S} (e^{beta/2} - e^{-beta/2});
    S, the noncompact set, is the one set of candidates (up to sign) whose
    binomials divide it down to a unit, and |S| is the spin power.  Refused
    when no label's reciprocal is integral, or when no set or two sets leave a
    unit (on sl2r the binomial of alpha/2 divides that of alpha, but only
    {alpha} leaves a unit)."""
    cands = tuple(dict.fromkeys(canonical_sign(w) for w in candidates if not w.is_zero))
    for label in family.labels:
        found = _integral_reciprocal(family, label)
        if found is not None:
            break
    else:
        raise ReconstructionError("no label whose reciprocal is a Laurent polynomial with integer coefficients")
    poly, residual = found
    sets = unit_factorizations(poly, cands)
    if len(sets) > 1:
        a, b = ([w.coords2 for w in s] for s in sets[:2])
        raise ReconstructionError(f"two candidate sets factor the reciprocal of {label}: {a} and {b}")
    if not sets:
        raise ReconstructionError(f"no candidate set factors the reciprocal of {label} down to a unit")
    return NoncompactRecovery(label, frozenset(sets[0]), residual, len(sets[0]))


class CharacterRecovery(NamedTuple):
    reference_label: Weight
    char_lattice: dict


def recover_characters(family: ChiFamily, reference: Weight) -> CharacterRecovery:
    """Lattice character samples chi_j / chi_ref per label, exactly 1 for the reference."""
    v0, ones = family.values[reference], (1 + 0j,) * family.lattice_size
    char_lattice = {j: ones if j == reference else _quotients(family.values[j], v0, reference) for j in family.labels}
    return CharacterRecovery(reference, char_lattice)


class Dims(dict):
    """K-type dimension per label; ``margin`` is the worst distance of a raw
    dimension from its integer, over DIM_TOL (0.0 for no label read)."""

    __slots__ = ("margin",)


def recover_dims(family: ChiFamily, chars: CharacterRecovery) -> Dims:
    """K-type dimensions: chi_j / chi_ref at the identity, the sum of its
    Fourier coefficients with fundamental coordinates f in (-n/2, n/2), which
    is the lattice mean of the ratio times the product of the per-axis
    Dirichlet kernels sum_{|f| <= h} e^{-2 pi i f t} = sin((2h + 1) pi t) / sin(pi t),
    in one dot product with their product, kept per lattice (``phase_tables``); each
    must sit within DIM_TOL of a positive integer (the reference label's is 1)."""
    zeta, two_q, ref = phase_tables(family.q), 2 * family.q, chars.reference_label
    width = 2 * ((family.axis_count - 1) // 2) + 1
    if (offsets := tuple(axis[0] for axis in family.axes)) not in zeta.dirichlet:
        rows = [[zeta[width * a % two_q].imag / zeta[a].imag for a in axis] for axis in family.axes]
        zeta.dirichlet[offsets] = tuple(map(math.prod, itertools.product(*rows)))
    kernel = zeta.dirichlet[offsets]
    dims = Dims()
    dims.margin = 0.0
    for label in family.labels:
        [raw] = lattice_fourier(chars.char_lattice[label], [{0: kernel}]).values() if label != ref else [1]
        nearest = round(raw.real)
        if nearest < 1 or abs(raw - nearest) > DIM_TOL:
            raise ReconstructionError(f"dimension {raw!r} of label {label} is not a positive integer")
        dims[label] = nearest
        dims.margin = max(dims.margin, abs(raw - nearest) / DIM_TOL)
    return dims


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
    character is 1, so its weight is 0 without a transform.

    Only the dominant window of the box is transformed: where the simple root
    alpha_j is one of ``dominance_roots``, a dominant weight has
    f_j = <w, alpha_j^vee> >= 0, so axis j runs over [0, bound] and not
    [-bound, bound].

    Each label is read on the coarsest sub-lattice first: the largest
    power-of-two stride that divides n and leaves more than 2 bound points per
    axis, halved (``_strides``) until every window coefficient sits within
    DIM_TOL of an integer, and taken as it comes at stride 1.  chi_j / chi_ref
    is a K-type character times a unit (the reference's K-type is
    one-dimensional), so its coefficients are integers; a frequency beyond the
    sub-lattice aliases onto the window times a phase of the offset, r/97, and
    comes out non-integral rather than wrong, as in ``_integral_reciprocal``."""
    n = family.axis_count
    _check_box(n, bound)
    out = {}
    r = rho(dominance_roots, datum.rank)
    compact = set(dominance_roots)
    windows = [
        range(0 if alpha in compact else -2 * bound, 2 * bound + 1, 2) for alpha in positive_roots(datum)[: datum.rank]
    ]
    strides = list(_strides(n, 1 << ((n // (2 * bound + 1)).bit_length() - 1)))
    for label in family.labels:
        if label == chars.reference_label:
            out[label] = Weight((0,) * datum.rank)
            continue
        for stride in strides:
            samples = _sublattice(chars.char_lattice[label], n, family.rank, stride)
            coeffs = lattice_fourier(samples, axis_twiddles(family, windows, stride))
            if stride == 1 or all(abs(c - round(c.real)) <= DIM_TOL for c in coeffs.values()):
                break
        heavy = (Weight(k) for k, c in coeffs.items() if abs(c) > 0.5)
        dominant = [w for w in heavy if is_dominant(datum, w, dominance_roots)]
        if not dominant:
            raise ReconstructionError(
                f"label {label}: no dominant weight in the box of --bound {bound} has a Fourier coefficient "
                "above 1/2; its K-type's weights may lie past the box"
            )
        out[label] = max(dominant, key=lambda w: (pairing(datum, w + r, w + r), w.coords2))
    return out


# ---------------------------------------------------------------------------
# end-to-end pipeline

class RecoveryReport(NamedTuple):
    labels: tuple[Weight, ...]
    dims: Dims
    reference_label: Weight
    highest_weights: dict
    noncompact_weights: frozenset
    noncompact_residual: float
    spin_power: int


def run_reconstruction(
    spec: RealFormSpec,
    keys: Sequence[GeneratorKey],
    axis_count: int | None = None,
    weight_bound: int | None = None,
    candidate_bound: int = 3,
) -> RecoveryReport:
    """synth -> reference and noncompact weights -> characters -> dims ->
    highest weights.  The default weight bound is the largest the axis count n
    resolves, at most 6: min(6, (n - 1) // 2), which is 6 up to rank 4 at the
    default n.  Refused before any synthesis: a negative weight or candidate
    bound, a frequency box the grid cannot resolve, and a lattice of more than
    MAX_LATTICE_POINTS points.  Refused after the read: a highest weight whose
    Weyl dimension (``rootsys.weyl_dim`` over the compact roots) is not its
    label's recovered dimension, as when the K-type's weights reach past the
    box and the largest one inside it is read."""
    if weight_bound is not None and weight_bound < 0:
        raise ValidationError("the weight bound must be nonnegative")
    if candidate_bound < 0:
        raise ValidationError("the candidate bound must be nonnegative")
    n = default_axis_count(spec.rank, axis_count)
    if weight_bound is None:
        weight_bound = min(6, (n - 1) // 2)
    _check_box(n, weight_bound)
    if n**spec.rank > MAX_LATTICE_POINTS:
        raise ValidationError(f"a lattice of {n}^{spec.rank} points exceeds the cap of {MAX_LATTICE_POINTS}")
    family = synth_family(spec, keys, axis_count)
    # 1/chi is read on windows of at most 2n doubled frequencies, and no binomial
    # of a beta wider than that divides it: the candidate box stops at n - 1
    nc = recover_noncompact_weights(family, candidate_box(spec.rank, min(candidate_bound, n - 1)))
    chars = recover_characters(family, nc.reference_label)
    dims = recover_dims(family, chars)
    highest = recover_highest_weights(
        family, chars, weight_bound, spec.datum, spec.compact_positive
    )
    for label, weight in highest.items():
        if (dim := weyl_dim(spec.datum, weight, spec.compact_positive)) != dims[label]:
            raise ReconstructionError(
                f"label {label}: the highest weight {weight} read in the box of --bound {weight_bound} has "
                f"dimension {dim}, not the recovered {dims[label]}; its K-type's weights may reach past the box"
            )
    return RecoveryReport(
        labels=family.labels,
        dims=dims,
        reference_label=nc.reference_label,
        highest_weights=highest,
        noncompact_weights=nc.weights,
        noncompact_residual=nc.residual,
        spin_power=nc.spin_power,
    )
