"""Finite root systems, Weyl groups, inner products, dimensions and weight multiplicities.

All lattice arithmetic is exact.  Weights are stored as doubled integer
coordinates (``coords2 = 2*lambda`` in the fundamental-weight basis) so that
half-sums of roots and half-roots stay in the lattice.  The invariant form is
kept in integers: ``integer_form`` is the symmetrized pairing matrix D A^{-1}
over one common denominator s, an integer matrix M with
4s (lambda, mu) = lambda2^T M mu2, cached per datum.  Sign tests (dominance,
regularity) and ratios of pairings (coroot coordinates, heights, dimension
products) read these integers (``integer_pairings``) and build at most one
Fraction at the end; ``pairing`` is one of them over 4s.  Freudenthal's
weight multiplicities are integers throughout.

Weyl groups and weight orbits come from one breadth-first walk,
``reflection_orbit``: W (and W_K) is the walk of the regular vector
(1, ..., 1), each element's matrix built from its parent's, and the orbits
that tau and the stable integral sum over are walks of the weight itself.
Group orders and the number of elements of each length come from product
formulas over the heights of the positive coroots (``weyl_order``,
``poincare_polynomial``), which walk no group.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError

IntMatrix = tuple[tuple[int, ...], ...]


class _Frozen:
    """Base of the small immutable records: each subclass lists its fields in
    ``__slots__``, in the order of its ``__init__`` parameters, and sets them
    once, through ``_set``.  Equality, hash and repr are those of a frozen
    dataclass: equal only to the same class, hashed like the field tuple."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


_set = object.__setattr__


# ---------------------------------------------------------------------------
# small exact linear algebra (rank <= 6, so dense Fractions are plenty)

def _identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matvec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def _det_fraction(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    # Gaussian elimination with exact pivots.
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def _invert_fraction(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    m = [list(r) for r in rows]
    n = len(m)
    aug = [m[i] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValidationError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def integer_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix, returned with int entries."""
    inv = _invert_fraction([[Fraction(x) for x in row] for row in a])
    out = []
    for row in inv:
        ints = []
        for x in row:
            if x.denominator != 1:
                raise ValidationError("matrix inverse is not integral")
            ints.append(int(x))
        out.append(tuple(ints))
    return tuple(out)


# ---------------------------------------------------------------------------
# weights

class Weight(_Frozen):
    """Element of the half-weight lattice: ``coords2`` equals 2*lambda in
    fundamental-weight coordinates, so every entry is an exact integer.

    Immutable and hashed like the tuple ``(coords2,)``; equal only to another
    Weight, never to a plain tuple."""

    __slots__ = ("coords2",)
    coords2: tuple[int, ...]

    def __init__(self, coords2: Iterable[int]):
        _set(self, "coords2", tuple(map(int, coords2)))

    # the generic _Frozen methods, specialised: weights are dictionary keys in hot loops
    def __eq__(self, other):
        if other.__class__ is Weight:
            return self.coords2 == other.coords2
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords2,))

    @property
    def rank(self) -> int:
        return len(self.coords2)

    @property
    def is_integral(self) -> bool:
        return all(c % 2 == 0 for c in self.coords2)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords2)

    def fundamental(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, 2) for c in self.coords2)

    def halved(self) -> "Weight":
        if not self.is_integral:
            raise ValidationError(f"cannot halve non-integral weight {self}")
        return Weight(tuple(c // 2 for c in self.coords2))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords2, other.coords2)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords2, other.coords2)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords2))

    def __mul__(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coords2))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "(" + ", ".join(str(f) for f in self.fundamental()) + ")"


_NUMBER = re.compile(r"[-+]?(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?\d+))?)")  # Fraction's syntax


def parse_rational(token: str) -> Fraction:
    """A number token, "p/q" or a decimal such as "0.37" or "1e-3", taken
    exactly: "0.1" is 1/10.  A token whose numerator or denominator, as written,
    has more digits than the interpreter's int-to-str limit (4300 by default)
    is refused before any integer is built: "1e100000000" costs no time."""
    match = _NUMBER.fullmatch(token.strip())
    if match is None:
        raise ValidationError(f"{token!r} is not a rational number")
    num, denom, decimal, exp = (part or "" for part in match.groups())
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    shift = int(exp or 0) - len(decimal) if len(exp) <= limit else limit + 1  # the value is int(num + decimal) * 10**shift
    if max(len(num + decimal) + max(shift, 0), 1 - min(shift, 0), len(denom)) > limit:
        raise ValidationError(f"number {token[:40]} has more than {limit} digits in its numerator or denominator")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValidationError(f"{token!r} has a zero denominator") from None


def weight_from_fundamental(coords: Iterable) -> Weight:
    """Build a Weight from fundamental coordinates: numbers or number tokens
    (``parse_rational``)."""
    doubled = []
    for c in coords:
        f = parse_rational(str(c)) * 2
        if f.denominator != 1:
            raise ValidationError(f"coordinate {c} is not in the half-weight lattice")
        doubled.append(int(f))
    return Weight(tuple(doubled))


def zero_weight(rank: int) -> Weight:
    return Weight((0,) * rank)


# ---------------------------------------------------------------------------
# Cartan data

class _HashedOnce:
    """Mixin, listed first, for the NamedTuple records that key caches
    (``CartanDatum``, ``realform.RealFormSpec``): the field tuple is hashed on
    the first lookup and the hash kept on the instance; equality stays the
    tuple's.  A pickle carries only the fields, as str hashes differ between
    processes."""

    __slots__ = ()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = value = tuple.__hash__(self)
            return value

    def __reduce__(self):
        return type(self), tuple(self)


class _CartanFields(NamedTuple):
    rank: int
    cartan: IntMatrix
    symmetrizer: tuple[Fraction, ...]
    name: str | None = None


class CartanDatum(_HashedOnce, _CartanFields):
    """Finite-type Cartan matrix with a symmetrizer d (d_i A_ij symmetric)."""


_SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "G": 2, "F": 4}
# desk scale: a tau value sums one term per element of the W_K orbit, 46080 for compact B6/C6
_MAX_RANK = 6


def _series_matrix(series: str, n: int) -> tuple[list[list[int]], list[Fraction]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series == "A":
        for i in range(n - 1):
            link(i, i + 1)
        d = [Fraction(1)] * n
    elif series == "B":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)  # last simple root short
        d = [Fraction(2)] * (n - 1) + [Fraction(1)]
    elif series == "C":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)  # last simple root long
        d = [Fraction(1)] * (n - 1) + [Fraction(2)]
    elif series == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
        d = [Fraction(1)] * n
    elif series == "G":
        link(0, 1, -3, -1)
        d = [Fraction(1), Fraction(3)]
    elif series == "F":
        link(0, 1)
        link(1, 2, -1, -2)
        link(2, 3)
        d = [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]
    else:  # pragma: no cover - guarded by caller
        raise ValidationError(f"unknown series {series}")
    return a, d


def validate_cartan(matrix: Sequence[Sequence[int]], d: Sequence[Fraction]) -> None:
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValidationError("Cartan matrix must be square and nonempty")
    if len(d) != n:
        raise ValidationError("symmetrizer length must equal the rank")
    if any(x <= 0 for x in d):
        raise ValidationError("symmetrizer entries must be positive")
    for i in range(n):
        if matrix[i][i] != 2:
            raise ValidationError("Cartan diagonal entries must equal 2")
        for j in range(n):
            if i == j:
                continue
            if matrix[i][j] > 0:
                raise ValidationError("off-diagonal Cartan entries must be <= 0")
            if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                raise ValidationError("Cartan support must be symmetric (A_ij = 0 iff A_ji = 0)")
            if d[i] * matrix[i][j] != d[j] * matrix[j][i]:
                raise ValidationError(f"symmetrizer does not symmetrize entry ({i},{j})")
    # finite type: leading principal minors of the symmetrized matrix are positive
    sym = [[d[i] * matrix[i][j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        minor = _det_fraction([row[:k] for row in sym[:k]])
        if minor <= 0:
            raise ValidationError(f"not finite type: leading principal minor {k} is {minor}")


def build_datum(spec, symmetrizer=None) -> CartanDatum:
    """Cartan datum from a type name ("A1".."G2","F4") or explicit matrix + symmetrizer."""
    if isinstance(spec, str):
        name = spec.strip().upper()
        if len(name) < 2 or name[0] not in _SERIES_MIN_RANK or not name[1:].isdigit():
            raise ValidationError(f"unknown Cartan type {spec!r}")
        series, n = name[0], int(name[1:])
        if n < _SERIES_MIN_RANK[series]:
            raise ValidationError(f"rank {n} too small for series {series}")
        if series in ("G", "F") and n != _SERIES_MIN_RANK[series]:
            raise ValidationError(f"series {series} exists only at rank {_SERIES_MIN_RANK[series]}")
        if n > _MAX_RANK:
            raise ValidationError(f"rank {n} exceeds the desk-scale cap {_MAX_RANK}")
        matrix, d = _series_matrix(series, n)
        validate_cartan(matrix, d)
        return CartanDatum(n, tuple(tuple(row) for row in matrix), tuple(d), name)
    try:
        matrix = [list(int(x) for x in row) for row in spec]
    except (ValueError, TypeError):
        raise ValidationError("Cartan matrix entries must be integers") from None
    if symmetrizer is None:
        raise ValidationError("explicit Cartan matrices require a symmetrizer")
    if len(matrix) > _MAX_RANK:
        raise ValidationError(f"rank {len(matrix)} exceeds the desk-scale cap {_MAX_RANK}")
    d = tuple(parse_rational(str(x)) for x in symmetrizer)
    validate_cartan(matrix, d)
    return CartanDatum(len(matrix), tuple(tuple(row) for row in matrix), d, None)


# ---------------------------------------------------------------------------
# Weyl group

class WeylElement(NamedTuple):
    """Weyl group element as an integer matrix acting on coords2."""

    matrix: IntMatrix
    sign: int
    length: int

    def apply(self, w: Weight) -> Weight:
        return Weight(_matvec(self.matrix, w.coords2))


class WeylGroup(_Frozen):
    """The elements of a Weyl group, identity first."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[WeylElement, ...]):
        _set(self, "elements", elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def identity(self) -> WeylElement:
        return self.elements[0]


# A reflection s = I - a c^T on coords2, stored as the pair (a, c): a is the
# root in fundamental coordinates and c_j = <omega_j, alpha^vee>, so that
# s(lambda) = lambda - <lambda, alpha^vee> alpha.
Reflection = tuple[tuple[int, ...], tuple[int, ...]]


def _simple_reflection(datum: CartanDatum, i: int) -> Reflection:
    # s_i(lambda)_k = lambda_k - A_ki * lambda_i  (column i of the Cartan matrix)
    n = datum.rank
    return tuple(datum.cartan[k][i] for k in range(n)), tuple(int(k == i) for k in range(n))


def sparse_reflections(gens: Sequence[Reflection]) -> tuple:
    """Each reflection (a, c) as sparse tuples of (index, entry) of a and of c."""
    return tuple(
        (tuple((j, x) for j, x in enumerate(a) if x), tuple((j, x) for j, x in enumerate(c) if x))
        for a, c in gens
    )


@functools.lru_cache(maxsize=None)
def simple_steps(datum: CartanDatum) -> tuple:
    """The simple reflections in index order, in the sparse form of ``sparse_reflections``."""
    return sparse_reflections([_simple_reflection(datum, i) for i in range(datum.rank)])


def reflection_orbit(steps: Sequence, start: tuple[int, ...],
                     free: bool = True) -> tuple[list, list, list, list] | None:
    """Breadth-first walk of ``start`` (coords2) under the sparse reflections
    ``steps``: (images, parent, step, depth), four lists in discovery order,
    where image i > 0 is steps[step[i]] applied to image parent[i] and lies
    depth[i] reflections from image 0.  None as soon as a reflection fixes an
    image; otherwise the group acts freely on the orbit, so image i is w(start)
    for exactly one w, and depth[i] is the word length of w in the steps.
    With ``free`` false a reflection that fixes an image is skipped instead,
    and the walk lists the whole orbit of a weight on a wall."""
    images, parent, step, depth = [start], [-1], [-1], [0]
    seen = {start}
    indexed = [(s, a_terms, c_terms) for s, (a_terms, c_terms) in enumerate(steps)]
    for i, v in enumerate(images):  # images grows behind the loop: a breadth-first queue
        d = depth[i] + 1
        for s, a_terms, c_terms in indexed:
            k = 0
            for j, cj in c_terms:
                k += cj * v[j]
            if k == 0:
                if free:
                    return None
                continue
            image = list(v)
            for j, aj in a_terms:
                image[j] -= k * aj
            image = tuple(image)
            if image not in seen:
                seen.add(image)
                images.append(image)
                parent.append(i)
                step.append(s)
                depth.append(d)
    return images, parent, step, depth


def _reflection_group(rank: int, steps: Sequence) -> WeylGroup:
    """The group the sparse reflections generate, in the order of the walk of
    the regular vector (1, ..., 1): identity first, each element with its word
    length and the sign (-1)^length, as every generator has determinant -1.
    An element's matrix is its parent's after the rank-one update
    s.M = M - a (c^T M), which rewrites the rows where a is nonzero."""
    _, parents, links, depths = reflection_orbit(steps, (1,) * rank)
    matrices = [_identity(rank)]
    for parent, link in zip(parents[1:], links[1:]):
        m = matrices[parent]
        a_terms, c_terms = steps[link]
        row = [0] * rank
        for j, cj in c_terms:
            row = [x + cj * y for x, y in zip(row, m[j])]
        prod = list(m)
        for j, aj in a_terms:
            prod[j] = tuple(x - aj * y for x, y in zip(m[j], row))
        matrices.append(tuple(prod))
    return WeylGroup(tuple(WeylElement(m, -1 if d & 1 else 1, d) for m, d in zip(matrices, depths)))


@functools.lru_cache(maxsize=None)
def weyl_group(datum: CartanDatum) -> WeylGroup:
    """The Weyl group, generated by the simple reflections in index order."""
    return _reflection_group(datum.rank, simple_steps(datum))


def _coroot_heights(datum: CartanDatum, positive: Sequence[Weight]) -> list[int]:
    """h = <rho_R, alpha^vee> per alpha in ``positive``, the height of alpha^vee
    in the dual system: with k and n the integers of (rho_R, alpha) and
    (alpha, alpha), h = 2k/n."""
    heights = []
    for alpha, k in zip(positive, integer_pairings(datum, rho(positive, datum.rank), positive)):
        (n,) = integer_pairings(datum, alpha, (alpha,))
        heights.append(2 * k // n)
    return heights


def weyl_order(datum: CartanDatum, positive: Sequence[Weight] | None = None) -> int:
    """|W(R)| for the root system R with positive part ``positive`` (default
    R^+), exactly and building no element: the product over alpha in R^+ of
    (h + 1) / h, h the height of the coroot (Macdonald, The Poincare series of
    a Coxeter group, 1972).  Over a closed subsystem it is the order of the
    group its reflections generate."""
    heights = _coroot_heights(datum, positive_roots(datum) if positive is None else positive)
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def poincare_polynomial(datum: CartanDatum) -> list[int]:
    """The number of elements of W of each length, building no element: the
    Poincare polynomial prod_i (1 + x + ... + x^{e_i}) over the exponents
    e_i, the partition dual to the number of positive roots of each height
    (Kostant, 1959).  The coroots have the same exponents, so their heights
    serve."""
    heights = _coroot_heights(datum, positive_roots(datum))
    counts = [heights.count(h) for h in range(1, max(heights) + 1)]
    coefficients = [1]
    for j in range(1, counts[0] + 1):
        exponent = sum(1 for c in counts if c >= j)
        coefficients = [sum(coefficients[max(0, i - exponent):i + 1])
                        for i in range(len(coefficients) + exponent)]
    return coefficients


def reflection(datum: CartanDatum, alpha: Weight) -> Reflection:
    """The reflection s_alpha on coords2 as the pair (a, c) with s_alpha = I - a c^T:
    a is alpha in fundamental coordinates, c_j = <omega_j, alpha^vee>."""
    v = _form_covector(datum, alpha)  # v_j = 2s (omega_j, alpha), as omega_j has coords2 2e_j
    norm = sum(map(mul, alpha.coords2, v))  # 4s (alpha, alpha)
    if norm == 0:
        raise ValidationError("cannot reflect in a null vector")
    # <omega_j, alpha^vee> = 2 (omega_j, alpha) / (alpha, alpha) = 4 v_j / norm
    coroot = []
    for x in v:
        cj, rest = divmod(4 * x, norm)
        if rest:
            raise ValidationError("coroot pairing is not integral")
        coroot.append(cj)
    return alpha.halved().coords2, tuple(coroot)


# ---------------------------------------------------------------------------
# roots

@functools.lru_cache(maxsize=None)
def positive_roots(datum: CartanDatum) -> tuple[Weight, ...]:
    """Positive roots in height order, simple roots in index order.  In root
    coordinates they are the closure of the simple roots under the positive
    images s_i(beta) = beta - <beta, alpha_i^vee> alpha_i: every positive root
    that is not simple is s_i of a lower one."""
    n, a = datum.rank, datum.cartan
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, frontier = set(simple), simple
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                k = sum(b * aij for b, aij in zip(beta, a[i]))  # <beta, alpha_i^vee>
                image = beta[:i] + (beta[i] - k,) + beta[i + 1:]
                if k < 0 and image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    ordered = sorted(roots, key=lambda c: (sum(c), tuple(-x for x in c)))
    return tuple(Weight(2 * sum(c[j] * a[k][j] for j in range(n)) for k in range(n)) for c in ordered)


@functools.lru_cache(maxsize=None)
def all_roots(datum: CartanDatum) -> tuple[Weight, ...]:
    pos = positive_roots(datum)
    return pos + tuple(-r for r in pos)


def rho(roots: Iterable[Weight], rank: int | None = None) -> Weight:
    """Half-sum of the given roots, exact in coords2; the empty subset gives 0
    when the rank is supplied."""
    roots = list(roots)
    if not roots:
        if rank is None:
            raise ValidationError("rho of an empty subset needs an explicit rank")
        return zero_weight(rank)
    total = roots[0]
    for r in roots[1:]:
        total = total + r
    return total.halved()


# ---------------------------------------------------------------------------
# the invariant form

@functools.lru_cache(maxsize=None)
def integer_form(datum: CartanDatum) -> tuple[IntMatrix, int]:
    """The invariant form in integers: (M, s) with 4s (lambda, mu) = lambda2^T M mu2
    on doubled coordinates.  In fundamental coordinates (lambda, mu) =
    lambda^T D A^{-1} mu, symmetric as D A is; s is the least common
    denominator of D A^{-1} and M = s D A^{-1}."""
    ainv = _invert_fraction([[Fraction(x) for x in row] for row in datum.cartan])
    n = datum.rank
    sym = [[datum.symmetrizer[i] * ainv[i][j] for j in range(n)] for i in range(n)]
    s = math.lcm(*(x.denominator for row in sym for x in row))
    return tuple(tuple(int(x * s) for x in row) for row in sym), s


def _form_covector(datum: CartanDatum, lam: Weight) -> list[int]:
    """M lam2, so that 4s (lam, mu) = mu2 . (M lam2) (M is symmetric)."""
    x = lam.coords2
    return [sum(map(mul, row, x)) for row in integer_form(datum)[0]]


def integer_pairings(datum: CartanDatum, lam: Weight, others: Iterable[Weight]) -> list[int]:
    """4s (lam, mu) for each mu in ``others``, s of ``integer_form``: the
    integers that every sign test and every ratio of pairings reads."""
    v = _form_covector(datum, lam)
    return [sum(map(mul, mu.coords2, v)) for mu in others]


def pairing(datum: CartanDatum, a: Weight, b: Weight) -> Fraction:
    """The symmetric invariant form, exact: one integer of ``integer_pairings`` over 4s."""
    (value,) = integer_pairings(datum, a, (b,))
    return Fraction(value, 4 * integer_form(datum)[1])


def is_dominant(datum: CartanDatum, lam: Weight, pos: Sequence[Weight]) -> bool:
    return all(k >= 0 for k in integer_pairings(datum, lam, pos))


def dimension_ratio(datum: CartanDatum, big_lambda: Weight, pos: Sequence[Weight]) -> Fraction:
    """prod (Lambda, alpha) / (rho, alpha) over ``pos`` (rho its half-sum),
    exactly: both products have one factor per root, so the scale 4s cancels
    and the ratio is one Fraction of two integer products."""
    num = math.prod(integer_pairings(datum, big_lambda, pos))
    return Fraction(num, math.prod(integer_pairings(datum, rho(pos, datum.rank), pos)))


# ---------------------------------------------------------------------------
# characters

def weyl_dim(datum: CartanDatum, lam: Weight, pos: Sequence[Weight] | None = None) -> Fraction:
    """Dimension product prod <lam+rho, alpha> / <rho, alpha> over the positive roots."""
    pos = positive_roots(datum) if pos is None else tuple(pos)
    if not is_dominant(datum, lam, pos):
        raise ValidationError(f"weight {lam} is not dominant for the given positive system")
    return dimension_ratio(datum, lam + rho(pos, datum.rank), pos)


def _subsystem_simples(pos: Sequence[Weight]) -> tuple[Weight, ...]:
    """The roots of the positive system ``pos`` that are not the sum of two
    of its roots, in the order of ``pos``; compared as coordinate tuples, as
    the test is quadratic in |pos|."""
    coords = {alpha.coords2 for alpha in pos}
    return tuple(
        alpha for alpha in pos
        if not any(tuple(map(sub, alpha.coords2, beta)) in coords for beta in coords)
    )


def weight_multiplicities(
    datum: CartanDatum, lam: Weight, pos: Sequence[Weight] | None = None
) -> dict[Weight, int]:
    """The weights of the irreducible module with highest weight lam, for the
    root system with positive part ``pos`` (default R^+), with their
    multiplicities: lam first, then by depth below lam (the number of simple
    roots in lam - mu), each depth in coordinate order.

    Freudenthal's formula (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 22.3) in the integers of ``integer_form``: with
    P = 4s ( , ),
    (P(lam+rho, lam+rho) - P(mu+rho, mu+rho)) m(mu)
        = 2 sum_{alpha in pos} sum_{k >= 1} m(mu + k alpha) P(mu + k alpha, alpha),
    where P(mu + k alpha, alpha) = P(mu, alpha) + k P(alpha, alpha) is one dot
    product with alpha's covector M alpha2, read once per root.  It runs on
    the dominant weights only (Moody and Patera, Fast recursion formula for
    weight multiplicities, 1982), each m(mu + k alpha) read at the dominant
    weight of its orbit, and each dominant weight's multiplicity is then
    spread over its orbit.  Every dominant weight below lam is reached from
    lam through dominant weights that differ by positive roots (Stembridge,
    The partial order of dominant weights, 1998).  The weights stay doubled,
    so lam need only be integral for ``pos``: the K-type of a spin-descent
    form may be half-integral in the coordinates of G.
    """
    pos = positive_roots(datum) if pos is None else tuple(pos)
    if not is_dominant(datum, lam, pos):
        raise ValidationError(f"{lam} is not dominant")
    if not pos:
        return {lam: 1}
    matrix = integer_form(datum)[0]
    covectors = {alpha.coords2: _form_covector(datum, alpha) for alpha in pos}
    roots = [(alpha2, v, sum(map(mul, alpha2, v))) for alpha2, v in covectors.items()]  # P(alpha, alpha) last
    simples = _subsystem_simples(pos)
    lam2 = lam.coords2
    for beta in simples:  # <lam, beta^vee> = 2 P(lam, beta) / P(beta, beta) is an integer
        v = covectors[beta.coords2]
        if 2 * sum(map(mul, lam2, v)) % sum(map(mul, beta.coords2, v)):
            raise ValidationError(f"{lam} is not an integral weight")
    rho2 = rho(pos).coords2
    steps = sparse_reflections([reflection(datum, beta) for beta in simples])
    # mu2 . depth_covector is L <mu, rho^vee>, and <beta, rho^vee> = 1 for each simple beta
    scale = math.lcm(*(norm for _, _, norm in roots))
    depth_covector = [sum(scale // norm * v[j] for _, v, norm in roots) for j in range(len(lam2))]

    def order(mu: tuple[int, ...]) -> tuple:  # by depth below lam, then coordinates
        return -sum(map(mul, mu, depth_covector)), mu

    def level(mu: tuple[int, ...]) -> int:  # P(mu + rho, mu + rho)
        x = tuple(map(add, mu, rho2))
        return sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, matrix))

    representatives: dict[tuple[int, ...], tuple[int, ...]] = {}

    def dominant(mu: tuple[int, ...]) -> tuple[int, ...]:  # of mu's orbit, by simple reflections
        if mu not in representatives:
            nu = mu
            while True:
                for a_terms, c_terms in steps:
                    k = sum(cj * nu[j] for j, cj in c_terms)
                    if k < 0:
                        image = list(nu)
                        for j, aj in a_terms:
                            image[j] -= k * aj
                        nu = tuple(image)
                        break
                else:
                    break
            representatives[mu] = nu
        return representatives[mu]

    below, seen = [lam2], {lam2}
    for mu in below:  # grows behind the loop
        for alpha, _, _ in roots:
            nu = tuple(map(sub, mu, alpha))
            if nu not in seen and dominant(nu) == nu:
                seen.add(nu)
                below.append(nu)
    top = level(lam2)
    mult = {lam2: 1}
    # by depth: the dominant weight of each mu + k alpha lies above mu, so it is done
    for mu in sorted(below[1:], key=order):
        acc = 0
        for alpha, v, norm in roots:
            p = sum(map(mul, mu, v))
            above = tuple(map(add, mu, alpha))
            m = mult.get(dominant(above))
            while m is not None:  # root strings are unbroken
                p += norm
                acc += m * p
                above = tuple(map(add, above, alpha))
                m = mult.get(dominant(above))
        denom = top - level(mu)
        if denom <= 0:
            raise ValidationError("Freudenthal recursion left the weight polytope")
        m, rest = divmod(2 * acc, denom)
        if rest or m < 1:  # every dominant weight below lam is a weight
            raise ValidationError(f"multiplicity {2 * acc}/{denom} is not a positive integer; inconsistent input")
        mult[mu] = m
    table = [(image, m) for mu, m in mult.items() for image in reflection_orbit(steps, mu, free=False)[0]]
    table.sort(key=lambda item: order(item[0]))
    return {Weight(mu): m for mu, m in table}
