"""Finite root systems, Weyl groups, inner products, and brute-force character oracles.

All lattice arithmetic is exact.  Weights are stored as doubled integer
coordinates (``coords2 = 2*lambda`` in the fundamental-weight basis) so that
half-sums of roots and half-roots stay in the lattice; pairings are Fractions
built from the symmetrized Cartan matrix.

Weyl groups and weight orbits come from one breadth-first walk,
``reflection_orbit``: W (and W_K) is the walk of the regular vector
(1, ..., 1), each element's matrix built from its parent's, and the orbits
that tau and the stable integral sum over are walks of the weight itself.
"""

from __future__ import annotations

import functools
from fractions import Fraction
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


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


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
        _set(self, "coords2", tuple(int(c) for c in coords2))

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


def weight_from_fundamental(coords: Iterable) -> Weight:
    """Build a Weight from fundamental coordinates (ints, Fractions, or 'p/q' strings)."""
    doubled = []
    for c in coords:
        try:
            f = Fraction(c) * 2
        except (ValueError, TypeError, ZeroDivisionError):
            raise ValidationError(f"coordinate {c!r} is not a rational number") from None
        if f.denominator != 1:
            raise ValidationError(f"coordinate {c} is not in the half-weight lattice")
        doubled.append(int(f))
    return Weight(tuple(doubled))


def zero_weight(rank: int) -> Weight:
    return Weight((0,) * rank)


# ---------------------------------------------------------------------------
# Cartan data

class CartanDatum(NamedTuple):
    """Finite-type Cartan matrix with a symmetrizer d (d_i A_ij symmetric)."""

    rank: int
    cartan: IntMatrix
    symmetrizer: tuple[Fraction, ...]
    name: str | None = None


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


def validate_cartan(matrix: Sequence[Sequence[int]], symmetrizer: Sequence) -> None:
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValidationError("Cartan matrix must be square and nonempty")
    try:
        d = [Fraction(x) for x in symmetrizer]
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValidationError(f"symmetrizer entries must be rational numbers: {symmetrizer!r}") from None
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
    validate_cartan(matrix, symmetrizer)
    d = tuple(Fraction(x) for x in symmetrizer)
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


def _reflect(refl: Reflection, v: Sequence[int]) -> tuple[int, ...]:
    a, c = refl
    k = sum(cj * vj for cj, vj in zip(c, v))
    return tuple(vj - k * aj for vj, aj in zip(v, a))


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


def reflection_orbit(steps: Sequence, start: tuple[int, ...]) -> tuple[list, list, list, list] | None:
    """Breadth-first walk of ``start`` (coords2) under the sparse reflections
    ``steps``: (images, parent, step, depth), four lists in discovery order,
    where image i > 0 is steps[step[i]] applied to image parent[i] and lies
    depth[i] reflections from image 0.  None as soon as a reflection fixes an
    image; otherwise the group acts freely on the orbit, so image i is w(start)
    for exactly one w, and depth[i] is the word length of w in the steps."""
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
                return None
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


def weyl_order(datum: CartanDatum) -> int:
    """|W| from the walk of the regular vector (1, ..., 1), building no matrix."""
    return len(reflection_orbit(simple_steps(datum), (1,) * datum.rank)[0])


def reflection_subgroup(datum: CartanDatum, roots: Sequence[Weight]) -> WeylGroup:
    """Subgroup generated by the reflections in all the given roots.

    Any list of roots is accepted and every one of its reflections is a
    generator, so element lengths are word lengths in those generators.  The
    simple roots of a list generate the right group only when the list is the
    positive part of a closed root subsystem; callers that have one (as
    ``realform.weyl_k`` does) pass its simple roots to shorten the closure."""
    return _reflection_group(datum.rank, sparse_reflections([reflection(datum, alpha) for alpha in roots]))


def reflection(datum: CartanDatum, alpha: Weight) -> Reflection:
    """The reflection s_alpha on coords2 as the pair (a, c) with s_alpha = I - a c^T:
    a is alpha in fundamental coordinates, c_j = <omega_j, alpha^vee>."""
    n = datum.rank
    norm = pairing(datum, alpha, alpha)
    if norm == 0:
        raise ValidationError("cannot reflect in a null vector")
    # <omega_j, alpha^vee> = 2 (omega_j, alpha) / (alpha, alpha)
    basis = [Weight(tuple(2 if k == j else 0 for k in range(n))) for j in range(n)]
    coroot = []
    for w in basis:
        cj = 2 * pairing(datum, w, alpha) / norm
        if cj.denominator != 1:
            raise ValidationError("coroot pairing is not integral")
        coroot.append(int(cj))
    return alpha.halved().coords2, tuple(coroot)


# ---------------------------------------------------------------------------
# roots

@functools.lru_cache(maxsize=None)
def positive_roots(datum: CartanDatum) -> tuple[Weight, ...]:
    """Positive roots in height order, generated by reflection closure of the simple roots."""
    n = datum.rank
    simple = [Weight(tuple(2 * datum.cartan[k][i] for k in range(n))) for i in range(n)]
    gens = [_simple_reflection(datum, i) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for g in gens:
                img = Weight(_reflect(g, r.coords2))
                if img not in roots and -img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    # positivity and height from exact root coordinates
    ainv = _invert_fraction([[Fraction(x) for x in row] for row in datum.cartan])
    decorated = {}
    for r in roots:
        fund = r.halved().coords2
        coeffs = [sum(ainv[i][j] * fund[j] for j in range(n)) for i in range(n)]
        if any(c.denominator != 1 for c in coeffs):
            raise ValidationError("root with non-integral root coordinates")
        coeffs = [int(c) for c in coeffs]
        if all(c <= 0 for c in coeffs):
            r, coeffs = -r, [-c for c in coeffs]
        elif not all(c >= 0 for c in coeffs):
            raise ValidationError("root with mixed-sign root coordinates")
        decorated[r] = (sum(coeffs), tuple(-c for c in coeffs))
    # height order, simple roots in index order
    ordered = sorted(decorated.items(), key=lambda kv: kv[1])
    return tuple(r for r, _ in ordered)


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
# pairing

@functools.lru_cache(maxsize=None)
def _pairing_matrix(datum: CartanDatum) -> tuple[tuple[Fraction, ...], ...]:
    # (lambda, mu) = lambda^T D A^{-1} mu in fundamental coordinates
    ainv = _invert_fraction([[Fraction(x) for x in row] for row in datum.cartan])
    n = datum.rank
    return tuple(
        tuple(datum.symmetrizer[i] * ainv[i][j] for j in range(n)) for i in range(n)
    )


def pairing(datum: CartanDatum, a: Weight, b: Weight) -> Fraction:
    """Symmetric bilinear form from the symmetrized Cartan matrix, exact."""
    mat = _pairing_matrix(datum)
    total = Fraction(0)
    for i, ai in enumerate(a.coords2):
        if ai == 0:
            continue
        row = mat[i]
        total += ai * sum(row[j] * bj for j, bj in enumerate(b.coords2) if bj != 0)
    return total / 4


def is_dominant(datum: CartanDatum, lam: Weight, pos: Sequence[Weight]) -> bool:
    return all(pairing(datum, lam, alpha) >= 0 for alpha in pos)


def inversion_count(datum: CartanDatum, w: WeylElement) -> int:
    pos = set(positive_roots(datum))
    return sum(1 for alpha in pos if w.apply(alpha) not in pos)


# ---------------------------------------------------------------------------
# character oracles

def weyl_dim(datum: CartanDatum, lam: Weight, pos: Sequence[Weight] | None = None) -> Fraction:
    """Dimension product prod <lam+rho, alpha> / <rho, alpha> over the positive roots."""
    pos = positive_roots(datum) if pos is None else tuple(pos)
    if not is_dominant(datum, lam, pos):
        raise ValidationError(f"weight {lam} is not dominant for the given positive system")
    if not pos:
        return Fraction(1)
    r = rho(pos)
    num = Fraction(1)
    den = Fraction(1)
    shifted = lam + r
    for alpha in pos:
        num *= pairing(datum, shifted, alpha)
        den *= pairing(datum, r, alpha)
    return num / den


def _subsystem_simples(pos: Sequence[Weight]) -> tuple[Weight, ...]:
    pos_set = set(pos)
    simples = []
    for alpha in pos:
        if not any((alpha - beta) in pos_set for beta in pos if beta != alpha):
            simples.append(alpha)
    return tuple(simples)


def weight_multiplicities(
    datum: CartanDatum, lam: Weight, pos: Sequence[Weight] | None = None
) -> dict[Weight, int]:
    """Full weight-multiplicity table of the irreducible module with highest weight lam.

    Freudenthal recursion, level by level; exact rational arithmetic throughout.
    Serves as the brute-force counterpart to closed-form character quotients.
    """
    pos = positive_roots(datum) if pos is None else tuple(pos)
    if not is_dominant(datum, lam, pos):
        raise ValidationError(f"{lam} is not dominant")
    if not lam.is_integral:
        raise ValidationError(f"{lam} is not an integral weight")
    if not pos:
        return {lam: 1}
    simples = _subsystem_simples(pos)
    r = rho(pos)
    top = pairing(datum, lam + r, lam + r)
    mult: dict[Weight, int] = {lam: 1}
    frontier = [lam]
    for _ in range(100000):
        if not frontier:
            break
        candidates = sorted(
            {mu - s for mu in frontier for s in simples}, key=lambda w: w.coords2
        )
        frontier = []
        for mu in candidates:
            if mu in mult:
                continue
            acc = Fraction(0)
            for alpha in pos:
                k = 1
                while True:
                    above = mult.get(mu + k * alpha)
                    if above is None:
                        break  # root strings are unbroken
                    acc += above * pairing(datum, mu + k * alpha, alpha)
                    k += 1
            if acc == 0:
                continue
            denom = top - pairing(datum, mu + r, mu + r)
            if denom <= 0:
                raise ValidationError("Freudenthal recursion left the weight polytope")
            m = 2 * acc / denom
            if m.denominator != 1:
                raise ValidationError("non-integral multiplicity; inconsistent input")
            if m > 0:
                mult[mu] = int(m)
                frontier.append(mu)
    else:  # pragma: no cover
        raise ValidationError("multiplicity recursion did not terminate")
    return mult
