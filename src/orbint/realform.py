"""Equal-rank real-form data: compact/noncompact root split, W_K, coset
representatives, generator indexing for K-theory, and Harish-Chandra parameters.
"""

from __future__ import annotations

import functools
import re
from operator import add
from typing import NamedTuple, Sequence

from .errors import ValidationError
from .jsonio import read_int
from .rootsys import (
    CartanDatum,
    Weight,
    WeylElement,
    WeylGroup,
    _HashedOnce,
    _identity,
    _reflection_group,
    _subsystem_simples,
    all_roots,
    build_datum,
    integer_pairings,
    positive_roots,
    reflection,
    rho,
    simple_steps,
    sparse_reflections,
    weyl_group,
    weyl_order,
)

# Character-lattice policies for generator keys.
#   spin_descent: lambda + rho_n integral (spinors tensored with the module descend)
#   integral:     lambda integral (spinors descend on their own / double cover chosen)
LATTICES = ("spin_descent", "integral")


class _RealFormFields(NamedTuple):
    datum: CartanDatum
    compact_positive: tuple[Weight, ...]
    noncompact_positive: tuple[Weight, ...]
    spin_sign: int
    lattice: str = "spin_descent"
    name: str | None = None


class RealFormSpec(_HashedOnce, _RealFormFields):
    """Partition of the roots into compact and noncompact, with sign calibration."""

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def dim_gk(self) -> int:
        """Dimension of G/K, i.e. the number of noncompact roots."""
        return 2 * len(self.noncompact_positive)

    @property
    def positive_system(self) -> tuple[Weight, ...]:
        return positive_roots(self.datum)

    @property
    def is_compact(self) -> bool:
        return not self.noncompact_positive


def build_real_form(
    datum: CartanDatum,
    compact_root_indices: Sequence[int],
    spin_sign: int = 1,
    lattice: str = "spin_descent",
    name: str | None = None,
) -> RealFormSpec:
    """Validated real-form spec from indices into ``all_roots(datum)``.

    The chosen set must be symmetric (closed under negation) and closed under
    addition within the root system, and the noncompact count must be even.
    """
    roots = all_roots(datum)
    try:
        if min(compact_root_indices, default=0) < 0:  # no Python-style wrap-around
            raise IndexError
        chosen = {roots[i] for i in compact_root_indices}
    except (IndexError, TypeError):
        raise ValidationError("compact root indices must index all_roots(datum)") from None
    for alpha in chosen:
        if -alpha not in chosen:
            raise ValidationError(f"compact set is not symmetric: missing {-alpha}")
    # closure on coordinate tuples, pairs in the set's order
    root_set2 = {r.coords2 for r in roots}
    chosen2 = {alpha.coords2 for alpha in chosen}
    for alpha in chosen:
        for beta in chosen:
            total = tuple(map(add, alpha.coords2, beta.coords2))
            if total in root_set2 and total not in chosen2:
                raise ValidationError(
                    f"compact set is not closed: {alpha} + {beta} leaves it"
                )
    if spin_sign not in (1, -1):
        raise ValidationError("spin_sign must be +1 or -1")
    if lattice not in LATTICES:
        raise ValidationError(f"unknown character lattice {lattice!r}")
    pos = positive_roots(datum)
    compact_pos = tuple(a for a in pos if a in chosen)
    noncompact_pos = tuple(a for a in pos if a not in chosen)
    # |R_n| = 2 * |R_n^+| is even automatically once the compact set is symmetric
    return RealFormSpec(datum, compact_pos, noncompact_pos, spin_sign, lattice, name)


_PRESET_TABLE = {
    # name: (datum, compact positive roots by height index, spin_sign, lattice)
    "sl2r": ("A1", (), -1, "spin_descent"),
    "su21": ("A2", (0,), 1, "integral"),
    "sp4r": ("C2", (0,), 1, "spin_descent"),
}


def real_form(preset: str) -> RealFormSpec:
    """Shipped presets: sl2r, su21, sp4r, and compact(X) for any Cartan type X."""
    token = preset.strip()
    match = re.fullmatch(r"compact\((\w+)\)", token, flags=re.IGNORECASE)
    if match:
        datum = build_datum(match.group(1))
        pos = positive_roots(datum)
        indices = tuple(range(2 * len(pos)))  # every root compact
        return build_real_form(datum, indices, 1, "spin_descent", f"compact({match.group(1).upper()})")
    key = token.lower()
    if key not in _PRESET_TABLE:
        raise ValidationError(f"unknown real-form preset {preset!r}")
    datum_name, pos_indices, spin_sign, lattice = _PRESET_TABLE[key]
    datum = build_datum(datum_name)
    pos = positive_roots(datum)
    # indices of the chosen positive roots together with their negatives
    indices = tuple(pos_indices) + tuple(i + len(pos) for i in pos_indices)
    return build_real_form(datum, indices, spin_sign, lattice, key)


@functools.lru_cache(maxsize=None)
def compact_steps(spec: RealFormSpec) -> tuple:
    """The reflections in the simple roots of the compact subsystem, in the
    sparse form of ``rootsys.sparse_reflections``: the generators of W_K, and
    through their coroots the chamber test of ``coset_reps``."""
    simples = _subsystem_simples(spec.compact_positive)
    return sparse_reflections([reflection(spec.datum, beta) for beta in simples])


@functools.lru_cache(maxsize=None)
def weyl_k(spec: RealFormSpec) -> WeylGroup:
    """W_K, the subgroup of the Weyl group generated by reflections in compact roots.

    The compact roots form a closed root subsystem, so W_K is generated by the
    reflections in its simple roots alone (``compact_steps``); element lengths
    are word lengths in those generators.  A compact form returns
    ``weyl_group(spec.datum)`` itself.
    """
    if spec.is_compact:
        return weyl_group(spec.datum)
    return _reflection_group(spec.rank, compact_steps(spec))


@functools.lru_cache(maxsize=None)
def rho_c(spec: RealFormSpec) -> Weight:
    return rho(spec.compact_positive, spec.rank)


@functools.lru_cache(maxsize=None)
def rho_n(spec: RealFormSpec) -> Weight:
    return rho(spec.noncompact_positive, spec.rank)


@functools.lru_cache(maxsize=None)
def coset_reps(spec: RealFormSpec) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of the cosets W_K \\ W_G, one per coset,
    sorted by (length, matrix), grown from e without building W_G or W_K.

    w is minimal in W_K w iff <w rho, beta^vee> > 0 for every compact simple
    root beta, i.e. w^{-1}(R_c^+) lies in R^+ (Dyer 1990; Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 2.4).  Dropping a last letter that
    shortens the word keeps this, also when W_K is not parabolic: if w = w's
    and w(alpha_s) < 0, then w'^{-1} beta = s w^{-1} beta > 0 for every beta
    in R_c^+, as w^{-1} beta > 0 is not alpha_s.  So a breadth-first walk
    from e keeps w s_i when w s_i(rho) = w(rho) - w(alpha_i) passes the test
    and is new (an element is known by its image of rho).  A step that
    shortens the word lands on a shorter representative, which the walk has
    already reached, so each new element is one letter longer than its parent.
    The matrix follows by the rank-one update M s_i = M - (M a_i) e_i^T, which
    rewrites column i.  The count times |W_K| must be |W_G|, both orders from
    ``weyl_order``'s product formula.
    """
    chamber = [c_terms for _, c_terms in compact_steps(spec)]
    start = rho(spec.positive_system).coords2
    walk, seen = [(WeylElement(_identity(spec.rank), 1, 0), start)], {start}
    for w, w_rho in walk:  # walk grows behind the loop: a breadth-first queue
        for i, (a_terms, _) in enumerate(simple_steps(spec.datum)):
            w_a = [sum(row[j] * aj for j, aj in a_terms) for row in w.matrix]  # M a_i = w(alpha_i)
            image = tuple(v - 2 * x for v, x in zip(w_rho, w_a))
            if image not in seen and all(sum(c * image[j] for j, c in terms) > 0 for terms in chamber):
                seen.add(image)
                matrix = tuple(row[:i] + (row[i] - x,) + row[i + 1:] for row, x in zip(w.matrix, w_a))
                walk.append((WeylElement(matrix, -w.sign, w.length + 1), image))
    if len(walk) * weyl_order(spec.datum, spec.compact_positive) != weyl_order(spec.datum):
        raise ValidationError("coset enumeration does not tile the Weyl group")
    return tuple(sorted((w for w, _ in walk), key=lambda e: (e.length, e.matrix)))


# ---------------------------------------------------------------------------
# generator keys and K-classes

class GeneratorKey(NamedTuple):
    """Index of a Dirac-induction generator: a dominant weight for the
    compact positive system, on the configured character lattice."""

    lam: Weight


def generator_key(spec: RealFormSpec, lam: Weight) -> GeneratorKey:
    """The key of lam, refused unless lam is dominant for the compact positive
    system and on the form's lattice.  Dominance is read on the integer
    coroot rows c of the compact simple roots (``compact_steps``, cached per
    spec): sum_j lam2_j c_j = 2 <lam, beta^vee> >= 0 for each, and every
    compact positive root is a nonnegative sum of the simple ones."""
    if lam.rank != spec.rank:
        raise ValidationError("weight rank does not match the real form")
    x = lam.coords2
    if not all(sum(c * x[j] for j, c in terms) >= 0 for _, terms in compact_steps(spec)):
        raise ValidationError(f"{lam} is not dominant for the compact positive system")
    if spec.lattice == "spin_descent":
        if not (lam + rho_n(spec)).is_integral:
            raise ValidationError(f"{lam} + rho_n is not integral (spin descent fails)")
    else:
        if not lam.is_integral:
            raise ValidationError(f"{lam} is not integral")
    return GeneratorKey(lam)


def hc_parameter(spec: RealFormSpec, key: GeneratorKey) -> Weight:
    """Harish-Chandra parameter Lambda = lambda + rho_c, exact."""
    return key.lam + rho_c(spec)


def is_regular_param(spec: RealFormSpec, lam: Weight) -> bool:
    """True iff the parameter pairs nonzero with every root (discrete series);
    False marks a limit of discrete series."""
    return 0 not in integer_pairings(spec.datum, lam, positive_roots(spec.datum))


class KClass(NamedTuple):
    """Finite integer combination of Dirac-induction generators."""

    terms: tuple[tuple[GeneratorKey, int], ...]

    @staticmethod
    def from_pairs(pairs) -> "KClass":
        acc: dict[GeneratorKey, int] = {}
        for key, coeff in pairs:
            acc[key] = acc.get(key, 0) + int(coeff)
        cleaned = tuple(
            (k, c) for k, c in sorted(acc.items(), key=lambda kv: kv[0].lam.coords2) if c != 0
        )
        return KClass(cleaned)

    @staticmethod
    def zero() -> "KClass":
        return KClass(())

    @staticmethod
    def generator(key: GeneratorKey, coeff: int = 1) -> "KClass":
        return KClass.from_pairs([(key, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "KClass") -> "KClass":
        return KClass.from_pairs(self.terms + other.terms)

    def __neg__(self) -> "KClass":
        return KClass(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)

    def scaled(self, k: int) -> "KClass":
        if k == 0:
            return KClass.zero()
        return KClass(tuple((key, k * c) for key, c in self.terms))


def kclass_to_json(x: KClass) -> list:
    return [{"lambda2": list(key.lam.coords2), "coeff": coeff} for key, coeff in x.terms]


def kclass_from_json(spec: RealFormSpec, data) -> KClass:
    if not isinstance(data, list):
        raise ValidationError("a K-class serializes as a list of {lambda2, coeff} records")
    pairs = []
    for item in data:
        try:
            lam = Weight(tuple(map(read_int, item["lambda2"])))
            coeff = read_int(item["coeff"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"malformed K-class term {item!r}") from None
        pairs.append((generator_key(spec, lam), coeff))
    return KClass.from_pairs(pairs)
