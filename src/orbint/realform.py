"""Equal-rank real-form data: compact/noncompact root split, W_K, coset
representatives, generator indexing for K-theory, and Harish-Chandra parameters.
"""

from __future__ import annotations

import functools
import re
from operator import add
from typing import NamedTuple, Sequence

from .errors import ValidationError
from .rootsys import (
    CartanDatum,
    Weight,
    WeylElement,
    WeylGroup,
    _matvec,
    _subsystem_simples,
    all_roots,
    build_datum,
    is_dominant,
    pairing,
    positive_roots,
    reflection,
    reflection_subgroup,
    rho,
    weyl_group,
)

# Character-lattice policies for generator keys.
#   spin_descent: lambda + rho_n integral (spinors tensored with the module descend)
#   integral:     lambda integral (spinors descend on their own / double cover chosen)
LATTICES = ("spin_descent", "integral")


class RealFormSpec(NamedTuple):
    """Partition of the roots into compact and noncompact, with sign calibration."""

    datum: CartanDatum
    compact_positive: tuple[Weight, ...]
    noncompact_positive: tuple[Weight, ...]
    spin_sign: int
    lattice: str = "spin_descent"
    name: str | None = None

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
def weyl_k(spec: RealFormSpec) -> WeylGroup:
    """W_K, the subgroup of the Weyl group generated by reflections in compact roots.

    The compact roots form a closed root subsystem, so W_K is generated by the
    reflections in its simple roots alone (the indecomposable roots of
    R_c^+); element lengths are word lengths in those generators.  A compact
    form returns ``weyl_group(spec.datum)`` itself.
    """
    if spec.is_compact:
        return weyl_group(spec.datum)
    return reflection_subgroup(spec.datum, _subsystem_simples(spec.compact_positive))


@functools.lru_cache(maxsize=None)
def rho_c(spec: RealFormSpec) -> Weight:
    return rho(spec.compact_positive, spec.rank)


@functools.lru_cache(maxsize=None)
def rho_n(spec: RealFormSpec) -> Weight:
    return rho(spec.noncompact_positive, spec.rank)


@functools.lru_cache(maxsize=None)
def coset_reps(spec: RealFormSpec) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of the cosets W_K \\ W_G, one per coset,
    sorted by (length, matrix).

    Chamber test: w is the minimal element of W_K w exactly when
    w^{-1}(R_c^+) lies in R^+, that is when <w rho, beta^vee> > 0 for every
    simple root beta of the compact subsystem (Dyer 1990; Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 2.4), one matrix-vector product per
    element of W_G.  The W_K-translates of the representatives tile W_G exactly.
    """
    group = weyl_group(spec.datum)
    rho2 = rho(spec.positive_system).coords2
    coroots = [reflection(spec.datum, beta)[1] for beta in _subsystem_simples(spec.compact_positive)]
    chosen = []
    for w in group:
        w_rho = _matvec(w.matrix, rho2)
        if all(sum(c * x for c, x in zip(coroot, w_rho)) > 0 for coroot in coroots):
            chosen.append(w)
    if len(chosen) * weyl_k(spec).order != group.order:
        raise ValidationError("coset enumeration does not tile the Weyl group")
    return tuple(sorted(chosen, key=lambda e: (e.length, e.matrix)))


# ---------------------------------------------------------------------------
# generator keys and K-classes

class GeneratorKey(NamedTuple):
    """Index of a Dirac-induction generator: a dominant weight for the
    compact positive system, on the configured character lattice."""

    lam: Weight


def generator_key(spec: RealFormSpec, lam: Weight) -> GeneratorKey:
    if lam.rank != spec.rank:
        raise ValidationError("weight rank does not match the real form")
    if not is_dominant(spec.datum, lam, spec.compact_positive):
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
    return all(pairing(spec.datum, lam, alpha) != 0 for alpha in positive_roots(spec.datum))


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
            lam = Weight(tuple(int(c) for c in item["lambda2"]))
            coeff = int(item["coeff"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"malformed K-class term {item!r}") from None
        pairs.append((generator_key(spec, lam), coeff))
    return KClass.from_pairs(pairs)


def key_to_json(key: GeneratorKey) -> dict:
    return {"lambda2": list(key.lam.coords2)}


def key_from_json(spec: RealFormSpec, data) -> GeneratorKey:
    try:
        lam = Weight(tuple(int(c) for c in data["lambda2"]))
    except (KeyError, TypeError, ValueError):
        raise ValidationError(f"malformed generator key {data!r}") from None
    return generator_key(spec, lam)
