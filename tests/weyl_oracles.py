"""The first definitions of the Weyl layer, kept as test oracles.

orbint builds W by rank-one reflection updates with sign (-1)^length, W_K from
the simple roots of the compact subsystem, and coset representatives by a walk
from e that never builds W.  These are the direct constructions it replaced:
full matrix products with determinant signs, W_K from every compact
reflection, the first element of each coset W_K w found by multiplying out the
coset, and the chamber test applied to every element of W.

The invariant form is kept in integers over one common denominator; the
Fraction route it replaced is kept here too: each pairing a sum of Fractions
over the symmetrized Cartan matrix D A^{-1}, and the sign tests and ratios
(dominance, coroots, Weyl orders, dimension products, generator keys) built
from those Fractions.  Freudenthal's recursion for weight multiplicities is
kept in the same Fractions, one pairing per root-string term.
"""

import functools
from fractions import Fraction

from orbint.errors import ValidationError
from orbint.realform import GeneratorKey, build_real_form, rho_n
from orbint.rootsys import (
    Weight,
    _det_fraction,
    _identity,
    _invert_fraction,
    _matvec,
    _subsystem_simples,
    all_roots,
    build_datum,
    positive_roots,
    reflection,
    rho,
    weyl_group,
)
from orbint.verify import _matmul


@functools.lru_cache(maxsize=None)
def _fraction_form(datum):
    # (lambda, mu) = lambda^T D A^{-1} mu in fundamental coordinates
    ainv = _invert_fraction([[Fraction(x) for x in row] for row in datum.cartan])
    n = datum.rank
    return tuple(tuple(datum.symmetrizer[i] * ainv[i][j] for j in range(n)) for i in range(n))


@functools.lru_cache(maxsize=None)
def fraction_pairing(datum, a, b):
    """(a, b) as a sum of Fractions over the symmetrized Cartan matrix; kept
    per (datum, a, b), as Freudenthal's recursion asks for the same pairings
    across the tables of one form."""
    mat = _fraction_form(datum)
    total = Fraction(0)
    for i, ai in enumerate(a.coords2):
        if ai == 0:
            continue
        row = mat[i]
        total += ai * sum(row[j] * bj for j, bj in enumerate(b.coords2) if bj != 0)
    return total / 4


def fraction_is_dominant(datum, lam, pos):
    return all(fraction_pairing(datum, lam, alpha) >= 0 for alpha in pos)


def fraction_reflection(datum, alpha):
    """(a, c) of s_alpha = I - a c^T, c_j = 2 (omega_j, alpha) / (alpha, alpha)."""
    n = datum.rank
    norm = fraction_pairing(datum, alpha, alpha)
    if norm == 0:
        raise ValidationError("cannot reflect in a null vector")
    coroot = []
    for j in range(n):
        cj = 2 * fraction_pairing(datum, Weight(tuple(2 if k == j else 0 for k in range(n))), alpha) / norm
        if cj.denominator != 1:
            raise ValidationError("coroot pairing is not integral")
        coroot.append(int(cj))
    return alpha.halved().coords2, tuple(coroot)


def fraction_weyl_order(datum, positive=None):
    """prod (h + 1) / h over the positive roots, h = 2 (rho, alpha) / (alpha, alpha)."""
    positive = positive_roots(datum) if positive is None else positive
    r = rho(positive, datum.rank)
    order = Fraction(1)
    for alpha in positive:
        h = 2 * fraction_pairing(datum, r, alpha) / fraction_pairing(datum, alpha, alpha)
        order *= (h + 1) / h
    return int(order)


def _fraction_dimension_product(datum, big_lambda, pos):
    if not pos:
        return Fraction(1)
    r = rho(pos)
    num = Fraction(1)
    den = Fraction(1)
    for alpha in pos:
        num *= fraction_pairing(datum, big_lambda, alpha)
        den *= fraction_pairing(datum, r, alpha)
    return num / den


def fraction_weyl_dim(datum, lam, pos=None):
    pos = positive_roots(datum) if pos is None else tuple(pos)
    if not fraction_is_dominant(datum, lam, pos):
        raise ValidationError(f"weight {lam} is not dominant for the given positive system")
    return _fraction_dimension_product(datum, lam + rho(pos, datum.rank), pos)


def fraction_weight_multiplicities(datum, lam, pos=None):
    """Weight -> multiplicity of the irreducible module with highest weight lam
    for the positive system ``pos``: Freudenthal's recursion level by level,
    each term a Fraction pairing; lam must be integral for ``pos`` only."""
    pos = positive_roots(datum) if pos is None else tuple(pos)
    if not fraction_is_dominant(datum, lam, pos):
        raise ValidationError(f"{lam} is not dominant")
    if not pos:
        return {lam: 1}
    simples = _subsystem_simples(pos)
    for beta in simples:
        if (2 * fraction_pairing(datum, lam, beta) / fraction_pairing(datum, beta, beta)).denominator != 1:
            raise ValidationError(f"{lam} is not an integral weight")
    r = rho(pos)
    top = fraction_pairing(datum, lam + r, lam + r)
    mult = {lam: 1}
    frontier = [lam]
    while frontier:
        candidates = sorted({mu - s for mu in frontier for s in simples}, key=lambda w: w.coords2)
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
                    acc += above * fraction_pairing(datum, mu + k * alpha, alpha)
                    k += 1
            if acc == 0:
                continue
            denom = top - fraction_pairing(datum, mu + r, mu + r)
            if denom <= 0:
                raise ValidationError("Freudenthal recursion left the weight polytope")
            m = 2 * acc / denom
            if m.denominator != 1:
                raise ValidationError("non-integral multiplicity; inconsistent input")
            if m > 0:
                mult[mu] = int(m)
                frontier.append(mu)
    return mult


def fraction_formal_degree(spec, lam_hc):
    return abs(_fraction_dimension_product(spec.datum, lam_hc, positive_roots(spec.datum)))


def fraction_generator_key(spec, lam):
    """The key of lam, with dominance tested on every compact positive root."""
    if lam.rank != spec.rank:
        raise ValidationError("weight rank does not match the real form")
    if not fraction_is_dominant(spec.datum, lam, spec.compact_positive):
        raise ValidationError(f"{lam} is not dominant for the compact positive system")
    if spec.lattice == "spin_descent":
        if not (lam + rho_n(spec)).is_integral:
            raise ValidationError(f"{lam} + rho_n is not integral (spin descent fails)")
    elif not lam.is_integral:
        raise ValidationError(f"{lam} is not integral")
    return GeneratorKey(lam)


def matmul_closure(rank, gen_matrices):
    """(matrix, determinant, word length) of every element, in breadth-first
    order over the generators, each step a full matrix product."""
    ident = _identity(rank)
    seen = {ident}
    ordered = [(ident, 0)]
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for m in frontier:
            for g in gen_matrices:
                prod = _matmul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    ordered.append((prod, depth))
        frontier = nxt
    return [
        (m, int(_det_fraction([[Fraction(x) for x in row] for row in m])), depth)
        for m, depth in ordered
    ]


def reflection_matrix(datum, alpha):
    """Column j is s_alpha(e_j) = e_j - 2 (e_j, alpha) / (alpha, alpha) alpha in coords2."""
    n = datum.rank
    norm = fraction_pairing(datum, alpha, alpha)
    columns = []
    for j in range(n):
        coeff = 2 * fraction_pairing(datum, Weight(tuple(int(k == j) for k in range(n))), alpha) / norm
        columns.append([int(k == j) - coeff * alpha.coords2[k] for k in range(n)])
    assert all(x.denominator == 1 for col in columns for x in col)
    return tuple(tuple(int(columns[j][k]) for j in range(n)) for k in range(n))


def all_compact_reflections_group(spec):
    """{(matrix, sign)} of the group generated by every compact positive reflection."""
    gens = sorted({reflection_matrix(spec.datum, alpha) for alpha in spec.compact_positive})
    return {(m, det) for m, det, _ in matmul_closure(spec.rank, gens)}


def first_in_each_coset(group, subgroup_matrices):
    """The (length, matrix)-first element of each coset W_K w, sorted the same way."""
    covered = set()
    reps = []
    for w in sorted(group, key=lambda e: (e.length, e.matrix)):
        if w.matrix not in covered:
            reps.append(w)
            covered.update(_matmul(u, w.matrix) for u in subgroup_matrices)
    return reps


def chamber_coset_reps(spec):
    """The elements w of W with <w rho, beta^vee> > 0 for every simple root beta
    of the compact subsystem, sorted by (length, matrix): one matrix-vector
    product per element of W."""
    rho2 = rho(spec.positive_system).coords2
    coroots = [reflection(spec.datum, beta)[1] for beta in _subsystem_simples(spec.compact_positive)]
    chosen = [
        w for w in weyl_group(spec.datum)
        if all(sum(c * x for c, x in zip(coroot, _matvec(w.matrix, rho2))) > 0 for coroot in coroots)
    ]
    return sorted(chosen, key=lambda e: (e.length, e.matrix))


def painted_forms(name, paintings=None):
    """Real forms of a Cartan type from Vogan diagrams: for each set of painted
    simple roots (all 2^rank sets by default), the compact roots are those whose
    coefficients on the painted simple roots sum to an even number."""
    datum = build_datum(name)
    n = datum.rank
    ainv = _invert_fraction([[Fraction(x) for x in row] for row in datum.cartan])
    roots = all_roots(datum)

    def coefficients(alpha):
        fund = alpha.halved().coords2
        return [sum(ainv[i][j] * fund[j] for j in range(n)) for i in range(n)]

    if paintings is None:
        paintings = [
            tuple(i for i in range(n) if mask >> i & 1) for mask in range(2**n)
        ]
    forms = []
    for painted in paintings:
        compact = [
            k for k, alpha in enumerate(roots)
            if sum(coefficients(alpha)[i] for i in painted) % 2 == 0
        ]
        label = f"{name}/paint{','.join(map(str, painted))}"
        forms.append(build_real_form(datum, compact, name=label))
    return forms

