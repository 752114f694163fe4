"""The first definitions of the Weyl layer, kept as test oracles.

orbint builds W by rank-one reflection updates with sign (-1)^length, W_K from
the simple roots of the compact subsystem, and coset representatives by a walk
from e that never builds W.  These are the direct constructions it replaced:
full matrix products with determinant signs, W_K from every compact
reflection, the first element of each coset W_K w found by multiplying out the
coset, and the chamber test applied to every element of W.
"""

from fractions import Fraction

from orbint.realform import build_real_form
from orbint.rootsys import (
    Weight,
    _det_fraction,
    _identity,
    _invert_fraction,
    _matvec,
    _subsystem_simples,
    all_roots,
    build_datum,
    pairing,
    reflection,
    rho,
    weyl_group,
)
from orbint.verify import _matmul


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
    norm = pairing(datum, alpha, alpha)
    columns = []
    for j in range(n):
        coeff = 2 * pairing(datum, Weight(tuple(int(k == j) for k in range(n))), alpha) / norm
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

