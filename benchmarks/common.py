"""Paths, the real forms the workloads use, and seeded input generation.

Inputs are drawn here from the seed with the benchmark's own root data
(oracle.RootData), before the program is imported; the program only ever
receives the generated weights and points.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction

from oracle import RootData

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Primes for the denominators of exact torus points.
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# Cartan data by type name, rebuilt here so that inputs can be drawn before
# the program is imported: (matrix, symmetrizer).
def cartan(type_name: str) -> tuple[list[list[int]], list[Fraction]]:
    series, n = type_name[0], int(type_name[1:])
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j], a[j][i] = aij, aji

    d = [Fraction(1)] * n
    if series == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif series == "B":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)
        d = [Fraction(2)] * (n - 1) + [Fraction(1)]
    elif series == "C":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)
        d = [Fraction(1)] * (n - 1) + [Fraction(2)]
    elif series == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif series == "G":
        link(0, 1, -3, -1)
        d = [Fraction(1), Fraction(3)]
    elif series == "F":
        link(0, 1)
        link(1, 2, -1, -2)
        link(2, 3)
        d = [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]
    else:
        raise ValueError(type_name)
    return a, d


@dataclass(frozen=True)
class Form:
    """A real form as the workloads name it.

    ``preset`` is a name for `real_form`, or None for a form built with
    `build_real_form` from ``type_name`` by painting simple root ``painted``
    noncompact.  ``painted`` is also how the oracle rebuilds the compact roots
    (None: every root compact).  ``lattice`` and ``spin_sign`` restate the
    library's documented calibration of the form; setup checks they agree.
    """

    label: str
    type_name: str
    painted: int | None
    preset: str | None = None
    lattice: str = "spin_descent"
    spin_sign: int = 1

    def root_data(self) -> RootData:
        a, d = cartan(self.type_name)
        return RootData(a, d, self.painted)


SL2R = Form("sl2r", "A1", 0, "sl2r", spin_sign=-1)
SU21 = Form("su21", "A2", 1, "su21", lattice="integral")
SP4R = Form("sp4r", "C2", 1, "sp4r")


def compact(type_name: str) -> Form:
    return Form(f"compact({type_name})", type_name, None, f"compact({type_name})")


def painted(type_name: str, index: int) -> Form:
    return Form(f"{type_name}/paint{index}", type_name, index)


def compact_indices(form: Form, all_roots2: list[tuple[int, ...]]) -> list[int]:
    """Indices into the library's root list (positives, then negatives, as
    doubled fundamental coordinates) of the roots compact under the painting."""
    rd = form.root_data()
    by_coords = {tuple(2 * f for f in rd.fund(c)): c for c in rd.positive}
    out = []
    for k, r in enumerate(all_roots2):
        c = by_coords.get(tuple(r)) or by_coords[tuple(-x for x in r)]
        if form.painted is None or c[form.painted] % 2 == 0:
            out.append(k)
    return out


# ---------------------------------------------------------------------------
# seeded inputs

def random_point(rd: RootData, rng: random.Random) -> tuple[Fraction, ...]:
    """Exact-regular torus point with one prime denominator."""
    while True:
        p = rng.choice(PRIMES)
        t = tuple(Fraction(rng.randrange(1, p), p) for _ in range(rd.rank))
        if rd.is_regular_point(t):
            return t


def is_generator_weight(form: Form, rd: RootData, lam2: tuple[int, ...]) -> bool:
    """Dominant for the compact roots and on the form's character lattice."""
    lam = tuple(Fraction(c, 2) for c in lam2)
    if not rd.is_dominant(lam, rd.compact):
        return False
    if form.lattice == "integral":
        return all(c % 2 == 0 for c in lam2)
    rho_n = rd.rho(rd.noncompact)
    return all((x + r).denominator == 1 for x, r in zip(lam, rho_n))


def random_weight(form: Form, rd: RootData, rng: random.Random, box: int = 3) -> tuple[int, ...]:
    """Doubled coordinates of a generator weight with |fundamental coords| <= box."""
    while True:
        lam2 = tuple(rng.randrange(-2 * box, 2 * box + 1) for _ in range(rd.rank))
        if is_generator_weight(form, rd, lam2):
            return lam2


def fund_text(coords2) -> str:
    """Fundamental coordinates as the CLI takes them, e.g. "1,3/2,0"."""
    return ",".join(str(Fraction(c, 2)) for c in coords2)


def point_text(t) -> str:
    return ",".join(str(x) for x in t)


# ---------------------------------------------------------------------------
# process helpers

def purge_orbint() -> None:
    """Forget every imported orbint module, so the next import starts cold."""
    for name in [n for n in sys.modules if n == "orbint" or n.startswith("orbint.")]:
        del sys.modules[name]


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[k]
