"""Reference values the benchmark checks the program against.

Nothing here calls into orbint.  Root systems are rebuilt from the Cartan
matrix and symmetrizer alone, real forms from a painting of the simple roots,
Weyl orbits by reflecting weight vectors, and character values in mpmath at
40 significant digits with exact `Fraction` phases fed to `mpmath.expjpi`.

Conventions match the library's public interface: weights are given in
fundamental coordinates, a torus point t evaluates e^mu(g) = exp(2 pi i <mu, t>),
and the Cartan matrix entry A[k][i] is the k-th fundamental coordinate of the
i-th simple root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath

mpmath.mp.dps = 40

def weyl_order(series: str, n: int) -> int:
    """Closed-form Weyl group order of the Cartan type (series, n)."""
    if series == "A":
        return math.factorial(n + 1)
    if series in ("B", "C"):
        return 2**n * math.factorial(n)
    if series == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {"G": 12, "F": 1152}[series]


class RootData:
    """Positive roots in simple-root coordinates, rebuilt from the Cartan data.

    ``painted`` is the index of the simple root painted noncompact, or None for
    the compact form: a root is compact iff its coefficient on the painted
    simple root is even.
    """

    def __init__(self, cartan: Sequence[Sequence[int]], symmetrizer: Sequence, painted: int | None):
        self.a = [list(row) for row in cartan]
        self.d = [Fraction(x) for x in symmetrizer]
        self.rank = n = len(self.a)
        simple = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for c in frontier:
                for j in range(n):
                    # <beta, alpha_j^vee> = sum_i c_i A[j][i]
                    k = sum(c[i] * self.a[j][i] for i in range(n))
                    image = tuple(c[i] - (k if i == j else 0) for i in range(n))
                    if all(x >= 0 for x in image) and any(image) and image not in roots:
                        roots.add(image)
                        nxt.append(image)
            frontier = nxt
        self.positive = sorted(roots, key=lambda c: (sum(c), c))
        self.compact = [c for c in self.positive if painted is not None and c[painted] % 2 == 0]
        if painted is None:
            self.compact = list(self.positive)
        self.noncompact = [c for c in self.positive if c not in self.compact]

    # weights are tuples of Fractions in fundamental coordinates
    def fund(self, c) -> tuple[int, ...]:
        """Fundamental coordinates of the root with simple-root coordinates c."""
        n = self.rank
        return tuple(sum(self.a[k][i] * c[i] for i in range(n)) for k in range(n))

    def inner(self, mu, c) -> Fraction:
        """(mu, beta) for a weight mu and a root beta in simple-root coordinates."""
        return sum((Fraction(c[j]) * mu[j] * self.d[j] for j in range(self.rank)), Fraction(0))

    def norm(self, c) -> Fraction:
        return self.inner(self.fund(c), c)

    def rho(self, roots) -> tuple[Fraction, ...]:
        total = [Fraction(0)] * self.rank
        for c in roots:
            for k, f in enumerate(self.fund(c)):
                total[k] += Fraction(f, 2)
        return tuple(total)

    def is_dominant(self, mu, roots) -> bool:
        return all(self.inner(mu, c) >= 0 for c in roots)

    def is_regular_weight(self, mu, roots) -> bool:
        return all(self.inner(mu, c) != 0 for c in roots)

    def is_regular_point(self, t) -> bool:
        """No root pairs to an integer with t (the exact regularity condition)."""
        return all(
            sum((f * x for f, x in zip(self.fund(c), t)), Fraction(0)).denominator != 1
            for c in self.positive
        )

    def orbit(self, mu, roots) -> list[tuple[tuple[int, ...], int]]:
        """The orbit of a weight regular for ``roots`` under the group generated
        by their reflections, as doubled coordinates, each element with sign
        (-1)^(negative pairings).

        For a regular weight w -> w(mu) is a bijection, so the orbit has the
        group's order and the alternating sum over the group is
        sign(mu) * sum(sign(nu) e^nu).  Integer arithmetic throughout:
        2(nu, beta) = sum_j c_j d_j nu2_j, and 2(nu2, beta) / (beta, beta) is
        the integer 2<nu, beta^vee>.
        """
        if any(x.denominator != 1 for x in self.d):
            raise ValueError("the orbit needs an integral symmetrizer")
        refl = []
        for c in roots:
            dc = tuple(int(ci * di) for ci, di in zip(c, self.d))
            refl.append((self.fund(c), dc, int(self.norm(c))))
        start = tuple(int(2 * x) for x in mu)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for nu in frontier:
                for f, dc, nn in refl:
                    k, rem = divmod(2 * sum(a * b for a, b in zip(dc, nu)), nn)
                    if rem:
                        raise ValueError("weight is not in the half-weight lattice")
                    image = tuple(x - k * y for x, y in zip(nu, f))
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        dcs = [dc for _, dc, _ in refl]
        return [
            (nu, (-1) ** sum(1 for dc in dcs if sum(a * b for a, b in zip(dc, nu)) < 0))
            for nu in seen
        ]

    def weyl_dim(self, lam, roots) -> Fraction:
        """Weyl dimension product over the positive system ``roots``."""
        r = self.rho(roots)
        shifted = tuple(a + b for a, b in zip(lam, r))
        out = Fraction(1)
        for c in roots:
            out *= self.inner(shifted, c) / self.inner(r, c)
        return out


def _phase2(nu2, t) -> mpmath.mpc:
    """e^nu(g) = exp(2 pi i <nu, t>) for doubled coordinates nu2, the phase
    reduced mod 2 exactly."""
    x = sum((m * s for m, s in zip(nu2, t)), Fraction(0)) % 2
    return mpmath.expjpi(mpmath.mpf(x.numerator) / x.denominator)


def _alternating_sum(rd: RootData, mu, t, roots) -> mpmath.mpc:
    if not rd.is_regular_weight(mu, roots):
        return mpmath.mpc(0)
    orbit = rd.orbit(mu, roots)
    sign_mu = dict(orbit)[tuple(int(2 * x) for x in mu)]
    q = math.lcm(*(x.denominator for x in t))
    a = [int(x * q) for x in t]
    total = mpmath.fsum(
        s * mpmath.expjpi(mpmath.mpf(sum(m * b for m, b in zip(nu, a)) % (2 * q)) / q)
        for nu, s in orbit
    )
    return sign_mu * total


def _denominator(rd: RootData, t) -> mpmath.mpc:
    out = mpmath.mpc(1)
    for c in rd.positive:
        f = rd.fund(c)
        out *= _phase2(f, t) - _phase2(tuple(-x for x in f), t)
    return out


def tau_reference(rd: RootData, spin_sign: int, lam, t) -> complex:
    """tau_g on the generator with highest weight lam:
    (-1)^m spin * sum_{W_K} sign(w) e^{w(lam+rho_c)}(g) / prod_{R+} (e^{a/2} - e^{-a/2})(g)."""
    big_lambda = tuple(a + b for a, b in zip(lam, rd.rho(rd.compact)))
    sign = (-1) ** len(rd.noncompact) * spin_sign
    return complex(sign * _alternating_sum(rd, big_lambda, t, rd.compact) / _denominator(rd, t))


def stable_reference(rd: RootData, spin_sign: int, big_lambda, t) -> complex:
    """The stable sum (and the packet sum) at Harish-Chandra parameter Lambda.

    Summing tau over W_K-coset translates of g turns the W_K alternating sum
    into the full Weyl alternating sum, because the Weyl denominator is
    anti-invariant; the result does not depend on the coset representatives.
    """
    sign = (-1) ** len(rd.noncompact) * spin_sign
    return complex(sign * _alternating_sum(rd, big_lambda, t, rd.positive) / _denominator(rd, t))


def formal_degree(rd: RootData, big_lambda) -> Fraction:
    """|prod (Lambda, a) / (rho, a)| over R+, zero for a singular parameter."""
    r = rd.rho(rd.positive)
    out = Fraction(1)
    for c in rd.positive:
        out *= rd.inner(big_lambda, c) / rd.inner(r, c)
    return abs(out)
