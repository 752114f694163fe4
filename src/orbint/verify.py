"""Named identity checks over the shipped presets.

Each check exercises one invariant of the library against an independent route
(brute-force oracle, combinatorial bookkeeping, or closed form) and returns a
CheckResult.  This is the only implementation of each identity: the CLI
``check`` subcommand and the acceptance criteria both run these checks.  Seeds
and sample counts are fixed, so every run samples the same points.
Preset-dependent checks accept a ``presets`` filter; with an empty selection
they report "not applicable".
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import random
import time
from typing import NamedTuple

from .errors import ValidationError
from .ktrace import (
    class_is_zero,
    lds_character,
    lds_character_sum,
    random_regular_point,
    tau_class,
    tau_generator,
)
from .realform import (
    KClass,
    coset_reps,
    generator_key,
    hc_parameter,
    key_from_json,
    key_to_json,
    real_form,
    rho_n,
    weyl_k,
)
from .rootsys import (
    Weight,
    _matmul,
    build_datum,
    inversion_count,
    pairing,
    positive_roots,
    rho,
    weight_multiplicities,
    weyl_dim,
    weyl_group,
)
from .stable import (
    char_identity_check,
    continuity_check,
    formal_degree,
    lpacket_sum,
    stable_tau,
)
from .tannaka import canonical_sign, run_reconstruction
from .toruschar import (
    ConjugacyDescriptor,
    TorusPoint,
    ab_fixed_sum,
    char_quotient,
    eval_weight,
    min_root_phase,
    negated_system,
    weyl_act_point,
    weyl_denominator,
    weyl_numerator,
)

DATUM_NAMES = ("A1", "A2", "B2", "C2", "G2")
PRESET_NAMES = ("sl2r", "su21", "sp4r", "compact(A1)", "compact(A2)")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time, set by run_checks


def _na(name: str) -> CheckResult:
    return CheckResult(name, True, "not applicable to the selected presets")


def _use(presets, *available: str) -> tuple[str, ...]:
    if presets is None:
        return available
    wanted = {p.lower() for p in presets}
    return tuple(p for p in available if p.lower() in wanted)


def small_keys(spec, count: int) -> list:
    """The first ``count`` generator keys with doubled coordinates in 0..15, in
    lexicographic order; raises ValidationError when fewer exist."""
    out = []
    for coords in itertools.product(range(16), repeat=spec.rank):
        try:
            out.append(generator_key(spec, Weight(coords)))
        except ValidationError:
            continue
        if len(out) == count:
            return out
    raise ValidationError(f"fewer than {count} small generator keys on {spec.name}")


def random_class(keys, rng: random.Random) -> KClass:
    """A nonzero class: 1 to 5 distinct keys, each with a coefficient in +-{1, 2, 3}."""
    chosen = rng.sample(keys, rng.randrange(1, 6))
    return KClass.from_pairs((k, rng.choice([-3, -2, -1, 1, 2, 3])) for k in chosen)


def _points(datum, seed: int, count: int) -> list[TorusPoint]:
    rng = random.Random(seed)
    return [random_regular_point(datum, rng) for _ in range(count)]


def check_weyl_orders() -> CheckResult:
    expected = {"A1": 2, "A2": 6, "B2": 8, "C2": 8, "G2": 12}
    bad = {
        name: weyl_group(build_datum(name)).order
        for name in expected
        if weyl_group(build_datum(name)).order != expected[name]
    }
    return CheckResult(
        "weyl-group-orders", not bad, f"mismatches: {bad}" if bad else "A1,A2,B2,C2,G2 orders match"
    )


def check_sign_length() -> CheckResult:
    for name in DATUM_NAMES:
        datum = build_datum(name)
        for w in weyl_group(datum):
            if w.sign != (-1) ** w.length or w.length != inversion_count(datum, w):
                return CheckResult("sign-vs-length", False, f"failure in {name}")
    return CheckResult("sign-vs-length", True, "det = (-1)^length = inversion parity everywhere")


def check_multiplicity_totals() -> CheckResult:
    cases = {
        "A1": [Weight((2 * k,)) for k in range(6)],
        "A2": [Weight((2, 0)), Weight((2, 2)), Weight((4, 2))],
        "B2": [Weight((2, 2))],
        "C2": [Weight((2, 2))],
        "G2": [Weight((2, 0))],
    }
    for name, lams in cases.items():
        datum = build_datum(name)
        for lam in lams:
            if sum(weight_multiplicities(datum, lam).values()) != weyl_dim(datum, lam):
                return CheckResult("multiplicity-totals", False, f"{name} {lam}")
    return CheckResult("multiplicity-totals", True, "Freudenthal totals equal the dimension product")


def check_pairing_invariance() -> CheckResult:
    rng = random.Random(100)
    for name in DATUM_NAMES:
        datum = build_datum(name)
        for _ in range(8):
            a = Weight(tuple(rng.randrange(-6, 7) for _ in range(datum.rank)))
            b = Weight(tuple(rng.randrange(-6, 7) for _ in range(datum.rank)))
            if pairing(datum, a, b) != pairing(datum, b, a):
                return CheckResult("pairing-invariance", False, f"symmetry fails on {name}")
            for w in weyl_group(datum):
                if pairing(datum, w.apply(a), w.apply(b)) != pairing(datum, a, b):
                    return CheckResult("pairing-invariance", False, f"invariance fails on {name}")
    return CheckResult("pairing-invariance", True, "symmetric and Weyl-invariant (exact)")


def check_denominator_formula() -> CheckResult:
    worst = 0.0
    for name in DATUM_NAMES:
        datum = build_datum(name)
        group = weyl_group(datum)
        pos = positive_roots(datum)
        r = rho(pos)
        for g in _points(datum, 4, 200):
            worst = max(worst, abs(weyl_numerator(r, g, group) - weyl_denominator(g, pos)))
    return CheckResult("denominator-formula", worst <= 1e-10, f"max |N(rho)-D| = {worst:.3e}")


def check_numerator_antisymmetry() -> CheckResult:
    rng = random.Random(8)
    for name in ("A2", "C2"):
        datum = build_datum(name)
        group = weyl_group(datum)
        for _ in range(5):
            g = random_regular_point(datum, rng)
            mu = Weight(tuple(2 * rng.randrange(0, 4) for _ in range(datum.rank)))
            base = weyl_numerator(mu, g, group)
            for w in group:
                if abs(weyl_numerator(w.apply(mu), g, group) - w.sign * base) > 1e-10 * max(
                    1, abs(base)
                ):
                    return CheckResult("numerator-antisymmetry", False, name)
    return CheckResult("numerator-antisymmetry", True, "N(w mu) = sign(w) N(mu)")


def check_wedge_identity(presets=None) -> CheckResult:
    selected = _use(presets, *PRESET_NAMES)
    if not selected:
        return _na("wedge-p-identity")
    worst = 0.0
    for preset in selected:
        spec = real_form(preset)
        m = spec.dim_gk // 2
        for g in _points(spec.datum, 5, 100):
            lhs = complex(1.0)
            for alpha in spec.noncompact_positive:
                lhs *= (1 - eval_weight(alpha, g)) * (1 - eval_weight(-alpha, g))
            chi = weyl_denominator(g, spec.noncompact_positive)
            worst = max(worst, abs(lhs - (-1) ** m * chi * chi))
    return CheckResult("wedge-p-identity", worst <= 1e-10, f"max residual = {worst:.3e}")


ORACLE_WEIGHTS = {
    "compact(A1)": tuple(Weight((2 * k,)) for k in range(6)),
    "compact(A2)": (Weight((2, 0)), Weight((2, 2)), Weight((4, 2))),
}


def _oracle_cases(presets):
    """(datum, group, positive roots, weight, points) per oracle weight; each
    weight re-seeds its 20 sample points."""
    for preset in _use(presets, *ORACLE_WEIGHTS):
        datum = real_form(preset).datum
        group = weyl_group(datum)
        pos = positive_roots(datum)
        for lam in ORACLE_WEIGHTS[preset]:
            yield datum, group, pos, lam, _points(datum, 6, 20)


def check_char_oracle(presets=None) -> CheckResult:
    if not _use(presets, *ORACLE_WEIGHTS):
        return _na("character-oracle")
    worst = 0.0
    for datum, group, pos, lam, points in _oracle_cases(presets):
        table = weight_multiplicities(datum, lam)
        r = rho(pos)
        for g in points:
            closed = char_quotient(lam + r, g, group, pos)
            brute_re = math.fsum(m * eval_weight(mu, g).real for mu, m in table.items())
            brute_im = math.fsum(m * eval_weight(mu, g).imag for mu, m in table.items())
            worst = max(worst, abs(closed - complex(brute_re, brute_im)))
    return CheckResult(
        "character-oracle", worst <= 1e-9, f"max |quotient - Freudenthal sum| = {worst:.3e}"
    )


def check_ab_vs_quotient(presets=None) -> CheckResult:
    selected = _use(presets, *ORACLE_WEIGHTS)
    if not selected:
        return _na("fixed-point-vs-quotient")
    cases = [
        (lam, g, group, pos) for _, group, pos, lam, points in _oracle_cases(presets) for g in points
    ]
    for preset in selected:  # random twisting weights, drawn with their points
        datum = real_form(preset).datum
        rng = random.Random(6)
        for _ in range(20):
            g = random_regular_point(datum, rng)
            nu = Weight(tuple(2 * rng.randrange(0, 3) for _ in range(datum.rank)))
            cases.append((nu, g, weyl_group(datum), positive_roots(datum)))
    worst = max(
        abs(ab_fixed_sum(nu, g, group, pos) - char_quotient(nu + rho(pos), g, group, pos))
        for nu, g, group, pos in cases
    )
    return CheckResult("fixed-point-vs-quotient", worst <= 1e-9, f"max residual = {worst:.3e}")


def check_dual_path(presets=None) -> CheckResult:
    selected = _use(presets, "sl2r", "su21", "sp4r", "compact(A2)")
    if not selected:
        return _na("dual-path")
    worst = 0.0
    rng = random.Random(2024)
    for preset in selected:
        spec = real_form(preset)
        keys = small_keys(spec, 5)
        for _ in range(50):
            g = random_regular_point(spec.datum, rng)
            for key in keys:
                worst = max(worst, tau_generator(spec, key, g).agreement)
    return CheckResult("dual-path", worst <= 1e-10, f"max |path_a - path_b| = {worst:.3e}")


def check_dolbeault_route(presets=None) -> CheckResult:
    # third route to tau: the fixed-point sum of the line-bundle model with
    # twisting weight lambda - rho_n over the compact Weyl group
    all_cases = {"sl2r": (4,), "su21": (2, 2), "sp4r": (2, 1), "compact(A2)": (2, 0)}
    selected = _use(presets, *all_cases)
    if not selected:
        return _na("dolbeault-route")
    worst = 0.0
    for preset in selected:
        spec = real_form(preset)
        key = generator_key(spec, Weight(all_cases[preset]))
        m = spec.dim_gk // 2
        nu = key.lam - rho_n(spec)
        rng = random.Random(23)
        for _ in range(15):
            g = random_regular_point(spec.datum, rng)
            tau = tau_generator(spec, key, g).value
            local = (-1) ** m * spec.spin_sign * ab_fixed_sum(
                nu, g, weyl_k(spec), spec.positive_system
            )
            worst = max(worst, abs(tau - local))
    return CheckResult("dolbeault-route", worst <= 1e-10, f"max |tau - fixed-point sum| = {worst:.3e}")


def check_wk_invariance(presets=None) -> CheckResult:
    selected = _use(presets, "su21", "sp4r", "compact(A2)")
    if not selected:
        return _na("wk-conjugation-invariance")
    for preset in selected:
        spec = real_form(preset)
        key = small_keys(spec, 3)[-1]
        rng = random.Random(13)
        for _ in range(8):
            g = random_regular_point(spec.datum, rng)
            base = tau_generator(spec, key, g).value
            for u in weyl_k(spec):
                moved = tau_generator(spec, key, weyl_act_point(u, g)).value
                if abs(moved - base) > 1e-12 * max(1.0, abs(base)):
                    return CheckResult("wk-conjugation-invariance", False, preset)
    return CheckResult("wk-conjugation-invariance", True, "tau(lam, u.g) = tau(lam, g) for u in W_K")


def check_linearity(presets=None) -> CheckResult:
    selected = _use(presets, "su21", "sl2r")
    if not selected:
        return _na("tau-linearity")
    for preset in selected:
        spec = real_form(preset)
        keys = small_keys(spec, 4)
        x = KClass.generator(keys[0], 2) + KClass.generator(keys[2], -3)
        y = KClass.generator(keys[1]) + KClass.generator(keys[0], -1)
        rng = random.Random(14)
        for _ in range(10):
            g = random_regular_point(spec.datum, rng)
            d = ConjugacyDescriptor.elliptic(g)
            lhs = tau_class(spec, x + y, d)
            rhs = tau_class(spec, x, d) + tau_class(spec, y, d)
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
                return CheckResult("tau-linearity", False, f"additivity fails on {preset}")
    return CheckResult("tau-linearity", True, "tau(x+y) = tau(x) + tau(y)")


def check_selberg_vanishing(presets=None) -> CheckResult:
    selected = _use(presets, "sl2r", "su21")
    if not selected:
        return _na("selberg-vanishing")
    rng = random.Random(3)
    for preset in selected:
        spec = real_form(preset)
        keys = small_keys(spec, 6)
        for _ in range(100):
            x = random_class(keys, rng)
            if tau_class(spec, x, ConjugacyDescriptor.non_elliptic()) != 0:
                return CheckResult("selberg-vanishing", False, "non-elliptic not exactly zero")
            if tau_class(spec, x, ConjugacyDescriptor.unequal_rank_ambient()) != 0:
                return CheckResult("selberg-vanishing", False, "unequal-rank not exactly zero")
    return CheckResult("selberg-vanishing", True, "exact zero on non-elliptic and unequal-rank classes")


def check_injectivity(presets=None) -> CheckResult:
    selected = _use(presets, "sl2r", "su21")
    if not selected:
        return _na("dirac-injectivity")
    rng = random.Random(9)
    most_samples = 0
    for preset in selected:
        spec = real_form(preset)
        keys = small_keys(spec, 6)
        for _ in range(100):
            x = random_class(keys, rng)
            verdict = class_is_zero(spec, x, samples=20, seed=rng.randrange(10**6))
            if verdict.is_zero:
                return CheckResult("dirac-injectivity", False, f"false zero verdict on {preset}")
            most_samples = max(most_samples, verdict.samples_used)
    if not class_is_zero(real_form(selected[0]), KClass.zero()).is_zero:
        return CheckResult("dirac-injectivity", False, "zero class not verdict zero")
    return CheckResult(
        "dirac-injectivity",
        True,
        f"{100 * len(selected)} random classes witnessed nonzero "
        f"(worst case {most_samples} samples); zero class verdict zero",
    )


def check_coset_partition(presets=None) -> CheckResult:
    selected = _use(presets, *PRESET_NAMES)
    if not selected:
        return _na("coset-partition")
    for preset in selected:
        spec = real_form(preset)
        group = weyl_group(spec.datum)
        tiles = set()
        total = 0
        for v in coset_reps(spec):
            for u in weyl_k(spec):
                tiles.add(_matmul(u.matrix, v.matrix))
                total += 1
        if total != group.order or tiles != {w.matrix for w in group}:
            return CheckResult("coset-partition", False, preset)
    return CheckResult("coset-partition", True, "W_K translates of the reps tile W_G exactly")


def check_stable_invariance(presets=None) -> CheckResult:
    all_cases = {"sl2r": [(0,), (4,), (6,)], "su21": [(2, 0), (2, 2)]}
    selected = _use(presets, *all_cases)
    if not selected:
        return _na("stable-invariance")
    worst = 0.0
    for preset in selected:
        spec = real_form(preset)
        for coords in all_cases[preset]:
            x = KClass.generator(generator_key(spec, Weight(coords)))
            for g in _points(spec.datum, 7, 10):
                base = stable_tau(spec, x, g)
                for w in weyl_group(spec.datum):
                    worst = max(worst, abs(stable_tau(spec, x, weyl_act_point(w, g)) - base))
    return CheckResult("stable-invariance", worst <= 1e-12, f"max |stable(w.g)-stable(g)| = {worst:.3e}")


def check_packet_stable(presets=None) -> CheckResult:
    all_cases = {"sl2r": [(0,), (6,)], "su21": [(2, 0), (2, 2)], "sp4r": [(0, 3)]}
    selected = _use(presets, *all_cases)
    if not selected:
        return _na("packet-stable-agreement")
    worst = 0.0
    for preset in selected:
        spec = real_form(preset)
        for coords in all_cases[preset]:
            key = generator_key(spec, Weight(coords))
            lam_hc = hc_parameter(spec, key)
            for g in _points(spec.datum, 7, 10):
                worst = max(
                    worst,
                    abs(lpacket_sum(spec, lam_hc, g) - stable_tau(spec, KClass.generator(key), g)),
                )
    return CheckResult("packet-stable-agreement", worst <= 1e-10, f"max residual = {worst:.3e}")


def continuity_direction(spec, rng, min_pairing: float = 0.25) -> TorusPoint:
    """Random ray direction with every root pairing bounded away from zero.

    Near-degenerate pairings push the alternating numerator into float noise at
    the smallest scales, so directions are redrawn until well-conditioned.
    """
    for _ in range(500):
        cand = TorusPoint.real_point(rng.uniform(0.4, 1.0) for _ in range(spec.rank))
        if min_root_phase(spec.datum, cand) >= min_pairing:
            return cand
    raise ValidationError("could not draw a well-conditioned direction")


# (preset, generator, start scale).  Start scales grow with the positive-root
# count: the numerator vanishes to order |R^+| at the identity, so tiny scales
# would drown in rounding noise.
CONTINUITY_CASES = (
    ("sl2r", (0,), 1e-2),
    ("sl2r", (6,), 1e-2),
    ("su21", (2, 2), 5e-2),
    ("sp4r", (0, 3), 2e-1),
    ("compact(A1)", (2,), 1e-2),
)


def check_continuity(presets=None) -> CheckResult:
    selected = _use(presets, "sl2r", "su21", "sp4r", "compact(A1)")
    if not selected:
        return _na("continuity-at-identity")
    cases = [case for case in CONTINUITY_CASES if case[0] in selected]
    rng = random.Random(8)
    limits = {}
    # three rounds of one direction per case, all drawn from one generator
    for _ in range(3):
        for preset, coords, start in cases:
            spec = real_form(preset)
            x = KClass.generator(generator_key(spec, Weight(coords)))
            report = continuity_check(spec, x, continuity_direction(spec, rng), start_scale=start)
            # |limit| within 1e-10 of a zero tau_e, else within 1e-6 of |tau_e|:
            # never looser than report.passed
            if report.deviation > (1e-6 if report.tau_e_value else 1e-10):
                return CheckResult(
                    "continuity-at-identity",
                    False,
                    f"{preset} {coords}: |limit|={abs(report.limit.extrapolated):.8f} "
                    f"vs tau_e={report.tau_e_value}",
                )
            limits[preset, coords] = report.tau_e_value
    details = [f"{preset}{coords}->|{float(v)}|" for (preset, coords), v in limits.items()]
    return CheckResult("continuity-at-identity", True, "; ".join(details))


def check_formal_degree_consistency(presets=None) -> CheckResult:
    selected = _use(presets, "sl2r", "su21", "compact(A2)")
    if not selected:
        return _na("formal-degree-consistency")
    for preset in selected:
        spec = real_form(preset)
        if spec.rank == 1:
            for n in range(6):
                if formal_degree(spec, Weight((2 * n,))) != n:
                    return CheckResult("formal-degree-consistency", False, f"{preset} n={n}")
        else:
            r = rho(positive_roots(spec.datum))
            for coords in ((0, 0), (2, 0), (2, 2)):
                lam = Weight(coords)
                if formal_degree(spec, lam + r) != weyl_dim(spec.datum, lam):
                    return CheckResult("formal-degree-consistency", False, f"{preset} {coords}")
    return CheckResult("formal-degree-consistency", True, "product formula matches the dimension oracle")


def check_char_identity(presets=None) -> CheckResult:
    selected = _use(presets, "sl2r", "su21", "sp4r")
    if not selected:
        return _na("character-identity")
    worst = 0.0
    for preset in selected:
        spec = real_form(preset)
        rng = random.Random(10)
        for _ in range(50):
            g = random_regular_point(spec.datum, rng)
            nu = Weight(tuple(2 * rng.randrange(-2, 3) for _ in range(spec.rank)))
            worst = max(worst, char_identity_check(spec, nu, g))
    return CheckResult("character-identity", worst <= 1e-10, f"max residual = {worst:.3e}")


def check_lds_signs(presets=None) -> CheckResult:
    if not _use(presets, "sl2r"):
        return _na("lds-system-signs")
    spec = real_form("sl2r")
    pos = spec.positive_system
    rng = random.Random(21)
    for _ in range(10):
        g = random_regular_point(spec.datum, rng)
        plus = lds_character(spec, Weight((0,)), pos, g)
        minus = lds_character(spec, Weight((0,)), negated_system(pos), g)
        if abs(abs(plus) - abs(minus)) > 1e-12 or abs(plus + minus) > 1e-12:
            return CheckResult("lds-system-signs", False, "pairwise sign relation fails")
        if abs(lds_character_sum(spec, Weight((0,)), [pos, negated_system(pos)], g)) > 1e-12:
            return CheckResult("lds-system-signs", False, "reducible induced character nonzero on T")
    return CheckResult("lds-system-signs", True, "|lds| independent of the system; pair sum vanishes")


# preset: (generator labels, expected K-type dimensions)
TANNAKA_CASES = {
    "compact(A1)": (((0,), (2,), (4,)), (1, 2, 3)),
    "su21": (((0, 0), (2, 0), (0, 2)), (1, 2, 1)),
    "sl2r": (((0,), (2,), (4,)), (1, 1, 1)),
}


def check_tannaka(presets=None) -> CheckResult:
    selected = _use(presets, *TANNAKA_CASES)
    if not selected:
        return _na("tannaka-round-trip")
    for preset in selected:
        spec = real_form(preset)
        coords, dims = TANNAKA_CASES[preset]
        labels = [Weight(c) for c in coords]
        report = run_reconstruction(spec, [generator_key(spec, lab) for lab in labels])
        expected = {
            "dims": dict(zip(labels, dims)),
            "reference_label": labels[0],
            "highest_weights": {lab: lab for lab in labels},
            "noncompact_weights": {canonical_sign(a) for a in spec.noncompact_positive},
            "spin_power": len(spec.noncompact_positive),
        }
        for field, want in expected.items():
            if getattr(report, field) != want:
                return CheckResult("tannaka-round-trip", False, f"{preset} {field} wrong")
    return CheckResult(
        "tannaka-round-trip",
        True,
        "dims, reference labels, weights, noncompact sets and spin powers recovered",
    )


def check_serialization() -> CheckResult:
    spec = real_form("su21")
    key = generator_key(spec, Weight((2, 0)))
    if key_from_json(spec, key_to_json(key)) != key:
        return CheckResult("serialization-round-trip", False, "generator key")
    return CheckResult("serialization-round-trip", True, "generator keys round-trip")


def check_compact_generators(presets=None) -> CheckResult:
    selected = _use(presets, "compact(A1)", "compact(A2)")
    if not selected:
        return _na("compact-generators")
    for preset in selected:
        spec = real_form(preset)
        r = rho(positive_roots(spec.datum))
        span = range(0, 6, 2)
        lams = [Weight((a,)) for a in span] if spec.rank == 1 else [
            Weight((a, b)) for a in span for b in span
        ]
        for lam in lams:
            try:
                key = generator_key(spec, lam)
            except ValidationError:
                return CheckResult("compact-generators", False, f"{preset} rejected {lam}")
            if hc_parameter(spec, key) != lam + r:
                return CheckResult("compact-generators", False, f"{preset} parameter of {lam}")
    return CheckResult(
        "compact-generators", True, "dominant integral weights index compact presets; HC = lam + rho"
    )


def check_dims_scale_invariance(presets=None) -> CheckResult:
    if not _use(presets, "compact(A1)"):
        return _na("dims-scale-invariance")
    from .tannaka import recover_dims, synth_family

    spec = real_form("compact(A1)")
    keys = [generator_key(spec, Weight((2 * k,))) for k in range(3)]
    family = synth_family(spec, keys)
    dims = recover_dims(family)
    factor = [1.7 + 0.3 * math.cos(i) for i in range(len(family.grid))]
    scaled = family._replace(
        values={
            lab: tuple(v * f for v, f in zip(vals, factor))
            for lab, vals in family.values.items()
        },
    )
    if recover_dims(scaled) != dims:
        return CheckResult("dims-scale-invariance", False, "common factor changed the dims")
    return CheckResult("dims-scale-invariance", True, "ratio limits ignore a common factor")


def check_fourier_extraction(presets=None) -> CheckResult:
    if not _use(presets, "compact(A2)"):
        return _na("fourier-extraction")
    from .tannaka import fourier_multiplicities, recover_characters, recover_dims, synth_family

    spec = real_form("compact(A2)")
    keys = [generator_key(spec, Weight(c)) for c in ((0, 0), (2, 2))]
    family = synth_family(spec, keys, axis_count=24)
    chars = recover_characters(family, recover_dims(family))
    table = fourier_multiplicities(family, chars.char_lattice[Weight((2, 2))], bound=4)
    expected = weight_multiplicities(spec.datum, Weight((2, 2)))
    if table != expected:
        return CheckResult("fourier-extraction", False, "adjoint multiplicities differ")
    return CheckResult("fourier-extraction", True, "grid Fourier table matches the Freudenthal oracle")


def check_cli_determinism() -> CheckResult:
    import contextlib
    import io

    from .cli import main as cli_main

    def run_once() -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(["tau", "--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/7"])
        if code != 0:
            raise ValidationError("tau subcommand failed")
        return buffer.getvalue()

    first, second = run_once(), run_once()
    if first != second:
        return CheckResult("cli-determinism", False, "outputs differ between identical runs")
    json.loads(first)
    return CheckResult("cli-determinism", True, "byte-identical valid JSON on repeated runs")


def check_eval_modulus() -> CheckResult:
    rng = random.Random(22)
    datum = build_datum("B2")
    worst = 0.0
    for _ in range(50):
        g = random_regular_point(datum, rng)
        lam = Weight(tuple(rng.randrange(-9, 10) for _ in range(2)))
        worst = max(worst, abs(abs(eval_weight(lam, g)) - 1))
    return CheckResult("exponential-modulus", worst <= 1e-15, f"max | |e^lam| - 1 | = {worst:.2e}")


ALL_CHECKS = (
    check_weyl_orders,
    check_sign_length,
    check_multiplicity_totals,
    check_pairing_invariance,
    check_denominator_formula,
    check_numerator_antisymmetry,
    check_wedge_identity,
    check_char_oracle,
    check_ab_vs_quotient,
    check_dual_path,
    check_dolbeault_route,
    check_wk_invariance,
    check_linearity,
    check_selberg_vanishing,
    check_injectivity,
    check_coset_partition,
    check_stable_invariance,
    check_packet_stable,
    check_continuity,
    check_formal_degree_consistency,
    check_char_identity,
    check_lds_signs,
    check_tannaka,
    check_serialization,
    check_compact_generators,
    check_dims_scale_invariance,
    check_fourier_extraction,
    check_cli_determinism,
    check_eval_modulus,
)


def run_checks(names: list[str] | None = None, presets: list[str] | None = None) -> list[CheckResult]:
    selected = ALL_CHECKS
    if names:
        wanted = set(names)
        selected = [
            c
            for c in ALL_CHECKS
            if c.__name__.removeprefix("check_") in wanted or c.__name__ in wanted
        ]
        if not selected:
            raise ValidationError(f"no checks match {names}")
    results = []
    for check in selected:
        start = time.perf_counter()
        if presets is not None and "presets" in inspect.signature(check).parameters:
            result = check(presets=presets)
        else:
            result = check()
        results.append(result._replace(seconds=time.perf_counter() - start))
    return results
