"""The two in-process workloads, tau_exact and reconstruct.

Both are closed loops with one client: the benchmark process calls the
library's public functions one operation after another, in whole passes of a
plan fixed by the seed.
"""

from __future__ import annotations

import random
import time
import types
from fractions import Fraction

import oracle
import refloop
import tracer
from common import (
    SL2R,
    SP4R,
    SU21,
    Form,
    compact,
    compact_indices,
    median,
    painted,
    percentile,
    purge_orbint,
    random_point,
    random_weight,
)

SETUP_REPEATS = 3
MIN_PASSES = 3
# Relative error allowed against the 40-digit reference, scaled by max(1, |ref|).
# Errors seen on these forms are below 1e-12; a wrong term, sign or coset
# translate moves a value by far more.
REL_TOL = 1e-9
CHECKS_PER_FORM = 2

# (form, operations per pass).  Operation counts are multiples of 3 so each
# form's classes cycle through 1, 2 and 3 generators equally; they are set so
# that every form takes a comparable share of a pass (see README.md).
TAU_FORMS = (
    (SL2R, 264),
    (SU21, 63),
    (SP4R, 48),
    (compact("A2"), 90),
    (compact("B3"), 12),
    (painted("G2", 0), 33),
    (painted("B3", 1), 9),
    (painted("B4", 0), 3),
)

# The label sets of acceptance criterion 11, as doubled fundamental coordinates.
RECON_FORMS = (
    (compact("A1"), ((0,), (2,), (4,))),
    (SU21, ((0, 0), (2, 0), (0, 2))),
    (SL2R, ((0,), (2,), (4,))),
)


def import_program() -> types.SimpleNamespace:
    import orbint  # noqa: F401
    from orbint import ktrace, realform, rootsys, stable, tannaka, toruschar

    return types.SimpleNamespace(
        ktrace=ktrace, realform=realform, rootsys=rootsys, stable=stable,
        tannaka=tannaka, toruschar=toruschar,
    )


def make_spec(P, form: Form):
    if form.preset is not None:
        return P.realform.real_form(form.preset)
    datum = P.rootsys.build_datum(form.type_name)
    roots2 = [r.coords2 for r in P.rootsys.all_roots(datum)]
    return P.realform.build_real_form(datum, compact_indices(form, roots2), name=form.label)


def build_groups(P, spec) -> None:
    P.rootsys.weyl_group(spec.datum)
    P.realform.weyl_k(spec)
    P.realform.coset_reps(spec)


def check_form(P, form: Form, spec, rd: oracle.RootData, fails: list) -> None:
    """Group orders against closed forms and the benchmark's own root data."""
    w = P.rootsys.weyl_group(spec.datum).order
    wk = P.realform.weyl_k(spec).order
    cosets = len(P.realform.coset_reps(spec))
    expected_w = oracle.weyl_order(form.type_name[0], int(form.type_name[1:]))
    expected_wk = len(rd.orbit(rd.rho(rd.compact), rd.compact))
    if (w, wk, wk * cosets) != (expected_w, expected_wk, expected_w):
        fails.append(f"{form.label}: |W|={w} |W_K|={wk} cosets={cosets}, "
                     f"expected |W|={expected_w} |W_K|={expected_wk}")
    mine = sorted(tuple(2 * f for f in rd.fund(c)) for c in rd.compact)
    theirs = sorted(tuple(a.coords2) for a in spec.compact_positive)
    if mine != theirs or spec.spin_sign != form.spin_sign or spec.lattice != form.lattice:
        fails.append(f"{form.label}: real form differs from its painting or calibration")


class Segments:
    """Per-segment per-layer totals of a traced run (one segment per setup or pass)."""

    def __init__(self, recorder):
        self.rec = recorder
        self.setups: list[dict] = []
        self.passes: list[dict] = []

    def begin(self):
        return len(self.rec), dict(self.rec.counts)

    def end(self, mark, scale: float, kind: list) -> None:
        lo, counts = mark
        totals = tracer.layer_totals(list(self.rec.spans(lo)), lo)
        out = {k: v * scale for k, v in totals.items()}
        for k, v in self.rec.counts.items():
            out[k] = v - counts.get(k, 0)
        kind.append(out)


def timed_setup(build, repeats: int, segments: Segments | None, sampler):
    """Run build() `repeats` times; return the last build's state and each
    build's reference and wall seconds."""
    state, ref_times, walls = None, [], []
    for _ in range(repeats):
        seg = segments.begin() if segments else None
        mark = sampler.mark()
        state = build(segments.rec if segments else None)
        wall, ref_s = sampler.since(mark)
        ref_times.append(ref_s)
        walls.append(wall)
        if segments:
            segments.rec.uninstall()
            segments.end(seg, ref_s / wall, segments.setups)
    return state, ref_times, walls


def timed_passes(run_pass, seconds: float, segments: Segments | None, sampler):
    """Whole passes until `seconds` have gone by, and at least MIN_PASSES.

    Traced runs alternate untraced and traced passes, MIN_PASSES of each.
    Returns a list of (output, reference seconds, wall seconds, traced).
    """
    out = []
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES * (2 if segments else 1) or time.perf_counter() - start < seconds:
        traced = segments is not None and k % 2 == 1
        if traced:
            seg = segments.begin()
            segments.rec.install()
        mark = sampler.mark()
        output = run_pass(sampler)
        wall, ref_s = sampler.since(mark)
        if traced:
            segments.rec.uninstall()
            segments.end(seg, ref_s / wall, segments.passes)
        out.append((output, ref_s, wall, traced))
        k += 1
    return out


# ---------------------------------------------------------------------------
# tau_exact

def tau_plan(seed: int):
    """Seeded raw inputs: per form, (terms, point) per operation, where terms
    are (doubled weight, coefficient) pairs."""
    rng = random.Random(seed)
    plan = []
    for form, count in TAU_FORMS:
        rd = form.root_data()
        ops = []
        for k in range(count):
            size = k % 3 + 1
            weights: list[tuple[int, ...]] = []
            while len(weights) < size:
                lam2 = random_weight(form, rd, rng)
                if lam2 not in weights:
                    weights.append(lam2)
            terms = tuple((w, rng.choice((-3, -2, -1, 1, 2, 3))) for w in weights)
            ops.append((terms, random_point(rd, rng)))
        plan.append((form, rd, ops))
    order = [(f, k) for f, (_, _, ops) in enumerate(plan) for k in range(len(ops))]
    rng.shuffle(order)
    return plan, order


def run_tau_exact(seed: int, seconds: float, recorder=None) -> dict:
    plan, order = tau_plan(seed)
    segments = Segments(recorder) if recorder is not None else None

    def build(rec):
        purge_orbint()
        P = import_program()
        if rec is not None:
            rec.install()
        built = []
        for form, _rd, ops in plan:
            spec = make_spec(P, form)
            build_groups(P, spec)
            key = P.realform.generator_key
            weight = P.rootsys.Weight
            items = []
            for terms, t in ops:
                x = P.realform.KClass.from_pairs([(key(spec, weight(w)), c) for w, c in terms])
                g = P.toruschar.TorusPoint.exact_point(t)
                items.append((x, g, P.toruschar.ConjugacyDescriptor.elliptic(g)))
            built.append((spec, items))
        return P, built

    def run_pass(sampler):
        tau_class, stable_tau = P.ktrace.tau_class, P.stable.stable_tau
        results, walls = [], []
        for f, k in order:
            spec, items = built[f]
            x, g, desc = items[k]
            spent = sampler.spent
            t0 = time.perf_counter()
            a = tau_class(spec, x, desc)
            b = stable_tau(spec, x, g)
            walls.append(time.perf_counter() - t0 - (sampler.spent - spent))
            results.append((a, b))
        return results, walls

    with refloop.Sampler() as sampler:
        (P, built), setup_ref, setup_wall = timed_setup(build, SETUP_REPEATS, segments, sampler)
        passes = timed_passes(run_pass, seconds, segments, sampler)
    peak = refloop.peak_rss_mb()
    op_times: list[float] = []
    form_time = [0.0] * len(plan)
    for (_results, walls), ref_s, wall, traced in passes:
        if not traced:
            times = [w * ref_s / wall for w in walls]
            op_times.extend(times)
            for (f, _k), t in zip(order, times):
                form_time[f] += t

    # ---- checks, outside every timed region
    fails: list[str] = []
    first = passes[0][0][0]
    if any(p[0][0] != first for p in passes[1:]):
        fails.append("results differ between passes of the same plan")
    rng = random.Random(seed + 1)
    checked, worst = 0, 0.0
    tau_class = P.ktrace.tau_class
    for f, (form, rd, ops) in enumerate(plan):
        spec, items = built[f]
        check_form(P, form, spec, rd, fails)
        rho_c = rd.rho(rd.compact)
        for k in rng.sample(range(len(ops)), min(CHECKS_PER_FORM, len(ops))):
            terms, t = ops[k]
            a, b = first[order.index((f, k))]
            ref_a = sum(c * oracle.tau_reference(rd, form.spin_sign, _half(w), t) for w, c in terms)
            ref_b = sum(
                c * oracle.stable_reference(
                    rd, form.spin_sign, tuple(x + r for x, r in zip(_half(w), rho_c)), t)
                for w, c in terms
            )
            inverse = P.toruschar.TorusPoint.exact_point(-x for x in t)
            a_inv = tau_class(spec, items[k][0], P.toruschar.ConjugacyDescriptor.elliptic(inverse))
            for label, got, ref in (("tau", a, ref_a), ("stable", b, ref_b),
                                    ("tau(g^-1)", a_inv, a.conjugate())):
                err = abs(got - ref) / max(1.0, abs(ref))
                worst = max(worst, err)
                checked += 1
                if err > REL_TOL:
                    fails.append(f"{form.label} op {k} {label}: {got} vs {ref}")

    untraced = [p for p in passes if not p[3]]
    ops_per_pass = len(order)
    rates = [ops_per_pass / p[1] for p in untraced]
    total_form = sum(form_time) or 1.0
    report = {
        "passes": len(untraced),
        "ops_per_pass": ops_per_pass,
        "raw_ops_per_s": median(ops_per_pass / p[2] for p in untraced),
        "raw_setup_s": median(setup_wall),
        "setup_repeats": len(setup_ref),
        "op_p50_ms": 1e3 * percentile(op_times, 0.5) if op_times else None,
        "op_p90_ms": 1e3 * percentile(op_times, 0.9) if op_times else None,
        "op_samples": len(op_times),
        "form_share": {form.label: round(form_time[f] / total_form, 4)
                       for f, (form, _, _) in enumerate(plan)},
        "reference_checks": checked,
        "worst_rel_error": worst,
        "fails": fails,
    }
    return _result(len(order) * len(passes), fails, rates, setup_ref, peak, report, segments, passes)


def _half(coords2) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, 2) for c in coords2)


def _result(attempted, fails, rates, setup_ref, peak, report, segments, passes) -> dict:
    out = {
        "attempted": attempted,
        "failed": 0,
        "correct": not fails,
        "e2e": {
            "ops_per_s": median(rates),
            "setup_s": median(setup_ref),
            "peak_rss_mb": peak,
        },
        "report": report,
    }
    if segments is not None:
        traced = [p[1] for p in passes if p[3]]
        plain = [p[1] for p in passes if not p[3]]
        out["segments"] = segments
        out["overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)
    return out


# ---------------------------------------------------------------------------
# reconstruct

def run_reconstruct(seed: int, seconds: float, recorder=None) -> dict:
    rng = random.Random(seed)
    order = list(range(len(RECON_FORMS)))
    rng.shuffle(order)
    segments = Segments(recorder) if recorder is not None else None

    def build(rec):
        purge_orbint()
        P = import_program()
        if rec is not None:
            rec.install()
        built = []
        for form, labels in RECON_FORMS:
            spec = make_spec(P, form)
            build_groups(P, spec)
            built.append((spec, [P.realform.generator_key(spec, P.rootsys.Weight(l)) for l in labels]))
        return P, built

    def run_pass(_sampler):
        run = P.tannaka.run_reconstruction
        return [run(*built[f]) for f in order]

    with refloop.Sampler() as sampler:
        (P, built), setup_ref, setup_wall = timed_setup(build, SETUP_REPEATS, segments, sampler)
        passes = timed_passes(run_pass, seconds, segments, sampler)
    peak = refloop.peak_rss_mb()

    fails: list[str] = []
    for reports, *_ in passes:
        for f, rep in zip(order, reports):
            fails.extend(_check_reconstruction(RECON_FORMS[f], rep))
        if fails:
            break
    untraced = [p for p in passes if not p[3]]
    rates = [len(order) / p[1] for p in untraced]
    report = {
        "passes": len(untraced),
        "ops_per_pass": len(order),
        "form_order": [RECON_FORMS[f][0].label for f in order],
        "raw_ops_per_s": median(len(order) / p[2] for p in untraced),
        "raw_setup_s": median(setup_wall),
        "setup_repeats": len(setup_ref),
        "fails": fails,
    }
    return _result(len(order) * len(passes), fails, rates, setup_ref, peak, report, segments, passes)


def _canonical(coords2) -> tuple[int, ...]:
    for c in coords2:
        if c:
            return tuple(coords2) if c > 0 else tuple(-x for x in coords2)
    return tuple(coords2)


def _check_reconstruction(case, rep) -> list[str]:
    form, labels = case
    rd = form.root_data()
    out = []
    dims = {tuple(k.coords2): v for k, v in rep.dims.items()}
    want = {l: rd.weyl_dim(_half(l), rd.compact) for l in labels}
    if dims != want:
        out.append(f"{form.label}: dims {dims} != Weyl dimensions {want}")
    hw = {tuple(k.coords2): tuple(v.coords2) for k, v in rep.highest_weights.items()}
    if hw != {l: l for l in labels}:
        out.append(f"{form.label}: highest weights {hw} != labels")
    nc = {tuple(w.coords2) for w in rep.noncompact_weights}
    want_nc = {_canonical(tuple(2 * f for f in rd.fund(c))) for c in rd.noncompact}
    if nc != want_nc:
        out.append(f"{form.label}: noncompact weights {nc} != {want_nc}")
    return out
