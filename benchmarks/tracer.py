"""In-memory span tracing of the program's public functions, from outside it.

A `Recorder` replaces each traced function with a wrapper in every loaded
`orbint` module that holds it, so calls are seen wherever the program looks
the function up, including calls between functions of one module.  A span is
(name, start, end, parent); spans live in flat arrays until the run writes
them out.  Self time is a span's duration minus the union of its children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (module, function) -> counter it increments; every function listed here
# gets a span named "<layer>.<function>", where the layer is the module.
SPAN_TARGETS = {
    ("rootsys", "weyl_group"): None,
    ("realform", "weyl_k"): None,
    ("realform", "coset_reps"): None,
    ("toruschar", "weyl_numerator"): "toruschar.numerator_calls",
    ("toruschar", "weyl_denominator"): None,
    ("toruschar", "char_quotient"): None,
    ("toruschar", "delta_p_char"): None,
    ("toruschar", "guard_nonsingular"): None,
    ("toruschar", "weyl_act_point"): None,
    ("toruschar", "ab_fixed_sum"): None,
    ("ktrace", "tau_generator"): "ktrace.tau_generator_calls",
    ("ktrace", "tau_class"): None,
    ("ktrace", "lds_character"): None,
    ("ktrace", "lds_character_sum"): None,
    ("stable", "stable_tau"): None,
    ("stable", "lpacket_sum"): None,
    ("stable", "limit_at_identity"): None,
    ("stable", "continuity_check"): None,
    ("stable", "tau_e"): None,
    ("stable", "formal_degree"): None,
    ("tannaka", "synth_family"): None,
    ("tannaka", "recover_dims"): None,
    ("tannaka", "recover_characters"): None,
    ("tannaka", "recover_highest_weights"): None,
    ("tannaka", "recover_noncompact_weights"): None,
    ("tannaka", "run_reconstruction"): None,
}
# Called far too often for a span each; counted only.
COUNT_TARGETS = {("toruschar", "eval_weight"): "toruschar.eval_weight_calls"}
# Functions whose distinct results are groups or coset lists: their sizes add
# up to realform.elements_built.
GROUP_MAKERS = {("realform", "weyl_k"), ("realform", "coset_reps")}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._built: dict[int, object] = {}  # id -> result, kept alive so ids stay unique
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span (used for spans measured elsewhere)."""
        idx = len(self.name_id)
        self.name_id.append(self._nid(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def _span_wrapper(self, name: str, fn, counter: str | None, makes_group: bool):
        counts = self.counts
        built = self._built

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if makes_group and id(result) not in built:
                built[id(result)] = result
                counts["realform.elements_built"] += len(
                    getattr(result, "elements", result)
                )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded orbint module that refers to it."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "orbint" or n.startswith("orbint.")]
        wrappers = {}
        for (mod, fname), counter in SPAN_TARGETS.items():
            original = getattr(sys.modules[f"orbint.{mod}"], fname)
            wrappers[id(original)] = (original, self._span_wrapper(
                f"{mod}.{fname}", original, counter, (mod, fname) in GROUP_MAKERS
            ))
        for (mod, fname), counter in COUNT_TARGETS.items():
            original = getattr(sys.modules[f"orbint.{mod}"], fname)
            wrappers[id(original)] = (original, self._count_wrapper(counter, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_id)

    def spans(self, lo: int = 0):
        """(name, start, end, parent) of every span from index `lo` on."""
        for i in range(lo, len(self)):
            yield self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]

    def write(self, path: str, origin: float, extra: dict | None = None) -> None:
        """Spans as JSON lines [name, start, end, parent], times relative to origin."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"extra": extra or {}, "counts": dict(self.counts)}) + "\n")
            for name, s, e, p in self.spans():
                fh.write(f'["{name}", {s - origin:.7f}, {e - origin:.7f}, {p}]\n')


def self_times(spans: list[tuple[str, float, float, int]], base: int = 0) -> list[float]:
    """Self time of each span: its duration minus the part covered by its children.

    ``parent`` indices are absolute; ``base`` is the absolute index of spans[0].
    Children outside the window, or reaching past their parent, are clipped.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, s, e, p in spans:
        if p >= base:
            children.setdefault(p - base, []).append((s, e))
    out = []
    for i, (_, s, e, _p) in enumerate(spans):
        covered = 0.0
        cursor = s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, cursor), min(ce, e)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append((e - s) - covered)
    return out


def layer_totals(spans: list[tuple[str, float, float, int]], base: int = 0) -> dict[str, float]:
    """Per-span-name and per-layer sums: '<name>' -> self seconds,
    '<name>#total' -> inclusive seconds, '<layer>.self_s' -> layer self seconds."""
    out: Counter = Counter()
    for (name, s, e, _p), own in zip(spans, self_times(spans, base)):
        out[name] += own
        out[name + "#total"] += e - s
        out[name.split(".")[0] + ".self_s"] += own
    return dict(out)
