"""Layer tracing for the benchmark, installed from outside the package.

Wrappers replace the traced functions under every name that refers to them:
module attributes across ``adelic_volumes.*`` (so ``from .positivity import
avol`` in another module is caught too) and entries in class dictionaries
(so aliases such as ``ConcavePA.__add__ = add`` are caught).  ``uninstall``
puts every original object back, and ``namespace_snapshot`` lets a caller
check that it did.

Each wrapped call records one span: id, parent id, op id, name, start, end,
and the exact-field work done directly under it.  ``ExactNumber`` operators
are far too frequent for one span each, so they are aggregated as a count
and a time on the span that is open when they run.  A span's self time is
its duration minus the time covered by its child spans and by the
exact-field operators it ran directly.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from collections import defaultdict

# (owner path, attribute, span name).  Owners are resolved lazily, so a
# later refactor that removes a target only makes its metrics read 0.
SPAN_TARGETS = (
    ("pa", "convex_envelope", "pa.convex_envelope"),
    ("pa", "pointwise_min_concave", "pa.pointwise_min_concave"),
    ("pa", "legendre_roof", "pa.legendre_roof"),
    ("pa", "legendre_potential", "pa.legendre_potential"),
    ("pa", "integrate_positive_part", "pa.integrate_positive_part"),
    ("pa.ConcavePA", "integrate", "pa.ConcavePA.integrate"),
    ("pa.ConcavePA", "add", "pa.ConcavePA.add"),
    ("pa.ConcavePA", "restrict", "pa.ConcavePA.restrict"),
    ("pa.ConcavePA", "scale", "pa.ConcavePA.scale"),
    ("divisors.Pair", "global_roof", "divisors.global_roof"),
    ("positivity", "avol", "positivity.avol"),
    ("positivity", "is_big", "positivity.is_big"),
    ("positivity", "is_pseff", "positivity.is_pseff"),
    ("positivity", "pseff_threshold", "positivity.pseff_threshold"),
    ("positivity", "zariski_positive_part", "positivity.zariski_positive_part"),
    ("positivity", "adeg_product", "positivity.adeg_product"),
    ("positivity", "nef_decomposition", "positivity.nef_decomposition"),
    ("positivity", "positive_intersection", "positivity.positive_intersection"),
    ("positivity", "positive_intersection_lower",
     "positivity.positive_intersection_lower"),
    ("harness", "run_suite", "harness.run_suite"),
    ("harness", "sample_convex_potential", "harness.sample_convex_potential"),
    ("harness", "sample_divisor", "harness.sample_divisor"),
    ("harness", "sample_big_pair", "harness.sample_big_pair"),
    ("harness", "sample_nef_divisor", "harness.sample_nef_divisor"),
    ("harness", "sample_direction", "harness.sample_direction"),
    ("harness", "sample_derivative_instance", "harness.sample_derivative_instance"),
    ("harness", "check_differentiability", "harness.check_differentiability"),
    ("harness", "diskant_report", "harness.diskant_report"),
    ("sections", "section_box", "sections.section_box"),
    ("sections", "volume_estimate", "sections.volume_estimate"),
    ("sections.SectionBox", "log_count", "sections.log_count"),
    ("scenes", "load_scene", "scenes.load_scene"),
    ("cli", "main", "cli.main"),
)

# ExactNumber operators: + - x / (with the reflected forms and unary minus)
# and the sign decisions.  Only the outermost operator of a nest is counted.
EXACT_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
EXACT_CMP = ("sign", "__eq__", "__ne__", "__lt__", "__le__", "__gt__",
             "__ge__", "__bool__")

SAMPLERS = frozenset(name for _, _, name in SPAN_TARGETS
                     if name.startswith("harness.sample_"))

# frame slots
_NAME, _START, _CHILD, _ID, _PARENT, _AN, _AS, _CN, _CS = range(9)


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def _classes(package):
    seen = {}
    for mod in _modules(package):
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith(package.__name__):
                seen[id(val)] = val
    return list(seen.values())


def namespace_snapshot(package, mp_iv):
    """Identity snapshot of every module attribute and class attribute in
    the package, plus the interval context's ``exp``."""
    snap = {}
    for owner in _modules(package) + _classes(package):
        for name, val in list(vars(owner).items()):
            snap[(id(owner), name)] = id(val)
    snap[("iv", "exp")] = id(vars(mp_iv).get("exp"))
    return snap


class Tracer:
    """Install, record and report.  One instance per run; not reentrant
    across threads (the benchmark is single-threaded by design)."""

    def __init__(self, package, mp_iv):
        self.package = package
        self.iv = mp_iv
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.active = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._in_exact = False
        self._op_id = -1
        self._patches = []
        self._plan = self._build_plan()

    # -- installation ------------------------------------------------------

    def _sites(self, func):
        """Every (owner, attribute) in the package bound to ``func``."""
        out = []
        for owner in _modules(self.package) + _classes(self.package):
            for name, val in vars(owner).items():
                if val is func:
                    out.append((owner, name))
        return out

    def _build_plan(self):
        plan = []
        for path, attr, span in SPAN_TARGETS:
            owner = _resolve(self.package, path)
            func = None if owner is None else vars(owner).get(attr)
            if func is None:
                continue
            wrapper = self._span_wrapper(span, func)
            plan += [(o, n, func, wrapper) for o, n in self._sites(func)]
        exact_cls = _resolve(self.package, "exactnum.ExactNumber")
        for names, kind in ((EXACT_ARITH, 0), (EXACT_CMP, 1)):
            for attr in names:
                func = None if exact_cls is None else vars(exact_cls).get(attr)
                if func is not None:
                    plan.append((exact_cls, attr, func, self._exact_wrapper(kind, func)))
        exp = vars(self.iv).get("exp")
        if exp is not None:
            plan.append((self.iv, "exp", exp, self._iv_exp_wrapper(exp)))
        return plan

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, name, original, wrapper in self._plan:
            setattr(owner, name, wrapper)
            self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        frame = [name, time.perf_counter(), 0.0, self._next_id,
                 -1 if parent is None else parent[_ID], 0, 0.0, 0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self.active[name] += 1
        return frame

    def _close(self, frame, op_id):
        end = time.perf_counter()
        self._stack.pop()
        name = frame[_NAME]
        self.active[name] -= 1
        dur = end - frame[_START]
        if self._stack:
            self._stack[-1][_CHILD] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[_CHILD]
        if self.active[name] == 0:
            self.total_s[name] += dur
        if name in SAMPLERS and not any(self.active[s] for s in SAMPLERS):
            self.total_s["harness.sampler"] += dur
        self.counts["exact.arith.calls"] += frame[_AN]
        self.counts["exact.arith.s"] += frame[_AS]
        self.counts["exact.cmp.calls"] += frame[_CN]
        self.counts["exact.cmp.s"] += frame[_CS]
        self.spans.append((frame[_ID], frame[_PARENT], op_id, name,
                           frame[_START], end, frame[_AN], frame[_AS],
                           frame[_CN], frame[_CS]))
        return dur

    @contextlib.contextmanager
    def op(self, op_id, label):
        """Root span of one benchmark op."""
        self._op_id = op_id
        frame = self._open("op:" + label)
        try:
            yield
        finally:
            self._close(frame, op_id)

    def _span_wrapper(self, name, fn):
        tracer = self
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, tracer._op_id)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _exact_wrapper(self, kind, fn):
        tracer = self
        n_slot, s_slot = (_AN, _AS) if kind == 0 else (_CN, _CS)

        def wrapper(*args, **kwargs):
            if tracer._in_exact or not tracer._stack:
                return fn(*args, **kwargs)
            tracer._in_exact = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._in_exact = False
                top = tracer._stack[-1]
                top[_CHILD] += dt
                top[n_slot] += 1
                top[s_slot] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _iv_exp_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active["sections.section_box"]:
                tracer.counts["sections.iv_exp.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call hooks (run after the span closed) ---------------------------

    def _hook_pa_convex_envelope(self, args, result):
        f = args[0]
        if type(f).__name__ == "PAGeneral":
            self.counts["pa.convex_envelope.general_calls"] += 1
            self.counts["pa.convex_envelope.points_in"] += len(f.points)

    def _hook_positivity_is_pseff(self, args, result):
        if self.active["positivity.pseff_threshold"]:
            self.counts["positivity.threshold_probes"] += 1

    def _hook_positivity_pseff_threshold(self, args, result):
        self.counts["positivity.thresholds_exact"] += bool(result.exact)

    def _hook_positivity_is_big(self, args, result):
        if self.active["harness.sample_big_pair"]:
            self.counts["harness.sampler.is_big_in_big_pair"] += 1

    def _hook_positivity_avol(self, args, result):
        if self.active["harness.check_differentiability"]:
            self.counts["harness.avol_in_derivative"] += 1

    def _hook_sections_section_box(self, args, result):
        self.counts["sections.section_box.entries"] += len(result.entries)

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """The per-layer metrics, each as (value, unit)."""
        c, calls, self_s, total = self.counts, self.calls, self.self_s, self.total_s

        def ratio(num, den):
            return num / den if den else 0.0

        thresholds = calls["positivity.pseff_threshold"]
        entries = c["sections.section_box.entries"]
        return {
            "exactnum.arith.calls": (int(c["exact.arith.calls"]), "count"),
            "exactnum.arith.self_s": (c["exact.arith.s"], "s"),
            "exactnum.cmp.calls": (int(c["exact.cmp.calls"]), "count"),
            "exactnum.cmp.self_s": (c["exact.cmp.s"], "s"),
            "pa.convex_envelope.calls": (calls["pa.convex_envelope"], "count"),
            "pa.convex_envelope.general_calls":
                (int(c["pa.convex_envelope.general_calls"]), "count"),
            "pa.convex_envelope.points_in":
                (int(c["pa.convex_envelope.points_in"]), "count"),
            "pa.convex_envelope.self_s": (self_s["pa.convex_envelope"], "s"),
            "pa.pointwise_min_concave.self_s": (self_s["pa.pointwise_min_concave"], "s"),
            "pa.legendre.self_s":
                (self_s["pa.legendre_roof"] + self_s["pa.legendre_potential"], "s"),
            "pa.integrate.self_s":
                (self_s["pa.integrate_positive_part"] + self_s["pa.ConcavePA.integrate"], "s"),
            "pa.concave_ops.self_s":
                (sum(self_s["pa.ConcavePA." + m] for m in ("add", "restrict", "scale")), "s"),
            "divisors.global_roof.calls": (calls["divisors.global_roof"], "count"),
            "divisors.global_roof.self_s": (self_s["divisors.global_roof"], "s"),
            "positivity.avol.calls": (calls["positivity.avol"], "count"),
            "positivity.avol.total_s": (total["positivity.avol"], "s"),
            "positivity.pseff_threshold.calls": (thresholds, "count"),
            "positivity.pseff_threshold.total_s": (total["positivity.pseff_threshold"], "s"),
            "positivity.probes_per_threshold":
                (ratio(c["positivity.threshold_probes"], thresholds), "ratio"),
            "positivity.threshold_exact_frac":
                (ratio(c["positivity.thresholds_exact"], thresholds), "ratio"),
            "positivity.zariski.total_s": (total["positivity.zariski_positive_part"], "s"),
            "positivity.adeg_product.calls": (calls["positivity.adeg_product"], "count"),
            "positivity.adeg_product.total_s": (total["positivity.adeg_product"], "s"),
            "positivity.nef_decomposition.calls":
                (calls["positivity.nef_decomposition"], "count"),
            "harness.sampler.total_s": (total["harness.sampler"], "s"),
            "harness.sampler.is_big_per_sample":
                (ratio(c["harness.sampler.is_big_in_big_pair"],
                       calls["harness.sample_big_pair"]), "ratio"),
            "harness.diskant_report.self_s": (self_s["harness.diskant_report"], "s"),
            "harness.check_differentiability.total_s":
                (total["harness.check_differentiability"], "s"),
            "harness.avol_per_derivative":
                (ratio(c["harness.avol_in_derivative"],
                       calls["harness.check_differentiability"]), "ratio"),
            "sections.section_box.calls": (calls["sections.section_box"], "count"),
            "sections.section_box.self_s": (self_s["sections.section_box"], "s"),
            "sections.section_box.entries": (int(entries), "count"),
            "sections.boxes_per_row": (ratio(calls["sections.section_box"], ops), "ratio"),
            "sections.iv_exp.calls": (int(c["sections.iv_exp.calls"]), "count"),
            "sections.iv_exp_per_entry": (ratio(c["sections.iv_exp.calls"], entries), "ratio"),
            "sections.log_count.self_s": (self_s["sections.log_count"], "s"),
            "scenes.load_scene.self_s": (self_s["scenes.load_scene"], "s"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
        }

    def write_spans(self, path):
        """All spans as gzipped JSON lines, one object per span."""
        keys = ("id", "parent", "op", "name", "start", "end",
                "exact_arith_calls", "exact_arith_s", "exact_cmp_calls", "exact_cmp_s")
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
