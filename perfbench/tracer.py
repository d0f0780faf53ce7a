"""Spans around satsched's public functions, installed from outside the package.

Each traced function is replaced, for the length of a traced pass, at every
module global of the package that refers to it (``harness.exhaustive``,
``cdi_sched.phase1_outage``, ``cli.run_experiment``, ...), which is where
its callers look it up.  The package's source is never changed.

A span is ``(name, start, end, parent span, op id)``.  Self time is the
span's duration minus the time its direct child spans cover; it is summed
per function as the spans close, so memory stays flat however long the run.
Whole spans are kept only while ``keep_spans`` is set.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, counters read off the return value)
SPANNED = (
    ("cli", "main", ()),
    ("harness", "run_experiment", ()),
    ("harness", "emit", ()),
    ("csi_sched", "exhaustive", (("subsets", lambda r: r.stats.candidates_examined),)),
    ("csi_sched", "gius", (("candidates", lambda r: r.stats.candidates_examined),
                           ("backtracks", lambda r: r.stats.backtracks))),
    ("csi_sched", "lbus", (("candidates", lambda r: r.stats.candidates_examined),)),
    ("csi_sched", "determine_k", ()),
    ("csi_sched", "baseline_tdma", ()),
    ("csi_sched", "baseline_opportunistic", ()),
    ("csi_bounds", "feasibility_check", ()),
    ("csi_bounds", "sum_rate_bounds", ()),
    ("rate_core", "throughput_power_split", ()),
    ("rate_core", "evaluate_schedule", ()),
    ("channel", "sample_sr_snr", (("draws", len),)),
    ("channel", "sample_rayleigh_snr", ()),
    ("outage", "monte_carlo_outage", (("trials", lambda r: r.mc_stats.trials),)),
    ("outage", "phase1_outage", ()),
    ("outage", "phase2_outage", ()),
    ("cdi_sched", "exhaustive_groups", (("evaluations", lambda r: r.evaluations),)),
    ("cdi_sched", "aoius", (("evaluations", lambda r: r.evaluations),
                            ("sweeps", lambda r: len(r.trace) - 1))),
    ("cdi_sched", "find_zero_h", ()),
    ("cdi_sched", "solve_theorem3", (("iterations", lambda r: r.iterations),)),
)
# tiny and called in inner loops: counted, not timed
COUNTED = (
    ("rate_core", "max_supported_users"),
    ("harness", "trial_rng"),
    ("cdi_sched", "h_function"),
)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child time, span id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.parents = Counter()  # (parent name, name) -> calls
        self.labelled = Counter()  # (name, label) -> calls
        self.counts = Counter()  # "<name>.<counter>" -> total
        self.spans = []
        self.keep_spans = True
        self.label = None  # what the workload is running, e.g. a table name
        self.op = 0  # id of the current operation
        self._wrappers = self._make_wrappers()
        self._installed = []

    def _make_wrappers(self) -> dict:
        wrappers = {}
        for mod, fn, counters in SPANNED:
            orig = getattr(importlib.import_module(f"satsched.{mod}"), fn)
            wrappers[orig] = self._span(f"{mod}.{fn}", orig, counters)
        for mod, fn in COUNTED:
            orig = getattr(importlib.import_module(f"satsched.{mod}"), fn)
            wrappers[orig] = self._count(f"{mod}.{fn}", orig)
        return wrappers

    def _span(self, name, fn, counters):
        stack, spans = self.stack, self.spans
        calls, self_s, parents, labelled, counts = (
            self.calls, self.self_s, self.parents, self.labelled, self.counts)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = -1
            if self.keep_spans:
                span_id = len(spans)
                spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[1]
                labelled[(name, self.label)] += 1
                if parent is not None:
                    parent[1] += dur
                    parents[(parent[0], name)] += 1
                if span_id >= 0:
                    spans[span_id] = (name, t0, t1, parent[2] if parent else None, self.op)
            for key, get in counters:
                counts[f"{name}.{key}"] += get(result)
            return result

        return wrapper

    def _count(self, name, fn):
        stack, calls, parents = self.stack, self.calls, self.parents

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack:
                parents[(stack[-1][0], name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Point every package global that names a traced function at its wrapper."""
        for mod in [m for k, m in sys.modules.items()
                    if k == "satsched" or k.startswith("satsched.")]:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in self._wrappers:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[value])

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, value = self._installed.pop()
            setattr(mod, attr, value)

    def metrics(self, passes: int, ops_by_label: Counter) -> dict:
        """Per-pass calls, self time and counters, plus the derived ratios."""
        out = {}
        for mod, fn, counters in SPANNED:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
            for key, _ in counters:
                out[f"{name}.{key}"] = self.counts[f"{name}.{key}"] / passes
        for mod, fn in COUNTED:
            out[f"{mod}.{fn}.calls"] = self.calls[f"{mod}.{fn}"] / passes

        def ratio(num, den):
            return num / den if den else 0.0

        stability = ops_by_label.get("csi_stability", 0)
        out["csi_sched.exhaustive.calls_per_trial"] = ratio(
            self.labelled[("csi_sched.exhaustive", "csi_stability")], stability)
        out["csi_sched.gius.backtracks_per_candidate"] = ratio(
            self.counts["csi_sched.gius.backtracks"], self.counts["csi_sched.gius.candidates"])
        out["csi_sched.determine_k.checks_per_call"] = ratio(
            self.parents[("csi_sched.determine_k", "csi_bounds.feasibility_check")],
            self.calls["csi_sched.determine_k"])
        out["cdi_sched.h_evals_per_root"] = ratio(
            self.parents[("cdi_sched.find_zero_h", "cdi_sched.h_function")],
            self.calls["cdi_sched.find_zero_h"])
        return out

