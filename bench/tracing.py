"""Spans recorded from the benchmark's side around calls into ivpaudit.

``instrument`` swaps selected package functions for wrappers that record a
span (name, start, end, parent, job) or bump a counter, in every ivpaudit
module that holds a reference to them, and restores the originals on exit.
The package itself is not edited.  Spans stay in memory and are written out
when the run ends; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from statistics import median

MB = 1e6

#: (module, function, span name).  Nested calls become child spans, so a
#: span's self time excludes the wrapped functions it calls.
SPANS = (
    ("sysmodel", "load_system", "sysmodel.load"),
    ("sysmodel", "load_structure", "sysmodel.load"),
    ("obsv", "stacked_maps", "obsv.stacked_maps"),
    ("obsv", "build_bundle", "obsv.build_bundle"),
    ("obsv", "numerical_rank", "obsv.numerical_rank"),
    ("intrinsic", "node_private", "intrinsic.node_private"),
    ("intrinsic", "privacy_index", "intrinsic.privacy_index"),
    ("intrinsic", "whole_vector_private", "intrinsic.whole_vector"),
    ("intrinsic", "privacy_index_bruteforce", "intrinsic.bruteforce"),
    ("dp", "effective_covariance", "dp.effective_covariance"),
    ("dp", "check_dp", "dp.check_dp"),
    ("dp", "delta_min", "dp.delta_min"),
    ("dp", "calibrate_sigma_omega", "dp.calibrate"),
    ("generic", "estimate_generic_rank", "generic.estimate"),
    ("generic", "generic_node_privacy", "generic.node"),
    ("sim", "_draw_noise", "sim.draw_noise"),
    ("sim", "simulate", "sim.simulate"),
    ("sim", "mle_attack", "sim.mle_attack"),
    ("sim", "empirical_dp_report", "sim.probe"),
)

#: Called thousands of times per job: counted, not spanned.
COUNTERS = (
    ("intrinsic", "_evaluate_node", "intrinsic.bruteforce_node_tests", "intrinsic.bruteforce"),
    ("generic", "_sampled_system", "generic.samples_drawn", None),
)

MODULES = ("ivpaudit", "ivpaudit.sysmodel", "ivpaudit.obsv", "ivpaudit.intrinsic", "ivpaudit.dp",
           "ivpaudit.generic", "ivpaudit.sim", "ivpaudit.cli")


class Tracer:
    """Spans as [id, parent, job, name, start, end, attrs] plus named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.stack: list = []
        self.job: str | None = None

    def under(self, prefixes) -> bool:
        """True when an open span's name starts with ``prefixes`` (a string or tuple)."""
        return any(self.spans[s][3].startswith(prefixes) for s in self.stack)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self.stack[-1] if self.stack else None, self.job, name,
               time.perf_counter(), None, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        try:
            yield rec
        finally:
            self.stack.pop()
            rec[5] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                rec[6] = _attrs(self, name, args, kwargs, result)
            return result

        return wrapper

    def count(self, counter: str, only_inside: str | None, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_inside is None or self.under(only_inside):
                self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper


def _attrs(tracer: Tracer, name: str, args, kwargs, result):
    if name == "obsv.stacked_maps":
        built = result[1].nbytes
        # Callers in intrinsic and generic read only O_ob.
        unread = built if tracer.under(("intrinsic.", "generic.")) else 0
        return {"H_T_bytes": built, "H_T_unread_bytes": unread}
    if name == "sim.draw_noise":
        return {"trajectories": int(args[1] if len(args) > 1 else kwargs["N"])}
    if name == "sim.simulate":
        return {"VW_bytes": result.V.nbytes + result.W.nbytes}
    return None


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the package's calls through the tracer's wrappers while active."""
    modules = [importlib.import_module(m) for m in MODULES]
    swaps = {}
    for mod, fn, name in SPANS:
        orig = getattr(importlib.import_module(f"ivpaudit.{mod}"), fn)
        swaps[id(orig)] = (orig, tracer.wrap(name, orig))
    for mod, fn, counter, only_inside in COUNTERS:
        orig = getattr(importlib.import_module(f"ivpaudit.{mod}"), fn)
        swaps[id(orig)] = (orig, tracer.count(counter, only_inside, orig))
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in swaps and swaps[id(value)][0] is value:
                setattr(mod, attr, swaps[id(value)][1])
                patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit, in the order reported.
LAYER_UNITS = {
    "setup.import_ms": "ms",
    "setup.import_scipy_stats_ms": "ms",
    "setup.load_ms": "ms",
    "setup.warmup_ms": "ms",
    "sysmodel.load_calls": "count",
    "sysmodel.load_ms": "ms",
    "obsv.build_bundle_calls": "count",
    "obsv.build_bundle_ms": "ms",
    "obsv.H_T_mb_built": "MB",
    "obsv.H_T_mb_unread": "MB",
    "obsv.numerical_rank_calls": "count",
    "obsv.numerical_rank_ms": "ms",
    "intrinsic.node_private_ms": "ms",
    "intrinsic.privacy_index_ms": "ms",
    "intrinsic.whole_vector_ms": "ms",
    "intrinsic.bruteforce_ms": "ms",
    "intrinsic.bruteforce_node_tests": "count",
    "dp.effective_covariance_calls": "count",
    "dp.effective_covariance_ms": "ms",
    "dp.check_dp_ms": "ms",
    "dp.delta_min_ms": "ms",
    "dp.calibrate_ms": "ms",
    "generic.samples_drawn": "count",
    "generic.estimate_calls": "count",
    "generic.estimate_ms": "ms",
    "generic.node_ms": "ms",
    "sim.trajectories": "count",
    "sim.draw_noise_ms": "ms",
    "sim.us_per_trajectory": "us",
    "sim.VW_mb_stored": "MB",
    "sim.simulate_ms": "ms",
    "sim.mle_attack_ms": "ms",
    "sim.probe_ms": "ms",
    "cli.self_ms": "ms",
    "trace.spans": "count",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def pass_metrics(tracer: Tracer, first_span: int, counters: dict) -> dict:
    """Layer metrics of the spans recorded since ``first_span`` (one pass)."""
    spans = tracer.spans[first_span:]
    child_time: dict = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[5] - s[4]
    total: dict = defaultdict(float)  # name -> inclusive seconds
    own: dict = defaultdict(float)  # name -> self seconds
    calls: dict = defaultdict(int)
    attrs: dict = defaultdict(int)
    vw_by_job: dict = defaultdict(int)
    for s in spans:
        dur = s[5] - s[4]
        total[s[3]] += dur
        own[s[3]] += dur - child_time[s[0]]
        calls[s[3]] += 1
        for key, value in (s[6] or {}).items():
            attrs[key] += value
        if s[3] == "sim.simulate":
            vw_by_job[s[2]] += s[6]["VW_bytes"]
    trajectories = attrs["trajectories"]
    ms = 1e3
    return {
        "sysmodel.load_calls": calls["sysmodel.load"],
        "sysmodel.load_ms": total["sysmodel.load"] * ms,
        "obsv.build_bundle_calls": calls["obsv.build_bundle"],
        "obsv.build_bundle_ms": total["obsv.build_bundle"] * ms,
        "obsv.H_T_mb_built": attrs["H_T_bytes"] / MB,
        "obsv.H_T_mb_unread": attrs["H_T_unread_bytes"] / MB,
        "obsv.numerical_rank_calls": calls["obsv.numerical_rank"],
        "obsv.numerical_rank_ms": total["obsv.numerical_rank"] * ms,
        "intrinsic.node_private_ms": own["intrinsic.node_private"] * ms,
        "intrinsic.privacy_index_ms": own["intrinsic.privacy_index"] * ms,
        "intrinsic.whole_vector_ms": own["intrinsic.whole_vector"] * ms,
        "intrinsic.bruteforce_ms": total["intrinsic.bruteforce"] * ms,
        "intrinsic.bruteforce_node_tests": counters.get("intrinsic.bruteforce_node_tests", 0),
        "dp.effective_covariance_calls": calls["dp.effective_covariance"],
        "dp.effective_covariance_ms": total["dp.effective_covariance"] * ms,
        "dp.check_dp_ms": own["dp.check_dp"] * ms,
        "dp.delta_min_ms": own["dp.delta_min"] * ms,
        "dp.calibrate_ms": own["dp.calibrate"] * ms,
        "generic.samples_drawn": counters.get("generic.samples_drawn", 0),
        "generic.estimate_calls": calls["generic.estimate"],
        "generic.estimate_ms": total["generic.estimate"] * ms,
        "generic.node_ms": own["generic.node"] * ms,
        "sim.trajectories": trajectories,
        "sim.draw_noise_ms": total["sim.draw_noise"] * ms,
        "sim.us_per_trajectory": total["sim.simulate"] * 1e6 / trajectories if trajectories else 0.0,
        "sim.VW_mb_stored": max(vw_by_job.values(), default=0) / MB,
        "sim.simulate_ms": own["sim.simulate"] * ms,
        "sim.mle_attack_ms": own["sim.mle_attack"] * ms,
        "sim.probe_ms": own["sim.probe"] * ms,
        "cli.self_ms": own["cli.main"] * ms,
        "trace.spans": len(spans),
    }


def median_metrics(per_pass: list) -> dict:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}


def dump(tracer: Tracer, path: str) -> None:
    keys = ("id", "parent", "job", "name", "start", "end", "attrs")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [dict(zip(keys, s)) for s in tracer.spans], "counters": dict(tracer.counters)}, fh)
