"""Spans around steinerlab's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, wherever a steinerlab
module holds a reference to it, with a wrapper that records a span while
the tracer is active.  Calls the benchmark makes and calls between
steinerlab's modules therefore both cross a span, and a span's self time is
its duration minus the time of the spans it encloses.  Spans stay in memory
until ``raw``.  Nothing is patched unless ``install`` runs, so untraced
runs execute the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# span name -> functions it covers, as (module, attribute path)
SPANS = {
    "core.validate_complex": [("core", "validate_complex")],
    "core.validate_map": [("core", "validate_map")],
    "core.compose": [("core", "compose")],
    "core.equal_presentation": [("core", "equal_presentation")],
    "shapes.cube": [("shapes", "cube")],
    "shapes.oriental": [("shapes", "oriental")],
    "shapes.disk": [("shapes", "disk")],
    "shapes.boundary_disk": [("shapes", "boundary_disk")],
    "shapes.theta": [("shapes", "theta")],
    "shapes.wedge": [("shapes", "wedge"), ("shapes", "wedge_with_legs")],
    "shapes.oriental_via_join": [("shapes", "oriental_via_join")],
    "shapes.boundary_decomposition_check": [("shapes", "boundary_decomposition_check")],
    "shapes.top_cell_decomposition_check": [("shapes", "top_cell_decomposition_check")],
    "ops.gray_tensor": [("ops", "gray_tensor")],
    "ops.suspension": [("ops", "suspension"), ("ops", "antisuspension")],
    "ops.dual": [("ops", "dual_op"), ("ops", "dual_co"), ("ops", "dual_coop")],
    "ops.join": [("ops", "join"), ("ops", "antijoin")],
    "colimits.pushout": [("colimits", "pushout")],
    "colimits.coequalizer": [("colimits", "coequalizer")],
    "steiner.is_steiner": [("steiner", "is_steiner")],
    "steiner.atom_table": [("steiner", "atom_table")],
    "cells.compose_tables": [("cells", "compose_tables")],
    "retract.build": [
        ("retract", name)
        for name in ("section_xi", "section_q_cube", "section_ell", "zeta",
                     "theta_left_inverse", "theta_retract_into_oriental")
    ],
    "retract.verify": [("retract", "RetractionPair.verify")],
    "io.emit": [("io", "emit")],
    "io.parse": [("io", "parse")],
}
# Recorded by the runner around each CLI subprocess, not by a wrapper.
CLI_SPAN = "cli.call"
SPAN_NAMES = list(SPANS) + [CLI_SPAN]
MODULES = sorted({name.split(".")[0] for name in SPAN_NAMES})
COUNTERS = (
    "core.gens_built",
    "colimits.ambient_gens",
    "colimits.survivors",
    "colimits.attempts",
    "colimits.based",
    "io.bytes_out",
    "io.bytes_in",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[float] = []  # child time inside each open span
        self.root_s = 0.0  # time inside outermost spans
        self.durations = {name: [] for name in SPANS}
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name, fn):
        tracer = self
        count = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += took
                else:
                    tracer.root_s += took
                tracer.durations[name].append(took)
                tracer.self_s[name] += took - child
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded steinerlab module."""
        importlib.import_module("steinerlab.cli")
        modules = [m for k, m in list(sys.modules.items())
                   if k == "steinerlab" or k.startswith("steinerlab.")]
        for name, targets in SPANS.items():
            for module, path in targets:
                owner = importlib.import_module(f"steinerlab.{module}")
                if "." in path:  # a method: patch the class once
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        core = importlib.import_module("steinerlab.core")
        complex_init = core.BasedComplex.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            complex_init(obj, *args, **kwargs)
            if tracer.active:
                tracer.counts["core.gens_built"] += obj.size

        core.BasedComplex.__init__ = counting_init

    def raw(self) -> dict:
        """Everything recorded, as JSON-ready data."""
        return {
            "durations": self.durations,
            "self_s": self.self_s,
            "counts": self.counts,
            "root_s": self.root_s,
        }


def layer_metrics(raw: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass from its raw record."""
    out = {}
    for name in SPAN_NAMES:
        durations = raw["durations"].get(name, [])
        out[f"{name}.calls"] = len(durations)
        out[f"{name}.busy_s"] = raw["self_s"].get(name, 0.0)
        out[f"{name}.p50_ms"] = 1000 * statistics.median(durations) if durations else 0.0
    for module in MODULES:
        busy = sum(out[f"{name}.busy_s"] for name in SPAN_NAMES
                   if name.startswith(module + "."))
        out[f"{module}.busy_s"] = busy
        out[f"{module}.share"] = busy / wall_s
    counts = raw["counts"]
    for name in ("core.gens_built", "colimits.ambient_gens", "colimits.survivors",
                 "io.bytes_out", "io.bytes_in"):
        out[name] = counts[name]
    attempts = counts["colimits.attempts"]
    out["colimits.based_ratio"] = counts["colimits.based"] / attempts if attempts else 0.0
    return out


def merge_raw(records: list) -> dict:
    """Add up the raw records of several processes."""
    merged = Tracer().raw()
    for rec in records:
        for name, durations in rec["durations"].items():
            merged["durations"][name] += durations
        for name, value in rec["self_s"].items():
            merged["self_s"][name] += value
        for name, value in rec["counts"].items():
            merged["counts"][name] += value
        merged["root_s"] += rec["root_s"]
    return merged


def _count_pushout(counts, args, result):
    f, g = args[0], args[1]
    counts["colimits.ambient_gens"] += f.target.size + g.target.size
    _count_colimit(counts, result)


def _count_coequalizer(counts, args, result):
    counts["colimits.ambient_gens"] += args[0].target.size
    _count_colimit(counts, result)


def _count_colimit(counts, result):
    counts["colimits.attempts"] += 1
    if result.based:
        counts["colimits.based"] += 1
        counts["colimits.survivors"] += result.complex.size


def _count_emit(counts, args, result):
    counts["io.bytes_out"] += len(result.encode("utf-8"))


def _count_parse(counts, args, result):
    counts["io.bytes_in"] += len(args[0].encode("utf-8"))


_COUNT_HOOKS = {
    "colimits.pushout": _count_pushout,
    "colimits.coequalizer": _count_coequalizer,
    "io.emit": _count_emit,
    "io.parse": _count_parse,
}
