"""Traced mode: wrap the public functions of each layer where their callers
look them up, record one span per call in memory, and turn the spans into the
per-layer metrics.  Nothing here changes the program's files; a wrap target
the program no longer has is reported absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# span name -> every (module, attribute) a caller reaches the function through
SITES = {
    "linalg.span_add": [("betticone.linalg", "SpanTracker.add")],
    "linalg.kernel_basis": [("betticone.resolve", "kernel_basis"), ("betticone.linalg", "kernel_basis")],
    "resolve.min_free_resolution": [("betticone", "min_free_resolution"),
                                    ("betticone.resolve", "min_free_resolution"),
                                    ("betticone.cli", "min_free_resolution")],
    "resolve.hilbert_data": [("betticone", "hilbert_data"), ("betticone.resolve", "hilbert_data"),
                             ("betticone.cli", "hilbert_data")],
    "resolve.parse_poly": [("betticone", "parse_poly"), ("betticone.resolve", "parse_poly"),
                           ("betticone.cli", "parse_poly")],
    "tables.eval_functional": [("betticone", "eval_functional"), ("betticone.cone", "eval_functional"),
                               ("betticone.resolve", "eval_functional"),
                               ("betticone.cli", "eval_functional")],
    "tables.table_arith": [("betticone", "table_arith"), ("betticone.cone", "table_arith")],
    "cone.check": [("betticone", "check_graded"), ("betticone", "check_finite_length"),
                   ("betticone.cli", "check_graded"), ("betticone.cli", "check_finite_length")],
    "cone.decompose": [("betticone", "decompose"), ("betticone.cone", "decompose")],
    "window.extreme_rays": [("betticone", "extreme_rays"), ("betticone.window", "extreme_rays")],
    "window.normalize_ray": [("betticone", "normalize_ray"), ("betticone.window", "normalize_ray")],
    "window.cross_check": [("betticone", "cross_check"), ("betticone.cli", "cross_check")],
    "cli.parse_module_text": [("betticone.cli", "parse_module_text")],
    "cli.parse_table_text": [("betticone.cli", "parse_table_text")],
    "cli.format_table_text": [("betticone.cli", "format_table_text")],
    "cli.run": [("betticone.cli", "run")],
}

# counts read off a call's arguments and result, keyed by the span they ride on
COUNTERS = {
    "linalg.span_add": lambda args, result: {"linalg.span_add.grew": result is not None},
    "linalg.kernel_basis": lambda args, result: {"linalg.kernel_basis.cells": len(args[0]) * args[1]},
    "resolve.min_free_resolution": lambda args, result: {
        "resolve.betti_total": sum(v for _, v in result.betti.items())},
    "cone.check": lambda args, result: {"cone.support_entries": len(args[0].support())},
    "cone.decompose": lambda args, result: {"cone.decompose.rounds": len(result.terms)},
    "window.extreme_rays": lambda args, result: {"window.extreme_rays.rays": len(result)},
}

# per-layer metric -> (span, calls | s (inclusive time) | self_s | a counter of COUNTERS)
METRICS = {
    "linalg.span_add.calls": ("linalg.span_add", "calls"),
    "linalg.span_add.grew": ("linalg.span_add", "linalg.span_add.grew"),
    "linalg.span_add.s": ("linalg.span_add", "s"),
    "linalg.kernel_basis.calls": ("linalg.kernel_basis", "calls"),
    "linalg.kernel_basis.cells": ("linalg.kernel_basis", "linalg.kernel_basis.cells"),
    "linalg.kernel_basis.s": ("linalg.kernel_basis", "s"),
    "resolve.min_free_resolution.s": ("resolve.min_free_resolution", "s"),
    "resolve.min_free_resolution.self_s": ("resolve.min_free_resolution", "self_s"),
    "resolve.betti_total": ("resolve.min_free_resolution", "resolve.betti_total"),
    "resolve.hilbert_data.s": ("resolve.hilbert_data", "s"),
    "resolve.hilbert_data.self_s": ("resolve.hilbert_data", "self_s"),
    "resolve.parse_poly.calls": ("resolve.parse_poly", "calls"),
    "resolve.parse_poly.s": ("resolve.parse_poly", "s"),
    "tables.eval_functional.calls": ("tables.eval_functional", "calls"),
    "tables.eval_functional.s": ("tables.eval_functional", "s"),
    "tables.table_arith.calls": ("tables.table_arith", "calls"),
    "tables.table_arith.s": ("tables.table_arith", "s"),
    "cone.check.calls": ("cone.check", "calls"),
    "cone.check.s": ("cone.check", "s"),
    "cone.decompose.s": ("cone.decompose", "s"),
    "cone.decompose.self_s": ("cone.decompose", "self_s"),
    "cone.decompose.rounds": ("cone.decompose", "cone.decompose.rounds"),
    "cone.support_entries": ("cone.check", "cone.support_entries"),
    "window.extreme_rays.s": ("window.extreme_rays", "s"),
    "window.extreme_rays.rays": ("window.extreme_rays", "window.extreme_rays.rays"),
    "window.normalize_ray.calls": ("window.normalize_ray", "calls"),
    "window.cross_check.self_s": ("window.cross_check", "self_s"),
    "cli.parse_module_text.s": ("cli.parse_module_text", "s"),
    "cli.parse_table_text.s": ("cli.parse_table_text", "s"),
    "cli.format_table_text.s": ("cli.format_table_text", "s"),
    "cli.run.self_s": ("cli.run", "self_s"),
}


def _resolve_site(module_name, attr):
    """(owner, name) for a dotted attribute, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Spans as parallel arrays: start, end, span name id and the index of the
    span that was open when this one began (-1 at the top)."""

    def __init__(self):
        self.names = list(SITES)
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._patched: list = []

    def install(self):
        self.absent = []
        for nid, span in enumerate(self.names):
            wrappers = {}  # one wrapper per distinct function, shared by its sites
            for module_name, attr in SITES[span]:
                site = _resolve_site(module_name, attr)
                if site is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                owner, name = site
                original = getattr(owner, name)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(nid, span, original)
                self._patched.append((owner, name, original))
                setattr(owner, name, wrappers[id(original)])

    def remove(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _wrap(self, nid, span, fn):
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self.stack
        counter = COUNTERS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None and span not in self.broken:
                try:
                    for key, value in counter(args, result).items():
                        self.counts[key] = self.counts.get(key, 0) + value
                except Exception:  # the program changed shape; report, keep running
                    self.broken.add(span)
            return result

        return wrapper

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round; spans never recorded read 0."""
        n = len(self.names)
        stats = {"calls": [0] * n, "s": [0.0] * n, "self_s": [0.0] * n}
        for idx in range(len(self.name)):
            duration = self.end[idx] - self.start[idx]
            stats["calls"][self.name[idx]] += 1
            stats["s"][self.name[idx]] += duration
            stats["self_s"][self.name[idx]] += duration
            if self.parent[idx] >= 0:
                stats["self_s"][self.name[self.parent[idx]]] -= duration
        out = {}
        for metric, (span, what) in METRICS.items():
            value = stats[what][self.names.index(span)] if what in stats else self.counts.get(what, 0)
            out[metric] = float(value) / rounds
        calls = out["linalg.span_add.calls"]
        out["linalg.span_add.useful_ratio"] = out["linalg.span_add.grew"] / calls if calls else 0.0
        return out
