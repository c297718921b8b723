"""Spans and counters around the package's public functions.

The tracer replaces each traced function by a wrapper, in its defining
module and under every name another ``lfk`` module imported it by, so calls
across modules are caught too.  A wrapper records one span (name, start,
end, parent span, input id) and adds the call's self time, its duration
minus the time covered by child spans.  Spans stay in memory and are
written out once, when the pass ends.  ``observe`` hooks count outcomes at
the same boundaries (rejections, lattice points, unique completions).

Nothing here is imported by an untraced pass, so its end-to-end numbers
carry no tracing cost.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import lfk.bridge
import lfk.cubes
from lfk.errors import NotLSpaceLink, RegionUnstable


def _box_size(box) -> int:
    n = 1
    for lo, hi in box:
        n *= (hi - lo) // 2 + 1
    return n


def _cor(res, exc, counters):
    counters["lspace.cor_alex2_check.rejects"] += res is not None and res.sign is None


def _theorem(res, exc, counters):
    counters["lspace.theorem_alex_check.rejects"] += res is not None and not res.ok


def _complete(res, exc, counters):
    counters["cubes.complete_subgraph.unique"] += res is not None and res.is_unique


def _build(res, exc, counters):
    counters["floer.build_tgraph.rejects"] += isinstance(exc, NotLSpaceLink)
    counters["floer.build_tgraph.region_unstable"] += isinstance(exc, RegionUnstable)
    if res is not None:
        counters["floer.build_tgraph.points"] += _box_size(res.box)


def _hfl(res, exc, counters):
    if res is not None:
        counters["floer.hfl_minus.points"] += len(res.table)


def _cross(res, exc, counters):
    if res is not None:
        counters["floer.alternating_cross_check.checked"] += res.checked


# (module, attribute, span name, observe hook)
TRACED = (
    ("lfk.laurent", "MultiLaurent.__mul__", "laurent.mul", None),
    ("lfk.laurent", "exact_div", "laurent.exact_div", None),
    ("lfk.bridge", "alexander", "bridge.alexander", None),
    ("lfk.bridge", "signature", "bridge.signature", None),
    ("lfk.lspace", "normalized_family", "lspace.normalized_family", None),
    ("lfk.lspace", "m_vector", "lspace.m_vector", None),
    ("lfk.lspace", "default_box", "lspace.default_box", None),
    ("lfk.lspace", "cor_alex2_check", "lspace.cor_alex2_check", _cor),
    ("lfk.lspace", "theorem_alex_check", "lspace.theorem_alex_check", _theorem),
    ("lfk.cubes", "complete_subgraph", "cubes.complete_subgraph", _complete),
    ("lfk.cubes", "euler_char", "cubes.euler_char", None),
    ("lfk.cubes", "corner_homology", "cubes.corner_homology", None),
    ("lfk.floer", "build_tgraph", "floer.build_tgraph", _build),
    ("lfk.floer", "hfl_minus", "floer.hfl_minus", _hfl),
    ("lfk.floer", "alternating_cross_check", "floer.alternating_cross_check", _cross),
    ("lfk.cli", "classify", "cli.classify", None),
)

CACHES = (
    ("bridge.F_poly", lfk.bridge.F_poly),
    ("bridge._tridiag_signature", lfk.bridge._tridiag_signature),
    ("cubes._euler", lfk.cubes._euler),
    ("cubes._corner_from_grading_key", lfk.cubes._corner_from_grading_key),
    ("cubes._upset_level_homology", lfk.cubes._upset_level_homology),
)

# Ratio metrics and the counter each divides by its function's calls.
RATIOS = {
    "lspace.cor_alex2_check.reject_ratio": "lspace.cor_alex2_check.rejects",
    "lspace.theorem_alex_check.reject_ratio": "lspace.theorem_alex_check.rejects",
    "cubes.complete_subgraph.unique_ratio": "cubes.complete_subgraph.unique",
    "floer.build_tgraph.reject_ratio": "floer.build_tgraph.rejects",
}
COUNTS = ("floer.build_tgraph.points", "floer.build_tgraph.region_unstable",
          "floer.hfl_minus.points", "floer.alternating_cross_check.checked")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for _, _, name, _ in TRACED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in RATIOS:
        units[name] = "ratio"
    for name in COUNTS:
        units[name] = "count"
    for name, _ in CACHES:
        for field in ("hits", "misses", "currsize"):
            units[f"{name}.{field}"] = "count"
    return units


class Tracer:
    """Installs the wrappers and accumulates spans, self times and counts.

    ``active`` is true only while a timed call chain runs; the benchmark's
    own checks call the same functions with it off.  Cache statistics are
    likewise summed over the active intervals only.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_input = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []      # [span index, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.cache_delta = {name: [0, 0, 0] for name, _ in CACHES}
        self.active = False
        self.input_id = -1

    def install(self):
        for module_name, attr, name, observe in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                wrapper = self._wrap(name, original, observe)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, key, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "lfk" or mod_name.startswith("lfk."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        for key in RATIOS.values():
            self.counters[key] = 0
        for key in COUNTS:
            self.counters[key] = 0

    def _wrap(self, name, fn, observe):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self.stack
        counters = self.counters

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_input.append(self.input_id)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            res = exc = None
            start = perf_counter()
            self.span_start.append(start)
            try:
                res = fn(*args, **kwargs)
                return res
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.span_end[idx] = end
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if observe is not None:
                    observe(res, exc, counters)

        wrapper.__wrapped__ = fn
        return wrapper

    def begin(self, input_id: int):
        self.input_id = input_id
        self._cache_before = [fn.cache_info() for _, fn in CACHES]
        self.active = True

    def end(self):
        self.active = False
        for (name, fn), before in zip(CACHES, self._cache_before):
            after = fn.cache_info()
            delta = self.cache_delta[name]
            delta[0] += after.hits - before.hits
            delta[1] += after.misses - before.misses
            delta[2] += after.currsize - before.currsize

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        for ratio, key in RATIOS.items():
            calls = self.calls[ratio.rsplit(".", 1)[0]]
            out[ratio] = self.counters[key] / calls if calls else 0.0
        for key in COUNTS:
            out[key] = self.counters[key]
        for name, (hits, misses, size) in self.cache_delta.items():
            out[name + ".hits"] = hits
            out[name + ".misses"] = misses
            out[name + ".currsize"] = size
        return out

    def write_spans(self, path):
        """One CSV row per span: id, parent, input, name, start, end (s)."""
        with open(path, "w") as fh:
            fh.write("span,parent,input,name,start_s,end_s\n")
            names = self.names
            for k in range(len(self.span_start)):
                fh.write(f"{k},{self.span_parent[k]},{self.span_input[k]},"
                         f"{names[self.span_name[k]]},{self.span_start[k]:.9f},"
                         f"{self.span_end[k]:.9f}\n")
