"""Span recording around the public functions of every stabgauge module.

The library is not changed.  `Tracer.install` replaces each public
function with a recording wrapper in every stabgauge module that holds a
reference to it (modules bind names at import time, so patching only the
defining module would miss internal calls), and replaces the methods on
`Gf2Matrix`, `GeneratorMap` and `LaurentPoly` on the class.  Spans are kept
in memory as lists [name, start, end, parent, job, size, repeat, nested]
and aggregated into per-layer metrics when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("poly", "pauli", "gf2", "torus", "syzygy", "gauging", "cluster",
           "smallscale", "codebook", "cli")

_CLI_COMMANDS = ("verify", "render", "ungauge", "duality-check", "gauge", "kernel",
                 "cluster", "logical", "smallscale")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _rr_cells(args, kwargs, result):
    return args[0].rows * args[0].cols


def _instantiate_cells(args, kwargs, result):
    return result.rows * result.cols


def _kernel_unknowns(args, kwargs, result):
    return result.parent.cols * math.prod(b + 1 for b in result.box)


def _kernel_key(args, kwargs):
    box = _arg(args, kwargs, 1, "box")
    return args[0], None if box is None else tuple(box)


def _certify_passed(args, kwargs, result):
    return int(result.passed)


def _certify_key(args, kwargs):
    kb = args[0]
    lengths = tuple(int(x) for x in _arg(args, kwargs, 1, "lengths"))
    return kb.parent, tuple(kb.box), tuple(kb.generators), lengths


def _build_g_bytes(args, kwargs, result):
    lat = args[0]
    return 8 * (1 << lat.n_total) * (1 << lat.n_matter)


def _build_g_key(args, kwargs):
    lat = args[0]
    return lat.model, lat.shape, lat.cap, lat.perm, bool(_arg(args, kwargs, 1, "normalized", True))


# (module, attribute, span name, size of the call, key of its input)
TARGETS = [
    ("gf2", "Gf2Matrix.row_reduce", "gf2.row_reduce", _rr_cells, None),
    ("gf2", "Gf2Matrix.rank", "gf2.rank", None, None),
    ("gf2", "Gf2Matrix.nullspace", "gf2.nullspace", None, None),
    ("gf2", "Gf2Matrix.solve", "gf2.solve", None, None),
    ("gf2", "Gf2Matrix.mul_vec", "gf2.mul_vec", None, None),
    ("poly", "LaurentPoly.__mul__", "poly.mul", None, None),
    ("poly", "LaurentPoly.shift", "poly.shift", None, None),
    ("pauli", "GeneratorMap.compose", "pauli.compose", None, None),
    ("pauli", "verify_stabilizer", "pauli.verify_stabilizer", None, None),
    ("pauli", "maps_equal_up_to_translation", "pauli.maps_equal_up_to_translation", None, None),
    ("torus", "instantiate", "torus.instantiate", _instantiate_cells, None),
    ("torus", "count_logical", "torus.count_logical", None, None),
    ("torus", "logical_operator_gap", "torus.logical_operator_gap", None, None),
    ("syzygy", "bounded_kernel", "syzygy.bounded_kernel", _kernel_unknowns, _kernel_key),
    ("syzygy", "certify_on_torus", "syzygy.certify_on_torus", _certify_passed, _certify_key),
    ("gauging", "double_gauge_check", "gauging.double_gauge_check", None, None),
    ("gauging", "ungauge_css", "gauging.ungauge_css", None, None),
    ("gauging", "gauge", "gauging.gauge", None, None),
    ("gauging", "gauge_operator", "gauging.gauge_operator", None, None),
    ("cluster", "build_cluster", "cluster.build_cluster", None, None),
    ("cluster", "gauge_sublattice", "cluster.gauge_sublattice", None, None),
    ("cluster", "extra_fields_redundant", "cluster.extra_fields_redundant", None, None),
    ("smallscale", "build_G", "smallscale.build_G", _build_g_bytes, _build_g_key),
    ("smallscale", "apply_pauli", "smallscale.apply_pauli", None, None),
    ("smallscale", "check_lemma2", "smallscale.check_lemma2", None, None),
    ("smallscale", "check_lemma3", "smallscale.check_lemma3", None, None),
    ("smallscale", "check_claim1", "smallscale.check_claim1", None, None),
    ("smallscale", "check_matrix_elements", "smallscale.check_matrix_elements", None, None),
    ("smallscale", "check_groundspace_span", "smallscale.check_groundspace_span", None, None),
    ("codebook", "get_code", "codebook.get_code", None, None),
    ("codebook", "loads_code", "codebook.loads_code", None, None),
    ("codebook", "dumps_code", "codebook.dumps_code", None, None),
] + [
    ("cli", "cmd_" + cmd.replace("-", "_"), "cli." + cmd, None, None) for cmd in _CLI_COMMANDS
]

# Extra statistics per span name, besides calls and s; units by statistic.
_EXTRA = {
    "gf2.row_reduce": ("self_s", "cells"),
    "torus.instantiate": ("cells",),
    "syzygy.bounded_kernel": ("unknowns", "repeat_ratio"),
    "syzygy.certify_on_torus": ("self_s", "solves", "passed_ratio", "repeat_ratio"),
    "smallscale.build_G": ("bytes", "repeat_ratio"),
}
_UNITS = {"calls": "count", "s": "s", "self_s": "s", "cells": "cells", "unknowns": "count",
          "solves": "count", "bytes": "B", "passed_ratio": "ratio", "repeat_ratio": "ratio"}
_TRACE = [("trace.spans", "count"), ("trace.pairs", "count"), ("trace.wall_s", "s"),
          ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
          ("trace.overhead_ratio", "ratio")]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit) a traced run reports, in order."""
    out = []
    for _, _, name, _, _ in TARGETS:
        for stat in ("calls", "s") + _EXTRA.get(name, ()):
            out.append((f"{name}.{stat}", _UNITS[stat]))
    out += [(f"{module}.self_s", "s") for module in MODULES]
    return out + _TRACE


class Tracer:
    """Records one span per call of every wrapped function while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str | None = None
        self.active = True
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, size, key):
        spans, stack, depth, seen = self.spans, self._stack, self._depth, self._seen[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            repeat = None
            if key is not None:
                k = key(args, kwargs)
                repeat = k in seen
                seen.add(k)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, repeat,
                    depth[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                depth[name] -= 1
                stack.pop()
            if size is not None:
                span[5] = size(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every stabgauge module that references it."""
        holders = [importlib.import_module("stabgauge")] + [
            importlib.import_module(f"stabgauge.{m}") for m in MODULES
        ]
        for module, attr, name, size, key in TARGETS:
            home = sys.modules[f"stabgauge.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original, size, key))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, size, key)
            for holder in holders:
                for var, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, var, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-name calls, inclusive and self time, sizes and ratios from spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    module_self: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _job, size, repeat, nested) in enumerate(spans):
        st = stats[name]
        self_s = end - start - child[i]
        st["calls"] += 1
        st["self_s"] += self_s
        module_self[name.split(".")[0]] += self_s
        if not nested:
            st["s"] += end - start
        if size is not None:
            st["size"] += size
        if repeat:
            st["repeats"] += 1
        if name == "gf2.solve":
            p = parent
            while p >= 0 and spans[p][0] != "syzygy.certify_on_torus":
                p = spans[p][3]
            if p >= 0:
                stats["syzygy.certify_on_torus"]["solves"] += 1
    out: dict[str, float] = {}
    for _, _, name, _, _ in TARGETS:
        st = stats.get(name, {})
        calls = st.get("calls", 0)
        values = {
            "calls": calls,
            "s": st.get("s", 0.0),
            "self_s": st.get("self_s", 0.0),
            "cells": st.get("size", 0),
            "unknowns": st.get("size", 0),
            "bytes": st.get("size", 0),
            "solves": st.get("solves", 0),
            "passed_ratio": st.get("size", 0) / calls if calls else 0.0,
            "repeat_ratio": st.get("repeats", 0) / calls if calls else 0.0,
        }
        for stat in ("calls", "s") + _EXTRA.get(name, ()):
            out[f"{name}.{stat}"] = values[stat]
    for module in MODULES:
        out[f"{module}.self_s"] = module_self.get(module, 0.0)
    out["trace.spans"] = len(spans)
    return out
