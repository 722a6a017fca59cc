"""Spans around the calls into qmspace's layers, recorded from outside.

``Tracer`` keeps spans in memory (id, parent id, name, layer, start, end,
attributes) and writes them when the run ends.  ``install`` wraps the
public functions of every qmspace module in each namespace where callers
look them up (``qmspace.curvature.wasserstein`` as well as
``qmspace.transport.wasserstein``), plus three third-party boundaries:
``linprog`` as seen from ``transport``, networkx ``maximum_flow_value`` as
seen from ``ghdist``, and scipy's ``dijkstra``.  Per-pair helpers are left
alone, so the wrappers add cost per call of a layer, not per matrix entry.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from contextlib import contextmanager

LAYERS = ("models", "core", "io", "cli", "ghdist", "transport", "curvature")

#: functions called once per point pair or per number; never wrapped
PER_PAIR = frozenset({
    "beta", "s_kn", "funk_norm", "funk_distance", "randers_torus_distance",
    "randers_ball_distance", "path_length", "midpoint_defect", "fmt",
})

#: metric group of a wrapped function, by (module, name); the default is
#: "<module>.other"
GROUPS = {
    ("core", "validate"): "core.validate",
    ("io", "load_space"): "io.load",
    ("io", "load_problem"): "io.load",
    ("io", "load_matrix_csv"): "io.load",
    ("io", "save_space"): "io.save",
    ("io", "save_problem"): "io.save",
    ("io", "save_matrix_csv"): "io.save",
    ("io", "write_atomic"): "io.save",
    ("ghdist", "prokhorov"): "ghdist.prokhorov",
    ("ghdist", "iso_defect"): "ghdist.iso_defect",
    ("ghdist", "maximum_flow_value"): "ghdist.maxflow",
    ("transport", "wasserstein"): "transport.wasserstein",
    ("transport", "kr_dual"): "transport.kr_dual",
    ("transport", "linprog"): "transport.lp",
    ("transport", "dynamical_plan"): "transport.plan",
    ("transport", "interpolate"): "transport.plan",
    ("transport", "dijkstra"): "transport.plan",
    ("curvature", "cd_check"): "curvature.cd_check",
    ("curvature", "u_functional"): "curvature.functionals",
    ("curvature", "u_beta_functional"): "curvature.functionals",
    ("curvature", "functional_inequality_suite"): "curvature.ineq",
    ("curvature", "fisher_information"): "curvature.ineq",
    ("curvature", "grad_norms"): "curvature.ineq",
}


def group_of(layer: str, name: str) -> str:
    if layer == "models":
        return "models.sample"
    return GROUPS.get((layer, name), f"{layer}.other")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        rec = {"id": len(self.spans) + 1,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "name": name, "layer": layer, "attrs": attrs,
               "t0": time.perf_counter(), "t1": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def current_id(self):
        return self._stack[-1]["id"] if self._stack else None

    def adopt(self, spans, parent_id):
        """Graft spans recorded by a child process under ``parent_id``.

        perf_counter is CLOCK_MONOTONIC on Linux, so child times share the
        parent's time base.
        """
        offset = len(self.spans)
        for s in spans:
            s = dict(s)
            s["id"] += offset
            s["parent"] = parent_id if s["parent"] is None else s["parent"] + offset
            self.spans.append(s)

    def write(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"])
            - _union_length(children.get(s["id"], []), s["t0"], s["t1"])
            for s in spans}


# ---------------------------------------------------------------- wrappers

def _attrs_before(group: str, args, kwargs) -> dict:
    if group == "io.load" and args:
        try:
            return {"bytes_read": os.path.getsize(args[0])}
        except OSError:
            return {}
    if group == "io.save" and len(args) > 1 and isinstance(args[1], str):
        return {"bytes_written": len(args[1])}
    if group == "transport.lp" and args:
        a = kwargs.get("A_eq")
        if a is None:
            a = kwargs.get("A_ub")
        return {"vars": len(args[0]), "rows": a.shape[0], "nnz": int(a.nnz)}
    return {}


def _attrs_after(group: str, result, attrs: dict):
    if group == "transport.lp":
        attrs["nit"] = int(getattr(result, "nit", 0))
        attrs["success"] = bool(getattr(result, "success", False))
    elif group == "ghdist.iso_defect":
        attrs["heuristic"] = bool(result.heuristic)


def _wrap(tracer: Tracer, fn, layer: str, name: str):
    group = group_of(layer, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(f"{layer}.{name}", layer, group=group,
                         **_attrs_before(group, args, kwargs)) as rec:
            result = fn(*args, **kwargs)
            _attrs_after(group, result, rec["attrs"])
            return result

    return traced


class _ModuleView:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer, package) -> list:
    """Wrap qmspace's public functions; returns the undo list for ``uninstall``."""
    modules = {name: importlib.import_module(f"{package.__name__}.{name}")
               for name in LAYERS if name != "cli"}
    wrapped = {}  # id(original function) -> wrapper
    for layer, mod in modules.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and name not in PER_PAIR \
                    and fn.__module__ == mod.__name__:
                wrapped[id(fn)] = _wrap(tracer, fn, layer, name)

    undo = []
    namespaces = [package, *modules.values()]
    cli = getattr(package, "cli", None)
    if cli is not None:
        namespaces.append(cli)
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in wrapped:
                undo.append((ns, attr, value))
                setattr(ns, attr, wrapped[id(value)])

    tr, gh, core = modules["transport"], modules["ghdist"], modules["core"]
    boundaries = [
        (tr, "linprog", _wrap(tracer, tr.linprog, "transport", "linprog")),
        (tr, "dijkstra", _wrap(tracer, tr.dijkstra, "transport", "dijkstra")),
        (core, "dijkstra", _wrap(tracer, core.dijkstra, "core", "dijkstra")),
        (gh, "nx", _ModuleView(gh.nx, maximum_flow_value=_wrap(
            tracer, gh.nx.maximum_flow_value, "ghdist", "maximum_flow_value"))),
    ]
    for ns, attr, value in boundaries:
        undo.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)
    return undo


def uninstall(undo: list):
    for ns, attr, value in reversed(undo):
        setattr(ns, attr, value)


# ----------------------------------------------------------- aggregation

#: per-layer metrics reported by a traced run, with units
PER_LAYER = [
    ("models.sample.calls", "count"), ("models.sample.self_s", "s"),
    ("core.validate.calls", "count"), ("core.validate.self_s", "s"),
    ("core.other.self_s", "s"),
    ("io.load.self_s", "s"), ("io.save.self_s", "s"),
    ("io.bytes_read", "bytes"), ("io.bytes_written", "bytes"),
    ("cli.import_s", "s"), ("cli.commands", "count"),
    ("cli.exit_unexpected", "count"),
    ("ghdist.prokhorov.self_s", "s"), ("ghdist.maxflow.calls", "count"),
    ("ghdist.maxflow.s", "s"), ("ghdist.iso_defect.self_s", "s"),
    ("ghdist.iso_defect.heuristic", "count"),
    ("transport.lp.calls", "count"), ("transport.lp.s", "s"),
    ("transport.lp.vars", "count"), ("transport.lp.nnz", "count"),
    ("transport.lp.nit", "count"), ("transport.lp.useful_frac", "ratio"),
    ("transport.lp.max_vars", "count"),
    ("transport.lp.cost_bytes_computed", "bytes"),
    ("transport.lp.constraint_bytes_computed", "bytes"),
    ("transport.wasserstein.calls", "count"),
    ("transport.wasserstein.self_s", "s"),
    ("transport.wasserstein.failed", "count"),
    ("transport.kr_dual.self_s", "s"), ("transport.plan.self_s", "s"),
    ("curvature.cd_check.self_s", "s"), ("curvature.functionals.self_s", "s"),
    ("curvature.ineq.self_s", "s"),
    *[(f"layer.{name}.self_s", "s") for name in LAYERS],
    ("layer.bench.self_s", "s"),
    ("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.overhead_noise_frac", "ratio"),
    ("trace.overhead_resolved", "count"), ("trace.accounted_frac", "ratio"),
]


def rep_layer_metrics(spans, op_ok: dict) -> dict:
    """Per-layer numbers of one traced repetition.

    ``spans`` are the repetition's spans; root spans carry the operation
    name in ``attrs["op"]``, and ``op_ok`` maps it to whether the
    operation passed the benchmark's checks.
    """
    st = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    out = {name: 0.0 for name, _ in PER_LAYER}
    counts = {}
    lp_useful = 0
    for s in spans:
        a = s["attrs"]
        group = a.get("group")
        out[f"layer.{s['layer']}.self_s"] = \
            out.get(f"layer.{s['layer']}.self_s", 0.0) + st[s["id"]]
        if group is None:
            continue
        counts[group] = counts.get(group, 0) + 1
        key = f"{group}.self_s"
        if key in out:
            out[key] += st[s["id"]]
        out["io.bytes_read"] += a.get("bytes_read", 0)
        out["io.bytes_written"] += a.get("bytes_written", 0)
        if group == "ghdist.maxflow":
            out["ghdist.maxflow.s"] += s["t1"] - s["t0"]
        elif group == "ghdist.iso_defect":
            out["ghdist.iso_defect.heuristic"] += bool(a.get("heuristic"))
        elif group == "transport.wasserstein":
            out["transport.wasserstein.failed"] += "error" in a
        elif group == "transport.lp":
            out["transport.lp.s"] += s["t1"] - s["t0"]
            out["transport.lp.vars"] += a["vars"]
            out["transport.lp.nnz"] += a["nnz"]
            out["transport.lp.nit"] += a.get("nit", 0)
            lp_useful += bool(a.get("success")) and op_ok.get(
                root(s)["attrs"].get("op"), False)
            if a["vars"] > out["transport.lp.max_vars"]:
                out["transport.lp.max_vars"] = a["vars"]
                # computed, not measured: float64 cost vector, and the CSR
                # constraint matrix (8-byte values, 4-byte indices)
                out["transport.lp.cost_bytes_computed"] = 8 * a["vars"]
                out["transport.lp.constraint_bytes_computed"] = \
                    12 * a["nnz"] + 4 * (a["rows"] + 1)
        elif group == "cli.process":
            out["cli.commands"] += 1
            out["cli.exit_unexpected"] += bool(a.get("exit_unexpected"))
    for group, key in (("models.sample", "models.sample.calls"),
                       ("core.validate", "core.validate.calls"),
                       ("ghdist.maxflow", "ghdist.maxflow.calls"),
                       ("transport.lp", "transport.lp.calls"),
                       ("transport.wasserstein", "transport.wasserstein.calls")):
        out[key] = counts.get(group, 0)
    calls = counts.get("transport.lp", 0)
    out["transport.lp.useful_frac"] = lp_useful / calls if calls else 0.0
    return out


def median_metrics(reps: list) -> dict:
    """Median of each per-layer number over traced repetitions."""
    return {k: statistics.median(r[k] for r in reps) for k in reps[0]}
