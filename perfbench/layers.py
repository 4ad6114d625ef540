"""Layer map and span tracer for the traced benchmark run.

The tracer wraps, at import time, the public functions, public methods,
``__init__`` methods and public properties that each capaf module defines,
and the suite runners in ``cli.SUITE_RUNNERS``.  Nothing under ``src/``
changes: wrappers replace the attribute in every capaf module namespace that
holds the original object, so names a module imported by value (``bodies``
imports ``icosphere_vertices``) are traced too.

Every wrapped call is a span.  A span's self time is its duration minus the
time covered by its child spans; self time is summed per layer, so the layer
self times add up to the time of the root span.  Calls are counted per layer
and per group, where a group is ``<layer>.<attribute>`` with the class name
dropped (``norms.metric_on_wulff`` covers every norm class).  The inclusive
time of a group counts only its outermost calls, so recursion does not count
twice.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

# capaf modules in layer order, bottom up; the module name is the layer name
LAYERS = ("norms", "fd", "capgeom", "fields", "bodies", "mixdisc",
          "functionals", "config", "report", "cli")

SUITES = ("mixdisc", "routes", "af", "chain", "minkowski", "symmetry",
          "steiner", "kernel", "operator")

# mesh levels of the level-scaling table (ROADMAP baseline: L3-L6).  The
# level-scaling child generates its random bodies at the top level and
# rebinds them onto every level's mesh.
SCALING_LEVELS = (3, 4, 5, 6)
TOP_BODIES3 = f"levels.L{SCALING_LEVELS[-1]}.bodies3_s"

# Derived metrics.  ("calls", group) counts calls of a group, ("time", group)
# is its outermost inclusive time, ("counter", name) reads a hook counter.
NAMED = {
    "norms.metric_on_wulff_s": ("time", "norms.metric_on_wulff"),
    "norms.q_on_wulff_s": ("time", "norms.q_on_wulff"),
    "fd.gradient_calls": ("calls", "fd.central_gradient"),
    "fd.hessian_calls": ("calls", "fd.central_hessian"),
    "capgeom.build_s": ("time", "capgeom.build_cap_mesh"),
    "capgeom.meshes_built": ("calls", "capgeom.build_cap_mesh"),
    "capgeom.nodes": ("counter", "capgeom.nodes"),
    "capgeom.snapped": ("counter", "capgeom.snapped"),
    "capgeom.icosphere.calls": ("calls", "capgeom.icosphere"),
    "capgeom.icosphere_s": ("time", "capgeom.icosphere"),
    "capgeom.region_residual.calls": ("calls", "capgeom.region_residual"),
    "capgeom.q_frame_s": ("time", "capgeom.q_frame"),
    "fields.tau_from_generator.calls": ("calls", "fields.tau_from_generator"),
    "fields.tau_from_generator_s": ("time", "fields.tau_from_generator"),
    "bodies.random.calls": ("calls", "bodies.random_capillary_body"),
    "bodies.constructed": ("calls", "bodies.__init__"),
    "bodies.backtrack_halvings": ("counter", "bodies.backtrack_halvings"),
    "functionals.mixed_volume.calls": ("calls", "functionals.mixed_volume"),
    "functionals.mixed_volume_s": ("time", "functionals.mixed_volume"),
    "functionals.kernel_tau_s": ("time", "functionals.kernel_tau_intrinsic"),
    "mixdisc.batch_matrices": ("counter", "mixdisc.batch_matrices"),
    "config.parse_s": ("time", "config.parse_config"),
    "report.emit_s": ("time", "report.emit_report"),
    "report.bytes": ("counter", "report.bytes"),
}
NAMED.update({f"cli.suite.{s}_s": ("time", f"cli.suite.{s}") for s in SUITES})

VERIFY = ("verify-ellipsoid", "verify-perturbed")

# Workloads on which each per-layer metric must read non-zero; on the others
# it must read 0.  Metrics missing here are data-dependent or signed:
# bodies.backtrack_halvings (0 at the sample amplitude; its hook is tested
# on a body that must backtrack) and trace.overhead_s.
PREDICTED_NONZERO = {
    **{f"{layer}.self_s": VERIFY for layer in ("startup",) + LAYERS if layer != "fd"},
    "fd.self_s": ("verify-perturbed",),
    "fd.gradient_calls": ("verify-perturbed",),
    "fd.hessian_calls": ("verify-perturbed",),
    **{name: VERIFY for name in NAMED if not name.startswith("fd.")
       and name != "bodies.backtrack_halvings"},
    **{name: VERIFY for name in ("norms.calls", "norms.rows", "mixdisc.calls",
                                 "bodies.accept_ratio", "trace.wall_s", "trace.coverage")},
    # the level-scaling child runs on the ellipsoid config only
    **{f"levels.L{level}.{m}": ("verify-ellipsoid",)
       for level in SCALING_LEVELS for m in ("nodes", "mesh_build_s", "rebind_s")},
    TOP_BODIES3: ("verify-ellipsoid",),
}


def _metric_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in ("startup",) + LAYERS}
    units.update({"norms.calls": "count", "norms.rows": "count", "mixdisc.calls": "count"})
    for name, (kind, _) in NAMED.items():
        units[name] = "s" if kind == "time" else (
            "bytes" if name == "report.bytes" else "count")
    units["bodies.accept_ratio"] = "ratio"
    for level in SCALING_LEVELS:
        units[f"levels.L{level}.nodes"] = "count"
        units[f"levels.L{level}.mesh_build_s"] = "s"
        units[f"levels.L{level}.rebind_s"] = "s"
    units[TOP_BODIES3] = "s"
    units.update({"trace.wall_s": "s", "trace.coverage": "ratio", "trace.overhead_s": "s"})
    return units


# per_layer metric names and units, in the order BENCHMARK.json lists them
METRIC_UNITS = _metric_units()


class Tracer:
    """Span stack with per-layer self time and per-group call counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames: [layer, group, t0, child_time]
        self.layer_self = defaultdict(float)
        self.layer_calls = Counter()
        self.layer_rows = Counter()
        self.group_calls = Counter()
        self.group_time = defaultdict(float)
        self.group_depth = Counter()
        self.counters = Counter()
        self.level_mesh = {}  # level -> (nodes, build seconds)
        self.level_rebind = defaultdict(float)  # level -> rebind seconds
        self.level_random = defaultdict(lambda: [0, 0.0])  # level -> [bodies, s]

    def enter(self, layer, group, args=()):
        stack = self.stack
        if layer == "norms" and (not stack or stack[-1][0] != "norms"):
            self.layer_rows["norms"] += _rows(args)
        self.layer_calls[layer] += 1
        self.group_calls[group] += 1
        self.group_depth[group] += 1
        stack.append([layer, group, self.clock(), 0.0])

    def exit(self) -> float:
        t1 = self.clock()
        layer, group, t0, child = self.stack.pop()
        dur = t1 - t0
        self.layer_self[layer] += dur - child
        self.group_depth[group] -= 1
        if self.group_depth[group] == 0:
            self.group_time[group] += dur
        if self.stack:
            self.stack[-1][3] += dur
        return dur

    def span(self, layer, group, func):
        """Run func() as one span (used for the root spans)."""
        self.enter(layer, group)
        try:
            return func()
        finally:
            self.exit()

    # derived metrics -------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for layer in ("startup",) + LAYERS:
            out[f"{layer}.self_s"] = self.layer_self.get(layer, 0.0)
        out["norms.calls"] = self.layer_calls.get("norms", 0)
        out["norms.rows"] = self.layer_rows.get("norms", 0)
        out["mixdisc.calls"] = self.layer_calls.get("mixdisc", 0)
        for name, (kind, key) in NAMED.items():
            if kind == "calls":
                out[name] = self.group_calls.get(key, 0)
            elif kind == "time":
                out[name] = self.group_time.get(key, 0.0)
            else:
                out[name] = self.counters.get(key, 0)
        built = self.counters.get("bodies.built_in_random", 0)
        returned = self.counters.get("bodies.random_returned", 0)
        out["bodies.accept_ratio"] = returned / built if built else 0.0
        for level in SCALING_LEVELS:
            nodes, build_s = self.level_mesh.get(level, (0, 0.0))
            out[f"levels.L{level}.nodes"] = nodes
            out[f"levels.L{level}.mesh_build_s"] = build_s
            out[f"levels.L{level}.rebind_s"] = self.level_rebind.get(level, 0.0)
        count, random_s = self.level_random.get(SCALING_LEVELS[-1], (0, 0.0))
        out[TOP_BODIES3] = 3.0 * random_s / count if count else 0.0
        return out

    def self_total(self) -> float:
        return sum(self.layer_self.values())


def _rows(args) -> int:
    """Points in the first array argument (a row per point)."""
    for a in args:
        shape = getattr(a, "shape", None)
        if shape is not None:
            return int(shape[0]) if len(shape) >= 2 else 1
    return 0


# hooks: run after a span closes, with (tracer, args, result, duration) ----


def _after_build_cap_mesh(tr, args, mesh, dur):
    if tr.group_depth["capgeom.build_cap_mesh"]:
        return
    tr.counters["capgeom.nodes"] += mesh.node_count
    tr.counters["capgeom.snapped"] += int(mesh.diagnostics.get("snapped", 0))
    nodes, total = tr.level_mesh.get(mesh.config.mesh_level, (0, 0.0))
    tr.level_mesh[mesh.config.mesh_level] = (mesh.node_count, total + dur)


def _after_random_body(tr, args, body, dur):
    """Generation time includes bump placement, icosphere rebuilds and backtracking."""
    scale = float(body.provenance.get("backtrack_scale", 1.0))
    tr.counters["bodies.backtrack_halvings"] += round(-math.log2(scale))
    tr.counters["bodies.random_returned"] += 1
    entry = tr.level_random[body.mesh.config.mesh_level]
    entry[0] += 1
    entry[1] += dur


def _after_rebind(tr, args, body, dur):
    tr.level_rebind[body.mesh.config.mesh_level] += dur


def _after_body_init(tr, args, _none, dur):
    if tr.group_depth["bodies.random_capillary_body"]:
        tr.counters["bodies.built_in_random"] += 1


def _after_md_batch(tr, args, _out, dur):
    mats = args[0] if args else ()
    tr.counters["mixdisc.batch_matrices"] += sum(
        a.shape[0] if getattr(a, "ndim", 2) == 3 else 1 for a in mats)


def _after_emit_report(tr, args, paths, dur):
    tr.counters["report.bytes"] += sum(os.path.getsize(p) for p in paths.values())


HOOKS = {
    "capgeom.build_cap_mesh": _after_build_cap_mesh,
    "bodies.random_capillary_body": _after_random_body,
    "bodies.rebind": _after_rebind,
    "bodies.__init__": _after_body_init,
    "mixdisc.mixed_discriminant_batch": _after_md_batch,
    "report.emit_report": _after_emit_report,
}


def _wrap(tracer, layer, group, func):
    hook = HOOKS.get(group)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        tracer.enter(layer, group, args)
        try:
            result = func(*args, **kwargs)
        finally:
            dur = tracer.exit()
        if hook is not None:
            hook(tracer, args, result, dur)
        return result

    traced.__wrapped_by_perfbench__ = True
    return traced


def _wanted(name) -> bool:
    return not name.startswith("_") or name == "__init__"


class Installation:
    """Record of the wrappers installed; restore() undoes them."""

    def __init__(self):
        self.groups = set()
        self.replaced = {}  # id(original) -> (original, wrapper)
        self._undo = []

    def set(self, owner, name, value):
        old = owner.__dict__[name] if isinstance(owner, type) else owner[name]
        self._undo.append((owner, name, old))
        if isinstance(owner, type):
            setattr(owner, name, value)
        else:
            owner[name] = value

    def restore(self):
        for owner, name, old in reversed(self._undo):
            if isinstance(owner, type):
                setattr(owner, name, old)
            else:
                owner[name] = old
        self._undo.clear()


def capaf_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if name == "capaf" or name.startswith("capaf.")}


def install(tracer: Tracer) -> Installation:
    """Wrap every layer's traced surface; capaf must be imported already."""
    inst = Installation()
    mods = capaf_modules()
    for layer in LAYERS:
        mod = mods[f"capaf.{layer}"]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and _wanted(name):
                group = f"{layer}.{name}"
                inst.replaced[id(obj)] = (obj, _wrap(tracer, layer, group, obj))
                inst.groups.add(group)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                    and not issubclass(obj, BaseException):
                _install_class(tracer, inst, layer, obj)
    # one sweep replaces every reference, including names imported by value
    for mod in mods.values():
        ns = vars(mod)
        for name, obj in list(ns.items()):
            if inspect.isfunction(obj) and id(obj) in inst.replaced:
                inst.set(ns, name, inst.replaced[id(obj)][1])
    runners = mods["capaf.cli"].SUITE_RUNNERS
    for suite, func in list(runners.items()):
        group = f"cli.suite.{suite}"
        inst.set(runners, suite, _wrap(tracer, "cli", group, func))
        inst.groups.add(group)
    return inst


def _install_class(tracer, inst, layer, cls):
    for name, attr in list(vars(cls).items()):
        if not _wanted(name):
            continue
        group = f"{layer}.{name}"
        if isinstance(attr, staticmethod):
            new = staticmethod(_wrap(tracer, layer, group, attr.__func__))
        elif isinstance(attr, property) and attr.fget is not None:
            new = property(_wrap(tracer, layer, group, attr.fget),
                           attr.fset, attr.fdel, attr.__doc__)
        elif inspect.isfunction(attr):
            new = _wrap(tracer, layer, group, attr)
        else:
            continue
        inst.set(cls, name, new)
        inst.groups.add(group)


def referenced_groups() -> set:
    """Groups the derived metrics and hooks read; each must be installed."""
    groups = {key for kind, key in NAMED.values() if kind != "counter"}
    return groups | set(HOOKS)
