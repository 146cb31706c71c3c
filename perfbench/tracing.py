"""Span tracer installed from outside the package, around its public functions.

Each layer of `steenrodgroup` is measured by wrapping the public functions and
methods that enter it.  A module-level function is rebound in every package
module that holds it (``compose`` lives in both ``group`` and ``grouptheory``),
so a call cannot slip past the tracer through a second import.  Private
helpers such as ``mono_mul`` are never wrapped, so the layer metrics survive a
rewrite of the kernels behind them.

Spans carry name, start, end, parent and unit id.  The innermost layers
(``AGGREGATED``) run millions of times per run; they are folded into per
(name, parent) totals instead of being kept one record per call.
"""

from __future__ import annotations

import sys
import time

# layer name -> [(module, attribute)] of the functions entering that layer;
# module "class:<module>.<Class>" wraps a method on the class itself
LAYERS = {
    "algebra.mul": [("class:algebra.AlgebraElement", "__mul__")],
    "algebra.add": [
        ("class:algebra.AlgebraElement", "__add__"),
        ("class:algebra.AlgebraElement", "__sub__"),
        ("class:algebra.AlgebraElement", "__neg__"),
        ("class:algebra.AlgebraElement", "scale"),
    ],
    "algebra.frobenius": [("algebra", "frobenius")],
    "algebra.eps": [("algebra", "eps_reduce"), ("algebra", "eps_part"), ("algebra", "times_eps")],
    "algebra.component": [("algebra", "component_monomials"), ("algebra", "enumerate_component")],
    "partitions.enumerate": [("partitions", "enumerate_compositions")],
    "group.compose": [("group", "compose")],
    "group.invert_recursive": [("group", "invert_recursive")],
    "group.invert_closed": [("group", "invert_closed")],
    "group.invert_split": [("group", "invert_split")],
    "group.commutator": [("group", "commutator")],
    "group.rho": [("group", "rho")],
    "group.key": [("class:group.GroupElement", "key")],
    "serialize.from_obj": [("serialize", "group_from_obj")],
    "serialize.to_obj": [("serialize", "group_to_obj")],
    "hopf.coproduct": [("hopf", "coproduct")],
    "hopf.antipode": [("hopf", "antipode")],
    "hopf.defect": [
        ("hopf", "coassociativity_defect"),
        ("hopf", "counit_defect"),
        ("hopf", "antipode_defect"),
    ],
    "hopf.tensor_mul": [("class:hopf.TensorElement", "__mul__")],
    "grouptheory.enumerate": [("grouptheory", "enumerate_group")],
    "grouptheory.series": [("grouptheory", "lower_central_series"), ("grouptheory", "derived_series")],
    "grouptheory.bounds": [("grouptheory", "check_filtration_bounds")],
    "grouptheory.ev": [("grouptheory", "ev_subgroup_series")],
    "milnor.in_J_basis": [("milnor", "in_J_basis")],
    "milnor.in_dual_span": [("milnor", "in_dual_span")],
    "milnor.DualSymbol": [("class:milnor.DualSymbol", "__init__")],
}

AGGREGATED = frozenset(
    name
    for name in LAYERS
    if name.split(".")[0] in ("algebra", "partitions", "milnor")
    or name in ("group.key", "hopf.tensor_mul")
)

PACKAGE = "steenrodgroup"


def _pairs(args, out):
    """Term pairs tried by a sparse product and terms kept in its result."""
    a, b = args
    return len(a.terms) * len(b.terms), len(out.terms)


def _length(args, out):
    return 0, len(out)


# layer name -> function of (args, result) giving (work, output) counts
COUNTERS = {
    "algebra.mul": _pairs,
    "hopf.tensor_mul": _pairs,
    "partitions.enumerate": _length,
}


class Tracer:
    """Nested spans with self time; kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter, aggregated=AGGREGATED):
        self.clock = clock
        self.aggregated = aggregated
        self.active = True
        self.unit = None
        # frame: [name, start, child_time, record index or None]
        self.stack = []
        self.spans = []  # (name, start, end, parent record index, unit)
        self.totals = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.counts = {}  # name -> [work, output]

    def enter(self, name):
        record = None
        if name not in self.aggregated:
            record = len(self.spans)
            self.spans.append(None)
        self.stack.append([name, self.clock(), 0.0, record])

    def exit(self):
        end = self.clock()
        name, start, child, record = self.stack.pop()
        dur = end - start
        parent_name = None
        if self.stack:
            frame = self.stack[-1]
            frame[2] += dur
            parent_name = frame[0]
        if record is not None:
            parent_record = next(
                (f[3] for f in reversed(self.stack) if f[3] is not None), None
            )
            self.spans[record] = (name, start, end, parent_record, self.unit)
        t = self.totals.get((name, parent_name))
        if t is None:
            t = self.totals[(name, parent_name)] = [0, 0.0, 0.0]
        t[0] += 1
        t[1] += dur
        t[2] += dur - child

    def count(self, name, work, output):
        c = self.counts.get(name)
        if c is None:
            c = self.counts[name] = [0, 0]
        c[0] += work
        c[1] += output

    def calls(self, name, parent=None):
        """Calls of a span name, optionally only those directly under parent."""
        return sum(
            t[0] for (n, par), t in self.totals.items()
            if n == name and (parent is None or par == parent)
        )

    def self_time(self, name):
        return sum(t[2] for (n, _), t in self.totals.items() if n == name)


def wrap(tracer, name, fn, counter=None):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                tracer.count(name, *counter(args, out))
        finally:
            tracer.exit()
        return out

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer, layers=LAYERS, package=PACKAGE):
    """Wrap every binding of every listed function; returns an undo callable.

    The package and all of its modules must already be imported.
    """
    modules = [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]
    undo = []
    for name, targets in layers.items():
        counter = COUNTERS.get(name)
        for where, attr in targets:
            if where.startswith("class:"):
                mod_name, cls_name = where[len("class:"):].rsplit(".", 1)
                cls = getattr(sys.modules[f"{package}.{mod_name}"], cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, wrap(tracer, name, original, counter))
                undo.append((cls, attr, original))
                continue
            original = getattr(sys.modules[f"{package}.{where}"], attr)
            traced = wrap(tracer, name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        undo.append((mod, key, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# per-layer metric name -> (unit, better); the order is the report order
PER_LAYER = {}


def _metric(name, unit, better):
    PER_LAYER[name] = (unit, better)


for _layer in LAYERS:
    if not _layer.startswith("grouptheory."):
        _metric(f"{_layer}.calls", "count", "lower")
    _metric(f"{_layer}.self_s", "s", "lower")
    if _layer in ("algebra.mul", "hopf.tensor_mul"):
        _metric(f"{_layer}.term_pairs", "count", "lower")
        _metric(f"{_layer}.yield", "ratio", "higher")
    if _layer == "partitions.enumerate":
        _metric(f"{_layer}.out", "count", "lower")
    if _layer == "grouptheory.enumerate":
        _metric(f"{_layer}.compose_calls", "count", "lower")
_metric("hopf.coproduct_gen.hit_ratio", "ratio", "higher")
_metric("hopf.antipode_gen.hit_ratio", "ratio", "higher")
_metric("trace.overhead_ratio", "ratio", "lower")

# lru caches whose hit ratios are reported: metric prefix -> (module, attribute)
CACHES = {
    "hopf.coproduct_gen": ("hopf", "coproduct_gen"),
    "hopf.antipode_gen": ("hopf", "antipode_gen"),
    "sampling._monos": ("sampling", "_monos"),
}


def cache_infos(package=PACKAGE):
    out = {}
    for label, (mod, attr) in CACHES.items():
        info = getattr(sys.modules[f"{package}.{mod}"], attr).cache_info()
        out[label] = info._asdict()
    return out


def layer_metrics(tracer, caches, time_scale=1.0) -> dict:
    """Every PER_LAYER value except trace.overhead_ratio, which needs two runs.

    Self times are multiplied by time_scale.
    """
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = tracer.calls(layer)
        values[f"{layer}.self_s"] = tracer.self_time(layer) * time_scale
        work, output = tracer.counts.get(layer, (0, 0))
        values[f"{layer}.term_pairs"] = work
        values[f"{layer}.yield"] = output / work if work else 0.0
        values[f"{layer}.out"] = output
    values["grouptheory.enumerate.compose_calls"] = tracer.calls(
        "group.compose", parent="grouptheory.enumerate"
    )
    for label in ("hopf.coproduct_gen", "hopf.antipode_gen"):
        info = caches[label]
        looked = info["hits"] + info["misses"]
        values[f"{label}.hit_ratio"] = info["hits"] / looked if looked else 0.0
    return {k: v for k, v in values.items() if k in PER_LAYER}
