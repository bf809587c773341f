"""In-memory spans around the multitrek layers, recorded from outside the package.

The traced run wraps the public functions of each layer and rebinds every
name that refers to them in the loaded ``multitrek`` modules (a function
imported with ``from .cumulants import subtensor_determinant`` is a separate
binding in ``multitrek.oracle`` and is patched there too).  Each call becomes
one span with a name, start, end and parent; self time is computed when the
span closes.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import array
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = (
    "cli", "ser", "graphs", "treks", "cumulants", "tensors",
    "polynomial", "oracle", "moments", "estimation",
)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: what it is, and which end-to-end metric it should move where."""

    name: str
    unit: str
    better: str
    moves: str
    on: str


def _m(name, unit, better, moves, on):
    return LayerMetric(name, unit, better, moves, on)


_DENSE = "oracle (dense block)"
_SPARSE = "oracle (sparse block)"
_ORACLE = "oracle"
_MOMENTS = "estimate-moments (moments block)"
_ESTIMATE = "estimate-moments (estimate block)"

# Written down before measuring: the end-to-end metric each layer metric
# should move, and the workload where it should show.
LAYER_METRICS = (
    _m("tensors.hyperdet.calls", "count", "lower", "check_p50_ms", _DENSE),
    _m("tensors.hyperdet.self_s", "s", "lower", "check_p50_ms", _DENSE),
    _m("tensors.hyperdet.terms", "count", "lower", "check_p50_ms", _DENSE),
    _m("cumulants.cumulant_entry.calls", "count", "lower", "check_p50_ms", _DENSE),
    _m("cumulants.cumulant_entry.self_s", "s", "lower", "check_p50_ms", _DENSE),
    _m("cumulants.path_matrix.calls", "count", "lower", "check_p50_ms", _DENSE),
    _m("cumulants.path_matrix.self_s", "s", "lower", "check_p50_ms", _DENSE),
    _m("cumulants.instance.calls", "count", "lower", "check_p50_ms", _DENSE),
    _m("cumulants.instance.self_s", "s", "lower", "check_p50_ms", _DENSE),
    _m("cumulants.det_rational.calls", "count", "lower", "check_p50_ms, certify_p50_ms", _ORACLE),
    _m("cumulants.det_rational.self_s", "s", "lower", "check_p50_ms, certify_p50_ms", _ORACLE),
    _m("cumulants.det_symbolic.calls", "count", "lower", "wall_s, certify_p50_ms, certain_p50_ms", _DENSE),
    _m("cumulants.det_symbolic.self_s", "s", "lower", "wall_s, certify_p50_ms, certain_p50_ms", _DENSE),
    _m("polynomial.mul.calls", "count", "lower", "wall_s, certify_p50_ms, certain_p50_ms", _DENSE),
    _m("polynomial.mul.self_s", "s", "lower", "wall_s, certify_p50_ms, certain_p50_ms", _DENSE),
    _m("polynomial.add.calls", "count", "lower", "wall_s, certify_p50_ms, certain_p50_ms", _DENSE),
    _m("polynomial.add.self_s", "s", "lower", "wall_s, certify_p50_ms, certain_p50_ms", _DENSE),
    _m("oracle.certify.symbolic_rechecks", "count", "lower", "wall_s, certify_p50_ms", _DENSE),
    _m("treks.search.calls", "count", "lower", "wall_s", _SPARSE),
    _m("treks.search.self_s", "s", "lower", "wall_s", _SPARSE),
    _m("treks.search.found_ratio", "share", "higher", "wall_s", _SPARSE),
    _m("treks.flow.calls", "count", "lower", "wall_s", _SPARSE),
    _m("treks.flow.self_s", "s", "lower", "wall_s", _SPARSE),
    _m("treks.flow.found_ratio", "share", "higher", "wall_s", _SPARSE),
    _m("treks.top_sets", "count", "lower", "wall_s", _SPARSE),
    _m("graphs.canonical_dag.calls", "count", "lower", "check_p50_ms", _SPARSE),
    _m("graphs.canonical_dag.self_s", "s", "lower", "check_p50_ms", _SPARSE),
    _m("graphs.parse_graph.self_s", "s", "lower", "check_p50_ms", _SPARSE),
    _m("oracle.decide.self_s", "s", "lower", "check_p50_ms", _ORACLE),
    _m("oracle.certify.self_s", "s", "lower", "certify_p50_ms", _ORACLE),
    _m("ser.canonical_json.calls", "count", "lower", "common_cause_p50_ms, check_p50_ms", _SPARSE),
    _m("ser.canonical_json.self_s", "s", "lower", "common_cause_p50_ms, check_p50_ms", _SPARSE),
    _m("cli.self_s", "s", "lower", "common_cause_p50_ms, check_p50_ms", _SPARSE),
    _m("moments.split_search.calls", "count", "lower", "scan_p50_ms", _MOMENTS),
    _m("moments.split_search.self_s", "s", "lower", "scan_p50_ms", _MOMENTS),
    _m("moments.det.calls", "count", "lower", "scan_p50_ms", _MOMENTS),
    _m("moments.det.self_s", "s", "lower", "scan_p50_ms", _MOMENTS),
    _m("moments.model_moment.self_s", "s", "lower", "parametrize_p50_ms", _MOMENTS),
    _m("moments.scan.self_s", "s", "lower", "scan_p50_ms", _MOMENTS),
    _m("cumulants.model_cumulant.self_s", "s", "lower", "parametrize_p50_ms", _MOMENTS),
    _m("estimation.bootstrap.self_s", "s", "lower", "bootstrap_p50_ms", _ESTIMATE),
    _m("estimation.bootstrap.replicates", "count", "lower", "bootstrap_p50_ms", _ESTIMATE),
    _m("estimation.bootstrap.bytes_gathered", "B", "lower", "bootstrap_p50_ms", _ESTIMATE),
    _m("estimation.sample_cumulant.self_s", "s", "lower", "estimate_p50_ms", _ESTIMATE),
    _m("estimation.simulate.self_s", "s", "lower", "simulate_p50_ms", _ESTIMATE),
    _m("estimation.io.self_s", "s", "lower", "simulate_p50_ms, estimate_p50_ms", _ESTIMATE),
    _m("bench.trace_overhead_ratio", "ratio", "lower", "traced wall_s / untraced wall_s", "every workload"),
) + tuple(
    _m(f"{layer}.errors", "count", "lower", "failed", "every workload") for layer in LAYERS
)


class Tracer:
    """Spans kept in flat arrays; self time, counts and errors folded in as spans close."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[list] = []  # [span index, seconds covered by child spans]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._certify_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; name may be a function of the call's arguments."""
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            nid = tracer._name_id(span_name)
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            is_certify = span_name == "oracle.certify"
            if is_certify:
                tracer._certify_depth += 1
            elif span_name == "cumulants.det_symbolic" and tracer._certify_depth:
                tracer.counts["oracle.certify.symbolic_rechecks"] += 1
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[span_name.split(".", 1)[0]] += 1
                raise
            finally:
                end = clock()
                tracer.span_end[idx] = end
                stack.pop()
                if is_certify:
                    tracer._certify_depth -= 1
                duration = end - start
                tracer.calls[span_name] += 1
                tracer.self_s[span_name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name, after=None) -> None:
        """Wrap module.attr and rebind every multitrek module name that points at it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "multitrek" or mod_name.startswith("multitrek.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attrs, name) -> None:
        original = getattr(cls, attrs[0])
        wrapped = self.wrap(name, original)
        for attr in attrs:
            self._patched.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapped)

    def unpatch(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- result --------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Every per-layer metric; bench.trace_overhead_ratio is filled in by the caller."""
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            span, _, kind = metric.name.rpartition(".")
            if kind == "calls":
                out[metric.name] = float(self.calls[span])
            elif kind == "self_s":
                out[metric.name] = self.self_s[span]
            elif kind == "errors":
                out[metric.name] = float(self.errors[span])
            elif kind == "found_ratio":
                calls = self.calls[span]
                out[metric.name] = self.counts[f"{span}.found"] / calls if calls else 0.0
            else:
                out[metric.name] = float(self.counts[metric.name])
        return out

    def write(self, path) -> int:
        """Write every span as one JSON document; returns the span count."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(self.span_name)


# -- what gets wrapped --------------------------------------------------------


def _after_hyperdet(tracer, args, kwargs, result):
    n, order = args[0], args[1]
    tracer.counts["tensors.hyperdet.terms"] += math.factorial(n) ** (order - 1)


def _after_search(tracer, args, kwargs, result):
    found = result.system is not None
    tracer.counts["treks.search.found"] += found
    tracer.counts["treks.top_sets"] += len(result.obstructions) + found


def _after_flow(tracer, args, kwargs, result):
    tracer.counts["treks.flow.found"] += result is not None


def _after_bootstrap(tracer, args, kwargs, result):
    data, sides = args[0], args[1]
    n_boot = args[3] if len(args) > 3 else kwargs["n_boot"]
    needed = {v for side in sides for v in side}
    tracer.counts["estimation.bootstrap.replicates"] += n_boot
    tracer.counts["estimation.bootstrap.bytes_gathered"] += data.data.shape[0] * len(needed) * 8 * n_boot


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the currently imported multitrek package."""
    mods = {name: sys.modules[f"multitrek.{name}"] for name in LAYERS}
    fn = tracer.patch_function
    fn(mods["cli"], "run", "cli")
    fn(mods["ser"], "canonical_json", "ser.canonical_json")
    fn(mods["graphs"], "parse_graph", "graphs.parse_graph")
    fn(mods["graphs"], "canonical_dag", "graphs.canonical_dag")
    fn(mods["treks"], "exists_trek_system_no_sided_intersection", "treks.search", _after_search)
    fn(mods["treks"], "exists_disjoint_path_system", "treks.flow", _after_flow)
    fn(mods["tensors"], "hyperdet_from_getter", "tensors.hyperdet", _after_hyperdet)
    fn(mods["cumulants"], "cumulant_entry", "cumulants.cumulant_entry")
    fn(mods["cumulants"], "path_matrix", "cumulants.path_matrix")
    fn(mods["cumulants"], "sample_generic_instance", "cumulants.instance")
    fn(mods["cumulants"], "symbolic_instance", "cumulants.instance")
    poly = mods["polynomial"].Poly

    def det_name(args) -> str:
        # Certain mode and the symbolic rechecks pass instances whose values are Polys.
        noise = next(iter(args[1].noise.values()))
        symbolic = any(isinstance(v, poly) for v in noise.diag.values.values())
        return "cumulants.det_symbolic" if symbolic else "cumulants.det_rational"

    fn(mods["cumulants"], "subtensor_determinant", det_name)
    fn(mods["cumulants"], "model_cumulant", "cumulants.model_cumulant")
    tracer.patch_method(mods["polynomial"].Poly, ("__mul__", "__rmul__"), "polynomial.mul")
    tracer.patch_method(mods["polynomial"].Poly, ("__add__", "__radd__"), "polynomial.add")
    fn(mods["oracle"], "decide_vanishing", "oracle.decide")
    fn(mods["oracle"], "certify_decision", "oracle.certify")
    fn(mods["moments"], "exists_split_trek_system_no_sided_intersection", "moments.split_search")
    fn(mods["moments"], "moment_subtensor_determinant", "moments.det")
    fn(mods["moments"], "model_moment", "moments.model_moment")
    fn(mods["moments"], "scan_conjecture", "moments.scan")
    est = mods["estimation"]
    fn(est, "test_determinant_zero", "estimation.bootstrap", _after_bootstrap)
    fn(est, "sample_cumulant", "estimation.sample_cumulant")
    fn(est, "simulate_lsem", "estimation.simulate")
    for io_name in ("read_sample_binary", "write_sample_binary", "read_sample_csv", "write_sample_csv"):
        fn(est, io_name, "estimation.io")
