"""In-memory spans around the library's module boundaries.

The tracer never edits the library: it replaces public functions on the
modules that call them (``hierdde.harness``, ``hierdde.classify`` and
``hierdde.manifolds``) with wrappers that record a span per call, and puts
the originals back afterwards.  The characteristic-function wrapper also
wraps the ``f``/``fprime`` handles it returns, so every kernel call and the
number of points it evaluates are seen.  Spans stay in memory until the
run ends; self times come from the nesting of spans, not from a profiler.
"""

import importlib
import json
import time
from types import SimpleNamespace

_now = time.perf_counter
_BULK_CHUNK = 1 << 17  # points per kernel call when re-evaluating in bulk


def _root_attrs(roots):
    return {"roots": sum(r.multiplicity for r in roots),
            "clusters": sum(1 for r in roots if r.multiplicity > 1),
            "unconverged": sum(1 for r in roots if not r.newton_converged)}


# (module, attribute, span name, attributes taken from (args, result))
_TARGETS = (
    ("hierdde.harness", "find_roots", "rootfinder.find_roots",
     lambda args, res: _root_attrs(res)),
    ("hierdde.harness", "build_ladder", "degeneracy.build_ladder", None),
    ("hierdde.harness", "assemble_A_k", "manifolds.assemble_A_k", None),
    ("hierdde.harness", "strong_spectrum", "manifolds.strong_spectrum", None),
    ("hierdde.harness", "manifold_grid", "manifolds.manifold_grid",
     lambda args, res: {"samples": len(res)}),
    ("hierdde.harness", "sup_gamma", "classify.sup_gamma", None),
    ("hierdde.classify", "sup_gamma", "classify.sup_gamma", None),
    ("hierdde.classify", "minimize", "classify.minimize",
     lambda args, res: {"nfev": int(res.nfev)}),
    ("hierdde.manifolds", "poly_roots_batch", "linalg.poly_roots_batch",
     lambda args, res: {"rows": int(args[0].shape[0])}),
)


class Tracer:
    """Span recorder.  A span is ``[id, parent id, name, start, end, attrs]``
    with the parent being the innermost span open when it started."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []
        self.points = []  # (unwrapped handle, points) per kernel call

    def wrap(self, fn, name, attrs=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, self._open[-1] if self._open else None, name,
                    _now(), None, {}]
            self.spans.append(span)
            self._open.append(sid)
            try:
                res = fn(*args, **kwargs)
            finally:
                span[4] = _now()
                self._open.pop()
            if attrs is not None:
                span[5] = attrs(args, res)
            return res
        traced.__wrapped__ = fn
        return traced

    def _wrap_handle(self, handle, name):
        def count(args, res):
            pts = args[0]
            self.points.append((handle, pts))
            return {"points": int(getattr(pts, "size", 1))}
        return self.wrap(handle, name, count)

    def _wrap_char_function(self, fn):
        def char_function(*args, **kwargs):
            f, fp = fn(*args, **kwargs)
            return (self._wrap_handle(f, "model.f"),
                    self._wrap_handle(fp, "model.fp"))
        return self.wrap(char_function, "model.char_function")

    def install(self):
        """Wrap every boundary function in place; undo with ``remove``."""
        targets = [(m, a, self.wrap(getattr(importlib.import_module(m), a),
                                    name, attrs))
                   for m, a, name, attrs in _TARGETS]
        harness = importlib.import_module("hierdde.harness")
        targets.append(("hierdde.harness", "char_function",
                        self._wrap_char_function(harness.char_function)))
        for mod_name, attr, wrapper in targets:
            # hierdde.classify is the function once the package is imported;
            # the module is only reachable through the import system
            mod = importlib.import_module(mod_name)
            self._patched.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def remove(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def wrap_api(self, api):
        """Traced copy of the benchmark's own entry points."""
        names = {"run_validate": "harness.run", "run_spectrum": "harness.run",
                 "run_manifolds": "harness.run",
                 "classify": "classify.classify",
                 "build_ladder": "degeneracy.build_ladder"}
        return SimpleNamespace(**{k: self.wrap(v, names[k])
                                  for k, v in vars(api).items()})

    def bulk_seconds(self):
        """Re-evaluate every recorded kernel point through its own handle
        in large batches; returns (seconds, points)."""
        import numpy as np

        groups = {}
        for handle, pts in self.points:
            groups.setdefault(handle, []).append(
                np.atleast_1d(np.asarray(pts, np.complex128)))
        total_s, total_n = 0.0, 0
        for handle, chunks in groups.items():
            pts = np.concatenate(chunks)
            t0 = _now()
            for i in range(0, pts.size, _BULK_CHUNK):
                handle(pts[i:i + _BULK_CHUNK])
            total_s += _now() - t0
            total_n += pts.size
        return total_s, total_n

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = {sid: end - start for sid, _, _, start, end, _ in spans}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def aggregate(spans):
    """Per span name: calls, total seconds, self seconds, summed attrs."""
    own = self_times(spans)
    out = {}
    for sid, _, name, start, end, attrs in spans:
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += own[sid]
        for key, val in attrs.items():
            agg[key] = agg.get(key, 0) + val
    return out


def _ratio(num, den):
    return num / den if den else 0.0


_COUNT, _S = "count", "s"
LAYER_UNITS = {
    "model.f_calls": _COUNT, "model.f_points": _COUNT,
    "model.fp_calls": _COUNT, "model.fp_points": _COUNT,
    "model.points_per_call": _COUNT, "model.eval_s": _S,
    "model.us_per_point": "us", "model.us_per_point_bulk": "us",
    "model.call_overhead_ratio": "ratio",
    "rootfinder.calls": _COUNT, "rootfinder.s": _S, "rootfinder.self_s": _S,
    "rootfinder.roots": _COUNT, "rootfinder.clusters": _COUNT,
    "rootfinder.unconverged": _COUNT, "rootfinder.points_per_root": _COUNT,
    "rootfinder.wall_share": "ratio",
    "classify.calls": _COUNT, "classify.sup_gamma_calls": _COUNT,
    "classify.sup_gamma_s": _S, "classify.nm_runs": _COUNT,
    "classify.nm_evals": _COUNT, "classify.evals_per_sup": _COUNT,
    "manifolds.manifold_grid_s": _S, "manifolds.assemble_A_k_s": _S,
    "manifolds.samples": _COUNT, "linalg.poly_roots_batch_calls": _COUNT,
    "linalg.rows_per_call": _COUNT, "linalg.poly_roots_batch_s": _S,
    "harness.run_s": _S, "harness.self_s": _S,
    "degeneracy.build_ladder_calls": _COUNT,
    "degeneracy.build_ladder_s": _S,
    "trace.wall_s": _S, "trace.spans": _COUNT,
}


def layer_metrics(spans, passes, traced_wall_s, bulk_s, bulk_points):
    """The per-layer metrics, per pass where they are totals.

    ``traced_wall_s`` is the median traced pass time; ``bulk_s`` and
    ``bulk_points`` come from ``Tracer.bulk_seconds``.
    """
    agg = aggregate(spans)
    none = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return agg.get(name, none)

    f, fp = get("model.f"), get("model.fp")
    rf = get("rootfinder.find_roots")
    sup, nm = get("classify.sup_gamma"), get("classify.minimize")
    prb = get("linalg.poly_roots_batch")
    run = get("harness.run")
    lad = get("degeneracy.build_ladder")
    model_calls = f["calls"] + fp["calls"]
    model_points = f.get("points", 0) + fp.get("points", 0)
    model_s = f["s"] + fp["s"]
    # find_roots calls only the kernel handles, so its self time is the
    # root finder's own work and these are the points it asked for
    rf_model_points = sum(
        attrs.get("points", 0)
        for _, parent, name, _, _, attrs in spans
        if name in ("model.f", "model.fp") and parent is not None
        and spans[parent][2] == "rootfinder.find_roots")
    us_point = _ratio(model_s, model_points) * 1e6
    us_bulk = _ratio(bulk_s, bulk_points) * 1e6
    per = 1.0 / passes
    m = {
        "model.f_calls": f["calls"] * per,
        "model.f_points": f.get("points", 0) * per,
        "model.fp_calls": fp["calls"] * per,
        "model.fp_points": fp.get("points", 0) * per,
        "model.points_per_call": _ratio(model_points, model_calls),
        "model.eval_s": model_s * per,
        "model.us_per_point": us_point,
        "model.us_per_point_bulk": us_bulk,
        "model.call_overhead_ratio": _ratio(us_point, us_bulk),
        "rootfinder.calls": rf["calls"] * per,
        "rootfinder.s": rf["s"] * per,
        "rootfinder.self_s": rf["self_s"] * per,
        "rootfinder.roots": rf.get("roots", 0) * per,
        "rootfinder.clusters": rf.get("clusters", 0) * per,
        "rootfinder.unconverged": rf.get("unconverged", 0) * per,
        "rootfinder.points_per_root": _ratio(rf_model_points,
                                             rf.get("roots", 0)),
        "rootfinder.wall_share": _ratio(rf["s"] * per, traced_wall_s),
        "classify.calls": get("classify.classify")["calls"] * per,
        "classify.sup_gamma_calls": sup["calls"] * per,
        "classify.sup_gamma_s": sup["s"] * per,
        "classify.nm_runs": nm["calls"] * per,
        "classify.nm_evals": nm.get("nfev", 0) * per,
        "classify.evals_per_sup": _ratio(nm.get("nfev", 0), sup["calls"]),
        "manifolds.manifold_grid_s": get("manifolds.manifold_grid")["s"] * per,
        "manifolds.assemble_A_k_s": get("manifolds.assemble_A_k")["s"] * per,
        "manifolds.samples":
            get("manifolds.manifold_grid").get("samples", 0) * per,
        "linalg.poly_roots_batch_calls": prb["calls"] * per,
        "linalg.rows_per_call": _ratio(prb.get("rows", 0), prb["calls"]),
        "linalg.poly_roots_batch_s": prb["s"] * per,
        "harness.run_s": run["s"] * per,
        "harness.self_s": run["self_s"] * per,
        "degeneracy.build_ladder_calls": lad["calls"] * per,
        "degeneracy.build_ladder_s": lad["s"] * per,
        "trace.wall_s": traced_wall_s,
        "trace.spans": len(spans) * per,
    }
    return m
