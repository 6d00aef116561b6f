"""Spans around the calls into each hdxlab layer, recorded from outside.

``Tracer.install`` wraps every public entry point listed in ``WRAPPED``: a
method is replaced on its class, a function in every ``hdxlab`` module that
binds it (``square_lambda`` as imported into ``stav`` too).  Each call
records a span (id, name, start, end, parent span, run id) in memory; the
spans are written out once, when the run ends.  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# layer -> (module, attribute) pairs; "Class.method" names a method
WRAPPED = {
    "complexes": [("hdxlab.complexes", "Complex.level"),
                  ("hdxlab.complexes", "Complex.link"),
                  ("hdxlab.complexes", "Complex.save"),
                  ("hdxlab.complexes", "load_complex")],
    "walks": [("hdxlab.walks", name) for name in (
        "up_operator", "down_operator", "containment_operator", "lower_walk",
        "complement_walk", "colored_walk", "fixed_union_walk",
        "nonlazy_upper_walk", "underlying_graph")],
    "spectra": [("hdxlab.spectra", name) for name in (
        "square_lambda", "bipartite_lambda", "link_expansion",
        "edge_expansion_exact")],
    "grassmann": [("hdxlab.grassmann", "GrassmannPoset.level"),
                  ("hdxlab.grassmann", "GrassmannPoset.contained_level"),
                  ("hdxlab.grassmann", "GrassmannPoset.joint_dim"),
                  ("hdxlab.grassmann", "grassmann_stav"),
                  ("hdxlab.grassmann", "grassmann_containment_walk"),
                  ("hdxlab.grassmann", "conditioned_complement_walk")],
    "stav": [("hdxlab.stav", name) for name in (
        "hdx_stav", "partite_ij_stav", "neighborhood_stav", "invariant_report",
        "goodness_check", "derive_graph")],
    "agreement": [("hdxlab.agreement", name) for name in (
        "rejection", "surprise", "dist_gamma", "dist_to_perfect_bruteforce",
        "corrupt", "perfect_ensemble")],
    "decoder": [("hdxlab.decoder", name) for name in (
        "global_decode", "local_popularity", "reach_functions", "bad_sets")],
    "cli": [("hdxlab.cli", "main")],
}

_WALK_BUILDERS = ("up_operator", "down_operator", "containment_operator",
                  "lower_walk", "complement_walk", "colored_walk",
                  "fixed_union_walk", "nonlazy_upper_walk")


def _short(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr}"


def _names(layer: str, *attrs: str) -> tuple:
    mod = WRAPPED[layer][0][0]
    return tuple(_short(mod, a) for a in attrs)


# metric -> (unit, how, what): "self" sums the self time of the named spans,
# "calls" counts them, "counter" reads a counter kept by the hooks below, and
# "rate" divides one counter by another over the whole run.
PER_LAYER = {
    "complexes.level_s": ("s", "self", _names("complexes", "Complex.level")),
    "complexes.level_faces": ("count", "counter", "level_faces"),
    "complexes.link_s": ("s", "self", _names("complexes", "Complex.link")),
    "complexes.json_s": ("s", "self", _names("complexes", "Complex.save",
                                              "load_complex")),
    "walks.build_s": ("s", "self", _names("walks", *_WALK_BUILDERS,
                                          "underlying_graph")),
    "walks.operators": ("count", "calls", _names("walks", *_WALK_BUILDERS)),
    "walks.nnz": ("count", "counter", "walk_nnz"),
    "spectra.eig_s": ("s", "self", _names("spectra", "square_lambda",
                                          "bipartite_lambda")),
    "spectra.dense_solves": ("count", "counter", "dense_solves"),
    "spectra.iterative_solves": ("count", "counter", "iterative_solves"),
    "spectra.max_dim": ("rows", "counter", "max_dim"),
    "spectra.link_expansion_s": ("s", "self", _names("spectra", "link_expansion")),
    "spectra.link_expansion_calls": ("count", "calls",
                                     _names("spectra", "link_expansion")),
    "spectra.edge_expansion_s": ("s", "self",
                                 _names("spectra", "edge_expansion_exact")),
    "spectra.edge_expansion_calls": ("count", "calls",
                                     _names("spectra", "edge_expansion_exact")),
    "grassmann.level_s": ("s", "self", _names("grassmann", "GrassmannPoset.level")),
    "grassmann.contained_level_calls": (
        "count", "calls", _names("grassmann", "GrassmannPoset.contained_level")),
    "grassmann.joint_dim_s": ("s", "self",
                              _names("grassmann", "GrassmannPoset.joint_dim")),
    "grassmann.joint_dim_calls": ("count", "calls",
                                  _names("grassmann", "GrassmannPoset.joint_dim")),
    "grassmann.walk_s": ("s", "self", _names("grassmann", "grassmann_containment_walk",
                                             "conditioned_complement_walk")),
    "stav.build_s": ("s", "self", _names("stav", "hdx_stav", "partite_ij_stav",
                                         "neighborhood_stav")),
    "stav.invariants_s": ("s", "self", _names("stav", "invariant_report")),
    "stav.goodness_s": ("s", "self", _names("stav", "goodness_check")),
    "stav.derive_graph_s": ("s", "self", _names("stav", "derive_graph")),
    "stav.derive_graph_calls": ("count", "calls", _names("stav", "derive_graph")),
    "stav.vasa_rows": ("count", "counter", "vasa_rows"),
    "agreement.rejection_s": ("s", "self", _names("agreement", "rejection")),
    "agreement.rejection_calls": ("count", "calls", _names("agreement", "rejection")),
    "agreement.mc_samples_per_s": ("1/s", "rate", ("mc_samples", "mc_seconds")),
    "agreement.surprise_s": ("s", "self", _names("agreement", "surprise")),
    "agreement.dist_s": ("s", "self", _names("agreement", "dist_gamma")),
    "agreement.bruteforce_s": ("s", "self",
                               _names("agreement", "dist_to_perfect_bruteforce")),
    "agreement.ensemble_s": ("s", "self", _names("agreement", "corrupt",
                                                 "perfect_ensemble")),
    "decoder.decode_s": ("s", "self", _names("decoder", "global_decode")),
    "decoder.popularity_s": ("s", "self", _names("decoder", "local_popularity")),
    "decoder.reach_s": ("s", "self", _names("decoder", "reach_functions")),
    "decoder.bad_sets_s": ("s", "self", _names("decoder", "bad_sets")),
    "cli.self_s": ("s", "self", _names("cli", "main")),
    "cli.report_bytes": ("B", "counter", "report_bytes"),
}


def _nnz(matrix) -> int:
    nnz = getattr(matrix, "nnz", None)
    if nnz is not None:
        return int(nnz)
    import numpy as np
    return int(np.count_nonzero(matrix))


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, run]
        self.counters = {}
        self.run = "setup"
        self._stack = []
        self._originals = []

    # -- recording ----------------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        per_run = self.counters.setdefault(self.run, {})
        per_run[key] = per_run.get(key, 0) + amount

    def _maximum(self, key: str, value: float) -> None:
        per_run = self.counters.setdefault(self.run, {})
        per_run[key] = max(per_run.get(key, 0), value)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), name, 0.0, 0.0,
                    tracer._stack[-1][0] if tracer._stack else None, tracer.run]
            tracer.spans.append(span)
            tracer._stack.append(span)
            pre = hook(tracer, "pre", args, kwargs, None) if hook else None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if hook:
                hook(tracer, pre, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in WRAPPED, once."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hdxlab" or n.startswith("hdxlab.")]
        for layer, entries in WRAPPED.items():
            for module_name, attr in entries:
                module = importlib.import_module(module_name)
                name = _short(module_name, attr)
                hook = _HOOKS.get(attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._originals.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig, hook))
                    continue
                orig = getattr(module, attr)
                wrapped = self._wrap(name, orig, hook)
                for mod in modules:
                    if mod.__dict__.get(attr) is orig:
                        self._originals.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    # -- derived metrics ------------------------------------------------------------

    def _self_times(self):
        """Per (run, name): [self seconds, calls, inclusive seconds]."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[4] is not None:
                child[sp[4]] += sp[3] - sp[2]
        out = {}
        for sp in self.spans:
            acc = out.setdefault((sp[5], sp[1]), [0.0, 0, 0.0])
            acc[0] += (sp[3] - sp[2]) - child[sp[0]]
            acc[1] += 1
            acc[2] += sp[3] - sp[2]
        return out

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric for one set-up plus one average round."""
        rounds = max(rounds, 1)
        table = self._self_times()

        def per_result(values: dict) -> float:
            # set-up happens once, the timed rounds are averaged
            return values.get("setup", 0.0) + sum(
                v for run, v in values.items() if run != "setup") / rounds

        out = {}
        for metric, (unit, how, arg) in PER_LAYER.items():
            if how in ("self", "calls"):
                col = 0 if how == "self" else 1
                values = {}
                for (run, name), acc in table.items():
                    if name in arg:
                        values[run] = values.get(run, 0.0) + acc[col]
                value = per_result(values)
            elif how == "counter":
                values = {run: c.get(arg, 0) for run, c in self.counters.items()}
                value = (max(values.values(), default=0) if arg == "max_dim"
                         else per_result(values))
            else:  # rate over the whole run
                num = sum(c.get(arg[0], 0) for c in self.counters.values())
                den = sum(c.get(arg[1], 0) for c in self.counters.values())
                value = num / den if den > 0 else 0.0
            out[metric] = {"value": float(value), "unit": unit}
        spans = {}
        for sp in self.spans:
            spans[sp[5]] = spans.get(sp[5], 0) + 1
        out["trace.spans"] = {"value": float(per_result(spans)), "unit": "count"}
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "run"],
                       "spans": self.spans, "counters": self.counters}, fh)
            fh.write("\n")


# -- hooks: counts taken at the same boundaries as the spans ---------------------


def _level_hook(tracer, phase, args, kwargs, result):
    if phase == "pre":
        cache = getattr(args[0], "_levels", None)
        k = args[1] if len(args) > 1 else kwargs.get("k")
        return cache is not None and k in cache
    if not phase:  # a cache miss materialized the level
        tracer.count("level_faces", len(result.faces))
    return None


def _walk_hook(tracer, phase, args, kwargs, result):
    if phase != "pre":
        tracer.count("walk_nnz", _nnz(result.matrix))


def _solve_hook(tracer, phase, args, kwargs, result):
    if phase == "pre":
        return None
    method = getattr(result, "method", "")
    if method == "dense":
        tracer.count("dense_solves", 1)
    elif method == "iterative":
        tracer.count("iterative_solves", 1)
    joint = args[0] if args else kwargs.get("joint")
    tracer._maximum("max_dim", max(joint.shape))


def _stav_hook(tracer, phase, args, kwargs, result):
    if phase != "pre" and hasattr(result, "vasa"):
        tracer.count("vasa_rows", len(result.vasa))


def _rejection_hook(tracer, phase, args, kwargs, result):
    if phase == "pre":
        return time.perf_counter()
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    if mode == "mc":
        tracer.count("mc_samples", result.samples)
        tracer.count("mc_seconds", time.perf_counter() - phase)


def _cli_hook(tracer, phase, args, kwargs, result):
    if phase == "pre":
        return None
    argv = list(args[0] if args else kwargs.get("argv") or [])
    for flag in ("-o", "--output", "--report"):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                tracer.count("report_bytes", os.path.getsize(path))


_HOOKS = {"Complex.level": _level_hook, "rejection": _rejection_hook,
          "main": _cli_hook,
          **{name: _walk_hook for name in _WALK_BUILDERS},
          **{name: _solve_hook for name in ("square_lambda", "bipartite_lambda")},
          **{name: _stav_hook for name in ("hdx_stav", "partite_ij_stav",
                                           "neighborhood_stav")}}
