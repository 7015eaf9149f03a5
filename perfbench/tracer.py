"""Spans and counters around the public functions of each bdm module.

The tracer lives entirely in the benchmark: ``install`` replaces every
public function of the modules in ``LAYERS`` (plus ``odecore._propagate_vec``,
the one propagation entry that every integration goes through) by a
wrapper, in *every* bdm module that binds the same function object,
because bdmap, resolvent, weyl and spectrum import odecore functions by
name.  V evaluations are counted by wrapping the evaluator that
``make_eval`` returns; they are aggregated, not stored as spans, since a
sweep makes thousands of them.

A *sweep* is one ``fundamental_system`` call: the fundamental system
integrated across the interval.  Every other ``_propagate_vec`` call is a
*propagation*: a partial integration between interior points, as made by
``SolutionEvaluator.uminus``/``uplus`` and ``weyl.wt_m``.

A span's self time is its duration minus the time covered by its child
spans (and by the V evaluations made directly under it).  Aggregates
cover every traced round; individual spans are kept in memory for the
first traced round only and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer; traces and lft are part of the map algebra layer
LAYERS = {
    "potential": "potential",
    "odecore": "odecore",
    "bdmap": "bdmap",
    "traces": "bdmap",
    "lft": "bdmap",
    "resolvent": "resolvent",
    "weyl": "weyl",
    "spectrum": "spectrum",
    "verify": "verify",
    "cli": "cli",
}
SWEEP = "fundamental_system"
PROPAGATE = "_propagate_vec"
VALUE_FUNCS = ("green", "krein_correction")
EIG_FUNCS = ("eig_selfadjoint", "eig_rectangle")


class Tracer:
    def __init__(self):
        self.patches = []          # (module, attribute, original, wrapper)
        self.stack = []            # frames: [child_s, name, span_id]
        self.self_s = defaultdict(float)
        self.calls = Counter()     # function name -> calls
        self.dur_s = defaultdict(float)
        self.sweeps_under = Counter()   # function name -> sweeps made inside it
        self.props_under = Counter()    # function name -> propagations inside it
        self.props = 0
        self.sweep_ms = []
        self.v_evals = 0
        self.sweep_v_evals = 0
        self.v_eval_s = 0.0
        self.eigs = 0
        self.record = False
        self.spans = []
        self._next_id = 0
        self._build()

    # ----------------------------------------------------------- install
    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "bdm" or n.startswith("bdm."))]

    def _build(self):
        mods = self._modules()
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            layer = LAYERS.get(short)
            if layer is None:
                continue
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name == "make_eval":
                    wrappers[fn] = self._wrap_make_eval(fn)
                elif not name.startswith("_") or name == PROPAGATE:
                    wrappers[fn] = self._wrap(fn, layer, name)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(obj) if inspect.isfunction(obj) else None
                if w is not None:
                    self.patches.append((mod, name, obj, w))

    def install(self):
        for mod, name, _, w in self.patches:
            setattr(mod, name, w)

    def uninstall(self):
        for mod, name, orig, _ in self.patches:
            setattr(mod, name, orig)

    # ---------------------------------------------------------- wrappers
    def _wrap(self, fn, layer, name):
        tr = self
        is_sweep = name == SWEEP
        is_prop = name == PROPAGATE
        is_eig = name in EIG_FUNCS

        def wrapper(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1][2] if stack else -1
            sid = tr._next_id
            tr._next_id = sid + 1
            frame = [0.0, name, sid]
            stack.append(frame)
            v0 = tr.v_evals
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tr.self_s[layer] += dur - frame[0]
                tr.calls[name] += 1
                tr.dur_s[name] += dur
                if stack:
                    stack[-1][0] += dur
                if is_sweep:
                    tr.sweep_ms.append(dur * 1e3)
                    tr.sweep_v_evals += tr.v_evals - v0
                    for f in set(f[1] for f in stack):
                        tr.sweeps_under[f] += 1
                elif is_prop and not (stack and stack[-1][1] == SWEEP):
                    tr.props += 1
                    for f in set(f[1] for f in stack):
                        tr.props_under[f] += 1
                if tr.record:
                    tr.spans.append((sid, parent, layer, name, t0, t1, frame[0]))
            if is_eig:
                tr.eigs += len(out.eigenvalues)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        return wrapper

    def _wrap_make_eval(self, make_eval):
        tr = self

        def traced_make_eval(V):
            ev = make_eval(V)

            def counted(x):
                t0 = perf_counter()
                v = ev(x)
                dt = perf_counter() - t0
                tr.v_evals += 1
                tr.v_eval_s += dt
                if tr.stack:
                    tr.stack[-1][0] += dt
                return v

            return counted

        traced_make_eval.__wrapped__ = make_eval
        return traced_make_eval

    # ----------------------------------------------------------- results
    def per_layer(self, rounds: int, cli: dict) -> dict:
        """Per-layer metrics, per round of the workload."""
        n = max(rounds, 1)
        sweeps = self.calls[SWEEP]
        values = sum(self.calls[f] for f in VALUE_FUNCS)
        value_sweeps = sum(self.sweeps_under[f] for f in VALUE_FUNCS)
        value_props = sum(self.props_under[f] for f in VALUE_FUNCS)
        mats = self.calls["wt_matrix"]
        delta = self.calls["char_det"]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "potential.v_evals": (self.v_evals / n, "count"),
            "potential.self_s": ((self.self_s["potential"] + self.v_eval_s) / n, "s"),
            "odecore.sweeps": (sweeps / n, "count"),
            "odecore.propagations": (self.props / n, "count"),
            "odecore.self_s": (self.self_s["odecore"] / n, "s"),
            "odecore.sweep_ms_p50": (statistics.median(self.sweep_ms) if self.sweep_ms else 0.0, "ms"),
            "odecore.v_evals_per_sweep": (ratio(self.sweep_v_evals, sweeps), "ratio"),
            "bdmap.calls": (self.calls["bdmap_general"] / n, "count"),
            "bdmap.self_s": (self.self_s["bdmap"] / n, "s"),
            "resolvent.values": (values / n, "count"),
            "resolvent.sweeps_per_value": (ratio(value_sweeps, values), "ratio"),
            "resolvent.propagations_per_value": (ratio(value_props, values), "ratio"),
            "resolvent.self_s": (self.self_s["resolvent"] / n, "s"),
            "weyl.matrices": (mats / n, "count"),
            "weyl.sweeps_per_matrix": (ratio(self.sweeps_under["wt_matrix"], mats), "ratio"),
            "weyl.propagations_per_matrix": (ratio(self.props_under["wt_matrix"], mats), "ratio"),
            "weyl.self_s": (self.self_s["weyl"] / n, "s"),
            "spectrum.delta_evals": (delta / n, "count"),
            "spectrum.delta_evals_per_eig": (ratio(delta, self.eigs), "ratio"),
            "spectrum.self_s": (self.self_s["spectrum"] / n, "s"),
            "verify.suite_s": (self.dur_s["run_suite"] / n, "s"),
            "verify.sweeps": (self.sweeps_under["run_suite"] / n, "count"),
            "cli.import_s": (cli["import_s"], "s"),
            "cli.run_s": (cli["run_s"], "s"),
            "cli.process_s": (cli["process_s"], "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def dump(self, path: str, extra: dict) -> None:
        """Write counters and the spans of the first traced round."""
        doc = dict(extra)
        doc["counters"] = {"calls": dict(self.calls), "sweeps_under": dict(self.sweeps_under),
                           "propagations_under": dict(self.props_under),
                           "v_evals": self.v_evals, "sweep_v_evals": self.sweep_v_evals,
                           "eigenvalues": self.eigs}
        doc["self_s"] = dict(self.self_s)
        doc["self_s"]["potential.v_eval"] = self.v_eval_s
        doc["span_fields"] = ["id", "parent", "layer", "name", "t0", "t1", "child_s"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
