"""Hooks the benchmark places around gibbsmatch's public functions.

Patches replace a function everywhere the package holds a reference to it
(module attributes and names imported with `from ... import`), or a method
on its class, and put the originals back on restore(). Two users:

- Capture (always on, cheap): keeps each Crossmatch test's inputs and outcome
  for the checkers, and times the sampling and testing stages of a round.
- Tracer (traced runs only): records a span (id, parent, name, start, end,
  counts) around every call into a layer's public functions and the kernels'
  step methods, in memory, and derives the per-layer metrics from them.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

import numpy as np


class Patches:
    def __init__(self):
        self._undo = []

    def function(self, module, name: str, make) -> None:
        old = getattr(module, name)
        new = make(old)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "gibbsmatch":
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, old))

    def method(self, cls, name: str, make) -> None:
        old = cls.__dict__[name]
        setattr(cls, name, make(old))
        self._undo.append((cls, name, old))

    def restore(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


def _bits(x) -> np.ndarray:
    return np.array(getattr(x, "samples", x), dtype=np.uint8)


class Capture:
    """Crossmatch instances and stage times of the commands a worker runs."""

    def __init__(self):
        self.instances = []     # one dict per crossmatch_test call
        self.arrays = {}        # "x<i>"/"y<i>" -> the pooled groups of instance i
        self.tag = None         # round the next instances belong to
        self.chain_s = 0.0      # time inside run_chains since the last reset
        self.test_s = 0.0       # time inside crossmatch_test since the last reset

    def install(self, patches: Patches) -> None:
        from gibbsmatch import chains, crossmatch

        def timed_chains(fn):
            def run_chains(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.chain_s += time.perf_counter() - t0
            return run_chains

        def captured_test(fn):
            def crossmatch_test(x, y, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    out = fn(x, y, *args, **kwargs)
                finally:
                    self.test_s += time.perf_counter() - t0
                self._keep(x, y, out)
                return out
            return crossmatch_test

        patches.function(chains, "run_chains", timed_chains)
        patches.function(crossmatch, "crossmatch_test", captured_test)

    def _keep(self, x, y, out) -> None:
        i = len(self.instances)
        self.arrays[f"x{i}"] = _bits(x)
        self.arrays[f"y{i}"] = _bits(y)
        m = out.matching
        self.instances.append({"tag": self.tag, "n": out.n, "a_obs": out.a_obs,
                               "p_value": out.p_value, "method": out.method,
                               "total_cost": m.total_cost,
                               "pairs": [list(p) for p in m.pairs]})

    def reset_stages(self) -> tuple[float, float]:
        stages = (self.chain_s, self.test_s)
        self.chain_s = self.test_s = 0.0
        return stages

    def save(self, out_dir) -> None:
        with open(os.path.join(out_dir, "instances.json"), "w") as fh:
            json.dump(self.instances, fh)
        np.savez(os.path.join(out_dir, "instances.npz"), **self.arrays)


# --- tracing ---------------------------------------------------------------------

def _run_chains_counts(args, kwargs) -> dict:
    kernel, settings, _seed, paths = args[:4]
    steps = settings.total_steps
    per_step = kernel.n_uniforms_per_step + kernel.n_normals_per_step
    init = kernel.n_visible if settings.init == "random-uniform" else 0
    return {"steps": len(paths) * steps,
            "reference_steps": sum(steps for p in paths if len(p) >= 2 and p[1] == 0),
            "draw_bytes": 8 * len(paths) * (steps * per_step + init)}


def _matching_counts(args, kwargs) -> dict:
    return {"points": int(args[0].size)}


def _file_bytes(path_arg: int):
    def counts(args, kwargs) -> dict:
        return {"bytes": os.path.getsize(args[path_arg])}
    return counts


# (module, function, counts) for every traced public function; spans are named module.function.
TRACED_FUNCTIONS = [
    ("cli", "main", None),
    ("harness", "run_trials", None),
    ("harness", "parameter_sweep", None),
    ("harness", "leak_density_sweep", None),
    ("chains", "run_chains", _run_chains_counts),
    ("crossmatch", "crossmatch_test", None),
    ("crossmatch", "pairwise_distances", None),
    ("crossmatch", "optimal_matching", _matching_counts),
    ("crossmatch", "greedy_matching", _matching_counts),
    ("crossmatch", "p_value", None),
    ("formats", "save_samples", _file_bytes(1)),
    ("formats", "load_samples", _file_bytes(0)),
    ("reports", "sweep_csv", None),
    ("reports", "histogram_csv", None),
    ("reports", "outcome_json", None),
    ("reports", "stats_json", None),
    ("reports", "svg_bar_chart", None),
    ("reports", "svg_line_chart", None),
]
TRACED_STEPS = [("chains", "IdealKernel"), ("neuro", "DigitalKernel"), ("neuro", "AnalogKernel")]


class Tracer:
    def __init__(self):
        self.spans = []     # (id, parent, name, start_ns, end_ns, counts)
        self._stack = []    # ids of the open spans, innermost last
        self._ids = itertools.count()

    def _wrap(self, name: str, counts=None):
        def make(fn):
            def traced(*args, **kwargs):
                sid = next(self._ids)
                parent = self._stack[-1] if self._stack else -1
                self._stack.append(sid)
                t0 = time.perf_counter_ns()
                ok = False
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                finally:
                    t1 = time.perf_counter_ns()
                    self._stack.pop()
                    info = counts(args, kwargs) if counts is not None and ok else None
                    self.spans.append((sid, parent, name, t0, t1, info))
            return traced
        return make

    def install(self, patches: Patches) -> None:
        import importlib

        for mod_name, fn_name, counts in TRACED_FUNCTIONS:
            module = importlib.import_module(f"gibbsmatch.{mod_name}")
            patches.function(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", counts))
        for mod_name, cls_name in TRACED_STEPS:
            cls = getattr(importlib.import_module(f"gibbsmatch.{mod_name}"), cls_name)
            patches.method(cls, "step", self._wrap(f"{mod_name}.{cls_name}.step"))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, info in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1, "counts": info}) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def tail_percentile(count: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it (50 if none)."""
    for permille in (999, 990, 950, 900, 750):
        if count * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return 50.0


def layer_metrics(spans: list[dict], rounds: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced round, plus notes (sample counts, percentile)."""
    child = {}    # span id -> summed duration of its child spans
    for s in spans:
        d = (s["end_ns"] - s["start_ns"]) / 1e9
        s["dur"] = d
        child[s["parent"]] = child.get(s["parent"], 0.0) + d

    def total(name: str) -> float:
        return sum(s["dur"] for s in spans if s["name"] == name)

    def self_time(prefix: str) -> float:
        return sum(s["dur"] - child.get(s["id"], 0.0) for s in spans
                   if s["name"].startswith(prefix))

    def count(name: str, key: str) -> int:
        return sum(s["counts"][key] for s in spans if s["name"] == name and s["counts"])

    matchings = [s for s in spans
                 if s["name"] in ("crossmatch.optimal_matching", "crossmatch.greedy_matching")]
    optimal_ms = np.array([s["dur"] * 1e3 for s in spans
                           if s["name"] == "crossmatch.optimal_matching"])
    q = tail_percentile(optimal_ms.size)
    per_round = {
        "cli.self_s": (self_time("cli."), "s"),
        "harness.self_s": (self_time("harness."), "s"),
        "harness.reference_steps": (count("chains.run_chains", "reference_steps"), "count"),
        "chains.run_chains_s": (total("chains.run_chains"), "s"),
        "chains.engine_self_s": (self_time("chains.run_chains"), "s"),
        "chains.steps": (count("chains.run_chains", "steps"), "count"),
        "chains.draw_mb": (count("chains.run_chains", "draw_bytes") / 1e6, "MB"),
        "chains.IdealKernel.step_s": (total("chains.IdealKernel.step"), "s"),
        "neuro.DigitalKernel.step_s": (total("neuro.DigitalKernel.step"), "s"),
        "neuro.AnalogKernel.step_s": (total("neuro.AnalogKernel.step"), "s"),
        "crossmatch.optimal_matching_s": (total("crossmatch.optimal_matching"), "s"),
        "crossmatch.matchings": (len(matchings), "count"),
        "crossmatch.pooled_points": (sum(s["counts"]["points"] for s in matchings
                                         if s["counts"]), "count"),
        "crossmatch.pairwise_distances_s": (total("crossmatch.pairwise_distances"), "s"),
        "crossmatch.p_value_s": (total("crossmatch.p_value"), "s"),
        "formats.save_samples_s": (total("formats.save_samples"), "s"),
        "formats.load_samples_s": (total("formats.load_samples"), "s"),
        "formats.bytes": (count("formats.save_samples", "bytes")
                          + count("formats.load_samples", "bytes"), "bytes"),
        "reports.render_s": (sum(s["dur"] for s in spans if s["name"].startswith("reports.")),
                             "s"),
    }
    metrics = {name: {"value": value / rounds, "unit": unit}
               for name, (value, unit) in per_round.items()}
    has = optimal_ms.size > 0
    metrics["crossmatch.optimal_matching_p50_ms"] = {
        "value": float(np.percentile(optimal_ms, 50)) if has else 0.0, "unit": "ms"}
    metrics["crossmatch.optimal_matching_tail_ms"] = {
        "value": float(np.percentile(optimal_ms, q)) if has else 0.0, "unit": "ms"}
    notes = {"optimal_matching_samples": int(optimal_ms.size), "tail_percentile": q,
             "traced_rounds": rounds}
    return metrics, notes
