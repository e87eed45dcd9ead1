"""Span tracing of fellerkit's public entry points, from outside the package.

``install(run_id)`` wraps the entry points of each module and returns the
:class:`Tracer` that records them.  Every call through a wrapper is one
span: name, start, end and parent span, all sharing the run id.  Spans are
kept in flat arrays in memory and written out once, when the run ends.
Counts (calls, points, shells, bytes) are taken at the same boundaries.

A wrapper replaces every binding of the original object in every loaded
``fellerkit`` module, so ``from .criteria import x`` imports are covered
too.  Two boundaries live on objects rather than modules: the symbol
``evaluator`` of the model that ``build_model`` returns and the
``q_inf_fn`` of the envelope that ``build_envelope_from_config`` returns.
The quadrature integrand is counted but not spanned; its time is part of
``classify_improper``'s self time.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# module (the layer) -> entry points; a span is named "<module>.<entry point>"
ENTRY_POINTS = {
    "config": ["load_config", "build_model", "build_envelope_from_config"],
    "quadrature": ["classify_improper", "integrate_radial"],
    "criteria": [
        "heat_kernel_sup_bound",
        "test_transience",
        "test_local_times",
        "test_ultracontractivity",
        "occupation_bound",
        "char_fn_bound",
        "exit_time_bound",
        "bump_constant",
    ],
    "simulate": ["simulate_levy", "simulate_stable_like"],
    "empirics": ["validate_char_bound", "occupation_fourier_check", "exit_frequency"],
    "ensemble_io": ["write_ensemble", "read_ensemble"],
    "cli": ["main"],
}
ENVELOPE_QUERIES = ["q_inf", "q_sup", "re_sup", "im_sup"]
LAYERS = ["symbols", "envelopes", "quadrature", "criteria", "simulate", "empirics", "ensemble_io", "config"]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, after=None):
        """Wrap fn so that each call records a span; ``after(result, *args)``
        runs inside the span to take counts."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    # -- results ---------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end) if len(self.end) else np.zeros(0)
        return name, parent, start, end

    def write(self, path) -> None:
        """Write every span: name index, parent index (-1 for a root), start
        and end in seconds of time.perf_counter, plus the names and run id."""
        name, parent, start, end = self._arrays()
        np.savez(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name=name, parent=parent, start=start, end=end,
        )

    def metrics(self) -> dict:
        """Per-layer metrics: self times from the spans, counts as taken."""
        name, parent, start, end = self._arrays()
        n_names = max(len(self.names), 1)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(name, weights=dur - child, minlength=n_names)
        layer_of = np.array([nm.split(".")[0] for nm in self.names] or [""])
        # inclusive time of a name: its spans not nested in a span of the same name
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        outer = parent_name != name
        inclusive = np.bincount(name[outer], weights=dur[outer], minlength=n_names)

        def incl(nm: str) -> float:
            nid = self._ids.get(nm)
            return float(inclusive[nid]) if nid is not None else 0.0

        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[layer_of == layer].sum())
        out["symbols.evaluator_calls"] = c["symbols.evaluator_calls"]
        out["symbols.points"] = c["symbols.points"]
        out["envelopes.q_inf_calls"] = c["envelopes.q_inf_calls"]
        out["envelopes.q_inf_points"] = c["envelopes.q_inf_points"]
        out["envelopes.computed_points"] = c["envelopes.computed_points"]
        points = c["envelopes.q_inf_points"]
        out["envelopes.reuse_ratio"] = 1.0 - c["envelopes.computed_points"] / points if points else 0.0
        for key in ("classify_calls", "shells", "integrand_calls", "undetermined"):
            out[f"quadrature.{key}"] = c[f"quadrature.{key}"]
        for fn in ENTRY_POINTS["criteria"]:
            out[f"criteria.{fn}_s"] = incl(f"criteria.{fn}")
        steps = c["simulate.path_steps"]
        sim_s = incl("simulate.simulate_levy") + incl("simulate.simulate_stable_like")
        out["simulate.path_steps"] = steps
        out["simulate.path_steps_per_s"] = steps / sim_s if sim_s > 0 else 0.0
        out["simulate.positions_bytes"] = c["simulate.positions_bytes"]
        for fn in ENTRY_POINTS["empirics"]:
            out[f"empirics.{fn}_s"] = incl(f"empirics.{fn}")
        write_s = incl("ensemble_io.write_ensemble")
        written = c["ensemble_io.bytes_written"]
        out["ensemble_io.write_s"] = write_s
        out["ensemble_io.bytes_written"] = written
        out["ensemble_io.write_mb_per_s"] = written / 1e6 / write_s if write_s > 0 else 0.0
        out["ensemble_io.read_s"] = incl("ensemble_io.read_ensemble")
        out["config.build_s"] = sum(incl(f"config.{fn}") for fn in ENTRY_POINTS["config"])
        out["trace.spans"] = len(dur)
        return out


def _n_points(arr, d: int) -> int:
    arr = np.asarray(arr)
    return arr.size if d == 1 else arr.size // d


def _rebind(original, replacement) -> None:
    """Replace every binding of ``original`` in the loaded fellerkit modules."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fellerkit" or mod_name.startswith("fellerkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(run_id: str) -> Tracer:
    """Wrap fellerkit's entry points; fellerkit must already be imported."""
    import fellerkit  # noqa: F401  (loads every submodule)
    from fellerkit.envelopes import Envelope

    tracer = Tracer(run_id)
    counts = tracer.counts

    def evaluator_counts(result, xp, xip):
        counts["symbols.evaluator_calls"] += 1
        if np.ndim(xp) <= 1 and np.ndim(xip) <= 1:
            counts["symbols.points"] += 1
        else:
            counts["symbols.points"] += math.prod(np.broadcast_shapes(np.shape(xp)[:-1], np.shape(xip)[:-1]))

    def model_built(model, *args):
        # SymbolModel is frozen; no workload nests models, so this is the only
        # evaluator on the path
        object.__setattr__(
            model, "evaluator", tracer.span(model.evaluator, "symbols.evaluator", evaluator_counts)
        )

    def envelope_built(env, *args):
        def computed(result, xi):
            counts["envelopes.computed_points"] += 1

        env.q_inf_fn = tracer.span(env.q_inf_fn, "envelopes.q_inf_fn", computed)

    def classified(result, *args):
        counts["quadrature.classify_calls"] += 1
        counts["quadrature.shells"] += len(result.annulus_trace)
        counts["quadrature.undetermined"] += result.classification == "undetermined"

    def simulated(ens, *args):
        n, m, _ = ens.positions.shape
        counts["simulate.path_steps"] += n * (m - 1)
        counts["simulate.positions_bytes"] += ens.positions.nbytes

    def written(digest, path, ens):
        counts["ensemble_io.bytes_written"] += os.path.getsize(path)

    hooks = {
        "config.build_model": model_built,
        "config.build_envelope_from_config": envelope_built,
        "quadrature.classify_improper": classified,
        "simulate.simulate_levy": simulated,
        "simulate.simulate_stable_like": simulated,
        "ensemble_io.write_ensemble": written,
    }
    for module, names in ENTRY_POINTS.items():
        mod = sys.modules[f"fellerkit.{module}"]
        for fn_name in names:
            original = getattr(mod, fn_name)
            span_name = f"{module}.{fn_name}"
            wrapped = tracer.span(original, span_name, hooks.get(span_name))
            if span_name == "quadrature.classify_improper":
                wrapped = _counting_integrand(counts, wrapped)
            _rebind(original, wrapped)

    def queried(result, env, xi):
        counts["envelopes.q_inf_calls"] += 1
        counts["envelopes.q_inf_points"] += _n_points(xi, env.dimension)

    for query in ENVELOPE_QUERIES:
        after = queried if query == "q_inf" else None
        setattr(Envelope, query, tracer.span(getattr(Envelope, query), f"envelopes.{query}", after))
    return tracer


def _counting_integrand(counts: Counter, wrapped):
    @functools.wraps(wrapped)
    def classify_improper(f, *args, **kwargs):
        def integrand(xi):
            counts["quadrature.integrand_calls"] += 1
            return f(xi)

        return wrapped(integrand, *args, **kwargs)

    return classify_improper
