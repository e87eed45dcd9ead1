"""The benchmark's tracer wraps fellerkit functions by name
(``perfbench/tracer.py``); a refactor that drops or renames one would break
``perfbench/run.py --trace 1`` without failing anything else, so every name
it wraps must resolve, and a traced run must count what it always counted.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fellerkit.envelopes import Envelope

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in tracer.ENTRY_POINTS.items() for n in names]
)
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"fellerkit.{module}"), name))


@pytest.mark.parametrize("query", tracer.ENVELOPE_QUERIES)
def test_envelope_query_resolves(query):
    assert callable(getattr(Envelope, query))


def test_a_traced_grid_analyze_counts_the_same_symbol_points(tmp_path):
    # the tracer reads np.ndim and np.shape of the evaluator's x, which the
    # grid envelope passes as an open grid; in a fresh interpreter, since
    # install() rebinds fellerkit's entry points for good.  The symbol is no
    # product a(x) psi(xi), whose q_inf searches a(x) through its factor
    # rather than the model's evaluator: here every frequency's search goes
    # through the evaluator that the tracer wraps
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "symbol": {
            "type": "closed_form", "dimension": 2, "radial_in_xi": True,
            "re": "(xi1**2 + xi2**2)**(0.75 + 0.05*sin(x1)*cos(x2))",
        },
        "envelope": {
            "method": "grid", "x_domain": [[0.0, 6.283185307179586]] * 2, "resolution": 17,
            "tail": "periodic",
        },
        "criteria": {"heat_times": [1.0], "occupation_radii": [1.0]},
    }))
    probe = f"""
import contextlib, importlib.util, io, math
import numpy as np
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from fellerkit import cli, envelopes
# an independent count of the grid search's evaluator calls and of the
# points they score, wrapped before install() wraps the evaluator itself
scores, calls = envelopes._GridOptimizer._scores, []

def counted(opt, x, xi, reduce_fn):
    calls.append(math.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1])))
    return scores(opt, x, xi, reduce_fn)

envelopes._GridOptimizer._scores = counted
run = tracer.install("test")
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["analyze", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
metrics = run.metrics()
print(rc, metrics["symbols.evaluator_calls"] == len(calls) > 0,
      metrics["symbols.points"] == sum(calls), metrics["symbols.points"])
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    # the tracer's count of points equals the wrapper's; the number of calls
    # follows how many shells a walk round holds
    assert out.stdout.split() == ["0", "True", "True", "3641823"]
