"""scipy and numpy.polynomial stay off the import path of the
command-line tool.

Closed-form and stable-like symbols are evaluated with numpy alone, so
neither importing ``fellerkit.cli`` nor running ``analyze``, ``validate`` or
``simulate`` on such a model may load scipy, which would triple start-up
time.  The bump constant of ``validate``'s exit rows builds its own
Legendre rule, so numpy.polynomial stays unloaded too.  Each check runs in
a fresh interpreter, because the test process itself has scipy loaded by
other test modules.  That the lazily imported scipy routines still work is
shown by the ``levy`` symbol tests and the ``stable_like_constant`` tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGS = {
    "analyze_grid_2d": ("analyze", {
        "symbol": {
            "type": "closed_form",
            "re": "(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75",
            "dimension": 2,
            "radial_in_xi": True,
        },
        "envelope": {
            "method": "grid",
            "x_domain": [[0.0, 6.283185307179586], [0.0, 6.283185307179586]],
            "resolution": 9,
            "tail": "periodic",
        },
        "criteria": {"heat_times": [1.0], "occupation_radii": [1.0]},
    }),
    "analyze_stable_like_2d": ("analyze", {
        "symbol": {
            "type": "stable_like", "alpha": "1.5 + 0.3*sin(x1)*cos(x2)",
            "alpha_min": 1.2, "alpha_max": 1.8, "dimension": 2,
        },
        "criteria": {"heat_times": [0.1, 1.0], "occupation_radii": [0.5, 1.0]},
    }),
    "validate_stable_like_1d": ("validate", {
        "symbol": {
            "type": "stable_like", "alpha": "1.5 + 0.3*sin(x)",
            "alpha_min": 1.2, "alpha_max": 1.8,
        },
        "simulation": {"n_paths": 50, "t_max": 16.0, "h_max": 0.5},
        "validation": {
            "t_values": [0.5, 1.0],
            "xi_values": [1.0],
            "exit": [{"r": 1.0, "t": 0.5}],
            "occupation_xi": [0.0, 1.0],
        },
    }),
    "simulate_alpha_stable_2d": ("simulate", {
        "symbol": {"type": "alpha_stable", "alpha": 1.5, "dimension": 2},
        "simulation": {"n_paths": 50, "t_max": 1.0, "n_steps": 20},
    }),
}

# runs in the fresh interpreter: argv[1] is the work directory
PROBE = """
import json, sys
from pathlib import Path

def heavy_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))

import fellerkit.cli
seen = {"import fellerkit.cli": (0, heavy_modules())}
work = Path(sys.argv[1])
for name, (command, _) in json.loads((work / "configs.json").read_text()).items():
    rc = fellerkit.cli.main([command, "--config", str(work / (name + ".json")),
                             "--out", str(work / name)])
    seen[name] = (rc, heavy_modules())
print(json.dumps(seen))
"""


def test_no_workload_of_closed_form_or_stable_like_symbols_imports_scipy(tmp_path):
    (tmp_path / "configs.json").write_text(json.dumps(CONFIGS))
    for name, (_, cfg) in CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=100,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["import fellerkit.cli", *CONFIGS]
    for step, (rc, modules) in seen.items():
        assert rc == 0, (step, proc.stderr)
        assert modules == [], f"{step} loaded {modules[:5]}"
