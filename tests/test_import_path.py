"""scipy and numpy.polynomial stay off the import path of the
command-line tool, and numpy's generators and OpenSSL off ``analyze``'s.

Closed-form and stable-like symbols are evaluated with numpy alone, so
neither importing ``fellerkit.cli`` nor running ``analyze``, ``validate`` or
``simulate`` on such a model may load scipy, which would triple start-up
time.  The bump constants of ``validate``'s exit rows in d = 1 to 3 are
stored, so a d = 2 run loads no scipy for the Bessel kernel J0 of their
transform; the transform, when it runs, builds its own Legendre rule, so
numpy.polynomial stays unloaded too.  ``analyze`` draws
no random numbers and hashes no file: ``numpy.random`` and ``_hashlib``
(OpenSSL, which ``numpy.random`` loads through ``secrets``) must be
unloaded after the import and after both ``analyze`` runs, and loaded
after ``validate`` and ``simulate``, whose step sources and checksum load
them.  Each check runs in a fresh interpreter, because the test process
itself has these modules loaded by other test modules.  That the lazily
imported scipy routines still work is shown by the ``levy`` symbol tests
and the ``stable_like_constant`` tests.
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
    # its exit rows take the stored c_u(2): the J0 transform would load scipy
    "validate_alpha_stable_2d": ("validate", {
        "symbol": {"type": "alpha_stable", "alpha": 1.5, "dimension": 2},
        "simulation": {"n_paths": 50, "t_max": 1.0, "n_steps": 20},
        "validation": {
            "t_values": [0.5, 1.0],
            "xi_values": [[1.0, 0.5]],
            "exit": [{"r": 1.0, "t": 0.5}, {"r": 2.0, "t": 1.0}],
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

def drawing_modules():
    return sorted(m for m in ("numpy.random", "_hashlib") if m in sys.modules)

import fellerkit.cli
seen = {"import fellerkit.cli": (0, heavy_modules(), drawing_modules())}
work = Path(sys.argv[1])
for name, (command, _) in json.loads((work / "configs.json").read_text()).items():
    rc = fellerkit.cli.main([command, "--config", str(work / (name + ".json")),
                             "--out", str(work / name)])
    seen[name] = (rc, heavy_modules(), drawing_modules())
print(json.dumps(seen))
"""


def test_no_workload_of_closed_form_or_stable_like_symbols_imports_scipy(tmp_path):
    """Also: only the subcommands that draw load the generators and OpenSSL."""
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
    for step, (rc, modules, drawing) in seen.items():
        assert rc == 0, (step, proc.stderr)
        assert modules == [], f"{step} loaded {modules[:5]}"
        draws = step.startswith(("validate", "simulate"))
        assert drawing == (["_hashlib", "numpy.random"] if draws else []), step
