"""The four fixed benchmark workloads.

Each workload is one ``fellerkit`` subcommand on one configuration.  The
configuration depends on the seed only through its ``seed`` entry: the two
``analyze`` workloads do the same work for every seed, the two Monte Carlo
workloads draw different paths of the same size.

This module is plain Python so that the benchmark's parent process can
build configurations without importing numpy.
"""

from __future__ import annotations

import math

HEAT_TIMES = [10.0 ** ((k - 80) / 20.0) for k in range(161)]  # 1e-4 ... 1e4
EXIT_ROWS = [
    {"r": 0.5, "t": 0.25},
    {"r": 1.0, "t": 1.0},
    {"r": 2.0, "t": 1.0 / 256.0},  # the only row whose bound is below 1
]
CRITERIA = ["ultracontractivity", "transience", "local_times"]


def _grid_envelope_2d(seed: int) -> dict:
    return {
        "symbol": {
            "type": "closed_form",
            "re": "(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75",
            "dimension": 2,
            "radial_in_xi": True,
        },
        "envelope": {
            "method": "grid",
            "x_domain": [[0.0, 2.0 * math.pi], [0.0, 2.0 * math.pi]],
            "resolution": 33,
            "tail": "periodic",
        },
        "criteria": {"run": CRITERIA, "heat_times": [1.0], "occupation_radii": [1.0]},
        "seed": seed,
    }


def _heat_curve_stable_2d(seed: int) -> dict:
    return {
        "symbol": {
            "type": "stable_like",
            "alpha": "1.5 + 0.3*sin(x1)*cos(x2)",
            "alpha_min": 1.2,
            "alpha_max": 1.8,
            "dimension": 2,
        },
        "envelope": {"method": "auto"},
        "criteria": {
            "run": CRITERIA,
            "heat_times": HEAT_TIMES,
            "occupation_radii": [0.25, 0.5, 1.0, 2.0],
        },
        "seed": seed,
    }


def _mc_validate_1d(seed: int) -> dict:
    return {
        "symbol": {
            "type": "stable_like",
            "alpha": "1.5 + 0.3*sin(x)",
            "alpha_min": 1.2,
            "alpha_max": 1.8,
        },
        "simulation": {"n_paths": 4000, "t_max": 16.0, "h_max": 1.0 / 256.0},
        "validation": {
            "t_values": [0.25, 0.5, 1.0],
            "xi_values": [0.5, 1.0, 2.0, 4.0],
            "exit": EXIT_ROWS,
            "occupation_xi": [0.0, 1.0, 2.0],
        },
        "seed": seed,
    }


def _mc_simulate_2d(seed: int) -> dict:
    return {
        "symbol": {"type": "alpha_stable", "alpha": 1.5, "dimension": 2},
        "simulation": {"n_paths": 4000, "t_max": 2.0, "n_steps": 2000},
        "seed": seed,
    }


# name -> (subcommand, function of the seed returning the config)
WORKLOADS = {
    "grid_envelope_2d": ("analyze", _grid_envelope_2d),
    "heat_curve_stable_2d": ("analyze", _heat_curve_stable_2d),
    "mc_validate_1d": ("validate", _mc_validate_1d),
    "mc_simulate_2d": ("simulate", _mc_simulate_2d),
}
