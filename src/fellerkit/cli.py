"""Command-line entry point.

Three subcommands share a JSON configuration:

    fellerkit analyze  --config cfg.json [--out DIR]
        build the model and envelopes, evaluate criteria and bounds,
        write report.json and curves.csv

    fellerkit simulate --config cfg.json [--out DIR] [--seed N]
        sample an ensemble, write ensemble.flpe and report.json

    fellerkit validate --config cfg.json [--out DIR] [--seed N]
        simulate step by step, accumulating the empirical statistics
        without keeping the paths; compare them against the bounds,
        write report.json and margins.csv

Exit codes: 0 success, 2 configuration problems (including bad CLI
arguments), 3 numerical failures or unexpected errors.  Reports are
deterministic for a fixed config and seed: timing fields are zeroed and
keys are sorted before writing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_envelope_from_config, build_model, load_config
from .criteria import (
    char_fn_bound,
    exit_time_bound,
    heat_kernel_sup_bound,
    occupation_bound,
    test_local_times,
    test_transience,
    test_ultracontractivity,
)
from .empirics import (
    ExitSup,
    GridSnapshots,
    OccupationSums,
    feed,
    validate_char_bound,
)
from .ensemble_io import write_ensemble
from .errors import ConfigError, NumericalError
from .simulate import levy_steps, simulate_levy, simulate_stable_like, stable_like_steps

_CRITERIA = {
    "ultracontractivity": lambda env, cfg: test_ultracontractivity(env),
    "transience": lambda env, cfg: test_transience(
        env, cfg.get("transience_radius", 1.0)
    ),
    "local_times": lambda env, cfg: test_local_times(env),
}


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _sanitize(obj):
    """Replace non-finite floats so the report stays valid strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def _write_report(out_dir: Path, payload: dict) -> Path:
    path = out_dir / "report.json"
    text = json.dumps(
        _sanitize(payload), sort_keys=True, indent=2, default=_json_default,
        allow_nan=False,
    )
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _write_csv(path: Path, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _report_criteria(reports):
    out = []
    for rep in reports:
        d = rep.to_dict()
        d["wall_time"] = 0.0  # zeroed for reproducible reports
        out.append(d)
    return out


def _simulation_from_config(model, cfg, seed, levy, stable_like):
    """Call ``levy`` or ``stable_like`` (the simulate_* collectors or their
    step sources, which share signatures) with the config's settings."""
    sim = cfg["simulation"]
    n_paths = int(sim.get("n_paths", 1000))
    t_max = float(sim.get("t_max", 1.0))
    start = sim.get("start")
    if model.kind == "stable_like":
        return stable_like(
            model,
            n_paths,
            t_max,
            n_steps=sim.get("n_steps"),
            h_max=float(sim.get("h_max", 1e-3)),
            seed=seed,
            start=start,
        )
    n_steps = sim.get("n_steps")
    if n_steps is None:
        n_steps = max(1, int(np.ceil(t_max / float(sim.get("h_max", 1e-3)))))
    return levy(model, n_paths, t_max, int(n_steps), seed=seed, start=start)


def cmd_analyze(cfg, out_dir: Path) -> dict:
    model = build_model(cfg["symbol"])
    env = build_envelope_from_config(model, cfg["envelope"])
    crit_cfg = cfg["criteria"]
    reports = []
    for name in crit_cfg.get("run", []):
        if name not in _CRITERIA:
            raise ConfigError(
                f"unknown criterion '{name}'; known: {sorted(_CRITERIA)}"
            )
        reports.append(_CRITERIA[name](env, crit_cfg))

    heat_times = [float(t) for t in crit_cfg.get("heat_times", [])]
    heat = {}
    for t in heat_times:
        heat[str(t)] = heat_kernel_sup_bound(env, t, rel_tol=cfg["tolerances"]["rel_tol"])

    occ = {}
    for r in crit_cfg.get("occupation_radii", []):
        occ[str(r)] = occupation_bound(env, float(r))

    rho = np.geomspace(0.01, 100.0, 61)
    xi = rho[:, None] * np.eye(env.dimension)[0]
    q = np.ravel(env.q_inf(xi)).tolist()
    bound = np.ravel(char_fn_bound(env, 1.0, xi)).tolist()
    curves = []
    for r, q_r, bound_r in zip(rho.tolist(), q, bound):
        curves.append({"curve": "q_inf", "x": r, "y": q_r})
        curves.append({"curve": "char_bound_t1", "x": r, "y": bound_r})
    for t, v in heat.items():
        curves.append({"curve": "heat_bound", "x": float(t), "y": v})
    _write_csv(out_dir / "curves.csv", ["curve", "x", "y"], _sanitize(curves))

    return {
        "command": "analyze",
        "model": {"name": model.name, "kind": model.kind, "dimension": model.dimension},
        "envelope": {"provenance": env.provenance, "caveats": list(env.caveats)},
        "criteria": _report_criteria(reports),
        "heat_kernel_bounds": heat,
        "occupation_bounds": occ,
    }


def cmd_simulate(cfg, out_dir: Path, seed: int) -> dict:
    model = build_model(cfg["symbol"])
    ens = _simulation_from_config(model, cfg, seed, simulate_levy, simulate_stable_like)
    digest = write_ensemble(out_dir / "ensemble.flpe", ens)
    return {
        "command": "simulate",
        "model": {"name": model.name, "kind": model.kind, "dimension": model.dimension},
        "ensemble": {
            "file": "ensemble.flpe",
            "sha256": digest,
            "n_paths": ens.n_paths,
            "n_times": int(ens.positions.shape[1]),
            "scheme": ens.scheme,
            "seed": seed,
            "t_max": float(ens.time_grid[-1]),
        },
    }


def cmd_validate(cfg, out_dir: Path, seed: int) -> dict:
    model = build_model(cfg["symbol"])
    env = build_envelope_from_config(model, cfg["envelope"])
    steps = _simulation_from_config(model, cfg, seed, levy_steps, stable_like_steps)
    val = cfg["validation"]
    n_sigma = float(val.get("n_sigma", 3.0))

    # each accumulator rejects its part of the config before the first step
    # is drawn; no char fn is evaluated at any t when there is no xi
    snapshots = GridSnapshots(steps, val["t_values"] if val["xi_values"] else [])
    accumulators = [snapshots]
    occ_xi = val.get("occupation_xi")
    if occ_xi:
        occupation = OccupationSums(steps, occ_xi)
        accumulators.append(occupation)
    exits = val.get("exit")
    if exits:
        exit_sup = ExitSup(steps, [(float(item["r"]), float(item["t"])) for item in exits])
        accumulators.append(exit_sup)
    feed(steps, *accumulators)

    report = validate_char_bound(
        snapshots.ensemble(), env, val["t_values"], val["xi_values"], n_sigma=n_sigma
    )
    _write_csv(
        out_dir / "margins.csv",
        ["t", "xi", "bound", "empirical_abs", "se", "margin", "ok"],
        _sanitize(report.table()),
    )
    payload = {
        "command": "validate",
        "model": {"name": model.name, "kind": model.kind, "dimension": model.dimension},
        "char_bound": {
            "verdict": report.verdict,
            "n_violations": report.n_violations,
            "violation_fraction": report.violation_fraction,
            "n_points": len(report.rows),
            "n_sigma": n_sigma,
        },
    }

    if occ_xi:
        occ = occupation.report(env, n_sigma)
        payload["occupation_fourier"] = {
            "verdict": occ.verdict,
            "rows": _sanitize(occ.rows),
            "horizon": occ.horizon,
        }

    if exits:
        rows = []
        for freq in exit_sup.frequencies():
            bound = exit_time_bound(model, steps.start, freq.radius, freq.t)
            rows.append(
                {
                    "r": freq.radius,
                    "t": freq.t,
                    "frequency": freq.value,
                    "se": freq.se,
                    "bound": bound.value,
                    "ok": freq.value <= bound.value + n_sigma * freq.se,
                }
            )
        payload["exit_frequencies"] = _sanitize(rows)

    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fellerkit",
        description="Envelope bounds, path criteria, and Monte Carlo validation"
        " for state-dependent jump processes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "simulate", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads", type=int, default=None,
            help="accepted and ignored: importing fellerkit has already started BLAS;"
            " set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS before launch instead",
        )
        p.set_defaults(name=name)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = int(cfg.get("seed", 0)) if args.seed is None else int(args.seed)
        out_dir = Path(args.out if args.out is not None else cfg["output"]["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.name == "analyze":
            payload = cmd_analyze(cfg, out_dir)
        elif args.name == "simulate":
            payload = cmd_simulate(cfg, out_dir, seed)
        else:
            payload = cmd_validate(cfg, out_dir, seed)
        payload["config"] = cfg
        payload["version"] = __version__
        path = _write_report(out_dir, payload)
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything unexpected is a hard failure, not a crash
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
