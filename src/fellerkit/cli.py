"""Command-line entry point.

Three subcommands share a JSON configuration:

    fellerkit analyze  --config cfg.json [--out DIR]
        build the model and envelopes, evaluate criteria and bounds,
        write report.json and curves.csv

    fellerkit simulate --config cfg.json [--out DIR] [--seed N]
        sample an ensemble and write it to ensemble.flpe as it is
        simulated, a chunk of grid times at a time, then report.json

    fellerkit validate --config cfg.json [--out DIR] [--seed N]
        simulate step by step without keeping the paths; each check is an
        accumulator of ``empirics``, all fed by one ``empirics.feed`` on a
        worker thread beside the simulation, and each one's ``report``
        compares it with its bounds; write report.json and margins.csv.
        The exit rows' bounds (a ball sup of the symbol and the bump
        constant c_u) need nothing from the paths and are computed first,
        so a bound that fails exits before any step is drawn.

``simulate`` and ``validate`` draw the increments of the built-in Levy
families in blocks of steps, on one worker thread per CPU the process may
run on; the stable-like Euler scheme steps serially, since each step
depends on the last.  Every pool is ``simulate._in_order``: after an
error or an early stop it starts no later queued job, closes its source
and joins its threads.  Ensembles and reports are byte-identical to a
serial run.

``--threads`` is deprecated: it prints a note to stderr, has no effect and
will be removed in the next release.  BLAS threads are set only by
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` before launch.

Exit codes: 0 success, 2 configuration problems (including bad CLI
arguments), 3 numerical failures or unexpected errors.  Each command
makes the output directory once it has built the model and envelope, so
a configuration error found up to then leaves none behind.  Reports are
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
from .config import build_envelope_from_config, build_model, check_seed_flag, load_config
from .criteria import char_fn_bound, exit_time_bound, frequency_criteria, test_ultracontractivity
from .empirics import CharFnRows, ExitSup, OccupationSums, feed
from .ensemble_io import write_ensemble
from .errors import ConfigError, NumericalError
from .simulate import levy_steps, stable_like_steps

THREADS_DEPRECATED = (
    "fellerkit: --threads is deprecated, has no effect and will be removed in the"
    " next release; set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS before launch"
)


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
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2, allow_nan=False)
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


def _simulation_from_config(model, cfg, seed):
    """The step source of the config's simulation."""
    sim = cfg["simulation"]
    return (stable_like_steps if model.kind == "stable_like" else levy_steps)(
        model, sim["n_paths"], sim["t_max"], n_steps=sim.get("n_steps"), h_max=sim["h_max"],
        seed=seed, start=sim.get("start"),
    )


def cmd_analyze(cfg, out_dir: Path) -> dict:
    model = build_model(cfg["symbol"])
    env = build_envelope_from_config(model, cfg["envelope"])
    out_dir.mkdir(parents=True, exist_ok=True)
    crit_cfg = cfg["criteria"]
    run = crit_cfg["run"]
    heat_times = [float(t) for t in crit_cfg["heat_times"]]
    radii = crit_cfg.get("occupation_radii", [])
    transience, local_times, bounds, _, occupation, _ = frequency_criteria(
        env,
        crit_cfg["transience_radius"] if "transience" in run else None,
        "local_times" in run,
        heat_times,
        occupation_radii=radii,
        rel_tol=cfg["tolerances"]["rel_tol"],
    )
    reports = {"transience": transience, "local_times": local_times}
    if "ultracontractivity" in run:
        reports["ultracontractivity"] = test_ultracontractivity(env)
    heat = dict(zip(map(str, heat_times), bounds.tolist()))
    occ = dict(zip(map(str, radii), occupation))

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
        "criteria": _report_criteria(reports[name] for name in run),
        "heat_kernel_bounds": heat,
        "occupation_bounds": occ,
    }


def cmd_simulate(cfg, out_dir: Path, seed: int) -> dict:
    model = build_model(cfg["symbol"])
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = _simulation_from_config(model, cfg, seed)
    digest = write_ensemble(out_dir / "ensemble.flpe", steps)
    return {
        "command": "simulate",
        "model": {"name": model.name, "kind": model.kind, "dimension": model.dimension},
        "ensemble": {
            "file": "ensemble.flpe",
            "sha256": digest,
            "n_paths": steps.n_paths,
            "n_times": len(steps.time_grid),
            "scheme": steps.scheme,
            "seed": seed,
            "t_max": float(steps.time_grid[-1]),
        },
    }


def cmd_validate(cfg, out_dir: Path, seed: int) -> dict:
    model = build_model(cfg["symbol"])
    env = build_envelope_from_config(model, cfg["envelope"])
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = _simulation_from_config(model, cfg, seed)
    val = cfg["validation"]
    n_sigma = float(val["n_sigma"])

    # each accumulator rejects its part of the config before the first step
    # is drawn; no char fn is evaluated at any t when there is no xi
    char_rows = CharFnRows(steps, val["t_values"], val["xi_values"])
    accumulators = [char_rows]
    occ_xi = val.get("occupation_xi")
    if occ_xi:
        occupation = OccupationSums(steps, occ_xi)
        accumulators.append(occupation)
    exits = val.get("exit")
    if exits:
        exit_sup = ExitSup(steps, [(item["r"], item["t"]) for item in exits])
        accumulators.append(exit_sup)
        # the bounds need nothing from the paths: one that fails ends the
        # run before the first step is drawn
        exit_bounds = [exit_time_bound(model, steps.start, r, t) for r, t, _ in exit_sup.rows]
    feed(steps, *accumulators)

    report = char_rows.report(env, n_sigma)
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
        payload["exit_frequencies"] = _sanitize(exit_sup.report(exit_bounds, n_sigma))

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
            help="deprecated and ignored, and to be removed in the next release:"
            " importing fellerkit has already started BLAS; set OPENBLAS_NUM_THREADS"
            " or OMP_NUM_THREADS before launch instead",
        )
        p.set_defaults(name=name)

    args = parser.parse_args(argv)
    if args.threads is not None:
        print(THREADS_DEPRECATED, file=sys.stderr)
    try:
        cfg = load_config(args.config)
        seed = cfg["seed"] if args.seed is None else check_seed_flag(args.seed)
        out_dir = Path(args.out if args.out is not None else cfg["output"]["directory"])
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
