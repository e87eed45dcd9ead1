"""Independent checks of each workload's outputs.

The ``analyze`` workloads are checked against closed forms of their
envelopes and frequency integrals, computed here with ``scipy.special``
rather than with fellerkit's quadrature.  The Monte Carlo workloads are
checked through their verdict rows, the closed-form bounds in those rows,
and, for ``simulate``, the benchmark's own estimate of the characteristic
function from the ensemble read back from disk.

``check(workload, cfg, out_dir)`` returns ``(failures, digests, detail)``:
a list of failure messages (empty when everything holds), the sha256 of
every output whose bytes must repeat for a fixed seed, and a dict of
diagnostic numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

REL_TOL = 1e-9  # the precision ROADMAP pins for closed-form bound values
N_SIGMA_MC = 5.0  # simulate char-fn check: 10 comparisons per operation


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _q_band(rho, a_small: float, a_large: float):
    """Closed-form stable-like q_inf: |xi|^a_small inside the unit ball,
    |xi|^a_large outside."""
    rho = np.asarray(rho, dtype=float)
    return np.where(rho <= 1.0, rho**a_small, rho**a_large)


class _Checker:
    def __init__(self):
        self.failures = []
        self.max_rel_err = 0.0
        self.n_values = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def near(self, label: str, got, want) -> None:
        got, want = float(got), float(want)
        err = _rel_err(got, want)
        self.n_values += 1
        self.max_rel_err = max(self.max_rel_err, err)
        self.expect(err <= REL_TOL, f"{label}: got {got!r}, closed form {want!r} (rel {err:.2e})")


# ---------------------------------------------------------------------------
# analyze: closed forms in d = 2


def _power_heat(t: float, k: float, a: float) -> float:
    """(4 pi)^-2 * integral over R^2 of exp(-(t/16) k |xi|^a)."""
    c = t * k / 16.0
    return 2.0 * math.pi * special.gamma(2.0 / a) / (a * c ** (2.0 / a)) / (4.0 * math.pi) ** 2


def _power_occupation(r: float, k: float, a: float) -> float:
    """occupation_bound for q_inf = k |xi|^a in d = 2."""
    big_r = 2.0 * r * math.sqrt(2.0)
    radial = big_r ** (2.0 - a) / ((2.0 - a) * k * 2.0**a)
    return 4.0**4 / (math.pi * r) ** 2 * 2.0 * math.pi * radial


def _band_heat(t: float, amin: float, amax: float) -> float:
    """Heat bound for the stable-like band envelope in d = 2: a lower
    incomplete gamma inside the unit ball plus an upper one outside."""
    c = t / 16.0
    s_in, s_out = 2.0 / amax, 2.0 / amin
    inner = special.gammainc(s_in, c) * special.gamma(s_in) / (amax * c**s_in)
    outer = special.gammaincc(s_out, c) * special.gamma(s_out) / (amin * c**s_out)
    return 2.0 * math.pi * (inner + outer) / (4.0 * math.pi) ** 2


def _band_occupation(r: float, amin: float, amax: float) -> float:
    """occupation_bound for the stable-like band envelope in d = 2; the
    envelope switches exponent where |2 xi| = 1."""
    big_r = 2.0 * r * math.sqrt(2.0)
    kink = min(big_r, 0.5)
    radial = 2.0**-amax * kink ** (2.0 - amax) / (2.0 - amax)
    if big_r > 0.5:
        radial += 2.0**-amin * (big_r ** (2.0 - amin) - 0.5 ** (2.0 - amin)) / (2.0 - amin)
    return 4.0**4 / (math.pi * r) ** 2 * 2.0 * math.pi * radial


def _check_analyze(chk: _Checker, cfg: dict, out: Path, q_inf, heat, occupation) -> None:
    report = json.loads((out / "report.json").read_text())
    verdicts = {c["criterion"]: c["verdict"] for c in report["criteria"]}
    want = {"ultracontractivity": "holds", "transience": "holds", "local_times": "inconclusive"}
    chk.expect(verdicts == want, f"verdicts {verdicts}, expected {want}")

    times = cfg["criteria"]["heat_times"]
    bounds = report["heat_kernel_bounds"]
    chk.expect(len(bounds) == len(times), f"{len(bounds)} heat bounds for {len(times)} times")
    for t in times:
        chk.near(f"heat bound t={t}", bounds[str(float(t))], heat(float(t)))
    occ = report["occupation_bounds"]
    for r in cfg["criteria"]["occupation_radii"]:
        chk.near(f"occupation bound r={r}", occ[str(r)], occupation(float(r)))

    with open(out / "curves.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    q_rows = [(float(r["x"]), float(r["y"])) for r in rows if r["curve"] == "q_inf"]
    c_rows = [(float(r["x"]), float(r["y"])) for r in rows if r["curve"] == "char_bound_t1"]
    chk.expect(len(q_rows) == 61 and len(c_rows) == 61, "curves.csv lacks 61 q_inf/char rows")
    for x, y in q_rows:
        chk.near(f"q_inf({x})", y, q_inf(x))
    for x, y in c_rows:
        chk.near(f"char bound t=1 at {x}", y, math.exp(-q_inf(2.0 * x) / 16.0))


def _check_grid_envelope_2d(chk, cfg, out):
    report = json.loads((out / "report.json").read_text())
    chk.expect(report["envelope"]["provenance"].startswith("grid("), "envelope is not a grid")
    # min over x of 1.25 + 0.5 sin(x1) cos(x2) is 0.75, attained on grid nodes
    _check_analyze(
        chk, cfg, out,
        q_inf=lambda rho: 0.75 * rho**1.5,
        heat=lambda t: _power_heat(t, 0.75, 1.5),
        occupation=lambda r: _power_occupation(r, 0.75, 1.5),
    )
    return {"report.json": _sha256(out / "report.json"), "curves.csv": _sha256(out / "curves.csv")}


def _check_heat_curve_stable_2d(chk, cfg, out):
    amin, amax = cfg["symbol"]["alpha_min"], cfg["symbol"]["alpha_max"]
    _check_analyze(
        chk, cfg, out,
        q_inf=lambda rho: float(_q_band(rho, amax, amin)),
        heat=lambda t: _band_heat(t, amin, amax),
        occupation=lambda r: _band_occupation(r, amin, amax),
    )
    return {"report.json": _sha256(out / "report.json"), "curves.csv": _sha256(out / "curves.csv")}


# ---------------------------------------------------------------------------
# validate: verdict rows and closed-form bounds in d = 1


def _check_mc_validate_1d(chk, cfg, out):
    amin, amax = cfg["symbol"]["alpha_min"], cfg["symbol"]["alpha_max"]
    report = json.loads((out / "report.json").read_text())
    val = cfg["validation"]
    n_rows = len(val["t_values"]) * len(val["xi_values"])

    cb = report["char_bound"]
    chk.expect(cb["verdict"] == "holds" and cb["n_violations"] == 0, f"char bound: {cb}")
    with open(out / "margins.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    chk.expect(len(rows) == n_rows == cb["n_points"], f"margins.csv has {len(rows)} rows")
    for row in rows:
        t, xi = float(row["t"]), float(row["xi"])
        chk.expect(row["ok"] == "True", f"margin row t={t} xi={xi} not ok")
        want = math.exp(-(t / 16.0) * float(_q_band(abs(2.0 * xi), amax, amin)))
        chk.near(f"char bound t={t} xi={xi}", row["bound"], want)

    occ = report["occupation_fourier"]
    chk.expect(occ["verdict"] == "holds", f"occupation Fourier verdict {occ['verdict']}")
    chk.expect(len(occ["rows"]) == len(val["occupation_xi"]), "occupation rows missing")
    for row in occ["rows"]:
        chk.expect(row["ok"] is True, f"occupation row xi={row['xi']} not ok")
        q = float(_q_band(abs(row["xi"]), amax, amin))
        chk.near(f"occupation Fourier bound xi={row['xi']}", row["bound"], 16.0 / (16.0 + q))

    exits = report["exit_frequencies"]
    chk.expect(len(exits) == len(val["exit"]), "exit rows missing")
    for row in exits:
        chk.expect(row["ok"] is True, f"exit row r={row['r']} t={row['t']} not ok")
    chk.expect(exits[-1]["bound"] < 1.0, f"last exit bound {exits[-1]['bound']} is not below 1")
    return {"report.json": _sha256(out / "report.json"), "margins.csv": _sha256(out / "margins.csv")}


# ---------------------------------------------------------------------------
# simulate: read-back, checksum and the exact law at t = 1


_SIM_XI = np.array([[0.5, 0.0], [1.0, 0.0], [0.0, 1.0], [0.7, 0.7], [2.0, 0.0]])


def _check_mc_simulate_2d(chk, cfg, out):
    # looked up at call time so that a traced run times the read-back
    from fellerkit import ensemble_io

    sim = cfg["simulation"]
    report = json.loads((out / "report.json").read_text())
    digest = _sha256(out / "ensemble.flpe")
    chk.expect(report["ensemble"]["sha256"] == digest, "ensemble sha256 differs from the report")

    ens = ensemble_io.read_ensemble(out / "ensemble.flpe")
    n, m, d = ens.positions.shape
    want_shape = (sim["n_paths"], sim["n_steps"] + 1, 2)
    chk.expect((n, m, d) == want_shape, f"ensemble shape {(n, m, d)}, expected {want_shape}")
    idx = round(sim["n_steps"] / sim["t_max"])  # grid index of t = 1
    chk.expect(abs(ens.time_grid[idx] - 1.0) < 1e-12, "t = 1 is not on the grid")

    # empirical E exp(i <xi, X_1>) against exp(-|xi|^alpha), per component
    alpha = cfg["symbol"]["alpha"]
    phase = (ens.positions[:, idx, :] - ens.start) @ _SIM_XI.T
    del ens
    exact = np.exp(-np.linalg.norm(_SIM_XI, axis=1) ** alpha)
    worst = 0.0
    for part, want in ((np.cos(phase), exact), (np.sin(phase), np.zeros_like(exact))):
        mean = part.mean(axis=0)
        se = part.std(axis=0, ddof=1) / math.sqrt(n)
        z = np.abs(mean - want) / se
        worst = max(worst, float(z.max()))
    chk.expect(worst <= N_SIGMA_MC, f"char fn at t=1 off by {worst:.2f} standard errors")
    return {"report.json": _sha256(out / "report.json"), "ensemble.flpe": digest}, worst


def check(workload: str, cfg: dict, out_dir) -> tuple[list, dict, dict]:
    out = Path(out_dir)
    chk = _Checker()
    detail = {}
    try:
        if workload == "grid_envelope_2d":
            digests = _check_grid_envelope_2d(chk, cfg, out)
        elif workload == "heat_curve_stable_2d":
            digests = _check_heat_curve_stable_2d(chk, cfg, out)
        elif workload == "mc_validate_1d":
            digests = _check_mc_validate_1d(chk, cfg, out)
        else:
            digests, detail["char_fn_max_z"] = _check_mc_simulate_2d(chk, cfg, out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        # missing or malformed output is a failed check, not a crash
        chk.failures.append(f"output unreadable: {type(exc).__name__}: {exc}")
        digests = {}
    detail["closed_form_values"] = chk.n_values
    detail["max_rel_err"] = chk.max_rel_err
    return chk.failures, digests, detail
