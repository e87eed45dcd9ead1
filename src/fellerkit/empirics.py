"""Empirical estimators and bound-validation reports for path ensembles.

All estimators work on the exact grid times of the ensemble; none of them
interpolate in time.  Standard errors are plain sample standard errors
across paths, with a delta-method step where the statistic is a modulus.

The estimators behind ``fellerkit validate`` are accumulators fed one grid
step ``(k, X_k)`` at a time, so they run on a :class:`PathSteps` source
without the whole path array ever existing: :class:`GridSnapshots` keeps
the positions at chosen times for the characteristic-function estimators,
:class:`ExitSup` the running sup of |X_k - x0| for exit frequencies, and
:class:`OccupationSums` the discounted Fourier sums of the occupation
check.  The ensemble functions replay ``positions[:, k, :]`` through the
same accumulators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .criteria import char_fn_bound, local_time_fourier_bound
from .envelopes import Envelope
from .errors import ConfigError
from .simulate import PathEnsemble

__all__ = [
    "feed",
    "GridSnapshots",
    "CharFnEstimate",
    "empirical_char_fn",
    "CharBoundReport",
    "validate_char_bound",
    "GeneratorFDEstimate",
    "generator_finite_difference",
    "SmallTimeCheck",
    "validate_small_t_approx",
    "LocalTimeEstimate",
    "estimate_local_time",
    "OccupationFourierReport",
    "OccupationSums",
    "occupation_fourier_check",
    "ExitFrequency",
    "ExitSup",
    "exit_frequency",
    "TransienceDiagnostic",
    "transience_diagnostic",
]


def _as_direction(xi, d: int) -> np.ndarray:
    v = np.asarray(xi, dtype=float)
    if d == 1 and v.ndim == 0:
        v = v[None]
    if v.shape != (d,):
        raise ConfigError(f"xi must be a single frequency of dimension {d}")
    return v


def feed(steps, *accumulators) -> None:
    """Pass every ``(k, X_k)`` of a step source to each accumulator, in
    step order."""
    for k, x in steps:
        for acc in accumulators:
            acc.update(k, x)


def _replay(ens, stop: int | None = None):
    """The steps 0, ..., stop - 1 of a stored ensemble, as a step source
    yields them."""
    for k in range(ens.positions.shape[1] if stop is None else stop):
        yield k, ens.positions[:, k, :]


class GridSnapshots:
    """The positions at chosen grid times, kept while stepping.

    ``ensemble()`` returns them as a :class:`PathEnsemble` whose grid holds
    only those times, which :func:`empirical_char_fn` and
    :func:`validate_char_bound` read like any ensemble.  A time off the
    source's grid raises :class:`ConfigError` here, before any step.
    """

    def __init__(self, source, t_values):
        self._source = source
        self._wanted = sorted({source.time_index(t) for t in t_values})
        self._kept = {}

    def update(self, k: int, x: np.ndarray) -> None:
        if k in self._wanted:
            self._kept[k] = np.array(x, dtype=float)

    def ensemble(self) -> PathEnsemble:
        src = self._source
        if self._wanted:
            positions = np.stack([self._kept[k] for k in self._wanted], axis=1)
        else:
            positions = np.empty((src.n_paths, 0, src.dimension))
        return PathEnsemble(
            positions=positions,
            time_grid=np.asarray(src.time_grid)[self._wanted],
            start=src.start,
            scheme=src.scheme,
            seed_lineage=src.seed_lineage,
        )


@dataclass
class CharFnEstimate:
    xi: np.ndarray
    t: float
    value: complex
    se_real: float
    se_imag: float
    se_abs: float
    n_paths: int


def empirical_char_fn(ens, t: float, xi) -> CharFnEstimate:
    """Monte Carlo estimate of E exp(i <xi, X_t - x0>) across the ensemble."""
    d = ens.positions.shape[2]
    v = _as_direction(xi, d)
    n = ens.positions.shape[0]
    if n < 2:
        raise ConfigError("need at least two paths for a standard error")
    disp = ens.at(t) - np.asarray(ens.start)[None, :]
    phase = disp @ v
    zr = np.cos(phase)
    zi = np.sin(phase)
    mr = float(zr.mean())
    mi = float(zi.mean())
    se_r = float(zr.std(ddof=1) / math.sqrt(n))
    se_i = float(zi.std(ddof=1) / math.sqrt(n))
    mod = math.hypot(mr, mi)
    if mod > 0.0:
        # delta method for |mean|; the cross covariance enters with the
        # product of the two components
        cov = float(np.cov(zr, zi, ddof=1)[0, 1]) / n
        var_abs = (
            mr * mr * se_r * se_r + 2.0 * mr * mi * cov + mi * mi * se_i * se_i
        ) / (mod * mod)
        se_abs = math.sqrt(max(var_abs, 0.0))
    else:
        se_abs = math.hypot(se_r, se_i)
    return CharFnEstimate(
        xi=v, t=float(t), value=complex(mr, mi), se_real=se_r, se_imag=se_i,
        se_abs=se_abs, n_paths=n,
    )


@dataclass
class CharBoundReport:
    """Margins bound - |empirical char fn| over a (t, xi) grid."""

    rows: list
    n_violations: int
    violation_fraction: float
    verdict: str
    n_sigma: float

    def table(self) -> list:
        """Rows as plain dicts, ready for CSV."""
        return [dict(r) for r in self.rows]


def validate_char_bound(
    ens,
    env: Envelope,
    t_values,
    xi_values,
    *,
    n_sigma: float = 3.0,
    allowed_violation_fraction: float = 0.01,
) -> CharBoundReport:
    """Check |empirical char fn| <= exp(-(t/16) q_inf(2 xi)) + n_sigma * se
    on the grid of supplied times and frequencies.

    The verdict holds when at most the allowed fraction of grid points
    violates the inflated bound; with n_sigma = 3 roughly one point in 370
    is expected to sit outside by chance under a normal error model.
    """
    d = ens.positions.shape[2]
    rows = []
    n_bad = 0
    for t in t_values:
        for xi in xi_values:
            v = _as_direction(xi, d)
            est = empirical_char_fn(ens, t, v)
            bound = float(char_fn_bound(env, t, v if d > 1 else v[0]))
            margin = bound - abs(est.value)
            ok = margin >= -n_sigma * est.se_abs
            if not ok:
                n_bad += 1
            rows.append(
                {
                    "t": float(t),
                    "xi": v.tolist() if d > 1 else float(v[0]),
                    "bound": bound,
                    "empirical_abs": abs(est.value),
                    "se": est.se_abs,
                    "margin": margin,
                    "ok": ok,
                }
            )
    frac = n_bad / len(rows) if rows else 0.0
    verdict = "holds" if frac <= allowed_violation_fraction else "fails"
    return CharBoundReport(
        rows=rows, n_violations=n_bad, violation_fraction=frac, verdict=verdict,
        n_sigma=n_sigma,
    )


@dataclass
class GeneratorFDEstimate:
    """Weighted least-squares extrapolation of (1 - Re char fn) / h to h = 0."""

    intercept: float
    intercept_se: float
    slope: float
    h_values: np.ndarray
    y_values: np.ndarray
    y_se: np.ndarray
    inconclusive: bool
    note: str = ""


def generator_finite_difference(ensembles, xi) -> GeneratorFDEstimate:
    """Estimate Re p(x0, xi) from one-step characteristic functions.

    Each ensemble contributes the point y(h) = (1 - Re lambda_h) / h at its
    own step size h; a weighted linear fit in h removes the leading bias and
    its intercept estimates the symbol's real part at the start point.  The
    step sizes must span at least a factor of ten, and the estimate is
    flagged inconclusive when the intercept is dominated by its standard
    error.
    """
    if len(ensembles) < 3:
        raise ConfigError("need at least three step sizes")
    hs, ys, ses = [], [], []
    for ens in ensembles:
        h = float(ens.time_grid[1] - ens.time_grid[0])
        est = empirical_char_fn(ens, ens.time_grid[1], xi)
        hs.append(h)
        ys.append((1.0 - est.value.real) / h)
        ses.append(est.se_real / h)
    hs = np.asarray(hs)
    ys = np.asarray(ys)
    ses = np.asarray(ses)
    if hs.max() / hs.min() < 10.0 * (1.0 - 1e-9):
        raise ConfigError("step sizes must span at least one decade")
    # floor keeps w**2 representable when an exact estimate has zero se
    w = 1.0 / np.maximum(ses, 1e-150) ** 2
    aT = np.stack([np.ones_like(hs), hs])  # rows: intercept, slope
    gram = (aT * w) @ aT.T
    rhs = (aT * w) @ ys
    cov = np.linalg.inv(gram)
    coef = cov @ rhs
    intercept, slope = float(coef[0]), float(coef[1])
    se0 = float(math.sqrt(max(cov[0, 0], 0.0)))
    noisy = se0 > 0.5 * max(abs(intercept), 1e-300)
    signal = bool(np.any(ys > 3.0 * ses))
    inconclusive = noisy or not signal
    note = ""
    if not signal:
        note = "all finite-difference values sit below three standard errors"
    elif noisy:
        note = "intercept standard error exceeds half the estimate"
    return GeneratorFDEstimate(
        intercept=intercept, intercept_se=se0, slope=slope, h_values=hs,
        y_values=ys, y_se=ses, inconclusive=inconclusive, note=note,
    )


@dataclass
class SmallTimeCheck:
    slope: float
    rates: np.ndarray
    t_used: np.ndarray
    noise_floor: np.ndarray
    verdict: str
    expected_rate: float | None = None


def validate_small_t_approx(
    ens,
    xi,
    t_values,
    *,
    expected_rate: float | None = None,
    slope_tol: float = 0.2,
    n_sigma: float = 3.0,
) -> SmallTimeCheck:
    """Check 1 - Re lambda_t ~ t * Re p(x0, xi) on small grid times.

    Times where the deficit is within n_sigma standard errors of zero are
    below the noise floor and excluded from the slope fit.  The verdict
    holds when the log-log slope is at least 1 - slope_tol (linear decay of
    the deficit) and, if an expected rate is supplied, the smallest usable
    time reproduces it within 25 percent.
    """
    ts, defs, ses = [], [], []
    for t in t_values:
        est = empirical_char_fn(ens, t, xi)
        ts.append(float(t))
        defs.append(1.0 - est.value.real)
        ses.append(est.se_real)
    ts = np.asarray(ts)
    defs = np.asarray(defs)
    ses = np.asarray(ses)
    floor = defs <= n_sigma * ses
    usable = (~floor) & (defs > 0)
    if usable.sum() < 3:
        return SmallTimeCheck(
            slope=math.nan, rates=defs / ts, t_used=ts[usable],
            noise_floor=floor, verdict="inconclusive", expected_rate=expected_rate,
        )
    slope = float(np.polyfit(np.log(ts[usable]), np.log(defs[usable]), 1)[0])
    verdict = "holds" if slope >= 1.0 - slope_tol else "fails"
    if expected_rate is not None and verdict == "holds":
        t0 = ts[usable].min()
        rate = defs[usable][ts[usable] == t0][0] / t0
        if not math.isclose(rate, expected_rate, rel_tol=0.25):
            verdict = "fails"
    return SmallTimeCheck(
        slope=slope, rates=defs / ts, t_used=ts[usable], noise_floor=floor,
        verdict=verdict, expected_rate=expected_rate,
    )


@dataclass
class LocalTimeEstimate:
    centers: np.ndarray
    density: np.ndarray
    total_mass: float
    horizon: float
    missing_fraction: float


def estimate_local_time(
    ens, *, bins: int = 200, y_range=None, t_max: float | None = None
) -> LocalTimeEstimate:
    """Average occupation density over [0, t_max] for scalar ensembles.

    The estimate histograms path positions with weight h per visit, so
    integrating the density over the range recovers the time spent there;
    mass outside the binning range is reported and warned about above five
    percent, since a truncated range silently understates occupation.
    """
    n, m, d = ens.positions.shape
    if d != 1:
        raise ConfigError("occupation densities are binned for dimension 1 only")
    idx = m - 1 if t_max is None else ens.time_index(t_max)
    if idx < 1:
        raise ConfigError("horizon must cover at least one step")
    horizon = float(ens.time_grid[idx])
    h = float(ens.time_grid[1] - ens.time_grid[0])
    samples = ens.positions[:, 1 : idx + 1, 0].ravel()
    if y_range is None:
        y_range = (float(samples.min()), float(samples.max()))
    counts, edges = np.histogram(samples, bins=bins, range=y_range)
    widths = np.diff(edges)
    density = counts * h / (n * widths)
    total = float((density * widths).sum())
    missing = max(0.0, 1.0 - total / horizon)
    if missing > 0.05:
        warnings.warn(
            f"{missing:.1%} of occupation mass falls outside the binning range",
            stacklevel=2,
        )
    return LocalTimeEstimate(
        centers=0.5 * (edges[:-1] + edges[1:]),
        density=density,
        total_mass=total,
        horizon=horizon,
        missing_fraction=missing,
    )


@dataclass
class OccupationFourierReport:
    rows: list
    verdict: str
    n_sigma: float
    horizon: float


class OccupationSums:
    """Discounted occupation Fourier sums, accumulated per step.

    For each path and frequency it keeps the real and imaginary parts of
    mu(xi) = sum_k w_k e^{i xi (X_k - x0)}, where w_k = e^{-t_k} - e^{-t_{k+1}}
    integrates the discount exactly over the grid cell and the phase is
    frozen at the cell's left endpoint (w = 0 at the last step).  Memory is
    O(n_paths x frequencies) whatever the number of steps.  A horizon with
    e^-T > 1e-6 or a malformed frequency raises :class:`ConfigError` here,
    before any step.
    """

    def __init__(self, source, xi_values):
        horizon = float(source.time_grid[-1])
        if math.exp(-horizon) > 1e-6:
            raise ConfigError(
                f"horizon {horizon} too short: e^-T must be at most 1e-6 (T >= 13.9)"
            )
        self.horizon = horizon
        self.dimension = d = source.dimension
        self.xi = [_as_direction(xi, d) for xi in xi_values]
        decay = np.exp(-np.asarray(source.time_grid, dtype=float))
        self._w = np.zeros(decay.size)
        self._w[:-1] = decay[:-1] - decay[1:]
        self._x0 = np.asarray(source.start, dtype=float)
        self._v = np.reshape(self.xi, (len(self.xi), d))
        shape = (len(self.xi), source.n_paths)
        self._re = np.zeros(shape)
        self._im = np.zeros(shape)
        self._phase = np.empty(shape)
        self._term = np.empty(shape)

    def update(self, k: int, x: np.ndarray) -> None:
        w = self._w[k]
        np.matmul(self._v, (x - self._x0).T, out=self._phase)
        for trig, acc in ((np.cos, self._re), (np.sin, self._im)):
            trig(self._phase, out=self._term)
            self._term *= w
            acc += self._term

    def report(self, env: Envelope, n_sigma: float = 3.0) -> OccupationFourierReport:
        """Mean |mu(xi)|^2 across paths against 16 / (16 + q_inf(xi))."""
        n = self._re.shape[1]
        mod2 = self._re**2 + self._im**2
        rows = []
        verdict = "holds"
        for v, m2 in zip(self.xi, mod2):
            mean = float(m2.mean())
            se = float(m2.std(ddof=1) / math.sqrt(n))
            bound = float(local_time_fourier_bound(env, v if self.dimension > 1 else v[0]))
            ok = mean <= bound + n_sigma * se
            if not ok:
                verdict = "fails"
            rows.append(
                {
                    "xi": v.tolist() if self.dimension > 1 else float(v[0]),
                    "empirical": mean,
                    "se": se,
                    "bound": bound,
                    "ok": ok,
                }
            )
        return OccupationFourierReport(
            rows=rows, verdict=verdict, n_sigma=n_sigma, horizon=self.horizon
        )


def occupation_fourier_check(
    ens, env: Envelope, xi_values, *, n_sigma: float = 3.0, chunk: int = 1024
) -> OccupationFourierReport:
    """Compare E |integral_0^inf e^{-t} e^{i xi (X_t - x0)} dt|^2 against
    16 / (16 + q_inf(xi)).

    The time integral is truncated at the ensemble horizon T; the check
    requires e^{-T} <= 1e-6 so the truncation is negligible next to Monte
    Carlo noise.  Within each grid cell the discount factor is integrated
    exactly and the phase is frozen at the left endpoint, so at xi = 0 the
    estimator is (1 - e^{-T})^2 <= 1 up to rounding, with zero variance; a
    trapezoid would overshoot there by its convexity bias with no noise to
    hide behind.  The sums are those of :class:`OccupationSums`, fed the
    stored steps; ``chunk`` is accepted for compatibility and has no
    effect, since no temporary grows with the number of steps.
    """
    sums = OccupationSums(ens, xi_values)
    feed(_replay(ens), sums)
    return sums.report(env, n_sigma)


@dataclass
class ExitFrequency:
    value: float
    se: float
    n_paths: int
    radius: float
    t: float


class ExitSup:
    """Running sup_{j <= k} |X_j - x0| per path, read at the grid times of
    the requested (radius, time) rows.

    A radius <= 0 or a time off the source's grid raises
    :class:`ConfigError` here, row by row, before any step.
    """

    def __init__(self, source, rows):
        self.rows = []
        for r, t in rows:
            if r <= 0:
                raise ConfigError("radius must be positive")
            self.rows.append((float(r), float(t), source.time_index(t)))
        self._read = {idx for _, _, idx in self.rows}
        self.stop = 1 + max(self._read, default=-1)
        self._x0 = np.asarray(source.start, dtype=float)
        self._sup = np.zeros(source.n_paths)
        self._at = {}

    def update(self, k: int, x: np.ndarray) -> None:
        if k >= self.stop:
            return
        np.maximum(self._sup, np.linalg.norm(x - self._x0, axis=1), out=self._sup)
        if k in self._read:
            self._at[k] = self._sup.copy()

    def frequencies(self) -> list:
        """One :class:`ExitFrequency` per row, in row order."""
        out = []
        for r, t, idx in self.rows:
            hit = self._at[idx] >= r
            n = hit.size
            p = float(hit.mean())
            se = math.sqrt(p * (1.0 - p) / n)
            out.append(ExitFrequency(value=p, se=se, n_paths=n, radius=r, t=t))
        return out


def exit_frequency(ens, r: float, t: float) -> ExitFrequency:
    """Fraction of paths leaving the ball B(x0, r) by grid time t.

    Discrete maxima can only miss excursions between grid points, so the
    frequency is a slight underestimate of the continuous-time exit
    probability; comparisons against upper bounds remain valid.
    """
    sup = ExitSup(ens, [(r, t)])
    feed(_replay(ens, sup.stop), sup)
    return sup.frequencies()[0]


@dataclass
class TransienceDiagnostic:
    slope: float
    label: str
    times: np.ndarray
    displacement: np.ndarray
    caveat: str = (
        "descriptive only: a finite-horizon displacement trend is not a"
        " transience proof"
    )


def transience_diagnostic(ens, *, slope_threshold: float = 0.15) -> TransienceDiagnostic:
    """Median displacement growth on a log-log scale over the second half of
    the horizon.  Labels the ensemble "growing" or "saturating"; never a
    verdict about transience or recurrence."""
    m = ens.positions.shape[1]
    ks = np.unique(np.geomspace(1, m - 1, 24).astype(int))
    times = ens.time_grid[ks]
    disp = np.linalg.norm(ens.positions[:, ks, :] - np.asarray(ens.start), axis=2)
    med = np.median(disp, axis=0)
    half = times >= times[-1] / 10.0
    good = half & (med > 0)
    if good.sum() < 3:
        return TransienceDiagnostic(
            slope=math.nan, label="undetermined", times=times, displacement=med
        )
    slope = float(np.polyfit(np.log(times[good]), np.log(med[good]), 1)[0])
    label = "growing" if slope > slope_threshold else "saturating"
    return TransienceDiagnostic(slope=slope, label=label, times=times, displacement=med)
