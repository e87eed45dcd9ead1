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
same accumulators.  :func:`feed` draws the steps on the calling thread and
runs the accumulators on one worker thread beside it, on the step pool's
pipeline ``simulate._in_order``: the two overlap, outputs are bit-identical
to a serial run, and an error ends the source and the worker before it
propagates.  The phases <xi, X - x0> are summed elementwise, not by BLAS,
so the estimates have the same bits on every OpenBLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import _line_fit, char_fn_bound, local_time_fourier_bound
from .envelopes import Envelope
from .errors import ConfigError
from .quadrature import positive_radius
from .simulate import PathEnsemble, _in_order
from .symbols import as_points

__all__ = [
    "feed",
    "GridSnapshots",
    "CharFnEstimate",
    "empirical_char_fn",
    "CharBoundReport",
    "validate_char_bound",
    "GeneratorFDEstimate",
    "generator_finite_difference",
    "OccupationFourierReport",
    "OccupationSums",
    "occupation_fourier_check",
    "ExitFrequency",
    "ExitSup",
    "exit_frequency",
]


FEED_DEPTH = 4  # steps the step source may run ahead of the accumulators


def feed(steps, *accumulators) -> None:
    """Pass every ``(k, X_k)`` of a step source to each accumulator, in
    step order.

    The step source is iterated on the calling thread; one worker thread
    calls every accumulator's ``update``, at most ``FEED_DEPTH`` steps
    behind it.  Each accumulator sees the same steps in the same order as
    in a serial loop, and no step is copied: a source must never write to
    a step it has yielded, as :class:`PathSteps` and views of stored
    positions do not.  An exception in an accumulator or the source (or
    an interrupt) starts no further update, closes the source and is
    re-raised here once the worker has ended.
    """

    def update(item):
        for acc in accumulators:
            acc.update(*item)

    for _ in _in_order(update, steps, 1, FEED_DEPTH, "fellerkit-feed"):
        pass


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


def _phases(xi, disp, out=None, term=None):
    """<xi_m, disp_i> at [m, i], its component products summed in order.

    Elementwise products and sums, never a BLAS product, so the bits do not
    depend on the OpenBLAS kernel; ``term`` is scratch of ``out``'s shape.
    """
    out = np.multiply.outer(xi[:, 0], disp[:, 0], out=out)
    for j in range(1, xi.shape[1]):
        out += np.multiply.outer(xi[:, j], disp[:, j], out=term)
    return out


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
    v, _ = as_points(xi, d, single=True)
    n = ens.positions.shape[0]
    if n < 2:
        raise ConfigError("need at least two paths for a standard error")
    disp = ens.at(t) - np.asarray(ens.start)[None, :]
    phase = _phases(v[None], disp)[0]
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


def _frequencies(xi_values, d: int) -> np.ndarray:
    """The frequencies as an (n, d) array; each must be one finite frequency
    of dimension d (:class:`ConfigError` otherwise)."""
    return np.reshape([as_points(xi, d, single=True)[0] for xi in xi_values], (-1, d))


def validate_char_bound(
    ens, env: Envelope, t_values, xi_values, *, n_sigma: float = 3.0
) -> CharBoundReport:
    """Check |empirical char fn| <= exp(-(t/16) q_inf(2 xi)) + n_sigma * se
    on the grid of supplied times and frequencies.

    The verdict holds when at most 1% of the grid points violate the
    inflated bound; with n_sigma = 3 roughly one point in 370 is expected
    to sit outside by chance under a normal error model.
    """
    d = ens.positions.shape[2]
    points = _frequencies(xi_values, d)
    rows = []
    n_bad = 0
    for t in t_values:
        # one envelope query per time, for every frequency
        bounds = np.reshape(char_fn_bound(env, t, points), -1).tolist() if len(points) else []
        for v, bound in zip(points, bounds):
            est = empirical_char_fn(ens, t, v)
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
    verdict = "holds" if frac <= 0.01 else "fails"
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
    intercept, slope, se0 = _line_fit(hs, ys, w)
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
        self.xi = _frequencies(xi_values, d)
        decay = np.exp(-np.asarray(source.time_grid, dtype=float))
        self._w = np.zeros(decay.size)
        self._w[:-1] = decay[:-1] - decay[1:]
        self._x0 = np.asarray(source.start, dtype=float)
        shape = (len(self.xi), source.n_paths)
        self._re = np.zeros(shape)
        self._im = np.zeros(shape)
        self._phase = np.empty(shape)
        self._term = np.empty(shape)

    def update(self, k: int, x: np.ndarray) -> None:
        w = self._w[k]
        _phases(self.xi, x - self._x0, self._phase, self._term)
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
    ens, env: Envelope, xi_values, *, n_sigma: float = 3.0
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
    stored steps.
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

    A radius that is not finite and positive, or a time off the source's
    grid (nan and inf included), raises :class:`ConfigError` here, row by
    row, before any step.
    """

    def __init__(self, source, rows):
        self.rows = []
        for r, t in rows:
            r, t = positive_radius(r), float(t)
            self.rows.append((r, t, source.time_index(t)))
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

