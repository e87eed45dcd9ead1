"""Empirical estimators and bound-validation reports for path ensembles.

All estimators work on the exact grid times of the ensemble; none of them
interpolate in time.  Standard errors are plain sample standard errors
across paths, with a delta-method step where the statistic is a modulus.

Each check of ``fellerkit validate`` is an accumulator fed one grid step
``(k, X_k)`` at a time, so it runs on a :class:`PathSteps` source without
the whole path array ever existing; it rejects its part of a config when
it is built, before any step, and its ``report`` gives its rows and their
pass rule.  :class:`CharFnRows` estimates the characteristic function,
:class:`OccupationSums` keeps the discounted Fourier sums of the occupation
check and :class:`ExitSup` the running sup of |X_k - x0|.  The ensemble
functions replay ``positions[:, k, :]`` through the same accumulators.
:func:`feed` draws the steps on the calling thread and runs the
accumulators on one worker thread beside it, on ``simulate._in_order``:
outputs are bit-identical to a serial run, and an error ends the source
and the worker before it propagates.  Every sum is elementwise, never a
BLAS product, so the estimates have the same bits on every OpenBLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import _line_fit, char_fn_bound, local_time_fourier_bound
from .envelopes import Envelope
from .errors import ConfigError
from .quadrature import positive_radius
from .simulate import _in_order
from .symbols import as_points

__all__ = [
    "feed",
    "CharFnEstimate",
    "empirical_char_fn",
    "CharBoundReport",
    "CharFnRows",
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


def _phases(xi, disp, out=None, term=None):
    """<xi_m, disp_i> at [m, i], its component products summed in order.

    Elementwise products and sums, never a BLAS product, so the bits do not
    depend on the OpenBLAS kernel; ``term`` is scratch of ``out``'s shape.
    """
    out = np.multiply.outer(xi[:, 0], disp[:, 0], out=out)
    for j in range(1, xi.shape[1]):
        out += np.multiply.outer(xi[:, j], disp[:, j], out=term)
    return out


def _two_paths(n_paths: int) -> None:
    if n_paths < 2:
        raise ConfigError("need at least two paths for a standard error")


def _char_moments(xi, disp) -> list:
    """``(value, se_real, se_imag, se_abs)`` for each frequency xi_m: the
    mean of exp(i <xi_m, disp_i>) over the paths i and its standard errors.
    One pass serves every frequency, each with the bits it has alone."""
    n = disp.shape[0]
    phase = _phases(xi, disp)
    zr, zi = np.cos(phase), np.sin(phase)
    means = zr.mean(axis=1), zi.mean(axis=1)
    ses = zr.std(axis=1, ddof=1) / math.sqrt(n), zi.std(axis=1, ddof=1) / math.sqrt(n)
    # the covariance of the two means, summed elementwise
    covs = ((zr - means[0][:, None]) * (zi - means[1][:, None])).sum(axis=1) / (n - 1) / n
    out = []
    for mr, mi, se_r, se_i, cov in zip(*(a.tolist() for a in (*means, *ses, covs))):
        mod = math.hypot(mr, mi)
        if mod > 0.0:
            # delta method for |mean|; the cross covariance enters with the
            # product of the two components
            var_abs = (
                mr * mr * se_r * se_r + 2.0 * mr * mi * cov + mi * mi * se_i * se_i
            ) / (mod * mod)
            se_abs = math.sqrt(max(var_abs, 0.0))
        else:
            se_abs = math.hypot(se_r, se_i)
        out.append((complex(mr, mi), se_r, se_i, se_abs))
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
    """Monte Carlo estimate of E exp(i <xi, X_t - x0>) across the ensemble:
    the estimator of :class:`CharFnRows` at one frequency."""
    v, _ = as_points(xi, ens.positions.shape[2], single=True)
    n = ens.positions.shape[0]
    _two_paths(n)
    disp = ens.at(t) - np.asarray(ens.start)[None, :]
    ((value, se_r, se_i, se_abs),) = _char_moments(v[None], disp)
    return CharFnEstimate(
        xi=v, t=float(t), value=value, se_real=se_r, se_imag=se_i, se_abs=se_abs, n_paths=n,
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


class CharFnRows:
    """The estimates of E exp(i <xi, X_t - x0>) for every (t, xi) row, taken
    at each time's grid step for all frequencies at once by the estimator of
    :func:`empirical_char_fn`.  Before any step it raises :class:`ConfigError`
    for, in turn, a time off the grid (read only when there are frequencies),
    a malformed frequency, and one path when there are rows."""

    def __init__(self, source, t_values, xi_values):
        t_values = t_values if len(xi_values) else []
        self._index = [source.time_index(t) for t in t_values]
        self.t = [float(t) for t in t_values]
        self.xi = _frequencies(xi_values, source.dimension)
        if self.t:
            _two_paths(source.n_paths)
        self.stop = 1 + max(self._index, default=-1)
        self._x0 = np.asarray(source.start, dtype=float)
        self._at = {}

    def update(self, k: int, x: np.ndarray) -> None:
        if k in self._index:
            self._at[k] = _char_moments(self.xi, x - self._x0)

    def report(self, env: Envelope, n_sigma: float = 3.0) -> CharBoundReport:
        """Each row passes when bound - |estimate| >= -n_sigma se, with the
        bound exp(-(t/16) q_inf(2 xi)); the verdict holds when at most 1% of
        the rows fail."""
        d = self.xi.shape[1]
        rows = []
        for t, k in zip(self.t, self._index):
            # one envelope query per time, for every frequency
            bounds = np.reshape(char_fn_bound(env, t, self.xi), -1).tolist()
            for v, bound, (value, _, _, se_abs) in zip(self.xi, bounds, self._at[k]):
                margin = bound - abs(value)
                rows.append({
                    "t": t, "xi": v.tolist() if d > 1 else float(v[0]), "bound": bound,
                    "empirical_abs": abs(value), "se": se_abs, "margin": margin,
                    "ok": margin >= -n_sigma * se_abs,
                })
        n_bad = sum(not row["ok"] for row in rows)
        frac = n_bad / len(rows) if rows else 0.0
        verdict = "holds" if frac <= 0.01 else "fails"
        return CharBoundReport(
            rows=rows, n_violations=n_bad, violation_fraction=frac, verdict=verdict,
            n_sigma=n_sigma,
        )


def validate_char_bound(
    ens, env: Envelope, t_values, xi_values, *, n_sigma: float = 3.0
) -> CharBoundReport:
    """Check |empirical char fn| <= exp(-(t/16) q_inf(2 xi)) + n_sigma * se
    on the grid of supplied times and frequencies.

    The verdict holds when at most 1% of the grid points violate the
    inflated bound; with n_sigma = 3 roughly one point in 370 is expected
    to sit outside by chance under a normal error model.  The estimates
    are those of :class:`CharFnRows`, fed the stored steps.
    """
    rows = CharFnRows(ens, t_values, xi_values)
    feed(_replay(ens, rows.stop), rows)
    return rows.report(env, n_sigma)


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
    e^-T > 1e-6, a malformed frequency or, when there are frequencies,
    fewer than two paths raises :class:`ConfigError` here, in that order,
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
        if len(self.xi):
            _two_paths(source.n_paths)
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
        """Mean |mu(xi)|^2 across paths against 16 / (16 + q_inf(xi)); a row
        passes when the mean is within n_sigma se of its bound."""
        n = self._re.shape[1]
        mod2 = self._re**2 + self._im**2
        # one envelope query for every frequency
        bounds = np.reshape(local_time_fourier_bound(env, self.xi), -1).tolist()
        rows = []
        for v, m2, bound in zip(self.xi, mod2, bounds):
            mean = float(m2.mean())
            se = float(m2.std(ddof=1) / math.sqrt(n))
            rows.append({
                "xi": v.tolist() if self.dimension > 1 else float(v[0]), "empirical": mean,
                "se": se, "bound": bound, "ok": mean <= bound + n_sigma * se,
            })
        verdict = "holds" if all(row["ok"] for row in rows) else "fails"
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
    row, before any step; so do rows on fewer than two paths, whose
    standard error would be 0 at a frequency of 0 or 1.
    """

    def __init__(self, source, rows):
        self.rows = []
        for r, t in rows:
            r, t = positive_radius(r), float(t)
            self.rows.append((r, t, source.time_index(t)))
        if self.rows:
            _two_paths(source.n_paths)
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

    def report(self, bounds, n_sigma: float = 3.0) -> list:
        """Each row's frequency against its bound in ``bounds`` (its
        :class:`~fellerkit.criteria.ExitTimeBound`, in row order); a row
        passes when its frequency is within n_sigma se of the bound."""
        return [
            {"r": freq.radius, "t": freq.t, "frequency": freq.value, "se": freq.se,
             "bound": bound.value, "ok": freq.value <= bound.value + n_sigma * freq.se}
            for freq, bound in zip(self.frequencies(), bounds)
        ]


def exit_frequency(ens, r: float, t: float) -> ExitFrequency:
    """Fraction of paths leaving the ball B(x0, r) by grid time t.

    Discrete maxima can only miss excursions between grid points, so the
    frequency is a slight underestimate of the continuous-time exit
    probability; comparisons against upper bounds remain valid.
    """
    sup = ExitSup(ens, [(r, t)])
    feed(_replay(ens, sup.stop), sup)
    return sup.frequencies()[0]

