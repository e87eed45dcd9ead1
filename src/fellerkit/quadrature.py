"""Radial quadrature and divergence classification for frequency integrals.

The criteria in this package reduce to integrals of radial-ish functions of
xi that may blow up at the origin (transience) or fail to decay at infinity
(local times, heat kernel bounds).  Divergence is decided on dyadic shells:
the shell with signed index j covers radii [R * 2^j, R * 2^(j+1)], negative
j walking into the origin and nonnegative j out to infinity.  Contributions
of regularly varying integrands form near-geometric sequences, so a ratio
test on the recorded shells is reliable; anything without clear geometric
structure is reported as undetermined rather than guessed.

Each shell is integrated with QUADPACK's 21-point Gauss-Kronrod rule and
its embedded 10-point Gauss rule (qk21), with QUADPACK's error estimate.
All nodes of all live subintervals of a shell go to the integrand in one
array call; only the subintervals whose error misses their share of the
budget are bisected for the next call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .errors import NumericalError

__all__ = [
    "IntegralResult",
    "integrate_radial",
    "classify_improper",
    "direction_set",
]

#: shells examined before a divergence verdict is allowed
INNER_SHELLS = 40
OUTER_SHELLS = 40
#: extra shells granted while chasing a convergent tail to tolerance
MAX_EXTRA_SHELLS = 360
#: last-k window for the ratio tests
RATIO_WINDOW = 8
#: a_{k+1} >= (1 - RATIO_SLACK) * a_k across the window means "not decaying"
RATIO_SLACK = 0.01


@dataclass
class IntegralResult:
    """Outcome of an improper integral.

    ``value`` is finite for convergent results, ``math.inf`` for divergent
    ones (the explicit flag is the classification, never a floating
    overflow), and ``nan`` when undetermined.  ``annulus_trace`` records
    (shell index, shell integral) pairs in increasing index order.
    """

    value: float
    abs_error_estimate: float
    classification: str  # convergent | divergent_at_zero | divergent_at_infinity | undetermined
    annulus_trace: list = field(default_factory=list)

    @property
    def infinite(self) -> bool:
        return self.classification in ("divergent_at_zero", "divergent_at_infinity")

    def to_dict(self) -> dict:
        return {
            "value": None if not np.isfinite(self.value) else self.value,
            "abs_error_estimate": self.abs_error_estimate
            if np.isfinite(self.abs_error_estimate)
            else None,
            "classification": self.classification,
            "annulus_trace": [[int(j), float(v)] for j, v in self.annulus_trace],
        }


def surface_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 for d = 1)."""
    return 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)


def direction_set(d: int) -> np.ndarray:
    """Deterministic unit directions used to average non-radial integrands.

    d = 1 uses both signs, d = 2 equispaced angles, d = 3 a Fibonacci
    sphere; sizes are fixed so results are reproducible.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        k = np.arange(1024)
        th = 2.0 * np.pi * k / 1024
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if d == 3:
        n = 1024
        k = np.arange(n) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        z = 1.0 - 2.0 * k / n
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise ValueError("direction sets are provided for dimensions 1 to 3")


def integrate_radial(
    f,
    d: int,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
) -> IntegralResult:
    """Integrate a radial profile over the annulus a <= |xi| <= b.

    ``f`` maps radius to value; the result carries the surface factor, so
    it equals the full d-dimensional integral of f(|xi|).  Failure to reach
    the requested tolerance budget is reported as undetermined, never as a
    silently inaccurate value.
    """
    surf = surface_area(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = integrate.quad(
            lambda r: f(r) * r ** (d - 1),
            a,
            b,
            epsabs=abs_tol,
            epsrel=rel_tol,
            limit=400,
        )
    val *= surf
    err *= surf
    if not np.isfinite(val):
        return IntegralResult(
            value=math.nan,
            abs_error_estimate=math.nan,
            classification="undetermined",
            annulus_trace=[],
        )
    budget = 1000.0 * (rel_tol * max(1.0, abs(val)) + abs_tol)
    if err > budget:
        raise NumericalError(
            f"radial quadrature error estimate {err:.3e} exceeds budget {budget:.3e}",
            error_estimate=err,
        )
    return IntegralResult(
        value=float(val),
        abs_error_estimate=float(err),
        classification="convergent",
        annulus_trace=[],
    )


def _shell_profile(f, d: int, radial: bool):
    """Reduce f on R^d to a radial profile, averaging over directions if needed.

    The profile maps an array of radii to an array of values with one call
    to f: at ``r`` (d = 1), ``r[:, None] * e1`` (radial) or
    ``r[:, None, None] * dirs`` (every direction of :func:`direction_set`).
    """
    if d == 1:
        if radial:
            return f

        def both_signs(r):
            plus, minus = f(r), f(-r)
            with np.errstate(invalid="ignore"):  # inf - inf: a nonfinite shell
                return 0.5 * (plus + minus)

        return both_signs
    if radial:
        e1 = np.eye(d)[0]
        return lambda r: f(r[:, None] * e1)
    dirs = direction_set(d)

    def direction_mean(r):
        vals = f(r[:, None, None] * dirs)
        with np.errstate(invalid="ignore"):
            return vals.mean(axis=1)

    return direction_mean


# QUADPACK's qk21 rule on [-1, 1], rounded to double: per node x >= 0 (the
# rule is symmetric), the 21-point Kronrod weight and the weight of the
# embedded 10-point Gauss rule, which is zero on Kronrod-only nodes
_QK21 = np.array([
    [0.9956571630258081, 0.011694638867371874, 0.0],
    [0.9739065285171717, 0.032558162307964725, 0.06667134430868814],
    [0.9301574913557082, 0.054755896574351995, 0.0],
    [0.8650633666889845, 0.07503967481091996, 0.1494513491505806],
    [0.7808177265864169, 0.0931254545836976, 0.0],
    [0.6794095682990244, 0.10938715880229764, 0.21908636251598204],
    [0.5627571346686047, 0.12349197626206584, 0.0],
    [0.4333953941292472, 0.13470921731147334, 0.26926671930999635],
    [0.2943928627014602, 0.14277593857706009, 0.0],
    [0.14887433898163122, 0.14773910490133849, 0.29552422471475287],
    [0.0, 0.1494455540029169, 0.0],
])
_GK_NODES = np.concatenate([-_QK21[:10, 0], _QK21[::-1, 0]])
_GK_WEIGHTS = np.concatenate([_QK21[:10, 1:], _QK21[::-1, 1:]])  # Kronrod, Gauss
_GK_WK = np.ascontiguousarray(_GK_WEIGHTS[:, 0])
_EPS = np.finfo(float).eps
#: a shell is accepted when its summed error estimate is within
#: max(SHELL_ABS_TOL, SHELL_REL_TOL * |shell integral|)
SHELL_ABS_TOL = 1e-13
SHELL_REL_TOL = 1e-9
#: most subintervals one shell may be cut into
SHELL_PIECES = 200


def _gauss_kronrod(g, lo: np.ndarray, hi: np.ndarray):
    """qk21 on each [lo_i, hi_i] with one call to ``g``: the Kronrod values
    and QUADPACK's error estimates, or a nonfinite value and an infinite
    error where a node value is not finite."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _GK_NODES
    vals = np.reshape(g(nodes.ravel()), nodes.shape)
    if not np.isfinite(vals).all():
        with np.errstate(invalid="ignore"):
            return (vals * _GK_WK).sum(axis=1) * half, np.full(len(half), math.inf)
    kronrod, gauss = (vals @ _GK_WEIGHTS).T
    resabs = np.abs(vals) @ _GK_WK
    resasc = np.abs(vals - 0.5 * kronrod[:, None]) @ _GK_WK
    err = np.abs(kronrod - gauss)
    # resasc * min(1, (200 |K - G| / resasc)^1.5), floored at 50 eps resabs
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0)
    err = np.where(resasc > 0, resasc * np.minimum(1.0, ratio**1.5), err)
    err = np.maximum(err, 50.0 * _EPS * resabs) * half
    return kronrod * half, err


def _shell_integral(profile, d: int, lo: float, hi: float) -> tuple[float, float]:
    """Integral of profile(r) r^(d-1) over lo <= r <= hi, times the sphere area.

    Every live subinterval of the shell is evaluated in one array call.  The
    shell is accepted when the summed error estimate meets its budget; else
    the pieces whose error exceeds their share of the budget (by length)
    are bisected, up to SHELL_PIECES pieces.  A nonfinite node value gives
    a nonfinite shell value.
    """

    def g(r):
        return profile(r) * r ** (d - 1)

    surf = surface_area(d)
    los, his = np.array([lo]), np.array([hi])
    done_val = done_err = 0.0
    n_done = 0
    while True:
        vals, errs = _gauss_kronrod(g, los, his)
        value = done_val + float(vals.sum())
        error = done_err + float(errs.sum())
        budget = max(SHELL_ABS_TOL, SHELL_REL_TOL * abs(value))
        if error <= budget or not math.isfinite(value):
            return surf * value, surf * error
        rejected = errs > budget * (his - los) / (hi - lo)
        n_rejected = int(rejected.sum())
        if n_rejected == 0 or n_done + len(los) + n_rejected > SHELL_PIECES:
            return surf * value, surf * error
        keep = ~rejected
        done_val += float(vals[keep].sum())
        done_err += float(errs[keep].sum())
        n_done += int(keep.sum())
        mids = 0.5 * (los[rejected] + his[rejected])
        los = np.concatenate([los[rejected], mids])
        his = np.concatenate([mids, his[rejected]])


def _nondecreasing(vals) -> bool:
    # a window that has decayed to exact zero is evidence of convergence,
    # never of divergence
    if len(vals) < RATIO_WINDOW or vals[-1] <= 0.0:
        return False
    return all(
        vals[i + 1] >= (1.0 - RATIO_SLACK) * vals[i]
        for i in range(len(vals) - RATIO_WINDOW, len(vals) - 1)
    )


def _geometric_tail(shells):
    """(tail_estimate, uncertainty) extrapolated from the trailing shell
    window, or None when the window is not cleanly geometric and shrinking."""
    window = [v for _, v in shells[-4:]]
    if len(window) < 4 or any(v < 0 for v in window):
        return None
    if window[-1] == 0.0:
        return 0.0, 0.0
    ratios = [window[i + 1] / window[i] for i in range(3) if window[i] > 0]
    if len(ratios) < 3:
        return None
    q_hi, q_lo = max(ratios), min(ratios)
    if q_hi >= 0.995:
        return None
    a_last = window[-1]
    tail = a_last * q_hi / (1.0 - q_hi)
    uncertainty = tail - a_last * q_lo / (1.0 - q_lo)
    return tail, uncertainty


def classify_improper(
    f,
    d: int,
    *,
    radius: float = 1.0,
    include_tail: bool = False,
    radial: bool = True,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-12,
) -> IntegralResult:
    """Classify and (when convergent) evaluate an improper frequency integral.

    Without ``include_tail`` the domain is the ball |xi| <= radius and only
    the origin can cause divergence; with it the domain is all of R^d and
    the outward shells are classified as well.  ``f`` takes an array of
    points of R^d in the form :func:`fellerkit.symbols.as_points` describes
    and returns an array of their leading shape: a 1-D array of radii in
    d = 1, else radii times e_1 (shape (n, d)), or with ``radial=False``
    radii times every direction of :func:`direction_set` (shape
    (n, k, d)), averaged per radius (both signs when d = 1).  Each shell
    is integrated by the qk21 rule to max(1e-13, 1e-9 |shell|); a
    nonfinite value of ``f`` at a node makes the shell nonfinite and the
    integral divergent.

    Divergence is declared when the trailing RATIO_WINDOW shell
    contributions fail to decrease by more than RATIO_SLACK; convergence
    requires clean geometric decay plus a tail extrapolation within the
    requested tolerance.  Everything else is undetermined.
    """
    profile = _shell_profile(f, d, radial)
    err_sum = 0.0

    def run_direction(start: int, step: int, min_shells: int):
        """Walk shells from ``start`` in direction ``step`` until a verdict."""
        nonlocal err_sum
        shells: list[tuple[int, float]] = []
        j = start
        for k in range(min_shells + MAX_EXTRA_SHELLS):
            lo = radius * 2.0**j
            hi = radius * 2.0 ** (j + 1)
            val, err = _shell_integral(profile, d, lo, hi)
            err_sum += err
            shells.append((j, val))
            if not np.isfinite(val):
                return shells, "nonfinite", (0.0, 0.0)
            if k + 1 >= min_shells:
                vals = [v for _, v in shells]
                if _nondecreasing(vals):
                    return shells, "divergent", (0.0, 0.0)
                tail = _geometric_tail(shells)
                if tail is not None:
                    t, unc = tail
                    scale = max(abs(sum(vals)), abs_tol)
                    if t + unc <= rel_tol * scale + abs_tol:
                        return shells, "convergent", tail
            j += step
        return shells, "undetermined", (0.0, 0.0)

    inner_shells, inner_status, inner_tail = run_direction(-1, -1, INNER_SHELLS)
    outer_shells, outer_status, outer_tail = [], "skipped", (0.0, 0.0)
    if include_tail:
        outer_shells, outer_status, outer_tail = run_direction(0, +1, OUTER_SHELLS)

    trace = sorted(inner_shells + outer_shells, key=lambda pair: pair[0])

    if inner_status in ("divergent", "nonfinite"):
        return IntegralResult(math.inf, math.inf, "divergent_at_zero", trace)
    if outer_status in ("divergent", "nonfinite"):
        return IntegralResult(math.inf, math.inf, "divergent_at_infinity", trace)
    if inner_status != "convergent" or (include_tail and outer_status != "convergent"):
        return IntegralResult(math.nan, math.nan, "undetermined", trace)

    total = sum(v for _, v in trace) + inner_tail[0] + outer_tail[0]
    unc = err_sum + inner_tail[1] + outer_tail[1]
    return IntegralResult(float(total), float(unc), "convergent", trace)
