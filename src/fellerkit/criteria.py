"""Uniform bounds and path-property criteria driven by symbol envelopes.

Everything here consumes an :class:`~fellerkit.envelopes.Envelope` (plus,
for some operations, the model itself) and produces either scalar bounds or
:class:`CriterionReport` objects.  The criteria are one-sided sufficient
conditions: a divergent or undecidable integral yields "inconclusive",
never a claim that the property fails.  "fails" is reserved for violated
preconditions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .envelopes import Envelope
from .errors import ConfigError, NumericalError
from .quadrature import IntegralResult, classify_improper, direction_set, surface_area
from .symbols import SymbolModel, as_points

__all__ = [
    "CriterionReport",
    "char_fn_bound",
    "heat_kernel_sup_bound",
    "test_ultracontractivity",
    "test_transience",
    "test_local_times",
    "occupation_bound",
    "small_time_horizon",
    "SmallTimeHorizon",
    "exit_time_bound",
    "ExitTimeBound",
    "bump_constant",
    "heat_exponent_fit",
    "HeatExponentFit",
    "local_time_fourier_bound",
    "stable_like_tail_transience",
]


@dataclass
class CriterionReport:
    """Verdict of one criterion together with its numerical evidence."""

    criterion: str
    verdict: str  # holds | fails | inconclusive
    evidence: dict = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)
    caveats: tuple = ()
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "config": self.config_echo,
            "caveats": list(self.caveats),
            "wall_time": self.wall_time,
        }


# ---------------------------------------------------------------------------
# pointwise bounds


def char_fn_bound(env: Envelope, t: float, xi) -> float | np.ndarray:
    """Uniform-in-x bound exp(-(t/16) q_inf(2 xi)) for |E^x e^{i<X_t - x, xi>}|."""
    if t < 0:
        raise ConfigError("time must be nonnegative")
    q = env.q_inf(2.0 * np.asarray(xi, dtype=float))
    return np.exp(-(t / 16.0) * q)


def local_time_fourier_bound(env: Envelope, xi) -> float | np.ndarray:
    """Bound 16 / (16 + q_inf(xi)) for the mean squared Fourier transform of
    the exponentially discounted occupation measure."""
    q = env.q_inf(np.asarray(xi, dtype=float))
    return 16.0 / (16.0 + q)


def heat_kernel_sup_bound(
    env: Envelope, t: float, *, rel_tol: float = 1e-6, full: bool = False
):
    """Off-diagonal-uniform transition density bound
    (4 pi)^{-d} * integral exp(-(t/16) q_inf(xi)) dxi.

    Returns math.inf when the frequency integral diverges (symbol too flat
    at infinity for an ultracontractive bound at this t).
    """
    if t <= 0:
        raise ConfigError("the density bound needs t > 0")
    d = env.dimension

    result = classify_improper(
        lambda xi: np.exp(-(t / 16.0) * env.q_inf(xi)),
        d, radius=1.0, include_tail=True, radial=env.radial, rel_tol=rel_tol
    )
    if result.classification == "undetermined":
        raise NumericalError(
            "heat kernel bound integral could not be classified", error_estimate=math.nan
        )
    value = math.inf if result.infinite else (4.0 * math.pi) ** (-d) * result.value
    if full:
        scaled = IntegralResult(
            value=value,
            abs_error_estimate=(4.0 * math.pi) ** (-d) * result.abs_error_estimate,
            classification=result.classification,
            annulus_trace=result.annulus_trace,
        )
        return value, scaled
    return value


# ---------------------------------------------------------------------------
# criteria


def _reciprocal(q: np.ndarray) -> np.ndarray:
    """1 / q, and inf where q <= 0 (or is nan), without a divide warning."""
    return np.divide(1.0, q, out=np.full(np.shape(q), math.inf), where=q > 0)


def _directions(env: Envelope, n: int | None = None) -> np.ndarray:
    """Unit directions for sweeps over spheres: e_1 when the envelope is
    radial, else every direction of ``direction_set``, or ``n`` of them
    spread evenly over the whole set."""
    if env.radial:
        return np.eye(env.dimension)[:1]
    dirs = direction_set(env.dimension)
    return dirs if n is None else dirs[:: max(1, len(dirs) // n)]


def _query(query, xi: np.ndarray) -> np.ndarray:
    """One envelope query at the component-last points ``xi``, shaped
    ``xi.shape[:-1]``; the reshape drops the trailing unit axis that the
    elementwise d = 1 reading leaves."""
    return np.reshape(query(xi), xi.shape[:-1])


def _negative_q_inf(criterion: str, env: Envelope, start: float) -> CriterionReport | None:
    """The "fails" report when q_inf dips below zero on a probe of spheres."""
    radii = np.array([0.1, 1.0, 10.0])
    if _query(env.q_inf, radii[:, None, None] * _directions(env, 8)).min() < -1e-10:
        return CriterionReport(
            criterion=criterion,
            verdict="fails",
            evidence={"note": "q_inf takes negative values; not a symbol envelope"},
            caveats=env.caveats,
            wall_time=time.perf_counter() - start,
        )
    return None


def test_ultracontractivity(
    env: Envelope,
    radii=None,
    *,
    threshold: float = 10.0,
    n_increasing: int = 3,
) -> CriterionReport:
    """Check the growth margin m(R) = min_{|xi| = R} q_inf(xi) / log(1 + R).

    The semigroup bound requires the margin to diverge; numerically the
    verdict "holds" needs the margin to clear ``threshold`` at the largest
    radius and to increase across the last ``n_increasing`` radii.  Slow or
    ambiguous growth is inconclusive, never "fails".
    """
    start = time.perf_counter()
    if radii is None:
        radii = np.logspace(1, 6, 6)
    radii = np.asarray(radii, dtype=float)
    q_min = _query(env.q_inf, radii[:, None, None] * _directions(env)).min(axis=1)
    margins = [float(q) / math.log1p(r) for q, r in zip(q_min, radii)]
    tail = margins[-n_increasing:]
    increasing = all(tail[i + 1] > tail[i] for i in range(len(tail) - 1))
    verdict = "holds" if (increasing and margins[-1] > threshold) else "inconclusive"
    return CriterionReport(
        criterion="ultracontractivity",
        verdict=verdict,
        evidence={"radii": radii.tolist(), "margins": margins, "threshold": threshold},
        config_echo={"n_increasing": n_increasing},
        caveats=env.caveats,
        wall_time=time.perf_counter() - start,
    )


def test_transience(
    env: Envelope,
    r: float = 1.0,
    *,
    radial_shortcut: bool = False,
    rel_tol: float = 1e-6,
) -> CriterionReport:
    """Transience via integrability of 1 / q_inf near the origin.

    A convergent integral over |xi| <= r certifies transience.  Divergence
    leaves the criterion silent (inconclusive); with ``radial_shortcut`` the
    report notes that a single radius suffices for radial symbols with
    unbounded real part, instead of all r > 0.
    """
    start = time.perf_counter()
    negative = _negative_q_inf("transience", env, start)
    if negative is not None:
        return negative

    result = classify_improper(
        lambda xi: _reciprocal(env.q_inf(xi)),
        env.dimension, radius=float(r), include_tail=False, radial=env.radial, rel_tol=rel_tol
    )
    if result.classification == "convergent":
        verdict = "holds"
    else:
        verdict = "inconclusive"
    note = (
        "radial symbol with unbounded real part declared: one radius decides"
        if radial_shortcut
        else "criterion applied at a single radius; transience needs it for every r > 0"
    )
    return CriterionReport(
        criterion="transience",
        verdict=verdict,
        evidence={"integral": result.to_dict(), "radius": float(r), "note": note},
        config_echo={"radial_shortcut": radial_shortcut, "rel_tol": rel_tol},
        caveats=env.caveats,
        wall_time=time.perf_counter() - start,
    )


def test_local_times(env: Envelope, *, rel_tol: float = 1e-6) -> CriterionReport:
    """Existence of local times via integrability of 1 / (1 + q_inf) on R^d."""
    start = time.perf_counter()
    negative = _negative_q_inf("local_times", env, start)
    if negative is not None:
        return negative

    result = classify_improper(
        lambda xi: 1.0 / (1.0 + env.q_inf(xi)),
        env.dimension, radius=1.0, include_tail=True, radial=env.radial, rel_tol=rel_tol
    )
    verdict = "holds" if result.classification == "convergent" else "inconclusive"
    return CriterionReport(
        criterion="local_times",
        verdict=verdict,
        evidence={"integral": result.to_dict()},
        config_echo={"rel_tol": rel_tol},
        caveats=env.caveats,
        wall_time=time.perf_counter() - start,
    )


def occupation_bound(env: Envelope, r: float, *, rel_tol: float = 1e-6, full: bool = False):
    """Mean occupation bound for the cube of half-width pi / (3 r) around the
    start point:

        4^{d+2} / (pi r)^d * integral_{|xi| <= 2 r sqrt(d)} dxi / q_inf(2 xi)

    Returns math.inf when the integral diverges.
    """
    if r <= 0:
        raise ConfigError("radius must be positive")
    d = env.dimension

    result = classify_improper(
        lambda xi: _reciprocal(env.q_inf(2.0 * xi)),
        d,
        radius=2.0 * r * math.sqrt(d),
        include_tail=False,
        radial=env.radial,
        rel_tol=rel_tol,
    )
    prefactor = 4.0 ** (d + 2) / (math.pi * r) ** d
    value = math.inf if result.infinite else prefactor * result.value
    if result.classification == "undetermined":
        raise NumericalError("occupation bound integral could not be classified")
    if full:
        return value, result
    return value


# ---------------------------------------------------------------------------
# small-time horizons and exit bounds


@dataclass
class SmallTimeHorizon:
    """Horizons below which the decay exp(-(1 - c - eps) t q_inf(xi)) is
    guaranteed for the characteristic function, with the frequency windows
    g1, g2 used to control the drift and carre-du-champ terms."""

    t1: float
    t2: float
    g1: float
    g2: float
    sector_constant: float
    decay_rate: float


def _sector_constant(env: Envelope) -> float:
    xi = np.logspace(-2, 2, 17)[:, None, None] * _directions(env, 64)
    im = _query(env.im_sup, xi)
    active = im > 1e-12
    if not active.any():
        return 0.0
    q = _query(env.q_inf, xi[active])
    if np.any(q <= 0):
        return math.inf
    return float(np.max(im[active] / q))


def small_time_horizon(
    model: SymbolModel,
    env: Envelope,
    xi,
    eps: float,
    *,
    sector_constant: float | None = None,
    sup_resolution: int = 257,
) -> SmallTimeHorizon:
    """Compute the guaranteed decay horizons t1 <= t2 at one frequency.

    ``eps`` must lie in (0, 1 - c) for the sector constant c (0 for real
    symbols).  t1 only uses the symbol magnitude at xi; t2 additionally
    controls remainder terms through sups of the symbol over the frequency
    windows of widths 1/g1 and 1/g2.
    """
    d = env.dimension
    xiv, lead = as_points(xi, d)
    if lead:
        raise ValueError("small_time_horizon takes a single frequency")
    c = _sector_constant(env) if sector_constant is None else float(sector_constant)
    if not 0.0 < eps < 1.0 - c:
        raise ConfigError(
            f"eps must lie in (0, 1 - c) = (0, {1.0 - c:.6g}); got {eps}"
        )
    rho = float(np.linalg.norm(xiv))
    if rho == 0.0:
        raise ConfigError("the horizon is defined for xi != 0")
    q_i = env.q_inf(xi)
    if q_i <= 0.0:
        raise ConfigError("q_inf(xi) must be positive at the requested frequency")
    q_s = env.q_sup(xi)
    i_s = env.im_sup(xi)
    r_s = env.re_sup(xi)

    g1 = eps / (4.0 * rho) * min(q_i / (1.0 + i_s), 1.0)
    g2 = eps / (4.0 * rho) * (q_i / r_s)
    t1 = eps / (8.0 * q_s)

    dirs = _directions(env, 64 if d == 2 else 128)

    def window_sup(radius: float) -> float:
        radii = np.linspace(0.0, radius, sup_resolution)[1:]
        return float(_query(env.q_sup, radii[:, None, None] * dirs).max(initial=0.0))

    c1 = bump_constant(d)
    denom = 2.0 * c1 * q_s * (3.0 * window_sup(1.0 / g1) + window_sup(1.0 / g2))
    t2 = min(t1, eps * q_i / denom)
    return SmallTimeHorizon(
        t1=float(t1),
        t2=float(t2),
        g1=float(g1),
        g2=float(g2),
        sector_constant=c,
        decay_rate=float((1.0 - c - eps) * q_i),
    )


# ---------------------------------------------------------------------------
# exit time bound and the bump constant


def _default_bump(r):
    r = np.asarray(r, dtype=float)
    inside = np.abs(r) < 1.0
    safe = np.where(inside, r, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - safe * safe)), 0.0)


_BUMP_CACHE: dict = {}


def bump_constant(d: int, profile=None) -> float:
    """c_u = integral (1 + |xi|^2) |u_hat(xi)| dxi for a radial bump u
    supported in the unit ball, with the transform normalized so that
    integral u_hat = u(0).

    The value is computed once per (dimension, profile) and cached; it
    enters exit-time bounds multiplicatively.
    """
    # only the default profile is cached: keying a temporary callable by id
    # would let a recycled id skip validation and return a stale constant
    if profile is None and int(d) in _BUMP_CACHE:
        return _BUMP_CACHE[int(d)]
    u = _default_bump if profile is None else profile
    u0 = float(np.asarray(u(0.0)))
    if abs(u0 - 1.0) > 1e-8:
        raise ConfigError("bump profile must have u(0) = 1")
    probe = np.linspace(0.0, 0.999, 200)
    vals = np.asarray(u(probe), dtype=float)
    if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-9:
        raise ConfigError("bump profile must take values in [0, 1]")
    if float(np.asarray(u(0.9995))) > 1e-3:
        raise ConfigError("bump profile must decay to 0 at the unit sphere")

    # radial Fourier transform on a Gauss-Legendre rule, then a dense
    # trapezoid in |xi|; the absolute value makes the integrand kinked at
    # the transform's zeros, so the radial grid is kept fine.  The node
    # count must resolve the oscillation of the kernel at the largest
    # frequency (roughly rho_max / 2 nodes), otherwise quadrature noise
    # masquerades as a fat transform tail under the (1 + rho^2) weight.
    # Past rho ~ 700 the true transform sits below the double-precision
    # cancellation floor of the rule, so the cutoff stays at 600 where the
    # genuine integrand still dominates that floor by three orders; the
    # truncated mass is ~1e-7 of the total.
    rho_max = 600.0
    nodes, weights = np.polynomial.legendre.leggauss(1024)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    ur = np.asarray(u(r), dtype=float) * r ** (d - 1)

    def kernel(s):
        if d == 1:
            return np.cos(s)
        if d == 2:
            return special.j0(s)
        if d == 3:
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(s == 0.0, 1.0, np.sin(s) / np.where(s == 0.0, 1.0, s))
        raise ConfigError("bump constants are provided for dimensions 1 to 3")

    surf = surface_area(d)
    rho = np.arange(0.0, rho_max, 0.02)
    hat = np.empty_like(rho)
    chunk = 512
    for i in range(0, rho.size, chunk):
        block = rho[i : i + chunk]
        hat[i : i + chunk] = (w * ur) @ kernel(np.outer(r, block))
    hat *= surf / (2.0 * math.pi) ** d
    integrand = (1.0 + rho * rho) * np.abs(hat) * rho ** (d - 1)
    c_u = float(surf * np.trapezoid(integrand, rho))
    tail = float(surf * np.trapezoid(integrand[rho >= 0.9 * rho_max], rho[rho >= 0.9 * rho_max]))
    if not 0.0 < c_u < math.inf or tail > 1e-5 * c_u:
        raise NumericalError(
            "bump transform tail not resolved; increase the cutoff", error_estimate=tail
        )
    if profile is None:
        _BUMP_CACHE[int(d)] = c_u
    return c_u


@dataclass
class ExitTimeBound:
    """Probability bound for leaving the ball B(x, r) by time t.

    ``raw`` is the unclipped product c_u * t * sup |p|; ``value`` is clipped
    to [0, 1] for reporting."""

    raw: float
    value: float
    c_u: float
    sup_symbol: float


def exit_time_bound(
    model: SymbolModel,
    x,
    r: float,
    t: float,
    *,
    profile=None,
    resolution: int | None = None,
) -> ExitTimeBound:
    """Bound P^x(sup_{s <= t} |X_s - x| >= r) by
    c_u * t * sup_{|y - x| <= r} sup_{|xi| <= 1/r} |p(y, xi)|.

    The sups are taken over ball grids; the bound is one-sided in the same
    direction as the grid (a grid sup can only understate the true sup, so
    the reported bound is exact for the sampled sups and typically tight in
    practice for the smooth coefficient fields used here).
    """
    if r <= 0 or t < 0:
        raise ConfigError("need r > 0 and t >= 0")
    d = model.dimension
    if resolution is None:
        resolution = 65 if d == 1 else 17
    x0 = np.asarray(x, dtype=float).reshape(d)

    axes = [np.linspace(-r, r, resolution)] * d
    offs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    offs = offs[np.linalg.norm(offs, axis=1) <= r + 1e-12]
    ys = x0[None, :] + offs

    xi_axes = [np.linspace(-1.0 / r, 1.0 / r, resolution)] * d
    xis = np.stack(np.meshgrid(*xi_axes, indexing="ij"), axis=-1).reshape(-1, d)
    xis = xis[np.linalg.norm(xis, axis=1) <= 1.0 / r + 1e-12]

    vals = np.abs(model.evaluator(ys[:, None, :], xis[None, :, :]))
    sup = float(vals.max())
    c_u = bump_constant(d, profile)
    raw = c_u * t * sup
    return ExitTimeBound(raw=raw, value=min(1.0, max(0.0, raw)), c_u=c_u, sup_symbol=sup)


# ---------------------------------------------------------------------------
# asymptotics


@dataclass
class HeatExponentFit:
    small_t_slope: float
    large_t_slope: float
    t_values: np.ndarray
    bounds: np.ndarray


def heat_exponent_fit(env: Envelope, t_grid=None, *, rel_tol: float = 1e-6) -> HeatExponentFit:
    """Log-log slopes of the density bound for t -> 0 and t -> infinity.

    The fit windows are t <= 0.01 and t >= 100; the supplied grid must put
    at least three points in each.  For a stable-like envelope the slopes
    approach -d / amin and -d / amax.
    """
    if t_grid is None:
        t_grid = np.concatenate([np.logspace(-4, -2, 9), np.logspace(2, 4, 9)])
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    bounds = np.array([heat_kernel_sup_bound(env, t, rel_tol=rel_tol) for t in t_grid])
    if not np.all(np.isfinite(bounds)):
        raise NumericalError("density bound diverges on the fit grid")
    small = t_grid <= 0.01
    large = t_grid >= 100.0
    if small.sum() < 3 or large.sum() < 3:
        raise ConfigError("fit grid needs at least three points in each decade window")
    coef_s = np.polyfit(np.log(t_grid[small]), np.log(bounds[small]), 1)
    coef_l = np.polyfit(np.log(t_grid[large]), np.log(bounds[large]), 1)
    return HeatExponentFit(
        small_t_slope=float(coef_s[0]),
        large_t_slope=float(coef_l[0]),
        t_values=t_grid,
        bounds=bounds,
    )


def stable_like_tail_transience(
    model: SymbolModel, K: float, *, sample_radius_factor: float = 8.0
) -> CriterionReport:
    """Diagnostic for one-dimensional variable-order transience.

    Samples the order alpha(x) on K <= |x| <= K * sample_radius_factor; when
    the sampled sup stays below 1 the report holds as a diagnostic.  The
    conclusion rests on modifying the order inside the compact set, so it is
    advisory and never enters the rigorous criteria.
    """
    start = time.perf_counter()
    if model.kind != "stable_like" or model.dimension != 1:
        raise ConfigError("this diagnostic applies to one-dimensional stable-like models")
    spec = model.eval_data
    r = np.linspace(K, K * sample_radius_factor, 2001)
    pts = np.concatenate([r, -r])[:, None]
    tail_sup = float(np.max(np.asarray(spec.alpha(pts), dtype=float)))
    verdict = "holds" if tail_sup < 1.0 else "inconclusive"
    return CriterionReport(
        criterion="stable_like_tail_transience",
        verdict=verdict,
        evidence={"K": float(K), "tail_sup_alpha": tail_sup, "window": [float(K), float(K * sample_radius_factor)]},
        caveats=(
            "diagnostic only: relies on modifying the order inside a compact set;"
            " sampled sup over a finite window",
        ),
        wall_time=time.perf_counter() - start,
    )
