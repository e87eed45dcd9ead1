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
from dataclasses import dataclass, field, replace

import numpy as np

from .envelopes import Envelope
from .errors import ConfigError, NumericalError
from .quadrature import classify_family, on_spheres, positive_radius, surface_area
from .symbol_checks import ball_sup
from .symbols import SymbolModel

__all__ = [
    "CriterionReport",
    "char_fn_bound",
    "heat_kernel_sup_bound",
    "frequency_criteria",
    "test_ultracontractivity",
    "test_transience",
    "test_local_times",
    "occupation_bound",
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
    if not (math.isfinite(t) and t >= 0):
        raise ConfigError("time must be nonnegative and finite")
    q = env.q_inf(2.0 * np.asarray(xi, dtype=float))
    return np.exp(-(t / 16.0) * q)


def local_time_fourier_bound(env: Envelope, xi) -> float | np.ndarray:
    """Bound 16 / (16 + q_inf(xi)) for the mean squared Fourier transform of
    the exponentially discounted occupation measure."""
    q = env.q_inf(np.asarray(xi, dtype=float))
    return 16.0 / (16.0 + q)


def heat_kernel_sup_bound(
    env: Envelope, t, *, rel_tol: float = 1e-6, full: bool = False
):
    """Off-diagonal-uniform transition density bound
    (4 pi)^{-d} * integral exp(-(t/16) q_inf(xi)) dxi.

    ``t`` is one time or a 1-D sequence of times; every time must be finite
    and positive, and all of them share one walk over the frequency shells
    (:func:`frequency_criteria`).  Returns a float for one time, else an
    array of bounds; with ``full``, also the scaled :class:`IntegralResult`,
    or a list of them.  A bound is math.inf when its frequency integral
    diverges (symbol too flat at infinity for an ultracontractive bound at
    that t).
    """
    values, scaled = frequency_criteria(env, None, False, t, rel_tol=rel_tol)[2:4]
    if np.ndim(t) == 0:
        values, scaled = float(values[0]), scaled[0]
    return (values, scaled) if full else values


# ---------------------------------------------------------------------------
# criteria


def _reciprocal(q: np.ndarray) -> np.ndarray:
    """1 / q, and inf where q <= 0 (or is nan), without a divide warning."""
    return np.divide(1.0, q, out=np.full(np.shape(q), math.inf), where=q > 0)


def frequency_criteria(
    env: Envelope,
    r: float | None,
    local_times: bool,
    t,
    *,
    occupation_radii=(),
    rel_tol: float = 1e-6,
    radial_shortcut: bool = False,
):
    """Transience at radius ``r`` (none when ``r`` is None), local times
    (when ``local_times``), the density bound at the times ``t`` and the
    occupation bound at each of ``occupation_radii``.

    All are integrals of q_inf: of 1 / q_inf over |xi| <= r, of
    1 / (1 + q_inf) and exp(-(t/16) q_inf) over R^d, and of 1 / q_inf over
    |eta| <= 4 r sqrt(d) (:func:`occupation_bound`).  They are the rows of
    one :func:`~fellerkit.quadrature.classify_family` call.  Radii that
    differ by a power of two (1 and an occupation radius 4 r sqrt(d) = 2^k,
    say) share one ladder of shells, walked once in each direction, and
    the walks of every ladder run in lockstep: each round makes one
    envelope query for all of them, a row is computed only at the nodes of
    its own walk, and each row gets the result of its radius walked alone.
    ``t`` is one finite, positive time or a 1-D sequence of them.  Returns
    the transience and local-times reports (None when not asked for;
    "fails", without a walk, when q_inf dips below zero on a probe of
    spheres), the array of density bounds (math.inf where the integral
    diverges) and their scaled :class:`IntegralResult` list, and likewise
    the occupation bounds and the xi-space results of
    :func:`occupation_bound`.
    """
    start = time.perf_counter()
    r = None if r is None else positive_radius(r)
    occupation_radii = [positive_radius(r_occ) for r_occ in occupation_radii]
    d = env.dimension
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ConfigError("the density bound takes one time or a 1-D sequence of times")
    if not np.isfinite(times).all():
        raise ConfigError("the density bound needs a finite t")
    if (times <= 0).any():
        raise ConfigError("the density bound needs t > 0")
    rates = -(times.ravel() / 16.0)
    negative = (r is not None or local_times) and on_spheres(
        env.q_inf, np.array([0.1, 1.0, 10.0]), d, env.radial, 8
    ).min() < -1e-10

    # name -> (radius, include_tail, row count, its rows k from q_inf)
    parts = {}
    if r is not None and not negative:
        parts["transience"] = (r, False, 1, lambda q, k: _reciprocal(q)[None])
    if local_times and not negative:
        parts["local_times"] = (1.0, True, 1, lambda q, k: (1.0 / (1.0 + q))[None])
    # the heat times stay one block, so a pass makes one exp for all of them
    parts["heat"] = (
        1.0, True, rates.size, lambda q, k: np.exp(rates[k].reshape((-1,) + (1,) * q.ndim) * q)
    )
    for i, r_occ in enumerate(occupation_radii):
        parts["occupation", i] = (
            4.0 * r_occ * math.sqrt(d), False, 1, lambda q, k: _reciprocal(q)[None]
        )
    starts = np.cumsum([0] + [n for _, _, n, _ in parts.values()])
    blocks = [block for *_, block in parts.values()]

    def rows_of(q, idx):
        cuts = np.searchsorted(idx, starts).tolist()
        return np.concatenate([
            block(q, idx[a:b] - start)
            for block, start, a, b in zip(blocks, starts.tolist(), cuts, cuts[1:])
            if a < b
        ])

    family = classify_family(
        env.q_inf, int(starts[-1]), d, rows_of=rows_of, radial=env.radial, rel_tol=rel_tol,
        radius=[radius for radius, _, n, _ in parts.values() for _ in range(n)],
        include_tail=[tail for _, tail, n, _ in parts.values() for _ in range(n)],
    )
    results = {}
    for name, (_, _, n, _) in parts.items():
        results[name], family = family[:n], family[n:]

    if any(result.classification == "undetermined" for result in results["heat"]):
        raise NumericalError(
            "heat kernel bound integral could not be classified", error_estimate=math.nan
        )
    scale = (4.0 * math.pi) ** (-d)
    heat = [
        replace(
            result,
            value=math.inf if result.infinite else scale * result.value,
            abs_error_estimate=scale * result.abs_error_estimate,
        )
        for result in results["heat"]
    ]
    # the eta-space integral is 2^d times the xi-space one, and halving is exact
    occ, half = [], 2.0**-d
    for i in range(len(occupation_radii)):
        (result,) = results["occupation", i]
        if result.classification == "undetermined":
            raise NumericalError("occupation bound integral could not be classified")
        occ.append(replace(
            result, value=half * result.value, abs_error_estimate=half * result.abs_error_estimate,
            annulus_trace=[(j, half * v) for j, v in result.annulus_trace],
        ))
    occ_bounds = [
        math.inf if res.infinite else 4.0 ** (d + 2) / (math.pi * r_occ) ** d * res.value
        for r_occ, res in zip(occupation_radii, occ)
    ]

    note = (
        "radial symbol with unbounded real part declared: one radius decides"
        if radial_shortcut
        else "criterion applied at a single radius; transience needs it for every r > 0"
    )
    reports = {}
    for name, wanted, evidence, config_echo in (
        ("transience", r is not None, {"radius": r, "note": note},
         {"radial_shortcut": radial_shortcut, "rel_tol": rel_tol}),
        ("local_times", local_times, {}, {"rel_tol": rel_tol}),
    ):
        if not wanted:
            reports[name] = None
            continue
        if negative:
            verdict, config_echo = "fails", {}
            evidence = {"note": "q_inf takes negative values; not a symbol envelope"}
        else:
            (result,) = results[name]
            verdict = "holds" if result.classification == "convergent" else "inconclusive"
            evidence = {"integral": result.to_dict(), **evidence}
        reports[name] = CriterionReport(
            name, verdict, evidence, config_echo, env.caveats, time.perf_counter() - start
        )
    heat_bounds = np.array([h.value for h in heat])
    return reports["transience"], reports["local_times"], heat_bounds, heat, occ_bounds, occ


def test_ultracontractivity(env: Envelope) -> CriterionReport:
    """Check the growth margin m(R) = min_{|xi| = R} q_inf(xi) / log(1 + R)
    at R = 10, 100, ..., 10^6.

    The semigroup bound requires the margin to diverge; numerically the
    verdict "holds" needs the margin to clear 10 at the largest radius and
    to increase across the last 3 radii.  Slow or ambiguous growth is
    inconclusive, never "fails".
    """
    start = time.perf_counter()
    radii, threshold, n_increasing = np.logspace(1, 6, 6), 10.0, 3
    q_min = on_spheres(env.q_inf, radii, env.dimension, env.radial).min(axis=1)
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
    unbounded real part, instead of all r > 0.  ``r`` must be finite and
    positive.
    """
    return frequency_criteria(
        env, r, False, [], rel_tol=rel_tol, radial_shortcut=radial_shortcut
    )[0]


def test_local_times(env: Envelope, *, rel_tol: float = 1e-6) -> CriterionReport:
    """Existence of local times via integrability of 1 / (1 + q_inf) on R^d."""
    return frequency_criteria(env, None, True, [], rel_tol=rel_tol)[1]


def occupation_bound(env: Envelope, r: float, *, rel_tol: float = 1e-6, full: bool = False):
    """Mean occupation bound for the cube of half-width pi / (3 r) around the
    start point:

        4^{d+2} / (pi r)^d * integral_{|xi| <= 2 r sqrt(d)} dxi / q_inf(2 xi)

    Returns math.inf when the integral diverges; ``full`` also returns its
    :class:`IntegralResult`.  It is walked in eta = 2 xi, as a row of
    :func:`frequency_criteria`.
    """
    (value,), (result,) = frequency_criteria(
        env, None, False, [], occupation_radii=[r], rel_tol=rel_tol
    )[4:]
    return (value, result) if full else value


# ---------------------------------------------------------------------------
# exit time bound and the bump constant


def _default_bump(r):
    r = np.asarray(r, dtype=float)
    inside = np.abs(r) < 1.0
    safe = np.where(inside, r, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - safe * safe)), 0.0)


# the default profile's c_u(1), c_u(2), c_u(3), with the bits that
# bump_constant's rule computes on every build: no process recomputes them
_BUMP_CACHE: dict = {
    1: float.fromhex("0x1.0363246ac5907p+5"),  # 32.4234093038122
    2: float.fromhex("0x1.4d8164e023e3bp+7"),  # 166.75272274435142
    3: float.fromhex("0x1.5c9af4014e235p+9"),  # 697.2105714446576
}
_BUMP_BLOCK = 64  # rho columns per transform block: 64 x 1024 doubles, 0.5 MB


def _gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], for even n.

    Newton's method on the three-term recurrence (Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013) A652), from Tricomi's initial guesses, run on the
    n / 2 positive nodes at once and mirrored.  Only elementwise arithmetic
    enters, so the rule takes O(n) memory and has the same bits on every
    BLAS and LAPACK build.  The weight is 2 / ((1 - x^2) P_n'(x)^2) with
    P_n' taken from the recurrence at the rounded node, which keeps it
    accurate to a few parts in 1e12 next to x = +-1.
    """

    def legendre_pair(x):
        """P_n(x) and P_(n-1)(x)."""
        prev, cur = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        return cur, prev

    k = np.arange(n // 2)
    x = np.cos(math.pi * (k + 0.75) / (n + 0.5)) * (1.0 - (n - 1.0) / (8.0 * n**3))
    while True:
        p, q = legendre_pair(x)
        step = p * (1.0 - x * x) / (n * (q - x * p))
        x = x - step
        # quadratic convergence: a step below 1e-12 leaves x at rounding level
        if np.max(np.abs(step)) < 1e-12:
            break
    p, q = legendre_pair(x)
    w = 2.0 * (1.0 - x * x) / (n * (q - x * p)) ** 2
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


def _radial_transform(d: int, r, wur, rho):
    """sum_j wur_j K(rho_i r_j) for each rho_i, with the radial kernel K of
    dimension d: cos, J0 or sin(s) / s.

    rho is taken in blocks of ``_BUMP_BLOCK``, each reduced over the nodes
    by an elementwise product and a sum, never a BLAS product, in two block
    buffers reused throughout.
    """
    if d == 2:
        from scipy.special import j0
    hat = np.empty_like(rho)
    s_buf = np.empty((_BUMP_BLOCK, r.size))
    k_buf = np.empty_like(s_buf)
    for i in range(0, rho.size, _BUMP_BLOCK):
        block = rho[i : i + _BUMP_BLOCK]
        s, k = s_buf[: block.size], k_buf[: block.size]
        np.multiply.outer(block, r, out=s)
        if d == 1:
            np.cos(s, out=k)
        elif d == 2:
            j0(s, out=k)
        else:  # sin(s) / s, which is 1 in the row rho = 0
            with np.errstate(invalid="ignore"):
                np.divide(np.sin(s, out=k), s, out=k)
            k[block == 0.0] = 1.0
        np.sum(np.multiply(k, wur, out=s), axis=1, out=hat[i : i + block.size])
    return hat


def _bump_dimension(d: int) -> int:
    """d, when :func:`bump_constant` has a kernel for it (ConfigError
    otherwise)."""
    if int(d) not in (1, 2, 3):
        raise ConfigError("bump constants are provided for dimensions 1 to 3")
    return int(d)


def bump_constant(d: int, profile=None) -> float:
    """c_u = integral (1 + |xi|^2) |u_hat(xi)| dxi for a radial bump u
    supported in the unit ball, with the transform normalized so that
    integral u_hat = u(0).

    It enters exit-time bounds multiplicatively.  The default profile's
    constants for d = 1, 2, 3 are stored in ``_BUMP_CACHE``; the rule below
    runs for a custom profile, and for the default one only once that
    cache has been emptied.
    """
    d = _bump_dimension(d)
    # only the default profile is cached: keying a temporary callable by id
    # would let a recycled id skip validation and return a stale constant
    if profile is None and d in _BUMP_CACHE:
        return _BUMP_CACHE[d]
    u = _default_bump if profile is None else profile
    # each check is negated so that a NaN fails it
    u0 = float(np.asarray(u(0.0)))
    if not abs(u0 - 1.0) <= 1e-8:
        raise ConfigError("bump profile must have u(0) = 1")
    if not float(np.asarray(u(0.9995))) <= 1e-3:
        raise ConfigError("bump profile must decay to 0 at the unit sphere")
    # the values are checked where the rule uses them, at its nodes
    nodes, weights = _gauss_legendre(1024)
    r = 0.5 * (nodes + 1.0)
    ur = np.asarray(u(r), dtype=float)
    if not (ur.min() >= -1e-12 and ur.max() <= 1.0 + 1e-9):
        raise ConfigError("bump profile must take values in [0, 1]")

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
    # The rule and the transform take elementwise arithmetic only, no LAPACK
    # or BLAS, so c_u has the same bits on every build; the transform works
    # in 1 MB of block buffers.
    rho_max = 600.0
    wur = 0.5 * weights * (ur * r ** (d - 1))
    surf = surface_area(d)
    rho = np.arange(0.0, rho_max, 0.02)
    hat = _radial_transform(d, r, wur, rho)
    hat *= surf / (2.0 * math.pi) ** d
    integrand = (1.0 + rho * rho) * np.abs(hat) * rho ** (d - 1)
    c_u = float(surf * np.trapezoid(integrand, rho))
    tail = float(surf * np.trapezoid(integrand[rho >= 0.9 * rho_max], rho[rho >= 0.9 * rho_max]))
    if not 0.0 < c_u < math.inf or tail > 1e-5 * c_u:
        raise NumericalError(
            "bump transform tail not resolved; increase the cutoff", error_estimate=tail
        )
    if profile is None:
        _BUMP_CACHE[d] = c_u
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


def exit_time_bound(model: SymbolModel, x, r: float, t: float, *, profile=None) -> ExitTimeBound:
    """Bound P^x(sup_{s <= t} |X_s - x| >= r) by
    c_u * t * sup_{|y - x| <= r} sup_{|xi| <= 1/r} |p(y, xi)|.

    The sups are taken over ball grids of 65 nodes per axis in d = 1 and 17
    in d = 2 and 3; the bound is one-sided in the same direction as the
    grid (a grid sup can only understate the true sup, so the reported
    bound is exact for the sampled sups and typically tight in practice for
    the smooth coefficient fields used here).
    """
    message = "need r > 0 and t >= 0, both finite"
    r = positive_radius(r, message)
    if not (math.isfinite(t) and t >= 0):
        raise ConfigError(message)
    d = _bump_dimension(model.dimension)  # before the ball grids, which grow as 17^d
    sup = ball_sup(model, x, r, 65 if d == 1 else 17)
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


def _line_fit(x, y, w):
    """Weighted least-squares line y = intercept + slope x: the intercept,
    the slope and the intercept's standard error when the weights are
    1 / se^2 of the y values.  The normal equations are solved in closed
    form about the weighted mean of x, with no BLAS or LAPACK call, so the
    fit has the same bits on every OpenBLAS kernel.
    """
    w_sum = np.sum(w)
    x_mean, y_mean = np.sum(w * x) / w_sum, np.sum(w * y) / w_sum
    dx = x - x_mean
    sxx = np.sum(w * dx * dx)
    slope = float(np.sum(w * dx * (y - y_mean)) / sxx)
    intercept = float(y_mean - slope * x_mean)
    return intercept, slope, math.sqrt(1.0 / w_sum + x_mean * x_mean / sxx)


def heat_exponent_fit(env: Envelope, t_grid=None, *, rel_tol: float = 1e-6) -> HeatExponentFit:
    """Log-log slopes of the density bound for t -> 0 and t -> infinity.

    The fit windows are t <= 0.01 and t >= 100; the supplied grid must put
    at least three points in each.  For a stable-like envelope the slopes
    approach -d / amin and -d / amax.
    """
    if t_grid is None:
        t_grid = np.concatenate([np.logspace(-4, -2, 9), np.logspace(2, 4, 9)])
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    bounds = heat_kernel_sup_bound(env, t_grid, rel_tol=rel_tol)
    if not np.all(np.isfinite(bounds)):
        raise NumericalError("density bound diverges on the fit grid")
    small = t_grid <= 0.01
    large = t_grid >= 100.0
    if small.sum() < 3 or large.sum() < 3:
        raise ConfigError("fit grid needs at least three points in each decade window")
    slopes = [
        _line_fit(np.log(t_grid[window]), np.log(bounds[window]), np.ones(window.sum()))[1]
        for window in (small, large)
    ]
    return HeatExponentFit(
        small_t_slope=slopes[0],
        large_t_slope=slopes[1],
        t_values=t_grid,
        bounds=bounds,
    )


def stable_like_tail_transience(model: SymbolModel, K: float) -> CriterionReport:
    """Diagnostic for one-dimensional variable-order transience.

    Samples the order alpha(x) on K <= |x| <= 8 K; when the sampled sup
    stays below 1 the report holds as a diagnostic.  The conclusion rests on
    modifying the order inside the compact set, so it is advisory and never
    enters the rigorous criteria.
    """
    start = time.perf_counter()
    if model.kind != "stable_like" or model.dimension != 1:
        raise ConfigError("this diagnostic applies to one-dimensional stable-like models")
    K = positive_radius(K, "K must be finite and positive")
    r = np.linspace(K, 8.0 * K, 2001)
    pts = np.concatenate([r, -r])[:, None]
    tail_sup = float(np.max(np.asarray(model.eval_data.alpha(pts), dtype=float)))
    verdict = "holds" if tail_sup < 1.0 else "inconclusive"
    return CriterionReport(
        criterion="stable_like_tail_transience",
        verdict=verdict,
        evidence={"K": K, "tail_sup_alpha": tail_sup, "window": [K, 8.0 * K]},
        caveats=(
            "diagnostic only: relies on modifying the order inside a compact set;"
            " sampled sup over a finite window",
        ),
        wall_time=time.perf_counter() - start,
    )
