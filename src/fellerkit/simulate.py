"""Path simulation for the built-in Levy families and stable-like models.

Sampling is exact in law for the Levy families (the marginal increments are
drawn from their true distributions) and uses a frozen-coefficient Euler
scheme for state-dependent orders: over one step of length h the order is
held at its value at the current position, so the step increment is
h**(1/alpha(X_k)) times a standard symmetric stable variate.

Randomness is organized as one counter-based stream per (purpose, step)
pair, derived from the root seed via SeedSequence spawn keys.  Draws are
vectorized across paths inside a step, which makes ensembles reproducible
from (seed, n_paths, grid) alone and independent of chunking.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # loaded with the package, not on the first draw

from .errors import ConfigError
from .symbols import SymbolModel

__all__ = [
    "PathEnsemble",
    "PathSteps",
    "grid_index",
    "levy_steps",
    "sample_stable",
    "sample_positive_stable",
    "simulate_levy",
    "simulate_stable_like",
    "stable_like_steps",
    "symmetrize_paths",
]

# purpose tags for the per-step substreams
_STREAM_MAIN = 1
_STREAM_COUNTS = 2
_STREAM_AUX = 3


def _step_rng(root_seed: int, purpose: int, step: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(purpose, step))
    return np.random.Generator(np.random.Philox(ss))


def grid_index(grid: np.ndarray, t: float) -> int:
    """Index of t on the grid; exact match required, no interpolation."""
    idx = int(np.argmin(np.abs(grid - t)))
    if abs(grid[idx] - t) > 1e-12 * max(1.0, abs(t)):
        raise ConfigError(
            f"t = {t} is not a grid time; nearest grid times are"
            f" {grid[max(0, idx - 1): idx + 2].tolist()}"
        )
    return idx


@dataclass
class PathEnsemble:
    """Simulated paths on a shared uniform time grid.

    positions has shape (n_paths, n_times, dimension) and includes the
    start point at index 0.
    """

    positions: np.ndarray
    time_grid: np.ndarray
    start: np.ndarray
    scheme: str
    seed_lineage: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[2]

    def time_index(self, t: float) -> int:
        return grid_index(self.time_grid, t)

    def at(self, t: float) -> np.ndarray:
        return self.positions[:, self.time_index(t), :]


def sample_stable(alpha, size, rng: np.random.Generator) -> np.ndarray:
    """Symmetric stable variates with characteristic function
    exp(-|xi| ** alpha).

    alpha may be a scalar or an array broadcastable to ``size``; the
    construction is the polar one: with phi uniform on (-pi/2, pi/2) and W
    unit exponential,

        sin(alpha phi) / cos(phi) ** (1/alpha)
            * (cos((1 - alpha) phi) / W) ** ((1 - alpha) / alpha).

    The formula is continuous in alpha; at alpha = 2 it reduces to
    2 sin(phi) sqrt(W), a normal with variance 2, and at alpha = 1 to
    tan(phi), a standard Cauchy.
    """
    a = np.broadcast_to(np.asarray(alpha, dtype=float), size)
    if np.any(a <= 0.0) or np.any(a > 2.0):
        raise ConfigError("stable index must lie in (0, 2]")
    phi = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = rng.exponential(1.0, size)
    cos_phi = np.cos(phi)
    s = np.sin(a * phi) / cos_phi ** (1.0 / a)
    exponent = (1.0 - a) / a
    # cos((1-a) phi) > 0 on the open interval, so the power is safe
    tail = (np.cos((1.0 - a) * phi) / w) ** exponent
    return s * tail


def sample_positive_stable(gamma, size, rng: np.random.Generator) -> np.ndarray:
    """Positive stable variates with Laplace transform exp(-lambda ** gamma),
    gamma in (0, 1), via the Kanter representation: with theta uniform on
    (0, pi) and W unit exponential,

        A = (a(theta) / W) ** ((1 - gamma) / gamma),
        a(theta) = sin(gamma theta) ** (gamma / (1 - gamma))
                   * sin((1 - gamma) theta) / sin(theta) ** (1 / (1 - gamma)).
    """
    g = np.broadcast_to(np.asarray(gamma, dtype=float), size)
    if np.any(g <= 0.0) or np.any(g >= 1.0):
        raise ConfigError("positive stable index must lie in (0, 1)")
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
    sin_t = np.sin(theta)
    a = (
        np.sin(g * theta) ** (g / (1.0 - g))
        * np.sin((1.0 - g) * theta)
        / sin_t ** (1.0 / (1.0 - g))
    )
    return (a / w) ** ((1.0 - g) / g)


def _isotropic_stable_increment(alpha, h, n, d, rng) -> np.ndarray:
    """One time step of the isotropic stable process, char fn
    exp(-h |xi| ** alpha), for scalar or per-path alpha."""
    a = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
    scale = h ** (1.0 / a)
    if d == 1:
        return (scale * sample_stable(a, (n,), rng))[:, None]
    out = np.empty((n, d))
    is_normal = a >= 2.0 - 1e-12
    z = rng.standard_normal((n, d))
    if np.any(~is_normal):
        # subordinated normal: sqrt(2 A) Z has char fn exp(-|xi| ** alpha)
        # when A is positive stable of index alpha / 2
        theta_w_rng = rng  # same stream, sequential draws stay deterministic
        amp = np.empty(n)
        sub = ~is_normal
        amp[sub] = np.sqrt(
            2.0 * sample_positive_stable(a[sub] / 2.0, (int(sub.sum()),), theta_w_rng)
        )
        amp[is_normal] = np.sqrt(2.0)
    else:
        amp = np.full(n, np.sqrt(2.0))
    out[:] = (scale * amp)[:, None] * z
    return out


def _resolve_grid(t_max: float, n_steps: int | None, h_max: float | None):
    if t_max <= 0:
        raise ConfigError("t_max must be positive")
    if n_steps is None:
        if h_max is None or h_max <= 0:
            raise ConfigError("give n_steps or a positive h_max")
        n_steps = np.ceil(t_max / h_max)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ConfigError("need at least one step")
    grid = np.linspace(0.0, t_max, n_steps + 1)
    return grid, t_max / n_steps, n_steps


def _check_n_paths(n_paths) -> int:
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise ConfigError(f"n_paths must be a positive integer, got {n_paths!r}")
    return int(n_paths)


def _start_point(start, d: int) -> np.ndarray:
    if start is None:
        return np.zeros(d)
    return np.broadcast_to(np.asarray(start, dtype=float), (d,)).copy()


@dataclass
class PathSteps:
    """A simulation delivered one grid step at a time.

    Iterating yields ``(k, X_k)`` for k = 0, ..., n_steps, where X_k has
    shape (n_paths, dimension) and X_0 is the start point on every path.
    Each X_k is a fresh array.  Nothing is drawn until iteration starts,
    and every pass re-runs the simulation from the seed, so two passes
    yield the same positions.
    """

    time_grid: np.ndarray
    start: np.ndarray
    scheme: str
    seed_lineage: dict
    n_paths: int
    advance: Callable[[int, np.ndarray], np.ndarray]  # (k, X_k) -> X_{k+1}

    @property
    def dimension(self) -> int:
        return self.start.shape[0]

    def time_index(self, t: float) -> int:
        return grid_index(self.time_grid, t)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        current = np.broadcast_to(self.start, (self.n_paths, self.dimension)).copy()
        yield 0, current
        for k in range(len(self.time_grid) - 1):
            current = self.advance(k, current)
            yield k + 1, current

    def collect(self) -> PathEnsemble:
        """Run the simulation and keep every step."""
        positions = np.empty((self.n_paths, len(self.time_grid), self.dimension))
        for k, x in self:
            positions[:, k, :] = x
        return PathEnsemble(
            positions=positions,
            time_grid=self.time_grid,
            start=self.start,
            scheme=self.scheme,
            seed_lineage=self.seed_lineage,
        )


_EXACT_FAMILIES = ("brownian", "alpha_stable", "compound_poisson", "zero")


def levy_steps(
    model: SymbolModel,
    n_paths: int,
    t_max: float,
    n_steps: int | None = None,
    *,
    h_max: float | None = None,
    seed: int = 0,
    start=None,
) -> PathSteps:
    """Step source of :func:`simulate_levy`; the arguments are the same."""
    data = model.eval_data
    if model.kind != "closed_form" or not isinstance(data, dict) or "family" not in data:
        raise ConfigError("exact simulation needs one of the built-in Levy families")
    family = data["family"]
    d = model.dimension
    n_paths = _check_n_paths(n_paths)
    grid, h, n_steps = _resolve_grid(t_max, n_steps, h_max)
    x0 = _start_point(start, d)
    if family not in _EXACT_FAMILIES:
        raise ConfigError(f"no exact sampler for family '{family}'")
    drift = data.get("drift")

    def advance(k: int, current: np.ndarray) -> np.ndarray:
        rng = _step_rng(seed, _STREAM_MAIN, k)
        if family == "brownian":
            inc = np.sqrt(2.0 * h) * rng.standard_normal((n_paths, d))
        elif family == "alpha_stable":
            alpha = data["alpha"]
            if alpha >= 2.0 - 1e-12:
                inc = np.sqrt(2.0 * h) * rng.standard_normal((n_paths, d))
            else:
                inc = _isotropic_stable_increment(alpha, h, n_paths, d, rng)
        elif family == "compound_poisson":
            counts = _step_rng(seed, _STREAM_COUNTS, k).poisson(
                data["rate"] * h, n_paths
            )
            z = _step_rng(seed, _STREAM_AUX, k).standard_normal(n_paths)
            inc = (data["jump_mean"] * counts + data["jump_std"] * np.sqrt(counts) * z)[
                :, None
            ]
        else:  # zero
            inc = np.zeros((n_paths, d))
        if drift is not None:
            inc = inc + h * np.asarray(drift)
        return current + inc

    return PathSteps(
        time_grid=grid,
        start=x0,
        scheme="exact_increments",
        seed_lineage={"root_seed": int(seed), "streams": "per-step philox"},
        n_paths=n_paths,
        advance=advance,
    )


def simulate_levy(
    model: SymbolModel,
    n_paths: int,
    t_max: float,
    n_steps: int | None = None,
    *,
    h_max: float | None = None,
    seed: int = 0,
    start=None,
) -> PathEnsemble:
    """Exact-in-law sampling for the built-in state-free families.

    Supported families: brownian, alpha_stable (cauchy is alpha = 1),
    compound_poisson, zero.  Each step draws increments from the true
    marginal law, so the scheme introduces no time-discretization bias.
    Give ``n_steps``, or ``h_max`` for the fewest equal steps no longer
    than it.
    """
    return levy_steps(
        model, n_paths, t_max, n_steps, h_max=h_max, seed=seed, start=start
    ).collect()


def stable_like_steps(
    model: SymbolModel,
    n_paths: int,
    t_max: float,
    *,
    n_steps: int | None = None,
    h_max: float = 1e-3,
    seed: int = 0,
    start=None,
) -> PathSteps:
    """Step source of :func:`simulate_stable_like`; the arguments are the
    same."""
    if model.kind != "stable_like":
        raise ConfigError("this scheme is for stable-like models")
    spec = model.eval_data
    d = model.dimension
    n_paths = _check_n_paths(n_paths)
    grid, h, n_steps = _resolve_grid(t_max, n_steps, h_max)

    def advance(k: int, current: np.ndarray) -> np.ndarray:
        rng = _step_rng(seed, _STREAM_MAIN, k)
        a = np.asarray(spec.alpha(current), dtype=float)
        return current + _isotropic_stable_increment(a, h, n_paths, d, rng)

    return PathSteps(
        time_grid=grid,
        start=_start_point(start, d),
        scheme="euler_frozen",
        seed_lineage={"root_seed": int(seed), "streams": "per-step philox"},
        n_paths=n_paths,
        advance=advance,
    )


def simulate_stable_like(
    model: SymbolModel,
    n_paths: int,
    t_max: float,
    *,
    n_steps: int | None = None,
    h_max: float = 1e-3,
    seed: int = 0,
    start=None,
) -> PathEnsemble:
    """Frozen-coefficient Euler scheme for variable-order models.

    Over each step the order is frozen at alpha(X_k), so conditionally on
    X_k the step increment has characteristic function
    exp(-h |xi| ** alpha(X_k)).  The default step bound h_max = 1e-3 keeps
    the freezing bias small relative to Monte Carlo noise at the ensemble
    sizes used for validation.
    """
    return stable_like_steps(
        model, n_paths, t_max, n_steps=n_steps, h_max=h_max, seed=seed, start=start
    ).collect()


def symmetrize_paths(ens: PathEnsemble, mirror: PathEnsemble) -> PathEnsemble:
    """Combine two ensembles into paths of the symmetrized process.

    The two inputs must share the time grid and start point and should be
    independent (different seeds); a shared seed lineage produces a
    degenerate constant process and triggers a warning.
    """
    if ens.positions.shape != mirror.positions.shape:
        raise ConfigError("ensembles must have identical shapes")
    if not np.array_equal(ens.time_grid, mirror.time_grid):
        raise ConfigError("ensembles must share the time grid")
    if not np.array_equal(ens.start, mirror.start):
        raise ConfigError("ensembles must share the start point")
    if ens.seed_lineage == mirror.seed_lineage:
        warnings.warn(
            "symmetrizing an ensemble with itself: the difference collapses"
            " to the start point",
            stacklevel=2,
        )
    positions = 0.5 * (ens.positions + 2.0 * ens.start - mirror.positions)
    return PathEnsemble(
        positions=positions,
        time_grid=ens.time_grid,
        start=ens.start.copy(),
        scheme=f"symmetrized({ens.scheme})",
        seed_lineage={"base": ens.seed_lineage, "mirror": mirror.seed_lineage},
    )
