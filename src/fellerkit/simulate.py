"""Path simulation for the built-in Levy families and stable-like models.

Sampling is exact in law for the Levy families (the marginal increments are
drawn from their true distributions) and uses a frozen-coefficient Euler
scheme for state-dependent orders: over one step of length h the order is
held at its value at the current position, so the step increment is
h**(1/alpha(X_k)) times a standard symmetric stable variate.

Randomness is organized as one counter-based stream per (purpose, step)
pair, derived from the root seed via SeedSequence spawn keys.  Each step
draws from its own streams, vectorized across paths, which makes ensembles
reproducible from (seed, n_paths, grid) alone and independent of chunking.
A state-free step source therefore computes its increments in blocks of
steps, on one worker thread per allowed CPU, and the ensembles are
bit-identical to a serial run.  That pool is :func:`_in_order`, the one
thread pipeline (``empirics.feed`` too): once a job raises or the caller
stops, no later job starts, the source is closed and the threads join.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import queue
import threading
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

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

# increment elements (steps x paths x dimension) in one block of a
# state-free step source
BLOCK_ELEMENTS = 1 << 15

# purpose tags for the per-step substreams
_STREAM_MAIN = 1
_STREAM_COUNTS = 2
_STREAM_AUX = 3


def _step_rng(root_seed: int, purpose: int, step: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(purpose, step))
    return np.random.Generator(np.random.Philox(ss))


def grid_index(grid: np.ndarray, t: float) -> int:
    """Index of t on the grid; exact match required, no interpolation.

    A nan or infinite t is rejected too: the comparison is negated so that
    nan fails it, and inf is checked apart, since it lies within its own
    infinite tolerance.
    """
    idx = int(np.argmin(np.abs(grid - t)))
    if not (math.isfinite(t) and abs(grid[idx] - t) <= 1e-12 * max(1.0, abs(t))):
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


def _per_step(rngs, draw) -> np.ndarray:
    """draw(rng) for each step's stream, stacked along a new first axis."""
    return np.array([draw(rng) for rng in rngs])


def sample_stable(alpha, size, rng: np.random.Generator) -> np.ndarray | float:
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

    ``size=None`` gives one draw as a float, as numpy's samplers do.
    """
    if size is None:
        return float(sample_stable(alpha, 1, rng)[0])
    _check_stable_index(np.asarray(alpha, dtype=float))
    phi = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    return _stable(alpha, phi, rng.exponential(1.0, size))


def _check_stable_index(a: np.ndarray) -> None:
    # negated so that a NaN fails it
    if not np.all((a > 0.0) & (a <= 2.0)):
        raise ConfigError("stable index must lie in (0, 2]")


def _stable(alpha, phi, w) -> np.ndarray:
    """The polar formula of :func:`sample_stable` on drawn phi and W, for
    orders already checked."""
    a = np.broadcast_to(np.asarray(alpha, dtype=float), phi.shape)
    cos_phi = np.cos(phi)
    s = np.sin(a * phi) / cos_phi ** (1.0 / a)
    exponent = (1.0 - a) / a
    # cos((1-a) phi) > 0 on the open interval, so the power is safe
    tail = (np.cos((1.0 - a) * phi) / w) ** exponent
    return s * tail


def sample_positive_stable(gamma, size, rng: np.random.Generator) -> np.ndarray | float:
    """Positive stable variates with Laplace transform exp(-lambda ** gamma),
    gamma in (0, 1), via the Kanter representation: with theta uniform on
    (0, pi) and W unit exponential,

        A = (a(theta) / W) ** ((1 - gamma) / gamma),
        a(theta) = sin(gamma theta) ** (gamma / (1 - gamma))
                   * sin((1 - gamma) theta) / sin(theta) ** (1 / (1 - gamma)).

    ``size=None`` gives one draw as a float, as numpy's samplers do.
    """
    if size is None:
        return float(sample_positive_stable(gamma, 1, rng)[0])
    theta = rng.uniform(0.0, np.pi, size)
    return _positive_stable(gamma, theta, rng.exponential(1.0, size), _Scratch())


class _Scratch(threading.local):
    """Arrays that each thread reuses from one block of steps to the next:
    a step source keeps one, a one-off draw takes a new one.

    ``scratch(name, shape)`` is a C-ordered array of ``shape``, a view of
    the calling thread's array ``name``, which is reallocated only to
    grow.  Allocating the transforms' temporaries afresh for every
    block makes glibc trim and regrow the heap, a page fault per page.
    """

    def __init__(self):
        self.arrays = {}

    def __call__(self, name, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self.arrays.get(name)
        if buf is None or buf.size < size:
            buf = self.arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _positive_stable(gamma, theta, w, scratch: _Scratch) -> np.ndarray:
    """The Kanter formula of :func:`sample_positive_stable` on drawn theta
    and W.  The result is one of ``scratch``'s arrays.

    Every ufunc writes an array that none of its operands shares: numpy may
    take another loop, with other bits, for a call that works in place.
    """
    g = np.broadcast_to(np.asarray(gamma, dtype=float), theta.shape)
    if not np.all((g > 0.0) & (g < 1.0)):  # negated so that a NaN fails it
        raise ConfigError("positive stable index must lie in (0, 1)")
    x, y, u, v = (scratch(f"kanter{i}", theta.shape) for i in range(4))
    # sin(g theta) ** (g / (1 - g)) * sin((1 - g) theta) into x
    np.sin(np.multiply(g, theta, out=x), out=y)
    np.power(y, np.divide(g, np.subtract(1.0, g, out=x), out=u), out=v)
    np.sin(np.multiply(np.subtract(1.0, g, out=x), theta, out=y), out=u)
    np.multiply(v, u, out=x)
    # / sin(theta) ** (1 / (1 - g)), then / W, into x
    np.divide(1.0, np.subtract(1.0, g, out=u), out=v)
    np.divide(x, np.power(np.sin(theta, out=y), v, out=u), out=y)
    np.divide(y, w, out=x)
    # ** ((1 - g) / g)
    np.divide(np.subtract(1.0, g, out=y), g, out=u)
    return np.power(x, u, out=v)


def _isotropic_stable_increments(alpha, h, n, d, rngs, scratch: _Scratch) -> np.ndarray:
    """Increments of the isotropic stable process, char fn
    exp(-h |xi| ** alpha), over the steps whose streams are ``rngs``:
    shape (len(rngs), n, d), a new array.  alpha is a scalar or one order
    per path.

    Each step draws from its own stream, in the order a single step
    draws (z, then theta and W); the formulas then run once on the block.
    In d >= 2 the draws and temporaries are ``scratch``'s arrays.
    """
    a = np.asarray(alpha, dtype=float)
    _check_stable_index(a)
    # a constant order's scale is computed once, on a length-1 array: numpy's
    # array power, unlike Python's scalar **, gives the per-path bits
    scale = h ** (1.0 / (a.reshape(1) if a.ndim == 0 else a))
    a = np.broadcast_to(a, (len(rngs), n))
    if d == 1:
        phi = _per_step(rngs, lambda rng: rng.uniform(-np.pi / 2.0, np.pi / 2.0, n))
        w = _per_step(rngs, lambda rng: rng.exponential(1.0, n))
        return (scale * _stable(a, phi, w))[..., None]
    # subordinated normal: sqrt(2 A) Z has char fn exp(-|xi| ** alpha) when A
    # is positive stable of index alpha / 2; a step with no such path draws
    # only Z
    sub = np.less(a, 2.0 - 1e-12, out=scratch("sub", a.shape, bool))
    z = scratch("z", (len(rngs), n, d))
    theta, w = scratch("theta", (a.size,)), scratch("w", (a.size,))
    j = 0  # theta and W of the sub paths, packed in step order
    for rng, z_k, m in zip(rngs, z, sub.sum(axis=1).tolist()):
        rng.standard_normal(out=z_k)
        if m:
            # uniform(0, pi) and exponential(1) draw these bits
            rng.random(out=theta[j : j + m])
            rng.standard_exponential(out=w[j : j + m])
            j += m
    amp = scratch("amp", a.shape)
    amp.fill(np.sqrt(2.0))
    if j:
        theta = np.multiply(theta[:j], np.pi, out=theta[:j])
        stable = _positive_stable(a[sub] / 2.0, theta, w[:j], scratch)
        amp[sub] = np.sqrt(np.multiply(2.0, stable, out=theta), out=w[:j])
    return np.multiply(np.multiply(scale, amp, out=amp)[..., None], z)


# the most steps whose float64 grid numpy can allocate
MAX_STEPS = np.iinfo(np.intp).max // 8 - 1


def _resolve_grid(t_max: float, n_steps: int | None, h_max: float | None):
    # the comparisons are negated so that nan fails them
    if not 0 < t_max < math.inf:
        raise ConfigError("t_max must be positive and finite")
    if n_steps is None:
        if h_max is None or not h_max > 0:
            raise ConfigError("give n_steps or a positive h_max")
        if h_max == math.inf:
            raise ConfigError("give n_steps or a positive h_max that is finite")
        n_steps = np.ceil(t_max / h_max)  # inf when the ratio overflows
    elif isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)):
        raise ConfigError(f"n_steps must be an integer, got {n_steps!r}")
    if not 1 <= n_steps <= MAX_STEPS:
        raise ConfigError(f"need at least one step and at most {MAX_STEPS}, got {n_steps}")
    n_steps = int(n_steps)
    grid = np.linspace(0.0, t_max, n_steps + 1)
    return grid, t_max / n_steps, n_steps


def _check_n_paths(n_paths) -> int:
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise ConfigError(f"n_paths must be a positive integer, got {n_paths!r}")
    return int(n_paths)


def _start_point(start, d: int) -> np.ndarray:
    x0 = np.zeros(d) if start is None else np.asarray(start, dtype=float)
    if x0.ndim > 1 or x0.size not in (1, d) or not np.isfinite(x0).all():
        raise ConfigError(f"start must be finite: a number or a point of dimension {d}")
    return np.broadcast_to(x0, (d,)).copy()


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(fn, items, workers: int, ahead: int, name: str) -> Iterator:
    """Yield ``fn(item)`` for each item of ``items``, in order.

    ``items`` is iterated on the calling thread and the calls run on
    ``workers`` threads named ``name``, at most ``ahead`` items past the
    one the caller waits for.  The threads start and the first ``ahead +
    1`` items are queued by this call, so they run while the caller does
    other work before it asks for a result.  An exception in a call is
    re-raised here, after every earlier item has run.  Once a call raises
    or the caller stops (``close()``), no later queued item starts, the
    item iterator is closed (a generator source ends its own threads at
    once) and the threads join.
    """
    pipeline = _pipeline(fn, items, workers, ahead, name)
    next(pipeline)
    return pipeline


def _pipeline(fn, items, workers, ahead, name):
    """The generator behind :func:`_in_order`; its first ``next`` starts
    the threads, queues the first items and yields None."""
    jobs = queue.SimpleQueue()
    last = [math.inf]  # no queued job past this index starts: nobody waits for it

    def work():
        while (job := jobs.get()) is not None:
            k, item, done = job
            if k > last[0]:
                continue
            try:
                done.put((fn(item), None))
            except BaseException as exc:
                last[0] = min(last[0], k)
                done.put((None, exc))

    def submit(k, item):
        done = queue.SimpleQueue()
        jobs.put((k, item, done))
        pending.append(done)

    pending = collections.deque()
    source = iter(items)
    todo = enumerate(source)
    threads = [threading.Thread(target=work, name=name, daemon=True) for _ in range(workers)]
    for thread in threads:
        thread.start()
    try:
        for job in itertools.islice(todo, ahead + 1):
            submit(*job)
        yield None
        while pending:
            result, exc = pending.popleft().get()
            if exc is not None:
                raise exc
            for job in itertools.islice(todo, 1):
                submit(*job)
            yield result
    finally:
        last[0] = -1
        for _ in threads:
            jobs.put(None)
        if hasattr(source, "close"):
            source.close()
        for thread in threads:
            thread.join()


@dataclass
class PathSteps:
    """A simulation delivered one grid step at a time.

    Iterating yields ``(k, X_k)`` for k = 0, ..., n_steps, where X_k has
    shape (n_paths, dimension) and X_0 is the start point on every path.
    No X_k is written again once it is yielded.  Nothing is drawn until
    iteration starts, and every pass re-runs the simulation from the seed,
    so two passes yield the same positions.

    ``increments(k0, k1, x)`` returns the increments of steps k0, ...,
    k1 - 1, shaped (k1 - k0, n_paths, dimension), where x is X_{k0}.  A
    state-free source ignores x; its blocks of ``BLOCK_ELEMENTS`` are
    computed on one worker thread per allowed CPU.  A state-dependent one
    is asked for one step at a time, in step order.  Either way the
    positions are the increments summed in step order, so they do not
    depend on the block size or the number of workers.
    """

    time_grid: np.ndarray
    start: np.ndarray
    scheme: str
    seed_lineage: dict
    n_paths: int
    increments: Callable[[int, int, np.ndarray | None], np.ndarray]
    state_free: bool

    @property
    def dimension(self) -> int:
        return self.start.shape[0]

    def time_index(self, t: float) -> int:
        return grid_index(self.time_grid, t)

    def _blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(k0, X)`` for consecutive blocks of steps, where
        ``X[i]`` is X_{k0 + 1 + i}."""
        n_steps = len(self.time_grid) - 1
        current = np.broadcast_to(self.start, (self.n_paths, self.dimension)).copy()
        size = max(1, BLOCK_ELEMENTS // current.size) if self.state_free else 1
        bounds = [(k0, min(k0 + size, n_steps)) for k0 in range(0, n_steps, size)]
        workers = min(_worker_count(), len(bounds)) if self.state_free else 1
        pool = None
        if workers > 1:
            pool = _in_order(lambda b: self.increments(*b, None), bounds, workers, workers, "fellerkit-steps")
        try:
            for k0, k1 in bounds:
                block = self.increments(k0, k1, current) if pool is None else next(pool)
                for row in block:  # X_{k+1} = X_k + increment k, step by step
                    current = np.add(current, row, out=row)
                yield k0, block
        finally:
            if pool is not None:
                pool.close()

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        yield 0, np.broadcast_to(self.start, (self.n_paths, self.dimension)).copy()
        for k0, block in self._blocks():
            yield from enumerate(block, k0 + 1)

    def chunks(self, span: int) -> Iterator[tuple[int, np.ndarray]]:
        """Run the simulation and yield it path-major, ``span`` grid times
        at a time: ``(j, P)`` where ``P[i, s]`` is X_{j + s} on path i.

        P has shape (n_paths, span, dimension); the last chunk is shorter
        when span does not divide the grid.  Every chunk is one reused
        array, which the next chunk overwrites.  Whole step blocks are
        copied into it, transposed, and a block that reaches past its end
        goes on in the next chunk.
        """
        width = min(span, len(self.time_grid))
        buf = np.empty((self.n_paths, width, self.dimension))
        buf[:, 0, :] = self.start
        # the copies move whole points, one item of 8 * dimension bytes
        # each, several times faster than coordinate by coordinate
        point = np.dtype((np.void, buf.itemsize * self.dimension))
        points = buf.view(point)[..., 0]
        j, fill = 0, 1  # buf holds X_j, ..., X_{j + fill - 1}
        for _, block in self._blocks():
            block = np.ascontiguousarray(block).view(point)[..., 0]
            while len(block):
                if fill == width:
                    yield j, buf
                    j, fill = j + width, 0
                take = min(len(block), width - fill)
                np.copyto(points[:, fill : fill + take], block[:take].T)
                block, fill = block[take:], fill + take
        yield j, buf[:, :fill]

    def collect(self) -> PathEnsemble:
        """Run the simulation and keep every step: :meth:`chunks` with one
        chunk."""
        ((_, positions),) = self.chunks(len(self.time_grid))
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
    import numpy.random  # noqa: F401  (here, so that no worker thread's first draw imports it)

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
    scratch = _Scratch()

    def increments(k0: int, k1: int, _x) -> np.ndarray:
        def streams(purpose):
            return [_step_rng(seed, purpose, k) for k in range(k0, k1)]

        if family == "brownian" or (family == "alpha_stable" and data["alpha"] >= 2.0 - 1e-12):
            inc = np.sqrt(2.0 * h) * _per_step(
                streams(_STREAM_MAIN), lambda rng: rng.standard_normal((n_paths, d))
            )
        elif family == "alpha_stable":
            inc = _isotropic_stable_increments(
                data["alpha"], h, n_paths, d, streams(_STREAM_MAIN), scratch
            )
        elif family == "compound_poisson":
            rate_h = data["rate"] * h
            counts = _per_step(streams(_STREAM_COUNTS), lambda rng: rng.poisson(rate_h, n_paths))
            z = _per_step(streams(_STREAM_AUX), lambda rng: rng.standard_normal(n_paths))
            inc = (data["jump_mean"] * counts + data["jump_std"] * np.sqrt(counts) * z)[..., None]
        else:  # zero
            inc = np.zeros((k1 - k0, n_paths, d))
        if drift is not None:
            inc = inc + h * np.asarray(drift)
        return inc

    return PathSteps(
        time_grid=grid,
        start=x0,
        scheme="exact_increments",
        seed_lineage={"root_seed": int(seed), "streams": "per-step philox"},
        n_paths=n_paths,
        increments=increments,
        state_free=True,
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
    import numpy.random  # noqa: F401  (here, so that no worker thread's first draw imports it)

    if model.kind != "stable_like":
        raise ConfigError("this scheme is for stable-like models")
    spec = model.eval_data
    d = model.dimension
    n_paths = _check_n_paths(n_paths)
    grid, h, n_steps = _resolve_grid(t_max, n_steps, h_max)
    scratch = _Scratch()

    def increments(k: int, _k1: int, current: np.ndarray) -> np.ndarray:
        a = np.asarray(spec.alpha(current), dtype=float)
        rngs = [_step_rng(seed, _STREAM_MAIN, k)]
        return _isotropic_stable_increments(a, h, n_paths, d, rngs, scratch)

    return PathSteps(
        time_grid=grid,
        start=_start_point(start, d),
        scheme="euler_frozen",
        seed_lineage={"root_seed": int(seed), "streams": "per-step philox"},
        n_paths=n_paths,
        increments=increments,
        state_free=False,
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
