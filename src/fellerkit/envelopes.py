"""State-uniform envelopes of a symbol.

For a symbol p(x, xi) the four envelope functions are

    q_inf(xi)  = inf_x Re p(x, xi)
    q_sup(xi)  = sup_x |p(x, xi)|
    re_sup(xi) = sup_x Re p(x, xi)
    im_sup(xi) = sup_x |Im p(x, xi)|

All uniform bounds in :mod:`fellerkit.criteria` are driven by these.  Three
construction paths exist: state-free models read the envelope off directly;
stable-like models have the closed form q_inf(xi) = |xi|^amax for |xi| <= 1
and |xi|^amin outside (roles swapped for q_sup); everything else is
minimized over an x grid with coordinate bracket searches around the grid
optimum.  Grid envelopes can overstate q_inf when the optimizing x falls
between grid nodes, so reports built from them carry a caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .symbols import StableLikeSpec, SymbolModel, as_points

__all__ = ["Envelope", "build_envelope"]

GRID_CAVEAT = (
    "grid envelope: extrema searched on a finite x grid with local refinement;"
    " q_inf may be overstated between nodes"
)

#: most symbol points one evaluator call of a grid envelope may see; larger
#: chunks run no faster and raise the peak memory
MAX_EVAL_POINTS = 1 << 13
#: nodes per bracket-search step along one coordinate
BRACKET_NODES = 65

# libm's pow, elementwise: numpy's vectorized power differs from it in the
# last bit for a few percent of arguments, which would move the closed-form
# envelope values that reports print
_libm_pow = np.frompyfunc(math.pow, 2, 1)


@dataclass(eq=False)
class Envelope:
    """Callable bundle of the four state-uniform envelope functions.

    Each query reads its argument as points by
    :func:`~fellerkit.symbols.as_points` and returns a Python float for a
    single point, else an array of floats.  The functions it wraps
    (``q_inf_fn`` and so on) take an ``(n, d)`` array of frequencies and
    return an ``(n,)`` array.  Instances are immutable by convention; the
    internal cache only memoizes pure queries, and each query computes all
    of its cache misses in one call.
    """

    dimension: int
    q_inf_fn: Callable
    q_sup_fn: Callable
    re_sup_fn: Callable
    im_sup_fn: Callable
    provenance: str
    radial: bool = False
    caveats: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False)

    def _eval(self, tag: str, fn, xi) -> float | np.ndarray:
        arr, lead = as_points(xi, self.dimension)
        rows = arr.reshape(-1, self.dimension)
        keys = [(tag, row.tobytes()) for row in rows]
        cache = self._cache
        # nan marks a miss; a nan value is recomputed, never wrong
        out = np.array([cache.get(key, math.nan) for key in keys], dtype=float)
        miss = np.flatnonzero(np.isnan(out))
        if miss.size:
            vals = np.asarray(fn(rows[miss]), dtype=float)
            out[miss] = vals
            room = max(200_000 - len(cache), 0)
            cache.update(zip([keys[i] for i in miss[:room]], vals[:room].tolist()))
        return float(out[0]) if lead == () else out.reshape(lead)

    def q_inf(self, xi):
        return self._eval("qi", self.q_inf_fn, xi)

    def q_sup(self, xi):
        return self._eval("qs", self.q_sup_fn, xi)

    def re_sup(self, xi):
        return self._eval("rs", self.re_sup_fn, xi)

    def im_sup(self, xi):
        return self._eval("is", self.im_sup_fn, xi)


def _stable_closed_form(spec: StableLikeSpec, d: int) -> Envelope:
    amin, amax = spec.alpha_min, spec.alpha_max

    def band_power(xi, inner: float, outer: float):
        rho = np.linalg.norm(xi, axis=-1)
        return _libm_pow(rho, np.where(rho <= 1.0, inner, outer)).astype(float)

    def q_sup(xi):
        return band_power(xi, amin, amax)

    return Envelope(
        dimension=d,
        q_inf_fn=lambda xi: band_power(xi, amax, amin),
        q_sup_fn=q_sup,
        re_sup_fn=q_sup,
        im_sup_fn=lambda xi: np.zeros(len(xi)),
        provenance=f"closed_form(stable_like, band=[{amin}, {amax}])",
        radial=True,
    )


def _state_free(model: SymbolModel) -> Envelope:
    d = model.dimension
    origin = np.zeros(d)

    def value(xi):
        return np.broadcast_to(np.asarray(model.evaluator(origin, xi), complex), xi.shape[:-1])

    return Envelope(
        dimension=d,
        q_inf_fn=lambda xi: value(xi).real,
        q_sup_fn=lambda xi: np.abs(value(xi)),
        re_sup_fn=lambda xi: value(xi).real,
        im_sup_fn=lambda xi: np.abs(value(xi).imag),
        provenance="closed_form(state-free)",
        radial=model.radial_in_xi,
    )


class _GridOptimizer:
    """Extremize x -> g(p(x, xi)) over a box grid with bracket-search
    refinement, for a batch of frequencies xi at once."""

    def __init__(self, model, box, resolution, periodic, refine_rounds=3):
        self.model = model
        self.d = model.dimension
        self.box = box
        self.periodic = periodic
        self.refine_rounds = refine_rounds
        self.axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
        mesh = np.meshgrid(*self.axes, indexing="ij")
        self.points = np.stack(mesh, axis=-1).reshape(-1, self.d)

    def _scores(self, x, xi, reduce_fn) -> np.ndarray:
        """reduce_fn(p(x, xi)) over the broadcast leading shape of x and xi."""
        shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
        vals = np.asarray(self.model.evaluator(x, xi), complex)
        return np.broadcast_to(np.asarray(reduce_fn(vals), float), shape)

    def _sweep(self, x, best, axis, reduce_fn, xi) -> None:
        """Bracket search along one coordinate around each row of ``x``.

        Each step evaluates BRACKET_NODES equispaced nodes across every
        live row's bracket, starting from x +- one grid spacing, in one
        evaluator call, then shrinks the bracket to the neighbours of its
        best node; a row stops once its bracket [a, b] is narrower than
        1e-9 (1 + |a| + |b|).  ``x`` and ``best`` move, in place, to any
        node that beats them.
        """
        grid = self.axes[axis]
        h = grid[1] - grid[0]
        lo, hi = x[:, axis] - h, x[:, axis] + h
        if not self.periodic:
            lo_box, hi_box = self.box[axis]
            lo, hi = np.maximum(lo, lo_box), np.minimum(hi, hi_box)
        t = np.linspace(0.0, 1.0, BRACKET_NODES)
        live = np.arange(len(x))
        while live.size:
            a, b = lo[live], hi[live]
            nodes = a[:, None] + (b - a)[:, None] * t
            probe = np.repeat(x[live, None, :], BRACKET_NODES, axis=1)
            probe[:, :, axis] = nodes
            scores = self._scores(probe, xi[live, None, :], reduce_fn)
            rows = np.arange(live.size)
            k = np.argmin(scores, axis=1)
            found = scores[rows, k]
            better = found < best[live]
            best[live[better]] = found[better]
            x[live[better], axis] = nodes[rows, k][better]
            a = nodes[rows, np.maximum(k - 1, 0)]
            b = nodes[rows, np.minimum(k + 1, BRACKET_NODES - 1)]
            lo[live], hi[live] = a, b
            live = live[b - a >= 1e-9 * (1.0 + np.abs(a) + np.abs(b))]

    def extremize(self, xi, reduce_fn) -> np.ndarray:
        """Minimize reduce_fn(p(x, xi)) over x for each row of ``xi``
        (shape (n, d)); reduce_fn must act elementwise.

        The grid pass and the sweeps are chunked so that no evaluator call
        sees more than about MAX_EVAL_POINTS symbol points.
        """
        n = len(xi)
        x = np.empty((n, self.d))
        best = np.empty(n)
        step = max(1, MAX_EVAL_POINTS // len(self.points))
        for s in range(0, n, step):
            block = xi[s : s + step]
            scores = self._scores(self.points[None], block[:, None, :], reduce_fn)
            k = np.argmin(scores, axis=1)
            x[s : s + step] = self.points[k]
            best[s : s + step] = scores[np.arange(len(block)), k]
        step = max(1, MAX_EVAL_POINTS // BRACKET_NODES)
        for s in range(0, n, step):
            chunk = slice(s, s + step)
            for _ in range(self.refine_rounds):
                for axis in range(self.d):
                    self._sweep(x[chunk], best[chunk], axis, reduce_fn, xi[chunk])
        return best


def build_envelope(
    model: SymbolModel,
    x_domain=None,
    resolution: int = 513,
    tail: str | None = None,
    *,
    use_closed_form: bool = True,
    refine_rounds: int = 3,
) -> Envelope:
    """Construct the four envelope functions for a model.

    State-free models and (by default) stable-like models take closed-form
    paths.  Otherwise ``x_domain`` must be a box [(lo, hi)] * d together
    with a ``tail`` declaration, one of "periodic" (the box covers a full
    period) or "constant_at_infinity" (the coefficients settle to their
    boundary behavior outside the box); without a tail declaration the box
    infimum cannot stand in for the infimum over all of R^d and a
    ConfigError is raised.
    """
    if not model.x_dependent:
        return _state_free(model)
    if model.kind == "stable_like" and use_closed_form:
        return _stable_closed_form(model.eval_data, model.dimension)

    if x_domain is None:
        raise ConfigError("x-dependent model needs an x_domain box for the grid envelope")
    box = [(float(lo), float(hi)) for lo, hi in np.reshape(np.asarray(x_domain, float), (-1, 2))]
    if len(box) != model.dimension:
        raise ConfigError(f"x_domain must provide {model.dimension} (lo, hi) pairs")
    if any(hi <= lo for lo, hi in box):
        raise ConfigError("x_domain intervals must be increasing")
    if tail not in ("periodic", "constant_at_infinity"):
        raise ConfigError(
            "grid envelopes need tail='periodic' or 'constant_at_infinity';"
            " got " + repr(tail)
        )

    opt = _GridOptimizer(model, box, resolution, periodic=(tail == "periodic"), refine_rounds=refine_rounds)

    return Envelope(
        dimension=model.dimension,
        q_inf_fn=lambda xi: opt.extremize(xi, np.real),
        q_sup_fn=lambda xi: -opt.extremize(xi, lambda v: -np.abs(v)),
        re_sup_fn=lambda xi: -opt.extremize(xi, lambda v: -np.real(v)),
        im_sup_fn=lambda xi: -opt.extremize(xi, lambda v: -np.abs(np.imag(v))),
        provenance=f"grid(box={box}, resolution={resolution}, tail={tail})",
        radial=model.radial_in_xi,
        caveats=(GRID_CAVEAT,),
    )
