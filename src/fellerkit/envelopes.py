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
minimized over an x grid by :func:`blocked_argmin`, the one search over
states, then refined by coordinate bracket searches.  Both hand the
evaluator x as an :class:`~fellerkit.symbols.OpenGrid`, so a term in x
alone is computed once per coordinate value.  A frequency leaves the
searches after d consecutive sweeps (one per axis) that do not move it, so
``refine_rounds`` is a maximum.  Grid envelopes can overstate q_inf when the
optimizing x falls between grid nodes, so reports built from them carry a
caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .symbols import OpenGrid, StableLikeSpec, SymbolModel, as_points, product_nodes

__all__ = ["Envelope", "build_envelope"]

GRID_CAVEAT = (
    "grid envelope: extrema searched on a finite x grid with local refinement;"
    " q_inf may be overstated between nodes"
)

#: most symbol points one evaluator call of a search over states sees:
#: :func:`blocked_argmin` scores the states in blocks of at most this many,
#: and as many rows per call as fit; the sweeps take as many rows as fit
#: (at least one).  Larger calls ran no faster and raised the peak memory
MAX_EVAL_POINTS = 1 << 14
#: nodes per bracket-search step along one coordinate, and their places in
#: the bracket as fractions of its width
BRACKET_NODES = 65
BRACKET_T = np.linspace(0.0, 1.0, BRACKET_NODES)


@dataclass(eq=False)
class Envelope:
    """Callable bundle of the four state-uniform envelope functions.

    Each query reads its argument as points by
    :func:`~fellerkit.symbols.as_points` and returns a Python float for a
    single point, else an array of floats.  The functions it wraps
    (``q_inf_fn`` and so on) take an ``(n, d)`` array of frequencies and
    return an ``(n,)`` array.  Instances are immutable by convention.  The
    wrapped function sees all points of a query in one call, and the
    arrays returned are the caller's to write to.
    """

    dimension: int
    q_inf_fn: Callable
    q_sup_fn: Callable
    re_sup_fn: Callable
    im_sup_fn: Callable
    provenance: str
    radial: bool = False
    caveats: tuple = ()

    def _eval(self, fn, xi) -> float | np.ndarray:
        points, lead = as_points(xi, self.dimension)
        # a copy: fn may return a read-only view or an array it keeps
        vals = np.array(fn(points.reshape(-1, self.dimension)), dtype=float)
        return float(vals[0]) if lead == () else vals.reshape(lead)

    def q_inf(self, xi):
        return self._eval(self.q_inf_fn, xi)

    def q_sup(self, xi):
        return self._eval(self.q_sup_fn, xi)

    def re_sup(self, xi):
        return self._eval(self.re_sup_fn, xi)

    def im_sup(self, xi):
        return self._eval(self.im_sup_fn, xi)


def _stable_closed_form(spec: StableLikeSpec, d: int) -> Envelope:
    amin, amax = spec.alpha_min, spec.alpha_max

    def band_power(xi, inner: float, outer: float):
        rho = np.linalg.norm(xi, axis=-1)
        # float_power, not np.power: the reports print these values, and
        # np.power's vectorized loop differs from libm's pow in the last bit
        # for a few percent of arguments, where float_power agrees with it
        return np.float_power(rho, np.where(rho <= 1.0, inner, outer))

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


def blocked_argmin(score, n_rows: int, nodes, shape) -> tuple[np.ndarray, np.ndarray]:
    """The package's one search over states: for each of ``n_rows`` rows,
    the C-order flat index of its node of least score among the nodes of
    an index grid of ``shape``, and that score.

    The nodes are held a block of at most MAX_EVAL_POINTS at a time.  A
    block fixes the leading indices, takes a range of one axis and every
    later axis whole, so its nodes are consecutive in flat order.
    ``nodes(index)`` gives
    a block's nodes as points (..., d) from ``index``, one integer array per
    axis of ``shape``, of one ndim, that broadcast together (as from
    :func:`numpy.ix_`) to the block's shape; ``score(pts, rows)`` gives the
    scores of the rows ``rows`` (a slice) there, shaped (len(rows),) plus
    the block's shape.  Each block is scored against as many rows as fit in
    MAX_EVAL_POINTS points with the first block (at least one).  A later
    block replaces a row's best only on a strictly lower score or a first
    NaN: the lowest flat index among ties, as argmin over all nodes gives.
    """
    sizes = list(shape)
    axis = 0  # the axis a block takes a range of
    while math.prod(sizes[axis + 1:]) > MAX_EVAL_POINTS:
        axis += 1
    later = math.prod(sizes[axis + 1:])
    run = min(sizes[axis], max(1, MAX_EVAL_POINTS // later))
    step = max(1, MAX_EVAL_POINTS // (run * later))
    ndim = len(sizes) - axis  # of a block
    whole = [np.arange(n).reshape((-1,) + (1,) * (len(sizes) - 1 - i))
             for i, n in enumerate(sizes[axis + 1:], axis + 1)]
    at = np.empty(n_rows, dtype=np.intp)
    best = np.empty(n_rows)
    start = 0  # flat index of the block's first node
    for lead in np.ndindex(*sizes[:axis]):
        fixed = [np.full((1,) * ndim, i) for i in lead]
        for first in range(0, sizes[axis], run):
            span = np.arange(first, min(first + run, sizes[axis]))
            pts = nodes((*fixed, span.reshape((-1,) + (1,) * (ndim - 1)), *whole))
            size = len(span) * later
            for s in range(0, n_rows, step):
                rows = slice(s, s + step)
                scores = score(pts, rows).reshape(-1, size)
                k = np.argmin(scores, axis=1)
                found = scores[np.arange(len(k)), k]
                if start:
                    take = (found < best[rows]) | (np.isnan(found) & ~np.isnan(best[rows]))
                    found, k = np.where(take, found, best[rows]), np.where(take, k + start, at[rows])
                best[rows], at[rows] = found, k
            start += size
    return at, best


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

    def _scores(self, x, xi, reduce_fn) -> np.ndarray:
        """reduce_fn(p(x, xi)) over the broadcast leading shape of x (points
        or an :class:`~fellerkit.symbols.OpenGrid`) and xi, the shape every
        evaluator answers in.  The evaluator may return a real array for a
        real p: each reduce_fn gives the same bits on it as on its complex
        cast."""
        return np.asarray(reduce_fn(self.model.evaluator(x, xi)), float)

    def _grid_pass(self, xi, reduce_fn) -> tuple[np.ndarray, np.ndarray]:
        """The mesh node of least score for each row of ``xi``, and that
        score, by :func:`blocked_argmin` over the nodes of the x mesh.  Each
        block of the mesh is an open grid of the axes' nodes, so a term in x
        alone is computed once per node of an axis, not once per mesh node."""
        nodes = lambda index: OpenGrid(axis[i][None] for axis, i in zip(self.axes, index))
        score = lambda pts, rows: self._scores(
            pts, xi[rows].reshape((-1,) + (1,) * (pts.ndim - 2) + (self.d,)), reduce_fn
        )
        at, best = blocked_argmin(score, len(xi), nodes, [len(axis) for axis in self.axes])
        return product_nodes(self.axes, at), best

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
        # the live rows' brackets, probe coordinates and frequencies,
        # compacted as rows stop: the probe is an open grid whose other
        # coordinates stay those of its row of x, one value per row
        live = np.arange(len(x))
        coords = [x[:, i, None] for i in range(self.d)]
        xi_live = xi[:, None, :]
        first = live * BRACKET_NODES  # flat index of each live row's first node
        while live.size:
            nodes = lo[:, None] + (hi - lo)[:, None] * BRACKET_T
            coords[axis] = nodes
            scores = self._scores(OpenGrid(coords), xi_live, reduce_fn)
            at = first + np.argmin(scores, axis=1)
            found = scores.take(at)
            better = found < best[live]
            if better.any():
                best[live[better]] = found[better]
                x[live[better], axis] = nodes.take(at[better])
            lo = nodes.take(np.maximum(at - 1, first))
            hi = nodes.take(np.minimum(at + 1, first + (BRACKET_NODES - 1)))
            keep = hi - lo >= 1e-9 * (1.0 + np.abs(lo) + np.abs(hi))
            if not keep.all():
                live, lo, hi, xi_live = (v[keep] for v in (live, lo, hi, xi_live))
                coords = [c[keep] for c in coords]
                first = np.arange(live.size) * BRACKET_NODES

    def extremize(self, xi, reduce_fn) -> np.ndarray:
        """Minimize reduce_fn(p(x, xi)) over x for each row of ``xi``
        (shape (n, d)); reduce_fn must act elementwise.

        The grid pass (:meth:`_grid_pass`) starts each row at its best mesh
        node.  The sweeps take the rows in chunks of about MAX_EVAL_POINTS /
        BRACKET_NODES.  A sweep of a row depends only on that row and moves
        it only to a strictly lower score, so once d consecutive sweeps (one
        per axis) leave a row where it was, every later sweep would repeat
        one of them: the row leaves refinement there, and ``refine_rounds``
        is the most rounds a row gets.
        """
        n = len(xi)
        x, best = self._grid_pass(xi, reduce_fn)
        step = max(1, MAX_EVAL_POINTS // BRACKET_NODES)
        quiet = np.zeros(n, int)  # consecutive sweeps that left each row unmoved
        for sweep in range(self.refine_rounds * self.d):
            live = np.flatnonzero(quiet < self.d)
            for s in range(0, live.size, step):
                rows = live[s : s + step]
                x_rows, best_rows = x[rows], best[rows]
                self._sweep(x_rows, best_rows, sweep % self.d, reduce_fn, xi[rows])
                quiet[rows] = np.where(best_rows < best[rows], 0, quiet[rows] + 1)
                x[rows], best[rows] = x_rows, best_rows
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
    if not np.isfinite(box).all():
        raise ConfigError(f"x_domain bounds must be finite; got {box}")
    if any(hi <= lo for lo, hi in box):
        raise ConfigError("x_domain intervals must be increasing")
    if tail not in ("periodic", "constant_at_infinity"):
        raise ConfigError(
            "grid envelopes need tail='periodic' or 'constant_at_infinity';"
            " got " + repr(tail)
        )
    if resolution < 2:
        raise ConfigError(f"resolution must be an integer >= 2; got {resolution}")
    if refine_rounds < 0:
        raise ConfigError(f"refine_rounds must be an integer >= 0; got {refine_rounds}")

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
