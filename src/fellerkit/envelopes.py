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
minimized over an x grid with golden-section refinement around the grid
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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

GRID_CAVEAT = (
    "grid envelope: extrema searched on a finite x grid with local refinement;"
    " q_inf may be overstated between nodes"
)


def _golden_minimize(fn, lo: float, hi: float, *, tol: float = 1e-9, max_iter: int = 80):
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


@dataclass(eq=False)
class Envelope:
    """Callable bundle of the four state-uniform envelope functions.

    Each reads its argument as points by :func:`~fellerkit.symbols.as_points`
    and returns a Python float for a single point, else an array of floats.
    Instances are immutable by convention; the internal cache only
    memoizes pure queries.
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
        out = []
        for row in arr.reshape(-1, self.dimension):
            key = (tag, row.tobytes())
            hit = self._cache.get(key)
            if hit is None:
                hit = float(fn(row))
                if len(self._cache) < 200_000:
                    self._cache[key] = hit
            out.append(hit)
        return out[0] if lead == () else np.reshape(out, lead)

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

    def q_inf(xi):
        rho = np.linalg.norm(xi)
        return rho ** (amax if rho <= 1.0 else amin)

    def q_sup(xi):
        rho = np.linalg.norm(xi)
        return rho ** (amin if rho <= 1.0 else amax)

    return Envelope(
        dimension=d,
        q_inf_fn=q_inf,
        q_sup_fn=q_sup,
        re_sup_fn=q_sup,
        im_sup_fn=lambda xi: 0.0,
        provenance=f"closed_form(stable_like, band=[{amin}, {amax}])",
        radial=True,
    )


def _state_free(model: SymbolModel) -> Envelope:
    d = model.dimension
    origin = np.zeros(d)

    def value(xi):
        return complex(np.asarray(model.evaluator(origin, np.asarray(xi, float)), complex))

    return Envelope(
        dimension=d,
        q_inf_fn=lambda xi: value(xi).real,
        q_sup_fn=lambda xi: abs(value(xi)),
        re_sup_fn=lambda xi: value(xi).real,
        im_sup_fn=lambda xi: abs(value(xi).imag),
        provenance="closed_form(state-free)",
        radial=model.radial_in_xi,
    )


class _GridOptimizer:
    """Extremize x -> g(p(x, xi)) over a box grid with golden refinement."""

    def __init__(self, model, box, resolution, periodic, refine_rounds=3):
        self.model = model
        self.d = model.dimension
        self.box = box
        self.periodic = periodic
        self.refine_rounds = refine_rounds
        axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
        self.axes = axes
        mesh = np.meshgrid(*axes, indexing="ij")
        self.shape = mesh[0].shape
        self.points = np.stack(mesh, axis=-1).reshape(-1, self.d)

    def _refine_axis(self, x, axis, reduce_fn, xi):
        """One golden-section pass along one coordinate around x."""
        grid = self.axes[axis]
        h = grid[1] - grid[0]
        lo_box, hi_box = self.box[axis]
        lo = x[axis] - h
        hi = x[axis] + h
        if not self.periodic:
            lo = max(lo, lo_box)
            hi = min(hi, hi_box)

        def slice_fn(c):
            probe = x.copy()
            probe[axis] = c
            val = np.asarray(self.model.evaluator(probe, xi), complex)
            return float(reduce_fn(val))

        c, fc = _golden_minimize(slice_fn, lo, hi)
        out = x.copy()
        out[axis] = c
        return out, fc

    def extremize(self, xi, reduce_fn) -> float:
        """Minimize reduce_fn(p(x, xi)) over x; reduce_fn must act elementwise."""
        vals = np.asarray(self.model.evaluator(self.points, xi[None, :]), complex)
        scores = np.asarray(reduce_fn(vals), float)
        best_idx = int(np.argmin(scores))
        x = self.points[best_idx].copy()
        best = float(scores[best_idx])
        for _ in range(self.refine_rounds):
            for axis in range(self.d):
                x, val = self._refine_axis(x, axis, reduce_fn, xi)
                best = min(best, val)
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
