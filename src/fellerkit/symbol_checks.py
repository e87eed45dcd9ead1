"""Structural checks on symbol models, evaluated on user-supplied grids.

Each check returns a small result object with a ``verdict`` string
("holds" or "fails") plus the evidence that produced it.  Grid checks are
certificates only up to the grid: a sup over sampled points can under- or
over-state the true sup, which callers must keep in mind for one-sided
conclusions.  Every sup over states here is one
:func:`~fellerkit.envelopes.blocked_argmin`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envelopes import blocked_argmin
from .symbols import SymbolModel, as_points, product_nodes

__all__ = [
    "BoundedCoefficientsCheck",
    "SubadditivityCheck",
    "check_bounded_coefficients",
    "check_sqrt_subadditivity",
]


def _ball_grid(radius: float, d: int, per_axis: int) -> np.ndarray:
    pts = product_nodes([np.linspace(-radius, radius, per_axis)] * d, np.arange(per_axis**d))
    keep = np.sqrt(np.sum(pts * pts, axis=1)) <= radius + 1e-12
    return pts[keep]


def _sup_over_states(model: SymbolModel, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """sup over the states ``xs`` of |p(x, xi)|, for each row of ``xis``, by
    :func:`~fellerkit.envelopes.blocked_argmin` of -|p|.  Each block is
    evaluated states by frequencies, as one call on the whole product is,
    and transposed; a NaN at any state gives NaN."""
    score = lambda pts, rows: -np.abs(model.evaluator(pts[:, None, :], xis[None, rows, :])).T
    return -blocked_argmin(score, len(xis), lambda index: xs[index[0]], [len(xs)])[1]


def ball_sup(model: SymbolModel, center, r: float, resolution: int) -> float:
    """sup |p(y, xi)| over ball grids of |y - center| <= r and |xi| <= 1/r,
    each of ``resolution`` nodes per axis, by :func:`_sup_over_states`."""
    d = model.dimension
    ys = np.asarray(center, dtype=float).reshape(d) + _ball_grid(r, d, resolution)
    return float(np.max(_sup_over_states(model, ys, _ball_grid(1.0 / r, d, resolution))))


@dataclass
class BoundedCoefficientsCheck:
    c_est: float
    verdict: str
    zero_offset: float
    shell_radii: list = field(default_factory=list)
    shell_sups: list = field(default_factory=list)


def check_bounded_coefficients(
    model: SymbolModel, x_grid, xi_grid, *, growth_tol: float = 1.1, zero_tol: float = 1e-8
) -> BoundedCoefficientsCheck:
    """Estimate c = sup |p(x, xi)| / (1 + |xi|^2) on the grid.

    The estimate is bucketed by dyadic |xi| shells; when the outermost three
    shell sups each grow by more than ``growth_tol`` the constant is still
    climbing at the grid edge and the verdict is "fails" with the shell trace
    as evidence.  A nonzero sup of |p(x, 0)| also fails when the model
    declares itself conservative.
    """
    d = model.dimension
    xs, xis = (as_points(grid, d)[0].reshape(-1, d) for grid in (x_grid, xi_grid))
    rho = np.sqrt(np.sum(xis * xis, axis=1))
    ratio = _sup_over_states(model, xs, xis) / (1.0 + rho**2)
    c_est = float(ratio.max())

    zero_offset = float(np.max(np.abs(model.evaluator(xs, np.zeros((xs.shape[0], d))))))

    rmax = rho.max()
    shell_radii, shell_sups = [], []
    edge = rmax
    for _ in range(8):
        lo = edge / 2.0
        mask = (rho > lo) & (rho <= edge)
        if mask.any():
            shell_radii.append(float(edge))
            shell_sups.append(float(ratio[mask].max()))
        edge = lo
        if edge < 1e-12:
            break
    shell_radii.reverse()
    shell_sups.reverse()

    growing = len(shell_sups) >= 3 and all(
        shell_sups[i + 1] > growth_tol * shell_sups[i] for i in range(len(shell_sups) - 3, len(shell_sups) - 1)
    )
    bad_zero = model.conservative and zero_offset > zero_tol
    verdict = "fails" if (growing or bad_zero or not np.isfinite(c_est)) else "holds"
    return BoundedCoefficientsCheck(
        c_est=c_est,
        verdict=verdict,
        zero_offset=zero_offset,
        shell_radii=shell_radii,
        shell_sups=shell_sups,
    )


@dataclass
class SubadditivityCheck:
    verdict: str
    n_checked: int
    counterexample: dict | None = None


def check_sqrt_subadditivity(
    model: SymbolModel,
    n_samples: int = 1000,
    seed: int = 0,
    *,
    x_range: float = 5.0,
    xi_range: float = 10.0,
    tol: float = 1e-9,
) -> SubadditivityCheck:
    """Random search for violations of
    sqrt(Re p(x, a + b)) <= sqrt(Re p(x, a)) + sqrt(Re p(x, b)).

    The inequality characterizes the square-root subadditivity that every
    genuine symbol family inherits from its negative definite structure;
    polynomially growing pseudo-symbols like |xi|^4 fail it.
    """
    rng = np.random.default_rng(seed)
    d = model.dimension
    xs = rng.uniform(-x_range, x_range, size=(n_samples, d))
    a = rng.uniform(-xi_range, xi_range, size=(n_samples, d))
    b = rng.uniform(-xi_range, xi_range, size=(n_samples, d))
    re = lambda xi: np.sqrt(np.maximum(np.real(model.evaluator(xs, xi)), 0.0))
    lhs = re(a + b)
    rhs = re(a) + re(b)
    bad = lhs > rhs + tol * (1.0 + rhs)
    if bad.any():
        i = int(np.argmax(bad))
        return SubadditivityCheck(
            verdict="fails",
            n_checked=n_samples,
            counterexample={
                "x": xs[i].tolist(),
                "xi1": a[i].tolist(),
                "xi2": b[i].tolist(),
                "lhs": float(lhs[i]),
                "rhs": float(rhs[i]),
            },
        )
    return SubadditivityCheck(verdict="holds", n_checked=n_samples)
