"""Structural checks on symbol models, evaluated on user-supplied grids.

Each check returns a small result object with a ``verdict`` string
("holds" or "fails") plus the evidence that produced it.  Grid checks are
certificates only up to the grid: a sup over sampled points can under- or
over-state the true sup, which callers must keep in mind for one-sided
conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symbols import SymbolModel, as_points

__all__ = [
    "BoundedCoefficientsCheck",
    "SectorConditionCheck",
    "FellerDecayCheck",
    "SubadditivityCheck",
    "check_bounded_coefficients",
    "check_sector_condition",
    "check_feller_decay",
    "check_sqrt_subadditivity",
]


def _grid_points(grid, d: int) -> np.ndarray:
    """The points of ``grid`` (read by ``as_points``) as an (n, d) array."""
    pts, _ = as_points(grid, d)
    return pts.reshape(-1, d)


def _ball_grid(radius: float, d: int, per_axis: int) -> np.ndarray:
    axes = [np.linspace(-radius, radius, per_axis)] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    keep = np.sqrt(np.sum(pts * pts, axis=1)) <= radius + 1e-12
    return pts[keep]


def ball_sup(model: SymbolModel, center, r: float, x_resolution: int, xi_resolution: int) -> float:
    """sup |p(y, xi)| over ball grids of |y - center| <= r (``x_resolution``
    nodes per axis) and |xi| <= 1/r (``xi_resolution`` nodes per axis)."""
    d = model.dimension
    ys = np.asarray(center, dtype=float).reshape(d) + _ball_grid(r, d, x_resolution)
    xis = _ball_grid(1.0 / r, d, xi_resolution)
    return float(np.abs(model.evaluator(ys[:, None, :], xis[None, :, :])).max())


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
    xs = _grid_points(x_grid, d)
    xis = _grid_points(xi_grid, d)
    vals = np.abs(model.evaluator(xs[:, None, :], xis[None, :, :]))
    rho = np.sqrt(np.sum(xis * xis, axis=1))
    ratio = vals.max(axis=0) / (1.0 + rho**2)
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
class SectorConditionCheck:
    constant: float
    verdict: str
    witness_xi: np.ndarray | None = None


def check_sector_condition(
    model: SymbolModel, x_grid, xi_grid, *, tol: float = 1e-12
) -> SectorConditionCheck:
    """Smallest c with sup_x |Im p(x, xi)| <= c * inf_x Re p(x, xi) on the grid.

    Real symbols give exactly 0.  A vanishing real infimum against a
    non-vanishing imaginary sup has no finite constant, and a nan value
    gives no constant at all; the verdict is then "fails" with the first
    such frequency in grid order as the witness.
    """
    d = model.dimension
    xs = _grid_points(x_grid, d)
    xis = _grid_points(xi_grid, d)
    keep = np.sqrt(np.sum(xis * xis, axis=1)) > 0
    xis = xis[keep]
    vals = model.evaluator(xs[:, None, :], xis[None, :, :])
    im_sup = np.abs(np.imag(vals)).max(axis=0)
    re_inf = np.real(vals).min(axis=0)

    active = ~(im_sup <= tol * (1.0 + np.abs(vals).max(axis=0)))
    bad = np.isnan(vals).any(axis=0) | (active & (re_inf <= tol))
    if bad.any():
        return SectorConditionCheck(
            constant=np.inf, verdict="fails", witness_xi=xis[np.argmax(bad)]
        )
    constant = float(np.fmax.reduce(im_sup[active] / re_inf[active], initial=0.0))
    verdict = "holds" if constant < 1.0 else "fails"
    return SectorConditionCheck(constant=constant, verdict=verdict)


@dataclass
class FellerDecayCheck:
    radii: list
    sups: list
    verdict: str


def check_feller_decay(
    model: SymbolModel,
    radii,
    *,
    x_resolution: int = 33,
    xi_resolution: int = 33,
    tol: float = 1e-2,
) -> FellerDecayCheck:
    """Track s_k = sup_{|x| <= r_k} sup_{|xi| <= 1/r_k} |p(x, xi)|.

    For symbols of Feller generators with vanishing-at-infinity range the
    sequence tends to zero along growing radii; the verdict holds when the
    recorded sups are (within 5 percent) nonincreasing and end below ``tol``.
    """
    origin = np.zeros(model.dimension)
    sups = [ball_sup(model, origin, float(r), x_resolution, xi_resolution) for r in radii]
    decreasing = all(sups[i + 1] <= 1.05 * sups[i] for i in range(len(sups) - 1))
    verdict = "holds" if (decreasing and sups[-1] < tol) else "fails"
    return FellerDecayCheck(radii=[float(r) for r in radii], sups=sups, verdict=verdict)


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
