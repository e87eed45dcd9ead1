"""Symbol models p(x, xi) and their evaluation.

A model is one of five kinds:

``closed_form``
    p given directly, either as callables or expression strings.
``levy_characteristics``
    p assembled from a kill rate c(x), drift b(x), diffusion matrix a(x)
    and a jump density n(x, z) through the Levy-Khintchine integral, done
    by adaptive quadrature.  One routine integrates the jump part over the
    sides of the jump measure, the half-lines r -> n(x, s r): one side
    weighted by the sphere area for a radial density, s = +1 and s = -1
    for a signed density in d = 1.
``stable_like``
    p(x, xi) = |xi| ** alpha(x) with a variable order alpha taking values
    in a declared band [alpha_min, alpha_max] inside (0, 2).
``subordinated``
    p(x, xi) = f(x, psi(xi)) for a state-free real exponent psi and a
    Bernstein function f in its second argument.
``symmetrized``
    p(x, xi) = 2 * Re base(x, xi / 2), the symbol of the locally
    symmetrized process.

Evaluators are pure functions of their inputs; models are immutable after
construction.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .expressions import compile_expression
from .quadrature import surface_area

__all__ = [
    "LevyCharacteristics",
    "StableLikeSpec",
    "BernsteinSpec",
    "SymbolModel",
    "eval_symbol",
    "stable_like_constant",
    "closed_form_symbol",
    "levy_symbol",
    "stable_like_symbol",
    "subordinate",
    "symmetrize",
    "brownian",
    "alpha_stable",
    "cauchy",
    "compound_poisson",
    "zero_symbol",
    "validate_model",
]


def _coeff_of_x(fn, d: int, extra: tuple[str, ...] = (), *, points: tuple[str, ...] = ("x",)):
    """Read one coefficient: a number, an expression string or a callable.

    Returns ``(evaluate, reads_x)``.  ``evaluate`` takes one array shaped
    (..., d) for each name in ``points``, then the scalar variables
    ``extra``; an expression reads a point name p as p in d = 1 and as
    p1..pd otherwise.  ``reads_x`` tells whether the coefficient can depend
    on the state: a number cannot, an expression can exactly when it names
    x (x1..xd), and a callable is assumed to.  Anything else raises
    :class:`ConfigError`.

    An expression's ``evaluate`` has ``reads``, one bool per name in
    ``points`` that tells whether it names that point, and ``factors``: the
    operands of a product at its root (see :func:`compile_expression`),
    each taking the same arguments and with its own ``reads``, or ().
    """
    if isinstance(fn, str):
        groups = [(p,) if d == 1 else tuple(f"{p}{i + 1}" for i in range(d)) for p in points]
        k = len(points)

        def by_points(compiled):
            def evaluate(*args):
                comps = tuple(a[..., i] for a in args[:k] for i in range(d))
                return compiled(*comps, *args[k:])

            evaluate.reads = tuple(not compiled.used.isdisjoint(g) for g in groups)
            return evaluate

        compiled = compile_expression(fn, sum(groups, ()) + tuple(extra))
        evaluate = by_points(compiled)
        evaluate.factors = tuple(map(by_points, getattr(compiled, "factors", ())))
        return evaluate, evaluate.reads[0]
    if callable(fn):
        return fn, True
    if not isinstance(fn, numbers.Real) or isinstance(fn, bool):
        raise ConfigError(
            f"a coefficient must be a number, an expression string or a callable; got {fn!r}"
        )
    value = float(fn)

    def const(x, *args):
        return np.broadcast_to(value, np.shape(x)[:-1]).copy() if np.ndim(x) else value

    return const, False


def as_points(v, d: int, *, single: bool = False) -> tuple[np.ndarray, tuple]:
    """Read ``v`` as points of R^d; return ``(points, lead_shape)``.

    This is the package's one rule for points.  In d = 1 an array is read
    elementwise: every entry is one point, so a scalar is a single point.
    In higher dimension the last axis holds the d components, and every
    leading axis indexes points.  ``points`` has shape ``lead_shape + (d,)``.
    Queries that take points answer with an array of shape ``lead_shape``,
    or a Python scalar for a single point (``lead_shape == ()``).  A last
    axis of the wrong length raises ValueError.

    With ``single=True``, ``v`` must be one frequency with finite
    components: shape (d,), or in d = 1 also a scalar.  It is returned with
    shape (d,) and lead shape (); anything else raises :class:`ConfigError`.
    """
    arr = np.asarray(v, dtype=float)
    if single:
        if d == 1 and arr.ndim == 0:
            arr = arr[None]
        if arr.shape != (d,) or not np.isfinite(arr).all():
            raise ConfigError(f"xi must be a single frequency of dimension {d}, all finite")
        return arr, ()
    if d == 1:
        return arr[..., None], arr.shape
    if arr.ndim == 0 or arr.shape[-1] != d:
        raise ValueError(f"points must have last axis of length {d}")
    return arr, arr.shape[:-1]


def product_nodes(axes, flat) -> np.ndarray:
    """The nodes at C-order flat indices ``flat`` of the product grid of the
    1-D ``axes``, shape ``flat.shape + (len(axes),)``: the package's one way
    to build a grid of points, so a search can take a grid block by block."""
    idx = np.unravel_index(flat, [len(axis) for axis in axes])
    return np.stack([axis[i] for axis, i in zip(axes, idx)], axis=-1)


class OpenGrid:
    """Points of R^d held as d coordinate arrays of one ndim that broadcast
    together, as :func:`numpy.ix_` gives: an open grid.  It reads as the
    (..., d) array of the broadcast points: ``shape`` and ``ndim`` are that
    array's, ``x[..., i]`` is coordinate i, unbroadcast, and
    ``np.asarray(x)`` builds the dense array.  An evaluator that splits x
    into its coordinates so computes a term in x alone once per coordinate
    value, where the dense points would repeat it at every point."""

    def __init__(self, coords):
        self.coords = tuple(coords)
        self.shape = np.broadcast(*self.coords).shape + (len(self.coords),)
        self.ndim = len(self.shape)

    def __getitem__(self, key):
        if type(key) is tuple and len(key) == 2 and key[0] is Ellipsis:
            if isinstance(key[1], (int, np.integer)):
                return self.coords[key[1]]
        return np.asarray(self)[key]

    def __array__(self, dtype=None, copy=None):
        return np.stack(np.broadcast_arrays(*self.coords), axis=-1, dtype=dtype)


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class LevyCharacteristics:
    """State-dependent Levy characteristics (kill, drift, diffusion, jumps).

    ``kill`` may be a constant, an expression string in x (x1..xd) or a
    callable of points; only a constant zero kill rate leaves the model
    conservative.  ``drift`` and ``diffusion`` take the same three forms
    in dimension one; in higher dimension they are a constant vector and
    matrix or callables.  ``jump_density`` is an expression string in x and z (r
    when radial) or a callable (x, z) -> density value, vectorized in z.
    A model built from them is state-free when none can read x: numbers,
    constant vectors and matrices, and expressions that name no x variable.
    For ``radial=True`` the density is a function of r = |z| and the drift
    compensator of the jump part vanishes by symmetry; this is the only
    supported form in dimension greater than one.  ``singularity_exponent``
    declares the blow-up n(x, z) ~ |z| ** -(d + exponent) near the origin
    and must lie in (0, 2).
    """

    kill: Any = 0.0
    drift: Any = 0.0
    diffusion: Any = 0.0
    jump_density: Any = None
    singularity_exponent: float = 1.0
    radial: bool = False
    symmetric: bool = False


@dataclass(frozen=True)
class StableLikeSpec:
    """Variable order alpha(x), a callable of points, with declared band
    inside (0, 2)."""

    alpha: Callable
    alpha_min: float
    alpha_max: float


@dataclass(frozen=True)
class BernsteinSpec:
    """Bernstein function f(x, s): f(x, 0) = 0, nondecreasing and concave
    in s, with declared linear growth |f(x, s)| <= growth_constant * (1 + s)."""

    fn: Callable
    growth_constant: float


@dataclass(frozen=True, eq=False)
class SymbolModel:
    """Immutable container for one symbol p(x, xi).

    ``x_dependent`` is False when p does not depend on the state x.  Each
    builder reads it off its coefficients (see :func:`_coeff_of_x`), and a
    false value lets the envelope read p at x = 0 alone.

    ``evaluator(x_pts, xi_pts)`` takes points shaped (..., d) and returns p
    over their broadcast leading shape; ``x_pts`` may be an
    :class:`OpenGrid`, which each evaluator reads by coordinates or
    densifies.  It may return a real array where p is real (a
    ``closed_form`` without ``im``, a ``symmetrized`` model);
    :func:`eval_symbol` always answers in complex.
    """

    kind: str
    dimension: int
    eval_data: Any = None
    name: str = ""
    conservative: bool = True
    x_dependent: bool = True
    radial_in_xi: bool = False
    evaluator: Callable = field(default=None, repr=False)


def eval_symbol(model: SymbolModel, x, xi):
    """Evaluate p(x, xi).

    ``x`` and ``xi`` are read as points by :func:`as_points` and broadcast
    over their leading shapes.  Returns a Python complex when both are
    single points, otherwise a complex array of the broadcast shape, also
    for a model whose evaluator returns real values.
    """
    d = model.dimension
    xp, _ = as_points(x, d)
    xip, _ = as_points(xi, d)
    out = np.asarray(model.evaluator(xp, xip), dtype=complex)
    if out.ndim == 0:
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# closed forms


def closed_form_symbol(
    re,
    im=None,
    *,
    dimension: int = 1,
    radial_in_xi: bool = False,
    conservative: bool = True,
    name: str = "closed-form",
) -> SymbolModel:
    """Build a symbol from closed-form real and imaginary parts.

    ``re`` and ``im`` are numbers, expression strings over the variables
    x, xi (or x1..xd, xi1..xid) or callables (x_pts, xi_pts) -> array.
    The model is state-free when neither part can read x: both are numbers
    or expressions that name no x variable.  Without ``im`` the evaluator
    returns ``re``'s values as a real array.  An expression or a number
    sees the points unbroadcast and an :class:`OpenGrid` by coordinates, so
    a term in x alone is computed once per distinct value of the
    coordinates it names, not once per (x, xi) pair; a callable gets the
    broadcast dense points.

    ``radial_in_xi`` declares that p depends on xi through |xi| alone; it
    is checked by :func:`_check_radial` at a few fixed points, and a
    mismatch raises :class:`ConfigError`.  Passing is no certificate.

    When ``re`` is an expression a(x) * psi(xi), in either order, with one
    factor naming no xi variable and the other no x variable, and ``im`` is
    absent, the evaluator has ``factors = (a, psi)``: evaluators of each
    factor alone, taking and answering as the evaluator does, from which
    the grid envelope reads q_inf with one search over x.
    """
    re_fn, re_x = _coeff_of_x(re, dimension, points=("x", "xi"))
    im_fn, im_x = (None, False) if im is None else _coeff_of_x(im, dimension, points=("x", "xi"))
    any_callable = callable(re) or callable(im)

    def evaluator_of(re_fn, im_fn):
        def evaluator(xp, xip):
            shape = np.broadcast_shapes(np.shape(xp), np.shape(xip))[:-1]
            xb, xib = np.broadcast_arrays(xp, xip) if any_callable else (xp, xip)

            def part(fn, given):
                return fn(xb, xib) if callable(given) else fn(xp, xip)

            val = np.asarray(part(re_fn, re))
            if im_fn is not None:
                val = np.asarray(val, dtype=complex) + 1j * np.asarray(part(im_fn, im), dtype=float)
            elif not np.iscomplexobj(val):
                val = val.astype(float, copy=False)
            return val if val.shape == shape else np.broadcast_to(val, shape).copy()

        return evaluator

    evaluator = evaluator_of(re_fn, im_fn)
    if isinstance(re, str) and im is None and re_fn.factors:
        for a, psi in (re_fn.factors, re_fn.factors[::-1]):
            # (x, xi) of ``reads``: a names no xi, psi no x
            if not a.reads[1] and not psi.reads[0]:
                evaluator.factors = (evaluator_of(a, None), evaluator_of(psi, None))
                break

    model = SymbolModel(
        kind="closed_form",
        dimension=dimension,
        eval_data={"re": re, "im": im},
        name=name,
        conservative=conservative,
        x_dependent=re_x or im_x,
        radial_in_xi=radial_in_xi,
        evaluator=evaluator,
    )
    if radial_in_xi:
        _check_radial(model)
    return model


def _check_radial(model: SymbolModel) -> None:
    """Raise ConfigError unless p(x, r u) equals p(x, r e_1) within rel
    1e-9 at four fixed states x, three radii r and the unit directions u
    +-e_i and (+-e_i +- e_j) / sqrt(2) (+-1 in d = 1).  The points are
    fixed, so a symbol may pass and still depend on the direction of xi
    elsewhere: passing is no certificate."""
    d = model.dimension
    eye = np.eye(d)
    pairs = [
        (eye[i] + s * eye[j]) / math.sqrt(2.0)
        for i in range(d) for j in range(i + 1, d) for s in (1.0, -1.0)
    ]
    units = np.concatenate([eye, -eye, np.reshape(pairs, (-1, d)), -np.reshape(pairs, (-1, d))])
    states = np.array([0.0, 0.7, -1.9, 3.1])[:, None] * (1.0 + np.arange(d) / 3.0)
    radii = np.array([0.25, 1.5, 12.0])
    xi = radii[:, None, None] * units  # (radius, direction, d); direction 0 is e_1
    xs = np.repeat(states, xi.size // d, axis=0)
    xis = np.tile(xi.reshape(-1, d), (len(states), 1))
    # the states may lie outside the symbol's domain: NaN there passes when
    # every direction gives NaN
    with np.errstate(all="ignore"):
        vals = np.asarray(model.evaluator(xs, xis)).reshape((len(states),) + xi.shape[:-1])
        ref = vals[:, :, :1]
        ok = (vals == ref) | (np.abs(vals - ref) <= 1e-9 * np.maximum(np.abs(vals), np.abs(ref)))
    bad = ~(ok | (np.isnan(vals) & np.isnan(ref)))
    if bad.any():
        i, r, u = np.argwhere(bad)[0]
        raise ConfigError(
            f"radial_in_xi is declared, but at x = {states[i].tolist()} p(x, xi) is"
            f" {vals[i, r, u]:.10g} at xi = {xi[r, u].tolist()} and"
            f" {ref[i, r, 0]:.10g} at xi = {xi[r, 0].tolist()}, of the same norm"
        )


def _levy_family(name, dimension, exponent, params, radial):
    def evaluator(xp, xip):
        xb, xib = np.broadcast_arrays(xp, xip)
        return exponent(xib)

    return SymbolModel(
        kind="closed_form",
        dimension=dimension,
        eval_data={"family": name, **params},
        name=name,
        conservative=True,
        x_dependent=False,
        radial_in_xi=radial,
        evaluator=evaluator,
    )


def brownian(dimension: int = 1, drift=None) -> SymbolModel:
    """Brownian motion normalized to exponent |xi|^2 (variance 2t per axis)."""
    b = None if drift is None else np.broadcast_to(np.asarray(drift, float), (dimension,)).copy()

    def exponent(xib):
        q = np.sum(xib * xib, axis=-1).astype(complex)
        if b is not None:
            q = q - 1j * np.sum(b * xib, axis=-1)
        return q

    return _levy_family(
        "brownian", dimension, exponent, {"drift": b}, radial=b is None
    )


def alpha_stable(alpha: float, dimension: int = 1, drift=None) -> SymbolModel:
    """Isotropic alpha-stable exponent |xi|^alpha, optional drift term."""
    if not 0.0 < alpha <= 2.0:
        raise ConfigError(f"stable index must lie in (0, 2], got {alpha}")
    b = None if drift is None else np.broadcast_to(np.asarray(drift, float), (dimension,)).copy()

    def exponent(xib):
        rho = np.sqrt(np.sum(xib * xib, axis=-1))
        q = (rho**alpha).astype(complex)
        if b is not None:
            q = q - 1j * np.sum(b * xib, axis=-1)
        return q

    return _levy_family(
        "alpha_stable", dimension, exponent, {"alpha": float(alpha), "drift": b}, radial=b is None
    )


def cauchy(dimension: int = 1) -> SymbolModel:
    return alpha_stable(1.0, dimension)


def compound_poisson(
    rate: float, jump_mean: float = 0.0, jump_std: float = 1.0, dimension: int = 1
) -> SymbolModel:
    """Compound Poisson with Gaussian jumps; the exponent is bounded."""
    if dimension != 1:
        raise ConfigError("compound_poisson is implemented for dimension 1")
    if rate <= 0:
        raise ConfigError("jump rate must be positive")
    lam, m, s = float(rate), float(jump_mean), float(jump_std)

    def exponent(xib):
        xi = xib[..., 0]
        return lam * (1.0 - np.exp(1j * m * xi - 0.5 * s * s * xi * xi))

    return _levy_family(
        "compound_poisson",
        1,
        exponent,
        {"rate": lam, "jump_mean": m, "jump_std": s},
        radial=(m == 0.0),
    )


def zero_symbol(dimension: int = 1) -> SymbolModel:
    def exponent(xib):
        return np.zeros(xib.shape[:-1], dtype=complex)

    return _levy_family("zero", dimension, exponent, {}, radial=True)


# ---------------------------------------------------------------------------
# stable-like


def stable_like_constant(alpha: float, dimension: int) -> float:
    """Normalizing constant for the density C * |z| ** -(d + alpha) whose
    Levy-Khintchine integral is exactly |xi| ** alpha."""
    if not 0.0 < alpha < 2.0:
        raise ConfigError(f"order must lie in (0, 2), got {alpha}")
    d = int(dimension)
    if d < 1:
        raise ConfigError("dimension must be a positive integer")
    from scipy import special

    num = alpha * 2.0 ** (alpha - 1.0) * special.gamma((alpha + d) / 2.0)
    den = math.pi ** (d / 2.0) * special.gamma(1.0 - alpha / 2.0)
    return float(num / den)


def stable_like_symbol(
    alpha,
    alpha_min: float,
    alpha_max: float,
    dimension: int = 1,
    *,
    name: str = "stable-like",
) -> SymbolModel:
    """Variable-order model p(x, xi) = |xi| ** alpha(x).

    ``alpha`` is a number, an expression string in x (x1..xd) or a callable
    of points; the model is state-free when alpha cannot read x.  The
    declared band is validated on a coarse sample of x.
    """
    if not (0.0 < alpha_min <= alpha_max < 2.0):
        raise ConfigError(
            f"order band must satisfy 0 < alpha_min <= alpha_max < 2, got"
            f" [{alpha_min}, {alpha_max}]"
        )
    alpha_fn, x_dependent = _coeff_of_x(alpha, dimension)

    n = 201 if dimension == 1 else 11
    mesh = product_nodes([np.linspace(-10.0, 10.0, n)] * dimension, np.arange(n**dimension))
    sampled = np.asarray(alpha_fn(mesh), dtype=float)
    # negated so that an order that is NaN anywhere on the sample fails it
    if not (sampled.min() >= alpha_min - 1e-9 and sampled.max() <= alpha_max + 1e-9):
        raise ConfigError(
            "sampled order leaves the declared band:"
            f" saw [{sampled.min():.6g}, {sampled.max():.6g}],"
            f" declared [{alpha_min}, {alpha_max}]"
        )

    spec = StableLikeSpec(
        alpha=alpha_fn,
        alpha_min=float(alpha_min),
        alpha_max=float(alpha_max),
    )

    def evaluator(xp, xip):
        # an expression reads x unbroadcast, an open grid by coordinates, so
        # alpha is computed once per state; a callable gets x as an array
        a = np.asarray(alpha_fn(xp if isinstance(alpha, str) else np.asarray(xp)), dtype=float)
        rho = np.sqrt(np.sum(xip * xip, axis=-1))
        shape = np.broadcast_shapes(np.shape(xp), np.shape(xip))[:-1]
        return np.broadcast_to(rho**a, shape).astype(complex)

    return SymbolModel(
        kind="stable_like",
        dimension=dimension,
        eval_data=spec,
        name=name,
        conservative=True,
        x_dependent=x_dependent,
        radial_in_xi=True,
        evaluator=evaluator,
    )


# ---------------------------------------------------------------------------
# subordination and symmetrization


def subordinate(base: SymbolModel, f, growth_constant: float = 1.0, *, name: str = "") -> SymbolModel:
    """Compose a state-free real exponent with a Bernstein function:
    p(x, xi) = f(x, psi(xi)).

    ``f`` may be a BernsteinSpec, a number, an expression in (x..., s), or
    a callable (x_pts, s) -> array; the model is state-free when f is a
    number or an expression that names no x variable; a constant f is
    broadcast to the shape of s.  Monotonicity, concavity, f(x, 0) = 0 and
    the declared growth are checked on a sampled grid.
    """
    if base.x_dependent:
        raise ConfigError("subordination needs a state-free base exponent")
    d = base.dimension

    probe = np.stack([np.linspace(-7.3, 7.9, 23)] * d, axis=-1)
    base_vals = base.evaluator(np.zeros(d), probe)
    if np.max(np.abs(np.imag(base_vals))) > 1e-10 * (1.0 + np.max(np.abs(base_vals))):
        raise ConfigError("subordination needs a real base exponent")

    if isinstance(f, BernsteinSpec):
        spec, x_dependent = f, True
    else:
        fn, x_dependent = _coeff_of_x(f, d, extra=("s",))
        spec = BernsteinSpec(fn=fn, growth_constant=float(growth_constant))

    # sampled Bernstein checks in the second argument
    s_grid = np.linspace(0.0, 40.0, 81)
    x_check = np.stack([np.linspace(-3.0, 3.0, 7)] * d, axis=-1)
    for xrow in x_check:
        vals = np.asarray(spec.fn(np.broadcast_to(xrow, (s_grid.size, d)), s_grid), dtype=float)
        vals = np.broadcast_to(vals, s_grid.shape)  # a constant f gives one value
        if abs(vals[0]) > 1e-9:
            raise ConfigError(f"f(x, 0) = {vals[0]:.3g} is not 0 at x = {xrow}")
        diffs = np.diff(vals)
        if diffs.min() < -1e-9:
            raise ConfigError(f"f(x, s) decreases in s near x = {xrow}")
        if np.diff(diffs).max() > 1e-9:
            raise ConfigError(f"f(x, s) is not concave in s near x = {xrow}")
        if np.max(np.abs(vals) - spec.growth_constant * (1.0 + s_grid)) > 1e-9:
            raise ConfigError("f exceeds its declared linear growth on the sample grid")

    base_eval = base.evaluator

    def evaluator(xp, xip):
        xb, xib = np.broadcast_arrays(xp, xip)
        s = np.real(base_eval(xb, xib))
        val = np.asarray(spec.fn(xb, s), dtype=complex)
        return val if val.shape == s.shape else np.broadcast_to(val, s.shape).copy()

    return SymbolModel(
        kind="subordinated",
        dimension=d,
        eval_data={"base": base, "bernstein": spec},
        name=name or f"subordinated({base.name})",
        conservative=True,
        x_dependent=x_dependent,
        radial_in_xi=base.radial_in_xi,
        evaluator=evaluator,
    )


def symmetrize(model: SymbolModel) -> SymbolModel:
    """Symbol of the locally symmetrized process: 2 * Re p(x, xi / 2)."""
    base_eval = model.evaluator

    def evaluator(xp, xip):
        return 2.0 * np.real(base_eval(xp, 0.5 * xip))

    return SymbolModel(
        kind="symmetrized",
        dimension=model.dimension,
        eval_data={"base": model},
        name=f"symmetrized({model.name})",
        conservative=model.conservative,
        x_dependent=model.x_dependent,
        radial_in_xi=model.radial_in_xi,
        evaluator=evaluator,
    )


# ---------------------------------------------------------------------------
# Levy-Khintchine quadrature

_QUAD_OPTS = {"epsabs": 1e-11, "epsrel": 1e-10, "limit": 200}


def _one_minus_kernel(d: int, s):
    """1 - (spherical average of cos(s * u1)), evaluated without cancellation."""
    s = np.asarray(s, dtype=float)
    if d == 1:
        return 2.0 * np.sin(0.5 * s) ** 2
    small = np.abs(s) < 1e-3
    s2 = s * s
    if d == 2:
        from scipy import special

        series = s2 / 4.0 * (1.0 - s2 / 16.0 * (1.0 - s2 / 36.0))
        with np.errstate(invalid="ignore"):
            direct = 1.0 - special.j0(s)
        return np.where(small, series, direct)
    if d == 3:
        series = s2 / 6.0 * (1.0 - s2 / 20.0 * (1.0 - s2 / 42.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            direct = 1.0 - np.sin(s) / np.where(s == 0.0, 1.0, s)
        return np.where(small, series, direct)
    raise ConfigError("radial jump quadrature supports dimensions 1 to 3")


def _sin_defect(v):
    """v - sin(v) without cancellation for small v."""
    v = np.asarray(v, dtype=float)
    small = np.abs(v) < 1e-3
    v2 = v * v
    series = v**3 / 6.0 * (1.0 - v2 / 20.0 * (1.0 - v2 / 42.0))
    return np.where(small, series, v - np.sin(v))


def _quad(f, a, b, **kw):
    from scipy import integrate

    opts = dict(_QUAD_OPTS)
    opts.update(kw)
    if "weight" in opts and b is np.inf:
        # QUADPACK's Fourier path takes an absolute target and its own
        # cycle limit
        opts.pop("epsrel", None)
        opts.pop("limit", None)
        opts["limlst"] = 300
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = integrate.quad(f, a, b, **opts)
    return val, err


def _j0_tail(f, rho, eps):
    """integral_1^inf f(r) * J0(rho * r) dr by summing oscillation blocks."""
    from scipy import special

    total, err_total = 0.0, 0.0
    a = 1.0
    block = max(np.pi / rho, 0.5)
    for _ in range(4000):
        b = a + block
        val, err = _quad(lambda r: f(r) * special.j0(rho * r), a, b)
        total += val
        err_total += err
        if abs(val) < eps and a > 10.0 / rho:
            break
        a = b
    return total, err_total


#: accuracy targets of the Levy-Khintchine quadrature
LEVY_REL_TOL = 1e-8
LEVY_ABS_TOL = 1e-12


class _LevyEvaluator:
    """Scalar-core evaluator for levy_characteristics models."""

    def __init__(self, chars: LevyCharacteristics, dimension: int):
        d = dimension
        if d > 1 and chars.jump_density is not None and not chars.radial:
            raise ConfigError(
                "non-radial jump densities are supported in dimension 1 only"
            )
        if not (0.0 < chars.singularity_exponent < 2.0):
            raise ConfigError("singularity exponent must lie in (0, 2)")
        self.chars = chars
        self.d = d
        # upper limit for the exponential-scale inner integrals: far enough
        # out that the declared decay e^{-u (2 - alpha)} leaves ~1e-16
        # relative mass, but never so far that n(e^{-u}) ~ e^{u (d + alpha)}
        # overflows; the truncated mass is charged to the error estimate
        ae = chars.singularity_exponent
        self.u_max = min(37.0 / (2.0 - ae), 600.0 / (d + ae))
        self.near_decay = 2.0 - ae
        self.kill, kill_x = _coeff_of_x(chars.kill, d)
        for key, shape in (("drift", "vector"), ("diffusion", "matrix")):
            if d > 1 and isinstance(getattr(chars, key), str):
                raise ConfigError(
                    f"levy {key} may be an expression string only in dimension 1;"
                    f" in dimension {d} give a constant {shape}"
                )
        # a constant drift vector or diffusion matrix is state-free; any
        # other drift or diffusion is one coefficient
        (self.drift, drift_x), (self.diffusion, diff_x) = (
            ((lambda x, m=np.asarray(v, float): m), False) if np.ndim(v) else _coeff_of_x(v, d)
            for v in (chars.drift, chars.diffusion)
        )
        self.density, density_x = None, False
        if chars.jump_density is not None:
            var = ("r",) if chars.radial else ("z",)
            self.density, density_x = _coeff_of_x(chars.jump_density, d, extra=var)
        self.x_dependent = kill_x or drift_x or diff_x or density_x
        # the jump measure is integrated along half-lines r -> n(x, s r),
        # r > 0: a radial density is the one side s = 1 weighted by the
        # sphere area, a signed d = 1 density the two sides s = 1 and s = -1
        self.sides = (1.0,) if chars.radial else (1.0, -1.0)
        self.side_weight = surface_area(d) if chars.radial else 1.0

    def integrability_witness(self, x) -> float:
        """integral of min(1, r^2) against the jump measure at x; must be finite."""
        if self.density is None:
            return 0.0
        d, n, u_hi = self.d, self.density, self.u_max
        total = 0.0
        for s in self.sides:
            fn = lambda u, s=s: np.exp(-u * (d + 2)) * n(x, s * math.exp(-u))
            # on the exponential scale an integrand still growing at the
            # truncation point means the small-jump second moment diverges
            # (or the declared singularity exponent understates the blow-up)
            probes = [float(fn(u_hi * f)) for f in (0.5, 0.75, 1.0)]
            if probes[0] < probes[1] < probes[2]:
                raise ConfigError(
                    "jump measure fails the min(1, |z|^2) integrability check"
                )
            near, _ = _quad(fn, 0.0, u_hi)
            far, _ = _quad(lambda r, s=s: r ** (d - 1) * n(x, s * r), 1.0, np.inf)
            total = total + near + far
        total = self.side_weight * total
        if not np.isfinite(total):
            raise ConfigError("jump measure fails the min(1, |z|^2) integrability check")
        return float(total)

    def _jump_real(self, x, rho: float):
        """Real jump part at |xi| = rho, and the error terms of its sides
        before the side weight."""
        d, n = self.d, self.density
        total, errs = 0.0, []
        for s in self.sides:
            side = lambda r, s=s: n(x, s * r)
            near_fn = lambda u: (
                _one_minus_kernel(d, math.exp(-u) * rho) * side(math.exp(-u)) * math.exp(-u * d)
            )
            near, e = _quad(near_fn, 0.0, self.u_max)
            errs.append(e)
            errs.append(abs(float(near_fn(self.u_max))) / self.near_decay)
            mass, e = _quad(lambda r: r ** (d - 1) * side(r), 1.0, np.inf)
            errs.append(e)
            if d == 1:
                osc, e = _quad(side, 1.0, np.inf, weight="cos", wvar=rho)
            elif d == 2:
                osc, e = _j0_tail(lambda r: r * side(r), rho, LEVY_ABS_TOL)
            else:
                osc, e = _quad(lambda r: r * side(r) / rho, 1.0, np.inf, weight="sin", wvar=rho)
            errs.append(e)
            total += near + mass - osc
        return self.side_weight * total, errs

    def _jump_imag(self, x, xi: float):
        """Imaginary jump part of a signed d = 1 density, and its error terms."""
        n = self.density
        rho = abs(xi)
        sgn = 1.0 if xi > 0 else -1.0
        errs = []
        ddens = lambda r: n(x, r) - n(x, -r)
        defect_fn = lambda u: (
            _sin_defect(math.exp(-u) * rho) * ddens(math.exp(-u)) * math.exp(-u)
        )
        defect, e = _quad(defect_fn, 0.0, self.u_max)
        errs.append(e)
        errs.append(abs(float(defect_fn(self.u_max))) / self.near_decay)
        tail, e = _quad(ddens, 1.0, np.inf, weight="sin", wvar=rho)
        errs.append(e)
        return sgn * (defect - tail), errs

    def eval_scalar(self, xv: np.ndarray, xiv: np.ndarray) -> complex:
        d = self.d
        c = float(np.asarray(self.kill(xv)))
        b = np.broadcast_to(np.asarray(self.drift(xv), float), (d,))
        a = np.asarray(self.diffusion(xv), float)
        if a.ndim == 0:
            a = float(a) * np.eye(d)
        a = a.reshape(d, d)
        val = c - 1j * float(b @ xiv) + 0.5 * float(xiv @ a @ xiv)
        if self.density is None:
            return val
        rho = float(np.linalg.norm(xiv))
        if rho == 0.0:
            return val
        jump_re, errs = self._jump_real(xv, rho)
        jump_im = 0.0
        if not (self.chars.radial or self.chars.symmetric):
            jump_im, im_errs = self._jump_imag(xv, float(xiv[0]))
            errs += im_errs
        val = val + jump_re + 1j * jump_im
        # the imaginary terms only arise for signed densities, of weight 1
        err = self.side_weight * sum(errs)
        budget = 50.0 * (LEVY_REL_TOL * max(1.0, abs(val)) + LEVY_ABS_TOL)
        if err > budget:
            raise NumericalError(
                f"symbol quadrature error estimate {err:.3e} exceeds budget {budget:.3e}",
                error_estimate=err,
            )
        return val

    def __call__(self, xp, xip):
        xb, xib = np.broadcast_arrays(xp, xip)
        lead = xb.shape[:-1]
        flat_x = xb.reshape(-1, self.d)
        flat_xi = xib.reshape(-1, self.d)
        out = np.empty(flat_x.shape[0], dtype=complex)
        for i in range(flat_x.shape[0]):
            out[i] = self.eval_scalar(flat_x[i], flat_xi[i])
        return out.reshape(lead)


def levy_symbol(
    chars: LevyCharacteristics,
    dimension: int = 1,
    *,
    name: str = "levy-characteristics",
) -> SymbolModel:
    """Assemble a symbol from Levy characteristics via adaptive quadrature.

    The jump integral is split at |z| = 1; the inner part is mapped to an
    exponential scale where the integrand decays at rate set by the declared
    singularity exponent, truncated once that decay leaves the mass below
    double precision (the truncated remainder is charged to the error
    estimate), and trigonometric kernels are evaluated in cancellation-free
    form, to the module's LEVY_REL_TOL and LEVY_ABS_TOL.  A min(1, |z|^2)
    integrability witness is computed at a probe point on construction.
    The model is state-free when none of kill, drift, diffusion and jump
    density can read x (see :class:`LevyCharacteristics`).
    """
    ev = _LevyEvaluator(chars, dimension)
    ev.integrability_witness(np.zeros(dimension))
    drift = chars.drift
    radial = chars.radial and not (
        callable(drift) or isinstance(drift, str) or np.any(np.asarray(drift, float))
    )
    kill_at_origin = float(np.asarray(ev.kill(np.zeros((1, dimension)))).reshape(-1)[0])
    return SymbolModel(
        kind="levy_characteristics",
        dimension=dimension,
        eval_data=chars,
        name=name,
        conservative=not (callable(chars.kill) or isinstance(chars.kill, str))
        and kill_at_origin == 0.0,
        x_dependent=ev.x_dependent,
        radial_in_xi=radial,
        evaluator=ev,
    )


# ---------------------------------------------------------------------------
# sampled model validation


def validate_model(model: SymbolModel, n_samples: int = 200, seed: int = 0, tol: float = 1e-8):
    """Spot-check structural identities at random points.

    Verifies Hermitian symmetry p(x, -xi) = conj p(x, xi), nonnegative real
    part, and p(x, 0) = 0 when the model declares itself conservative.
    Returns a dict of worst-case defects.
    """
    rng = np.random.default_rng(seed)
    d = model.dimension
    xs = rng.uniform(-5.0, 5.0, size=(n_samples, d))
    xis = rng.uniform(-10.0, 10.0, size=(n_samples, d))
    plus = model.evaluator(xs, xis)
    minus = model.evaluator(xs, -xis)
    herm = float(np.max(np.abs(minus - np.conj(plus))))
    min_re = float(np.min(np.real(plus)))
    zero_off = float(np.max(np.abs(model.evaluator(xs, np.zeros((n_samples, d))))))
    scale = 1.0 + float(np.max(np.abs(plus)))
    return {
        "hermitian_defect": herm,
        "hermitian_ok": herm <= tol * scale,
        "min_real_part": min_re,
        "nonnegative_ok": min_re >= -tol * scale,
        "zero_offset": zero_off,
        "conservative_ok": (not model.conservative) or zero_off <= tol * scale,
    }
