"""Radial quadrature and divergence classification for frequency integrals.

The criteria in this package reduce to integrals of radial-ish functions of
xi that may blow up at the origin (transience) or fail to decay at infinity
(local times, heat kernel bounds).  Divergence is decided on dyadic shells:
the shell with signed index j covers radii [R * 2^j, R * 2^(j+1)], negative
j walking into the origin and nonnegative j out to infinity.  Contributions
of regularly varying integrands form near-geometric sequences, so a ratio
test on the recorded shells is reliable; anything without clear geometric
structure is reported as undetermined rather than guessed.

Each shell is integrated with QUADPACK's 21-point Gauss-Kronrod rule and
its embedded 10-point Gauss rule (qk21), with QUADPACK's error estimate.
All nodes of all live subintervals of a shell go to the integrand in one
array call; only the subintervals whose error misses their share of the
budget are bisected for the next call.  Each subinterval is reduced over
its 21 nodes on its own, by numpy's einsum and never a BLAS product, so
its sums have the same bits whatever else is reduced with them and under
every BLAS kernel.  The integrand gets the nodes in one shape in every
dimension, component-last points of shape (n, k, d): each radius times k
unit directions (:func:`on_spheres`).  A family of integrands (the heat
bound at many times, say) walks the shells once: the integrand returns
one row per member, and every call serves all members still walking.
Members may have radii of their own.  Radii that differ by a power of
two share their shells, so they share one ladder, walked once in each
direction; the walks of every ladder run in lockstep, and each round makes
one call to the integrand for the nodes of all of them and one qk21
reduction for all of their pieces.  A walk also asks for the first
passes of the shells it is sure to take, as many as fit in ROUND_VALUES
node values, so a walk of few rows takes its first shells in one round.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "IntegralResult",
    "integrate_radial",
    "classify_improper",
    "classify_family",
    "direction_set",
]

#: shells examined before a divergence verdict is allowed
INNER_SHELLS = 40
OUTER_SHELLS = 40
#: extra shells granted while chasing a convergent tail to tolerance
MAX_EXTRA_SHELLS = 360
#: last-k window for the ratio tests
RATIO_WINDOW = 8
#: a_{k+1} >= (1 - RATIO_SLACK) * a_k across the window means "not decaying"
RATIO_SLACK = 0.01
#: absolute floor of a walk's tail tolerance
ABS_TOL = 1e-12
#: most node values (rows x node radii x directions) a walk asks for in a
#: lockstep round, unless its next pass alone holds more
#: (:func:`_first_passes`).  More let the walks of 161 heat times take two
#: shells a round, which raised the peak memory
ROUND_VALUES = 6 << 10


@dataclass
class IntegralResult:
    """Outcome of an improper integral.

    ``value`` is finite for convergent results, ``math.inf`` for divergent
    ones (the explicit flag is the classification, never a floating
    overflow), and ``nan`` when undetermined.  ``annulus_trace`` records
    (shell index, shell integral) pairs in increasing index order.
    """

    value: float
    abs_error_estimate: float
    classification: str  # convergent | divergent_at_zero | divergent_at_infinity | undetermined
    annulus_trace: list = field(default_factory=list)

    @property
    def infinite(self) -> bool:
        return self.classification in ("divergent_at_zero", "divergent_at_infinity")

    def to_dict(self) -> dict:
        return {
            "value": None if not np.isfinite(self.value) else self.value,
            "abs_error_estimate": self.abs_error_estimate
            if np.isfinite(self.abs_error_estimate)
            else None,
            "classification": self.classification,
            "annulus_trace": [[int(j), float(v)] for j, v in self.annulus_trace],
        }


def positive_radius(r, message: str = "radius must be positive") -> float:
    """``r`` as a float; ConfigError with ``message`` unless it is finite
    and positive."""
    r = float(r)
    if not (math.isfinite(r) and r > 0):
        raise ConfigError(message)
    return r


def surface_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d, by the exact recursion
    S_d = 2 pi / (d - 2) * S_{d-2} from S_1 = 2 and S_2 = 2 pi."""
    if d < 1:
        raise ValueError("the sphere's dimension must be a positive integer")
    area = 2.0 if d % 2 else 2.0 * math.pi
    for k in range(4 - d % 2, d + 1, 2):
        area *= 2.0 * math.pi / (k - 2)
    return area


def direction_set(d: int) -> np.ndarray:
    """Deterministic unit directions used to average non-radial integrands.

    d = 1 uses both signs, d = 2 equispaced angles, d = 3 a Fibonacci
    sphere; sizes are fixed so results are reproducible.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        k = np.arange(1024)
        th = 2.0 * np.pi * k / 1024
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if d == 3:
        n = 1024
        k = np.arange(n) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        z = 1.0 - 2.0 * k / n
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise ValueError("direction sets are provided for dimensions 1 to 3")


def integrate_radial(
    f,
    d: int,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
) -> IntegralResult:
    """Integrate a radial profile over the annulus a <= |xi| <= b.

    ``f`` maps radius to value; the result carries the surface factor, so
    it equals the full d-dimensional integral of f(|xi|).  Failure to reach
    the requested tolerance budget is reported as undetermined, never as a
    silently inaccurate value.
    """
    from scipy import integrate

    surf = surface_area(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = integrate.quad(
            lambda r: f(r) * r ** (d - 1),
            a,
            b,
            epsabs=abs_tol,
            epsrel=rel_tol,
            limit=400,
        )
    val *= surf
    err *= surf
    if not np.isfinite(val):
        return IntegralResult(
            value=math.nan,
            abs_error_estimate=math.nan,
            classification="undetermined",
            annulus_trace=[],
        )
    budget = 1000.0 * (rel_tol * max(1.0, abs(val)) + abs_tol)
    if err > budget:
        raise NumericalError(
            f"radial quadrature error estimate {err:.3e} exceeds budget {budget:.3e}",
            error_estimate=err,
        )
    return IntegralResult(
        value=float(val),
        abs_error_estimate=float(err),
        classification="convergent",
        annulus_trace=[],
    )


def on_spheres(f, r: np.ndarray, d: int, radial: bool, n: int | None = None, rows: tuple = ()):
    """``f`` at the points r_i u_j, read as shape ``rows + (len(r), k)``.

    The directions u_j are the e_1 row when ``radial`` (k = 1), else every
    direction of :func:`direction_set`, or ``n`` of them spread evenly
    over it.  ``f`` gets all points in one (len(r), k, d) array and
    answers with one value per point for each of ``rows``; in d = 1 the
    answer may keep the trailing unit axis that
    :func:`~fellerkit.symbols.as_points` leaves.
    """
    dirs = np.eye(d)[:1] if radial else direction_set(d)
    if n is not None:
        dirs = dirs[:: max(1, len(dirs) // n)]
    points = r[:, None, None] * dirs
    return np.reshape(f(points), rows + points.shape[:-1])


def _round(f, rows_of, m: int, d: int, radial: bool):
    """The function that answers a lockstep round.

    ``answer(requests)`` takes the requests ``(r, idx, half)`` of every
    walk of the round (:func:`_walk`) and makes one call to ``f``, by
    :func:`on_spheres`, at the node radii ``r`` of all of them, joined;
    node radii that two requests share bit for bit (one shell that two
    walks ask for) are joined once.  A request's share is its rows ``idx``
    at each of its radii, averaged over the directions, times r^(d-1).
    One :func:`_gauss_kronrod` call then reduces the (row, piece) cells of
    every request, and each request gets back its values and errors, each
    (len(idx), len(half)), and whether ``f`` is not finite at one of its
    nodes.  Without ``rows_of``, ``f`` returns all m rows, a nonfinite
    value makes its cell nonfinite, and that flag is False; with it, ``f``
    returns one value per point, ``rows_of`` computes just the rows
    ``idx`` of each request, and the flag says whether a value it was
    given is not finite.
    """
    shared = rows_of is not None
    if not shared:
        def rows_of(values, idx):
            return values[idx]

    def answer(requests):
        starts, joined, n = {}, [], 0  # node radii -> where they start among the points
        for r, _, _ in requests:
            if starts.setdefault(r.tobytes(), n) == n:
                joined.append(r)
                n += len(r)
        values = on_spheres(f, np.concatenate(joined), d, radial, rows=() if shared else (m,))
        cells, halves, flags = [], [], []
        for r, idx, half in requests:
            start = starts[r.tobytes()]
            at = values[..., start : start + len(r), :]
            vals = rows_of(at, idx)
            flags.append(shared and not np.isfinite(at).all())
            if radial:
                vals = vals[..., 0]
            else:
                with np.errstate(invalid="ignore"):  # inf - inf: a nonfinite shell
                    vals = vals.mean(axis=-1)
            cells.append((vals * r ** (d - 1)).reshape(-1, len(_GK_NODES)))
            halves.append(np.repeat(half[None], len(idx), axis=0).ravel())
        kronrod, error = _gauss_kronrod(np.concatenate(cells)[None], np.concatenate(halves))
        ends = list(itertools.accumulate(len(c) for c in cells))
        return [
            (kronrod[0, a:b].reshape(len(idx), -1), error[0, a:b].reshape(len(idx), -1), bad)
            for a, b, bad, (_, idx, _) in zip([0] + ends, ends, flags, requests)
        ]

    return answer


# QUADPACK's qk21 rule on [-1, 1], rounded to double: per node x >= 0 (the
# rule is symmetric), the 21-point Kronrod weight and the weight of the
# embedded 10-point Gauss rule, which is zero on Kronrod-only nodes
_QK21 = np.array([
    [0.9956571630258081, 0.011694638867371874, 0.0],
    [0.9739065285171717, 0.032558162307964725, 0.06667134430868814],
    [0.9301574913557082, 0.054755896574351995, 0.0],
    [0.8650633666889845, 0.07503967481091996, 0.1494513491505806],
    [0.7808177265864169, 0.0931254545836976, 0.0],
    [0.6794095682990244, 0.10938715880229764, 0.21908636251598204],
    [0.5627571346686047, 0.12349197626206584, 0.0],
    [0.4333953941292472, 0.13470921731147334, 0.26926671930999635],
    [0.2943928627014602, 0.14277593857706009, 0.0],
    [0.14887433898163122, 0.14773910490133849, 0.29552422471475287],
    [0.0, 0.1494455540029169, 0.0],
])
_GK_NODES = np.concatenate([-_QK21[:10, 0], _QK21[::-1, 0]])
_GK_WEIGHTS = np.concatenate([_QK21[:10, 1:], _QK21[::-1, 1:]]).T.copy()  # rows: Kronrod, Gauss
_GK_WK = _GK_WEIGHTS[0]
_EPS = np.finfo(float).eps
#: a shell is accepted when its summed error estimate is within
#: max(SHELL_ABS_TOL, SHELL_REL_TOL * |shell integral|)
SHELL_ABS_TOL = 1e-13
SHELL_REL_TOL = 1e-9
#: most subintervals one shell may be cut into
SHELL_PIECES = 200


def _gauss_kronrod(vals: np.ndarray, half: np.ndarray):
    """qk21 on pieces of half-width ``half`` (shape (p,)) from the node
    values ``vals`` (shape (k, p, 21), one row per integrand): the Kronrod
    values and QUADPACK's error estimates, each (k, p).  A piece with a
    nonfinite node value gets a nonfinite value and an infinite error.

    Each piece is reduced over its 21 nodes on its own, by ``np.einsum``
    without ``optimize`` (which would hand the sums to BLAS), so every
    (row, piece) cell has the same bits whatever else is in the block and
    under every BLAS kernel.
    """
    resabs = np.einsum("kpn,n->kp", np.abs(vals), _GK_WK)
    # a sum of nonnegative terms: finite just when every node value is
    # (short of overflow, where the error below is infinite anyway)
    finite = np.isfinite(resabs)
    # a nonfinite piece meets inf - inf below, and gets an infinite error
    with contextlib.nullcontext() if finite.all() else np.errstate(invalid="ignore"):
        kronrod, gauss = np.einsum("kpn,wn->wkp", vals, _GK_WEIGHTS)
        resasc = np.einsum("kpn,n->kp", np.abs(vals - 0.5 * kronrod[..., None]), _GK_WK)
        err = np.abs(kronrod - gauss)
        # resasc * min(1, (200 |K - G| / resasc)^1.5), floored at 50 eps resabs
        ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0)
        err = np.where(resasc > 0, resasc * np.minimum(1.0, ratio**1.5), err)
        err = np.maximum(err, 50.0 * _EPS * resabs) * half
    err[~finite] = math.inf
    return kronrod * half, err


def _masked_sums(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sum of each row of ``x`` over its ``mask``, added in the order numpy
    sums that row's selected entries on their own: a row that selects all
    of its entries, or at most two, is summed with zeros in the gaps,
    which change nothing; any other row sums its selection alone."""
    sums = np.where(mask, x, 0.0).sum(axis=1)
    if mask.shape[1] > 2:
        for i in np.flatnonzero((mask.sum(axis=1) > 2) & ~mask.all(axis=1)):
            sums[i] = x[i, mask[i]].sum()
    return sums


def _pieces(los: np.ndarray, his: np.ndarray):
    """The qk21 nodes of the pieces [los, his], raveled, and the pieces'
    half-widths."""
    half = 0.5 * (his - los)
    return ((0.5 * (his + los))[:, None] + half[:, None] * _GK_NODES).ravel(), half


def _shell_integrals(rows, d: int, lo: float, hi: float, first):
    """Integral of family row i over lo <= r <= hi, times the sphere area,
    for each row i in ``rows``: the values, the error estimates, and
    whether a pass of the row met a nonfinite value of ``f``.

    ``first`` is the answer to the first pass, the piece [lo, hi], for
    ``rows``; the walk asks for it, maybe rounds ahead.  A generator: each
    later pass yields a list of one request, the radii of its nodes, the
    rows it needs there and the half-width of each piece, and is sent back
    a list of one answer, the qk21 values and error estimates of each
    (row, piece) cell, each of shape (rows, pieces)
    (:func:`_gauss_kronrod`), and the nonfinite flag (:func:`_round`).
    The rows share one list of pieces, so a pass is one request for all of
    them.  Each row keeps its own live pieces and runs the rule of a shell
    integrated alone: it is done once its summed error is within
    max(SHELL_ABS_TOL, SHELL_REL_TOL |value|) or its value is not finite;
    else its pieces whose error exceeds their share of the budget (by
    length) are bisected, and when none does it is done as it stands.  A
    piece is bisected when any row still open bisects it, and SHELL_PIECES
    caps the shared pieces, done and live.
    """
    surf = surface_area(d)
    rows = np.asarray(rows)
    value_out = np.empty(len(rows))
    error_out = np.empty(len(rows))
    pos = np.arange(len(rows))  # the open rows, as positions in ``rows``
    live = np.ones((len(rows), 1), dtype=bool)  # live[i, p]: piece p is open for row pos[i]
    done_val = np.zeros(len(rows))
    done_err = np.zeros(len(rows))
    los, his = np.array([lo]), np.array([hi])
    n_done = 0
    vals, errs, bad = first
    met = np.full(len(rows), bad)
    while True:
        value = done_val + _masked_sums(vals, live)
        error = done_err + _masked_sums(errs, live)
        budget = np.maximum(SHELL_ABS_TOL, SHELL_REL_TOL * np.abs(value))
        done = (error <= budget) | ~np.isfinite(value)
        if not done.all():
            rejected = live & (errs > budget[:, None] * (his - los) / (hi - lo))
            done |= ~rejected.any(axis=1)
            split = rejected[~done].any(axis=0)
            if n_done + len(los) + int(split.sum()) > SHELL_PIECES:
                done[:] = True
        value_out[pos[done]] = surf * value[done]
        error_out[pos[done]] = surf * error[done]
        if done.all():
            return value_out, error_out, met
        go = ~done
        kept = live[go] & ~rejected[go]
        done_val = done_val[go] + _masked_sums(vals[go], kept)
        done_err = done_err[go] + _masked_sums(errs[go], kept)
        n_done += len(los) - int(split.sum())
        mids = 0.5 * (los[split] + his[split])
        los, his = np.concatenate([los[split], mids]), np.concatenate([mids, his[split]])
        halves = rejected[go][:, split]
        live = np.concatenate([halves, halves], axis=1)
        pos = pos[go]
        nodes, half = _pieces(los, his)
        ((vals, errs, bad),) = yield [(nodes, rows[pos], half)]
        met[pos] |= bad


def _nondecreasing(window) -> bool:
    """Whether the trailing RATIO_WINDOW shell values ``window`` fail to
    decrease by more than RATIO_SLACK from one to the next."""
    # a window that has decayed to exact zero is evidence of convergence,
    # never of divergence
    if len(window) < RATIO_WINDOW or window[-1] <= 0.0:
        return False
    return all(b >= (1.0 - RATIO_SLACK) * a for a, b in zip(window, window[1:]))


def _geometric_tail(shells):
    """(tail_estimate, uncertainty) extrapolated from the trailing shell
    window, or None when the window is not cleanly geometric and shrinking."""
    window = [v for _, v in shells[-4:]]
    if len(window) < 4 or any(v < 0 for v in window):
        return None
    if window[-1] == 0.0:
        return 0.0, 0.0
    ratios = [window[i + 1] / window[i] for i in range(3) if window[i] > 0]
    if len(ratios) < 3:
        return None
    q_hi, q_lo = max(ratios), min(ratios)
    if q_hi >= 0.995:
        return None
    a_last = window[-1]
    tail = a_last * q_hi / (1.0 - q_hi)
    uncertainty = tail - a_last * q_lo / (1.0 - q_lo)
    return tail, uncertainty


def _verdict(shells, total: float, rel_tol: float):
    """("divergent", no tail) or ("convergent", tail) for a walk whose
    shells so far sum to ``total``, or None while neither is clear."""
    if _nondecreasing([v for _, v in shells[-RATIO_WINDOW:]]):
        return "divergent", (0.0, 0.0)
    tail = _geometric_tail(shells)
    if tail is not None and tail[0] + tail[1] <= rel_tol * max(abs(total), ABS_TOL) + ABS_TOL:
        return "convergent", tail
    return None


def _first_passes(mantissa, step, min_shells, rung, rows, waiting, first, directions):
    """The requests for the first passes of ``rung`` and of each later
    rung up to the first where a walking row counts its min_shells-th
    shell, in walk order, each for the rows it is sure to have
    (:func:`_walk`), while they hold at most ROUND_VALUES node values,
    rows x node radii x ``directions``; the first request always."""
    last = min(step * (first[i] - rung) for i in rows) + min_shells
    rungs = rung + step * np.arange(max(last, 1))
    nodes, half = _pieces(np.ldexp(mantissa, rungs), np.ldexp(mantissa, rungs + 1))
    nodes = nodes.reshape(len(rungs), -1)
    requests, room = [], ROUND_VALUES
    for n, k in enumerate(rungs.tolist()):
        known = sorted(rows + [j for j in waiting if step * (k - first[j]) >= 0])
        room -= len(known) * nodes.shape[1] * directions
        if requests and room < 0:
            break
        requests.append((nodes[n], np.array(known), half[n : n + 1]))
    return requests


def _walk(
    mantissa: float, step: int, min_shells: int, exponents: dict, d: int, rel_tol: float,
    directions: int,
):
    """Walk the ladder of shells [mantissa 2^J, mantissa 2^(J+1)], the
    rungs J, in direction ``step`` until each row of ``exponents`` has a
    verdict.

    Row i has the radius mantissa 2^e, e = ``exponents[i]``, and joins the
    walk at its own first rung, J = e - 1 inward (``step`` -1) or J = e
    outward (+1); from there it counts its own shells, against min_shells
    plus MAX_EXTRA_SHELLS, and records each under its index j = J - e
    relative to its radius.  A shell mantissa 2^J has the bits of
    radius 2^j, so a row gets the shells, and the result, of its radius
    walked alone.  When no row is walking, the walk goes on at the first
    rung of the next row to join.

    Before its min_shells-th shell a row leaves only on a nonfinite shell,
    so up to the first rung where a walking row may get its verdict, the
    walk knows the rows of each rung, but for those that leave so.  At a
    rung whose first pass it lacks, the walk asks for the first passes of
    as many of those rungs as ROUND_VALUES node values hold, each with its
    rows, ``directions`` per node radius (:func:`_first_passes`), and each
    rung then runs its shell with the rows still walking there, from their
    cells of that answer, so its bits are those of a walk that asks for
    one shell at a time.

    A generator that yields its requests of a round, a list, and is sent
    the answers to them (:func:`_round`).  It returns, per row, its
    shells, status, tail, shell errors and whether it met a nonfinite
    value of ``f`` (:func:`_shell_integrals`).
    """
    shells = {i: [] for i in exponents}
    errs = {i: [] for i in exponents}
    status = dict.fromkeys(exponents, "undetermined")
    tails = dict.fromkeys(exponents, (0.0, 0.0))
    totals = dict.fromkeys(exponents, 0.0)
    met = set()  # the rows whose shells met a nonfinite value of f
    first = {i: e - 1 if step < 0 else e for i, e in exponents.items()}
    waiting = sorted(first, key=lambda i: step * first[i])  # in the order the walk meets them
    exps = set(exponents.values())
    rows = []
    ahead = {}  # rung -> its rows and their first-pass answer
    while rows or waiting:
        if not rows:
            rung = first[waiting[0]]
        while waiting and first[waiting[0]] == rung:
            rows = sorted(rows + [waiting.pop(0)])
        lo, hi = math.ldexp(mantissa, rung), math.ldexp(mantissa, rung + 1)
        if rung not in ahead:
            requests = _first_passes(
                mantissa, step, min_shells, rung, rows, waiting, first, directions
            )
            answers = yield requests
            ahead = {
                rung + step * n: (known, answer)
                for n, ((_, known, _), answer) in enumerate(zip(requests, answers))
            }
        known, (vals, shell_errs, bad) = ahead.pop(rung)
        if len(known) > len(rows):  # a row left on a nonfinite shell
            keep = np.searchsorted(known, rows)
            known, vals, shell_errs = known[keep], vals[keep], shell_errs[keep]
        vals, shell_errs, shell_met = yield from _shell_integrals(
            known, d, lo, hi, (vals, shell_errs, bad)
        )
        met.update(known[shell_met].tolist())
        walking = []
        # one index object per radius: a new int for each row and shell adds up
        index = {e: rung - e for e in exps}
        for i, val, err in zip(rows, vals.tolist(), shell_errs.tolist()):
            errs[i].append(err)
            shells[i].append((index[exponents[i]], val))
            totals[i] += val
            if not math.isfinite(val):
                status[i] = "nonfinite"
                continue
            verdict = None
            if len(shells[i]) >= min_shells:
                verdict = _verdict(shells[i], totals[i], rel_tol)
            if verdict is not None:
                status[i], tails[i] = verdict
            elif len(shells[i]) < min_shells + MAX_EXTRA_SHELLS:
                walking.append(i)
        rows = walking
        rung += step
    return {i: (shells[i], status[i], tails[i], errs[i], i in met) for i in shells}


def classify_family(
    f,
    m: int,
    d: int,
    *,
    radius: float | list[float] = 1.0,
    include_tail: bool | list[bool] = False,
    radial: bool = True,
    rel_tol: float = 1e-6,
    rows_of=None,
) -> list[IntegralResult]:
    """:func:`classify_improper` for m integrands at once, in one lockstep walk.

    ``f`` takes points as :func:`classify_improper` describes, shape
    (n, k, d), and returns an array of shape (m, n, k), one row per
    integrand.  With ``rows_of``, ``f`` instead returns one value per
    point, shape (n, k), shared by every row, and ``rows_of(values, idx)``
    maps a slice of it to the rows ``idx`` (ascending), shape
    (len(idx),) + its shape; a row is then computed only where its own
    walk needs it.  ``rows_of`` may map a nonfinite value to a finite one
    (1 / inf = 0), which is no evidence, so a row whose shells meet a node
    where ``f`` is not finite is undetermined.  In d = 1 either answer may
    keep the trailing unit axis that :func:`~fellerkit.symbols.as_points`
    leaves.

    ``radius`` and ``include_tail`` are one value for every row or one per
    row; a radius must be finite and positive (else ConfigError).  Radii
    that differ by a power of two have the same shells, radius 2^j, so
    they make one ladder, and a walk is one ladder and one direction: the
    inner shells of the ladder's rows, or the outer shells of those with a
    tail.  Each row joins its ladder's walk at its own first shell.  The
    walks run in lockstep: each round makes one call to ``f`` for the
    nodes of every walk still running (once for a shell that two walks
    ask for), and one qk21 reduction for all of them, which answers every
    request of every walk.  A walk asks for its next pass and, while its
    requests hold at most ROUND_VALUES node values, the first passes of
    the shells it is sure to take after it (:func:`_walk`).  The rows of
    a walk share its shells' pieces, and a piece is bisected when any of
    them needs it.  Each row keeps its own shell sums, error budget, ratio
    test, geometric tail and classification, and leaves its walk once it
    has its verdict, so it gets the result its radius would get alone, bit
    for bit, as long as the value of ``f`` at a point does not depend on
    the other points of the call, and unless the shared pieces of a shell,
    which the rows of one ladder share whatever their radii, reach
    SHELL_PIECES before its own would.  A row with a nonfinite value at a
    node of its pieces gets a nonfinite shell; the other rows go on.
    """
    radii = np.broadcast_to(np.asarray(radius, dtype=float), (m,)).tolist()
    radii = [positive_radius(r) for r in radii]
    has_tail = np.broadcast_to(include_tail, (m,)).tolist()
    answer = _round(f, rows_of, m, d, radial)
    directions = 1 if radial else len(direction_set(d))
    ladders = {}  # mantissa -> {row: exponent}
    for i, r in enumerate(radii):
        mantissa, e = math.frexp(r)
        ladders.setdefault(mantissa, {})[i] = e
    inner, outer = {}, {}
    walks = []  # (walk, where it puts its rows' results)
    for mantissa, exponents in ladders.items():
        tailed = {i: e for i, e in exponents.items() if has_tail[i]}
        walks.append((_walk(mantissa, -1, INNER_SHELLS, exponents, d, rel_tol, directions), inner))
        walks.append((_walk(mantissa, +1, OUTER_SHELLS, tailed, d, rel_tol, directions), outer))
    sent = [None] * len(walks)
    while walks:
        asked, running = [], []
        for (walk, results), value in zip(walks, sent):
            try:
                asked.append(walk.send(value))
            except StopIteration as stop:
                results.update(stop.value)
            else:
                running.append((walk, results))
        walks = running
        if asked:
            answers = iter(answer([req for requests in asked for req in requests]))
            sent = [[next(answers) for _ in requests] for requests in asked]

    no_walk = ([], "undetermined", (0.0, 0.0), [], False)
    results = []
    for i in range(m):
        inner_shells, inner_status, inner_tail, inner_errs, inner_met = inner[i]
        outer_shells, outer_status, outer_tail, outer_errs, outer_met = outer.get(i, no_walk)
        trace = inner_shells[::-1] + outer_shells
        if inner_met or outer_met:
            results.append(IntegralResult(math.nan, math.nan, "undetermined", trace))
        elif inner_status in ("divergent", "nonfinite"):
            results.append(IntegralResult(math.inf, math.inf, "divergent_at_zero", trace))
        elif outer_status in ("divergent", "nonfinite"):
            results.append(IntegralResult(math.inf, math.inf, "divergent_at_infinity", trace))
        elif inner_status != "convergent" or (has_tail[i] and outer_status != "convergent"):
            results.append(IntegralResult(math.nan, math.nan, "undetermined", trace))
        else:
            total = 0.0
            for _, v in trace:  # in index order, one addition at a time
                total += v
            total = total + inner_tail[0] + outer_tail[0]
            unc = 0.0
            for err in inner_errs + outer_errs:  # inner shells first, as walked
                unc += err
            unc = unc + inner_tail[1] + outer_tail[1]
            results.append(IntegralResult(float(total), float(unc), "convergent", trace))
    return results


def classify_improper(
    f,
    d: int,
    *,
    radius: float = 1.0,
    include_tail: bool = False,
    radial: bool = True,
    rel_tol: float = 1e-6,
) -> IntegralResult:
    """Classify and (when convergent) evaluate an improper frequency integral.

    Without ``include_tail`` the domain is the ball |xi| <= radius and only
    the origin can cause divergence; with it the domain is all of R^d and
    the outward shells are classified as well.  ``f`` takes component-last
    points of R^d, shape (n, k, d) in every dimension, and returns one
    value per point, shape (n, k) (in d = 1 also (n, k, 1), so a function
    that works elementwise may be passed as it is): radii times e_1
    (k = 1), or with ``radial=False`` radii times every direction of
    :func:`direction_set` (both signs when d = 1), averaged per radius.
    Each shell
    is integrated by the qk21 rule to max(1e-13, 1e-9 |shell|); a
    nonfinite value of ``f`` at a node makes the shell nonfinite and the
    integral divergent.

    Divergence is declared when the trailing RATIO_WINDOW shell
    contributions fail to decrease by more than RATIO_SLACK; convergence
    requires clean geometric decay plus a tail extrapolation within
    rel_tol max(|total|, ABS_TOL) + ABS_TOL.  Everything else is
    undetermined.  This is :func:`classify_family` with a family of one.
    """
    return classify_family(
        f, 1, d, radius=radius, include_tail=include_tail, radial=radial, rel_tol=rel_tol
    )[0]
