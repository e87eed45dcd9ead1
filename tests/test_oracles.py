"""Oracle properties over the isotropic alpha-stable family.

For p(xi) = |xi|^alpha everything is known in closed form:

- |E e^{i<X_t, xi>}| = exp(-t |xi|^alpha), which the uniform bound
  exp(-(t/16) q_inf(2 xi)) must never undercut;
- the integral of 1 / q_inf over a ball is finite iff alpha < d
  (transience), and the integral of 1 / (1 + q_inf) over R^d is finite
  iff alpha > d (local times, so only d = 1 can qualify);
- the integral of |xi|^-beta over a ball is finite iff beta < d.

The classifier walks dyadic shells whose contributions shrink by 2^-(d - a)
per shell, so exponents within 0.05 of the boundary exhaust the shell
budget; the properties keep a margin of 0.06 on the convergent side.
The examples are derandomized, so every run draws the same ones.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fellerkit as fk
from fellerkit.quadrature import classify_improper

MARGIN = 0.06

oracle = settings(max_examples=30, deadline=None, derandomize=True)
dims = st.integers(1, 3)


def _exponent_in(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@oracle
@given(
    d=dims,
    alpha=_exponent_in(0.05, 2.0),
    t=_exponent_in(0.0, 10.0),
    data=st.data(),
)
def test_char_fn_bound_never_undercuts_the_exact_char_fn(d, alpha, t, data):
    xi = np.array(data.draw(st.lists(_exponent_in(-20.0, 20.0), min_size=d, max_size=d)))
    env = fk.build_envelope(fk.alpha_stable(alpha, d))
    point = xi[0] if d == 1 else xi
    exact = math.exp(-t * float(np.linalg.norm(xi)) ** alpha)
    assert fk.char_fn_bound(env, t, point) >= exact


@oracle
@given(d=dims, data=st.data())
def test_transience_holds_exactly_below_the_dimension(d, data):
    alpha = data.draw(
        st.one_of(_exponent_in(0.05, min(d - MARGIN, 2.0)), _exponent_in(min(d, 2.0), 2.0))
        if d < 3
        else _exponent_in(0.05, 2.0)
    )
    env = fk.build_envelope(fk.alpha_stable(alpha, d))
    verdict = fk.test_transience(env).verdict
    if alpha <= d - MARGIN:
        assert verdict == "holds"
    else:
        assert alpha >= d and verdict != "holds"


@oracle
@given(alpha=st.one_of(_exponent_in(0.05, 1.0), _exponent_in(1.0 + MARGIN, 2.0)))
def test_local_times_hold_exactly_above_one_in_dimension_one(alpha):
    env = fk.build_envelope(fk.alpha_stable(alpha, 1))
    verdict = fk.test_local_times(env).verdict
    if alpha >= 1.0 + MARGIN:
        assert verdict == "holds"
    else:
        assert verdict != "holds"


@oracle
@given(d=dims, data=st.data())
def test_power_singularity_classified_by_its_exponent(d, data):
    beta = data.draw(st.one_of(_exponent_in(0.0, d - MARGIN), _exponent_in(d, d + 2.0)))

    def f(xi):
        rho = np.abs(xi) if d == 1 else np.linalg.norm(xi, axis=-1)
        with np.errstate(divide="ignore", over="ignore"):
            return rho**-beta

    result = classify_improper(f, d, radius=1.0)
    if beta <= d - MARGIN:
        assert result.classification == "convergent"
    else:
        assert result.classification == "divergent_at_zero"
