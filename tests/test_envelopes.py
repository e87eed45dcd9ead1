"""State-uniform envelopes q_inf, q_sup, re_sup, im_sup.

The stable-like family has closed forms: the lower envelope takes the
larger exponent inside the unit ball and the smaller one outside, the
upper envelope the other way around.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fellerkit as fk


@pytest.fixture(scope="module")
def band_model():
    return fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)


class TestClosedFormEnvelope:
    def test_stable_like_band_values(self, band_model):
        env = fk.build_envelope(band_model)
        # inside the ball the worst (largest) exponent gives the floor
        assert env.q_inf(0.5) == pytest.approx(0.5**1.8, rel=1e-14)
        assert env.q_sup(0.5) == pytest.approx(0.5**1.2, rel=1e-14)
        # outside the roles swap
        assert env.q_inf(4.0) == pytest.approx(4.0**1.2, rel=1e-14)
        assert env.q_sup(4.0) == pytest.approx(4.0**1.8, rel=1e-14)
        assert env.re_sup(4.0) == pytest.approx(4.0**1.8, rel=1e-14)
        assert env.im_sup(4.0) == 0.0

    def test_frozen_band_literals(self, band_model):
        env = fk.build_envelope(band_model)
        assert float(env.q_sup(4.0)) == pytest.approx(12.125732532083186, rel=1e-15)
        assert float(env.q_inf(0.5)) == pytest.approx(0.2871745887492587, rel=1e-15)
        assert float(env.q_inf(4.0)) == pytest.approx(5.278031643091577, rel=1e-15)
        assert float(env.q_sup(0.5)) == pytest.approx(0.43527528164806206, rel=1e-15)

    def test_unit_circle_continuity(self, band_model):
        env = fk.build_envelope(band_model)
        assert env.q_inf(1.0) == pytest.approx(1.0)
        assert env.q_sup(1.0) == pytest.approx(1.0)

    def test_vector_input(self, band_model):
        env = fk.build_envelope(band_model)
        vals = env.q_inf(np.array([0.5, 4.0]))
        assert np.allclose(vals, [0.5**1.8, 4.0**1.2])

    def test_state_free_brownian_with_drift(self):
        env = fk.build_envelope(fk.brownian(1, drift=0.3))
        assert env.q_inf(2.0) == pytest.approx(4.0)
        assert env.re_sup(2.0) == pytest.approx(4.0)
        assert env.im_sup(2.0) == pytest.approx(0.6)
        # modulus envelope picks up the drift contribution
        assert env.q_sup(2.0) == pytest.approx(math.hypot(4.0, 0.6), rel=1e-14)

    def test_dimension_axis_guard(self):
        env = fk.build_envelope(fk.brownian(2))
        with pytest.raises(ValueError):
            env.q_inf(np.zeros(3))


class TestGridEnvelope:
    def test_periodic_grid_matches_closed_form(self, band_model):
        grid = fk.build_envelope(
            band_model,
            x_domain=[(-math.pi, math.pi)],
            tail="periodic",
            use_closed_form=False,
        )
        closed = fk.build_envelope(band_model)
        for rho in (0.03, 0.5, 1.0, 4.0, 57.0):
            assert float(grid.q_inf(rho)) == pytest.approx(float(closed.q_inf(rho)), rel=1e-9)
            assert float(grid.q_sup(rho)) == pytest.approx(float(closed.q_sup(rho)), rel=1e-9)
            assert float(grid.re_sup(rho)) == pytest.approx(float(closed.re_sup(rho)), rel=1e-9)

    def test_refinement_finds_a_minimum_between_grid_nodes(self):
        # the infimum over x sits at x = 3 pi / 2 - 0.1, off the 33-node
        # grid, where the grid alone overstates q_inf by 3e-3
        model = fk.closed_form_symbol("(1.25 + 0.5*sin(x + 0.1))*abs(xi)**1.5")
        env = fk.build_envelope(
            model, x_domain=[(0.0, 2.0 * math.pi)], resolution=33, tail="periodic"
        )
        xi = np.geomspace(0.01, 100.0, 7)
        np.testing.assert_allclose(env.q_inf(xi), 0.75 * xi**1.5, rtol=1e-9, atol=0.0)

    def test_cache_misses_are_computed_in_one_call(self, band_model):
        env = fk.build_envelope(band_model)
        seen = []
        fn = env.q_inf_fn
        env.q_inf_fn = lambda xi: seen.append(len(xi)) or fn(xi)
        first = env.q_inf(np.array([0.5, 2.0, 4.0]))
        again = env.q_inf(np.array([[4.0, 0.25], [0.5, 8.0]]))
        assert seen == [3, 2]
        assert again[0, 0] == first[2] and again[1, 0] == first[0]
        assert env.q_inf(2.0) == first[1]
        assert seen == [3, 2]

    def test_grid_envelope_carries_caveat(self, band_model):
        grid = fk.build_envelope(
            band_model,
            x_domain=[(-math.pi, math.pi)],
            tail="periodic",
            use_closed_form=False,
        )
        assert any(c.startswith("grid envelope") for c in grid.caveats)

    def test_x_dependent_needs_domain(self, band_model):
        with pytest.raises(fk.ConfigError, match="needs an x_domain"):
            fk.build_envelope(band_model, use_closed_form=False)

    def test_domain_shape_validated(self, band_model):
        with pytest.raises(fk.ConfigError, match=r"x_domain must provide 1 \(lo, hi\) pairs"):
            fk.build_envelope(
                band_model, x_domain=[(-1, 1), (-1, 1)], use_closed_form=False
            )
        with pytest.raises(fk.ConfigError, match="intervals must be increasing"):
            fk.build_envelope(band_model, x_domain=[(1.0, -1.0)], use_closed_form=False)

    def test_tail_mode_validated(self, band_model):
        with pytest.raises(fk.ConfigError, match="tail="):
            fk.build_envelope(
                band_model, x_domain=[(-3, 3)], tail="wrap", use_closed_form=False
            )


def _point_rule_model(kind: str, d: int):
    if kind == "closed_form":
        return fk.stable_like_symbol(
            "1.5 + 0.3*sin(" + ("x" if d == 1 else "x1") + ")", 1.2, 1.8, dimension=d
        )
    if kind == "state_free":
        return fk.alpha_stable(1.3, d, drift=np.linspace(0.1, 0.3, d))
    xs = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    xis = ["xi"] if d == 1 else [f"xi{i + 1}" for i in range(d)]
    re = f"(1.25 + 0.5*sin({xs[0]})) * ({' + '.join(v + '**2' for v in xis)})"
    return fk.closed_form_symbol(re, f"0.2*cos({xs[-1]})*{xis[0]}", dimension=d)


def _point_rule_envelope(kind: str, d: int):
    model = _point_rule_model(kind, d)
    if kind != "grid":
        return model, fk.build_envelope(model)
    box = [(0.0, 2.0 * math.pi)] * d
    return model, fk.build_envelope(
        model, x_domain=box, resolution=5, tail="periodic", refine_rounds=1
    )


_lead_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 3)),
    st.tuples(st.integers(1, 3), st.integers(1, 2)),
)


class TestPointRule:
    """One rule reads points everywhere: d = 1 arrays elementwise, else the
    last axis holds the components (``fellerkit.symbols.as_points``)."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["closed_form", "state_free", "grid"]),
        d=st.integers(1, 3),
        lead=_lead_shapes,
        data=st.data(),
    )
    def test_batch_equals_stacked_single_points(self, kind, d, lead, data):
        shape = lead if d == 1 else lead + (d,)
        flat = data.draw(
            st.lists(
                st.floats(-5.0, 5.0, allow_nan=False),
                min_size=math.prod(shape),
                max_size=math.prod(shape),
            )
        )
        xi = np.array(flat, dtype=float).reshape(shape)
        for query in ("q_inf", "q_sup"):
            # separate envelopes, so the batch is computed and not read
            # back from the single-point cache
            _, batch_env = _point_rule_envelope(kind, d)
            model, single_env = _point_rule_envelope(kind, d)
            batch = getattr(batch_env, query)(xi)
            singles = [getattr(single_env, query)(xi[idx]) for idx in np.ndindex(*lead)]
            if lead == ():
                assert type(batch) is float
            else:
                assert batch.shape == lead
            assert all(type(v) is float for v in singles)
            assert np.array_equal(np.reshape(batch, -1), np.array(singles))

        point = xi[(0,) * len(lead)]
        assert type(fk.eval_symbol(model, np.zeros(d) if d > 1 else 0.3, point)) is complex

    @pytest.mark.parametrize("kind", ["closed_form", "state_free", "grid"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_wrong_last_axis_raises(self, kind, d):
        model, env = _point_rule_envelope(kind, d)
        for bad in (np.ones(d + 1), np.ones((2, d - 1)), 1.0):
            for query in (env.q_inf, env.q_sup, env.re_sup, env.im_sup):
                with pytest.raises(ValueError):
                    query(bad)
            with pytest.raises(ValueError):
                fk.eval_symbol(model, np.zeros(d), bad)
