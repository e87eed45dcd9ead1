"""State-uniform envelopes q_inf, q_sup, re_sup, im_sup.

The stable-like family has closed forms: the lower envelope takes the
larger exponent inside the unit ball and the smaller one outside, the
upper envelope the other way around.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fellerkit as fk
from fellerkit import envelopes
from fellerkit.envelopes import _GridOptimizer


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

    def test_band_power_is_libm_pow(self, band_model):
        # the band envelope raises radii with np.float_power because it
        # matches libm's pow bit for bit, so the printed values do not
        # depend on numpy's vectorized power; a numpy build where the two
        # differ must fail here rather than change report bytes
        rng = np.random.default_rng(20)
        rho = np.concatenate([
            rng.uniform(0.0, 1.0, 20000), np.exp(rng.uniform(-20.0, 20.0, 20000)),
            [0.0, 0.5, 1.0, 4.0],
        ])
        for a in (1.2, 1.8, 0.5, 1.5, 1.9, 0.89, 0.91):
            want = np.array([math.pow(r, a) for r in rho.tolist()])
            assert np.array_equal(np.float_power(rho, a), want), a
        env = fk.build_envelope(band_model)
        assert np.array_equal(env.q_inf(rho), np.float_power(rho, np.where(rho <= 1.0, 1.8, 1.2)))


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

    def test_each_query_is_one_call(self, band_model):
        env = fk.build_envelope(band_model)
        seen = []
        fn = env.q_inf_fn
        env.q_inf_fn = lambda xi: seen.append(xi.ravel().tolist()) or fn(xi)
        first = env.q_inf(np.array([0.5, 2.0, 4.0]))
        # a new query is one call with all of its points
        assert seen == [[0.5, 2.0, 4.0]]
        overlap = env.q_inf(np.array([[4.0, 0.25], [0.5, 8.0]]))
        assert seen[1:] == [[4.0, 0.25, 0.5, 8.0]]
        assert overlap[0, 0] == first[2] and overlap[1, 0] == first[0]
        # the same query again makes one more call
        expected = first.copy()
        first[:] = -1.0
        again = env.q_inf(np.array([0.5, 2.0, 4.0]))
        assert len(seen) == 3
        # and writing to an answer changes no later answer
        assert np.array_equal(again, expected)
        again[:] = -1.0
        assert np.array_equal(env.q_inf(np.array([0.5, 2.0, 4.0])), expected)
        assert len(seen) == 4

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

    @pytest.mark.parametrize("x_domain", [[(0.0, math.nan)], [(0.0, math.inf)], [(-math.inf, 1.0)]])
    def test_domain_bounds_must_be_finite(self, band_model, x_domain):
        with pytest.raises(fk.ConfigError, match="x_domain bounds must be finite"):
            fk.build_envelope(band_model, x_domain=x_domain, tail="periodic", use_closed_form=False)

    @pytest.mark.parametrize("resolution", [1, 0, -3])
    def test_resolution_needs_two_nodes(self, band_model, resolution):
        with pytest.raises(fk.ConfigError, match=r"resolution must be an integer >= 2"):
            fk.build_envelope(
                band_model, x_domain=[(-3, 3)], resolution=resolution, tail="periodic",
                use_closed_form=False,
            )

    def test_refine_rounds_not_negative(self, band_model):
        with pytest.raises(fk.ConfigError, match=r"refine_rounds must be an integer >= 0"):
            fk.build_envelope(
                band_model, x_domain=[(-3, 3)], tail="periodic", use_closed_form=False,
                refine_rounds=-1,
            )


_REDUCTIONS = {
    "q_inf": np.real,
    "q_sup": lambda v: -np.abs(v),
    "re_sup": lambda v: -np.real(v),
    "im_sup": lambda v: -np.abs(np.imag(v)),
}


def _product_symbol(d: int, shift: float, coupling: float = 0.0):
    """(1.25 + 0.5 sin(x1 + s) cos(x2 - s) ... + c cos(x1 xd / 7)) |xi|^2
    + 0.2i cos(xd + s) xi1.  At s = c = 0 the extrema in x of the real part
    sit on the nodes of any grid over [0, 2 pi] whose node count is 1 mod 4;
    a coupling c != 0 makes the sweeps move rows in later rounds too."""
    xs = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    xis = ["xi"] if d == 1 else [f"xi{i + 1}" for i in range(d)]
    factors = [f"sin({xs[0]} + {shift!r})"] + [f"cos({v} - {shift!r})" for v in xs[1:]]
    coupled = f"{coupling!r}*cos({xs[0]}*{xs[-1]}/7)"
    re = f"(1.25 + 0.5*{'*'.join(factors)} + {coupled}) * ({' + '.join(v + '**2' for v in xis)})"
    return fk.closed_form_symbol(re, f"0.2*cos({xs[-1]} + {shift!r})*{xis[0]}", dimension=d)


def _optimizer(model, resolution, tail, refine_rounds):
    box = [(0.0, 2.0 * math.pi)] * model.dimension
    return _GridOptimizer(model, box, resolution, tail == "periodic", refine_rounds)


def _every_round(opt, xi, reduce_fn):
    """The grid optimum, by argmin over the whole mesh, then every round
    sweeps every row along every axis."""
    mesh = np.stack(np.meshgrid(*opt.axes, indexing="ij"), axis=-1).reshape(-1, opt.d)
    scores = opt._scores(mesh[None], xi[:, None, :], reduce_fn)
    k = np.argmin(scores, axis=1)
    x, best = mesh[k], scores[np.arange(len(xi)), k]
    for _ in range(opt.refine_rounds):
        for axis in range(opt.d):
            opt._sweep(x, best, axis, reduce_fn, xi)
    return best


class TestRefinement:
    """A row leaves the coordinate sweeps once d consecutive sweeps leave it
    unmoved; every later sweep would repeat one of them."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 3),
        tail=st.sampled_from(["periodic", "constant_at_infinity"]),
        reduction=st.sampled_from(sorted(_REDUCTIONS)),
        refine_rounds=st.integers(0, 4),
        resolution=st.sampled_from([3, 5, 9]),
        shift=st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False)),
        coupling=st.sampled_from([0.0, 0.1]),
        data=st.data(),
    )
    def test_equals_sweeping_every_round(
        self, d, tail, reduction, refine_rounds, resolution, shift, coupling, data
    ):
        n = data.draw(st.integers(1, 4))
        flat = data.draw(
            st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=n * d, max_size=n * d)
        )
        xi = np.array(flat).reshape(n, d)
        opt = _optimizer(_product_symbol(d, shift, coupling), resolution, tail, refine_rounds)
        reduce_fn = _REDUCTIONS[reduction]
        got = opt.extremize(xi, reduce_fn)
        assert np.array_equal(got, _every_round(opt, xi, reduce_fn))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_on_a_grid_node_get_d_sweeps(self, d):
        # the minimizer in x is a node of the 5-node grid, so no sweep moves
        # a row, and rounds after the first make no evaluator call
        inner = _product_symbol(d, 0.0).evaluator
        calls = []

        def re(x, xi):
            calls.append(x.shape)
            return inner(x, xi).real

        model = fk.closed_form_symbol(re, dimension=d)
        xi = np.linspace(0.5, 3.0, 3 * d).reshape(3, d)
        counts = []
        for refine_rounds in range(5):
            calls.clear()
            opt = _optimizer(model, 5, "periodic", refine_rounds)
            np.testing.assert_array_equal(opt.extremize(xi, np.real), 0.75 * np.sum(xi**2, axis=1))
            counts.append(len(calls))
        assert counts[0] == 1  # the grid pass alone
        assert counts[1] > counts[0]
        assert counts[2:] == [counts[1]] * 3


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
            # separate envelopes, so no answer is read back from a memo
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


class TestPointIndependence:
    """The value of an envelope at a point does not depend on the other
    points of the call.  The frequency walk relies on it when it joins the
    nodes of all its walks into one query."""

    @staticmethod
    def _envelope(kind: str, d: int):
        if kind == "stable_like":
            return fk.build_envelope(_point_rule_model("closed_form", d))
        if kind == "state_free":
            return fk.build_envelope(_point_rule_model("state_free", d))
        xs = ["x"] if d == 1 else ["x1", "x2"]
        xis = ["xi"] if d == 1 else ["xi1", "xi2"]
        model = fk.closed_form_symbol(
            f"(1.25 + 0.5*sin({xs[0]})*cos({xs[-1]})) * ({' + '.join(v + '**2' for v in xis)})**0.75",
            dimension=d,
        )
        box = [(0.0, 2.0 * math.pi)] * d
        tail = "periodic" if kind == "grid_periodic" else "constant_at_infinity"
        return fk.build_envelope(model, x_domain=box, resolution=9, tail=tail)

    @pytest.mark.parametrize("kind", [
        "grid_periodic", "grid_constant_at_infinity", "stable_like", "state_free",
    ])
    @pytest.mark.parametrize("d", [1, 2])
    def test_query_of_a_concatenation_is_the_concatenation_of_queries(self, kind, d):
        rng = np.random.default_rng(7)
        # 343 points: more than one chunk of the sweeps, and in d = 2 of the
        # grid pass
        parts = [
            np.logspace(-3, 3, n)[:, None] * rng.standard_normal((n, d)) for n in (3, 300, 40)
        ]
        if d == 1:
            parts = [p[:, 0] for p in parts]
        for query in ("q_inf", "q_sup"):
            # separate envelopes, so no answer is read back from a memo
            whole = getattr(self._envelope(kind, d), query)(np.concatenate(parts))
            env = self._envelope(kind, d)
            pieces = np.concatenate([getattr(env, query)(p) for p in parts])
            assert whole.tobytes() == pieces.tobytes()


def _nan_beyond_three(d: int):
    """A callable symbol whose real part is NaN where x1 > 3 and finite
    elsewhere, so the first NaN of a mesh over [0, 2 pi] comes after
    finite nodes."""

    def re(x, xi):
        return np.where(x[..., 0] > 3.0, np.nan, 1.0 + np.sin(x[..., 0] / 2)) * np.sum(xi * xi, -1)

    return fk.closed_form_symbol(re, dimension=d)


def _flat_in_x(d: int):
    """Every mesh node ties: the expression names x1 but does not vary with it."""
    xis = ["xi"] if d == 1 else [f"xi{i + 1}" for i in range(d)]
    x1 = "x" if d == 1 else "x1"
    return fk.closed_form_symbol(f"(1 + 0*{x1}) * ({' + '.join(v + '**2' for v in xis)})", dimension=d)


class TestBlockedGridPass:
    """The grid pass builds the x mesh a block of at most MAX_EVAL_POINTS
    nodes at a time, from flat indices, and never stores it whole."""

    @pytest.mark.parametrize("d, resolution", [(1, 45), (2, 9), (3, 5)])
    @pytest.mark.parametrize("symbol", ["product", "coupled", "nan", "flat"])
    @pytest.mark.parametrize("cap", [7, 16])
    def test_blocked_pass_equals_one_block(self, monkeypatch, d, resolution, symbol, cap):
        model = {
            "product": lambda: _product_symbol(d, 0.3),
            "coupled": lambda: _product_symbol(d, -1.1, coupling=0.1),
            "nan": lambda: _nan_beyond_three(d),
            "flat": lambda: _flat_in_x(d),
        }[symbol]()
        opt = _optimizer(model, resolution, "periodic", 1)
        xi = np.linspace(-2.5, 3.0, 5 * d).reshape(5, d)
        mesh = np.stack(np.meshgrid(*opt.axes, indexing="ij"), axis=-1).reshape(-1, d)
        assert len(mesh) > cap  # several blocks, the last one short
        for reduce_fn in _REDUCTIONS.values():
            x_one, best_one = opt._grid_pass(xi, reduce_fn)
            monkeypatch.setattr(envelopes, "MAX_EVAL_POINTS", cap)
            x_blocked, best_blocked = opt._grid_pass(xi, reduce_fn)
            monkeypatch.undo()
            assert x_blocked.tobytes() == x_one.tobytes()
            assert best_blocked.tobytes() == best_one.tobytes()
            # and both are argmin over the whole mesh
            scores = opt._scores(mesh[None], xi[:, None, :], reduce_fn)
            k = np.argmin(scores, axis=1)
            assert x_one.tobytes() == mesh[k].tobytes()
            assert best_one.tobytes() == scores[np.arange(len(xi)), k].tobytes()

    def test_ties_and_nan_take_the_first_node(self, monkeypatch):
        monkeypatch.setattr(envelopes, "MAX_EVAL_POINTS", 4)
        xi = np.array([[0.5], [2.0]])
        flat = _optimizer(_flat_in_x(1), 23, "periodic", 0)
        x, _ = flat._grid_pass(xi, np.real)
        assert x.tolist() == [[0.0], [0.0]]
        nan = _optimizer(_nan_beyond_three(1), 23, "periodic", 0)
        x, best = nan._grid_pass(xi, np.real)
        assert np.isnan(best).all()
        # node 11 of 23 over [0, 2 pi] is the first beyond 3
        assert nan.axes[0][10] < 3.0 < nan.axes[0][11]
        assert x[:, 0].tolist() == [nan.axes[0][11]] * 2

    @pytest.mark.parametrize("d, resolution", [(1, 45), (2, 9), (3, 5)])
    def test_sample_points(self, monkeypatch, d, resolution):
        # the grid pass scores every frequency once at every node of the
        # C-order product of linspace(lo, hi) axes, pinned bit for bit
        monkeypatch.setattr(envelopes, "MAX_EVAL_POINTS", 16)
        seen, pairs = [], []

        def re(x, xi):
            seen.append(np.array(x).reshape(-1, d))
            pairs.append(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]))
            return np.sum(np.cos(x), -1) * np.sum(xi * xi, -1)

        opt = _optimizer(fk.closed_form_symbol(re, dimension=d), resolution, "periodic", 0)
        xi = np.linspace(-2.5, 3.0, 5 * d).reshape(5, d)
        x, _ = opt._grid_pass(xi, np.real)
        axis = np.linspace(0.0, 2.0 * math.pi, resolution)
        mesh = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        assert np.unique(np.concatenate(seen), axis=0).tobytes() == np.unique(mesh, axis=0).tobytes()
        assert sum(math.prod(shape) for shape in pairs) == len(xi) * len(mesh)
        assert all(row.tobytes() in {node.tobytes() for node in mesh} for row in x)

    def test_a_fine_d3_grid_holds_no_mesh(self):
        # 513^3 nodes would be a 3.2 GB mesh; building the envelope holds
        # only the three axes
        model = _product_symbol(3, 0.0)
        tracemalloc.start()
        try:
            env = fk.build_envelope(
                model, x_domain=[(0.0, 2.0 * math.pi)] * 3, resolution=513, tail="periodic"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert env.provenance.startswith("grid(")
        assert peak < 2_000_000


def _scoring_mismatches():
    """The (symbol, query) pairs whose grid envelope at 100 frequencies
    differs in any bit between the model as built and a copy whose
    evaluator returns its values cast to complex."""
    from dataclasses import replace

    import numpy as np

    import fellerkit as fk

    def as_complex(model):
        inner = model.evaluator
        return replace(model, evaluator=lambda x, xi: np.asarray(inner(x, xi), complex))

    def callable_re(x, xi):
        return (1.25 + 0.5 * np.sin(x[..., 0]) * np.cos(x[..., 1])) * np.hypot(xi[..., 0], xi[..., 1])

    grid = fk.closed_form_symbol(
        "(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75", dimension=2, radial_in_xi=True
    )
    symbols = {
        "grid_envelope_2d": grid,
        "with_im": fk.closed_form_symbol(
            "(1.25 + 0.5*sin(x1)) * (xi1**2 + xi2**2)", "0.3*cos(x2)*xi1", dimension=2
        ),
        "callable": fk.closed_form_symbol(callable_re, dimension=2),
        "symmetrized": fk.symmetrize(grid),
    }
    angles = np.linspace(0.0, np.pi, 4, endpoint=False)
    radii = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 24)])
    xi = (radii[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], -1)).reshape(-1, 2)
    box = [(0.0, 2.0 * np.pi)] * 2
    wrong = []
    for name, model in symbols.items():
        as_built = fk.build_envelope(model, box, 9, "periodic")
        cast = fk.build_envelope(as_complex(model), box, 9, "periodic")
        for query in ("q_inf", "q_sup", "re_sup", "im_sup"):
            if getattr(as_built, query)(xi).tobytes() != getattr(cast, query)(xi).tobytes():
                wrong.append((name, query))
    return wrong


class TestRealScoring:
    """A closed-form symbol without an imaginary part evaluates to a real
    array, and the grid envelope reduces it as it is; each query's
    reduction gives the same bits as on the complex cast."""

    def test_real_symbol_evaluates_to_real(self):
        model = fk.closed_form_symbol("(1.25 + 0.5*sin(x))*abs(xi)**1.5")
        assert model.evaluator(np.zeros((3, 1)), np.ones((3, 1))).dtype == np.float64
        assert fk.symmetrize(model).evaluator(np.zeros((3, 1)), np.ones((3, 1))).dtype == np.float64
        assert type(fk.eval_symbol(model, 0.3, 2.0)) is complex
        assert fk.eval_symbol(model, np.zeros(3), np.ones(3)).dtype == np.complex128

    def test_same_bits_as_the_complex_cast_on_every_cpu_target(self, under_cpu_targets):
        # bits may differ between numpy's dispatch targets, so each child
        # compares its two builds with each other
        probe = inspect.getsource(_scoring_mismatches) + "print(_scoring_mismatches())\n"
        assert under_cpu_targets(probe) == {"default": "[]", "no AVX512": "[]"}
