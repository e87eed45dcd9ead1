"""Structural checks on symbols: bounded coefficients, the ball sup behind
the exit-time bound, and square-root subadditivity in xi."""

import tracemalloc

import numpy as np
import pytest

import fellerkit as fk
import fellerkit.envelopes as envelopes
import fellerkit.symbol_checks as checks
from fellerkit.symbol_checks import ball_sup, check_bounded_coefficients, check_sqrt_subadditivity

X_GRID = np.linspace(-5.0, 5.0, 21)
XI_GRID = np.linspace(-8.0, 8.0, 17)


class TestBoundedCoefficients:
    def test_brownian_holds(self):
        rep = check_bounded_coefficients(fk.brownian(1), X_GRID, XI_GRID)
        assert rep.verdict == "holds"
        # sup of xi^2 / (1 + xi^2) on the grid is attained at xi = 8
        assert rep.c_est == pytest.approx(64.0 / 65.0, rel=1e-12)
        assert rep.zero_offset == 0.0

    def test_brownian_two_dimensional_holds(self):
        g = np.linspace(-8.0, 8.0, 9)
        xis = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
        gx = np.linspace(-3.0, 3.0, 5)
        xs = np.stack(np.meshgrid(gx, gx), -1).reshape(-1, 2)
        rep = check_bounded_coefficients(fk.brownian(2), xs, xis)
        assert rep.verdict == "holds"

    def test_stable_like_holds(self):
        m = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        rep = check_bounded_coefficients(m, X_GRID, XI_GRID)
        assert rep.verdict == "holds"
        # sup attained at the grid points x = 1.5 (largest sampled order)
        # and xi = 3 (where |xi|^a / (1 + xi^2) peaks)
        want = 3.0 ** (1.5 + 0.3 * np.sin(1.5)) / 10.0
        assert rep.c_est == pytest.approx(want, rel=1e-12)

    def test_cubic_growth_fails(self):
        # |xi|^3 outruns 1 + |xi|^2, so the outer shell sups keep climbing
        rep = check_bounded_coefficients(fk.closed_form_symbol("abs(xi)**3"), X_GRID, XI_GRID)
        assert rep.verdict == "fails"
        assert rep.shell_sups[-1] > rep.shell_sups[-2] > rep.shell_sups[-3]

    def test_nonvanishing_offset_fails_conservative_models(self):
        m = fk.closed_form_symbol("1.0 + abs(xi)**1.5")
        rep = check_bounded_coefficients(m, X_GRID, XI_GRID)
        assert rep.verdict == "fails"
        assert rep.zero_offset == pytest.approx(1.0)

    def test_declared_kill_term_allows_offset(self):
        m = fk.closed_form_symbol("1.0 + abs(xi)**1.5", conservative=False)
        rep = check_bounded_coefficients(m, X_GRID, XI_GRID)
        assert rep.verdict == "holds"
        assert rep.zero_offset == pytest.approx(1.0)

    def test_memory_in_three_dimensions(self):
        # 21^3 states by 11^3 frequencies: evaluated whole, in one call, the
        # product held 197 MB of complex values and gave the values pinned
        # below; at 41^3 by 21^3 it would hold about 10 GB
        model = fk.stable_like_symbol("1.5 + 0.3*sin(x1)*cos(x2)", 1.2, 1.8, dimension=3)

        def cube(axis):
            return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)

        xs, xis = cube(np.linspace(-5.0, 5.0, 21)), cube(np.linspace(-8.0, 8.0, 11))
        assert len(xs) * len(xis) * 16 >= 150e6
        tracemalloc.start()
        try:
            rep = check_bounded_coefficients(model, xs, xis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert rep.c_est.hex() == "0x1.714ffef327dd8p-1"
        assert [v.hex() for v in rep.shell_sups] == [
            "0x1.4f07734e41f4ap-1", "0x1.714ffef327dd8p-1", "0x1.6facbcb2d3ad3p-1", "0x1.53b3caeb3b134p-1",
        ]
        assert rep.verdict == "holds"


class TestBallSup:
    """The sup behind the exit-time bound, taken by the blocked search over
    states: blocks of at most MAX_EVAL_POINTS states, each against as many
    frequencies per call as fit."""

    STABLE_LIKE_3D = ("1.5 + 0.3*sin(x1)*cos(x2)", 1.2, 1.8)
    ALPHA = {1: "1.5 + 0.3*sin(x)", 2: "1.5 + 0.3*sin(x1)*cos(x2)"}

    @staticmethod
    def full_product_max(model, center, r, resolution):
        d = model.dimension
        ys = np.asarray(center, dtype=float) + checks._ball_grid(r, d, resolution)
        xis = checks._ball_grid(1.0 / r, d, resolution)
        return float(np.abs(model.evaluator(ys[:, None, :], xis[None, :, :])).max())

    # 257 points in each ball: blocks of one state against one frequency;
    # one block against 7 frequencies a call, the last call 5; one block
    # against 255 frequencies, then 2
    @pytest.mark.parametrize("pairs", [1, 2000, 1 << 16])
    def test_blocks_give_the_full_product_s_bits(self, pairs, monkeypatch):
        model = fk.stable_like_symbol(*self.STABLE_LIKE_3D, dimension=3)
        want = self.full_product_max(model, [0.3, -0.2, 0.1], 0.7, 9)
        monkeypatch.setattr(envelopes, "MAX_EVAL_POINTS", pairs)
        assert ball_sup(model, [0.3, -0.2, 0.1], 0.7, 9) == want

    # 33 and 797 points in each ball: one block against 3 frequencies a
    # call, and blocks of 100 states (the last 97) against one
    @pytest.mark.parametrize("d", [1, 2])
    def test_blocks_give_the_full_product_s_bits_below_three_dimensions(self, d, monkeypatch):
        model = fk.stable_like_symbol(self.ALPHA[d], 1.2, 1.8, dimension=d)
        center = [0.3, -0.2][:d]
        want = self.full_product_max(model, center, 0.7, 33)
        monkeypatch.setattr(envelopes, "MAX_EVAL_POINTS", 100)
        assert ball_sup(model, center, 0.7, 33) == want

    def test_a_nan_in_a_later_block_gives_nan(self, monkeypatch):
        # blocks of 16 of the 65 states, NaN on the states y > 0.5 from the
        # fourth block on: a running max would keep the finite maximum of the
        # blocks before them
        def evaluator(x, xi):
            x, xi = np.broadcast_arrays(x, xi)
            return np.where(x[..., 0] > 0.5, np.nan, 1.0 + xi[..., 0] ** 2).astype(complex)

        model = fk.SymbolModel(kind="closed_form", dimension=1, evaluator=evaluator)
        monkeypatch.setattr(envelopes, "MAX_EVAL_POINTS", 16)
        assert np.isnan(ball_sup(model, [0.0], 1.0, 65))

    def test_memory_in_three_dimensions(self):
        # the whole product of the two 2109-point ball grids took 170 MiB
        # and gave the value pinned below
        model = fk.stable_like_symbol(*self.STABLE_LIKE_3D, dimension=3)
        tracemalloc.start()
        try:
            value = ball_sup(model, np.full(3, 0.3), 0.5, 17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert value.hex() == "0x1.a17d39b4e5b2dp+1"

    @pytest.mark.parametrize("d, resolution", [(1, 65), (2, 17)])
    def test_sample_points(self, d, resolution):
        # the states and the frequencies that the sup is taken over, bit for
        # bit: the C-order product of linspace(-r, r) axes cut to the ball
        # |y| <= r (1 + 1e-12), shifted to the center, and the same at 1/r
        seen = {"x": [], "xi": []}

        def evaluator(x, xi):
            seen["x"].append(np.array(x).reshape(-1, d))
            seen["xi"].append(np.array(xi).reshape(-1, d))
            return np.ones(np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1]), complex)

        def ball(radius):
            axis = np.linspace(-radius, radius, resolution)
            pts = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
            return pts[np.sqrt(np.sum(pts * pts, axis=1)) <= radius + 1e-12]

        model = fk.SymbolModel(kind="closed_form", dimension=d, evaluator=evaluator)
        center = np.array([0.3, -0.2][:d])
        assert ball_sup(model, center, 0.7, resolution) == 1.0
        for key, want in (("x", center + ball(0.7)), ("xi", ball(1.0 / 0.7))):
            got = np.unique(np.concatenate(seen[key]), axis=0)
            assert got.tobytes() == np.unique(want, axis=0).tobytes()
        assert checks._ball_grid(0.7, d, resolution).tobytes() == ball(0.7).tobytes()


class TestSqrtSubadditivity:
    def test_stable_passes(self):
        rep = check_sqrt_subadditivity(fk.alpha_stable(0.7, 1))
        assert rep.verdict == "holds"
        assert rep.counterexample is None
        assert rep.n_checked == 1000

    def test_quartic_fails_with_counterexample(self):
        rep = check_sqrt_subadditivity(fk.closed_form_symbol("abs(xi)**4"))
        assert rep.verdict == "fails"
        assert sorted(rep.counterexample) == ["lhs", "rhs", "x", "xi1", "xi2"]
        assert rep.counterexample["lhs"] > rep.counterexample["rhs"]
