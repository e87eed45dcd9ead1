"""Tests for path simulation: exact Levy increments, the frozen-coefficient
Euler scheme for stable-like models, stable samplers, and path symmetrization.

Monte Carlo assertions use fixed seeds and three-to-four sigma tolerances, so
every run is deterministic; the z values quoted in comments were recorded once
and sit well inside the asserted bands.
"""

import math
import re
import warnings

import numpy as np
import pytest

import fellerkit as fk
import fellerkit.simulate as sim
from fellerkit import ConfigError


def _char_z(ens, t, xi, exact):
    est = fk.empirical_char_fn(ens, t, xi)
    return abs(est.value - exact) / est.se_abs


class TestLevyFamilies:
    def test_brownian_char_matches_gaussian(self):
        ens = fk.simulate_levy(fk.brownian(1), 40000, 1.0, 8, seed=11)
        assert ens.positions.shape == (40000, 9, 1)
        assert ens.n_paths == 40000
        assert ens.dimension == 1
        assert ens.scheme == "exact_increments"
        assert np.allclose(ens.time_grid, np.linspace(0.0, 1.0, 9))
        assert np.array_equal(ens.start, np.zeros(1))
        # recorded z = 0.92
        assert _char_z(ens, 1.0, 1.0, math.exp(-1.0)) < 3.0

    @pytest.mark.parametrize(
        "alpha,seed", [(0.5, 21), (1.0, 22), (1.5, 23), (2.0, 24)]
    )
    def test_stable_char_fn(self, alpha, seed):
        # recorded worst z over the three frequencies: 1.65, 3.08, 1.51, 1.95
        ens = fk.simulate_levy(fk.alpha_stable(alpha), 40000, 1.0, 4, seed=seed)
        worst = max(
            _char_z(ens, 1.0, xi, math.exp(-xi ** alpha)) for xi in (0.5, 1.0, 2.0)
        )
        assert worst < 4.0
        if alpha == 2.0:
            # symbol |xi|^2 integrates to a N(0, 2t) marginal, recorded 1.9833
            assert abs(float(np.var(ens.at(1.0))) - 2.0) < 0.1
        if alpha == 1.0:
            # Cauchy scale t: median of |X_t| is t, recorded 0.9963
            med = float(np.median(np.abs(ens.at(1.0))))
            assert abs(med - 1.0) < 0.05

    def test_compound_poisson_law(self):
        model = fk.compound_poisson(2.0, 0.3, 1.0)
        ens = fk.simulate_levy(model, 40000, 1.0, 4, seed=31)
        x_t = ens.at(1.0)
        # E X_1 = rate * jump mean = 0.6; recorded mean z 1.43
        mean_z = (x_t.mean() - 0.6) / (x_t.std(ddof=1) / math.sqrt(len(x_t)))
        assert abs(mean_z) < 3.0
        exact = np.exp(
            -complex(np.asarray(fk.eval_symbol(model, 0.0, 1.3)).reshape(-1)[0])
        )
        assert _char_z(ens, 1.0, 1.3, exact) < 3.0  # recorded 1.02

    def test_drift_shifts_the_mean(self):
        ens = fk.simulate_levy(fk.brownian(1, drift=0.7), 40000, 1.0, 4, seed=41)
        x_t = ens.at(1.0)
        z = (x_t.mean() - 0.7) / (x_t.std(ddof=1) / math.sqrt(len(x_t)))
        assert abs(z) < 3.0  # recorded -0.51

    def test_zero_symbol_paths_do_not_move(self):
        ens = fk.simulate_levy(fk.zero_symbol(1), 50, 1.0, 4, seed=51, start=0.25)
        assert np.all(ens.positions == 0.25)
        est = fk.empirical_char_fn(ens, 1.0, 2.0)
        # the estimator works on increments from the start point
        assert est.value == (1.0 + 0.0j)
        assert est.se_abs == 0.0


class TestStableSamplers:
    """Direct checks of the raw samplers behind the path schemes."""

    def test_stable_sampler_char_fn(self):
        # recorded worst z by alpha: 1.04, 1.60, 1.85, 1.30, 0.92, 1.17
        for alpha in (0.3, 0.7, 1.0, 1.3, 1.7, 2.0):
            rng = np.random.default_rng(777)
            s = fk.sample_stable(alpha, 60000, rng)
            for u in (0.5, 1.0, 2.0):
                emp = np.exp(1j * u * s)
                se = emp.std(ddof=1) / math.sqrt(len(s))
                z = abs(emp.mean() - math.exp(-(u ** alpha))) / se
                assert z < 3.0, f"alpha={alpha}, u={u}: z={z:.2f}"
        rng = np.random.default_rng(777)
        s2 = fk.sample_stable(2.0, 60000, rng)
        assert abs(float(np.var(s2)) - 2.0) < 0.1  # recorded 2.0060

    def test_array_order_matches_scalar_order(self):
        a = fk.sample_stable(1.3, 1000, np.random.default_rng(5))
        b = fk.sample_stable(np.full(1000, 1.3), 1000, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_positive_stable_laplace_transform(self):
        rng = np.random.default_rng(88)
        s = fk.sample_positive_stable(0.6, 60000, rng)
        assert np.all(s > 0)
        for u in (0.5, 1.0, 2.0):
            emp = np.exp(-u * s)
            se = emp.std(ddof=1) / math.sqrt(len(s))
            z = abs(emp.mean() - math.exp(-(u ** 0.6))) / se
            assert z < 3.0  # recorded worst 0.42

    def test_index_guards(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match=re.escape("stable index must lie in (0, 2]")):
            fk.sample_stable(2.3, 5, rng)
        with pytest.raises(ConfigError, match=re.escape("positive stable index must lie in (0, 1)")):
            fk.sample_positive_stable(1.0, 5, rng)


class TestDeterminism:
    def test_seed_controls_the_paths(self):
        m = fk.alpha_stable(1.5)
        e1 = fk.simulate_levy(m, 64, 1.0, 16, seed=9)
        e2 = fk.simulate_levy(m, 64, 1.0, 16, seed=9)
        e3 = fk.simulate_levy(m, 64, 1.0, 16, seed=10)
        assert np.array_equal(e1.positions, e2.positions)
        assert not np.array_equal(e1.positions, e3.positions)

    def test_step_source_matches_a_path_array_loop(self):
        """The stable-like step source draws what a loop writing into a
        stored path array draws, bit for bit, on every pass."""
        model = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        n, t_max, n_steps = 64, 0.05, 5
        steps = sim.stable_like_steps(model, n, t_max, n_steps=n_steps, seed=9, start=0.1)
        ref = np.empty((n, n_steps + 1, 1))
        ref[:, 0, :] = 0.1
        for k in range(n_steps):
            current = ref[:, k, :].copy()
            a = np.asarray(model.eval_data.alpha(current), dtype=float)
            rng = sim._step_rng(9, sim._STREAM_MAIN, k)
            ref[:, k + 1, :] = current + sim._isotropic_stable_increment(
                a, t_max / n_steps, n, 1, rng
            )
        assert np.array_equal(steps.collect().positions, ref)
        assert np.array_equal(np.stack([x for _, x in steps], axis=1), ref)


class TestStableLikeScheme:
    def test_constant_order_reduces_to_exact_sampler(self):
        """With a constant order the frozen-coefficient step draws the same
        increments as the exact scheme, bit for bit."""
        euler = fk.simulate_stable_like(
            fk.stable_like_symbol("1.3", 1.2, 1.4), 32, 0.25, n_steps=250, seed=7
        )
        exact = fk.simulate_levy(fk.alpha_stable(1.3), 32, 0.25, 250, seed=7)
        assert np.array_equal(euler.positions, exact.positions)
        assert euler.scheme == "euler_frozen"
        assert exact.scheme == "exact_increments"

    def test_single_step_uses_the_start_order(self):
        """One Euler step from x0 is exactly stable with order alpha(x0)."""
        model = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        ens = fk.simulate_stable_like(
            model, 60000, 0.01, n_steps=1, seed=17, start=0.4
        )
        alpha0 = 1.5 + 0.3 * math.sin(0.4)
        exact = math.exp(-0.01 * 2.0 ** alpha0)
        assert _char_z(ens, 0.01, 2.0, exact) < 3.0  # recorded 2.34

    def test_h_max_sets_the_grid(self):
        model = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        ens = fk.simulate_stable_like(model, 4, 0.25, h_max=1e-3, seed=1)
        assert ens.time_grid[-1] == 0.25
        assert ens.time_grid[1] - ens.time_grid[0] <= 1e-3 + 1e-15

    def test_dimension_two_isotropy(self):
        ens = fk.simulate_levy(fk.alpha_stable(1.2, 2), 30000, 1.0, 4, seed=13)
        est = fk.empirical_char_fn(ens, 1.0, np.array([0.8, 0.6]))
        z = abs(est.value - math.exp(-1.0)) / est.se_abs
        assert z < 3.0  # recorded 1.27 at a unit frequency
        e22 = fk.simulate_levy(fk.alpha_stable(2.0, 2), 30000, 1.0, 4, seed=14)
        var = np.var(e22.at(1.0), axis=0)
        assert np.all(np.abs(var - 2.0) < 0.1)  # recorded [1.9934, 1.999]

    def test_scheme_guards(self):
        mx = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        m = fk.alpha_stable(1.5)
        with pytest.raises(ConfigError, match="t_max must be positive"):
            fk.simulate_levy(m, 4, -1.0, 4)
        with pytest.raises(ConfigError, match="need at least one step"):
            fk.simulate_levy(m, 4, 1.0, 0)
        with pytest.raises(ConfigError, match="give n_steps or a positive h_max"):
            fk.simulate_stable_like(mx, 4, 1.0, n_steps=None, h_max=0.0)
        with pytest.raises(ConfigError, match="this scheme is for stable-like models"):
            fk.simulate_stable_like(fk.brownian(1), 4, 1.0)
        with pytest.raises(
            ConfigError, match="exact simulation needs one of the built-in Levy families"
        ):
            fk.simulate_levy(mx, 4, 1.0, 4)


@pytest.fixture(scope="module")
def eight_step():
    return fk.simulate_levy(fk.alpha_stable(1.5), 500, 1.0, 8, seed=21, start=0.3)


@pytest.fixture(scope="module")
def pair():
    m = fk.alpha_stable(1.5)
    a = fk.simulate_levy(m, 500, 1.0, 8, seed=21, start=0.3)
    b = fk.simulate_levy(m, 500, 1.0, 8, seed=22, start=0.3)
    return a, b


class TestEnsembleInterface:
    def test_time_index(self, eight_step):
        assert eight_step.time_index(0.5) == 4

    def test_off_grid_time_is_rejected(self, eight_step):
        msg = "t = 0.1234 is not a grid time; nearest grid times are [0.0, 0.125, 0.25]"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            eight_step.time_index(0.1234)


class TestSymmetrize:
    def test_positions_halve_the_difference(self, pair):
        a, b = pair
        sym = fk.symmetrize_paths(a, b)
        manual = 0.5 * (a.positions + 2.0 * 0.3 - b.positions)
        assert np.array_equal(sym.positions, manual)
        assert sym.scheme == "symmetrized(exact_increments)"
        assert np.array_equal(sym.start, a.start)
        assert sym.seed_lineage == {"base": a.seed_lineage, "mirror": b.seed_lineage}

    def test_shared_lineage_warns(self, pair):
        a, _ = pair
        same = fk.simulate_levy(fk.alpha_stable(1.5), 500, 1.0, 8, seed=21, start=0.3)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fk.symmetrize_paths(a, same)
        assert len(rec) == 1
        assert "itself" in str(rec[0].message)

    def test_mismatch_guards(self, pair):
        a, _ = pair
        m = fk.alpha_stable(1.5)
        other_shape = fk.simulate_levy(m, 400, 1.0, 8, seed=23, start=0.3)
        other_grid = fk.simulate_levy(m, 500, 2.0, 8, seed=24, start=0.3)
        other_start = fk.simulate_levy(m, 500, 1.0, 8, seed=25, start=-0.3)
        with pytest.raises(ConfigError, match="ensembles must have identical shapes"):
            fk.symmetrize_paths(a, other_shape)
        with pytest.raises(ConfigError, match="ensembles must share the time grid"):
            fk.symmetrize_paths(a, other_grid)
        with pytest.raises(ConfigError, match="ensembles must share the start point"):
            fk.symmetrize_paths(a, other_start)

    def test_estimators_accept_the_symmetrized_paths(self, pair):
        a, b = pair
        sym = fk.symmetrize_paths(a, b)
        est = fk.empirical_char_fn(sym, 1.0, 1.5)
        assert est.n_paths == 500
        assert est.t == 1.0
