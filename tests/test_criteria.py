"""Envelope-driven criteria: characteristic function and heat kernel
bounds, ultracontractivity, transience, local times, occupation measure,
small-time horizons, and exit-time estimates.

Closed-form oracles: the Brownian heat bound at t = 1 is 1/sqrt(pi); the
Cauchy bound at t = 1 is 8/pi; the occupation bound for the 1/2-stable
envelope at radius 1 is 256/pi.  The local-time integral for the
1.5-stable envelope was computed independently and frozen.
"""

import math

import numpy as np
import pytest

import fellerkit as fk


@pytest.fixture(scope="module")
def stable_env():
    return {a: fk.build_envelope(fk.alpha_stable(a, 1)) for a in (0.5, 1.0, 1.5)}


@pytest.fixture(scope="module")
def stable_three_halves():
    m = fk.alpha_stable(1.5, 1)
    return m, fk.build_envelope(m)


class TestCharFnBound:
    def test_brownian_value(self):
        env = fk.build_envelope(fk.brownian(1))
        # exp(-(t/16) q_inf(2 xi)) with q_inf(2) = 4
        assert fk.char_fn_bound(env, 1.0, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-15)

    def test_time_zero_is_one(self):
        env = fk.build_envelope(fk.brownian(1))
        assert fk.char_fn_bound(env, 0.0, 3.0) == 1.0

    def test_negative_time_rejected(self):
        env = fk.build_envelope(fk.brownian(1))
        with pytest.raises(fk.ConfigError):
            fk.char_fn_bound(env, -0.5, 1.0)

    def test_vectorized_in_xi(self):
        env = fk.build_envelope(fk.alpha_stable(0.5, 1))
        xis = np.array([0.5, 1.0, 2.0])
        vals = fk.char_fn_bound(env, 2.0, xis)
        want = np.exp(-(2.0 / 16.0) * np.sqrt(2.0 * np.abs(xis)))
        assert np.allclose(vals, want, rtol=1e-14)


class TestHeatKernelBound:
    def test_brownian_t1_closed_form(self):
        env = fk.build_envelope(fk.brownian(1))
        val = fk.heat_kernel_sup_bound(env, 1.0)
        assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)

    def test_drifted_brownian_direction_average_closed_form(self):
        # drift only enters Im p, so q_inf and the bound match the driftless
        # case; the drift makes the envelope non-radial, which exercises the
        # d = 1 average over both signs of xi
        env = fk.build_envelope(fk.brownian(1, drift=0.5))
        assert not env.radial
        val = fk.heat_kernel_sup_bound(env, 1.0)
        assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-9)

    def test_nonradial_two_dimensional_closed_form(self):
        # q_inf = xi1^2 + 4 xi2^2 is not radial, so every shell averages
        # over the full direction set; the Gaussian integral gives
        # (4 pi)^-2 * pi * 16 / 2 = 1 / (2 pi)
        model = fk.closed_form_symbol("xi1**2 + 4*xi2**2", dimension=2, radial_in_xi=False)
        env = fk.build_envelope(model)
        assert not env.radial
        val = fk.heat_kernel_sup_bound(env, 1.0)
        assert val == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-9)

    def test_brownian_scaling(self):
        env = fk.build_envelope(fk.brownian(1))
        v01 = fk.heat_kernel_sup_bound(env, 0.1)
        v1 = fk.heat_kernel_sup_bound(env, 1.0)
        assert v01 == pytest.approx(v1 * math.sqrt(10.0), rel=1e-9)

    def test_cauchy_t1_closed_form(self):
        env = fk.build_envelope(fk.cauchy(1))
        val = fk.heat_kernel_sup_bound(env, 1.0)
        assert val == pytest.approx(8.0 / math.pi, rel=1e-9)

    def test_full_result_object(self):
        env = fk.build_envelope(fk.brownian(1))
        val, res = fk.heat_kernel_sup_bound(env, 1.0, full=True)
        assert res.classification == "convergent"
        assert res.value == val

    def test_nonpositive_time_rejected(self):
        env = fk.build_envelope(fk.brownian(1))
        with pytest.raises(fk.ConfigError):
            fk.heat_kernel_sup_bound(env, 0.0)

    def test_compound_poisson_is_infinite(self):
        # bounded symbols give no integrable decay: the bound is inf, not
        # a numerical explosion
        env = fk.build_envelope(fk.compound_poisson(2.0, 0.3, 1.0))
        assert math.isinf(fk.heat_kernel_sup_bound(env, 1.0))


class TestUltracontractivity:
    def test_stable_holds(self):
        env = fk.build_envelope(fk.alpha_stable(0.5, 1))
        rep = fk.test_ultracontractivity(env)
        assert rep.verdict == "holds"
        assert rep.criterion == "ultracontractivity"

    def test_compound_poisson_inconclusive(self):
        env = fk.build_envelope(fk.compound_poisson(2.0, 0.3, 1.0))
        rep = fk.test_ultracontractivity(env)
        assert rep.verdict == "inconclusive"


class TestTransience:
    def test_half_stable_is_transient(self, stable_env):
        rep = fk.test_transience(stable_env[0.5])
        assert rep.verdict == "holds"
        assert rep.evidence["integral"]["classification"] == "convergent"

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_recurrent_range_is_inconclusive(self, stable_env, alpha):
        rep = fk.test_transience(stable_env[alpha])
        assert rep.verdict == "inconclusive"
        assert rep.evidence["integral"]["classification"] == "divergent_at_zero"

    def test_single_radius_note(self, stable_env):
        rep = fk.test_transience(stable_env[0.5])
        assert "single radius" in rep.evidence["note"]

    def test_radial_shortcut_note(self, stable_env):
        rep = fk.test_transience(stable_env[0.5], radial_shortcut=True)
        assert rep.verdict == "holds"
        assert "one radius decides" in rep.evidence["note"]

    def test_negative_envelope_fails(self):
        env = fk.build_envelope(fk.closed_form_symbol("0 - abs(xi)", conservative=False))
        rep = fk.test_transience(env)
        assert rep.verdict == "fails"
        assert "negative values" in rep.evidence["note"]


class TestLocalTimes:
    def test_three_halves_stable_holds_with_frozen_value(self, stable_env):
        rep = fk.test_local_times(stable_env[1.5])
        assert rep.verdict == "holds"
        assert rep.evidence["integral"]["value"] == pytest.approx(4.83679830462458, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_low_index_inconclusive(self, stable_env, alpha):
        rep = fk.test_local_times(stable_env[alpha])
        assert rep.verdict == "inconclusive"
        assert rep.evidence["integral"]["classification"] == "divergent_at_infinity"

    def test_stable_like_band_holds(self):
        m = fk.stable_like_symbol("1.7 - 0.2*cos(x)", 1.5, 1.9)
        rep = fk.test_local_times(fk.build_envelope(m))
        assert rep.verdict == "holds"


class TestOccupationBound:
    def test_half_stable_closed_form(self, stable_env):
        # 16 surface / q_inf integral: 256/pi at radius 1 for alpha = 1/2
        val = fk.occupation_bound(stable_env[0.5], 1.0)
        assert val == pytest.approx(256.0 / math.pi, rel=1e-9)

    def test_radius_scaling(self, stable_env):
        v1 = fk.occupation_bound(stable_env[0.5], 1.0)
        v2 = fk.occupation_bound(stable_env[0.5], 2.0)
        assert v2 / v1 == pytest.approx(2.0**-0.5, rel=1e-9)

    def test_radius_validated(self, stable_env):
        with pytest.raises(fk.ConfigError, match="radius must be positive"):
            fk.occupation_bound(stable_env[0.5], 0.0)

    def test_bounded_symbol_is_infinite(self):
        env = fk.build_envelope(fk.compound_poisson(2.0, 0.3, 1.0))
        assert math.isinf(fk.occupation_bound(env, 1.0))


class TestSmallTimeHorizon:
    def test_three_halves_frozen_values(self, stable_three_halves):
        m, env = stable_three_halves
        rep = fk.small_time_horizon(m, env, 2.0, 0.5)
        assert rep.t1 == 0.022097086912079608
        assert rep.g1 == 0.0625
        assert rep.g2 == 0.0625
        assert rep.t2 <= rep.t1
        assert rep.sector_constant == 0.0

    def test_drift_sector_constant(self):
        m = fk.alpha_stable(1.0, 1, drift=0.2)
        rep = fk.small_time_horizon(m, fk.build_envelope(m), 2.0, 0.5)
        assert abs(rep.sector_constant - 0.2) < 1e-12

    def test_three_halves_t2_pin(self, stable_three_halves):
        # t2 carries bump_constant, which moves by about 1e-10 with the last
        # bits of the Legendre rule
        m, env = stable_three_halves
        rep = fk.small_time_horizon(m, env, 2.0, 0.5)
        assert rep.t2 == pytest.approx(3.0119056600159107e-05, rel=1e-9)

    def test_sector_constant_sees_every_direction(self):
        # the drift acts along e_2 only, so the sector constant 0.1 is seen
        # only by directions near the vertical axis
        m = fk.alpha_stable(1.0, 2, drift=[0.0, 0.1])
        rep = fk.small_time_horizon(m, fk.build_envelope(m), [0.0, 2.0], 0.5)
        assert rep.sector_constant == pytest.approx(0.1, rel=1e-12)
        assert rep.decay_rate == pytest.approx(0.8, rel=1e-12)

    def test_epsilon_validated(self, stable_three_halves):
        m, env = stable_three_halves
        with pytest.raises(fk.ConfigError, match="eps must lie in"):
            fk.small_time_horizon(m, env, 2.0, 0.0)
        with pytest.raises(fk.ConfigError, match="eps must lie in"):
            fk.small_time_horizon(m, env, 2.0, 1.0)

    def test_xi_validated(self, stable_three_halves):
        m, env = stable_three_halves
        with pytest.raises(fk.ConfigError, match="xi != 0"):
            fk.small_time_horizon(m, env, 0.0, 0.5)


class TestBumpConstant:
    def test_frozen_values_by_dimension(self):
        assert fk.bump_constant(1) == pytest.approx(32.42340930521713, rel=1e-12)
        assert fk.bump_constant(2) == pytest.approx(166.7527227427305, rel=1e-12)
        assert fk.bump_constant(3) == pytest.approx(697.2105714237291, rel=1e-12)

    def test_independent_one_dimensional_estimate(self):
        # independent evaluation of the same ratio sup with a denser grid
        # and a different quadrature lands within a few parts in 1e5
        assert fk.bump_constant(1) == pytest.approx(32.424472640814166, rel=2e-4)

    def test_custom_smooth_profile(self):
        def squared_bump(r):
            r = np.asarray(r, dtype=float)
            inside = np.abs(r) < 1.0
            safe = np.where(inside, r, 0.0)
            return np.where(inside, np.exp(2.0 - 2.0 / (1.0 - safe * safe)), 0.0)

        c = fk.bump_constant(1, squared_bump)
        assert c == pytest.approx(17.033922247023874, rel=1e-12)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(fk.ConfigError, match=r"u\(0\) = 1"):
            fk.bump_constant(1, lambda r: 0.0 * np.asarray(r))
        with pytest.raises(fk.ConfigError, match=r"values in \[0, 1\]"):
            fk.bump_constant(1, lambda r: 1.0 - 2.0 * np.asarray(r))
        with pytest.raises(fk.ConfigError, match="decay to 0 at the unit sphere"):
            fk.bump_constant(1, lambda r: np.ones_like(np.asarray(r, dtype=float)))

    def test_dimension_guard(self):
        with pytest.raises(fk.ConfigError, match="dimensions 1 to 3"):
            fk.bump_constant(4)


class TestExitTimeBound:
    def test_brownian_small_time(self):
        rep = fk.exit_time_bound(fk.brownian(1), 0.0, 1.0, 0.01)
        assert rep.value == pytest.approx(0.01 * rep.c_u, rel=1e-12)
        assert rep.raw == rep.value
        assert rep.sup_symbol == pytest.approx(1.0)
        assert rep.c_u == pytest.approx(32.42340930521713, rel=1e-12)

    def test_probability_clipped_at_one(self):
        rep = fk.exit_time_bound(fk.brownian(1), 0.0, 1.0, 10.0)
        assert rep.value == 1.0
        assert rep.raw > 1.0

    def test_c_u_cached(self):
        r1 = fk.exit_time_bound(fk.brownian(1), 0.0, 1.0, 0.01)
        r2 = fk.exit_time_bound(fk.brownian(1), 0.0, 2.0, 0.02)
        assert r1.c_u == r2.c_u

    def test_arguments_validated(self):
        with pytest.raises(fk.ConfigError, match="need r > 0"):
            fk.exit_time_bound(fk.brownian(1), 0.0, 0.0, 0.01)
        with pytest.raises(fk.ConfigError, match="need r > 0"):
            fk.exit_time_bound(fk.brownian(1), 0.0, 1.0, -1.0)


class TestHeatExponentFit:
    def test_brownian_slope_is_minus_half(self):
        env = fk.build_envelope(fk.brownian(1))
        rep = fk.heat_exponent_fit(env)
        assert rep.small_t_slope == pytest.approx(-0.5, rel=1e-9)
        assert rep.large_t_slope == pytest.approx(-0.5, rel=1e-9)

    def test_band_model_slopes(self):
        m = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        rep = fk.heat_exponent_fit(fk.build_envelope(m))
        # small times governed by the larger exponent ceiling, large times
        # by the smaller one: -1/1.2 and -1/1.8 up to quadrature drift
        assert rep.small_t_slope == pytest.approx(-1.0 / 1.2, rel=1e-6)
        assert rep.large_t_slope == pytest.approx(-1.0 / 1.8, rel=1e-3)

    def test_sparse_grid_rejected(self):
        env = fk.build_envelope(fk.brownian(1))
        with pytest.raises(fk.ConfigError, match="three points in each decade"):
            fk.heat_exponent_fit(env, t_grid=[0.1, 1.0])

    def test_divergent_bound_raises(self):
        env = fk.build_envelope(fk.compound_poisson(2.0, 0.3, 1.0))
        with pytest.raises(fk.NumericalError, match="diverges on the fit grid"):
            fk.heat_exponent_fit(env)


class TestStableLikeTailTransience:
    def test_low_band_holds_as_diagnostic(self):
        m = fk.stable_like_symbol("0.7 + 0.1*sin(x)", 0.5, 0.9)
        rep = fk.stable_like_tail_transience(m, 3)
        assert rep.verdict == "holds"
        assert any("diagnostic only" in c for c in rep.caveats)

    def test_band_crossing_dimension_inconclusive(self):
        m = fk.stable_like_symbol("1.0 + 0.2*sin(x)", 0.7, 1.3)
        rep = fk.stable_like_tail_transience(m, 1)
        assert rep.verdict == "inconclusive"

    def test_requires_stable_like_model(self):
        with pytest.raises(fk.ConfigError):
            fk.stable_like_tail_transience(fk.brownian(1), 1)
