"""Envelope-driven criteria: characteristic function and heat kernel
bounds, ultracontractivity, transience, local times, occupation measure
and exit-time estimates.

Closed-form oracles: the Brownian heat bound at t = 1 is 1/sqrt(pi); the
Cauchy bound at t = 1 is 8/pi; the occupation bound for the 1/2-stable
envelope at radius 1 is 256/pi.  The local-time integral for the
1.5-stable envelope was computed independently and frozen.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

import fellerkit as fk

# 161 heat times, 1e-4 ... 1e4, twenty to a decade
HEAT_TIMES = [10.0 ** ((k - 80) / 20.0) for k in range(161)]


def _counted_envelope(model, **kwargs):
    """A fresh envelope of ``model`` and a list that counts its q_inf_fn calls."""
    env = fk.build_envelope(model, **kwargs)
    calls = []
    real = env.q_inf_fn

    def q_inf_fn(xi):
        calls.append(len(xi))
        return real(xi)

    env.q_inf_fn = q_inf_fn
    return env, calls


@pytest.fixture(scope="module")
def stable_env():
    return {a: fk.build_envelope(fk.alpha_stable(a, 1)) for a in (0.5, 1.0, 1.5)}


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        # a nan or infinite t used to give a nan bound
        env = fk.build_envelope(fk.brownian(1))
        with pytest.raises(fk.ConfigError, match="time must be nonnegative and finite"):
            fk.char_fn_bound(env, t, 1.0)

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


class TestHeatKernelTimes:
    @pytest.mark.parametrize(
        "t", [math.nan, math.inf, -math.inf, [1.0, math.nan], np.array([0.5, 2.0, math.inf])]
    )
    def test_nonfinite_time_rejected_before_the_walk(self, t):
        env, calls = _counted_envelope(fk.brownian(1))
        with pytest.raises(fk.ConfigError, match="the density bound needs a finite t"):
            fk.heat_kernel_sup_bound(env, t)
        assert calls == []

    def test_nonpositive_time_in_a_sequence_rejected(self):
        env, calls = _counted_envelope(fk.brownian(1))
        with pytest.raises(fk.ConfigError, match="the density bound needs t > 0"):
            fk.heat_kernel_sup_bound(env, [1.0, 2.0, 0.0])
        assert calls == []

    def test_a_2d_time_array_rejected_before_the_walk(self):
        env, calls = _counted_envelope(fk.brownian(1))
        with pytest.raises(
            fk.ConfigError, match="^the density bound takes one time or a 1-D sequence of times$"
        ):
            fk.heat_kernel_sup_bound(env, [[0.1, 1.0]])
        assert calls == []

    def test_return_types(self):
        env = fk.build_envelope(fk.brownian(1))
        one = fk.heat_kernel_sup_bound(env, 1.0)
        assert type(one) is float
        many = fk.heat_kernel_sup_bound(env, [0.1, 1.0])
        assert isinstance(many, np.ndarray) and many.shape == (2,)
        assert many[1] == one
        values, results = fk.heat_kernel_sup_bound(env, [0.1, 1.0], full=True)
        assert np.array_equal(values, many)
        assert [r.value for r in results] == many.tolist()
        assert all(r.classification == "convergent" for r in results)
        assert fk.heat_kernel_sup_bound(env, []).shape == (0,)

    def test_times_equal_the_scalar_loop_bit_for_bit_on_the_closed_form(self):
        model = fk.stable_like_symbol("1.5 + 0.3*sin(x1)*cos(x2)", 1.2, 1.8, dimension=2)
        env = fk.build_envelope(model)
        values, results = fk.heat_kernel_sup_bound(env, HEAT_TIMES, full=True)
        for t, value, result in zip(HEAT_TIMES, values.tolist(), results):
            want, want_result = fk.heat_kernel_sup_bound(env, t, full=True)
            assert value == want, t
            assert result.abs_error_estimate == want_result.abs_error_estimate, t
            assert result.annulus_trace == want_result.annulus_trace, t

    @pytest.mark.parametrize(
        "model, kwargs",
        [
            (
                fk.closed_form_symbol("(1.25 + 0.5*sin(x)) * abs(xi)**1.5", radial_in_xi=True),
                {"x_domain": [(0.0, 2.0 * math.pi)], "resolution": 33, "tail": "periodic"},
            ),
            (fk.closed_form_symbol("xi1**2 + 4*xi2**2", dimension=2, radial_in_xi=False), {}),
        ],
        ids=["grid", "nonradial_state_free"],
    )
    def test_times_match_the_scalar_loop_within_the_error_estimate(self, model, kwargs):
        env = fk.build_envelope(model, **kwargs)
        times = np.logspace(-3, 3, 13)
        values = fk.heat_kernel_sup_bound(env, times)
        for t, value in zip(times, values):
            want, result = fk.heat_kernel_sup_bound(env, t, full=True)
            assert abs(value - want) <= result.abs_error_estimate, t

    def test_all_times_share_one_shell_walk(self):
        # every envelope query reaches q_inf_fn, so a walk per heat time
        # would ask for about 161 times the points of one; the count of
        # calls is no measure, since a round holds more shells the fewer
        # rows it serves
        model = fk.stable_like_symbol("1.5 + 0.3*sin(x1)*cos(x2)", 1.2, 1.8, dimension=2)
        env, calls = _counted_envelope(model)
        fk.heat_kernel_sup_bound(env, HEAT_TIMES)
        together = sum(calls)
        longest = 0
        for t in HEAT_TIMES:
            env, calls = _counted_envelope(model)
            fk.heat_kernel_sup_bound(env, t)
            longest = max(longest, sum(calls))
        assert together <= 2 * longest


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

    # exp overflows at |xi| = 1e6, as it does from the command line
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_infinite_margin_is_no_evidence(self):
        # the finite margins grow past the threshold; the last is +inf
        model = fk.closed_form_symbol("abs(xi)**1.5 + exp(0.71*abs(xi)**0.5)")
        rep = fk.test_ultracontractivity(fk.build_envelope(model))
        margins = rep.evidence["margins"]
        assert margins[-1] == math.inf and 10.0 < margins[-2] < math.inf
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

    @staticmethod
    def _envelope(name):
        if name == "grid_envelope_2d":
            model = fk.closed_form_symbol(
                "(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75",
                dimension=2, radial_in_xi=True,
            )
            box = [(0.0, 2.0 * math.pi)] * 2
            return fk.build_envelope(
                model, box, 33, "periodic", use_closed_form=False
            )
        if name == "heat_curve_stable_2d":
            return fk.build_envelope(
                fk.stable_like_symbol("1.5 + 0.3*sin(x1)*cos(x2)", 1.2, 1.8, dimension=2)
            )
        return fk.build_envelope({
            "stable_d1": fk.alpha_stable(0.5, 1),
            "stable_d3": fk.alpha_stable(1.5, 3),
            "drifted_stable_d2": fk.alpha_stable(1.0, 2, drift=[0.0, 0.1]),
            "brownian_d3": fk.brownian(3),
        }[name])

    @pytest.mark.parametrize("name, r", [
        ("grid_envelope_2d", 1.0),
        *[("heat_curve_stable_2d", r) for r in (0.25, 0.5, 1.0, 2.0)],
        *[(name, r) for name in ("stable_d1", "stable_d3", "drifted_stable_d2", "brownian_d3")
          for r in (0.5, 2.0)],
    ])
    def test_eta_space_walk_matches_the_xi_space_integral(self, name, r):
        # reference: the bound as its own walk over |xi| <= 2 r sqrt(d) of
        # 1 / q_inf(2 xi); the frequency_criteria row walks eta = 2 xi
        env = self._envelope(name)
        d = env.dimension
        reference = fk.classify_improper(
            lambda xi: np.reciprocal(env.q_inf(2.0 * xi)), d, radius=2.0 * r * math.sqrt(d),
            include_tail=False, radial=env.radial,
        )
        prefactor = 4.0 ** (d + 2) / (math.pi * r) ** d
        value, result = fk.occupation_bound(env, r, full=True)
        assert result == reference
        assert value == prefactor * reference.value


class TestOneLockstepWalk:
    """frequency_criteria walks every criterion's shells, at every radius
    and in both directions, in one lockstep classify_family call."""

    def test_one_call_gives_each_criterion_its_own_result(self, monkeypatch):
        env = fk.build_envelope(fk.alpha_stable(1.5, 2))
        calls = []
        real = fk.criteria.classify_family
        monkeypatch.setattr(
            fk.criteria, "classify_family", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        transience, local_times, bounds, heat, occ_bounds, occ = fk.criteria.frequency_criteria(
            env, 0.5, True, [0.1, 1.0], occupation_radii=[0.25, 1.0]
        )
        assert calls == [1]
        assert transience.evidence == fk.test_transience(env, 0.5).evidence
        assert local_times.evidence == fk.test_local_times(env).evidence
        for t, bound, result in zip([0.1, 1.0], bounds, heat):
            assert (bound, result) == fk.heat_kernel_sup_bound(env, t, full=True)
        for r, bound, result in zip([0.25, 1.0], occ_bounds, occ):
            assert (bound, result) == fk.occupation_bound(env, r, full=True)

    def test_grid_envelope_2d_makes_one_query_per_round(self, under_round_budgets):
        # the walks are inner at radius 1 (transience, local times, heat),
        # outer at radius 1 (local times, heat) and inner at 4 sqrt(2) (the
        # occupation row), of about 40 passes each; one after the other
        # they made 121 queries besides the probe
        def walk():
            env, calls = _counted_envelope(
                fk.closed_form_symbol(
                    "(1.25 + 0.5*sin(x1)*cos(x2)) * (xi1**2 + xi2**2)**0.75",
                    dimension=2, radial_in_xi=True,
                ),
                x_domain=[(0.0, 2.0 * math.pi)] * 2, resolution=33, tail="periodic",
            )
            transience, local_times, _, heat, _, occ = fk.criteria.frequency_criteria(
                env, 1.0, True, [1.0], occupation_radii=[1.0]
            )
            traces = [
                transience.evidence["integral"]["annulus_trace"],
                local_times.evidence["integral"]["annulus_trace"],
                *(result.annulus_trace for result in heat + occ),
            ]
            return calls, traces

        (calls, traces), (rounds, same_traces) = under_round_budgets(walk)
        longest = max(
            max(sum(j < 0 for j, _ in trace), sum(j >= 0 for j, _ in trace)) for trace in traces
        )
        # one shell per round: one query for the probe, then one per round,
        # and a walk makes at least one pass per shell
        assert longest <= len(calls) - 1 <= 44
        # by default a walk also asks for the first passes of the shells it
        # is sure to take: here the first 40 of every walk
        assert same_traces == traces
        assert sum(rounds) == sum(calls)
        assert len(rounds) - 1 <= 2

    def test_a_round_asks_for_each_node_radius_once(self):
        # in d = 1 the occupation row of r = 0.5 walks inward from
        # |eta| = 2 and the heat rows outward from 1: both walks start on
        # the shell [1, 2], in the same round, and its 21 nodes were asked
        # for twice (1704 points)
        env, calls = _counted_envelope(fk.alpha_stable(0.5, 1))
        _, local_times, bounds, heat, occ_bounds, occ = fk.criteria.frequency_criteria(
            env, None, True, [1.0], occupation_radii=[0.5]
        )
        assert sum(calls) == 1683
        env = fk.build_envelope(fk.alpha_stable(0.5, 1))
        assert local_times.evidence == fk.test_local_times(env).evidence
        assert (bounds[0], heat[0]) == fk.heat_kernel_sup_bound(env, 1.0, full=True)
        assert (occ_bounds[0], occ[0]) == fk.occupation_bound(env, 0.5, full=True)


def _criteria_values(model, times):
    """Every value and error estimate of frequency_criteria at r = 0.5,
    with local times, the heat bound at ``times`` and one occupation
    radius."""
    import fellerkit as fk

    env = fk.build_envelope(model)
    *reports, bounds, heat, occ_bounds, occ = fk.criteria.frequency_criteria(
        env, 0.5, True, times, occupation_radii=[1.0]
    )
    integrals = [report.evidence["integral"] for report in reports]
    return (
        [(i["value"], i["abs_error_estimate"]) for i in integrals],
        bounds.tolist(), occ_bounds, [(res.value, res.abs_error_estimate) for res in heat + occ],
    )


def test_frequency_engine_is_bit_identical_across_blas_kernels(under_blas_kernels):
    """The qk21 pieces are reduced without BLAS and the heat exponent fit
    is solved in closed form: with a BLAS product and np.polyfit every
    part of this probe had other bits under each of the three kernels."""
    probe = inspect.getsource(_criteria_values) + (
        "import fellerkit as fk\n"
        "fits = [fk.heat_exponent_fit(fk.build_envelope(m)) for m in"
        " (fk.stable_like_symbol('1.5 + 0.3*sin(x)', 1.2, 1.8), fk.brownian(1))]\n"
        "print(repr((\n"
        "    _criteria_values(fk.stable_like_symbol('1.5 + 0.3*sin(x1)*cos(x2)', 1.2, 1.8, 2),"
        " [0.01, 1.0, 100.0]),\n"
        "    _criteria_values(fk.closed_form_symbol("
        "'abs(xi1)**1.5 + 0.5*abs(xi2)**1.5 + 0.25*abs(xi1*xi2)', dimension=2), [0.1, 10.0]),\n"
        "    [(fit.small_t_slope, fit.large_t_slope) for fit in fits],\n"
        ")))\n"
    )
    seen = under_blas_kernels(probe)
    assert len(set(seen.values())) == 1, seen


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("criterion", [fk.test_transience, fk.occupation_bound])
def test_radius_must_be_finite_and_positive(criterion, radius):
    # the ball |xi| <= r needs a finite r > 0, and NaN passes a plain r <= 0
    env = fk.build_envelope(fk.alpha_stable(1.5, 2))
    with pytest.raises(fk.ConfigError, match="radius must be positive"):
        criterion(env, radius)


def squared_bump(r):
    r = np.asarray(r, dtype=float)
    inside = np.abs(r) < 1.0
    safe = np.where(inside, r, 0.0)
    return np.where(inside, np.exp(2.0 - 2.0 / (1.0 - safe * safe)), 0.0)


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
        c = fk.bump_constant(1, squared_bump)
        assert c == pytest.approx(17.033922247023874, rel=1e-12)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(fk.ConfigError, match=r"u\(0\) = 1"):
            fk.bump_constant(1, lambda r: 0.0 * np.asarray(r))
        with pytest.raises(fk.ConfigError, match=r"values in \[0, 1\]"):
            fk.bump_constant(1, lambda r: 1.0 - 2.0 * np.asarray(r))
        with pytest.raises(fk.ConfigError, match="decay to 0 at the unit sphere"):
            fk.bump_constant(1, lambda r: np.ones_like(np.asarray(r, dtype=float)))

    # a NaN fails every comparison, so each check must be one that NaN fails
    def test_nan_at_the_origin_rejected(self):
        def profile(r):
            r = np.asarray(r, dtype=float)
            return np.where(r == 0.0, np.nan, fk.criteria._default_bump(r))

        with pytest.raises(fk.ConfigError, match=r"u\(0\) = 1"):
            fk.bump_constant(1, profile)

    def test_nan_inside_the_ball_rejected(self):
        def profile(r):
            r = np.asarray(r, dtype=float)
            return np.where((r > 0.3) & (r < 0.5), np.nan, fk.criteria._default_bump(r))

        with pytest.raises(fk.ConfigError, match=r"values in \[0, 1\]"):
            fk.bump_constant(1, profile)

    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    def test_bad_values_at_outer_nodes_rejected(self, bad):
        # only nodes 15-18 from the edge of the 1024-point rule see the bad
        # values, which used to end in the transform's tail error
        def profile(r):
            r = np.asarray(r, dtype=float)
            return np.where((r > 0.9991) & (r < 0.9994), bad, fk.criteria._default_bump(r))

        with pytest.raises(fk.ConfigError, match=r"values in \[0, 1\]"):
            fk.bump_constant(1, profile)

    def test_nan_at_the_unit_sphere_rejected(self):
        # NaN from 0.9992 on, at the decay probe 0.9995 too
        def profile(r):
            r = np.asarray(r, dtype=float)
            return np.where(r > 0.9992, np.nan, fk.criteria._default_bump(r))

        with pytest.raises(fk.ConfigError, match="decay to 0 at the unit sphere"):
            fk.bump_constant(1, profile)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cold_constant_peaks_below_two_megabytes(self, d, monkeypatch):
        from scipy import special  # noqa: F401  (the J0 import is not the transform's memory)

        monkeypatch.setattr(fk.criteria, "_BUMP_CACHE", {})
        tracemalloc.start()
        try:
            fk.bump_constant(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_stored_constants_are_the_rule_s_bits(self, monkeypatch):
        stored = {d: fk.criteria._BUMP_CACHE[d] for d in (1, 2, 3)}
        monkeypatch.setattr(fk.criteria, "_BUMP_CACHE", {})
        fresh = {d: fk.bump_constant(d) for d in (1, 2, 3)}
        # a changed rule prints the literals to store in criteria._BUMP_CACHE
        assert fresh == stored, {d: c.hex() for d, c in fresh.items()}

    def test_bit_identical_across_blas_kernels(self, under_blas_kernels):
        # neither the Legendre rule nor the transform goes through LAPACK or
        # BLAS, so the OpenBLAS kernel cannot move a bit of any constant;
        # the stored constants are dropped, so the rule runs for each
        probe = inspect.getsource(squared_bump) + (
            "import fellerkit as fk\n"
            "fk.criteria._BUMP_CACHE.clear()\n"
            "print(repr([fk.bump_constant(1), fk.bump_constant(2), fk.bump_constant(3),"
            " fk.bump_constant(1, squared_bump)]))\n"
        )
        seen = under_blas_kernels("import numpy as np\n" + probe)
        assert len(set(seen.values())) == 1, seen


class TestGaussLegendre:
    """The 1024-point rule behind bump_constant against mpmath.

    References are at 40 digits: Newton on the three-term recurrence at 50
    digits, confirmed with mpmath.legendre and findroot.  Row k holds the
    k-th largest node x_k and its weight; the rule's ascending index of
    -x_k is k, of x_k its mirror 1023 - k.  (numpy's LAPACK-based leggauss
    is off by 1.2e-9 in the weight at k = 0 and by 4e-13 at k = 100.)
    """

    REFERENCE = {
        0: ("0.9999972450545584403516182061830499337427",
            "7.070076410182589871295805175639999432512e-6"),
        1: ("0.999985484385028444767591359765281266446",
            "1.645772757989686810680579875671040848569e-5"),
        5: ("0.9998444384611711916084366922555314286462",
            "5.406568289394000719879177977020036001277e-5"),
        100: ("0.9526543752489854069548347399613488481459",
              "9.323735951391753507612280656836636620585e-4"),
        511: ("0.001533231356062638406538745576978832626034",
              "3.066460309243908211551278492051043539111e-3"),
    }

    def test_nodes_and_weights_match_mpmath(self):
        nodes, weights = fk.criteria._gauss_legendre(1024)
        assert nodes.shape == weights.shape == (1024,)
        for k, (x_ref, w_ref) in self.REFERENCE.items():
            x_ref, w_ref = float(x_ref), float(w_ref)
            # leggauss's own error at the outermost weights, 1.2e-9, sets their bound
            w_rel = 2e-9 if k < 5 else 1e-12
            for i, sign in ((k, -1.0), (1023 - k, 1.0)):
                assert abs(nodes[i] - sign * x_ref) <= 2 * np.spacing(x_ref), (i, nodes[i])
                assert weights[i] == pytest.approx(w_ref, rel=w_rel), i

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

    def test_dimension_is_checked_before_the_ball_grids(self, monkeypatch):
        # in d = 4 the grids would hold 17^4 x 17^4 symbol values
        def no_grids(*args):
            raise AssertionError("the ball grids were built")

        monkeypatch.setattr(fk.criteria, "ball_sup", no_grids)
        with pytest.raises(fk.ConfigError, match="^bump constants are provided for dimensions 1 to 3$"):
            fk.exit_time_bound(fk.alpha_stable(1.5, 4), np.zeros(4), 1.0, 0.01)

    def test_arguments_validated(self):
        with pytest.raises(fk.ConfigError, match="need r > 0"):
            fk.exit_time_bound(fk.brownian(1), 0.0, 0.0, 0.01)
        with pytest.raises(fk.ConfigError, match="need r > 0"):
            fk.exit_time_bound(fk.brownian(1), 0.0, 1.0, -1.0)

    @pytest.mark.parametrize("r, t", [
        (math.nan, 0.01), (math.inf, 0.01), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_arguments_rejected(self, r, t):
        # a nan t used to give the bound 0.0, on the unsafe side
        with pytest.raises(fk.ConfigError, match="need r > 0 and t >= 0, both finite"):
            fk.exit_time_bound(fk.brownian(1), 0.0, r, t)


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

    def test_bounds_equal_the_per_time_loop(self):
        env = fk.build_envelope(fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8))
        rep = fk.heat_exponent_fit(env)
        assert rep.bounds.tolist() == [fk.heat_kernel_sup_bound(env, t) for t in rep.t_values]


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

    # K = 0 sampled only x = 0 and held, K = -2 reported the window
    # [-2, -16], and nan or inf gave "inconclusive" with RuntimeWarnings
    @pytest.mark.parametrize("K", [0.0, -2.0, math.nan, math.inf])
    def test_K_must_be_finite_and_positive(self, K):
        m = fk.stable_like_symbol("0.7 + 0.1*sin(x)", 0.5, 0.9)
        with pytest.raises(fk.ConfigError, match="K must be finite and positive"):
            fk.stable_like_tail_transience(m, K)
