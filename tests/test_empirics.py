"""Estimator tests: characteristic functions, bound validation, generator
finite differences, occupation and exit statistics.

Seeds are fixed throughout; recorded Monte Carlo margins are quoted where a
tolerance needs justifying.
"""

import math
import re
import sys
import threading
import time

import numpy as np
import pytest

import fellerkit as fk
import fellerkit.simulate as sim
from fellerkit import ConfigError
from fellerkit.empirics import FEED_DEPTH, feed
from fellerkit.symbols import as_points

@pytest.fixture(scope="module")
def brownian_paths():
    # 4000 paths, 200 steps on [0, 1]
    return fk.simulate_levy(fk.brownian(1), 4000, 1.0, 200, seed=101)


class TestCharFnEstimator:
    def test_zero_frequency_is_exact(self, brownian_paths):
        est = fk.empirical_char_fn(brownian_paths, 1.0, 0.0)
        assert est.value == (1.0 + 0.0j)
        assert est.se_real == 0.0
        assert est.se_abs == 0.0

    def test_hermitian_in_xi(self, brownian_paths):
        plus = fk.empirical_char_fn(brownian_paths, 0.5, 1.7)
        minus = fk.empirical_char_fn(brownian_paths, 0.5, -1.7)
        assert minus.value == plus.value.conjugate()
        assert minus.se_abs == plus.se_abs

    def test_metadata(self, brownian_paths):
        est = fk.empirical_char_fn(brownian_paths, 0.25, 2.0)
        assert est.n_paths == 4000
        assert est.t == 0.25
        assert est.xi.shape == (1,)

    def test_needs_two_paths(self):
        lone = fk.simulate_levy(fk.alpha_stable(1.5), 1, 1.0, 2, seed=5)
        with pytest.raises(ConfigError, match="need at least two paths for a standard error"):
            fk.empirical_char_fn(lone, 1.0, 1.0)

    def test_frequency_shape_guard(self):
        ens2 = fk.simulate_levy(fk.alpha_stable(1.2, 2), 5, 0.5, 4, seed=4)
        with pytest.raises(ConfigError, match="xi must be a single frequency of dimension 2"):
            fk.empirical_char_fn(ens2, 0.5, np.array([1.0, 2.0, 3.0]))


    def test_one_frequency_in_each_accepted_form(self, brownian_paths):
        # in d = 1 a scalar and a one-element list are the same frequency
        bare = fk.empirical_char_fn(brownian_paths, 0.5, 1.7)
        listed = fk.empirical_char_fn(brownian_paths, 0.5, [1.7])
        assert (listed.value, listed.se_abs) == (bare.value, bare.se_abs)
        assert listed.xi.tolist() == bare.xi.tolist() == [1.7]
        for xi, d in [([1.0, 2.0], 1), ([[1.0]], 1), ([[1.0, 2.0]], 2), (1.0, 2),
                      (math.nan, 1), ([-math.inf], 1), ([1.0, math.nan], 2)]:
            msg = f"xi must be a single frequency of dimension {d}"
            with pytest.raises(ConfigError, match=msg):
                as_points(xi, d, single=True)


class TestValidateCharBound:
    def test_brownian_paths_respect_their_bound(self):
        model = fk.brownian(1)
        env = fk.build_envelope(model)
        ens = fk.simulate_levy(model, 20000, 1.0, 4, seed=61)
        rep = fk.validate_char_bound(ens, env, [0.25, 0.5, 1.0], [0.5, 1.0, 2.0, 4.0])
        assert rep.verdict == "holds"
        assert rep.n_violations == 0
        assert rep.violation_fraction == 0.0
        assert len(rep.rows) == 12
        assert sorted(rep.rows[0]) == [
            "bound", "empirical_abs", "margin", "ok", "se", "t", "xi",
        ]
        assert all(row["ok"] for row in rep.rows)

    def test_wrong_envelope_is_caught(self):
        # paths from |xi|^2 decay much slower at xi = 0.1 than the
        # sqrt(|xi|) envelope demands at t = 20
        env = fk.build_envelope(fk.alpha_stable(0.5))
        ens = fk.simulate_levy(fk.brownian(1), 20000, 20.0, 1, seed=62)
        rep = fk.validate_char_bound(ens, env, [20.0], [0.1])
        assert rep.verdict == "fails"
        assert rep.n_violations == 1
        assert rep.violation_fraction == 1.0
        assert rep.rows[0]["ok"] is False


class TestGeneratorFiniteDifference:
    def test_brownian_intercept_recovers_the_symbol(self):
        model = fk.brownian(1)
        hs = np.geomspace(0.01, 0.1, 4)
        ensembles = [
            fk.simulate_levy(model, int(math.ceil(1600 / h)), h, 1, seed=70 + i)
            for i, h in enumerate(hs)
        ]
        fd = fk.generator_finite_difference(ensembles, 1.0)
        # Re p(0, 1) = 1; recorded intercept 1.0008 with se 0.0037
        assert abs(fd.intercept - 1.0) < 0.05
        assert abs(fd.intercept - 1.0) < 4.0 * fd.intercept_se
        assert not fd.inconclusive
        assert fd.note == ""
        assert fd.h_values.shape == (4,)

    def test_fit_is_weighted_least_squares(self):
        hs = np.geomspace(0.01, 0.1, 4)
        ensembles = [
            fk.simulate_levy(fk.brownian(1), int(math.ceil(400 / h)), h, 1, seed=90 + i)
            for i, h in enumerate(hs)
        ]
        fd = fk.generator_finite_difference(ensembles, 1.0)
        # numpy's fit, weighted by 1 / se; the unscaled covariance is the
        # inverse weighted Gram matrix
        (slope, intercept), cov = np.polyfit(
            fd.h_values, fd.y_values, 1, w=1.0 / fd.y_se, cov="unscaled"
        )
        assert fd.intercept == pytest.approx(intercept, rel=1e-12)
        assert fd.slope == pytest.approx(slope, rel=1e-10)
        assert fd.intercept_se == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-10)

    def test_no_signal_is_flagged(self):
        hs = np.geomspace(0.01, 0.1, 4)
        ensembles = [
            fk.simulate_levy(fk.zero_symbol(1), 200, h, 1, seed=81) for h in hs
        ]
        fd = fk.generator_finite_difference(ensembles, 1.0)
        assert fd.inconclusive
        assert fd.note == "all finite-difference values sit below three standard errors"

    def test_step_grid_guards(self):
        model = fk.brownian(1)
        wide = [
            fk.simulate_levy(model, 100, h, 1, seed=80)
            for h in np.geomspace(0.01, 0.1, 4)
        ]
        with pytest.raises(ConfigError, match="need at least three step sizes"):
            fk.generator_finite_difference(wide[:2], 1.0)
        narrow = [
            fk.simulate_levy(model, 100, h, 1, seed=80) for h in (0.01, 0.012, 0.015)
        ]
        with pytest.raises(ConfigError, match="step sizes must span at least one decade"):
            fk.generator_finite_difference(narrow, 1.0)


class TestExitFrequency:
    def test_matches_direct_count(self, brownian_paths):
        ef = fk.exit_frequency(brownian_paths, 1.0, 0.5)
        k = brownian_paths.time_index(0.5)
        sup = np.max(np.abs(brownian_paths.positions[:, : k + 1, 0]), axis=1)
        assert ef.value == float(np.mean(sup > 1.0))  # recorded 0.57825
        assert ef.se > 0.0
        assert ef.n_paths == 4000
        assert ef.radius == 1.0
        assert ef.t == 0.5

    def test_monotone_in_radius(self, brownian_paths):
        near = fk.exit_frequency(brownian_paths, 1.0, 0.5)
        far = fk.exit_frequency(brownian_paths, 2.0, 0.5)
        assert far.value <= near.value

    def test_radius_guard(self, brownian_paths):
        with pytest.raises(ConfigError, match="radius must be positive"):
            fk.exit_frequency(brownian_paths, -1.0, 0.5)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_radius_guard(self, brownian_paths, r):
        with pytest.raises(ConfigError, match="radius must be positive"):
            fk.exit_frequency(brownian_paths, r, 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_time_guard(self, brownian_paths, t):
        with pytest.raises(ConfigError, match=re.escape(f"t = {t} is not a grid time")):
            fk.exit_frequency(brownian_paths, 1.0, t)


class TestOccupationFourier:
    def test_bound_function(self):
        env = fk.build_envelope(fk.brownian(1))
        assert fk.local_time_fourier_bound(env, 1.0) == pytest.approx(16.0 / 17.0, rel=1e-15)
        assert fk.local_time_fourier_bound(env, 2.0) == pytest.approx(0.8, rel=1e-15)
        vals = fk.local_time_fourier_bound(env, np.array([1.0, 2.0]))
        assert np.allclose(vals, [16.0 / 17.0, 0.8], rtol=1e-15)

    def test_zero_frequency_row_is_exact(self):
        ens = fk.simulate_levy(fk.brownian(1), 100, 14.0, 1400, seed=1)
        env = fk.build_envelope(fk.brownian(1))
        rep = fk.occupation_fourier_check(ens, env, [0.0])
        row = rep.rows[0]
        assert sorted(row) == ["bound", "empirical", "ok", "se", "xi"]
        exact = (1.0 - math.exp(-14.0)) ** 2
        assert abs(row["empirical"] - exact) < 1e-12
        assert row["se"] < 1e-12
        assert row["bound"] == 1.0
        assert row["ok"]
        assert rep.horizon == 14.0

    def test_discounted_mass_respects_the_bound(self):
        model = fk.brownian(1)
        ens = fk.simulate_levy(model, 800, 14.0, 1400, seed=9)
        rep = fk.occupation_fourier_check(ens, fk.build_envelope(model), [0.0, 1.0, 2.0])
        assert rep.verdict == "holds"
        assert all(r["ok"] for r in rep.rows)

    def test_motionless_paths_break_a_decaying_bound(self):
        # constant paths keep the full discounted mass at every frequency,
        # which a |xi|^2 envelope cannot allow; se is zero so this is exact
        still = fk.simulate_levy(fk.zero_symbol(1), 200, 14.0, 1400, seed=3)
        rep = fk.occupation_fourier_check(still, fk.build_envelope(fk.brownian(1)), [1.0])
        assert rep.verdict == "fails"
        assert not rep.rows[0]["ok"]

    def test_needs_two_paths_before_any_step(self, monkeypatch):
        lone = fk.simulate_levy(fk.brownian(1), 1, 14.0, 14, seed=5)
        monkeypatch.setattr(fk.empirics, "feed", None)  # a step fed fails the test
        with pytest.raises(ConfigError, match="need at least two paths for a standard error"):
            fk.occupation_fourier_check(lone, fk.build_envelope(fk.brownian(1)), [1.0])

    def test_short_horizon_guard(self):
        ens = fk.simulate_levy(fk.brownian(1), 50, 5.0, 100, seed=2)
        env = fk.build_envelope(fk.brownian(1))
        msg = "horizon 5.0 too short: e^-T must be at most 1e-6 (T >= 13.9)"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            fk.occupation_fourier_check(ens, env, [1.0])


def test_bit_identical_across_blas_kernels(under_blas_kernels):
    """The phases <xi, X - x0> of the occupation sums and the characteristic
    function are summed elementwise: in d = 2 a BLAS product gave other
    bits under Prescott than under SkylakeX and Haswell.  So is the
    covariance term of the char fn's standard error, which does not vanish
    in rounding with a drift: as np.cov, a BLAS product, it gave another
    se_abs under Prescott at t = 1, xi = 0.5."""
    probe = (
        "import fellerkit as fk\n"
        "model = fk.alpha_stable(1.5, 2)\n"
        "ens = fk.simulate_levy(model, 400, 16.0, 64, seed=7)\n"
        "occ = fk.occupation_fourier_check(ens, fk.build_envelope(model),"
        " [[1.0, 0.5], [0.3, -2.0]])\n"
        "est = [fk.empirical_char_fn(ens, t, [0.7, -1.3]) for t in (1.0, 16.0)]\n"
        "drifted = fk.simulate_levy(fk.brownian(1, drift=[1.0]), 400, 1.0, 16, seed=7)\n"
        "se = [fk.empirical_char_fn(drifted, t, xi).se_abs"
        " for t in (0.25, 1.0) for xi in (0.5, 1.0, 2.0)]\n"
        "print(repr(([(r['empirical'], r['se']) for r in occ.rows],"
        " [(e.value, e.se_abs) for e in est], se)))\n"
    )
    seen = under_blas_kernels(probe)
    assert len(set(seen.values())) == 1, seen


def test_finite_difference_fit_is_bit_identical_across_blas_kernels(under_blas_kernels):
    """The fit solves its weighted normal equations elementwise: with a BLAS
    Gram matrix and LAPACK's inverse the intercept of this fit had other
    bits under Haswell, and the slope under Prescott."""
    probe = (
        "import math\n"
        "import numpy as np\n"
        "import fellerkit as fk\n"
        "hs = np.geomspace(0.01, 0.1, 4)\n"
        "ens = [fk.simulate_levy(fk.brownian(1), int(math.ceil(1600 / h)), h, 1, seed=70 + i)"
        " for i, h in enumerate(hs)]\n"
        "fd = fk.generator_finite_difference(ens, 1.0)\n"
        "print(repr((fd.intercept, fd.intercept_se, fd.slope)))\n"
    )
    seen = under_blas_kernels(probe)
    assert len(set(seen.values())) == 1, seen


class Recorder:
    """An accumulator that keeps every step it is fed."""

    def __init__(self):
        self.seen = []

    def update(self, k, x):
        self.seen.append((k, x))


class Slow(Recorder):
    """A recorder that lags behind the source, keeping the queue full."""

    def update(self, k, x):
        time.sleep(5e-4)
        super().update(k, x)


class FailsAt:
    def __init__(self, k):
        self.k = k

    def update(self, k, x):
        if k == self.k:
            raise ConfigError(f"rejected step {k}")


def counted(n_steps, drawn, fail_at=None, error=RuntimeError):
    """A step source of n_steps that records each step it yields."""
    for k in range(n_steps):
        if k == fail_at:
            raise error(f"source failed at step {k}")
        drawn.append(k)
        yield k, np.full((3, 1), float(k))


class TestFeed:
    """``feed`` runs the accumulators on a worker thread; they must see what
    a serial loop would give them, and no thread may outlive the call."""

    @pytest.fixture(autouse=True)
    def no_leftover_thread(self):
        baseline = threading.active_count()
        yield
        assert threading.active_count() == baseline
        assert not [t for t in threading.enumerate() if t.name == "fellerkit-feed"]

    def test_accumulators_see_the_serial_steps(self):
        model = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        steps = sim.stable_like_steps(model, 200, 1.0, n_steps=300, seed=11)
        recorders = [Recorder(), Slow(), Recorder()]
        baseline = threading.active_count()
        # a short switch interval interleaves the two threads far more often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            feed(steps, *recorders)
        finally:
            sys.setswitchinterval(interval)
        # the worker has finished every step by the time feed returns
        assert threading.active_count() == baseline
        assert [len(rec.seen) for rec in recorders] == [301, 301, 301]
        serial = list(steps)
        assert len(serial) == 301
        for rec in recorders:
            assert [k for k, _ in rec.seen] == [k for k, _ in serial]
            for (_, got), (_, want) in zip(rec.seen, serial):
                assert np.array_equal(got, want)

    def test_an_accumulator_error_stops_the_source(self):
        drawn = []
        rec = Recorder()
        with pytest.raises(ConfigError, match="^rejected step 5$"):
            feed(counted(10_000, drawn), rec, FailsAt(5))
        # past the failing step: at most FEED_DEPTH queued steps and the
        # one the source was holding
        assert drawn[-1] <= 5 + FEED_DEPTH + 1
        # a serial loop would also have fed step 5 to the recorder first
        assert [k for k, _ in rec.seen] == list(range(6))

    @pytest.mark.parametrize("error, fail_at", [
        (RuntimeError, 1), (KeyboardInterrupt, 1), (RuntimeError, 0),
    ])
    def test_a_source_error_surfaces(self, error, fail_at):
        drawn = []
        rec = Recorder()
        with pytest.raises(error, match=f"^source failed at step {fail_at}$"):
            feed(counted(10, drawn, fail_at, error), rec)
        assert drawn == list(range(fail_at))
        # the worker may stop before it has taken the steps already queued
        assert [k for k, _ in rec.seen] in ([], [0][:fail_at])
