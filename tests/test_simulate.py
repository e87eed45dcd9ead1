"""Tests for path simulation: exact Levy increments, the frozen-coefficient
Euler scheme for stable-like models, stable samplers, and path symmetrization.

Monte Carlo assertions use fixed seeds and three-to-four sigma tolerances, so
every run is deterministic; the z values quoted in comments were recorded once
and sit well inside the asserted bands.
"""

import dataclasses
import math
import queue
import re
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest

import fellerkit as fk
import fellerkit.simulate as sim
from fellerkit import ConfigError
from fellerkit.empirics import ExitSup, feed


def reference_increment(data, h, n, d, seed, k, alpha=None):
    """Step k's increment as a loop over single steps draws it: from step
    k's own streams, with the formulas applied to that step's draws alone.
    ``alpha`` (per path) stands in for the family's order, as in the
    frozen-coefficient scheme."""
    rng = sim._step_rng(seed, sim._STREAM_MAIN, k)
    family = data.get("family", "alpha_stable")
    if alpha is None and family == "alpha_stable":
        alpha = data["alpha"] if data["alpha"] < 2.0 - 1e-12 else None
        family = "alpha_stable" if alpha is not None else "brownian"
    if alpha is not None:
        a = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
        scale = h ** (1.0 / a)
        if d == 1:
            inc = (scale * fk.sample_stable(a, (n,), rng))[:, None]
        else:
            z = rng.standard_normal((n, d))
            sub = a < 2.0 - 1e-12
            amp = np.full(n, np.sqrt(2.0))
            if sub.any():
                amp[sub] = np.sqrt(
                    2.0 * fk.sample_positive_stable(a[sub] / 2.0, (int(sub.sum()),), rng)
                )
            inc = (scale * amp)[:, None] * z
    elif family == "brownian":
        inc = np.sqrt(2.0 * h) * rng.standard_normal((n, d))
    elif family == "compound_poisson":
        counts = sim._step_rng(seed, sim._STREAM_COUNTS, k).poisson(data["rate"] * h, n)
        z = sim._step_rng(seed, sim._STREAM_AUX, k).standard_normal(n)
        inc = (data["jump_mean"] * counts + data["jump_std"] * np.sqrt(counts) * z)[:, None]
    else:
        inc = np.zeros((n, d))
    if data.get("drift") is not None:
        inc = inc + h * np.asarray(data["drift"])
    return inc


def reference_positions(model, n, t_max, n_steps, seed, start=0.0):
    """The positions a serial loop over single steps writes."""
    d = model.dimension
    ref = np.empty((n, n_steps + 1, d))
    ref[:, 0, :] = start
    for k in range(n_steps):
        inc = reference_increment(model.eval_data, t_max / n_steps, n, d, seed, k)
        ref[:, k + 1, :] = ref[:, k, :] + inc
    return ref


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

    @pytest.mark.parametrize(
        "sampler, index", [(fk.sample_stable, 1.5), (fk.sample_positive_stable, 0.5)]
    )
    def test_size_none_gives_one_float(self, sampler, index):
        # as numpy's samplers: the size-1 draw of the same seed, as a float
        one = sampler(index, None, np.random.default_rng(11))
        assert type(one) is float
        assert one == sampler(index, 1, np.random.default_rng(11))[0]

    def test_index_guards(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match=re.escape("stable index must lie in (0, 2]")):
            fk.sample_stable(2.3, 5, rng)
        with pytest.raises(ConfigError, match=re.escape("positive stable index must lie in (0, 1)")):
            fk.sample_positive_stable(1.0, 5, rng)
        # a NaN fails both checks
        with pytest.raises(ConfigError, match=re.escape("stable index must lie in (0, 2]")):
            fk.sample_stable(np.array([1.5, np.nan]), 2, rng)
        with pytest.raises(ConfigError, match=re.escape("positive stable index must lie in (0, 1)")):
            fk.sample_positive_stable(math.nan, 5, rng)


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
            ref[:, k + 1, :] = current + reference_increment(
                {}, t_max / n_steps, n, 1, 9, k, alpha=a
            )
        assert np.array_equal(steps.collect().positions, ref)
        assert np.array_equal(np.stack([x for _, x in steps], axis=1), ref)


EXACT_CASES = {
    "brownian": fk.brownian(1),
    "alpha_stable_d1": fk.alpha_stable(1.3),
    "alpha_stable_d2": fk.alpha_stable(0.7, 2),
    "alpha_stable_alpha_2": fk.alpha_stable(2.0, 2),
    "compound_poisson": fk.compound_poisson(3.0, 0.2, 0.5),
    "zero": fk.zero_symbol(2),
    "drift": fk.alpha_stable(1.5, 2, drift=[1.0, -0.5]),
}


@pytest.fixture
def pool(monkeypatch):
    """Set the worker count and the block budget of the step sources."""

    def configure(workers, block_elements):
        monkeypatch.setattr(sim, "_worker_count", lambda: workers)
        monkeypatch.setattr(sim, "BLOCK_ELEMENTS", block_elements)

    return configure


def _calls(steps):
    """The steps with their increments recorded as (k0, k1, thread name)."""
    calls = []

    def increments(k0, k1, x):
        calls.append((k0, k1, threading.current_thread().name))
        return steps.increments(k0, k1, x)

    return dataclasses.replace(steps, increments=increments), calls


class TestBlockSampler:
    """State-free sources draw blocks of steps on a worker pool; the paths
    must be what a serial loop over single steps gives, bit for bit."""

    @pytest.fixture(autouse=True)
    def no_leftover_thread(self):
        baseline = threading.active_count()
        yield
        assert threading.active_count() == baseline
        assert not [t for t in threading.enumerate() if t.name == "fellerkit-steps"]

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    @pytest.mark.parametrize("workers, n_paths", [(1, 7), (2, 7), (3, 1)])
    def test_blocks_match_a_per_step_loop(self, pool, case, workers, n_paths):
        model = EXACT_CASES[case]
        d = model.dimension
        # three steps per block, so 17 steps end on a partial block
        pool(workers, 3 * n_paths * d)
        steps, calls = _calls(sim.levy_steps(model, n_paths, 0.5, 17, seed=4, start=0.25))
        ref = reference_positions(model, n_paths, 0.5, 17, 4, start=0.25)
        assert steps.collect().positions.tobytes() == ref.tobytes()
        assert [(k0, k1) for k0, k1, _ in calls] == [(k, min(k + 3, 17)) for k in range(0, 17, 3)]
        on_pool = {name == "fellerkit-steps" for _, _, name in calls}
        assert on_pool == {workers > 1}
        assert np.stack([x for _, x in steps], axis=1).tobytes() == ref.tobytes()

    def test_ensembles_do_not_depend_on_blocks_or_workers(self, pool):
        """Also with more workers than CPUs and a thread switch every
        microsecond: the blocks are summed in step order."""
        model = fk.alpha_stable(1.5, 2)
        pool(1, 1)
        serial = fk.simulate_levy(model, 50, 1.0, 120, seed=8).positions
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers, budget in [(2, 300), (3, 1000), (8, 100), (2, 10**6)]:
                pool(workers, budget)
                blocked = fk.simulate_levy(model, 50, 1.0, 120, seed=8).positions
                assert blocked.tobytes() == serial.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_two_passes_yield_the_same_arrays(self, pool):
        pool(2, 40)
        steps = sim.levy_steps(fk.alpha_stable(1.2, 2), 10, 1.0, 23, seed=5)
        first, second = list(steps), list(steps)
        assert [k for k, _ in first] == list(range(24))
        for (k, x), (j, y) in zip(first, second):
            assert k == j and x.tobytes() == y.tobytes()
        assert steps.collect().positions.tobytes() == np.stack(
            [x for _, x in first], axis=1
        ).tobytes()

    @pytest.mark.parametrize("span", [1, 4, 5, 24, 100])
    def test_chunks_are_the_collected_positions(self, pool, span):
        """Path-major chunks of span grid times, one reused array, from
        blocks of three steps that straddle the chunk ends."""
        pool(2, 3 * 7 * 2)
        steps = sim.levy_steps(fk.alpha_stable(1.2, 2), 7, 1.0, 23, seed=5, start=0.5)
        whole = steps.collect().positions
        seen, first = [], None
        for j, chunk in steps.chunks(span):
            first = chunk if first is None else first
            assert np.shares_memory(chunk, first)
            assert chunk.tobytes() == whole[:, j : j + chunk.shape[1]].tobytes()
            seen.append((j, chunk.shape[1]))
        assert seen == [(j, min(span, 24 - j)) for j in range(0, 24, span)]

    def test_closing_the_chunks_ends_the_pool(self, pool):
        pool(2, 8)
        chunks = sim.levy_steps(fk.brownian(2), 4, 1.0, 400, seed=1).chunks(3)
        assert next(chunks)[0] == 0
        chunks.close()

    def test_an_early_stop_ends_the_pool(self, pool):
        """Stopping at exit_frequency's last needed step leaves no thread,
        and the pool ran at most workers + 1 blocks ahead."""
        pool(2, 10)
        steps, calls = _calls(sim.levy_steps(fk.brownian(1), 10, 1.0, 100, seed=2))
        sup = ExitSup(steps, [(0.5, 0.02)])
        assert sup.stop == 3
        for k, x in steps:
            sup.update(k, x)
            if k + 1 == sup.stop:
                break
        # two blocks were taken, and at most workers + 1 were queued behind them
        assert len(calls) <= 2 + 2 + 1
        ens = fk.simulate_levy(fk.brownian(1), 10, 1.0, 100, seed=2)
        assert sup.frequencies()[0] == fk.exit_frequency(ens, 0.5, 0.02)

    def test_a_failing_accumulator_ends_the_pool(self, pool):
        pool(2, 8)

        class FailsAt:
            def update(self, k, x):
                if k == 5:
                    raise ConfigError("rejected step 5")

        steps = sim.levy_steps(fk.alpha_stable(1.5), 4, 1.0, 1000, seed=3)
        with pytest.raises(ConfigError, match="^rejected step 5$"):
            feed(steps, FailsAt())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_sampler_surfaces(self, pool, workers):
        pool(workers, 6)
        steps = sim.levy_steps(fk.brownian(2), 3, 1.0, 40, seed=1)

        def increments(k0, k1, x):
            if k0 >= 10:
                raise RuntimeError(f"sampler failed at step {k0}")
            return steps.increments(k0, k1, x)

        failing = dataclasses.replace(steps, increments=increments)
        with pytest.raises(RuntimeError, match="^sampler failed at step 10$"):
            failing.collect()
        seen = []
        with pytest.raises(RuntimeError, match="^sampler failed at step 10$"):
            for k, _ in failing:
                seen.append(k)
        assert seen == list(range(11))

    def test_state_dependent_steps_stay_serial(self, pool):
        pool(3, 10**6)
        model = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        steps, calls = _calls(sim.stable_like_steps(model, 20, 0.1, n_steps=9, seed=6))
        steps.collect()
        assert [(k0, k1) for k0, k1, _ in calls] == [(k, k + 1) for k in range(9)]
        assert {name for _, _, name in calls} == {threading.current_thread().name}


class TestInOrder:
    """``_in_order``, the one worker pipeline of the package: results in
    item order, and after a failure or an early stop no later queued job
    starts, the item source is closed and no thread is left."""

    NAME = "fellerkit-test"

    @staticmethod
    def source(n, drawn, closed):
        """Items 0, ..., n - 1, recorded as drawn; closing records True in
        ``closed`` and sets ``closed.event``, which the pipeline does only
        after it has stopped every queued job."""
        try:
            for i in range(n):
                drawn.append(i)
                yield i
        finally:
            closed.append(True)
            closed.event.set()

    @staticmethod
    def record():
        closed = type("Closed", (list,), {})()
        closed.event = threading.Event()
        return [], closed, []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_in_order(self, workers):
        delays = [0.004 * (i % 3 == 0) for i in range(30)]  # every third job is slow
        names = set()

        def job(i):
            names.add(threading.current_thread().name)
            time.sleep(delays[i])
            return i * i

        got = list(sim._in_order(job, range(30), workers, workers, self.NAME))
        assert got == [i * i for i in range(30)]
        assert names == {self.NAME}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_job_raises_and_no_later_job_starts(self, workers):
        drawn, closed, started = self.record()
        released = []

        def job(i):
            started.append(i)
            if i == 4:
                raise ConfigError("job 4 failed")
            if i > 4:  # a job running beside job 4 stays busy until the stop
                released.append(closed.event.wait(timeout=10))
            return i

        results = []
        with pytest.raises(ConfigError, match="^job 4 failed$"):
            for r in sim._in_order(job, self.source(100, drawn, closed), workers, 3, self.NAME):
                results.append(r)
        assert results == [0, 1, 2, 3]
        # a job past 4 starts only on another worker, while job 4 runs
        assert set(range(5)) <= set(started) <= set(range(4 + workers))
        assert drawn == list(range(4 + 3 + 1))
        assert closed == [True]
        assert all(released)  # the source was closed before the threads were joined

    def test_an_earlier_job_taken_before_a_failure_still_runs(self, monkeypatch):
        """A worker takes job 0 and is held before it starts it, while job 1
        fails on the other worker: job 0 still runs and its result comes
        first, since the caller waits for it."""
        name, asked = self.NAME, []
        job_1_done = threading.Event()

        class HoldJob0(queue.SimpleQueue):
            def get(self, block=True, timeout=None):
                if threading.current_thread().name != name:  # a result queue
                    return super().get(block, timeout)
                asked.append(True)
                if len(asked) == 3:  # only the worker that ran job 1 asks again
                    job_1_done.set()
                job = super().get(block, timeout)
                if job is not None and job[0] == 0:
                    assert job_1_done.wait(timeout=10)
                return job

        def job(i):
            if i == 1:
                raise ConfigError("job 1 failed")
            return i

        monkeypatch.setattr(sim, "queue", types.SimpleNamespace(SimpleQueue=HoldJob0))
        results, errors = [], []

        def consume():
            try:
                results.extend(sim._in_order(job, range(10), 2, 2, name))
            except ConfigError as exc:
                errors.append(str(exc))

        caller = threading.Thread(target=consume, name="caller", daemon=True)
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive(), "the caller waits forever for job 0"
        assert job_1_done.is_set()
        assert results == [0]
        assert errors == ["job 1 failed"]

    def test_no_job_starts_before_the_first_result_is_asked_for(self):
        drawn, closed, started = self.record()

        def job(i):
            started.append(i)
            return i

        pipeline = sim._in_order(job, self.source(3, drawn, closed), 1, 2, self.NAME)
        try:
            assert drawn == [] and started == []
            assert self.NAME not in [t.name for t in threading.enumerate()]
            assert list(pipeline) == [0, 1, 2]
            assert started == [0, 1, 2]
        finally:
            pipeline.close()

    def test_closing_early_starts_no_further_job(self):
        drawn, closed, started = self.record()
        released = []
        both_running = threading.Barrier(3, timeout=10)

        def job(i):
            started.append(i)
            if i >= 2:  # jobs 2 and 3 hold both workers until the stop
                both_running.wait()
                released.append(closed.event.wait(timeout=10))
            return i

        pipeline = sim._in_order(job, self.source(100, drawn, closed), 2, 2, self.NAME)
        assert [next(pipeline), next(pipeline)] == [0, 1]
        both_running.wait()
        pipeline.close()
        # items 2, 3 and 4 were queued behind the two busy workers; 4 never starts
        assert drawn == [0, 1, 2, 3, 4]
        assert sorted(started) == [0, 1, 2, 3]
        assert closed == [True]
        assert released == [True, True]  # the source was closed before the join
        assert not [t for t in threading.enumerate() if t.name == self.NAME]


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

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, 2.5])
    def test_an_order_outside_the_range_where_a_path_goes_raises(self, d, bad):
        """The order is 1.5 up to |x| = 12 and bad past it.  From x = 12 the
        first step uses the start's order; the second starts with some
        paths past 12."""
        def alpha(x):
            return np.where(np.abs(x[..., 0]) > 12.0, bad, 1.5)

        model = fk.stable_like_symbol(alpha, 1.2, 1.8, d)
        start = [12.0] + [0.0] * (d - 1)
        one = fk.simulate_stable_like(model, 50, 0.1, n_steps=1, seed=3, start=start)
        assert np.isfinite(one.positions).all()
        with pytest.raises(ConfigError, match=re.escape("stable index must lie in (0, 2]")):
            fk.simulate_stable_like(model, 50, 0.2, n_steps=2, seed=3, start=start)

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_rejected(self, eight_step, t):
        # nan passes a plain "distance > tol", and inf is within tol = inf
        msg = f"t = {t} is not a grid time; nearest grid times are [0.0, 0.125]"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            sim.grid_index(eight_step.time_grid, t)


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


class TestTimeGrid:
    """levy_steps and stable_like_steps share one (t_max, n_steps, h_max) rule."""

    def test_levy_takes_h_max(self):
        m = fk.brownian(1)
        by_h = fk.simulate_levy(m, 20, 1.0, h_max=0.3, seed=3)
        by_n = fk.simulate_levy(m, 20, 1.0, 4, seed=3)
        assert np.array_equal(by_h.time_grid, np.linspace(0.0, 1.0, 5))
        assert np.array_equal(by_h.positions, by_n.positions)
        steps = sim.levy_steps(m, 20, 1.0, h_max=0.3, seed=3)
        assert np.array_equal(steps.time_grid, by_h.time_grid)

    @pytest.mark.parametrize("h_max", [None, 0.0, -0.5, math.nan])
    def test_levy_without_steps_needs_a_positive_h_max(self, h_max):
        with pytest.raises(ConfigError, match="give n_steps or a positive h_max"):
            fk.simulate_levy(fk.brownian(1), 4, 1.0, h_max=h_max)

    @pytest.mark.parametrize("t_max, n_steps, h_max, message", [
        # t_max / h_max overflows to inf
        (1e308, None, 1e-3, "^need at least one step and at most .*, got inf$"),
        # a finite ratio too large for any grid
        (1.0, None, 1e-300, "^need at least one step and at most "),
        (1.0, 10**30, None, "^need at least one step and at most "),
        (1.0, sim.MAX_STEPS + 1, None, "^need at least one step and at most "),
        (1.0, None, math.inf, "^give n_steps or a positive h_max that is finite$"),
    ])
    def test_step_count_is_checked_before_the_grid_exists(
        self, t_max, n_steps, h_max, message, monkeypatch
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(sim.np, "linspace", no_grid)
        with pytest.raises(ConfigError, match=message):
            sim._resolve_grid(t_max, n_steps, h_max)

    @pytest.mark.parametrize("n_paths", [0, -3, 2.0, True])
    def test_step_sources_need_a_positive_path_count(self, n_paths):
        mx = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        match = "n_paths must be a positive integer"
        with pytest.raises(ConfigError, match=match):
            sim.levy_steps(fk.brownian(1), n_paths, 1.0, 4)
        with pytest.raises(ConfigError, match=match):
            sim.stable_like_steps(mx, n_paths, 1.0, n_steps=4)
        with pytest.raises(ConfigError, match=match):
            fk.simulate_levy(fk.alpha_stable(1.5, 2), n_paths, 1.0, 4)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_t_max_must_be_finite(self, t_max):
        mx = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        with pytest.raises(ConfigError, match="^t_max must be positive and finite$"):
            sim.levy_steps(fk.brownian(1), 4, t_max, 4)
        with pytest.raises(ConfigError, match="^t_max must be positive and finite$"):
            sim.stable_like_steps(mx, 4, t_max)

    @pytest.mark.parametrize("start", [math.nan, [0.0, math.inf], [1.0, 2.0, 3.0], [[0.0, 0.0]]])
    def test_start_must_be_a_finite_point(self, start):
        mx = fk.stable_like_symbol("1.5 + 0.3*sin(x1)", 1.2, 1.8, dimension=2)
        message = "^start must be finite: a number or a point of dimension 2$"
        with pytest.raises(ConfigError, match=message):
            sim.levy_steps(fk.brownian(2), 4, 1.0, 4, start=start)
        with pytest.raises(ConfigError, match=message):
            sim.stable_like_steps(mx, 4, 1.0, n_steps=4, start=start)

    @pytest.mark.parametrize("start, point", [
        (0.5, [0.5, 0.5]), ([0.5], [0.5, 0.5]), ([0.5, -1.0], [0.5, -1.0]), (None, [0.0, 0.0]),
    ])
    def test_start_forms(self, start, point):
        assert sim.levy_steps(fk.brownian(2), 4, 1.0, 4, start=start).start.tolist() == point

    @pytest.mark.parametrize("n_steps", [2.5, 2.0, np.float64(3.0), True, False, "3"])
    def test_step_count_must_be_an_integer(self, n_steps):
        mx = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        message = f"^n_steps must be an integer, got {re.escape(repr(n_steps))}$"
        with pytest.raises(ConfigError, match=message):
            sim._resolve_grid(1.0, n_steps, None)
        with pytest.raises(ConfigError, match=message):
            sim.levy_steps(fk.brownian(1), 4, 1.0, n_steps)
        with pytest.raises(ConfigError, match=message):
            sim.stable_like_steps(mx, 4, 1.0, n_steps=n_steps)

    def test_numpy_step_count_is_accepted(self):
        grid, h, n_steps = sim._resolve_grid(1.0, np.int64(4), None)
        assert type(n_steps) is int and n_steps == 4
        assert grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0] and h == 0.25

    def test_numpy_path_count_is_accepted(self):
        steps = sim.levy_steps(fk.brownian(1), np.int64(3), 1.0, 4)
        assert type(steps.n_paths) is int and steps.n_paths == 3

    def test_symmetrized_paths_are_a_plain_ensemble(self, pair):
        sym = fk.symmetrize_paths(*pair)
        assert type(sym) is fk.PathEnsemble
        assert not hasattr(sym, "base") and not hasattr(sym, "mirror")
