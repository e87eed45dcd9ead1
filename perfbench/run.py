"""fellerkit benchmark: four fixed CLI workloads with oracle checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; fellerkit is imported from ``src/``.  One
operation is one ``fellerkit.cli.main`` call (analyze, simulate or
validate) in a fresh child process.  Children run one at a time, closed
loop, with BLAS and OpenMP pinned to one thread through their environment.
A run repeats operations for about ``--seconds`` seconds (at least two, so
that byte-for-byte reproducibility is checked within the run) and reports
medians.

``--trace 0`` reports the end-to-end metrics: wall_s (the cli.main call),
setup_s (child spawn until fellerkit.cli is imported, at least five
samples), cpu_s (child user + system time) and peak_rss_mb (child maximum
RSS).  ``--trace 1`` alternates untraced and traced operations, at least one
and two of them, and reports per-layer metrics from the traced ones, the
tracing overhead (traced minus untraced wall_s), and fails the run if two
traced operations disagree on any count.

An operation fails when the child exits nonzero, fellerkit exits nonzero,
an oracle check fails, or an output's bytes differ from the run's first
operation.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK = HERE / "_work"
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS"]
MIN_OPS = 2
MIN_SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0  # every child is killed by then


class Runner:
    """Spawns and checks the child processes of one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.subcommand, build = WORKLOADS[workload]
        self.config = build(seed)
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.env.update({var: "1" for var in THREAD_VARS})
        self.n_children = 0
        self.reference_digests = None
        self.toolchain = None

    def _spawn(self, op_dir: Path, extra: list) -> tuple[dict | None, float]:
        """Run one child; returns (its result, spawn time).  The child stamps
        its own times with time.perf_counter, which on Linux reads the same
        monotonic clock as the parent's."""
        self.n_children += 1
        cmd = [sys.executable, str(CHILD), "--dir", str(op_dir)] + extra
        with open(op_dir / "child.log", "wb") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log, stderr=log)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            return None, spawned
        return json.loads((op_dir / "result.json").read_text()), spawned

    def _op_dir(self, label: str) -> Path:
        path = self.dir / f"{label}-{self.n_children}"
        path.mkdir(parents=True)
        return path

    def setup_sample(self) -> float | None:
        op_dir = self._op_dir("setup")
        result, spawned = self._spawn(op_dir, ["--import-only"])
        shutil.rmtree(op_dir)
        if result is None:
            return None
        self.toolchain = result["toolchain"]
        return result["imported_at"] - spawned

    def operation(self, traced: bool) -> dict:
        op_dir = self._op_dir("traced" if traced else "op")
        (op_dir / "config.json").write_text(json.dumps(self.config))
        extra = ["--subcommand", self.subcommand, "--workload", self.workload]
        if traced:
            spans = WORK / "spans" / f"{self.workload}-op{self.n_children}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            extra += ["--spans", str(spans)]
        started = time.perf_counter()
        result, spawned = self._spawn(op_dir, extra)
        elapsed = time.perf_counter() - started
        log = (op_dir / "child.log").read_text(errors="replace")[-2000:]
        shutil.rmtree(op_dir)
        if result is None:
            return {"ok": False, "reasons": [f"child failed: {log}"], "elapsed": elapsed}
        reasons = list(result["failures"])
        if not reasons:
            if self.reference_digests is None:
                self.reference_digests = result["digests"]
            elif result["digests"] != self.reference_digests:
                reasons.append(f"output bytes differ for a fixed seed: {result['digests']}")
        return {
            "ok": not reasons,
            "reasons": reasons,
            "elapsed": elapsed,
            "setup_s": result["imported_at"] - spawned,
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "detail": result["detail"],
            "layers": result.get("layers"),
        }

    def time_left(self, started: float, next_op_s: float) -> bool:
        return time.perf_counter() - started + next_op_s <= self.seconds

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _is_count(value) -> bool:
    """Counts are the integer metrics of a traced operation; times and
    rates are floats."""
    return isinstance(value, int)


def _median(ops: list, key: str) -> float:
    return statistics.median(op[key] for op in ops)


def run_untraced(runner: Runner) -> tuple[list, dict]:
    runner.setup_sample()  # untimed: warms the file cache and records the toolchain
    ops = []
    started = time.perf_counter()
    estimate = 0.0
    while len(ops) < MIN_OPS or runner.time_left(started, estimate):
        op = runner.operation(traced=False)
        ops.append(op)
        if "wall_s" not in op:
            break
        estimate = op["elapsed"]
    timed = [op for op in ops if "wall_s" in op]
    setup = [op["setup_s"] for op in timed]
    while len(setup) < MIN_SETUP_SAMPLES:
        sample = runner.setup_sample()
        if sample is None:
            break
        setup.append(sample)
    metrics = {}
    if timed:
        metrics = {key: _median(timed, key) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup)
    return ops, metrics


def run_traced(runner: Runner) -> tuple[list, dict]:
    runner.setup_sample()  # untimed: warms the file cache and records the toolchain
    plain, traced = [], []
    started = time.perf_counter()
    estimate = {False: 0.0, True: 0.0}
    # one untraced operation first, then two traced, then alternate
    while True:
        want_traced = bool(plain) and (len(traced) < 2 or len(traced) <= len(plain))
        if len(traced) >= 2 and not runner.time_left(started, estimate[want_traced]):
            break
        op = runner.operation(traced=want_traced)
        (traced if want_traced else plain).append(op)
        if "wall_s" not in op:
            break
        estimate[want_traced] = op["elapsed"]
    ops = plain + traced
    traced_ok = [op for op in traced if op.get("layers")]
    plain_ok = [op for op in plain if "wall_s" in op]
    if not traced_ok or not plain_ok:
        return ops, {}
    first = traced_ok[0]["layers"]
    for op in traced_ok[1:]:
        changed = [k for k, v in first.items() if _is_count(v) and op["layers"][k] != v]
        if changed:
            op["ok"] = False
            op["reasons"].append(f"counts differ between traced runs: {changed}")
    metrics = {}
    for key in first:
        values = [op["layers"][key] for op in traced_ok]
        metrics[key] = values[0] if _is_count(values[0]) else statistics.median(values)
    metrics["trace.wall_s"] = _median(traced_ok, "wall_s")
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(plain_ok, "wall_s")
    return ops, metrics


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    runner = Runner(root, workload, seed, seconds)
    try:
        ops, metrics = (run_traced if trace else run_untraced)(runner)
    finally:
        runner.close()
    failed = sum(not op["ok"] for op in ops)
    for op in ops:
        for reason in op["reasons"]:
            print(f"FAILED {workload}: {reason}", file=sys.stderr)
    report = {
        "workload": workload,
        "subcommand": runner.subcommand,
        "seed": seed,
        "operations": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "toolchain": runner.toolchain,
        "checks": [op.get("detail") for op in ops],
        "wall_s_samples": [op.get("wall_s") for op in ops],
    }
    print(json.dumps(report, sort_keys=True))
    return failed == 0, len(ops), failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fellerkit" / "cli.py").is_file():
        print(f"no fellerkit sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    seed = args.seed & 0xFFFFFFFF  # SeedSequence needs a nonnegative seed
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, found = run_workload(root, name, seed, args.seconds, bool(args.trace))
        if set(found) != set(units):
            print(f"{name}: metrics {sorted(set(found) ^ set(units))} differ from BENCHMARK.json",
                  file=sys.stderr)
            ok = False
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in found.items():
            print(f"{name:22s} {key:42s} {value:>16.6g} {units.get(key)}")
            metrics[prefix + key] = {"value": value, "unit": units.get(key)}
        print(f"{name:22s} {'error_rate':42s} {bad / n:>16.6g} ratio ({bad} of {n} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
