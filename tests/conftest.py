"""Shared test fixtures.

The acceptance module records one PASS/FAIL line per criterion; the
collected lines are printed as a dedicated section at the end of the
pytest run so the verdicts are visible at a glance.

Every test runs under a watchdog: a test still running after
``WATCHDOG_S`` seconds (a deadlocked worker thread, say) prints the stack
of every thread to the real stderr and ends the run with a nonzero exit,
instead of hanging it.  The slowest test takes a few seconds.

A test after which a fellerkit worker thread (named ``fellerkit-*``) is
still alive fails at teardown: every pool must have joined its threads
by the time the call that started it has returned or raised.
"""

import faulthandler
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

WATCHDOG_S = 120

SRC = Path(__file__).resolve().parents[1] / "src"

_STDERR_FD = pytest.StashKey[int]()

_acceptance_lines = []


def pytest_configure(config):
    # a copy of stderr taken outside output capture, so the dump reaches
    # the terminal when the watchdog ends the process
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def watchdog(request):
    fd = request.config.stash[_STDERR_FD]
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_worker_thread_left():
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("fellerkit-")]
    assert not left, f"worker threads still alive after the test: {left}"


@pytest.fixture
def acceptance():
    """Return a recorder: acceptance(ok, label) logs the line, then asserts."""

    def _rec(ok, label):
        _acceptance_lines.append(("PASS" if ok else "FAIL") + ": " + label)
        assert ok, label

    return _rec


@pytest.fixture
def under_blas_kernels():
    """Return a runner: under_blas_kernels(probe) runs the Python source
    ``probe`` in one fresh interpreter per OpenBLAS kernel (SkylakeX,
    Haswell, Prescott; one BLAS thread, fellerkit from src/) and returns
    each one's last line of output, by kernel."""

    def run(probe):
        children = {
            core: subprocess.Popen(
                [sys.executable, "-c", probe],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_CORETYPE": core,
                     "OPENBLAS_NUM_THREADS": "1"},
            )
            for core in ("SkylakeX", "Haswell", "Prescott")
        }
        outputs = {core: child.communicate(timeout=120) for core, child in children.items()}
        for core, child in children.items():
            assert child.returncode == 0, outputs[core][1]
        return {core: out.splitlines()[-1] for core, (out, _) in outputs.items()}

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
