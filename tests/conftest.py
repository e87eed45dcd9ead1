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
import sys
import threading

import pytest

WATCHDOG_S = 120

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
