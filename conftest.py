"""Repo-wide pytest configuration.

The tier-1 suite runs with the runtime invariant sanitizer enabled
(DESIGN.md §7): every :class:`~repro.sim.kernel.Simulator` constructed
during a test attaches checkers, so protocol bugs fail the offending
test at the cycle they happen. Perf-sensitive tests (the benchmark
figures) opt out with the ``no_sanitize`` marker.

Tests must never write into the repo tree: a session guard fails the
run when ``git status --porcelain`` differs after it from before it.
"""

import os
import subprocess

import pytest

from repro.sim.sanitizer import ENV_SANITIZE


def pytest_addoption(parser):
    parser.addoption(
        "--profile",
        action="store_true",
        default=False,
        help="benchmark runs attach the telemetry kernel profiler "
             "(sanitizer stays off; see benchmarks/conftest.py)",
    )


@pytest.fixture(autouse=True)
def _sanitize_by_default(request, monkeypatch):
    """Enable REPRO_SANITIZE for every test unless marked no_sanitize."""
    if request.node.get_closest_marker("no_sanitize"):
        monkeypatch.delenv(ENV_SANITIZE, raising=False)
    else:
        monkeypatch.setenv(ENV_SANITIZE, "1")


def _git_status():
    """``git status --porcelain`` of this checkout, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def _tree_left_as_found():
    """Fail the session if the tests added, changed or deleted files
    that git sees (ignored files such as caches do not count)."""
    before = _git_status()
    yield
    if before is None:
        return
    after = _git_status()
    if after != before:
        pytest.fail(
            "the test run changed `git status --porcelain`:\n"
            f"--- before\n{before}--- after\n{after}",
            pytrace=False,
        )
