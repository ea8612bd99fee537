"""Discrete-event simulation kernel, statistics and invariant checks."""

from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer, SanitizerError
from repro.sim.stats import Histogram, Stats

__all__ = [
    "Simulator",
    "Sanitizer",
    "SanitizerError",
    "Stats",
    "Histogram",
]
