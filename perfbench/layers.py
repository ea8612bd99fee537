"""Group a cProfile run of the simulator by ``src/repro`` module and layer.

A *layer* is one ``src/repro`` package (``sim``, ``noc``, ``mem``, ...),
plus four buckets for code outside the package tree:

- ``builtins``: C functions (cProfile reports them with filename ``~``);
- ``gc``: the explicit ``gc.collect()`` that pays the collector debt a
  paused ``Chip.run`` leaves (see README.md, "Where the collector debt
  is charged");
- ``repro``: the package root ``src/repro/__init__.py``;
- ``other``: everything else (stdlib and numpy Python code, generated
  ``dataclass`` methods, the benchmark itself).

Every profile entry lands in exactly one module and every module in
exactly one layer. ``run.py`` checks that the module self times add up
to the wall time of the profiled simulations, measured apart from the
profiler.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro",
)

PACKAGES = (
    "sim", "noc", "mem", "streams", "cpu", "prefetch", "system",
    "workloads", "energy", "obs", "harness",
)
LAYERS = PACKAGES + ("builtins", "gc", "repro", "other")

# Modules reported on their own, beside the per-layer roll-ups.
MODULES = (
    "sim.kernel", "sim.stats",
    "noc.network",
    "mem.l1", "mem.l2", "mem.l3", "mem.dram", "mem.mshr", "mem.cache",
    "mem.coherence", "mem.replacement",
    "streams.se_core", "streams.se_l2", "streams.se_l3", "streams.pattern",
    "streams.history", "streams.plan",
    "cpu.core",
    "prefetch.stride", "prefetch.bingo",
)

_GC_COLLECT = "<built-in method gc.collect>"


def module_of(filename: str, funcname: str = "") -> str:
    """Dotted module name of one profile entry, relative to ``repro``
    (``mem.l1``), or one of ``builtins``, ``gc`` and ``other``."""
    if filename == "~":
        return "gc" if funcname == _GC_COLLECT else "builtins"
    path = os.path.abspath(filename)
    if not path.startswith(SRC_ROOT + os.sep) or not path.endswith(".py"):
        return "other"
    rel = os.path.relpath(path, SRC_ROOT)[:-len(".py")]
    return "repro" if rel == "__init__" else rel.replace(os.sep, ".")


def layer_of(module: str) -> str:
    """The layer a module belongs to."""
    head = module.split(".", 1)[0]
    if head not in LAYERS:
        raise KeyError(f"module {module!r} maps to no layer")
    return head


def group(stats: pstats.Stats) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self time and call count per module."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (filename, _line, funcname), (_cc, nc, tt, _ct, _callers) in stats.stats.items():
        module = module_of(filename, funcname)
        self_s[module] = self_s.get(module, 0.0) + tt
        calls[module] = calls.get(module, 0) + nc
    return self_s, calls


def roll_up(per_module: Dict[str, float]) -> Dict[str, float]:
    """Sum a per-module map into a per-layer map (every layer present)."""
    out = {layer: 0.0 for layer in LAYERS}
    for module, value in per_module.items():
        out[layer_of(module)] += value
    return out
