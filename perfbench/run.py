#!/usr/bin/env python3
"""Benchmark of the simulator's production path.

Runs one workload (a fixed list of simulation points) closed-loop, one
simulation at a time in this process, through the same public calls
``repro.harness.runner.simulate`` makes: ``make_config`` -> ``Chip(...)``
-> ``build_programs`` -> ``Chip.run`` -> ``EnergyModel().evaluate``. The
run cache, the sanitizer and telemetry are all bypassed or off, so the
numbers are those of the fast path a user's simulation takes.

Usage, from the repository root::

    python3 perfbench/run.py --workload float_4x4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1    # every metric, every workload

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` adds one
cProfile-traced pass and reports the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. perfbench/README.md defines
every metric and workload.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import itertools
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# The benchmark writes nothing into the tree it measures.
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-ups timed per point: at least SETUP_REPS, and more until they add
# up to SETUP_SECONDS, because host noise swings a single 4x4 set-up
# (about 25 ms) by 15% from one second to the next. The median is
# reported.
SETUP_REPS = 5
SETUP_SECONDS = 0.5

# How far the module self times of a traced pass may stray from the
# wall time of its simulations, as a share of the latter.
PROFILE_SLACK = 0.05


@dataclass(frozen=True)
class Point:
    """One simulation: a program under a system configuration."""

    program: str
    config: str
    cols: int = 4
    rows: int = 4
    scale: int = 16

    @property
    def name(self) -> str:
        base = f"{self.program}/{self.config}"
        if (self.cols, self.rows) == (4, 4):
            return base
        return f"{base}@{self.cols}x{self.rows}"


# Why each workload exists is in README.md, "Workloads".
WORKLOADS: Dict[str, Tuple[Point, ...]] = {
    "float_4x4": tuple(
        Point(p, "sf") for p in ("mv", "conv3d", "pathfinder", "hotspot", "bfs")
    ) + (Point("stencil_tiled", "sf_smart"),),
    "demand_4x4": tuple(
        Point(p, c) for c in ("base", "bingo") for p in ("mv", "conv3d", "hotspot")
    ),
    "mesh_8x8": (Point("mv", "sf", cols=8, rows=8, scale=4),),
}

END_TO_END = (
    # name, unit, better
    ("sim_kops_per_s", "kops/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
)


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    import layers

    specs = []
    for module in layers.MODULES + ("builtins",):
        specs.append((f"{module}.self_share", "fraction", "lower"))
        specs.append((f"{module}.calls_per_event", "calls/event", "lower"))
    for layer in layers.LAYERS:
        if layer != "builtins":
            specs.append((f"{layer}.self_share", "fraction", "lower"))
    specs += [
        ("sim.events_per_s", "events/s", "higher"),
        ("sim.events_per_op", "events/op", "lower"),
        ("sim.inlined_frac", "fraction", "higher"),
        ("trace.overhead", "x", "lower"),
        ("cpu.ipc", "ops/cycle", "higher"),
        ("mem.l1_hit_rate", "fraction", "higher"),
        ("mem.l2_hit_rate", "fraction", "higher"),
        ("mem.l3_hit_rate", "fraction", "higher"),
        ("mem.l3_mshr_full_waits", "count", "lower"),
        ("mem.dram_reads_per_kop", "reads/kop", "lower"),
        ("noc.flit_hops_per_kop.ctrl", "hops/kop", "lower"),
        ("noc.flit_hops_per_kop.data", "hops/kop", "lower"),
        ("noc.flit_hops_per_kop.stream", "hops/kop", "lower"),
        ("noc.multicast_saved_flit_hops", "flit_hops", "higher"),
        ("streams.floats", "count", "higher"),
        ("streams.sinks", "count", "lower"),
        ("streams.revokes", "count", "lower"),
        ("streams.migrations", "count", "lower"),
        ("streams.confluences", "count", "higher"),
        ("streams.indirect_forwards", "count", "higher"),
        ("prefetch.drop_frac", "fraction", "lower"),
    ]
    return specs


# ----------------------------------------------------------------------
# the measured tree and its knobs
# ----------------------------------------------------------------------
def resolved_knobs() -> Dict[str, object]:
    """Every ``REPRO_*`` variable as set, plus the value each switch
    that selects a code path resolves to."""
    from repro.obs import telemetry
    from repro.sim import fastpath, kernel, sanitizer

    knobs: Dict[str, object] = {
        k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")
    }
    try:
        knobs["kernel"] = kernel.kernel_from_env()
    except ValueError as exc:
        knobs["kernel"] = f"invalid: {exc}"
    knobs["fastpath"] = fastpath.enabled()
    knobs["sanitize"] = sanitizer.enabled_by_env()
    knobs["telemetry"] = telemetry.enabled_by_env()
    return knobs


def refusals(knobs: Dict[str, object]) -> List[str]:
    """Why a timed run must not start under these knobs (empty: fine)."""
    out = []
    if knobs["sanitize"]:
        out.append("REPRO_SANITIZE is on: the timings would measure the checker")
    if knobs["telemetry"]:
        out.append("REPRO_TELEMETRY is on: telemetry vetoes fusion")
    if not knobs["fastpath"]:
        out.append("REPRO_FASTPATH is off: the serialized path is not production")
    if knobs["kernel"] != "calendar":
        out.append(f"REPRO_KERNEL selects {knobs['kernel']!r}, not the calendar queue")
    return out


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "--no-optional-locks", *args], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def stamp(knobs: Dict[str, object]) -> Dict[str, object]:
    """What was measured: the source fingerprint, whether ``src/``
    differs from the checked-out commit (``None`` outside git), the
    host and the knobs."""
    from repro.harness.cache import code_fingerprint

    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src") if head else None
    return {
        "fingerprint": code_fingerprint(),
        "head": head.strip() if head else None,
        "dirty": None if status is None else bool(status.strip()),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "knobs": knobs,
    }


# ----------------------------------------------------------------------
# one simulation
# ----------------------------------------------------------------------
@dataclass
class Sim:
    """What one simulation produced and cost."""

    point: str
    setup_s: float
    run_s: float
    wall_s: float
    cycles: int
    events: int
    inlined: int
    stats: Dict[str, float]


def _params(point: Point, seed: int) -> Dict:
    from repro.harness.runner import run_params

    return run_params(
        point.program, point.config, core="ooo8", cols=point.cols,
        rows=point.rows, scale=point.scale, seed=seed,
    )


def _set_up(params: Dict):
    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    system = make_config(
        params["config"], core=params["core"], cols=params["cols"],
        rows=params["rows"], scale=params["scale"],
        link_bits=params["link_bits"], l3_interleave=params["l3_interleave"],
    )
    chip = Chip(system)
    programs = build_programs(
        params["workload"], chip.num_cores, scale=params["scale"],
        seed=params["seed"],
    )
    return system, chip, programs


def time_set_up(point: Point, seed: int) -> float:
    """Host seconds of one set-up that is then thrown away."""
    params = _params(point, seed)
    gc.collect()
    t0 = time.perf_counter()
    _set_up(params)
    return time.perf_counter() - t0


def simulate(point: Point, seed: int,
             profiler: Optional[cProfile.Profile] = None) -> Sim:
    """One simulation. ``run_s`` is ``Chip.run`` plus the collection
    that pays the collector debt it leaves (README.md)."""
    from repro.energy.model import EnergyModel

    params = _params(point, seed)
    gc.collect()
    if profiler is not None:
        profiler.enable()
    try:
        t0 = time.perf_counter()
        system, chip, programs = _set_up(params)
        t1 = time.perf_counter()
        sim = chip.sim
        if sim.fastpath is not True or sim.telemetry is not None:
            raise RuntimeError(f"{point.name}: not the production path "
                               f"(fastpath={sim.fastpath}, telemetry={sim.telemetry})")
        result = chip.run(programs)
        gc.collect()
        t2 = time.perf_counter()
        energy = EnergyModel().evaluate(result.stats, result.cycles, system)
        t3 = time.perf_counter()
    finally:
        if profiler is not None:
            profiler.disable()
    stats = result.stats.to_dict()
    if not (energy.total > 0 and math.isfinite(energy.total)):
        raise RuntimeError(f"{point.name}: energy total {energy.total}")
    if result.cycles <= 0 or stats.get("chip.cycles") != result.cycles:
        raise RuntimeError(f"{point.name}: cycles {result.cycles}")
    return Sim(
        point=point.name, setup_s=t1 - t0, run_s=t2 - t1, wall_s=t3 - t0,
        cycles=result.cycles, events=sim.events_executed,
        inlined=sim.events_inlined, stats=stats,
    )


def expected_counts(point: Point, seed: int) -> Tuple[int, int]:
    """``(core.iterations, core.ops)`` found by walking a separately
    built copy of the point's programs."""
    from repro.workloads.base import build_programs

    params = _params(point, seed)
    programs = build_programs(
        params["workload"], params["cols"] * params["rows"],
        scale=params["scale"], seed=seed,
    )
    iterations = ops = 0
    for program in programs.values():
        for phase in program.phases:
            for it in phase.iterations():
                iterations += 1
                ops += len(it.ops) + it.compute_ops
    return iterations, ops


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Every simulation of one benchmark run, with failure accounting."""

    points: Tuple[Point, ...]
    untraced: List[Sim] = field(default_factory=list)
    traced: List[Sim] = field(default_factory=list)
    setups: Dict[str, List[float]] = field(default_factory=dict)
    profile: Optional[pstats.Stats] = None
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED {message}", file=sys.stderr, flush=True)


def _attempt(out: Outcome, point: Point, seed: int, expected: Tuple[int, int],
             reference: Optional[Sim],
             profiler: Optional[cProfile.Profile] = None) -> Optional[Sim]:
    """Run and check one simulation; a raise or a wrong count fails it."""
    out.attempted += 1
    try:
        sim = simulate(point, seed, profiler)
    except Exception:  # noqa: BLE001 - one failed simulation, keep going
        out.fail(f"{point.name}: raised\n{traceback.format_exc()}")
        return None
    got = (int(sim.stats.get("core.iterations", 0)),
           int(sim.stats.get("core.ops", 0)))
    if got != expected:
        out.fail(f"{point.name}: (core.iterations, core.ops) {got}, "
                 f"programs hold {expected}")
        return None
    if reference is not None and (sim.cycles, sim.events) != (
            reference.cycles, reference.events):
        out.fail(f"{point.name}: (cycles, events_executed) "
                 f"{(sim.cycles, sim.events)} differ from the first "
                 f"untraced run {(reference.cycles, reference.events)}")
        return None
    return sim


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 points: Optional[Tuple[Point, ...]] = None) -> Outcome:
    """Closed loop, one simulation at a time, cycling through the
    points: the first pass always runs whole, and the loop ends at the
    first simulation that ends after ``seconds``. A traced run stops
    after the first pass. Then come the extra set-ups and, with
    ``trace``, one cProfile-traced pass."""
    points = WORKLOADS[name] if points is None else points
    out = Outcome(points=points)
    expected = {p: expected_counts(p, seed) for p in points}
    first: Dict[Point, Sim] = {}
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(points) and (trace or time.perf_counter() - start >= seconds):
            break
        p = points[i % len(points)]
        sim = _attempt(out, p, seed, expected[p], first.get(p))
        if sim is not None:
            first.setdefault(p, sim)
            out.untraced.append(sim)
    for p in points:
        times = out.setups.setdefault(
            p.name, [s.setup_s for s in out.untraced if s.point == p.name])
        while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
            times.append(time_set_up(p, seed))
    # ru_maxrss is in KiB on Linux.
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        profiler = cProfile.Profile(subcalls=False)
        for p in points:
            sim = _attempt(out, p, seed, expected[p], first.get(p), profiler)
            if sim is not None:
                out.traced.append(sim)
        out.profile = pstats.Stats(profiler)
        # The profile is one more checked operation: it must cover the
        # traced simulations and nothing else.
        out.attempted += 1
        gap = profile_gap(out) if out.traced else math.inf
        if gap > PROFILE_SLACK:
            out.fail(f"traced pass: module self times differ from the traced "
                     f"wall time by {gap:.1%}")
    return out


def profile_gap(out: Outcome) -> float:
    """Distance between the summed module self times of the traced pass
    and the wall time its simulations measured, over the latter."""
    import layers

    wall = sum(s.wall_s for s in out.traced)
    return abs(sum(layers.group(out.profile)[0].values()) - wall) / wall


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_point(sims: List[Sim]) -> Dict[str, Sim]:
    """One representative simulation per point (the first)."""
    out: Dict[str, Sim] = {}
    for s in sims:
        out.setdefault(s.point, s)
    return out


def _median_run_s(sims: List[Sim]) -> Dict[str, float]:
    runs: Dict[str, List[float]] = {}
    for s in sims:
        runs.setdefault(s.point, []).append(s.run_s)
    return {p: statistics.median(v) for p, v in runs.items()}


def end_to_end(out: Outcome) -> Dict[str, float]:
    once = _per_point(out.untraced)
    ops = sum(s.stats.get("core.ops", 0) for s in once.values())
    run_s = sum(_median_run_s(out.untraced).values())
    return {
        "sim_kops_per_s": _ratio(ops / 1000.0, run_s),
        "setup_s": sum(statistics.median(v) for v in out.setups.values()),
        "peak_rss_mb": out.peak_rss_mb,
        "sim_cycles": float(sum(s.cycles for s in once.values())),
    }


def per_layer(out: Outcome) -> Dict[str, float]:
    import layers

    once = _per_point(out.untraced)
    total = {}
    for s in once.values():
        for k, v in s.stats.items():
            total[k] = total.get(k, 0) + v

    def stat(name: str) -> float:
        return total.get(name, 0)

    ops = stat("core.ops")
    kops = ops / 1000.0
    events = sum(s.events for s in once.values())
    cores = {p.name: p.cols * p.rows for p in out.points}
    core_cycles = sum(s.cycles * cores[s.point] for s in once.values())
    m: Dict[str, float] = {}
    if out.profile is not None:
        self_s, calls = layers.group(out.profile)
        prof_total = sum(self_s.values())
        traced_events = sum(s.events for s in out.traced)
        for module in layers.MODULES + ("builtins",):
            m[f"{module}.self_share"] = _ratio(self_s.get(module, 0.0), prof_total)
            m[f"{module}.calls_per_event"] = _ratio(calls.get(module, 0), traced_events)
        for layer, secs in layers.roll_up(self_s).items():
            if layer != "builtins":
                m[f"{layer}.self_share"] = _ratio(secs, prof_total)
        untraced_wall = sum(once[s.point].wall_s for s in out.traced)
        m["trace.overhead"] = _ratio(sum(s.wall_s for s in out.traced), untraced_wall)
    m["sim.events_per_s"] = _ratio(events, sum(_median_run_s(out.untraced).values()))
    m["sim.events_per_op"] = _ratio(events, ops)
    m["sim.inlined_frac"] = _ratio(sum(s.inlined for s in once.values()), events)
    m["cpu.ipc"] = _ratio(ops, core_cycles)
    for level in ("l1", "l2", "l3"):
        hits = stat(f"{level}.hits")
        m[f"mem.{level}_hit_rate"] = _ratio(hits, hits + stat(f"{level}.misses"))
    m["mem.l3_mshr_full_waits"] = stat("l3.mshr_full_waits")
    m["mem.dram_reads_per_kop"] = _ratio(stat("dram.reads"), kops)
    for kind in ("ctrl", "data", "stream"):
        m[f"noc.flit_hops_per_kop.{kind}"] = _ratio(stat(f"noc.flit_hops.{kind}"), kops)
    m["noc.multicast_saved_flit_hops"] = stat("noc.multicast.saved_flit_hops")
    m["streams.floats"] = stat("se_core.floats")
    m["streams.sinks"] = stat("se_core.sinks")
    m["streams.revokes"] = stat("se_core.revokes")
    m["streams.migrations"] = stat("se_l3.migrations_out")
    m["streams.confluences"] = stat("se_l3.confluences")
    m["streams.indirect_forwards"] = stat("se_l3.indirect_forwards")
    m["prefetch.drop_frac"] = _ratio(
        stat("l1.prefetch_dropped") + stat("l2.prefetch_dropped"),
        stat("l1.prefetch_issued") + stat("l2.prefetch_issued"),
    )
    return m


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _print_table(title: str, values: Dict[str, float],
                 specs: List[Tuple[str, str, str]]) -> None:
    print(f"== {title}")
    for name, unit, better in specs:
        if name in values:
            print(f"  {name:<40} {values[name]:>16.6g} {unit:<12} ({better} is better)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    knobs = resolved_knobs()
    reasons = refusals(knobs)
    if reasons:
        for r in reasons:
            print(f"perfbench: refusing to time: {r}", file=sys.stderr)
        return 3
    if args.workload == "all":
        return run_all(args)
    info = stamp(knobs)
    print("stamp " + json.dumps(info, sort_keys=True), flush=True)

    name = args.workload
    out = run_workload(name, args.seed, args.seconds, bool(args.trace))
    e2e = end_to_end(out)
    _print_table(f"{name} end to end", e2e, list(END_TO_END))
    if args.trace:
        values, specs = per_layer(out), per_layer_specs()
        _print_table(f"{name} per layer", values, specs)
    else:
        values, specs = e2e, list(END_TO_END)
    result = {
        "correct": out.failed == 0, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m: {"value": values.get(m, 0.0), "unit": unit}
                    for m, unit, _better in specs},
    }
    if args.out:
        report = {
            "stamp": info, "workload": name, "end_to_end": e2e,
            "per_layer": values if args.trace else None,
            "sims": [{k: v for k, v in vars(s).items() if k != "stats"}
                     for s in out.untraced + out.traced],
            "result": result,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process so that its
    ``peak_rss_mb`` is its own; the result lines are merged, with each
    metric name prefixed ``<workload>/``."""
    attempted = failed = 0
    metrics: Dict[str, Dict[str, object]] = {}
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(WORKLOADS):
            path = os.path.join(tmp, f"{name}.json")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", path],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} exited with {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{m}": v for m, v in result["metrics"].items()})
            with open(path) as fh:
                reports[name] = json.load(fh)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workloads": reports, "result": result}, fh,
                      indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
