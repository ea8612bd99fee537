#!/usr/bin/env python
"""Kernel benchmark: dispatch throughput + end-to-end figure points.

Writes ``BENCH_kernel.json`` at the repo root (or ``--out``). The
committed copy is the performance baseline CI's bench-smoke job diffs
against: the S5 determinism hash per figure point must match exactly,
and events/sec must not regress by more than 20%.

Two measurement sections:

``kernel_stress``
    Pure scheduler throughput (events/sec) of the calendar queue — a
    storm of self-rescheduling actors, no simulation model attached —
    at several queue depths.

``figure_points``
    Full fast-profile (4x4, scale 16) simulation points. Each point
    runs twice: a *hash pass* with the sanitizer attached (recording
    the S5 trace hash that pins determinism across kernel changes)
    and a *perf pass* without it (wall-clock, events executed,
    events/sec — the numbers a simulation user actually sees).

``seed_baseline`` embeds the pre-calendar-queue numbers (heap kernel,
pre-slot-array memory system) measured on the same machine class, so the JSON
carries its own reference: ``speedup_vs_seed`` per point.

``trajectory`` accumulates across runs instead of being overwritten:
each invocation appends one entry (git SHA + date + per-point
events/sec + trace hash), so the committed JSON records how kernel
performance moved PR over PR rather than only its latest value.

Usage::

    python benchmarks/bench_kernel.py            # full run
    python benchmarks/bench_kernel.py --quick    # CI smoke subset
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_kernel.json")

# Fast-profile geometry (benchmarks/conftest.py PROFILE).
PROFILE = dict(cols=4, rows=4, scale=16)

# Named geometry variants: "<workload>/<config>@<variant>" points run
# with these overrides instead of PROFILE. The 8x8 point makes the
# paper's full 64-core mesh a routine benchmark geometry.
GEOMETRY_OVERRIDES = {
    "mv/sf@8x8": dict(cols=8, rows=8, scale=4),
}

# Pre-PR reference: the seed commit (telemetry-layer PR) measured on
# the *current* machine with the sanitizer off on the same profile —
# interleaved A/B medians against HEAD, since wall-clock on this host
# class wanders ±10-15% between processes. ``calls_per_event`` is the
# cProfile total-call count divided by logical events (deterministic,
# so a single pass suffices).
SEED_BASELINE = {
    "mv/sf": {"wall_s": 0.921, "events": 84145, "events_per_s": 91325,
              "calls_per_event": 43.5},
    "mv/base": {"wall_s": 1.173, "events": 86225, "events_per_s": 73503,
                "calls_per_event": 42.0},
    "conv3d/sf": {"wall_s": 0.445, "events": 48657, "events_per_s": 109418,
                  "calls_per_event": 38.3},
    "bfs/sf": {"wall_s": 6.866, "events": 555791, "events_per_s": 80942,
               "calls_per_event": 40.8},
    "pathfinder/sf": {"wall_s": 4.807, "events": 279205,
                      "events_per_s": 58084, "calls_per_event": 45.9},
    "hotspot/sf": {"wall_s": 4.807, "events": 332147,
                   "events_per_s": 69092, "calls_per_event": 47.3},
    "mv/sf@8x8": {"wall_s": 22.284, "events": 1351351,
                  "events_per_s": 60641, "calls_per_event": 52.5},
}

# stencil_tiled/sf_smart exercises the adaptive policy's revocation
# path (float -> revoke -> cooldown) end to end; it has no entry in
# SEED_BASELINE (the workload postdates the seed), so only its S5
# hash and events/sec gate in CI.
FULL_POINTS = ["mv/sf", "mv/base", "conv3d/sf", "bfs/sf",
               "pathfinder/sf", "hotspot/sf", "mv/sf@8x8",
               "stencil_tiled/sf_smart"]
QUICK_POINTS = ["mv/sf", "conv3d/sf", "mv/sf@8x8",
                "stencil_tiled/sf_smart"]

STRESS_DEPTHS_FULL = [64, 1024, 8192, 32768]
STRESS_DEPTHS_QUICK = [64, 1024]


# ----------------------------------------------------------------------
# section 1: raw scheduler throughput
# ----------------------------------------------------------------------
def stress(n_actors: int, target_events: int) -> Dict:
    """Self-rescheduling actor storm; returns events/sec. The horizon
    is sized so every depth runs a comparable number of events."""
    from repro.sim.kernel import Simulator

    sim = Simulator()

    def tick(period: int) -> None:
        sim.schedule(period, tick, period)

    for i in range(n_actors):
        sim.schedule(i % 7, tick, 1 + (i % 5))
    # Each cycle runs ~n_actors * mean(1/period) events.
    per_cycle = sum(1.0 / (1 + (i % 5)) for i in range(n_actors))
    horizon = max(64, int(target_events / per_cycle))
    t0 = time.perf_counter()
    sim.run(until=horizon)
    wall = time.perf_counter() - t0
    return {
        "actors": n_actors,
        "events": sim.events_executed,
        "wall_s": round(wall, 4),
        "calendar_events_per_s": int(sim.events_executed / wall),
    }


def run_stress(depths: List[int], target_events: int) -> List[Dict]:
    return [stress(depth, target_events) for depth in depths]


# ----------------------------------------------------------------------
# section 2: end-to-end figure points
# ----------------------------------------------------------------------
def _build_chip(workload: str, config: str, params: Dict):
    """Fresh chip + programs for one measurement pass (a Chip cannot
    be re-run)."""
    from repro.system.chip import Chip
    from repro.system.configs import make_config
    from repro.workloads.base import build_programs

    system = make_config(
        config, core=params["core"], cols=params["cols"],
        rows=params["rows"], scale=params["scale"],
        link_bits=params["link_bits"],
        l3_interleave=params["l3_interleave"],
    )
    chip = Chip(system)
    programs = build_programs(
        workload, chip.num_cores, scale=params["scale"],
        seed=params["seed"],
    )
    return chip, programs


def run_point(name: str, hash_pass: bool, calls_pass: bool = True) -> Dict:
    """One figure-point simulation; returns timing + determinism info.

    Up to three separate simulations per point:

    - *hash pass* (sanitizer on): records the S5 trace hash that pins
      determinism across kernel changes. Separate because the
      sanitizer's step hook bypasses the kernel's inline run loop, so
      timing with it attached would measure the checker.
    - *perf pass* (sanitizer off): wall-clock, events, events/sec.
    - *calls pass* (cProfile): total Python calls / logical event —
      the handler-layer overhead metric the fast-path work drives
      down. Deterministic, so one pass suffices; kept out of the perf
      pass because profiling costs ~2-3x wall-clock.
    """
    from repro.harness.runner import run_params, simulate

    base_name, _, variant = name.partition("@")
    workload, config = base_name.split("/")
    profile = dict(PROFILE, **GEOMETRY_OVERRIDES[name]) if variant else PROFILE

    params = run_params(workload, config, **profile)

    trace_hash: Optional[int] = None
    trace_events: Optional[int] = None
    if hash_pass:
        os.environ["REPRO_SANITIZE"] = "1"
        rec = simulate(params)
        trace_hash = int(rec.stats.get("sanitizer.trace_hash"))
        trace_events = int(rec.stats.get("sanitizer.trace_events"))
        assert rec.stats.get("sanitizer.violations", 0) == 0

    os.environ["REPRO_SANITIZE"] = "0"
    # Time via the chip directly: the harness's RunRecord drops the
    # simulator, and events_executed lives there.
    chip, programs = _build_chip(workload, config, params)
    t0 = time.perf_counter()
    result = chip.run(programs)
    wall = time.perf_counter() - t0
    events = chip.sim.events_executed
    point = {
        "name": name,
        "workload": workload,
        "config": config,
        "profile": profile,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": int(events / wall),
        "cycles": result.cycles,
    }
    if calls_pass:
        import cProfile
        import pstats

        chip, programs = _build_chip(workload, config, params)
        prof = cProfile.Profile()
        prof.enable()
        chip.run(programs)
        prof.disable()
        total_calls = pstats.Stats(prof).total_calls
        point["total_calls"] = total_calls
        point["calls_per_event"] = round(
            total_calls / chip.sim.events_executed, 2
        )
    if trace_hash is not None:
        point["trace_hash"] = trace_hash
        point["trace_events"] = trace_events
    seed = SEED_BASELINE.get(name)
    if seed is not None:
        point["seed_events_per_s"] = seed["events_per_s"]
        point["speedup_vs_seed"] = round(
            point["events_per_s"] / seed["events_per_s"], 3
        )
        if "calls_per_event" in point and "calls_per_event" in seed:
            point["seed_calls_per_event"] = seed["calls_per_event"]
            point["calls_ratio_vs_seed"] = round(
                point["calls_per_event"] / seed["calls_per_event"], 3
            )
    return point


# ----------------------------------------------------------------------
# trajectory bookkeeping
# ----------------------------------------------------------------------
def git_sha() -> str:
    import subprocess

    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def trajectory_entry(figure_points: List[Dict], quick: bool) -> Dict:
    return {
        "git_sha": git_sha(),
        "date": time.strftime("%Y-%m-%d"),
        "quick": quick,
        "points": {
            p.get("name", f"{p['workload']}/{p['config']}"): {
                key: p[key]
                for key in ("events_per_s", "wall_s", "calls_per_event",
                            "trace_hash")
                if key in p
            }
            for p in figure_points
        },
    }


def append_trajectory(out_path: str, entry: Dict) -> List[Dict]:
    """Load the existing benchmark JSON's trajectory (if any) and
    append this run. Re-runs at the same SHA with the same quick flag
    replace their previous entry instead of duplicating it."""
    trajectory: List[Dict] = []
    if os.path.exists(out_path):
        try:
            with open(out_path) as fh:
                trajectory = json.load(fh).get("trajectory", [])
        except (json.JSONDecodeError, OSError):
            trajectory = []
    trajectory = [
        e for e in trajectory
        if not (e.get("git_sha") == entry["git_sha"]
                and e.get("quick") == entry["quick"])
    ]
    trajectory.append(entry)
    return trajectory


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke subset: fewer points, fewer depths")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help="output JSON path (default: repo-root "
                         "BENCH_kernel.json)")
    ap.add_argument("--no-hash", action="store_true",
                    help="skip the sanitizer hash passes (perf only)")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare against a committed BENCH_kernel.json: "
                         "fail on any S5 trace-hash mismatch or a >20%% "
                         "events/sec regression on a shared figure point")
    args = ap.parse_args(argv)

    points = QUICK_POINTS if args.quick else FULL_POINTS
    depths = STRESS_DEPTHS_QUICK if args.quick else STRESS_DEPTHS_FULL
    target = 300_000 if args.quick else 2_000_000

    print(f"kernel stress ({len(depths)} depths)...")
    stress = run_stress(depths, target)
    for row in stress:
        print(f"  actors={row['actors']:>6}: "
              f"{row['calendar_events_per_s']:>9,} ev/s")

    figure_points = []
    for name in points:
        print(f"figure point {name}...")
        point = run_point(name, hash_pass=not args.no_hash)
        figure_points.append(point)
        extra = (f"  {point['speedup_vs_seed']}x vs seed"
                 if "speedup_vs_seed" in point else "")
        calls = (f", {point['calls_per_event']} calls/event"
                 if "calls_per_event" in point else "")
        print(f"  {point['wall_s']}s, {point['events']:,} events, "
              f"{point['events_per_s']:,} ev/s{calls}{extra}")

    out = {
        "profile": PROFILE,
        "quick": args.quick,
        "kernel": "calendar",
        "kernel_stress": stress,
        "figure_points": figure_points,
        "seed_baseline": SEED_BASELINE,
        "trajectory": append_trajectory(
            args.out, trajectory_entry(figure_points, args.quick)),
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        return check_against(args.check, figure_points)
    return 0


REGRESSION_TOLERANCE = 0.20  # fail if events/sec drops more than this
# calls/event is deterministic (no wall-clock noise), so its gate is
# tighter: >15% more Python calls per logical event than the committed
# baseline fails the smoke job.
CALLS_TOLERANCE = 0.15


def check_against(baseline_path: str, figure_points: List[Dict]) -> int:
    """CI gate: the S5 hash per shared point must match the committed
    baseline exactly (determinism is not a tolerance band), events/sec
    must be within REGRESSION_TOLERANCE of it, and calls/event within
    CALLS_TOLERANCE."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_points = {
        p.get("name", f"{p['workload']}/{p['config']}"): p
        for p in baseline.get("figure_points", [])
    }
    failures = []
    for point in figure_points:
        name = point.get("name", f"{point['workload']}/{point['config']}")
        base = base_points.get(name)
        if base is None:
            print(f"  [check] {name}: not in baseline, skipped")
            continue
        if "trace_hash" in point and "trace_hash" in base:
            if point["trace_hash"] != base["trace_hash"]:
                failures.append(
                    f"{name}: S5 trace hash {point['trace_hash']} != "
                    f"baseline {base['trace_hash']} (determinism broken)"
                )
            elif point.get("trace_events") != base.get("trace_events"):
                failures.append(
                    f"{name}: trace events {point.get('trace_events')} != "
                    f"baseline {base.get('trace_events')}"
                )
        floor = base["events_per_s"] * (1 - REGRESSION_TOLERANCE)
        if point["events_per_s"] < floor:
            failures.append(
                f"{name}: {point['events_per_s']:,} ev/s is >"
                f"{int(REGRESSION_TOLERANCE * 100)}% below baseline "
                f"{base['events_per_s']:,}"
            )
        else:
            print(f"  [check] {name}: hash ok, "
                  f"{point['events_per_s']:,} ev/s vs baseline "
                  f"{base['events_per_s']:,} (floor {int(floor):,})")
        if "calls_per_event" in point and "calls_per_event" in base:
            ceiling = base["calls_per_event"] * (1 + CALLS_TOLERANCE)
            if point["calls_per_event"] > ceiling:
                failures.append(
                    f"{name}: {point['calls_per_event']} calls/event is >"
                    f"{int(CALLS_TOLERANCE * 100)}% above baseline "
                    f"{base['calls_per_event']} (handler-layer bloat)"
                )
    if failures:
        for f in failures:
            print(f"  [check] FAIL {f}", file=sys.stderr)
        return 1
    print("  [check] all points pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
