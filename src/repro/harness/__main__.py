"""CLI: regenerate any of the paper's figures from the command line.

Examples::

    python -m repro.harness fig13
    python -m repro.harness fig15 --core ooo8 --scale 16
    python -m repro.harness fig13 --cols 8 --rows 8 --scale 4   # full-size
    python -m repro.harness fig13 --jobs 4                      # parallel
    python -m repro.harness all --jobs 0                        # all CPUs
    python -m repro.harness fig13 --no-cache                    # force re-sim

Independent simulation points fan out over ``--jobs`` worker
processes (default: the ``REPRO_JOBS`` environment variable, else
serial), and results persist in a content-addressed disk cache under
``--cache-dir`` (default: ``REPRO_CACHE_DIR``, else
``~/.cache/repro-stream-floating``) — a rerun of the same figure
performs zero new simulations.  Per-point progress and the cache
hit/miss summary go to stderr; report text goes to stdout, and is
byte-identical whatever ``--jobs`` is.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.harness import experiments, parallel, report
from repro.harness.cache import default_cache_dir
from repro.harness.runner import (
    COUNTERS,
    configure_disk_cache,
    configure_telemetry,
    reset_disk_cache,
    reset_telemetry,
)
from repro.workloads import ALL_WORKLOADS

FIGURES = ("fig2", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness",
        description="Regenerate Stream Floating (HPCA'21) figures",
    )
    parser.add_argument("figure", choices=FIGURES + ("all",))
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--scale", type=int, default=16,
                        help="capacity/dataset scale divisor (1 = paper size)")
    parser.add_argument("--core", default="ooo8",
                        choices=("io4", "ooo4", "ooo8"))
    parser.add_argument("--workloads", nargs="*", default=None,
                        help=f"subset of {list(ALL_WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generation seed (part of the cache key)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel simulation workers (0 = one per CPU; "
                             "default: $REPRO_JOBS, else serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent run-cache directory (default: "
                             "$REPRO_CACHE_DIR, else "
                             "~/.cache/repro-stream-floating)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk run cache")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable the runtime invariant sanitizer "
                             "(sets REPRO_SANITIZE=1 for this run and "
                             "its worker processes)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of "
                             "request/stream lifecycle spans (open in "
                             "Perfetto / chrome://tracing)")
    parser.add_argument("--interval-stats", type=int, metavar="N",
                        default=None,
                        help="sample Stats deltas every N cycles "
                             "(IPC, NoC util, L3 MPKI, streams alive)")
    parser.add_argument("--interval-out", metavar="PATH", default=None,
                        help="interval time-series output (none "
                             "written unless given; .csv extension "
                             "switches to CSV)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the event kernel (host time per "
                             "callback) and report the top hot paths")
    parser.add_argument("--profile-out", metavar="PATH", default=None,
                        help="kernel profile JSON output (none "
                             "written unless given; the hot-path "
                             "report goes to stderr either way)")
    parser.add_argument("--provenance-out", metavar="PATH", default=None,
                        help="decision provenance ledger output "
                             "(queryable JSONL: every float/sink/"
                             "migrate/confluence verdict with its "
                             "input snapshot)")
    args = parser.parse_args(argv)

    configure_disk_cache(
        None if args.no_cache else (args.cache_dir or default_cache_dir())
    )
    parallel.set_progress(lambda line: print(line, file=sys.stderr))
    from repro.obs.telemetry import ENV_INTERVAL, ENV_TELEMETRY
    from repro.sim.sanitizer import ENV_SANITIZE
    prev_sanitize = os.environ.get(ENV_SANITIZE)
    if args.sanitize:
        os.environ[ENV_SANITIZE] = "1"
    pillars = []
    if args.trace_out:
        pillars.append("spans")
    if args.interval_stats:
        pillars.append("interval")
    if args.profile:
        pillars.append("profile")
    if args.provenance_out:
        pillars.append("provenance")
    prev_telemetry = os.environ.get(ENV_TELEMETRY)
    prev_interval = os.environ.get(ENV_INTERVAL)
    prev_tel_dir = None
    worker_dir = None
    sink = None
    if pillars:
        import tempfile

        from repro.obs.export import TelemetrySink
        from repro.obs.telemetry import ENV_TELEMETRY_DIR

        os.environ[ENV_TELEMETRY] = ",".join(pillars)
        if args.interval_stats:
            os.environ[ENV_INTERVAL] = str(args.interval_stats)
        # Parent-process simulations feed the in-process sink; fan-out
        # workers (which reset the sink on start) export per-point
        # artifacts into a scratch dir the sink merges afterwards —
        # so --jobs N and telemetry compose.
        prev_tel_dir = os.environ.get(ENV_TELEMETRY_DIR)
        worker_dir = tempfile.mkdtemp(prefix="repro-telemetry-")
        os.environ[ENV_TELEMETRY_DIR] = worker_dir
        sink = TelemetrySink(
            trace_out=args.trace_out,
            interval_out=args.interval_out,
            profile_out=args.profile_out,
            provenance_out=args.provenance_out,
        )
        configure_telemetry(sink)
    try:
        rc = _run(args)
        if sink is not None:
            ingested = sink.ingest_dir(worker_dir)
            if ingested:
                print(f"[telemetry] merged {ingested} worker point(s)",
                      file=sys.stderr)
            if sink.points == 0 and ingested == 0:
                print("[telemetry] no points simulated (all cache "
                      "hits?) — artifacts will be empty; rerun with "
                      "--no-cache to regenerate", file=sys.stderr)
            for path in sink.write():
                print(f"[telemetry] wrote {path}", file=sys.stderr)
            if args.profile and (sink.points or ingested):
                print(sink.profile_report(), file=sys.stderr)
        return rc
    finally:
        # main() is also called in-process by tests: restore the
        # module-global cache/progress configuration on the way out.
        if args.sanitize:
            if prev_sanitize is None:
                os.environ.pop(ENV_SANITIZE, None)
            else:
                os.environ[ENV_SANITIZE] = prev_sanitize
        if pillars:
            from repro.obs.telemetry import ENV_TELEMETRY_DIR

            if prev_telemetry is None:
                os.environ.pop(ENV_TELEMETRY, None)
            else:
                os.environ[ENV_TELEMETRY] = prev_telemetry
            if prev_interval is None:
                os.environ.pop(ENV_INTERVAL, None)
            else:
                os.environ[ENV_INTERVAL] = prev_interval
            if prev_tel_dir is None:
                os.environ.pop(ENV_TELEMETRY_DIR, None)
            else:
                os.environ[ENV_TELEMETRY_DIR] = prev_tel_dir
            if worker_dir is not None:
                import shutil

                shutil.rmtree(worker_dir, ignore_errors=True)
        parallel.set_progress(None)
        reset_telemetry()
        reset_disk_cache()


def _run(args) -> int:
    kw = dict(cols=args.cols, rows=args.rows, scale=args.scale,
              seed=args.seed, jobs=args.jobs)
    wl = tuple(args.workloads) if args.workloads else None
    figures = FIGURES if args.figure == "all" else (args.figure,)
    for fig in figures:
        t0 = time.time()
        c0 = (COUNTERS.memo_hits, COUNTERS.disk_hits, COUNTERS.simulated)
        print(f"=== {fig} ===")
        if fig == "fig2":
            out = report.render_fig2(experiments.fig2_motivation(
                workloads=wl or ALL_WORKLOADS, core=args.core, **kw))
        elif fig == "fig13":
            out = report.render_fig13(experiments.fig13_speedup(
                workloads=wl or ALL_WORKLOADS, **kw))
        elif fig == "fig14":
            out = report.render_fig14(experiments.fig14_requests(
                workloads=wl or ALL_WORKLOADS, core=args.core, **kw))
        elif fig == "fig15":
            out = report.render_fig15(experiments.fig15_traffic(
                workloads=wl or ALL_WORKLOADS, core=args.core, **kw))
        elif fig == "fig16":
            out = report.render_sweep(
                experiments.fig16_linkwidth(
                    workloads=wl or experiments.SWEEP_WORKLOADS,
                    core=args.core, **kw),
                "Figure 16 (link width, vs bingo@128)",
                report.PAPER_NOTES["fig16"],
            )
        elif fig == "fig17":
            out = report.render_sweep(
                experiments.fig17_interleave(
                    workloads=wl or experiments.SWEEP_WORKLOADS,
                    core=args.core, **kw),
                "Figure 17 (NUCA interleave, vs bingo@64B)",
                report.PAPER_NOTES["fig17"],
            )
        elif fig == "fig18":
            out = report.render_fig18(experiments.fig18_scaling(
                workloads=wl or experiments.SWEEP_WORKLOADS,
                core=args.core, scale=args.scale, seed=args.seed,
                jobs=args.jobs))
        elif fig == "fig19":
            out = report.render_fig19(experiments.fig19_energy_scatter(
                workloads=wl or ALL_WORKLOADS, **kw))
        print(out)
        memo, disk, sim = (
            COUNTERS.memo_hits - c0[0],
            COUNTERS.disk_hits - c0[1],
            COUNTERS.simulated - c0[2],
        )
        print(
            f"[{fig} done in {time.time() - t0:.1f}s; cache: "
            f"{memo} memo hits, {disk} disk hits, {sim} simulated]\n",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
