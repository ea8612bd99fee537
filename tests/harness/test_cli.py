"""Tests for the ``python -m repro.harness`` CLI."""

import os

import pytest

from repro.harness.__main__ import main
from repro.harness.runner import clear_cache


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_cache()
    yield
    clear_cache()


def test_cli_runs_a_small_figure(capsys):
    rc = main([
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "nn" in out
    assert "done in" in out


def test_cli_fig14(capsys):
    rc = main([
        "fig14", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "conv3d",
    ])
    assert rc == 0
    assert "Figure 14" in capsys.readouterr().out


def test_cli_parallel_report_matches_serial(tmp_path, capsys):
    """--jobs 4 must render byte-identical report text, and the warm
    disk cache must satisfy the rerun without new simulations."""
    args = [
        "fig13", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--cache-dir", str(tmp_path / "cache"),
    ]

    def report_lines(out):
        # Everything except the timing/cache footer is the report.
        return [l for l in out.splitlines() if not l.startswith("[fig13")]

    assert main(args + ["--jobs", "4"]) == 0
    cold = capsys.readouterr().out
    assert "0 disk hits" in cold

    clear_cache()  # simulate a fresh session; only the disk remains
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert report_lines(warm) == report_lines(cold)
    assert "0 simulated" in warm

    clear_cache()
    assert main(args + ["--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert report_lines(serial) == report_lines(cold)


def test_cli_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_unknown_core():
    with pytest.raises(SystemExit):
        main(["fig2", "--core", "pentium"])


# ----------------------------------------------------------------------
# telemetry flags (--trace-out / --interval-stats / --profile)
# ----------------------------------------------------------------------
def test_cli_telemetry_artifacts(tmp_path, capsys):
    """One run with all three pillars produces the three artifacts,
    and restores the telemetry env on the way out."""
    import json
    import os

    from repro.obs.telemetry import ENV_INTERVAL, ENV_TELEMETRY

    trace = tmp_path / "run.trace.json"
    intervals = tmp_path / "run.intervals.jsonl"
    profile = tmp_path / "run.profile.json"
    rc = main([
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--no-cache",
        "--trace-out", str(trace),
        "--interval-stats", "5000", "--interval-out", str(intervals),
        "--profile", "--profile-out", str(profile),
    ])
    assert rc == 0
    err = capsys.readouterr().err

    payload = json.load(open(trace))
    events = payload["traceEvents"]
    assert events
    assert {e["ph"] for e in events} <= {"X", "M", "s", "f"}
    assert any(e["ph"] == "X" for e in events)

    lines = [json.loads(line) for line in open(intervals)]
    assert lines
    assert {"point", "cycle", "ipc", "noc_util", "l3_mpki"} <= set(lines[0])

    prof = json.load(open(profile))
    assert prof["points"]
    assert prof["points"][0]["top"]
    assert "== nn-base-ooo8-2x2-s64 ==" in err
    assert "us/event" in err
    for path in (trace, intervals, profile):
        assert f"wrote {path}" in err

    # main() restores the environment for in-process callers.
    assert ENV_TELEMETRY not in os.environ
    assert ENV_INTERVAL not in os.environ


def test_cli_telemetry_parallel_jobs(tmp_path, capsys):
    """Telemetry composes with --jobs N: fan-out workers export
    per-point artifacts that the parent sink merges, so the combined
    trace covers every simulated point and the report text matches a
    serial telemetry run."""
    import json

    trace = tmp_path / "par.trace.json"
    intervals = tmp_path / "par.intervals.jsonl"
    provenance = tmp_path / "par.provenance.jsonl"
    # fig13 enumerates stream-floating configs, so the provenance
    # ledger has float/sink verdicts to merge (fig2 is base-only).
    args = [
        "fig13", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "mv", "--no-cache",
        "--interval-stats", "5000",
    ]
    rc = main(args + [
        "--jobs", "2",
        "--trace-out", str(trace),
        "--interval-out", str(intervals),
        "--provenance-out", str(provenance),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "forcing --jobs 1" not in captured.err
    assert "merged" in captured.err

    events = json.load(open(trace))["traceEvents"]
    point_names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    # fig2 enumerates multiple configs per workload; every simulated
    # point must appear as its own trace process, for both workloads.
    assert any(name.startswith("nn-") for name in point_names)
    assert any(name.startswith("mv-") for name in point_names)
    # Merged points keep distinct pids (worker exports all use pid 1).
    pids = {e["pid"] for e in events}
    assert len(pids) == len(point_names)

    interval_points = {
        json.loads(line)["point"] for line in open(intervals)
    }
    assert interval_points == point_names

    rows = [json.loads(line) for line in open(provenance)]
    assert rows
    assert {"cycle", "tile", "verdict", "inputs", "point"} <= set(rows[0])

    # Same run serially: report text is byte-identical.
    clear_cache()
    assert main(args + [
        "--interval-out", str(tmp_path / "serial.intervals.jsonl"),
    ]) == 0
    serial_out = capsys.readouterr().out

    def report_lines(out):
        return [l for l in out.splitlines() if not l.startswith("[fig13")]

    assert report_lines(serial_out) == report_lines(captured.out)


def test_cli_telemetry_without_out_paths_writes_nothing(
        tmp_path, monkeypatch, capsys):
    """--interval-stats / --profile without their --*-out paths still
    sample and print the profile report, but write no file into the
    working directory."""
    monkeypatch.chdir(tmp_path)
    assert main([
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--no-cache",
        "--interval-stats", "5000", "--profile",
    ]) == 0
    assert "us/event" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_telemetry_warns_on_all_cache_hits(tmp_path, capsys):
    """Cached points never simulate, so telemetry has nothing to
    collect — the CLI must say so instead of writing silently empty
    artifacts."""
    base = [
        "fig2", "--cols", "2", "--rows", "2", "--scale", "64",
        "--workloads", "nn", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(base) == 0  # warm the disk cache
    capsys.readouterr()
    clear_cache()
    assert main(base + ["--trace-out", str(tmp_path / "t.trace.json")]) == 0
    assert "no points simulated" in capsys.readouterr().err
