"""The benchmark's own tests: layer mapping, traced-run integrity,
failure accounting, refusals, hermeticity and the cycle pins.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
The sanitizer pass and the command-line runs take a few minutes.
"""

import cProfile
import json
import os
import pstats
import subprocess
import sys
import time

import pytest

import layers
import run

pytestmark = pytest.mark.no_sanitize

TINY = run.Point("conv3d", "sf", cols=2, rows=2, scale=64)
TINY_DEMAND = run.Point("mv", "bingo", cols=2, rows=2, scale=64)


def _clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    return env


def _bench(*args, cwd=run.ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=_clean_env() if env is None else env,
        capture_output=True, text=True, timeout=600,
    )


def test_every_module_maps_to_exactly_one_layer():
    seen = set()
    for dirpath, _dirs, files in os.walk(layers.SRC_ROOT):
        for name in files:
            if name.endswith(".py"):
                module = layers.module_of(os.path.join(dirpath, name))
                assert layers.layer_of(module) in layers.LAYERS
                seen.add(module)
    packages = {
        d for d in os.listdir(layers.SRC_ROOT)
        if os.path.isfile(os.path.join(layers.SRC_ROOT, d, "__init__.py"))
    }
    assert packages == set(layers.PACKAGES)
    assert set(layers.MODULES) <= seen
    assert layers.module_of("~", "<built-in method builtins.len>") == "builtins"
    assert layers.module_of("~", "<built-in method gc.collect>") == "gc"
    assert layers.module_of("<string>") == "other"
    assert layers.module_of(os.path.join(layers.SRC_ROOT, "__init__.py")) == "repro"


def test_module_self_times_sum_to_the_traced_wall_time():
    profiler = cProfile.Profile()
    sim = run.simulate(TINY, 0, profiler)
    out = run.Outcome(points=(TINY,), traced=[sim], profile=pstats.Stats(profiler))
    self_s, calls = layers.group(out.profile)
    assert self_s["streams.se_core"] > 0 and calls["sim.kernel"] > 0
    assert run.profile_gap(out) < run.PROFILE_SLACK
    # Time profiled outside any traced simulation shows...
    profiler.enable()
    time.sleep(sim.wall_s * 0.2)
    profiler.disable()
    out.profile = pstats.Stats(profiler)
    assert run.profile_gap(out) > run.PROFILE_SLACK
    # ... and so does traced time the profile missed.
    out = run.Outcome(points=(TINY,), profile=pstats.Stats(profiler),
                      traced=[run.Sim(**{**vars(sim), "wall_s": sim.wall_s * 2})])
    assert run.profile_gap(out) > run.PROFILE_SLACK


def test_traced_run_is_the_checked_production_path():
    out = run.run_workload("tiny", 0, 0.0, trace=True, points=(TINY, TINY_DEMAND))
    # Two untraced and two traced simulations, and the profile.
    assert (out.attempted, out.failed) == (5, 0)
    assert [s.point for s in out.traced] == [TINY.name, TINY_DEMAND.name]
    for traced, plain in zip(out.traced, out.untraced):
        assert (traced.cycles, traced.events) == (plain.cycles, plain.events)
    metrics = run.per_layer(out)
    assert set(metrics) == {name for name, _u, _b in run.per_layer_specs()}
    shares = [v for k, v in metrics.items()
              if k.endswith(".self_share") and k.split(".")[0] in layers.LAYERS
              and k.count(".") == 1]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["prefetch.self_share"] > 0
    assert metrics["obs.self_share"] < 0.001


def test_simulate_rejects_a_telemetry_attached_chip(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "profile")
    with pytest.raises(RuntimeError, match="not the production path"):
        run.simulate(TINY, 0)


def test_wrong_counts_and_divergent_repeats_fail():
    out = run.Outcome(points=(TINY,))
    expected = run.expected_counts(TINY, 0)
    good = run._attempt(out, TINY, 0, expected, None)
    assert good is not None and out.failed == 0
    assert run._attempt(out, TINY, 0, (expected[0] + 1, expected[1]), None) is None
    wrong = run.Sim(**{**vars(good), "events": good.events + 1})
    assert run._attempt(out, TINY, 0, expected, wrong) is None
    assert (out.attempted, out.failed) == (3, 2)


@pytest.mark.parametrize("var, value", [
    ("REPRO_SANITIZE", "1"), ("REPRO_TELEMETRY", "spans"),
    ("REPRO_FASTPATH", "0"), ("REPRO_KERNEL", "heap"),
])
def test_refuses_to_time_another_path(monkeypatch, var, value):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    assert run.refusals(run.resolved_knobs()) == []
    monkeypatch.setenv(var, value)
    assert run.refusals(run.resolved_knobs())


def test_benchmark_json_declares_what_the_code_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.per_layer_specs()]


def test_sanitizer_pass_is_clean_and_cycles_match_the_pins(monkeypatch):
    """One untimed pass per workload with the sanitizer on; a violation
    raises inside the simulation."""
    with open(os.path.join(run.ROOT, "BENCH_kernel.json")) as fh:
        pins = {p["name"]: p["cycles"] for p in json.load(fh)["figure_points"]}
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    checked = []
    for points in run.WORKLOADS.values():
        for point in points:
            sim = run.simulate(point, 0)
            assert sim.stats["sanitizer.violations"] == 0, point.name
            if point.name in pins:
                assert sim.cycles == pins[point.name], point.name
                checked.append(point.name)
    assert len(checked) == 8


def test_a_run_is_hermetic_and_prints_one_result_line():
    def status():
        proc = subprocess.run(["git", "status", "--porcelain", "--ignored"],
                              cwd=run.ROOT, capture_output=True, text=True)
        return proc.stdout if proc.returncode == 0 else None

    before = status()
    proc = _bench("--workload", "all", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [
        f"{w}/{m}" for w in sorted(run.WORKLOADS) for m, _u, _b in run.END_TO_END]
    # Each workload ran in a process of its own (each stamps its run),
    # so its peak_rss_mb is not the high-water mark of those before it.
    stamps = [l for l in proc.stdout.splitlines() if l.startswith("stamp ")]
    assert len(stamps) == len(run.WORKLOADS)
    if before is None:
        pytest.skip("not a git checkout")
    assert status() == before


def test_refused_run_prints_no_result():
    env = dict(_clean_env(), REPRO_TELEMETRY="1")
    proc = _bench("--workload", "float_4x4", "--seconds", "0", env=env)
    assert proc.returncode == 3
    assert "refusing" in proc.stderr and proc.stdout == ""


def test_fails_without_the_simulator_sources(tmp_path):
    os.mkdir(tmp_path / "perfbench")
    for name in ("run.py", "layers.py"):
        with open(os.path.join(run.HERE, name)) as src:
            (tmp_path / "perfbench" / name).write_text(src.read())
    proc = _bench("--workload", "float_4x4", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""
