"""Observability layer: telemetry bus, spans, interval metrics,
kernel profiler and artifact export (DESIGN.md §8).

Only :mod:`repro.obs.telemetry` (stdlib-only) is imported eagerly —
``sim.kernel`` imports this package at module level, and the heavier
submodules (spans/interval/export) import simulator packages, which
would cycle back into ``sim.kernel``. Everything else resolves
lazily via PEP 562.
"""

from repro.obs.telemetry import (
    ENV_INTERVAL,
    ENV_TELEMETRY,
    ENV_TELEMETRY_DIR,
    BusEvent,
    Telemetry,
    TelemetryConfig,
    config_from_env,
    enabled_by_env,
    maybe_attach,
)

_LAZY = {
    "Hop": "repro.obs.spans",
    "Span": "repro.obs.spans",
    "SpanCollector": "repro.obs.spans",
    "IntervalSampler": "repro.obs.interval",
    "KernelProfiler": "repro.obs.profiler",
    "TelemetrySink": "repro.obs.export",
    "chrome_trace_events": "repro.obs.export",
    "export_point_artifacts": "repro.obs.export",
    "point_slug": "repro.obs.export",
    "provenance_instant_events": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_intervals": "repro.obs.export",
    "write_profile": "repro.obs.export",
    "write_provenance": "repro.obs.export",
    "ProvenanceLedger": "repro.obs.provenance",
    "ProvenanceRecord": "repro.obs.provenance",
    "Divergence": "repro.obs.divergence",
    "TraceRecorder": "repro.obs.divergence",
    "localize": "repro.obs.divergence",
    "RunArtifacts": "repro.obs.diff",
    "RunDiff": "repro.obs.diff",
    "diff_runs": "repro.obs.diff",
    "render_html": "repro.obs.report",
    "render_markdown": "repro.obs.report",
}

__all__ = [
    "BusEvent",
    "ENV_INTERVAL",
    "ENV_TELEMETRY",
    "ENV_TELEMETRY_DIR",
    "Telemetry",
    "TelemetryConfig",
    "config_from_env",
    "enabled_by_env",
    "maybe_attach",
] + sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
