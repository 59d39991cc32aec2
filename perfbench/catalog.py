"""Names and units of every metric the benchmark reports.

This module imports nothing from qlimits, so ``run.py`` can use it before
it has checked that the source tree is there.
"""

from __future__ import annotations

# Why each workload is in the benchmark (also in BENCHMARK.json).
WHY = {
    "trace": "simulate argv through the CLI in-process: per-sample emission and CSV/JSON "
             "writing dominate; final_state, the solvers and the oracle are bypassed",
    "scan": "runtime_to_infidelity and grover final-success scans: segment-heavy, no samples; "
            "scan evaluations share a base schedule and grover repeats a pulse pair",
    "solve": "one security-margin row per request: only the bisection and log-space solvers "
             "run, so changes to the dynamics should leave it flat",
    "oracle": "C7 full-space Lanczos reference against evolve and the C13 brute-force BHT "
              "sweep: the only workload that measures dynamics.reference and the sweep",
}

# Latency and throughput are in ``ref``: the duration of a fixed reference
# slice timed between requests in the same run (see ``hostspeed.py``).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "throughput_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

# The same latency and throughput in wall-clock units, printed next to them.
WALL_CLOCK = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
}

# Source file of each layer, relative to src/qlimits.
LAYER_FILES = {
    "cli": "cli.py",
    "serialize": "serialize.py",
    "dynamics.schedules": "dynamics/schedules.py",
    "dynamics.core": "dynamics/core.py",
    "dynamics.reference": "dynamics/reference.py",
    "bounds": "bounds.py",
    "keylength": "keylength.py",
    "bht": "bht.py",
}

TRACED_LAYER_METRICS = (
    "cli.calls", "cli.self_ms", "cli.self_us_per_call",
    "serialize.rows", "serialize.bytes", "serialize.write_ms",
    "serialize.write_us_per_row", "serialize.parse_segments", "serialize.parse_ms",
    "dynamics.schedules.segments_built", "dynamics.schedules.build_ms",
    "dynamics.schedules.build_us_per_segment", "dynamics.schedules.infidelity_evals",
    "dynamics.schedules.scan_self_ms",
    "dynamics.core.evolve_calls", "dynamics.core.samples", "dynamics.core.evolve_ms",
    "dynamics.core.evolve_us_per_sample", "dynamics.core.segments_propagated",
    "dynamics.core.final_state_ms", "dynamics.core.final_state_us_per_segment",
    "dynamics.core.segments_rescaled", "dynamics.core.rescale_ms",
    "dynamics.core.max_norm_error",
    "dynamics.reference.calls", "dynamics.reference.samples", "dynamics.reference.ms",
    "dynamics.reference.us_per_sample", "dynamics.reference.amplitudes_touched",
    *(f"{layer}.{m}" for layer in ("bounds", "keylength", "bht")
      for m in ("calls", "ms", "us_per_call", "failed")),
    "bht.sweep_points",
)
_EXTRA = (
    "bounds.quantum_psuccess_above_one_frac",
    "bounds.classical_psuccess_above_one_frac",
    "tracing.overhead_frac",
    "src.lines",
    *(f"{layer}.src_lines" for layer in LAYER_FILES),
)


def unit_of(name: str) -> str:
    metric = name.rsplit(".", 1)[1]
    if metric.endswith("_frac"):
        return "frac"
    if metric.startswith("us_per_") or "_us_per_" in metric:
        return "us"
    if metric == "ms" or metric.endswith("_ms"):
        return "ms"
    if metric.endswith("lines"):
        return "lines"
    if metric == "bytes":
        return "bytes"
    if metric == "max_norm_error":
        return "1"
    return "count"


PER_LAYER = {name: unit_of(name) for name in (*TRACED_LAYER_METRICS, *_EXTRA)}

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_EFFECTS = {
    "cli": "trace latency_p50_ref only (about 2 ms of a 30-120 ms request); flat elsewhere",
    "serialize": "trace latency_p50_ref, latency_p90_ref and throughput_per_ref, most on the "
                 "JSON share; flat on scan, solve and oracle",
    "dynamics.schedules": "scan latencies; on trace only the grover and adiabatic requests",
    "dynamics.core (evolve)": "trace latencies, throughput_per_ref and peak_rss_mb; flat on scan",
    "dynamics.core (final_state, rescale)": "scan latency_p50_ref and latency_p90_ref; "
                                            "flat on trace",
    "dynamics.core.max_norm_error": "a correctness diagnostic that should not move",
    "dynamics.reference": "oracle latencies only",
    "bounds, keylength, bht": "solve throughput_per_ref, latency_p50_ref and failed_frac; "
                              "bht.sweep_points and the sweep move oracle instead; "
                              "flat on trace and scan",
    "tracing.overhead_frac": "none: the cost of the traced run itself",
    "src_lines": "none: static counts tracked next to speed",
}
