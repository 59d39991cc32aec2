"""Spans around the calls into each layer, recorded from outside ``src/``.

The tracer replaces a public function with a wrapper *where its caller
looks it up* (a module attribute, or a method on ``ControlSchedule``).  A
span records its name, start, end, parent span and request id, and keeps a
few work counts taken from the arguments and the result after the clock
stops.  Spans stay in memory until the run ends.  ``restore`` puts every
original back.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import qlimits.bht as bht
import qlimits.bounds as bounds
import qlimits.cli as cli
import qlimits.dynamics.core as core
import qlimits.dynamics.reference as reference
import qlimits.dynamics.schedules as schedules
import qlimits.keylength as keylength


def _segments(_args, _kwargs, result) -> dict:
    return {"segments": len(result.segments)}


def _evolve(args, _kwargs, trace) -> dict:
    return {
        "samples": len(trace.points),
        "max_norm_error": max(p.norm_error for p in trace.points),
    }


def _final_state(args, _kwargs, _result) -> dict:
    return {"segments": len(args[1].segments)}


def _reference(args, _kwargs, trace) -> dict:
    samples = len(trace.points)
    return {"samples": samples, "amplitudes": samples * args[0].dimension}


def _trace_rows(args, _kwargs, result) -> dict:
    out = {"rows": len(args[0].points)}
    if isinstance(result, str):
        out["bytes"] = len(result)  # the output is ASCII
    return out


def _text_bytes(_args, _kwargs, result) -> dict:
    return {"bytes": len(result)}


def _sweep(args, kwargs, _result) -> dict:
    return {"points": kwargs.get("points", args[4] if len(args) > 4 else 10_000)}


# (owner, attribute, span name, counter).  The span name's prefix up to the
# last dot is its layer.
PATCHES = (
    (cli, "main", "cli.main", None),
    (cli, "schedule_from_obj", "serialize.schedule_from_obj", _segments),
    (cli, "trace_to_csv", "serialize.trace_to_csv", _trace_rows),
    (cli, "trace_to_obj", "serialize.trace_to_obj", _trace_rows),
    (cli, "dumps17", "serialize.dumps17", _text_bytes),
    (cli, "schedule_to_obj", "serialize.schedule_to_obj", None),
    (cli, "ballistic_schedule", "dynamics.schedules.ballistic_schedule", _segments),
    (cli, "grover_pulsed_schedule", "dynamics.schedules.grover_pulsed_schedule", _segments),
    (cli, "adiabatic_schedule", "dynamics.schedules.adiabatic_schedule", _segments),
    (schedules, "grover_pulsed_schedule", "dynamics.schedules.grover_pulsed_schedule",
     _segments),
    (schedules, "adiabatic_schedule", "dynamics.schedules.adiabatic_schedule", _segments),
    (schedules, "schedule_infidelity", "dynamics.schedules.schedule_infidelity", None),
    (schedules, "runtime_to_infidelity", "dynamics.schedules.runtime_to_infidelity", None),
    (cli, "evolve", "dynamics.core.evolve", _evolve),
    (core, "evolve", "dynamics.core.evolve", _evolve),
    (core, "final_state", "dynamics.core.final_state", _final_state),
    (core.ControlSchedule, "scaled", "dynamics.core.scaled", _segments),
    (core.ControlSchedule, "truncated", "dynamics.core.truncated", _segments),
    (reference, "full_space_reference", "dynamics.reference.full_space_reference",
     _reference),
    (bounds, "quantum_bound", "bounds.quantum_bound", None),
    (bounds, "classical_bound", "bounds.classical_bound", None),
    (keylength, "classical_bound", "bounds.classical_bound", None),
    (keylength, "equivalent_quantum_keylength", "keylength.equivalent_quantum_keylength",
     None),
    (keylength, "max_recoverable_keylength", "keylength.max_recoverable_keylength", None),
    (keylength, "max_deterministic_keylength", "keylength.max_deterministic_keylength",
     None),
    (keylength, "classical_keylength", "keylength.classical_keylength", None),
    (bht, "bht_min_image_bits", "bht.bht_min_image_bits", None),
    (bht, "bht_optimal", "bht.bht_optimal", None),
    (bht, "bht_sweep_minimum", "bht.bht_sweep_minimum", _sweep),
)


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    failed: bool = False
    counts: dict = field(default_factory=dict)
    # time spent counting after ``end``: inside the parent span, not this one
    counter_s: float = 0.0


class Tracer:
    """Installs the wrappers, records spans and aggregates them per name."""

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, counter in self.patches:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
                span.counter_s = clock() - span.end
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, failed, total and self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start + span.counter_s
        out: dict[str, dict] = {}
        for span, inner in zip(self.spans, child_time):
            agg = out.setdefault(span.name, {"calls": 0, "failed": 0, "total_s": 0.0,
                                             "self_s": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["failed"] += span.failed
            agg["total_s"] += span.end - span.start
            agg["self_s"] += span.end - span.start - inner
            for key, value in span.counts.items():
                if key.startswith("max_"):
                    agg["counts"][key] = max(agg["counts"].get(key, 0.0), value)
                else:
                    agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "request": s.request,
                                     "failed": s.failed, **s.counts}) + "\n")


def layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics named in ``BENCHMARK.json``, from span totals."""

    def get(name, key="calls"):
        agg = totals.get(name)
        if agg is None:
            return 0
        return agg["counts"].get(key, 0) if key not in agg else agg[key]

    def total(names, key):
        return sum(get(n, key) for n in names)

    def per(amount_s, count, scale=1e6):
        return amount_s * scale / count if count else 0.0

    m: dict[str, float] = {}
    main = "cli.main"
    m["cli.calls"] = get(main)
    m["cli.self_ms"] = get(main, "self_s") * 1e3
    m["cli.self_us_per_call"] = per(get(main, "self_s"), get(main))

    writers = ("serialize.trace_to_csv", "serialize.trace_to_obj", "serialize.dumps17",
               "serialize.schedule_to_obj")
    rows = total(("serialize.trace_to_csv", "serialize.trace_to_obj"), "rows")
    write_s = total(writers, "self_s")
    m["serialize.rows"] = rows
    m["serialize.bytes"] = total(("serialize.trace_to_csv", "serialize.dumps17"), "bytes")
    m["serialize.write_ms"] = write_s * 1e3
    m["serialize.write_us_per_row"] = per(write_s, rows)
    m["serialize.parse_segments"] = get("serialize.schedule_from_obj", "segments")
    m["serialize.parse_ms"] = get("serialize.schedule_from_obj", "self_s") * 1e3

    builders = ("dynamics.schedules.ballistic_schedule",
                "dynamics.schedules.grover_pulsed_schedule",
                "dynamics.schedules.adiabatic_schedule")
    built = total(builders, "segments")
    build_s = total(builders, "self_s")
    m["dynamics.schedules.segments_built"] = built
    m["dynamics.schedules.build_ms"] = build_s * 1e3
    m["dynamics.schedules.build_us_per_segment"] = per(build_s, built)
    m["dynamics.schedules.infidelity_evals"] = get("dynamics.schedules.schedule_infidelity")
    m["dynamics.schedules.scan_self_ms"] = 1e3 * total(
        ("dynamics.schedules.runtime_to_infidelity", "dynamics.schedules.schedule_infidelity"),
        "self_s")

    evolve, final = "dynamics.core.evolve", "dynamics.core.final_state"
    rescalers = ("dynamics.core.scaled", "dynamics.core.truncated")
    m["dynamics.core.evolve_calls"] = get(evolve)
    m["dynamics.core.samples"] = get(evolve, "samples")
    m["dynamics.core.evolve_ms"] = get(evolve, "self_s") * 1e3
    m["dynamics.core.evolve_us_per_sample"] = per(get(evolve, "self_s"), get(evolve, "samples"))
    m["dynamics.core.segments_propagated"] = get(final, "segments")
    m["dynamics.core.final_state_ms"] = get(final, "self_s") * 1e3
    m["dynamics.core.final_state_us_per_segment"] = per(get(final, "self_s"),
                                                        get(final, "segments"))
    m["dynamics.core.segments_rescaled"] = total(rescalers, "segments")
    m["dynamics.core.rescale_ms"] = total(rescalers, "self_s") * 1e3
    m["dynamics.core.max_norm_error"] = get(evolve, "max_norm_error")

    ref = "dynamics.reference.full_space_reference"
    m["dynamics.reference.calls"] = get(ref)
    m["dynamics.reference.samples"] = get(ref, "samples")
    m["dynamics.reference.ms"] = get(ref, "self_s") * 1e3
    m["dynamics.reference.us_per_sample"] = per(get(ref, "self_s"), get(ref, "samples"))
    m["dynamics.reference.amplitudes_touched"] = get(ref, "amplitudes")

    for layer in ("bounds", "keylength", "bht"):
        names = [n for n in totals if layer_of(n) == layer]
        calls = total(names, "calls")
        self_s = total(names, "self_s")
        m[f"{layer}.calls"] = calls
        m[f"{layer}.ms"] = self_s * 1e3
        m[f"{layer}.us_per_call"] = per(self_s, calls)
        m[f"{layer}.failed"] = total(names, "failed")
    m["bht.sweep_points"] = get("bht.bht_sweep_minimum", "points")
    return m
