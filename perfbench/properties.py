"""Measure the input properties of each workload and write PROPERTIES.json.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/properties.py --seed 0 > perfbench/PROPERTIES.json

For each workload, over the fixed blocks of a traced run, it reports the
samples (trace rows) per request, the share of ``schedule_infidelity``
evaluations that stretch a base schedule shared with other evaluations
(inside one ``runtime_to_infidelity`` scan), and the share of propagated
segments that repeat a periodic two-segment block (grover pulse pairs).
These are the properties later optimisations depend on: batching shared
schedules, and closed-form powers of a repeated block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import qlimits.cli as cli
import qlimits.dynamics.core as core
import qlimits.dynamics.schedules as schedules

import tracer
from catalog import LAYER_EFFECTS, WHY
from run import source_lines
from worker import FIXED_BLOCKS
from workloads import WORKLOADS


def _periodic_repeats(schedule) -> int:
    """Segments equal to the one two places back: repeats of a pulse pair."""
    segs = schedule.segments
    return sum(1 for i in range(2, len(segs)) if segs[i] == segs[i - 2])


def _propagated(args, _kwargs, result) -> dict:
    schedule = args[1]
    out = {"segments": len(schedule.segments), "periodic": _periodic_repeats(schedule)}
    if hasattr(result, "points"):
        out["samples"] = len(result.points)
    return out


# Spans that look at what the propagation entry points are given.
PROBES = (
    (cli, "evolve", "propagate", _propagated),
    (core, "evolve", "propagate", _propagated),
    (core, "final_state", "propagate", _propagated),
    (schedules, "runtime_to_infidelity", "scan", None),
    (schedules, "schedule_infidelity", "infidelity", None),
)


def _share(part, whole):
    return part / whole if whole else None


def measure(name: str, seed: int, workdir: str) -> dict:
    wl = WORKLOADS[name](seed, workdir)
    requests = [r for b in range(FIXED_BLOCKS[name]) for r in wl.block(b)]
    trc = tracer.Tracer(PROBES)
    trc.install()
    try:
        failed = sum(wl.check(req, wl.execute(req))[1] for req in requests)
    finally:
        trc.restore()
    counts = trc.totals().get("propagate", {}).get("counts", {})
    evals = [s for s in trc.spans if s.name == "infidelity"]
    shared = sum(1 for s in evals if s.parent >= 0 and trc.spans[s.parent].name == "scan")
    out = {
        "why": WHY[name],
        "fixed_blocks": FIXED_BLOCKS[name],
        "requests": len(requests),
        "failed": failed,
        "samples_per_request": counts.get("samples", 0) / len(requests),
        "shared_base_eval_frac": _share(shared, len(evals)),
        "periodic_segment_frac": _share(counts.get("periodic", 0), counts.get("segments", 0)),
    }
    if name == "trace":
        out["json_frac"] = sum(r["format"] == "json" for r in requests) / len(requests)
        out["truncated_frac"] = sum(r["truncated"] for r in requests) / len(requests)
        total, above = wl.stats["rows"]
        out["rows_with_probability_above_one_frac"] = _share(above, total)
    if name == "solve":
        for key, (total, above) in wl.stats.items():
            out[f"{key}_above_one_frac"] = _share(above, total)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    os.makedirs(".perfbench_tmp", exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="properties-", dir=".perfbench_tmp") as tmp:
        workloads = {name: measure(name, args.seed, tmp) for name in WORKLOADS}
    doc = {
        "seed": args.seed,
        "workloads": workloads,
        "layer_effects": LAYER_EFFECTS,
        "src_lines": source_lines(),
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
