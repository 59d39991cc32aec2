"""Tests of the benchmark itself, kept out of the repository's tier-1 suite.

Run from the repository root (about a minute)::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import catalog  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("calls", "samples", "rows", "bytes", "segments_built", "infidelity_evals",
          "segments_propagated", "segments_rescaled", "parse_segments",
          "amplitudes_touched", "sweep_points", "failed")


def _workload(name, seed, path):
    os.makedirs(path)
    return WORKLOADS[name](seed, str(path))


def _requests(wl, block):
    return json.dumps(wl.block(block)).replace(wl.workdir, "<workdir>")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fixed_seed_gives_same_requests(name, tmp_path):
    a = _workload(name, 7, tmp_path / "a")
    b = _workload(name, 7, tmp_path / "b")
    other = _workload(name, 8, tmp_path / "c")
    assert _requests(a, 0) == _requests(b, 0)
    assert _requests(a, 1) == _requests(b, 1)
    assert _requests(a, 1) != _requests(other, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_checks_every_output(name, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "MIN_REQUESTS", 1)
    monkeypatch.setitem(worker.FIXED_BLOCKS, name, 1)
    wl = _workload(name, 2, tmp_path / "w")
    wl.warm_up()
    result = worker.timed_run(wl, seconds=0.0)
    assert result["blocks"] == 1
    assert result["attempted"] >= result["requests"] >= 1
    assert result["failed"] == 0
    for metric in (set(catalog.END_TO_END) | set(catalog.WALL_CLOCK)) - {"setup_s"}:
        assert result[metric] > 0
    assert result["ref_slices"] >= 1


def test_host_speed_takes_a_slice_per_interval_of_request_time():
    speed = hostspeed.HostSpeed(interval_s=0.05)
    assert len(speed.samples) == 1
    speed.after_request(0.03)
    speed.before_request()
    assert len(speed.samples) == 1  # under the interval: no slice yet
    speed.after_request(0.03)
    speed.before_request()
    assert len(speed.samples) == 2 and speed.since == 0.0
    assert speed.ref_s() == sum(speed.samples) / 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_and_digest_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.setitem(worker.FIXED_BLOCKS, name, 1)
    runs = [worker.traced_run(_workload(name, 5, tmp_path / sub), None) for sub in "ab"]
    assert runs[0]["failed"] == 0
    assert runs[0]["digest"] == runs[1]["digest"]
    counts = [{k: v for k, v in r["layers"].items() if k.endswith(COUNTS)} for r in runs]
    assert counts[0] == counts[1]
    assert set(runs[0]["layers"]) == set(catalog.TRACED_LAYER_METRICS)


def test_tracer_restores_every_original():
    before = [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES]
    trc = tracer.Tracer()
    trc.install()
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES] != before
    trc.restore()
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES] == before


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == catalog.WHY
    assert set(catalog.WHY) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == catalog.PER_LAYER


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_command_prints_metrics_then_one_json_line():
    proc = _bench("--workload", "solve", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == catalog.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in {**catalog.END_TO_END, **catalog.WALL_CLOCK}.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_frac 0.0 frac") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    proc = _bench("--workload", "solve", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
