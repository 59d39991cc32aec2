"""One benchmark process: set up a workload, then time it or trace it.

``run.py`` starts this file in a fresh interpreter with ``src`` on the
path.  Set-up is the interpreter start, the import of qlimits, the
workload's generation and files, and a warm-up; it is timed from the
moment the parent started the process (``--started``).  Then, by ``--mode``:

* ``setup``: exit;
* ``run``: the closed loop over whole blocks until ``--seconds`` have
  passed and at least 100 requests are done;
* ``trace``: a fixed list of blocks, once untraced and once traced.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import hostspeed
import qlimits
import tracer
from workloads import WORKLOADS

MIN_REQUESTS = 100
# Blocks in the fixed request list of a traced run.  The output digest
# covers the same blocks in both modes, so the two can be compared.
FIXED_BLOCKS = {"trace": 2, "scan": 1, "solve": 16, "oracle": 10}


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method, as ``statistics.quantiles``)."""
    return statistics.quantiles(values, n=100)[q - 1]


def timed_run(wl, seconds: float) -> dict:
    """Closed loop, one client: the next request goes when the last returns.

    Only ``execute`` is on the clock; checks run between requests.  The
    latency percentiles are taken within each block and averaged over the
    blocks.  The ``ref`` metrics divide them by the mean duration of a
    reference slice timed between the requests (``hostspeed``), which takes
    the drift of a shared host's speed out of them.  The wall-clock metrics
    and the percentiles pooled over the whole run are reported next to them.
    """
    latencies: list[float] = []
    per_block: list[list[float]] = []
    speed = hostspeed.HostSpeed()
    attempted = failed = 0
    digest = hashlib.sha256()
    fixed = FIXED_BLOCKS[wl.name]
    clock = time.perf_counter
    deadline = clock() + seconds
    block = 0
    while block < fixed or len(latencies) < MIN_REQUESTS or clock() < deadline:
        per_block.append([])
        for req in wl.block(block):
            speed.before_request()
            start = clock()
            out = wl.execute(req)
            elapsed = clock() - start
            per_block[-1].append(elapsed)
            speed.after_request(elapsed)
            latencies.append(elapsed)
            a, f, text = wl.check(req, out)
            attempted += a
            failed += f
            if block < fixed:
                digest.update(text.encode() + b"\0")
        block += 1
    busy = sum(latencies)
    ref = speed.ref_s()
    p50 = statistics.fmean(map(statistics.median, per_block))
    p90 = statistics.fmean(_percentile(b, 90) for b in per_block)
    return {
        "requests": len(latencies),
        "blocks": block,
        "busy_s": busy,
        "latency_p50_ref": p50 / ref,
        "latency_p90_ref": p90 / ref,
        "throughput_per_ref": len(latencies) / (busy / ref),
        "ref_slices": len(speed.samples),
        "ref_ms": ref * 1e3,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "pooled_p50_ms": statistics.median(latencies) * 1e3,
        "pooled_p90_ms": _percentile(latencies, 90) * 1e3,
        "throughput_rps": len(latencies) / busy,
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": wl.stats,
    }


def traced_run(wl, spans_path: str | None) -> dict:
    """The fixed request list, each request once untraced and once traced.

    Each request first runs once unmeasured (a process's first large
    allocations cost page faults that later ones do not), then the two
    measured runs alternate in order, so neither side of ``overhead_frac``
    is favoured.  Only the traced runs are counted and checked; their
    outputs must match the untraced ones byte for byte.
    """
    requests = [r for b in range(FIXED_BLOCKS[wl.name]) for r in wl.block(b)]
    trc = tracer.Tracer()
    clock = time.perf_counter
    plain_s = traced_s = 0.0
    attempted = failed = 0
    digest = hashlib.sha256()
    for i, req in enumerate(requests):
        trc.request = i
        wl.execute(req)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                trc.install()
            try:
                start = clock()
                out = wl.execute(req)
                elapsed = clock() - start
            finally:
                trc.restore()
            if traced:
                traced_s += elapsed
                traced_out = out
            else:
                plain_s += elapsed
                plain_out = out
        a, f, text = wl.check(req, traced_out)
        stats = wl.stats
        wl.stats = wl.new_stats()  # count the plain run's check nowhere
        # tracing must not change a single output byte
        f += wl.check(req, plain_out)[2] != text
        wl.stats = stats
        attempted += a
        failed += f
        digest.update(text.encode() + b"\0")
    if spans_path:
        trc.write(spans_path)
    return {
        "requests": len(requests),
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "overhead_frac": traced_s / plain_s - 1.0,
        "layers": tracer.layer_metrics(trc.totals()),
        "stats": wl.stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", metavar="PATH", help="write the traced run's spans here")
    parser.add_argument("--started", type=float, default=time.time(),
                        help="time.time() when the parent started this process")
    args = parser.parse_args(argv)

    scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        wl.stats = wl.new_stats()
        setup = {"setup_s": time.time() - args.started, "qlimits": qlimits.__file__}
        result = setup
        if args.mode == "run":
            result = {**setup, **timed_run(wl, args.seconds)}
        elif args.mode == "trace":
            result = {**setup, **traced_run(wl, args.spans)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
