"""qlimits benchmark: four seeded closed-loop workloads, checked outputs.

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed)::

    python3 perfbench/run.py --workload trace --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``trace`` (``simulate`` through the CLI),
``scan`` (segment-heavy library scans), ``solve`` (one security-margin row
per request) and ``oracle`` (full-space and sweep validation).

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up is
timed in seven fresh interpreters and reported as their median; the last of
them then runs the closed loop.  Latency and throughput are reported in
``ref``, the mean duration of a fixed reference slice timed between the
requests (``hostspeed.py``), which cancels the drift of a shared host's
speed; the
same figures in milliseconds and requests per second are printed above the
result line.  ``--trace 1`` runs a fixed request list
once untraced and once traced, and reports the per-layer metrics.

Every output is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it give the same metrics by name with units, ``failed_frac``, the
environment and a SHA-256 over the outputs of the fixed blocks, which is
the same in both modes and between commits with byte-identical output.
Results and spans are also written under ``.perfbench_out/``.

The exit code is 0 when every check passed, 1 when one failed, and 2 when
the benchmark cannot run here (no ``src/qlimits`` under the working
directory, or a worker that crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from catalog import END_TO_END, LAYER_FILES, PER_LAYER, WALL_CLOCK

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 7
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    """The benchmark cannot produce a result here."""


def _worker(args, mode: str, extra: list[str] = (), timeout: float = SETUP_TIMEOUT_S) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           *extra, "--started", repr(time.time())]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as exc:  # a timeout, or a signal that ends this run
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} worker exceeded {timeout} s") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(result["qlimits"]).startswith(src):
        raise BenchError(f"qlimits was imported from {result['qlimits']}, not {src}")
    return result


def _source_files() -> list[str]:
    root = os.path.join("src", "qlimits")
    return sorted(
        os.path.join(d, f) for d, _, files in os.walk(root) for f in files if f.endswith(".py")
    )


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def environment() -> dict:
    sha = hashlib.sha256()
    for path in _source_files():
        with open(path, "rb") as fh:
            sha.update(path.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath("."):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": sha.hexdigest(),
    }


def source_lines() -> dict[str, int]:
    root = os.path.join("src", "qlimits")
    out = {"src.lines": sum(_line_count(p) for p in _source_files())}
    for layer, rel in LAYER_FILES.items():
        out[f"{layer}.src_lines"] = _line_count(os.path.join(root, rel))
    return out


def _share(tally) -> float:
    total, hits = tally
    return hits / total if total else 0.0


def end_to_end(args) -> tuple[dict, dict]:
    setups = [_worker(args, "setup")["setup_s"] for _ in range(SETUPS - 1)]
    run = _worker(args, "run", timeout=args.seconds + WORKER_TIMEOUT_S)
    setups.append(run["setup_s"])
    values = {name: run[name] for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(setups)
    run["setup_runs_s"] = setups
    return values, run


def per_layer(args) -> tuple[dict, dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    run = _worker(args, "trace", ["--spans", spans], timeout=WORKER_TIMEOUT_S)
    values = dict(run["layers"])
    stats = run["stats"]
    values["bounds.quantum_psuccess_above_one_frac"] = _share(
        stats.get("quantum_psuccess", (0, 0)))
    values["bounds.classical_psuccess_above_one_frac"] = _share(
        stats.get("classical_psuccess", (0, 0)))
    values["tracing.overhead_frac"] = run["overhead_frac"]
    values.update(source_lines())
    return values, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("trace", "scan", "solve", "oracle"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25,
                        help="length of the timed loop (whole blocks, at least 100 requests)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end by an exception on SIGTERM, so the running worker is killed too
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "qlimits", "__init__.py")):
        print("perfbench: run from the root of a qlimits checkout (no src/qlimits here)",
              file=sys.stderr)
        return 2
    env = environment()
    try:
        values, run = per_layer(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    catalog = PER_LAYER if args.trace else END_TO_END
    missing = set(catalog) - set(values)
    if missing:
        print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 2

    attempted, failed = run["attempted"], run["failed"]
    correct = attempted >= 1 and failed == 0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in catalog.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "digest_sha256": run["digest"],
              "details": {k: v for k, v in run.items() if k != "layers"}}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: closed loop, one client, "
          f"{run['requests']} requests" + (f" in {run['blocks']} blocks" if "blocks" in run
                                          else " (fixed list)"))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    if not args.trace:
        for name, unit in WALL_CLOCK.items():
            print(f"{name} {run[name]!r} {unit}")
        print(f"ref {run['ref_ms']!r} ms (mean of {run['ref_slices']} reference slices)")
    print(f"failed_frac {failed / max(attempted, 1)!r} frac ({failed} of {attempted} operations)")
    for key, (total, hits) in run["stats"].items():
        print(f"share of {key} above one {_share((total, hits))!r} ({hits} of {total})")
    print(f"output sha256 {run['digest']} (fixed blocks)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
