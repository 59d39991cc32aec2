"""The four benchmark workloads: request generation, execution and checks.

Every workload is a closed loop with one client.  Requests come in
*blocks*: a block holds a fixed mix of request kinds whose continuous
parameters are drawn from the seed by stratified sampling, so every block
covers the same ranges.  The timed loop always measures whole blocks, which
keeps the latency percentiles on the same request kinds from seed to seed.

A request's ``execute`` is the only part that is timed.  ``check`` then
verifies the output and returns ``(attempted, failed, digest_text)``.  The
contract checked is that a call either returns a documented value or raises
``QlimitsError``; anything else (a value out of range, another exception
type, a nonzero exit on valid argv) is a failed operation.

Calls under test look their functions up on the qlimits modules at call
time, so the tracer can wrap them; the checks use references bound here at
import, so they are never traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import qlimits.bht as bht
import qlimits.bounds as bounds
import qlimits.cli as cli
import qlimits.dynamics.core as core
import qlimits.dynamics.reference as reference
import qlimits.dynamics.schedules as schedules
import qlimits.keylength as keylength
from qlimits.bht import bht_work_closed_form as _bht_work_closed_form
from qlimits.bounds import BoundQuery
from qlimits.bounds import ballistic_deterministic_time as _ballistic_deterministic_time
from qlimits.bounds import ballistic_success as _ballistic_success
from qlimits.bounds import classical_work_requirement as _classical_requirement
from qlimits.bounds import quantum_work_requirement as _quantum_work_requirement
from qlimits.constants import HBAR
from qlimits.dynamics.core import ControlSchedule, EffectiveState, SearchSpace, Segment
from qlimits.dynamics.schedules import adiabatic_total_time as _adiabatic_total_time
from qlimits.dynamics.schedules import standard_grover_iterations
from qlimits.errors import QlimitsError
from qlimits.serialize import TRACE_CSV_HEADER

ORACLE_TOL = 1e-9            # C6/C7 agreement and trace norm drift
# evolve guarantees the norm only to 1e-9 (it raises beyond), so a
# probability may leave [0, 1] by up to (1 + 1e-9)^2 - 1 from rounding
PROB_SLACK = 2.0 * ORACLE_TOL
SWEEP_TOL = 0.05             # C13: closed-form work vs brute-force sweep
SNAP_TOL = 1e-9              # the solvers snap to integers within 1e-9
ROUND_TRIP_TOL = 1e-6        # solved value plugged back into its bound
SCAN_RANGE = (0.125, 16.0)   # runtime_to_infidelity's default scale range


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal strata of [0, 1), shuffled."""
    points = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(points)
    return points


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _request_rng(name: str, seed: int, block: int) -> random.Random:
    return random.Random(f"qlimits-perfbench/{name}/{seed}/{block}")


class _Unexpected:
    """An exception that is not a ``QlimitsError``: always a failure."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"unexpected({self.text})"


class Workload:
    """Base class: a seeded source of request blocks."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.stats = self.new_stats()

    def new_stats(self) -> dict:
        """Counters that ``check`` keeps besides attempted and failed."""
        return {}

    def block(self, index: int) -> list:
        return self.make_block(_request_rng(self.name, self.seed, index))

    def make_block(self, rng: random.Random) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run small fixed requests so lazy imports and caches are settled."""
        for req in self.warm_up_requests():
            self.check(req, self.execute(req))

    def warm_up_requests(self) -> list:
        raise NotImplementedError

    def execute(self, req):
        raise NotImplementedError

    def check(self, req, out) -> tuple[int, int, str]:
        raise NotImplementedError


# ---------------------------------------------------------------- trace

BALLISTIC_ROWS = tuple(round(1000 * 20 ** ((i + 0.5) / 8)) for i in range(8))
CUSTOM_SEGMENTS = tuple(round(64 * 16 ** ((i + 0.5) / 8)) for i in range(8))
_CSV_COLUMNS = TRACE_CSV_HEADER.split(",")


class TraceWorkload(Workload):
    """``simulate`` argv lists through ``qlimits.cli.main`` in-process.

    A block is 16 requests: ballistic at eight row counts from 1k to 20k,
    three grover (two at phase pi, one off pi), three adiabatic and two
    custom schedule files.  Four are JSON (csv:json = 3:1) and four are
    truncated with ``--time``.
    """

    name = "trace"

    def new_stats(self):
        # [trace rows checked, rows whose P_s or P_i exceeds 1 by rounding]
        return {"rows": [0, 0]}

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.schedule_files = self._write_schedule_files()

    def _write_schedule_files(self) -> list[tuple[str, float]]:
        rng = _request_rng(self.name, self.seed, -1)
        files = []
        for i, count in enumerate(CUSTOM_SEGMENTS):
            segs = [
                {
                    "duration_s": rng.uniform(0.1, 1.0),
                    "omega_i_radps": rng.uniform(0.0, 4.0),
                    "omega_s_radps": rng.uniform(0.0, 4.0),
                }
                for _ in range(count)
            ]
            path = os.path.join(self.workdir, f"schedule-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"segments": segs}, fh)
            total = math.fsum(s["duration_s"] for s in segs)
            files.append((path, total))
        return files

    @staticmethod
    def _request(protocol, n, args, fmt, truncate=None, **meta):
        argv = ["simulate", "--protocol", protocol, "--n", str(n), *args, "--format", fmt]
        if truncate is not None:
            argv += ["--time", f"{truncate!r}s"]
        return {"argv": argv, "protocol": protocol, "n": n, "format": fmt,
                "truncated": truncate is not None, **meta}

    def make_block(self, rng):
        reqs = []
        for i, rows in enumerate(BALLISTIC_ROWS):
            n = rng.randint(8, 64)
            work = HBAR * _loguniform(rng, 0.5, 2.0)
            t_final = _ballistic_deterministic_time(n, work)
            truncate = rng.uniform(0.3, 0.9) * t_final if i in (1, 5) else None
            fmt = "json" if i in (3, 7) else "csv"
            args = ["--work", repr(work), "--dt", f"{t_final / rows!r}s"]
            reqs.append(self._request("ballistic", n, args, fmt, truncate, work=work))
        for i, u in enumerate(_strata(rng, 3)):
            n = 8 + min(int(u * 9), 8)
            phase = math.pi if i < 2 else rng.uniform(0.5, 0.95) * math.pi
            args = ["--work", repr(HBAR * _loguniform(rng, 0.5, 2.0))]
            if i == 2:
                args += ["--pulse-phase", repr(phase)]
            reqs.append(self._request("grover", n, args, "json" if i == 2 else "csv",
                                      phase=phase))
        for i, u in enumerate(_strata(rng, 3)):
            n = 6 + min(int(u * 7), 6)
            work = HBAR * _loguniform(rng, 0.5, 2.0)
            truncate = None
            if i == 2:
                total = _adiabatic_total_time(SearchSpace(n), work, 0.1)
                truncate = rng.uniform(0.3, 0.9) * total
            reqs.append(self._request("adiabatic", n, ["--work", repr(work)],
                                      "json" if i == 0 else "csv", truncate))
        for i, index in enumerate((rng.randrange(4), 4 + rng.randrange(4))):
            path, total = self.schedule_files[index]
            truncate = rng.uniform(0.3, 0.9) * total if i == 1 else None
            reqs.append(self._request("custom", rng.randint(8, 32),
                                      ["--schedule-file", path], "csv", truncate))
        rng.shuffle(reqs)
        return reqs

    def warm_up_requests(self):
        work = repr(HBAR)
        path, _ = self.schedule_files[0]
        return [
            self._request("ballistic", 8, ["--work", work, "--dt", "0.01s"], "csv", work=HBAR),
            self._request("grover", 8, ["--work", work], "json", phase=math.pi),
            self._request("adiabatic", 6, ["--work", work], "csv"),
            self._request("custom", 8, ["--schedule-file", path], "json"),
        ]

    def execute(self, req):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(req["argv"])
        except Exception as exc:  # escaped main(): the contract is broken
            return None, f"{type(exc).__name__}: {exc}"
        return code, out.getvalue() if code == 0 else err.getvalue()

    def check(self, req, out):
        code, text = out
        digest = f"{code}\n{text}"
        if code != 0:
            return 1, 1, digest
        try:
            rows = self._rows(req, text)
            ok = bool(rows) and all(self._row_ok(r) for r in rows)
            self.stats["rows"][0] += len(rows)
            self.stats["rows"][1] += sum(1 for r in rows if r[1] > 1.0 or r[2] > 1.0)
            if ok and req["protocol"] == "ballistic":
                ok = all(
                    abs(r[1] - _ballistic_success(req["n"], req["work"], r[0])) <= ORACLE_TOL
                    for r in rows
                )
            if ok and req["protocol"] == "grover" and req["phase"] == math.pi:
                ok = rows[-1][1] >= 1.0 - 2.0 ** (2 - req["n"])
        except (ValueError, KeyError, IndexError, TypeError, QlimitsError):
            ok = False
        return 1, 0 if ok else 1, digest

    @staticmethod
    def _rows(req, text) -> list[tuple[float, float, float, float]]:
        """(t, P_s, P_i, norm_error) of every trace row."""
        if req["format"] == "csv":
            lines = text.splitlines()
            if lines[0] != TRACE_CSV_HEADER:
                raise ValueError("unexpected CSV header")
            out = []
            for line in lines[1:]:
                cells = line.split(",")
                if len(cells) != len(_CSV_COLUMNS):
                    raise ValueError("short CSV row")
                out.append((float(cells[0]), float(cells[3]), float(cells[4]), float(cells[8])))
            return out
        payload = json.loads(text)
        if payload["n"] != req["n"] or payload["protocol"] != req["protocol"]:
            raise ValueError("payload does not echo the request")
        return [(p["t_s"], p["P_s"], p["P_i"], p["norm_error"]) for p in payload["trace"]]

    @staticmethod
    def _row_ok(row) -> bool:
        t, p_s, p_i, norm_error = row
        return (
            math.isfinite(t)
            and -PROB_SLACK <= p_s <= 1.0 + PROB_SLACK
            and -PROB_SLACK <= p_i <= 1.0 + PROB_SLACK
            and 0.0 <= norm_error <= ORACLE_TOL
        )


# ----------------------------------------------------------------- scan


class ScanWorkload(Workload):
    """Segment-heavy library calls that take no samples.

    A block is ``runtime_to_infidelity`` once at each n in 6..11 (target
    eps^2) and the grover final success once at each n in 12..22.
    """

    name = "scan"

    def make_block(self, rng):
        reqs = []
        ns = list(range(6, 12))
        rng.shuffle(ns)
        for n, u in zip(ns, _strata(rng, len(ns))):
            eps = 0.05 + 0.15 * u
            reqs.append({"kind": "runtime", "n": n, "eps": eps,
                         "energy": _loguniform(rng, 0.5, 2.0)})
        for n in range(12, 23):
            reqs.append({"kind": "grover", "n": n, "energy": HBAR * _loguniform(rng, 0.5, 2.0)})
        rng.shuffle(reqs)
        return reqs

    def warm_up_requests(self):
        return [{"kind": "runtime", "n": 6, "eps": 0.1, "energy": 1.0, "grid_points": 5},
                {"kind": "grover", "n": 12, "energy": HBAR}]

    def execute(self, req):
        space = SearchSpace(req["n"])
        try:
            if req["kind"] == "runtime":
                extra = {"grid_points": req["grid_points"]} if "grid_points" in req else {}
                return schedules.runtime_to_infidelity(
                    space, req["energy"], req["eps"], req["eps"] ** 2, **extra)
            schedule = schedules.grover_pulsed_schedule(
                space, req["energy"], math.pi, standard_grover_iterations(space))
            return schedules.schedule_infidelity(space, schedule)
        except QlimitsError as exc:
            return exc
        except Exception as exc:
            return _Unexpected(exc)

    def check(self, req, out):
        digest = f"{req['kind']} {req['n']} {out!r}"
        if isinstance(out, QlimitsError):
            return 1, 0, digest
        if not isinstance(out, float) or not math.isfinite(out):
            return 1, 1, digest
        if req["kind"] == "runtime":
            base = _adiabatic_total_time(SearchSpace(req["n"]), req["energy"], req["eps"])
            lo, hi = (f * base for f in SCAN_RANGE)
            ok = lo * (1 - ORACLE_TOL) <= out <= hi * (1 + ORACLE_TOL)
        else:
            ok = -PROB_SLACK <= out <= 2.0 ** (2 - req["n"])  # C8 on 1 - P_s
        return 1, 0 if ok else 1, digest


# ---------------------------------------------------------------- solve

SOLVE_ROWS = 32


class SolveWorkload(Workload):
    """One request is one security-margin row for a generated adversary.

    W in [1, 1e70] J and t in [1, 1e22] s (log-uniform), T in {2.7, 300} K,
    P_s in [1e-12, 1] (log-uniform) and n in [16, 1024].  The row calls every
    key-length solver, ``bht_min_image_bits``, ``bht_optimal`` at n, and both
    bounds solved for each unknown, including the power form.
    """

    name = "solve"

    def make_block(self, rng):
        cols = [_strata(rng, SOLVE_ROWS) for _ in range(4)]
        temps = [2.7, 300.0] * (SOLVE_ROWS // 2)
        rng.shuffle(temps)
        return [
            {"work": 10.0 ** (70 * w), "time": 10.0 ** (22 * t),
             "psuccess": 10.0 ** (-12 * (1 - p)), "n": 16 + min(int(n * 1009), 1008),
             "temp": temp}
            for w, t, p, n, temp in zip(*cols, temps)
        ]

    def warm_up_requests(self):
        return [{"work": 1e16, "time": 1.6e8, "psuccess": 1e-2, "n": 128, "temp": 300.0}]

    @staticmethod
    def _calls(r):
        w, t, p, n, temp = r["work"], r["time"], r["psuccess"], r["n"], r["temp"]
        power = w / t
        q = BoundQuery
        return (
            ("kl.quantum", keylength.equivalent_quantum_keylength, (w, t, p)),
            ("kl.recoverable", keylength.max_recoverable_keylength, (w, t, p)),
            ("kl.deterministic", keylength.max_deterministic_keylength, (w, t)),
            ("kl.classical", keylength.classical_keylength, (w, t, temp, p)),
            ("bht.image_bits", bht.bht_min_image_bits, (w, t, temp, p)),
            ("bht.optimal", bht.bht_optimal, (n, t, temp, p)),
            ("q.work", bounds.quantum_bound, (q("work", n=n, time=t, success_probability=p),)),
            ("q.time", bounds.quantum_bound, (q("time", n=n, work=w, success_probability=p),)),
            ("q.time.power", bounds.quantum_bound,
             (q("time", n=n, power=power, success_probability=p),)),
            ("q.psuccess", bounds.quantum_bound, (q("psuccess", n=n, work=w, time=t),)),
            ("q.psuccess.power", bounds.quantum_bound,
             (q("psuccess", n=n, power=power, time=t),)),
            ("q.n", bounds.quantum_bound, (q("n", work=w, time=t, success_probability=p),)),
            ("c.work", bounds.classical_bound,
             (q("work", n=n, time=t, temperature=temp, success_probability=p),)),
            ("c.time", bounds.classical_bound,
             (q("time", n=n, work=w, temperature=temp, success_probability=p),)),
            ("c.time.power", bounds.classical_bound,
             (q("time", n=n, power=power, temperature=temp, success_probability=p),)),
            ("c.psuccess", bounds.classical_bound,
             (q("psuccess", n=n, work=w, time=t, temperature=temp),)),
            ("c.n", bounds.classical_bound,
             (q("n", work=w, time=t, temperature=temp, success_probability=p),)),
        )

    def execute(self, req):
        out = []
        for label, fn, args in self._calls(req):
            try:
                out.append((label, fn(*args)))
            except QlimitsError as exc:
                out.append((label, exc))
            except Exception as exc:
                out.append((label, _Unexpected(exc)))
        return out

    def new_stats(self):
        # [psuccess solves, how many of them returned a value above 1]
        return {"quantum_psuccess": [0, 0], "classical_psuccess": [0, 0]}

    def check(self, req, out):
        failed = 0
        lines = []
        for label, value in out:
            if isinstance(value, QlimitsError):
                lines.append(f"{label} {type(value).__name__}")
                continue
            ok = False
            if not isinstance(value, _Unexpected):
                try:
                    ok = _SOLVE_CHECKS[label](req, value)
                except (ArithmeticError, ValueError, QlimitsError):
                    ok = False
                if label.startswith(("q.psuccess", "c.psuccess")):
                    tally = self.stats[("quantum" if label[0] == "q" else "classical")
                                       + "_psuccess"]
                    tally[0] += 1
                    tally[1] += value.value > 1.0
            lines.append(f"{label} {_solve_text(value)}")
            failed += not ok
        return len(out), failed, "\n".join(lines)


def _solve_text(value) -> str:
    if hasattr(value, "as_dict"):
        d = value.as_dict()
        d.pop("inputs", None)
        return repr(sorted(d.items()))
    return repr(value)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _q_req(n: float, t: float, p: float) -> float:
    return _quantum_work_requirement(float(n), t, p)[0]


def _crossing(req_fn, n: int, budget: float) -> bool:
    """req(n) > budget >= req(n - 1), within the solvers' snapping tolerance."""
    return req_fn(n) * (1 + SNAP_TOL) > budget >= req_fn(n - 1) * (1 - SNAP_TOL)


def _check_secure(r, v):
    return _is_count(v) and v >= 1 and _crossing(
        lambda k: _q_req(k, r["time"], r["psuccess"]), v, r["work"])


def _check_recoverable(r, v):
    return _is_count(v) and _crossing(
        lambda k: _q_req(k, r["time"], r["psuccess"]), v + 1, r["work"])


def _check_deterministic(r, v):
    if not _is_count(v):
        return False
    t_of = lambda k: _ballistic_deterministic_time(k, r["work"])  # noqa: E731
    fits = v == 0 or t_of(v) <= r["time"] * (1 + SNAP_TOL)
    return fits and t_of(v + 1) * (1 + SNAP_TOL) > r["time"]


def _check_classical(r, v):
    def req_fn(k):
        return _classical_requirement(k, r["time"], r["temp"], r["psuccess"])
    if not _is_count(v):
        return False
    if v == 0:
        return req_fn(1) >= r["work"]
    return v >= 2 and _crossing(req_fn, v, r["work"])


def _check_image_bits(r, v):
    def req_fn(k):
        return _bht_work_closed_form(k, r["time"], r["temp"], r["psuccess"])
    if not (_is_count(v) and v >= 1):
        return False
    return req_fn(1) > r["work"] if v == 1 else _crossing(req_fn, v, r["work"])


def _check_plan(r, plan):
    return (
        plan.image_bits == int(r["n"])
        and plan.samples >= 1.0
        and (plan.samples_rounded >= 1 or plan.samples_rounded == -1)
        and 0.0 <= plan.quantum_time <= r["time"] * (1 + SNAP_TOL)
        and plan.work > 0.0
        and not math.isnan(plan.log2_work)
    )


def _check_q_work(r, res):
    expected, offset = _quantum_work_requirement(float(r["n"]), r["time"], r["psuccess"])
    return res.value == expected and res.offset_regime == offset and res.unit == "J"


def _check_q_time(r, res, budget_at):
    if res.offset_regime:
        return res.value == 0.0
    t = res.value
    return t > 0.0 and _rel_close(_q_req(r["n"], t, r["psuccess"]), budget_at(t), ORACLE_TOL)


def _check_q_psuccess(r, res):
    """A probability in [0, 1]; values above 1 are the known unsaturated
    defect, counted separately, and must then mean the budget covers P_s = 1."""
    p = res.value
    if not (math.isfinite(p) and p >= 0.0):
        return False
    if p > 1.0:
        return _q_req(r["n"], r["time"], 1.0) <= r["work"] * (1 + ORACLE_TOL)
    return _rel_close(_q_req(r["n"], r["time"], p), r["work"], ROUND_TRIP_TOL)


def _check_q_n(r, res):
    n = res.value
    return n > 0.0 and _rel_close(_q_req(n, r["time"], r["psuccess"]), r["work"], ROUND_TRIP_TOL)


def _check_c_work(r, res):
    v = res.value
    return v > 0.0 and v == _classical_requirement(r["n"], r["time"], r["temp"], r["psuccess"])


def _check_c_time(r, res, budget_at):
    t = res.value
    return t > 0.0 and _rel_close(
        _classical_requirement(r["n"], t, r["temp"], r["psuccess"]), budget_at(t), ROUND_TRIP_TOL)


def _check_c_psuccess(r, res):
    p = res.value
    if not (math.isfinite(p) and p > 0.0):
        return False
    if p > 1.0:
        return _classical_requirement(r["n"], r["time"], r["temp"], 1.0) <= r["work"] * (
            1 + ORACLE_TOL)
    return _rel_close(_classical_requirement(r["n"], r["time"], r["temp"], p), r["work"], ROUND_TRIP_TOL)


def _check_c_n(r, res):
    n = res.value
    return n > 0.0 and _rel_close(
        _classical_requirement(n, r["time"], r["temp"], r["psuccess"]), r["work"], ROUND_TRIP_TOL)


_SOLVE_CHECKS = {
    "kl.quantum": _check_secure,
    "kl.recoverable": _check_recoverable,
    "kl.deterministic": _check_deterministic,
    "kl.classical": _check_classical,
    "bht.image_bits": _check_image_bits,
    "bht.optimal": _check_plan,
    "q.work": _check_q_work,
    "q.time": lambda r, res: _check_q_time(r, res, lambda t: r["work"]),
    "q.time.power": lambda r, res: _check_q_time(r, res, lambda t: r["work"] / r["time"] * t),
    "q.psuccess": _check_q_psuccess,
    "q.psuccess.power": _check_q_psuccess,
    "q.n": _check_q_n,
    "c.work": _check_c_work,
    "c.time": lambda r, res: _check_c_time(r, res, lambda t: r["work"]),
    "c.time.power": lambda r, res: _check_c_time(r, res, lambda t: r["work"] / r["time"] * t),
    "c.psuccess": _check_c_psuccess,
    "c.n": _check_c_n,
}


# --------------------------------------------------------------- oracle


class OracleWorkload(Workload):
    """Validation requests: the C7 reduction oracle and the C13 sweep.

    A block is one random 5-20-segment schedule at each n in 8..13 and two
    at n = 14, run through ``evolve`` and ``full_space_reference`` at 10-50
    samples, plus four ``bht_sweep_minimum`` calls (3000 points) at n in
    20..48 under the C13 conditions (P_s = 1), compared with ``bht_optimal``.
    """

    name = "oracle"

    def make_block(self, rng):
        reqs = []
        # n = 14 twice: its requests cost 3-4 times those at n = 13, and two
        # of twelve put the 90th percentile inside them, not at their edge
        for n in (*range(8, 15), 14):
            count = rng.randint(5, 20)
            segs = [(rng.uniform(0.1, 1.0), rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
                    for _ in range(count)]
            reqs.append({"kind": "reference", "n": n, "segments": segs,
                         "samples": rng.randint(10, 50),
                         "solution": rng.randrange(2 ** n)})
        for u in _strata(rng, 4):
            reqs.append({"kind": "sweep", "n": 20 + min(int(u * 29), 28),
                         "time": _loguniform(rng, 1e-3, 1e3),
                         "temp": rng.choice((2.7, 300.0))})
        rng.shuffle(reqs)
        return reqs

    def warm_up_requests(self):
        return [{"kind": "reference", "n": 8, "segments": [(0.5, 1.0, 2.0)] * 5,
                 "samples": 10, "solution": 3},
                {"kind": "sweep", "n": 20, "time": 1.0, "temp": 300.0}]

    def execute(self, req):
        try:
            space = SearchSpace(req["n"])
            if req["kind"] == "reference":
                schedule = ControlSchedule(tuple(Segment(*s) for s in req["segments"]))
                dt = schedule.total_duration / req["samples"]
                reduced = core.evolve(EffectiveState.initial(space), schedule, dt)
                full = reference.full_space_reference(space, schedule, dt, req["solution"])
                return reduced, full
            plan = bht.bht_optimal(req["n"], req["time"], req["temp"], 1.0)
            sweep = bht.bht_sweep_minimum(req["n"], req["time"], req["temp"], 1.0, points=3000)
            return plan, sweep
        except QlimitsError as exc:
            return exc
        except Exception as exc:
            return _Unexpected(exc)

    def check(self, req, out):
        if isinstance(out, QlimitsError):
            return 1, 0, f"{req['kind']} {type(out).__name__}"
        if isinstance(out, _Unexpected):
            return 1, 1, repr(out)
        if req["kind"] == "reference":
            reduced, full = out
            gap = _max_gap(reduced, full)
            digest = "reference " + ",".join(repr(p.obs.p_s) for p in reduced.points)
            return 1, 0 if gap <= ORACLE_TOL else 1, digest
        plan, (k_min, w_min) = out
        ok = math.isfinite(w_min) and abs(plan.work - w_min) <= SWEEP_TOL * w_min
        return 1, 0 if ok else 1, f"sweep {plan.work!r} {k_min!r} {w_min!r}"


def _max_gap(a, b) -> float:
    if len(a.points) != len(b.points):
        return math.inf
    gap = 0.0
    for p, q in zip(a.points, b.points):
        gap = max(gap, abs(p.obs.p_s - q.obs.p_s), abs(p.obs.p_i - q.obs.p_i),
                  abs(p.obs.a.real - q.obs.a.real), abs(p.obs.a.imag - q.obs.a.imag))
    return gap


WORKLOADS = {w.name: w for w in (TraceWorkload, ScanWorkload, SolveWorkload, OracleWorkload)}
