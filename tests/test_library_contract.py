"""Every library call ends in one of three ways (README "Command line"):

* a finite result in its documented range: probabilities in [0, 1], key
  lengths integers >= 0, works, times and energies finite and >= 0;
* a :class:`QlimitsError`;
* a documented flagged value: ``classical_work_requirement``,
  ``quantum_work_requirement`` and ``bht_work_closed_form`` return +inf
  where the requirement lies past double range.

Arguments come from the edge values the CLI fuzzer uses (``edge_values.py``)
and values that are not real numbers, mixed with in-domain draws.  Spaces keep n <= 8 and the sweep 64 points, so
every call is cheap.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edge_values import EDGE_FLOATS, NON_REALS
from qlimits.bht import (
    BhtPlan,
    bht_fixed_samples,
    bht_min_image_bits,
    bht_optimal,
    bht_sweep_minimum,
    bht_work,
    bht_work_closed_form,
    optimal_quantum_time,
)
from qlimits.bounds import (
    BoundQuery,
    BoundResult,
    ballistic_deterministic_time,
    ballistic_success,
    battery_relative_uncertainty,
    classical_bound,
    classical_work_requirement,
    gate_bound,
    init_readout_work,
    landauer_energy,
    margolus_levitin_energy,
    optimal_k,
    prefactor_b,
    quantum_bound,
    quantum_log2_ratio,
    quantum_work_requirement,
    work_floor,
)
from qlimits.dynamics import (
    ControlSchedule,
    EffectiveState,
    SearchSpace,
    Segment,
    adiabatic_gap,
    adiabatic_schedule,
    adiabatic_total_time,
    averaged_overlap,
    ballistic_frequency,
    ballistic_schedule,
    control_bandwidth,
    eigenenergies,
    equator_state,
    evolve,
    first_peak_iterations,
    grover_pulsed_schedule,
    measure_modulated_suppression,
    modulated_detuning_suppression,
    propagate,
    runtime_to_infidelity,
)
from qlimits.constants import HBAR
from qlimits.errors import CapacityError, DomainError, QlimitsError
from qlimits.keylength import (
    CosmologyParams,
    KeylengthReport,
    build_report,
    classical_keylength,
    cosmic_energy,
    equivalent_quantum_keylength,
    max_deterministic_keylength,
    max_recoverable_keylength,
    quantum_requirement_sandwich,
    solar_budget,
)
from qlimits.scenarios import Scenario, scenario

EDGE = st.sampled_from(EDGE_FLOATS + NON_REALS)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# in-domain draws by argument kind; each kind is mixed with the edge values
KINDS = {
    "n": st.floats(0.5, 1100.0),
    "bits": st.integers(-1, 9),            # a SearchSpace size
    "count": st.integers(-1, 20),
    "work": _log_uniform(-40.0, 80.0),
    "time": _log_uniform(-40.0, 40.0),
    "temp": st.sampled_from((0.0, 2.7, 300.0)) | st.floats(0.0, 1e4),
    "p": _log_uniform(-30.0, 0.0),
    "k": _log_uniform(0.0, 12.0),
    "unit": st.floats(0.0, 1.0),
    "freq": _log_uniform(-3.0, 3.0),
    "phase": st.floats(0.0, 7.0),
    "name": st.sampled_from(("datacenter", "dyson", "cosmic", "moonbase")),
    # a trace's duration and sample step: with the edge values a trace that
    # passes the capacity check holds at most some 3e4 samples
    "span": st.sampled_from((0.5, 1.0, 2.0)),
    "step": st.sampled_from((0.01, 0.1, 1.0)),
    # schedule rows, columns given as lists, and scale factors
    "rows": st.lists(st.tuples(_log_uniform(-3.0, 3.0), _log_uniform(-3.0, 3.0),
                               _log_uniform(-3.0, 3.0)), min_size=1, max_size=3),
    "columns": st.tuples(_log_uniform(-3.0, 3.0), _log_uniform(-3.0, 3.0),
                         _log_uniform(-3.0, 3.0)).map(lambda row: tuple([v] for v in row)),
    "factors": st.lists(_log_uniform(-3.0, 3.0), min_size=1, max_size=4),
}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _nonneg(x) -> bool:
    return _finite(x) and x >= 0.0


def _flagged_or_nonneg(x) -> bool:
    return x == math.inf or _nonneg(x)


def _prob(x) -> bool:
    return _finite(x) and 0.0 <= x <= 1.0


def _key_bits(x) -> bool:
    return type(x) is int and x >= 0


def _bound(result: BoundResult) -> bool:
    value = result.value
    return _nonneg(value) and (result.unit != "probability" or value <= 1.0)


def _plan(plan: BhtPlan) -> bool:
    return (all(_finite(v) for v in (plan.work, plan.log2_work, plan.closed_form_work,
                                      plan.log2_closed_form_work, plan.samples, plan.log2_samples))
            and plan.samples >= 1.0 and 0.0 <= plan.quantum_time <= plan.total_time
            and (plan.samples_rounded >= 1 or plan.samples_rounded == -1))


def _schedule(schedule: ControlSchedule) -> bool:
    return _nonneg(schedule.total_duration) and all(_nonneg(v) for c in schedule.arrays()
                                                     for v in c.tolist())


def _complex(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _amplitudes(pair) -> bool:
    return all(map(_complex, np.concatenate(pair).tolist()))


def _trace(trace) -> bool:
    return (np.isfinite(np.column_stack(trace.columns())).all()
            and ((trace.prob_s >= 0.0) & (trace.prob_s <= 1.0)).all())


def _state(state: EffectiveState) -> bool:
    return _complex(state.c1) and _complex(state.c2)


def _report(rows: list[KeylengthReport]) -> bool:
    # a row keeps a solver failure as text; it must be a QlimitsError's
    names = {cls.__name__ for cls in _subclasses(QlimitsError)}
    return all(row.error.split(":")[0] in names if row.error is not None
               else _key_bits(row.quantum_secure_bits) and _key_bits(row.solved_classical_bits)
               for row in rows)


def _or_drawn(arithmetic, drawn):
    """The test's own arithmetic on drawn values, or, where a value is not a
    number it can take, ``drawn`` as it is, for the call to refuse."""
    try:
        return arithmetic()
    except TypeError:
        return drawn


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


# name: (call, argument kinds, check of the result)
CALLS = {
    # bounds
    "landauer_energy": (landauer_energy, ("temp",), _nonneg),
    "margolus_levitin_energy": (margolus_levitin_energy, ("time",), _nonneg),
    "classical_work_requirement": (classical_work_requirement, ("n", "time", "temp", "p"),
                                   _flagged_or_nonneg),
    "quantum_work_requirement": (
        quantum_work_requirement, ("n", "time", "p"),
        lambda r: _flagged_or_nonneg(r[0]) and isinstance(r[1], bool)),
    "quantum_log2_ratio": (quantum_log2_ratio, ("work", "time", "p"), _nonneg),
    "gate_bound": (gate_bound, ("n", "p", "time", "count", "temp"), _nonneg),
    "ballistic_deterministic_time": (ballistic_deterministic_time, ("n", "work"), _nonneg),
    "ballistic_success": (ballistic_success, ("n", "work", "time"), _prob),
    "prefactor_b": (prefactor_b, ("unit", "n"), _nonneg),
    "optimal_k": (optimal_k, ("n",), _nonneg),
    "work_floor": (lambda w, m: work_floor([w, 1.0], [0.5 ** 0.5, 0.5 ** 0.5], m),
                   ("freq", "count"), _nonneg),
    "init_readout_work": (init_readout_work, ("n", "temp"), _nonneg),
    "battery_relative_uncertainty": (battery_relative_uncertainty, ("count", "temp", "work"),
                                     _nonneg),
    "BoundQuery": (lambda power, t: BoundQuery("n", power=power, time=t).budget(),
                   ("work", "time"), _nonneg),
    "classical_bound work": (
        lambda n, t, temp, p: classical_bound(
            BoundQuery("work", n=n, time=t, temperature=temp, success_probability=p)),
        ("n", "time", "temp", "p"), _bound),
    "classical_bound psuccess": (
        lambda n, w, t, temp: classical_bound(
            BoundQuery("psuccess", n=n, work=w, time=t, temperature=temp)),
        ("n", "work", "time", "temp"), _bound),
    "classical_bound time": (
        lambda n, w, temp, p: classical_bound(
            BoundQuery("time", n=n, work=w, temperature=temp, success_probability=p)),
        ("n", "work", "temp", "p"), _bound),
    "classical_bound time power": (
        lambda n, w, temp, p: classical_bound(
            BoundQuery("time", n=n, power=w, temperature=temp, success_probability=p)),
        ("n", "work", "temp", "p"), _bound),
    "classical_bound n": (
        lambda w, t, temp, p: classical_bound(
            BoundQuery("n", work=w, time=t, temperature=temp, success_probability=p)),
        ("work", "time", "temp", "p"), _bound),
    "quantum_bound work": (
        lambda n, t, p: quantum_bound(BoundQuery("work", n=n, time=t, success_probability=p)),
        ("n", "time", "p"), _bound),
    "quantum_bound time": (
        lambda n, w, p: quantum_bound(BoundQuery("time", n=n, work=w, success_probability=p)),
        ("n", "work", "p"), _bound),
    "quantum_bound time power": (
        lambda n, w, p: quantum_bound(BoundQuery("time", n=n, power=w, success_probability=p)),
        ("n", "work", "p"), _bound),
    "quantum_bound psuccess": (
        lambda n, w, t: quantum_bound(BoundQuery("psuccess", n=n, work=w, time=t)),
        ("n", "work", "time"), _bound),
    "quantum_bound n": (
        lambda w, t, p: quantum_bound(BoundQuery("n", work=w, time=t, success_probability=p)),
        ("work", "time", "p"), _bound),
    # bht
    "bht_work": (bht_work, ("n", "k", "time", "temp", "p"), _nonneg),
    "optimal_quantum_time": (optimal_quantum_time, ("n", "k", "time", "p"), _nonneg),
    "bht_fixed_samples": (
        bht_fixed_samples, ("n", "k", "time", "temp", "p"),
        lambda d: all(_finite(v) for v in d.values() if not isinstance(v, str))),
    "bht_optimal": (bht_optimal, ("n", "time", "temp", "p"), _plan),
    "bht_work_closed_form": (bht_work_closed_form, ("n", "time", "temp", "p"),
                             _flagged_or_nonneg),
    "bht_min_image_bits": (bht_min_image_bits, ("work", "time", "temp", "p"),
                           lambda b: _key_bits(b) and b >= 1),
    "bht_sweep_minimum": (lambda n, t, temp, p: bht_sweep_minimum(n, t, temp, p, points=64),
                          ("unit", "time", "temp", "p"),
                          lambda r: _finite(r[0]) and r[0] >= 1.0 and _nonneg(r[1])),
    # keylength
    "CosmologyParams": (lambda h0, ol, rho: cosmic_energy(
        CosmologyParams.from_km_s_mpc(h0, ol, rho), "fromOmega" if rho is None
        else "fromDensity"), ("freq", "unit", "work"), _nonneg),
    "equivalent_quantum_keylength": (equivalent_quantum_keylength, ("work", "time", "p"),
                                     _key_bits),
    "max_recoverable_keylength": (max_recoverable_keylength, ("work", "time", "p"), _key_bits),
    "max_deterministic_keylength": (max_deterministic_keylength, ("work", "time"), _key_bits),
    "classical_keylength": (classical_keylength, ("work", "time", "temp", "p"), _key_bits),
    "solar_budget": (solar_budget, ("time",), _nonneg),
    # scenarios, and the key-length rows built from one
    "Scenario": (lambda w, t, temp, p: build_report([Scenario("s", w, t, temp, p)]),
                 ("work", "time", "temp", "p"), _report),
    "quantum_requirement_sandwich": (
        lambda w, t, temp, p: quantum_requirement_sandwich(Scenario("s", w, t, temp, p)),
        ("work", "time", "temp", "p"), lambda r: all(map(_flagged_or_nonneg, r))),
    "scenario": (scenario, ("name",), lambda s: isinstance(s, Scenario)),
    # dynamics constructors
    "SearchSpace": (lambda n: SearchSpace(n).overlap, ("bits",), _prob),
    "EffectiveState": (lambda n, a, b: EffectiveState(a, b, SearchSpace(n)),
                       ("bits", "unit", "unit"), _state),
    "Segment": (lambda d, wi, ws: ControlSchedule([Segment(d, wi, ws)]),
                ("time", "freq", "freq"), _schedule),
    "ControlSchedule": (lambda d1, w1, d2, w2: ControlSchedule([(d1, w1, 0.0), (d2, 0.0, w2)]),
                        ("time", "freq", "time", "freq"), _schedule),
    "ControlSchedule rows": (ControlSchedule, ("rows",), _schedule),
    "ControlSchedule.scaled": (lambda d, f: ControlSchedule([(d, 1.0, 1.0)]).scaled(f),
                               ("time", "freq"), _schedule),
    "ControlSchedule.truncated": (lambda d, t: ControlSchedule([(d, 1.0, 1.0)]).truncated(t),
                                  ("time", "time"), _schedule),
    "ballistic_frequency": (lambda n, w: ballistic_frequency(SearchSpace(n), w),
                            ("bits", "work"), _nonneg),
    "ballistic_schedule": (lambda n, w: ballistic_schedule(SearchSpace(n), w),
                           ("bits", "work"), _schedule),
    "grover_pulsed_schedule": (
        lambda n, e, phase, k: grover_pulsed_schedule(SearchSpace(n), e, phase, k),
        ("bits", "work", "phase", "count"), _schedule),
    "adiabatic_gap": (lambda n, e, c: adiabatic_gap(SearchSpace(n), e, c),
                      ("bits", "work", "unit"), _nonneg),
    "adiabatic_total_time": (lambda n, e, eps: adiabatic_total_time(SearchSpace(n), e, eps),
                             ("bits", "work", "unit"), _nonneg),
    "adiabatic_schedule": (lambda n, e, eps: adiabatic_schedule(SearchSpace(n), e, eps),
                           ("bits", "work", "unit"), _schedule),
    # segment and grid counts start at 256, 64 and 1; a drawn float stays a float
    "adiabatic_schedule segments": (
        lambda n, e, eps, k: adiabatic_schedule(SearchSpace(n), e, eps,
                                                segments=_or_drawn(lambda: 256 + k, k)),
        ("bits", "work", "unit", "count"), _schedule),
    "first_peak_iterations": (
        lambda n, e, phase, k: first_peak_iterations(SearchSpace(n), e, phase, k),
        ("bits", "work", "phase", "count"),
        lambda r: _key_bits(r[0]) and type(r[1]) is float and _prob(r[1])),
    "runtime_to_infidelity": (
        lambda n, e, eps, target, k: runtime_to_infidelity(SearchSpace(n), e, eps, target,
                                                           grid_points=k),
        ("bits", "work", "unit", "unit", "count"), _nonneg),
    "runtime_to_infidelity scale_range": (
        lambda n, start, end: runtime_to_infidelity(SearchSpace(n), 1.0, 0.1, 0.5,
                                                    scale_range=(start, end)),
        ("bits", "k", "k"), _nonneg),
    "evolve": (lambda n, span, step: evolve(EffectiveState.initial(SearchSpace(n)),
                                            ControlSchedule([(span, 1.0, 1.0)]), step),
               ("bits", "span", "step"), _trace),
    "propagate": (lambda n, columns, factors: propagate(EffectiveState.initial(SearchSpace(n)),
                                                        columns, factors),
                  ("bits", "columns", "factors"), _amplitudes),
    "measure_modulated_suppression": (
        lambda n, r, omega, cycles, k: measure_modulated_suppression(
            SearchSpace(n), r, omega, cycles=cycles,
            segments_per_cycle=_or_drawn(lambda: 64 + k, k)),
        ("bits", "unit", "freq", "count", "count"), _complex),
    "equator_state": (lambda n, omega: equator_state(SearchSpace(n), omega),
                      ("bits", "freq"), _state),
    "control_bandwidth": (lambda total, window: control_bandwidth(None, total, window),
                          ("time", "time"), _nonneg),
    "modulated_detuning_suppression": (modulated_detuning_suppression, ("unit",), _prob),
    "eigenenergies": (lambda n, omega, delta: eigenenergies(SearchSpace(n), omega, delta),
                      ("bits", "freq", "freq"), lambda e: all(map(_nonneg, e))),
    # |delta| = omega, where rounding once took E- below zero
    "eigenenergies at |delta| = omega": (
        lambda n, omega, sign: eigenenergies(
            SearchSpace(n), omega, _or_drawn(lambda: math.copysign(omega, sign), sign)),
        ("bits", "freq", "freq"), lambda e: all(map(_nonneg, e))),
    "averaged_overlap": (
        lambda n, delta, omega, diff, window: averaged_overlap(0.5j, delta, omega, diff, window,
                                                               SearchSpace(n)),
        ("bits", "freq", "freq", "unit", "time"), _complex),
}


@st.composite
def calls(draw):
    """A call name and its arguments, each an edge value or an in-domain draw."""
    name = draw(st.sampled_from(sorted(CALLS)))
    kinds = CALLS[name][1]
    return name, tuple(draw(EDGE | KINDS[kind]) for kind in kinds)


@settings(max_examples=600, deadline=None)
@given(calls())
# each of these once ended in NaN, a value out of range or a raw Python error
@example(("ballistic_success", (8, 1.0, math.nan)))
@example(("classical_work_requirement", (8, 1, 300, 8)))
@example(("quantum_work_requirement", (8, 1, -1)))
@example(("bht_optimal", (8, math.inf, 300, 0.5)))
@example(("max_deterministic_keylength", (8, math.inf)))
@example(("equator_state", (8, 0.0)))
# valid inputs whose result lies past double range, or divides by zero
@example(("battery_relative_uncertainty", (10, 5e-324, 0.0)))
@example(("solar_budget", (1e300,)))
@example(("ballistic_frequency", (8, 1e300)))
@example(("control_bandwidth", (1.0, 5e-324)))
@example(("init_readout_work", (1e308, 300.0)))
@example(("eigenenergies", (4, 1e300, 0.0)))  # omega^2 overflows; E+ does not
@example(("eigenenergies", (5, 300.0, 300.0)))  # E- once rounded to -6e-48 J
# arguments that are not real numbers once ended in a raw TypeError or ValueError
@example(("bht_optimal", ("40", 1.0, 300.0, 1.0)))
@example(("evolve", (4, 1.0, "0.1")))
@example(("runtime_to_infidelity scale_range", (6, "a", "b")))
@example(("propagate", (4, 1.0, [1.0])))
@example(("propagate", (4, ([1.0], [1.0], [1.0]), [1.0])))
@example(("propagate", (4, ([1.0], [1.0], [1.0]), ["x"])))
@example(("ControlSchedule rows", ("abc",)))
def test_every_call_ends_in_a_result_or_a_qlimits_error(call):
    name, args = call
    function, _, in_range = CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = function(*args)
        except QlimitsError:
            return
    assert in_range(result), f"{name}{args} returned {result!r}"


def test_eigenenergies_where_omega_squared_overflows():
    # E+- = hbar (omega +- omega/4) at n = 4 and delta = 0, finite past 1e154 rad/s
    e_plus, e_minus = eigenenergies(SearchSpace(4), 1e300, 0.0)
    assert e_plus == HBAR * 1.25e300 and e_minus == HBAR * 0.75e300


@pytest.mark.parametrize("points", [0, -1, 1, 2.5])
def test_sweep_refuses_fewer_than_two_or_fractional_points(points):
    # 0 once ended in a raw ValueError from argmin of an empty grid, -1 in
    # numpy's refusal of a negative sample count
    with pytest.raises(DomainError, match="sweep points"):
        bht_sweep_minimum(20, 1.0, 300.0, 1.0, points=points)


@pytest.mark.parametrize("call", [
    lambda: first_peak_iterations(SearchSpace(8), HBAR, math.pi, max_pairs=2.5),
    lambda: runtime_to_infidelity(SearchSpace(6), 1.0, 0.1, 0.01, grid_points=2.5),
    lambda: adiabatic_schedule(SearchSpace(6), 1.0, 0.1, segments=300.5),
    lambda: measure_modulated_suppression(SearchSpace(8), 0.1, cycles=1.5),
    lambda: measure_modulated_suppression(SearchSpace(8), 0.1, segments_per_cycle=64.5),
], ids=["max_pairs", "grid_points", "segments", "cycles", "segments_per_cycle"])
def test_fractional_counts_are_refused(call):
    # each once ended in a raw TypeError
    with pytest.raises(DomainError, match="must be an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: runtime_to_infidelity(SearchSpace(6), 1.0, 0.1, 0.01, grid_points=2**62),
    lambda: measure_modulated_suppression(SearchSpace(8), 0.1, cycles=2**62),
    lambda: bht_sweep_minimum(20, 1.0, 300.0, 1.0, points=2**62),
], ids=["grid_points", "cycles", "sweep points"])
def test_counts_are_refused_before_allocating(call):
    # each once ended in numpy's raw ValueError ("array is too big") or MemoryError
    with pytest.raises(CapacityError, match="is limited to"):
        call()


_COLUMNS = ControlSchedule(((1.0, 1.0, 0.5), (2.0, 0.5, 1.0))).arrays()


@pytest.mark.parametrize("call, message", [
    (lambda: propagate(EffectiveState.initial(SearchSpace(4)), _COLUMNS, 1.0),
     "scale factors must be a 1-D array"),
    (lambda: propagate(EffectiveState.initial(SearchSpace(4)), _COLUMNS, [[1.0], [2.0]]),
     "scale factors must be a 1-D array"),
    (lambda: propagate(EffectiveState.initial(SearchSpace(4)),
                       (_COLUMNS[0][:1], *_COLUMNS[1:]), [1.0]),
     "three 1-D columns of one length"),
    (lambda: propagate(EffectiveState.initial(SearchSpace(4)), _COLUMNS[:2], [1.0]),
     "three 1-D columns of one length"),
    (lambda: runtime_to_infidelity(SearchSpace(6), 1.0, 0.1, 0.01, scale_range=(1.0,)),
     "scale range must be a"),
    (lambda: runtime_to_infidelity(SearchSpace(6), 1.0, 0.1, 0.01, scale_range=2.0),
     "scale range must be a"),
    (lambda: runtime_to_infidelity(SearchSpace(6), 1.0, 0.1, 0.01,
                                   scale_range=(0.125, 16.0, 64.0)),
     "scale range must be a"),
], ids=["0-d factors", "2-D factors", "unequal columns", "two columns",
        "1-tuple range", "float range", "3-tuple range"])
def test_batched_scan_shapes_are_refused(call, message):
    # each once ended in a raw IndexError, ValueError or TypeError, or (2-D
    # factors, a 3-tuple range) in a result that mixed or dropped inputs
    with pytest.raises(DomainError, match=message):
        call()
