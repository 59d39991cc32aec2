"""The schedule format: three validated float columns, one row per segment.

The ``_old_*`` functions below are copies of the per-``Segment`` loops that
built schedules before :class:`ControlSchedule` held columns, and of the
per-point sweep position they called.  Their rows must equal the new columns
bit for bit (compared as uint64 patterns, so -0.0 and 0.0 differ).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qlimits.dynamics.control as control
from qlimits.constants import HBAR
from qlimits.dynamics import (
    ControlSchedule,
    SearchSpace,
    Segment,
    adiabatic_schedule,
    adiabatic_total_time,
    grover_pulsed_schedule,
    measure_modulated_suppression,
)
from qlimits.errors import DomainError


def _bits(rows) -> np.ndarray:
    return np.array(rows, dtype=float).view(np.uint64)


def assert_rows_identical(schedule: ControlSchedule, old_rows) -> None:
    assert np.array_equal(_bits(np.column_stack(schedule.arrays())), _bits(old_rows))


# --------------------------------------------------- the old constructors


def _old_local_sweep_position(space, energy_scale, error_budget, t):
    """Invert the locally paced c(t); tangent-shaped in time."""
    g = space.overlap
    root = math.sqrt(1.0 - g * g)
    theta0 = math.atan(root / g)
    rate = 2.0 * g * root * error_budget * energy_scale / HBAR
    theta = rate * t - theta0
    theta = min(max(theta, -theta0), theta0)
    return 0.5 * (1.0 + (g / root) * math.tan(theta))


def _old_adiabatic_rows(space, energy_scale, error_budget, kind, segments):
    total = adiabatic_total_time(space, energy_scale, error_budget)
    h = total / segments
    segs = []
    for j in range(segments):
        t_mid = (j + 0.5) * h
        if kind == "local":
            c = _old_local_sweep_position(space, energy_scale, error_budget, t_mid)
        else:
            c = t_mid / total
        omega_i = (1.0 - c) * energy_scale / HBAR
        omega_s = c * energy_scale / HBAR
        segs.append(Segment(h, omega_i, omega_s))
    return tuple(segs)


def _old_grover_rows(pulse_energy, pulse_phase, iterations):
    omega_pulse = pulse_energy / HBAR
    tau = pulse_phase / omega_pulse
    pair = (Segment(tau, 0.0, omega_pulse), Segment(tau, omega_pulse, 0.0))
    return pair * iterations


def _old_truncated_rows(segments, duration):
    out = []
    remaining = duration
    for seg in segments:
        if remaining >= seg.duration:
            out.append(seg)
            remaining -= seg.duration
        else:
            if remaining > 0.0:
                out.append(Segment(remaining, seg.omega_i, seg.omega_s))
            break
    return tuple(out)


def _old_scaled_rows(segments, factor):
    return tuple(Segment(s.duration * factor, s.omega_i, s.omega_s) for s in segments)


def _old_modulated_rows(r, omega, cycles, segments_per_cycle, omega_c):
    delta0 = r * omega_c
    tau = 2.0 * math.pi / omega_c / segments_per_cycle
    segs = []
    for k in range(cycles * segments_per_cycle):
        t_mid = (k + 0.5) * tau
        delta = delta0 * math.sin(omega_c * t_mid)
        segs.append(Segment(tau, omega + delta, omega - delta))
    return tuple(segs)


# ------------------------------------------------------------ the format


ROWS = ((0.5, 1.0, 0.0), (0.25, 0.0, 2.5), (1.5, 0.75, 0.75))


def test_array_triples_and_segments_give_equal_schedules():
    from_array = ControlSchedule(np.array(ROWS))
    from_triples = ControlSchedule(ROWS)
    from_lists = ControlSchedule([list(r) for r in ROWS])
    from_segments = ControlSchedule(tuple(Segment(*r) for r in ROWS))
    for schedule in (from_triples, from_lists, from_segments):
        assert schedule == from_array
        assert_rows_identical(schedule, ROWS)
    assert from_array.total_duration == 2.25
    assert from_array != ControlSchedule(ROWS[:2])
    assert from_array != ControlSchedule(ROWS, declared_duration=2.25)


def test_columns_are_contiguous_and_read_only():
    schedule = ControlSchedule(ROWS)
    for column in schedule.arrays():
        assert column.dtype == np.float64 and column.flags.c_contiguous
        with pytest.raises(ValueError):
            column[0] = 1.0


def test_segments_round_trip():
    schedule = ControlSchedule(ROWS)
    segments = schedule.segments
    assert all(type(s) is Segment for s in segments)
    assert segments == tuple(Segment(*r) for r in ROWS)
    assert segments[1].omega_s == 2.5 and len(segments) == 3
    assert ControlSchedule(segments) == schedule
    assert ControlSchedule(segments).segments == segments


BAD_VALUES = [math.nan, math.inf, -math.inf, -1.0, -5e-324]


@pytest.mark.parametrize("row", [0, 2])
@pytest.mark.parametrize("column, bad", [(0, 0.0)] + [(c, v) for c in range(3)
                                                      for v in BAD_VALUES])
def test_bad_value_names_itself(row, column, bad):
    rows = np.array(ROWS)
    rows[row, column] = bad
    message = ("segment duration must be finite and > 0" if column == 0
               else "segment frequencies must be finite and >= 0")
    for given_rows in (rows, rows.tolist()):
        with pytest.raises(DomainError, match=message) as err:
            ControlSchedule(given_rows)
        got = err.value.offending_input
        assert type(got) is float
        assert (math.isnan(got) and math.isnan(bad)) or got == bad


def test_first_offending_value_in_row_order():
    rows = np.array(ROWS)
    rows[1, 2] = -2.0
    rows[2, 0] = -3.0
    rows[2, 1] = math.nan
    with pytest.raises(DomainError, match="frequencies") as err:
        ControlSchedule(rows)
    assert err.value.offending_input == -2.0
    rows[1, 2] = 0.0
    with pytest.raises(DomainError, match="duration") as err:
        ControlSchedule(rows)
    assert err.value.offending_input == -3.0


@pytest.mark.parametrize("rows", [(), [], np.empty((0, 3)), [[]], [(1.0, 2.0)],
                                  (1.0, 2.0, 3.0)])
def test_empty_or_misshapen_schedule_raises(rows):
    with pytest.raises(DomainError, match="at least one segment"):
        ControlSchedule(rows)


def test_segment_keeps_its_scalar_check():
    assert Segment(1.0, 0.0, 2.0) == (1.0, 0.0, 2.0)
    assert Segment(duration=1.0, omega_i=0.0, omega_s=2.0).omega_s == 2.0
    for args, message in [((0.0, 1.0, 1.0), "duration"),
                          ((math.inf, 1.0, 1.0), "duration"),
                          ((1.0, -1.0, 1.0), "frequencies"),
                          ((1.0, 1.0, math.nan), "frequencies")]:
        with pytest.raises(DomainError, match=message):
            Segment(*args)


def test_rescalers_stay_methods_of_the_class():
    # wrapped where callers look them up: on the class
    assert callable(ControlSchedule.__dict__["scaled"])
    assert callable(ControlSchedule.__dict__["truncated"])


# ---------------------------------------- constructors against old loops


@given(n=st.integers(min_value=1, max_value=14),
       energy=st.floats(min_value=1e-30, max_value=1e-20),
       eps=st.floats(min_value=1e-3, max_value=0.9),
       kind=st.sampled_from(["local", "linear"]),
       segments=st.one_of(st.none(), st.integers(min_value=256, max_value=1500)))
@settings(max_examples=40, deadline=None)
def test_adiabatic_columns_equal_the_old_loop(n, energy, eps, kind, segments):
    space = SearchSpace(n)
    schedule = adiabatic_schedule(space, energy, eps, kind=kind, segments=segments)
    if segments is None:
        segments = max(256, 16 * int(math.ceil(2.0 ** (n / 2.0))))
    assert_rows_identical(schedule, _old_adiabatic_rows(space, energy, eps, kind, segments))


def test_adiabatic_columns_equal_the_old_loop_at_n_10():
    # numpy's AVX-512 tan moves one of these 512 omega_s values by an ulp;
    # the 40 draws above seldom land on such a case
    space = SearchSpace(10)
    assert_rows_identical(adiabatic_schedule(space, HBAR, 0.1),
                          _old_adiabatic_rows(space, HBAR, 0.1, "local", 512))


@given(energy=st.floats(min_value=1e-30, max_value=1e-10),
       phase=st.one_of(st.just(math.pi),
                       st.floats(min_value=1e-3, max_value=2.0 * math.pi)),
       iterations=st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_grover_columns_equal_the_old_loop(energy, phase, iterations):
    schedule = grover_pulsed_schedule(SearchSpace(10), energy, phase, iterations)
    assert_rows_identical(schedule, _old_grover_rows(energy, phase, iterations))


_ROWS = st.lists(st.tuples(st.floats(min_value=1e-3, max_value=10.0),
                           st.floats(min_value=0.0, max_value=5.0),
                           st.floats(min_value=0.0, max_value=5.0)), min_size=1, max_size=40)


@given(rows=_ROWS, fraction=st.floats(min_value=1e-6, max_value=1.0 + 1e-12))
@settings(max_examples=100, deadline=None)
def test_truncated_equals_the_old_loop(rows, fraction):
    schedule = ControlSchedule(rows)
    duration = schedule.total_duration * fraction
    assert_rows_identical(schedule.truncated(duration),
                          _old_truncated_rows(schedule.segments, duration))


def test_truncated_at_segment_boundaries():
    # 0.75 - 0.5 - 0.25 leaves exactly 0: segment 2 is dropped, not cut to 0
    schedule = ControlSchedule(((0.5, 1.0, 0.0), (0.25, 0.0, 1.0), (0.25, 2.0, 2.0)))
    for duration in (0.5, 0.75, 1.0, 0.6, 1e-9):
        old = _old_truncated_rows(schedule.segments, duration)
        cut = schedule.truncated(duration)
        assert_rows_identical(cut, old)
        assert len(cut.segments) == len(old)


@given(rows=_ROWS, factor=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_scaled_equals_the_old_loop(rows, factor):
    schedule = ControlSchedule(rows)
    assert_rows_identical(schedule.scaled(factor), _old_scaled_rows(schedule.segments, factor))


@given(r=st.floats(min_value=0.0, max_value=0.2),
       cycles=st.integers(min_value=1, max_value=3),
       segments_per_cycle=st.integers(min_value=64, max_value=200),
       omega=st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_modulated_schedule_equals_the_old_loop(r, cycles, segments_per_cycle, omega):
    # the double 0.2 exceeds 1/5, so r * omega_c can pass omega: the function's
    # own domain check refuses that, which is not what this test compares
    assume(r * (5.0 * omega) <= omega)
    # the schedule is internal: catch it where the function hands it to evolve
    with mock.patch.object(control, "evolve", wraps=control.evolve) as spy:
        measure_modulated_suppression(SearchSpace(12), r, omega, cycles, segments_per_cycle)
    ((_, schedule, _),) = [call.args for call in spy.call_args_list]
    assert_rows_identical(
        schedule, _old_modulated_rows(r, omega, cycles, segments_per_cycle, 5.0 * omega))
