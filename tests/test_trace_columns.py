"""Columnar traces against the per-sample code they replaced.

The ``_old_*`` functions below are copies of the per-sample ``evolve``, of
the per-cell writers and of the per-row dicts that columnar traces and the
row-template writer (:class:`FloatRows`) replaced.  Both run on the same machine, so the comparisons demand exact
equality (numpy's SIMD sin/cos differ between CPUs, which rules out pinned
output hashes).
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlimits.cli import main
from qlimits.dynamics import (
    ControlSchedule,
    EffectiveState,
    SearchSpace,
    Segment,
    Trace,
    adiabatic_schedule,
    ballistic_schedule,
    evolve,
    full_space_reference,
    grover_pulsed_schedule,
    observables_at,
    propagate,
    standard_grover_iterations,
)
from qlimits.dynamics.core import MAX_TRACE_SAMPLES, _pauli_components
from qlimits.errors import CapacityError, ConsistencyError, DomainError
from qlimits.serialize import (
    FloatRows,
    dumps17,
    schedule_from_obj,
    schedule_to_obj,
    trace_to_csv,
    trace_to_obj,
)


# ------------------------------------------------------- the replaced code


def _old_offsets(t_start, duration, step):
    t_end = t_start + duration
    first = math.ceil(t_start / step - 1e-9)
    last = math.floor(t_end / step + 1e-9)
    offsets = [m * step - t_start for m in range(first, last + 1)]
    offsets = [o for o in offsets if 1e-12 * max(duration, step) < o < duration * (1.0 - 1e-12)]
    offsets.append(duration)
    return np.asarray(offsets)


def _old_evolve(state, schedule, sample_step):
    """Rows (t, omega_i, omega_s, P_s, P_i, re A, im A, alpha_ab, norm error)."""
    space = state.space
    psi = np.array([state.c1, state.c2], dtype=complex)
    rows = []

    def emit(t, vec, seg):
        norm = math.sqrt(float(abs(vec[0]) ** 2 + abs(vec[1]) ** 2))
        err = abs(norm - 1.0)
        if err > 1e-9:
            raise ConsistencyError("propagator norm drift exceeded tolerance", (t, err))
        obs = observables_at(EffectiveState(complex(vec[0]), complex(vec[1]), space),
                             seg.omega_i, seg.omega_s)
        rows.append((t, seg.omega_i, seg.omega_s, obs.p_s, obs.p_i, obs.a.real, obs.a.imag,
                     obs.alpha_ab, err))

    emit(0.0, psi, schedule.segments[0])
    t_start = 0.0
    for seg in schedule.segments:
        mean, x, z = _pauli_components(space, seg.omega_i, seg.omega_s)
        rabi = math.hypot(x, z)
        offsets = _old_offsets(t_start, seg.duration, sample_step)
        angles = rabi * offsets
        cos_t = np.cos(angles)
        if rabi > 0.0:
            sin_over = np.sin(angles) / rabi
        else:
            sin_over = offsets.copy()
        phases = np.exp(-1j * mean * offsets)
        c1 = phases * ((cos_t - 1j * z * sin_over) * psi[0] - 1j * x * sin_over * psi[1])
        c2 = phases * (-1j * x * sin_over * psi[0] + (cos_t + 1j * z * sin_over) * psi[1])
        for k, off in enumerate(offsets):
            emit(t_start + off, np.array([c1[k], c2[k]]), seg)
        psi = np.array([c1[-1], c2[-1]])
        t_start += seg.duration
    return rows


_OLD_KEYS = ("t_s", "omega_i", "omega_s", "P_s", "P_i", "re_A", "im_A", "alpha_ab", "norm_error")


def _old_trace_to_csv(rows):
    lines = [",".join(_OLD_KEYS)]
    for fields in rows:
        lines.append(",".join(_old_format_float17(f) for f in fields))
    return "\n".join(lines) + "\n"


def _old_trace_to_obj(rows):
    return [dict(zip(_OLD_KEYS, fields)) for fields in rows]


def _old_schedule_to_obj(schedule):
    return {
        "segments": [
            {
                "duration_s": s.duration,
                "omega_i_radps": s.omega_i,
                "omega_s_radps": s.omega_s,
            }
            for s in schedule.segments
        ]
    }


def _old_format_float17(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _old_write(obj, out, indent, level):
    pad = " " * (indent * (level + 1))
    closing_pad = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_old_format_float17(obj))
    elif isinstance(obj, complex):
        _old_write({"re": obj.real, "im": obj.imag}, out, indent, level)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _old_write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _old_write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _old_dumps17(obj, indent=2):
    out = []
    _old_write(obj, out, indent, 0)
    return "".join(out)


# ------------------------------------------------------------- strategies

_frequency = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.floats(1e-6, 1e3))


@st.composite
def _traced_runs(draw):
    """(n, schedule, sample step): 1-40 segments, zero-frequency ones
    included, sometimes truncated, the step above or below the segments."""
    n = draw(st.integers(1, 64))
    count = draw(st.integers(1, 40))
    segments = tuple(
        Segment(draw(st.floats(1e-3, 2.0)), draw(_frequency), draw(_frequency))
        for _ in range(count)
    )
    schedule = ControlSchedule(segments)
    if draw(st.booleans()):
        schedule = schedule.truncated(draw(st.floats(0.05, 1.0)) * schedule.total_duration)
    mean_length = schedule.total_duration / len(schedule.segments)
    step = mean_length * draw(st.one_of(st.floats(0.02, 0.9), st.floats(1.1, 30.0)))
    return n, schedule, step


# ------------------------------------------------------------------ tests


def _columns_as_lists(trace):
    return [column.tolist() for column in trace.columns()]


@settings(max_examples=60, deadline=None)
@given(_traced_runs())
def test_columns_and_text_equal_the_per_sample_code(run):
    n, schedule, step = run
    state = EffectiveState.initial(SearchSpace(n))
    rows = _old_evolve(state, schedule, step)
    trace = evolve(state, schedule, step)
    assert _columns_as_lists(trace) == [list(column) for column in zip(*rows)]
    # line lists, not texts: pytest's diff of two long texts runs for minutes
    assert trace_to_csv(trace).split("\n") == _old_trace_to_csv(rows).split("\n")
    assert dumps17(trace_to_obj(trace)).split("\n") == \
        _old_dumps17(_old_trace_to_obj(rows)).split("\n")


def _grid_edge_cases():
    grover_space = SearchSpace(10)
    grover = grover_pulsed_schedule(grover_space, 1.0, math.pi,
                                    standard_grover_iterations(grover_space))
    adiabatic = adiabatic_schedule(SearchSpace(16), 1.0, 0.1)
    ballistic = ballistic_schedule(SearchSpace(12), 1.0)
    return [
        # 20 steps a segment: every boundary falls on a grid point
        pytest.param(10, grover, grover.total_duration / 1000, id="grover-boundaries-on-grid"),
        # 4,096 segment starts accumulated one after the other
        pytest.param(16, adiabatic, adiabatic.total_duration / 1000, id="adiabatic-n16"),
        # the middle segment is shorter than the step and holds t = 1.0
        pytest.param(6, ControlSchedule(((0.99, 1.3, 0.4), (0.02, 0.5, 2.0), (0.7, 0.2, 0.1))),
                     0.25, id="segment-shorter-than-step"),
        # the middle segment spans one step from a grid point: no interior point
        pytest.param(6, ControlSchedule(((1.0, 1.3, 0.4), (0.25, 0.5, 2.0), (0.6, 0.2, 0.1))),
                     0.25, id="segment-without-interior-point"),
        # one segment just below and at the 16,384 samples (256 KiB of
        # complex temporaries) where numpy starts to evaluate products in place
        pytest.param(12, ballistic, ballistic.total_duration / 16383, id="ballistic-16383"),
        pytest.param(12, ballistic, ballistic.total_duration / 16384, id="ballistic-16384"),
    ]


@pytest.mark.parametrize("n, schedule, step", _grid_edge_cases())
def test_grid_edge_cases_equal_the_per_sample_code(n, schedule, step):
    state = EffectiveState.initial(SearchSpace(n))
    rows = _old_evolve(state, schedule, step)
    assert _columns_as_lists(evolve(state, schedule, step)) == [list(c) for c in zip(*rows)]


def test_points_repeat_the_columns():
    space = SearchSpace(7)
    schedule = ControlSchedule((Segment(0.7, 1.3, 0.4), Segment(0.9, 0.0, 0.0),
                                Segment(0.4, 0.2, 2.5)))
    trace = evolve(EffectiveState.initial(space), schedule, 0.15)
    rows = _old_evolve(EffectiveState.initial(space), schedule, 0.15)
    assert len(trace.points) == len(rows)
    for p, row in zip(trace.points, rows):
        assert (p.t, p.omega_i, p.omega_s, p.obs.p_s, p.obs.p_i, p.obs.a.real, p.obs.a.imag,
                p.obs.alpha_ab, p.norm_error) == row
        assert type(p.obs.p_s) is float and type(p.t) is float
    assert trace.final == trace.points[-1]
    assert trace.a().tolist() == [p.obs.a for p in trace.points]


def test_reference_columns_agree_with_evolve():
    space = SearchSpace(6)
    schedule = ControlSchedule((Segment(0.5, 2.0, 1.0), Segment(0.8, 0.3, 3.0)))
    reduced = evolve(EffectiveState.initial(space), schedule, 0.1)
    full = full_space_reference(space, schedule, 0.1, solution_index=17)
    assert full.t.tolist() == reduced.t.tolist()
    assert full.omega_i.tolist() == reduced.omega_i.tolist()
    for a, b in zip(full.columns()[3:7], reduced.columns()[3:7]):
        assert np.max(np.abs(a - b)) <= 1e-9


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans()),
                        inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values, st.integers(0, 4))
def test_dumps17_equals_the_old_writer(obj, indent):
    assert dumps17(obj, indent) == _old_dumps17(obj, indent)


def test_dumps17_keeps_equal_keys_of_other_types_apart():
    # 1, 1.0 and True hash alike but print differently
    for key, text in ((1, '"1"'), (1.0, '"1.0"'), (True, '"True"'), (1, '"1"')):
        assert dumps17({key: None}) == "{\n  " + text + ": null\n}"


def test_dumps17_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps17({"x": object()})


# ------------------------------------------------- the row-template writer

_energy = st.floats(0.1, 10.0)


@st.composite
def _protocol_schedules(draw):
    """(n, schedule) from each protocol and from a schedule file, where
    -0.0 frequencies are drawn too; sometimes truncated."""
    n = draw(st.integers(2, 8))
    space = SearchSpace(n)
    protocol = draw(st.sampled_from(["ballistic", "grover", "adiabatic", "custom"]))
    if protocol == "ballistic":
        schedule = ballistic_schedule(space, draw(_energy))
    elif protocol == "grover":
        schedule = grover_pulsed_schedule(space, draw(_energy), draw(st.floats(0.5, 6.28)),
                                          draw(st.integers(1, standard_grover_iterations(space))))
    elif protocol == "adiabatic":
        schedule = adiabatic_schedule(space, draw(_energy), draw(st.floats(0.05, 0.5)),
                                      kind=draw(st.sampled_from(["local", "linear"])))
    else:
        frequency = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 50.0))
        schedule = schedule_from_obj(json.loads(json.dumps({"segments": [
            {"duration_s": draw(st.floats(1e-3, 2.0)), "omega_i_radps": draw(frequency),
             "omega_s_radps": draw(frequency)}
            for _ in range(draw(st.integers(1, 12)))
        ]})))
    if draw(st.booleans()):
        schedule = schedule.truncated(draw(st.floats(0.05, 1.0)) * schedule.total_duration)
    return n, schedule


def _without_rows(trace):
    return Trace(*(column[:0] for column in trace.columns()), space=trace.space)


@st.composite
def _row_payloads(draw):
    """(new payload, old payload): a trace or a schedule, in the row type
    and in the old dict form, at nesting level 0-3 among other values."""
    n, schedule = draw(_protocol_schedules())
    if draw(st.booleans()):
        new, old = schedule_to_obj(schedule), _old_schedule_to_obj(schedule)
    else:
        step = schedule.total_duration / draw(st.integers(1, 200))
        trace = evolve(EffectiveState.initial(SearchSpace(n)), schedule, step)
        if draw(st.integers(0, 9)) == 0:
            trace = _without_rows(trace)
        new = trace_to_obj(trace)
        old = _old_trace_to_obj(zip(*_columns_as_lists(trace)))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            new, old = ({"before": -0.0, "rows": new, "after": [1, None]},
                        {"before": -0.0, "rows": old, "after": [1, None]})
        else:
            new, old = [0.5, new], [0.5, old]
    return new, old


@settings(max_examples=80, deadline=None)
@given(_row_payloads(), st.integers(0, 4))
def test_rows_in_payloads_equal_the_old_writer(payloads, indent):
    new, old = payloads
    # compared as lines: pytest reports the first differing one, where a
    # text diff of a long trace takes minutes
    assert dumps17(new, indent).split("\n") == _old_dumps17(old, indent).split("\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda size: st.lists(
           st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308])),
                    min_size=size, max_size=size), min_size=1, max_size=4)),
       st.integers(0, 3), st.integers(0, 4))
def test_any_finite_rows_equal_the_old_writer(columns, level, indent):
    keys = tuple(f"k%{i}\u00e9" for i in range(len(columns)))
    rows = FloatRows(keys, columns)
    new, old = rows, [dict(zip(keys, row)) for row in zip(*columns)]
    for _ in range(level):
        new, old = {"x": new}, {"x": old}
    assert dumps17(new, indent).split("\n") == _old_dumps17(old, indent).split("\n")


def test_rows_reject_non_finite_columns():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConsistencyError):
            FloatRows(("a", "b"), (np.array([0.0, bad]), np.zeros(2)))
    trace = evolve(EffectiveState.initial(SearchSpace(4)),
                   ControlSchedule((Segment(1.0, 1.0, 0.5),)), 0.25)
    columns = list(trace.columns())
    columns[5] = columns[5].copy()
    columns[5][2] = math.nan
    broken = Trace(*columns, space=trace.space)
    for writer in (trace_to_obj, trace_to_csv):
        with pytest.raises(ConsistencyError):
            writer(broken)
    for columns in ((np.zeros(2),), (np.zeros(2), np.zeros(3)), (np.zeros((2, 2)),) * 2):
        with pytest.raises(ConsistencyError):
            FloatRows(("a", "b"), columns)


def test_rows_index_and_iterate_as_the_old_dicts():
    space = SearchSpace(6)
    schedule = ControlSchedule((Segment(0.7, 1.3, -0.0), Segment(0.9, 0.0, 0.0),
                                Segment(0.4, 0.2, 2.5)))
    trace = evolve(EffectiveState.initial(space), schedule, 0.15)
    pairs = [
        (trace_to_obj(trace), _old_trace_to_obj(zip(*_columns_as_lists(trace)))),
        (schedule_to_obj(schedule)["segments"], _old_schedule_to_obj(schedule)["segments"]),
        (trace_to_obj(_without_rows(trace)), []),
    ]
    for rows, old in pairs:
        assert len(rows) == len(old) and bool(rows) == bool(old)
        assert [rows[i] for i in range(-len(old), len(old))] == \
            [old[i] for i in range(-len(old), len(old))]
        assert list(rows) == old and list(rows) == list(rows)
        assert rows[1:-1] == old[1:-1] and rows[::-2] == old[::-2]
        assert all(type(v) is float for row in [*rows, *rows[:]] for v in row.values())
        with pytest.raises(IndexError):
            rows[len(old)]
    assert trace_to_csv(_without_rows(trace)) == _old_trace_to_csv([])
    assert schedule_from_obj(schedule_to_obj(schedule)) == schedule


# ----------------------------------------------------- input guards


def _overflowing_schedule():
    return ControlSchedule((Segment(1.0, 1.7e308, 1.7e308),))


def test_nan_norm_raises_in_evolve_and_propagate():
    state = EffectiveState.initial(SearchSpace(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError):
            evolve(state, _overflowing_schedule(), 0.25)
        with pytest.raises(ConsistencyError):
            propagate(state, _overflowing_schedule().arrays(), np.ones(1))


def test_sample_capacity_is_checked_before_allocation():
    state = EffectiveState.initial(SearchSpace(5))
    schedule = ControlSchedule((Segment(1.0, 1.0, 0.5), Segment(2.0, 0.0, 1.0)))
    tracemalloc.start()
    try:
        for step in (3.0 / MAX_TRACE_SAMPLES, 1e-300, 5e-324):
            with pytest.raises(CapacityError):
                evolve(state, schedule, step)
            with pytest.raises(CapacityError):
                full_space_reference(SearchSpace(3), schedule, step, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a step just inside the bound still runs
    assert evolve(state, ControlSchedule((Segment(1.0, 1.0, 0.5),)), 1e-4).t.size == 10001


def test_duration_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        ControlSchedule((Segment(1e308, 1.0, 1.0), Segment(1e308, 1.0, 1.0)))


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _write_schedule(tmp_path, segments):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"segments": [
        {"duration_s": d, "omega_i_radps": wi, "omega_s_radps": ws} for d, wi, ws in segments
    ]}))
    return str(path)


def test_cli_nan_norm_is_an_internal_consistency_error(tmp_path, capsys):
    path = _write_schedule(tmp_path, [(1.0, 1.7e308, 1.7e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # stderr carries the error object only
        code, out, err = _run(["simulate", "--protocol", "custom", "--schedule-file", path,
                               "--n", "8"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "internal-consistency"


def test_cli_duration_overflow_is_a_domain_error(tmp_path, capsys):
    path = _write_schedule(tmp_path, [(1e308, 1.0, 1.0), (1e308, 1.0, 1.0)])
    code, out, err = _run(["simulate", "--protocol", "custom", "--schedule-file", path,
                           "--n", "8"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "domain"


def test_cli_tiny_step_is_a_capacity_error(capsys):
    code, out, err = _run(["simulate", "--protocol", "ballistic", "--n", "10",
                           "--work-radps", "1", "--dt", "1e-30s"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "capacity"
