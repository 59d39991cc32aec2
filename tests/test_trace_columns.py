"""Columnar traces: their sample grid, their values and their text.

The values of ``evolve`` are held to a stated accuracy contract against an
independent reference: the same closed-form segment exponentials evaluated
in mpmath at 50 digits, with the schedule's float columns and the offsets
of the sample grid taken as exact.  On the fixed schedules of
:func:`test_columns_stay_within_the_stated_bounds` every value column lies
within ``_BOUNDS``; on any schedule it lies within 1e-15 (Theta + K), Theta
the total Rabi angle and K the segment count.

The grid and the text are still compared exactly with the code they
replaced: ``_old_offsets`` is the per-segment grid of the per-sample
``evolve``, and the other ``_old_*`` functions are copies of the per-cell
writers and the per-row dicts that the row writer (:class:`FloatRows`)
replaced.  That writer formats cells in numpy array passes, so it is also
held to ``template % row`` cell for cell, with ``%.17g`` between the texts
of a row, on bit patterns drawn from all of float64.
"""

import json
import math
import struct
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlimits import serialize
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
    propagate,
    standard_grover_iterations,
)
from qlimits.dynamics.core import MAX_TRACE_SAMPLES, _pauli_components, _sample_grid
from qlimits.errors import CapacityError, ConsistencyError, DomainError
from qlimits.serialize import (
    _TRACE_CSV_ROW,
    FloatRows,
    _json_row_texts,
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


def _old_grid(schedule, step):
    """Columns (t, omega_i, omega_s) of the per-sample ``evolve``: the
    initial sample, then each segment's offsets from a running start."""
    first = schedule.segments[0]
    rows = [(0.0, first.omega_i, first.omega_s)]
    t_start = 0.0
    for seg in schedule.segments:
        rows += [(t_start + off, seg.omega_i, seg.omega_s)
                 for off in _old_offsets(t_start, seg.duration, step)]
        t_start += seg.duration
    return [list(column) for column in zip(*rows)]


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


def _template(texts):
    """The ``%``-template of a row: ``%.17g`` between its texts."""
    return "%.17g".join(t.replace("%", "%%") for t in texts)


def _old_join(rows, texts):
    """The text of ``FloatRows.blocks(texts)`` as one string, each row ``template % row``."""
    return "".join(map(_template(texts).__mod__, zip(*(c.tolist() for c in rows.columns))))


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


# --------------------------------------------------- the 50-digit reference

_MP = mpmath.MPContext()
_MP.dps = 50

# The worst absolute error of each value column on the fixed schedules of
# test_columns_stay_within_the_stated_bounds: the next power of ten at or
# above the worst error of the earlier bit-exact per-sample code (P_s
# 4.4e-15, P_i 1.6e-15, Re A 1.5e-15, Im A 5.0e-16, alpha_ab 7.2e-15, norm
# drift 2.1e-15).  alpha_ab is a wrapped angle.
_BOUNDS = {"prob_s": 1e-14, "prob_i": 1e-14, "re_a": 1e-14, "im_a": 1e-15,
           "alpha_ab": 1e-14, "norm_error": 1e-14}


def _reference_errors(trace, n, schedule, step, stride=1):
    """Worst absolute error of each value column of ``trace`` over every
    ``stride``-th row and the last, against the closed-form segment
    exponentials at 50 digits.  The schedule's float columns and the grid
    offsets count as exact.  exp(-i mean tau) multiplies both amplitudes
    alike and drops out of every observable, so it is left out.  alpha_ab
    is compared as a wrapped angle, and as the arc |A| times that angle
    ("alpha_arc"); the norm drift of an exact evolution is 0.
    """
    mp = _MP
    _, offsets, edges = _sample_grid(schedule, step)
    checked = np.zeros(offsets.size, dtype=bool)
    checked[::stride] = checked[-1] = True
    offsets = offsets.tolist()
    values = {key: getattr(trace, key).tolist()
              for key in ("prob_s", "prob_i", "re_a", "im_a", "alpha_ab")}
    worst = dict.fromkeys((*values, "alpha_arc"), 0.0)
    g = mp.mpf(2) ** (-mp.mpf(n) / 2)
    h = mp.sqrt(1 - g * g)
    turn = 2 * mp.pi

    def compare(row, c1, c2):
        s = g * c1 + h * c2
        a = mp.conj(s) * c1
        p_s, p_i = s.real ** 2 + s.imag ** 2, c1.real ** 2 + c1.imag ** 2
        for key, exact in (("prob_s", p_s), ("prob_i", p_i), ("re_a", a.real),
                           ("im_a", a.imag)):
            worst[key] = max(worst[key], float(abs(values[key][row] - exact)))
        d = values["alpha_ab"][row] - mp.arg(a)
        if abs(d) > mp.pi:
            d -= turn * mp.nint(d / turn)
        angle = float(abs(d))
        worst["alpha_ab"] = max(worst["alpha_ab"], angle)
        arc = angle * math.hypot(values["re_a"][row], values["im_a"][row])
        worst["alpha_arc"] = max(worst["alpha_arc"], arc)

    c1, c2 = mp.mpc(1), mp.mpc(0)
    compare(0, c1, c2)
    for lo, hi, wi, ws in zip(edges, edges[1:], schedule.omega_i.tolist(),
                              schedule.omega_s.tolist()):
        x = ws * g * h
        z = (mp.mpf(wi) - ws) / 2 + ws * g * g
        rabi = mp.sqrt(x * x + z * z)
        for row in range(lo, hi):
            if not (checked[row] or row == hi - 1):
                continue
            tau = offsets[row]
            cos, sin = mp.cos_sin(rabi * tau)
            sin_over = sin / rabi if rabi else mp.mpf(tau)
            off_diagonal = mp.mpc(0, -x * sin_over)
            d1 = mp.mpc(cos, -z * sin_over) * c1 + off_diagonal * c2
            d2 = off_diagonal * c1 + mp.mpc(cos, z * sin_over) * c2
            if checked[row]:
                compare(row, d1, d2)
        c1, c2 = d1, d2  # the segment's end starts the next one
    worst["norm_error"] = float(trace.norm_error[checked].max())
    return worst


def _assert_within_the_general_bound(trace, n, schedule, step, stride=1):
    """Every value column within 1e-15 (Theta + K) of the reference, Theta
    = sum(Omega_k d_k) the total Rabi angle and K the segment count:
    rounding enters once a segment and in proportion to each angle.  The
    bare angle alpha_ab loses its digits as |A| -> 0; its arc is checked."""
    _, x, z = _pauli_components(SearchSpace(n), schedule.omega_i, schedule.omega_s)
    bound = 1e-15 * (float(np.hypot(x, z) @ schedule.durations) + schedule.durations.size)
    errors = _reference_errors(trace, n, schedule, step, stride)
    del errors["alpha_ab"]
    assert max(errors.values()) <= bound, (errors, bound)


# ------------------------------------------------------------------ tests


def _columns_as_lists(trace):
    return [column.tolist() for column in trace.columns()]


@settings(max_examples=60, deadline=None)
@given(_traced_runs())
def test_columns_and_text_equal_the_per_sample_code(run):
    n, schedule, step = run
    trace = evolve(EffectiveState.initial(SearchSpace(n)), schedule, step)
    assert _columns_as_lists(trace)[:3] == _old_grid(schedule, step)
    _assert_within_the_general_bound(trace, n, schedule, step, max(1, trace.t.size // 10))
    rows = list(zip(*_columns_as_lists(trace)))
    # line lists, not texts: pytest's diff of two long texts runs for minutes
    assert trace_to_csv(trace).split("\n") == _old_trace_to_csv(rows).split("\n")
    assert dumps17(trace_to_obj(trace)).split("\n") == \
        _old_dumps17(_old_trace_to_obj(rows)).split("\n")


def _hand_written_schedules():
    return [
        # the middle segment is shorter than the step and holds t = 1.0
        pytest.param(6, ControlSchedule(((0.99, 1.3, 0.4), (0.02, 0.5, 2.0), (0.7, 0.2, 0.1))),
                     0.25, 1, id="segment-shorter-than-step"),
        # the middle segment spans one step from a grid point: no interior point
        pytest.param(6, ControlSchedule(((1.0, 1.3, 0.4), (0.25, 0.5, 2.0), (0.6, 0.2, 0.1))),
                     0.25, 1, id="segment-without-interior-point"),
        # one segment of 17,000 samples between short ones; every 64th row checked
        pytest.param(9, ControlSchedule(((0.3, 1.3, 0.4), (0.05, 0.0, 2.0), (1.0, 2.0, 0.7),
                                         (0.4, 0.2, 3.1), (0.02, 0.0, 0.0))),
                     1.0 / 17000, 64, id="long-segment-between-short-ones"),
    ]


def _grover_n10():
    space = SearchSpace(10)
    return grover_pulsed_schedule(space, 1.0, math.pi, standard_grover_iterations(space))


def _grid_edge_cases():
    grover = _grover_n10()
    adiabatic = adiabatic_schedule(SearchSpace(16), 1.0, 0.1)
    return [
        # 20 steps a segment: every boundary falls on a grid point
        pytest.param(10, grover, grover.total_duration / 1000, 10,
                     id="grover-boundaries-on-grid"),
        # 4,096 segment starts accumulated one after the other
        pytest.param(16, adiabatic, adiabatic.total_duration / 1000, 64, id="adiabatic-n16"),
        *_hand_written_schedules(),
    ]


@pytest.mark.parametrize("n, schedule, step, stride", _grid_edge_cases())
def test_grid_edge_cases_equal_the_per_sample_code(n, schedule, step, stride):
    trace = evolve(EffectiveState.initial(SearchSpace(n)), schedule, step)
    assert _columns_as_lists(trace)[:3] == _old_grid(schedule, step)
    _assert_within_the_general_bound(trace, n, schedule, step, stride)


def _fixed_schedules():
    grover = _grover_n10()
    adiabatic = adiabatic_schedule(SearchSpace(8), 1.0, 0.1)
    ballistic = ballistic_schedule(SearchSpace(12), 1.0)
    # every other of about 1,000 rows checked
    return [
        pytest.param(10, grover, grover.total_duration / 1000, 2, id="grover-n10"),
        pytest.param(8, adiabatic, adiabatic.total_duration / 1000, 2, id="adiabatic-n8"),
        pytest.param(12, ballistic, ballistic.total_duration / 1000, 2, id="ballistic-n12"),
        pytest.param(7, ControlSchedule(((0.7, 1.3, 0.4), (0.9, 0.0, 0.0), (0.4, 0.2, 2.5))),
                     0.15, 1, id="zero-frequency-segment"),
        *_hand_written_schedules(),
    ]


@pytest.mark.parametrize("n, schedule, step, stride", _fixed_schedules())
def test_columns_stay_within_the_stated_bounds(n, schedule, step, stride):
    trace = evolve(EffectiveState.initial(SearchSpace(n)), schedule, step)
    errors = _reference_errors(trace, n, schedule, step, stride)
    assert all(errors[key] <= bound for key, bound in _BOUNDS.items()), errors


@settings(max_examples=25, deadline=None)
@given(_traced_runs())
# the last sample read P_s = 1.0000000000000004 before probabilities were clipped
@example((5, ballistic_schedule(SearchSpace(5), 1.0),
          ballistic_schedule(SearchSpace(5), 1.0).total_duration / 2))
def test_probabilities_lie_in_the_unit_interval(run):
    n, schedule, step = run
    traces = (evolve(EffectiveState.initial(SearchSpace(n)), schedule, step),
              # the full space costs 2^n a sample: its n stays small
              full_space_reference(SearchSpace(min(n, 6)), schedule, step, solution_index=0))
    for trace in traces:
        for p in (trace.prob_s, trace.prob_i):
            assert np.all((0.0 <= p) & (p <= 1.0)), p.max()


def test_points_repeat_the_columns():
    space = SearchSpace(7)
    schedule = ControlSchedule((Segment(0.7, 1.3, 0.4), Segment(0.9, 0.0, 0.0),
                                Segment(0.4, 0.2, 2.5)))
    trace = evolve(EffectiveState.initial(space), schedule, 0.15)
    rows = list(zip(*_columns_as_lists(trace)))
    assert len(trace.points) == len(rows)
    for p, row in zip(trace.points, rows):
        assert (p.t, p.omega_i, p.omega_s, p.obs.p_s, p.obs.p_i, p.obs.a.real, p.obs.a.imag,
                p.obs.alpha_ab, p.norm_error) == row
        assert type(p.obs.p_s) is float and type(p.t) is float
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
    wrapped = np.remainder(full.alpha_ab - reduced.alpha_ab + math.pi, 2 * math.pi) - math.pi
    assert np.max(np.abs(wrapped)) <= 1e-9


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


# ---------------------------------------------------------- the row writer

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


# signed zeros, subnormals and the ends of double range
_ROW_POOL = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 1e308, -1e308,
             1.7976931348623157e308, 1.0, 1.0 / 3.0)


@st.composite
def _row_columns(draw):
    """Columns of one length: some hold at most half as many distinct values
    as rows, drawn from a few pool entries; the others hold only distinct
    values."""
    size = draw(st.integers(0, 24))
    columns = []
    for repeated in draw(st.lists(st.booleans(), min_size=1, max_size=9)):
        if repeated:
            picks = draw(st.lists(st.integers(0, len(_ROW_POOL) - 1), min_size=1,
                                  max_size=max(1, size // 2)))
            columns.append([_ROW_POOL[draw(st.sampled_from(picks))] for _ in range(size)])
        else:
            columns.append(draw(st.lists(
                st.one_of(st.sampled_from(_ROW_POOL),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=size, max_size=size, unique_by=lambda v: struct.pack("<d", v))))
    return columns


@settings(max_examples=200, deadline=None)
@given(_row_columns(), st.integers(0, 3), st.integers(0, 4))
def test_distinct_values_format_as_every_cell(columns, level, indent):
    # keys that hold "%" and a whole "%.17g" must stay text between the cells
    keys = ("%.17g", *(f"k%{i}" for i in range(1, len(columns))))
    rows = FloatRows(keys, columns)
    for texts in (("\n", *[","] * (len(columns) - 1), ""), _json_row_texts(keys, indent, level)):
        assert "".join(rows.blocks(texts)).split("\n") == _old_join(rows, texts).split("\n")


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# finite doubles with every bit pattern equally likely (NaN and infinity excluded)
_any_finite = st.integers(0, 2 ** 64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF).map(
    _from_bits)


def _with_neighbours(values):
    return [float(w) for v in values for w in (np.nextafter(v, 0.0), v, np.nextafter(v, math.inf))]


_POWERS_OF_TEN = _with_neighbours(float(f"1e{k}") for k in range(-300, 300))
# 1e-5 and 1e-4 bound the fixed form from below, 1e16 and 1e17 from above
_G_SWITCHES = _with_neighbours((1e-5, 1e-4, 1e16, 1e17))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_any_finite, min_size=1, max_size=40), min_size=1, max_size=3)
       .map(lambda cols: [c[:min(map(len, cols))] for c in cols]))
# exact ties, which %.17g rounds half to even: 1.00000762939453125 and 1.00002288818359375
@example([[1.0 + 2.0 ** -17, 1.0 + 3.0 * 2.0 ** -17, -(1.0 + 3.0 * 2.0 ** -17)]])
@example([_POWERS_OF_TEN, [-v for v in _POWERS_OF_TEN]])
@example([[5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0]])
@example([_G_SWITCHES, [-v for v in _G_SWITCHES]])
def test_writer_equals_percent_17g_on_any_bit_pattern(columns):
    rows = FloatRows(tuple(f"c{i}" for i in range(len(columns))), columns)
    texts = ("\n", *[","] * (len(columns) - 1), "")
    assert "".join(rows.blocks(texts)).split("\n") == \
        "".join(_template(texts) % row for row in zip(*columns)).split("\n")


def test_rows_split_into_blocks_join_as_one(monkeypatch):
    # a block boundary falls between rows, and each row starts with its own text
    monkeypatch.setattr(serialize, "BLOCK_ROWS", 4)
    trace = evolve(EffectiveState.initial(SearchSpace(6)),
                   ControlSchedule((Segment(0.7, 1.3, -0.0), Segment(0.9, 0.0, 2.5))), 0.1)
    rows = trace_to_obj(trace)
    assert len(rows) > 3 * serialize.BLOCK_ROWS
    for texts in (_TRACE_CSV_ROW, _json_row_texts(rows.keys, 2, 1)):
        assert "".join(rows.blocks(texts)).split("\n") == _old_join(rows, texts).split("\n")


_RAMP = [0.5, 1.0 / 3.0, -2.0, 7.25, 1e-300, 3e20, -0.0, 0.0, 1e-5, 123456.0]


def _constant_columns():
    """Columns of one length in which some or all hold one bit pattern."""
    return [
        pytest.param([[1.5] * 10, [-0.0] * 10, [2.0] * 10], id="every-column-constant"),
        pytest.param([[-0.0] * 10, [0.0] * 10, _RAMP], id="negative-zero-beside-zero"),
        pytest.param([[5e-324] * 10, _RAMP, [-1.7976931348623157e308] * 10, [1e16] * 10,
                      [1e-5] * 10], id="range-ends-and-g-switches"),
        pytest.param([[0.1], [-0.0], [3.0]], id="one-row"),
        pytest.param([[], [], []], id="zero-rows"),
    ]


@pytest.mark.parametrize("columns", _constant_columns())
@pytest.mark.parametrize("block_rows", [4096, 4], ids=["one-block", "block-edges"])
def test_constant_columns_format_as_every_cell(monkeypatch, columns, block_rows):
    # a constant column is formatted once into the text around it; with four
    # rows a block, the ten-row columns cross two block edges.  The keys hold
    # what JSON escapes (NUL, a quote, a backslash, a newline, non-ASCII) and "%".
    monkeypatch.setattr(serialize, "BLOCK_ROWS", block_rows)
    keys = ("%.17g", 'q"\\\n', "\0\u00e9%", *(f"k%{i}" for i in range(3, len(columns))))
    rows = FloatRows(keys, columns)
    for texts in (("\n", *[","] * (len(columns) - 1), ""), _json_row_texts(keys, 2, 1)):
        blocks = rows.blocks(texts)
        expected = "".join(_template(texts) % row for row in zip(*columns))
        assert "".join(blocks) == expected == _old_join(rows, texts)
        assert len(blocks) == -(-len(rows) // block_rows)
    assert dumps17({"x": rows}) == _old_dumps17({"x": [dict(zip(keys, row))
                                                       for row in zip(*columns)]})


def test_a_one_segment_trace_formats_its_constant_columns_once(monkeypatch):
    # omega_i and omega_s hold one value in every row of a ballistic trace:
    # seven columns of cells reach _cell_slots, not nine
    sizes = []
    cell_slots = serialize._cell_slots

    def recording(x):
        sizes.append(x.size)
        return cell_slots(x)

    monkeypatch.setattr(serialize, "_cell_slots", recording)
    schedule = ballistic_schedule(SearchSpace(12), 1.0)
    trace = evolve(EffectiveState.initial(SearchSpace(12)), schedule,
                   schedule.total_duration / 1000)
    rows = trace_to_obj(trace)
    csv = trace_to_csv(trace)
    assert sizes == [7 * len(rows)]
    assert csv == serialize.TRACE_CSV_HEADER + _old_join(rows, _TRACE_CSV_ROW) + "\n"
    assert dumps17(rows) == "[\n" + _old_join(rows, _json_row_texts(rows.keys, 2, 0))[2:] + "\n]"
    assert sizes == [7 * len(rows)] * 2


def test_power_of_ten_table_is_exact_to_2_to_the_minus_104():
    for k, scale, hi, lo in zip(range(serialize._K0, 346), serialize._SCALE, serialize._HI,
                                serialize._LO):
        exact = Fraction(10) ** k
        approx = (Fraction(float(hi)) + Fraction(float(lo))) * Fraction(float(scale))
        assert abs(approx - exact) <= exact / 2 ** 104, k


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


@pytest.mark.parametrize("texts, message", [
    pytest.param(("", ""), "one text more than columns is required", id="too-few-texts"),
    pytest.param(("", ",", ",", ""), "one text more than columns is required",
                 id="too-many-texts"),
    pytest.param(("", "\0", ""), "a row text holds no NUL", id="a-nul-in-a-text"),
])
def test_rows_refuse_texts_that_do_not_fit(texts, message):
    rows = FloatRows(("a", "b"), (np.zeros(2), np.ones(2)))
    with pytest.raises(ConsistencyError) as raised:
        rows.blocks(texts)
    assert str(raised.value) == message and raised.value.offending_input == texts


def test_rows_read_back_as_the_old_dicts():
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
        assert json.loads(dumps17(rows)) == old
    assert trace_to_csv(_without_rows(trace)) == _old_trace_to_csv([])
    assert schedule_from_obj(json.loads(dumps17(schedule_to_obj(schedule)))) == schedule


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
            propagate(state, _overflowing_schedule(), np.ones(1))


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
