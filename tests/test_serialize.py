import json
import math

import pytest

from qlimits.constants import HBAR
from qlimits.dynamics import ControlSchedule, EffectiveState, SearchSpace, Segment, evolve
from qlimits.errors import ParseError
from qlimits.serialize import (
    TRACE_CSV_HEADER,
    dumps17,
    format_float17,
    result_to_csv,
    schedule_from_obj,
    schedule_to_obj,
    trace_to_csv,
    trace_to_obj,
)


def sample_trace():
    space = SearchSpace(4)
    schedule = ControlSchedule((Segment(1.0, 1.2, 0.3), Segment(0.5, 0.0, 2.0)))
    return evolve(EffectiveState.initial(space), schedule, 0.25)


def test_float17_round_trips():
    for x in (0.1, 1e16, HBAR, math.pi, 2.0**-52, 4.6e69):
        assert float(format_float17(x)) == x


def test_dumps17_is_valid_json_and_deterministic():
    payload = {"a": [1.0 / 3.0, 2], "b": {"c": None, "d": True}, "e": "text"}
    text = dumps17(payload)
    assert json.loads(text) == {
        "a": [pytest.approx(1.0 / 3.0), 2],
        "b": {"c": None, "d": True},
        "e": "text",
    }
    assert text == dumps17(payload)


def test_trace_csv_header_and_width():
    trace = sample_trace()
    csv = trace_to_csv(trace)
    lines = csv.strip().split("\n")
    assert lines[0] == TRACE_CSV_HEADER
    assert len(lines) == len(trace.points) + 1
    assert all(len(line.split(",")) == 9 for line in lines[1:])


def test_trace_csv_numbers_parse_back():
    trace = sample_trace()
    lines = trace_to_csv(trace).strip().split("\n")[1:]
    first = [float(cell) for cell in lines[0].split(",")]
    assert first[0] == 0.0
    assert first[3] == trace.points[0].obs.p_s


def test_trace_obj_matches_csv_fields():
    trace = sample_trace()
    obj = trace_to_obj(trace)
    assert len(obj) == len(trace.points)
    assert obj[-1]["P_s"] == trace.points[-1].obs.p_s
    assert set(obj[0]) == {
        "t_s", "omega_i", "omega_s", "P_s", "P_i", "re_A", "im_A",
        "alpha_ab", "norm_error",
    }


def test_schedule_round_trip():
    schedule = ControlSchedule((Segment(1.5, 0.7, 0.0), Segment(2.5, 0.0, 0.7)))
    again = schedule_from_obj(schedule_to_obj(schedule))
    assert again.segments == schedule.segments


def test_schedule_parse_errors():
    with pytest.raises(ParseError):
        schedule_from_obj({"not_segments": []})
    with pytest.raises(ParseError):
        schedule_from_obj({"segments": [{"duration_s": 1.0}]})


def test_result_csv_flattens_nested_keys_and_a_dict_is_one_row():
    doc = {"value": 0.1, "inputs": {"n": 8, "temperature_K": None}, "ok": True,
           "tags": ["a", 1.5], "kind": "quantum"}
    text = result_to_csv(doc)
    assert text == ("value,inputs.n,inputs.temperature_K,ok,tags,kind\n"
                    '0.10000000000000001,8,,true,["a", 1.5],quantum\n')
    assert result_to_csv([doc]) == text


def test_result_csv_takes_its_header_from_the_first_row():
    rows = [{"a": 1, "b": 2.0}, {"b": 3.0, "c": "x"}]
    assert result_to_csv(rows) == "a,b\n1,2\n,3\n"
    assert result_to_csv([]) == "\n"
