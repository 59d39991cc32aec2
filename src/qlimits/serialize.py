"""Deterministic serialization: 17-significant-digit JSON and CSV.

The stdlib JSON encoder formats floats with ``repr`` (shortest
round-trip), which is deterministic but not fixed-width; results here are
specified to carry 17 significant digits so reruns are byte-identical and
consumers can diff files textually.  A small recursive writer keeps full
control of the float format.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Any

from .errors import ParseError


def format_float17(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


@lru_cache(maxsize=256, typed=True)
def _encoded_key(key) -> str:
    return json.dumps(str(key))


def _write(obj: Any, out: list[str], indent: int, level: int) -> None:
    kind = type(obj)
    if kind is float:
        out.append(format_float17(obj))
    elif kind is dict:
        _write_dict(obj, out, indent, level)
    elif kind is list:
        _write_list(obj, out, indent, level)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float17(obj))
    elif isinstance(obj, complex):
        _write_dict({"re": obj.real, "im": obj.imag}, out, indent, level)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        _write_dict(obj, out, indent, level)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_dict(obj: dict, out: list[str], indent: int, level: int) -> None:
    if not obj:
        out.append("{}")
        return
    pad = " " * (indent * (level + 1))
    out.append("{\n")
    for key, value in obj.items():
        if type(value) is float:
            out.append(f"{pad}{_encoded_key(key)}: {format_float17(value)},\n")
        else:
            out.append(f"{pad}{_encoded_key(key)}: ")
            _write(value, out, indent, level + 1)
            out.append(",\n")
    out[-1] = out[-1][:-2] + "\n"
    out.append(" " * (indent * level) + "}")


def _write_list(obj, out: list[str], indent: int, level: int) -> None:
    if not obj:
        out.append("[]")
        return
    pad = " " * (indent * (level + 1))
    out.append("[\n")
    for value in obj:
        out.append(pad)
        _write(value, out, indent, level + 1)
        out.append(",\n")
    out[-1] = "\n"
    out.append(" " * (indent * level) + "]")


def dumps17(obj: Any, indent: int = 2) -> str:
    """JSON text with every float at 17 significant digits."""
    out: list[str] = []
    _write(obj, out, indent, 0)
    return "".join(out)


_TRACE_FIELDS = ("t_s", "omega_i", "omega_s", "P_s", "P_i", "re_A", "im_A", "alpha_ab",
                 "norm_error")
TRACE_CSV_HEADER = ",".join(_TRACE_FIELDS)
_TRACE_CSV_ROW = ",".join(["%.17g"] * len(_TRACE_FIELDS))


def _trace_rows(trace):
    """The rows of a trace as tuples of Python floats, in column order."""
    return zip(*(column.tolist() for column in trace.columns()))


def trace_to_csv(trace) -> str:
    """A trace as CSV with the fixed observable column order.

    Trace entries are finite, so plain ``%.17g`` matches
    :func:`format_float17` cell for cell.
    """
    lines = [TRACE_CSV_HEADER]
    lines.extend(map(_TRACE_CSV_ROW.__mod__, _trace_rows(trace)))
    return "\n".join(lines) + "\n"


def trace_to_obj(trace) -> list[dict]:
    """The JSON-array form of a trace (same fields as the CSV)."""
    return [dict(zip(_TRACE_FIELDS, row)) for row in _trace_rows(trace)]


def schedule_to_obj(schedule) -> dict:
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


def schedule_from_obj(obj: dict):
    """Parse the schedule-file schema {"segments": [{duration_s, ...}]}."""
    from .dynamics import ControlSchedule, Segment

    if not isinstance(obj, dict) or "segments" not in obj:
        raise ParseError("schedule JSON must contain a 'segments' array", obj)
    segs = []
    for i, entry in enumerate(obj["segments"]):
        try:
            segs.append(
                Segment(
                    float(entry["duration_s"]),
                    float(entry["omega_i_radps"]),
                    float(entry["omega_s_radps"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad schedule segment #{i}: {exc}", entry) from None
    return ControlSchedule(tuple(segs))
