"""Deterministic serialization: 17-significant-digit JSON and CSV.

The stdlib JSON encoder formats floats with ``repr`` (shortest
round-trip), which is deterministic but not fixed-width; results here are
specified to carry 17 significant digits so reruns are byte-identical and
consumers can diff files textually.  A small recursive writer keeps full
control of the float format.  Blocks of float rows under fixed keys
(traces and schedules) are :class:`FloatRows`, written one ``%``-template
per row in both JSON and CSV.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from functools import lru_cache
from typing import Any

import numpy as np

from .errors import ConsistencyError, ParseError


def format_float17(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


class FloatRows(Sequence):
    """Rows of finite float columns under fixed keys, formatted in bulk.

    The writers format the columns directly; a row becomes a dict (the
    JSON-object form of the row) only when a caller indexes or iterates.
    Every entry must be finite, so plain ``%.17g`` equals
    :func:`format_float17` cell for cell.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns):
        keys = tuple(keys)
        columns = tuple(np.asarray(c, dtype=float) for c in columns)
        shapes = {c.shape for c in columns}
        if len(columns) != len(keys) or len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ConsistencyError("one 1-D column of equal length per key is required", keys)
        if not all(np.isfinite(c).all() for c in columns):
            raise ConsistencyError("row entries must be finite", keys)
        self.keys = keys
        self.columns = columns

    def __len__(self) -> int:
        return self.columns[0].size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return dict(zip(self.keys, [c[index].item() for c in self.columns]))

    def __iter__(self):
        return (dict(zip(self.keys, row)) for row in self._tuples())

    def _tuples(self):
        return zip(*(c.tolist() for c in self.columns))

    def join(self, template: str, sep: str) -> str:
        """Every row through ``template % row``, joined by ``sep``."""
        return sep.join(map(template.__mod__, self._tuples()))


@lru_cache(maxsize=64)
def _json_row_template(keys: tuple[str, ...], indent: int, level: int) -> str:
    """One row of a JSON array at ``level`` as a %-template."""
    pad = " " * (indent * (level + 1))
    inner = " " * (indent * (level + 2))
    fields = ",\n".join(f"{inner}{json.dumps(str(k)).replace('%', '%%')}: %.17g" for k in keys)
    return f"{pad}{{\n{fields}\n{pad}}}"


def _write_rows(rows: FloatRows, out: list[str], indent: int, level: int) -> None:
    if not rows:
        out.append("[]")
        return
    out.append("[\n")
    out.append(rows.join(_json_row_template(rows.keys, indent, level), ",\n"))
    out.append("\n" + " " * (indent * level) + "]")


def _write(obj: Any, out: list[str], indent: int, level: int) -> None:
    if obj is None:
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
    elif isinstance(obj, FloatRows):
        _write_rows(obj, out, indent, level)
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
        out.append(f"{pad}{json.dumps(str(key))}: ")
        _write(value, out, indent, level + 1)
        out.append(",\n")
    out[-1] = "\n"
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
# each row starts its own line, so a trace without rows is the header alone
_TRACE_CSV_ROW = "\n" + ",".join(["%.17g"] * len(_TRACE_FIELDS))
_SCHEDULE_FIELDS = ("duration_s", "omega_i_radps", "omega_s_radps")


def trace_to_csv(trace) -> str:
    """A trace as CSV with the fixed observable column order."""
    rows = FloatRows(_TRACE_FIELDS, trace.columns())
    return TRACE_CSV_HEADER + rows.join(_TRACE_CSV_ROW, "") + "\n"


def trace_to_obj(trace) -> FloatRows:
    """The JSON-array form of a trace (same fields as the CSV)."""
    return FloatRows(_TRACE_FIELDS, trace.columns())


def schedule_to_obj(schedule) -> dict:
    """The schedule-file form {"segments": [{duration_s, ...}]}."""
    return {"segments": FloatRows(_SCHEDULE_FIELDS, schedule.arrays())}


def schedule_from_obj(obj: dict):
    """Parse the schedule-file schema {"segments": [{duration_s, ...}]}."""
    from .dynamics import ControlSchedule

    if not isinstance(obj, dict) or "segments" not in obj:
        raise ParseError("schedule JSON must contain a 'segments' array", obj)
    rows = []
    for i, entry in enumerate(obj["segments"]):
        try:
            rows.append([float(entry[key]) for key in _SCHEDULE_FIELDS])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad schedule segment #{i}: {exc}", entry) from None
    return ControlSchedule(rows)
