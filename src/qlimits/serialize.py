"""Deterministic serialization: 17-significant-digit JSON and CSV.

The stdlib JSON encoder formats floats with ``repr`` (shortest
round-trip), which is deterministic but not fixed-width; results here are
specified to carry 17 significant digits so reruns are byte-identical and
consumers can diff files textually.  A small recursive writer keeps full
control of the float format.  Blocks of float rows under fixed keys
(traces and schedules) are :class:`FloatRows`, whose cells are formatted to
the bytes of ``%.17g`` in numpy array passes, for JSON and CSV alike.
"""

from __future__ import annotations

import json
import math
import re
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


def _csv_cells(obj, prefix: str = ""):
    """(dotted key, cell text) of every leaf of a result document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _csv_cells(value, f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        yield prefix[:-1], json.dumps(obj)
    elif isinstance(obj, bool):
        yield prefix[:-1], "true" if obj else "false"
    elif isinstance(obj, float):
        yield prefix[:-1], format_float17(obj)
    else:
        yield prefix[:-1], "" if obj is None else str(obj)


def result_to_csv(doc) -> str:
    """A result document as CSV: one row per dict of a list, or one for a
    lone dict.  Nested keys join with dots, lists stay JSON text, and the
    first row's keys are the header."""
    rows = [dict(_csv_cells(row)) for row in (doc if isinstance(doc, list) else [doc])]
    header = list(rows[0]) if rows else []
    lines = [",".join(header)] + [",".join(row.get(key, "") for key in header) for row in rows]
    return "\n".join(lines) + "\n"


class FloatRows:
    """Rows of finite float columns under fixed keys, formatted in bulk.

    The writers format the columns directly, as JSON objects or CSV lines.
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

    def join(self, template: str, sep: str) -> str:
        """Every row through ``template % row`` (a ``%.17g`` slot per column), joined
        by ``sep``: BLOCK_ROWS rows at a time, the columns formatted by :func:`_cell_slots`
        (each keeps the slots some cell of it uses) and the template's text broadcast."""
        literals = _template_literals(template, sep)
        if len(literals) != len(self.columns) + 1:
            raise ConsistencyError("one %.17g slot per column is required", template)
        pieces = []
        for start in range(0, len(self), BLOCK_ROWS):
            columns = [c[start:start + BLOCK_ROWS] for c in self.columns]
            rows = columns[0].size
            slots = _cell_slots(np.concatenate(columns)).reshape(44, len(columns), rows)
            used = slots.any(axis=2)
            parts = [np.broadcast_to(literals[0], (literals[0].size, rows))]
            for j, literal in enumerate(literals[1:]):
                parts += [slots[_ORDER[used[_ORDER, j]], j],
                          np.broadcast_to(literal, (literal.size, rows))]
            text = np.concatenate(parts).T.tobytes().translate(None, b"\0").decode()
            pieces.append(text if start else text[len(sep):])  # no sep before the first row
        return "".join(pieces)


@lru_cache(maxsize=64)
def _template_literals(template: str, sep: str) -> tuple:
    """The text around the ``%.17g`` slots of a row template, ``sep`` first,
    as uint8 columns; ``%%`` is a literal ``%``."""
    literals = [sep]
    for piece in re.split(r"(%%|%\.17g)", template):
        if piece == "%.17g":
            literals.append("")
        else:
            literals[-1] += "%" if piece == "%%" else piece
    if "\0" in template + sep:  # NUL marks an unused slot
        raise ConsistencyError("a row template holds no NUL", template)
    return tuple(np.frombuffer(s.encode(), np.uint8)[:, None] for s in literals)


# Rows per pass of FloatRows.join, which bounds its temporaries.
BLOCK_ROWS = 4096
_K0, _E0 = -300, -324  # the least power of ten in the table, the least exponent X


def _pow10_table():
    """(scale, hi, lo) per k = 16 - X in [-300, 345]: 10^k = (hi + lo)·scale to 2^-106,
    from exact integers; scale = 2^g, hi in [1, 2) (2^200·[1, 2) where 2^g overflows)."""
    rows = []
    for k in range(_K0, 346):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        g = num.bit_length() - den.bit_length()
        g -= (num << max(0, -g)) < (den << max(0, g))  # num/den = f·2^g, f in [1, 2)
        m = (num << max(0, 116 - g)) // (den << max(0, g - 116))  # floor(f·2^116)
        t = 200 if g > 1000 else 0
        rows.append((math.ldexp(1.0, g - t), math.ldexp(float(m), t - 116),
                     math.ldexp(float(m - int(float(m))), t - 116)))
    return np.array(rows).T


_SCALE, _HI, _LO = _pow10_table()
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into 26-bit halves
_HI_HI = _HI * _SPLIT - (_HI * _SPLIT - _HI)
_HI_LO = _HI - _HI_HI
# by exponent X, the NUL-padded text before the digits ("0.000") and after ("e+308")
_AFFIX = np.frombuffer("".join(("0." + "0" * (-1 - e) if -4 <= e < 0 else "\0" * 5 + (
    "e%+03d" % e if not 0 <= e < 17 else "")).ljust(10, "\0") for e in range(_E0, 309)).encode(),
    np.uint8).reshape(-1, 10).T.copy()
# slots 0-4 prefix, 5-9 suffix, 10 sign, 11 + 2j digit j, 12 + 2j its point; in text order:
_ORDER = np.array([10, *range(5), *range(11, 44), *range(5, 10)])


def _digits(a):
    """(D, X, flagged) for finite a > 0: D = round(a·10^(16-X)), its 17 digits, by
    Dekker's two-product in double-double.  D is exact unless flagged: within 1e-6
    of a tie, a carry to 10^17, or a wrong X from log10 (D outside [10^16, 10^17))."""
    x = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - _K0 - x
    m = a * _SCALE[k]
    hh, hl = _HI_HI[k], _HI_LO[k]
    c = m * _SPLIT
    mh = c - (c - m)
    ml = m - mh
    p = m * (hh + hl)
    s = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * _LO[k]
    r_hi = p + s  # an integer, as R >= 10^16 > 2^53 unless flagged
    r_lo = s - (r_hi - p)
    floor = np.floor(r_lo)
    frac = r_lo - floor
    whole = r_hi.astype(np.int64) + floor.astype(np.int64)
    d = whole + (frac > 0.5)
    return d, x, (np.abs(frac - 0.5) < 1e-6) | (whole < 10 ** 16) | (d >= 10 ** 17)


def _cell_slots(x):
    """(44, n) uint8: the ``%.17g`` text of each finite cell of x in fixed
    slots, one row per slot; NUL marks an unused slot."""
    a = np.abs(x)
    zero = a == 0
    d, e, flagged = _digits(np.where(zero, 1.0, a))
    if flagged.any():  # correctly rounded by Python's own formatting
        text = ["%.16e" % v for v in a[flagged].tolist()]
        d[flagged] = [int(t[0] + t[2:18]) for t in text]
        e[flagged] = [int(t[19:]) for t in text]
    d[zero] = 0  # and X = 0, as for 1.0
    out = np.zeros((44, x.size), np.uint8)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=out[10])
    halves = np.empty((2, x.size), np.uint32)  # D as 0 + 8 and 9 digits
    np.floor_divide(d, 10 ** 9, out=halves[0], casting="unsafe")
    halves[1] = d - halves[0] * np.int64(10 ** 9)
    digits = np.empty((2, 9, x.size), np.uint8)
    for j in range(8, -1, -1):
        quotient = halves // 10
        digits[:, j] = halves - quotient * 10
        halves = quotient
    digits = digits.reshape(18, x.size)[1:]
    keep = digits != 0  # %g drops trailing zeros, but not those of an integer part
    for j in range(15, -1, -1):
        keep[j] |= keep[j + 1]
    sci = (e < -4) | (e > 16)
    point = np.where(sci, 0, e)  # the digit a '.' follows, if any digit follows it
    for j in range(point.max() + 1):
        keep[j] |= point >= j
    np.multiply(digits + np.uint8(ord("0")), keep, out=out[11:44:2])
    for p in np.flatnonzero(np.bincount(point + 4, minlength=20)[4:20]).tolist():
        np.multiply((point == p) & keep[p + 1], np.uint8(ord(".")), out=out[12 + 2 * p])
    least = point.min()  # "0." and -1 - least zeros are the most a prefix holds
    for r in [*range(1 - least if least < 0 else 0), *(range(5, 10) if sci.any() else ())]:
        np.take(_AFFIX[r], e - _E0, out=out[r])
    return out


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
    """Parse the schedule-file schema {"segments": [{duration_s, ...}]}, as
    ``json.load`` gives it; every field holds a JSON number."""
    from .dynamics import ControlSchedule

    if not isinstance(obj, dict) or not isinstance(obj.get("segments"), list):
        raise ParseError("schedule JSON must contain a 'segments' array", obj)
    rows = []
    for i, entry in enumerate(obj["segments"]):
        try:
            row = [entry[key] for key in _SCHEDULE_FIELDS]
            if not all(type(v) in (int, float) for v in row):  # true, text, null
                raise TypeError("segment fields must be JSON numbers")
            rows.append([float(v) for v in row])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ParseError(f"bad schedule segment #{i}: {exc}", entry) from None
    return ControlSchedule(rows)
