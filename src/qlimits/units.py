"""Duration parsing and formatting.

Only the time units the bounds actually use are supported:

====== ======================== =================
suffix meaning                  seconds
====== ======================== =================
``s``  second                   1
``a``  Julian year              3.15576e7
``Ga`` giga-year (1e9 a)        3.15576e16
``Ta`` tera-year (1e12 a)       3.15576e19
====== ======================== =================

Formatting picks the largest unit whose textual form parses back to the
exact same float, so ``parse_duration(format_duration(x)) == x`` always.
"""

from __future__ import annotations

import math
import re
import sys

from .constants import JULIAN_YEAR
from .errors import ParseError

_SUFFIXES = {
    "s": 1.0,
    "a": JULIAN_YEAR,
    "Ga": 1e9 * JULIAN_YEAR,
    "Ta": 1e12 * JULIAN_YEAR,
}

_DURATION_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(Ta|Ga|a|s)\s*$"
)


def parse_duration(text: str) -> float:
    """Parse a duration like ``"5a"`` or ``"1.5s"`` into seconds."""
    if not isinstance(text, str):
        raise ParseError(f"duration must be a string, got {text!r}", text)
    m = _DURATION_RE.match(text)
    if m is None:
        raise ParseError(
            f"cannot parse duration {text!r}: expected NUMBER followed by "
            f"one of {sorted(_SUFFIXES)}",
            text,
        )
    value = float(m.group(1))
    if value < 0.0:
        raise ParseError(f"duration must be non-negative, got {m.group(1)!r}", text)
    seconds = value * _SUFFIXES[m.group(2)]
    if seconds == math.inf:
        raise ParseError(f"duration {text!r} lies past double range", text)
    return seconds


def format_duration(seconds: float) -> str:
    """Format seconds using the largest unit that round-trips exactly; all
    but a finite real number >= 0 is a :class:`ParseError`."""
    if not isinstance(seconds, (int, float)) or not 0.0 <= seconds <= sys.float_info.max:
        raise ParseError(f"duration must be a finite number >= 0, got {seconds!r}", seconds)
    seconds = float(seconds)  # an int formats as the double it parses back to
    for suffix in ("Ta", "Ga", "a"):
        scale = _SUFFIXES[suffix]
        scaled = seconds / scale
        if scaled >= 1.0:
            text = f"{scaled!r}{suffix}"
            if parse_duration(text) == seconds:
                return text
    return f"{seconds!r}s"
