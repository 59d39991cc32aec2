"""Edge values shared by the CLI fuzzer and the library contract property:
zero and negative values, the smallest subnormal, values near the ends of
double range, ±inf and NaN, mixed with a few ordinary magnitudes; and, for
the library, values that are not a real number at all."""

import math
import sys
from decimal import Decimal

import numpy as np

EDGE_FLOATS = (
    0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e-30, 1e-20, 0.01, 0.5, 1.0, 8.0, 48.5, 300.0, 1e16,
    1e69, 1e300, 1e308, sys.float_info.max, math.inf, -math.inf, math.nan)

# as CLI flag values, and as durations with every unit suffix
NUMBERS = tuple(map(repr, EDGE_FLOATS))
DURATIONS = tuple(f"{x}{unit}" for x in NUMBERS for unit in ("s", "a", "Ga", "Ta"))

# where the library takes one real number: text, null, a list, a complex
# number, arrays of two values and of one, and a Decimal
NON_REALS = ("40", None, [40], 1j, np.array([1.0, 2.0]), np.array([40.0]), Decimal("40"))
