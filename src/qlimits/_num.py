"""Shared numerics: log2-space arithmetic, Newton and golden-section solvers, rounding.

Key-length and collision-search work scales involve factors like 2^n for
n up to a few thousand bits, far past the double-precision exponent range.
Everything here keeps such quantities as base-2 logarithms.
"""

from __future__ import annotations

import math

LN2 = math.log(2.0)

# The n bracket of the bound inversions (bits).
N_BRACKET = (1.0, 4096.0)

# Largest log2 that still exponentiates to a finite double.
_MAX_FINITE_LOG2 = 1023.0

# A real key length this close to an integer is that integer.
_SNAP = 1e-9


def exp2(x: float) -> float:
    """2**x as a float, +inf when it overflows."""
    if x > _MAX_FINITE_LOG2 + 1:
        return math.inf
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


def log2_add(a: float, b: float) -> float:
    """log2(2^a + 2^b), safe for any magnitudes."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(2.0 ** (lo - hi)) / LN2


def log2_radical(x: float) -> float:
    """log2(sqrt(2^x - 1)) for x >= 0, without forming 2^x; -inf at x = 0."""
    if x == 0.0:
        return -math.inf
    return 0.5 * (x + math.log2(-math.expm1(-x * LN2)))


_NEWTON_STEPS = 64


def newton(g, x: float) -> float:
    """Root of g by Newton steps from x, g(x) returning (g(x), g'(x)), for a
    g convex and increasing with x above the root, or concave and increasing
    with x below it.  The steps then near the root from one side,
    quadratically, so the loop stops once a step is under 1e-12 max(1, |x|).
    """
    for _ in range(_NEWTON_STEPS):
        value, slope = g(x)
        step = value / slope
        x -= step
        if abs(step) <= 1e-12 * max(1.0, abs(x)):
            break
    return x


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, a: float, b: float) -> float:
    """argmin of a unimodal f on [a, b], narrowed to an absolute bracket width
    1e-14.  Near a flat minimum the rounded values of f stop telling points
    apart before that, so the minimum value is held far more tightly than
    its argument: against 50 digits, optimal_k's prefactor is within 4e-15
    relative while k is off by up to 1e-3 relative (2e-9 absolute), and
    bht_sweep_minimum's W is within 6e-14 relative."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(400):
        if b - a <= 1e-14:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def floor_tol(x: float) -> int:
    """floor(x), snapping values within _SNAP of an integer."""
    r = round(x)
    if abs(x - r) <= _SNAP:
        return int(r)
    return math.floor(x)


def ceil_tol(x: float) -> int:
    """ceil(x), snapping values within _SNAP of an integer."""
    r = round(x)
    if abs(x - r) <= _SNAP:
        return int(r)
    return math.ceil(x)


def sinc(x: float) -> float:
    """Unnormalized sinc: sin(x)/x, with the removable singularity filled in."""
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x
