"""Shared numerics: log2-space arithmetic, root-finders and tolerant rounding.

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


_SQRT_HALF = math.sqrt(0.5)


def find_root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of a monotone-increasing f, f_lo = f(lo) <= 0 < f_hi = f(hi), to
    1e-12 relative.

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse quadratic or secant steps, and bisection
    where they would not shrink fast enough.  The returned x is one end of
    a sign-change bracket whose other end lies within 1e-12 |x| of it.  Past
    the two ends, which the caller has evaluated, the near-linear bound
    inversions take three to six evaluations, bisection about 42.  A
    bisection is also forced whenever the bracket's half-width exceeds
    |hi - lo| 2^(-k/2) after k steps, so no f takes more than about twice
    bisection's count.
    """
    a, fa = lo, f_lo
    b, fb = hi, f_hi
    c, fc = a, fa
    d = e = b - a
    cap = abs(b - a)
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best estimate, c the other end
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5e-12 * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        cap *= _SQRT_HALF  # the bracket must halve every two steps, or bisect
        if abs(e) < tol or abs(fa) <= abs(fb) or abs(m) > cap:
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, a: float, b: float) -> float:
    """argmin of a unimodal f on [a, b], to an absolute bracket width 1e-14."""
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
