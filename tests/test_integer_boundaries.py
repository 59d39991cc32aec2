"""The integer answers next to their boundaries.

Each solver rounds a real n with ``ceil_tol`` or ``floor_tol``, which snap
a value within 1e-9 of an integer to it.  These cases are built so that
the exact n lies 1e-13 to 1e-7 bit from an integer between 2 and the top
of its reach (up to the 4096 bracket), on both sides of the integer and
on both sides of the snap band's edge.  The integer each function returns
must be the 60-digit n of its own double inputs, snapped the same way.
"""

import random

import mpmath
import pytest

from qlimits.bht import bht_min_image_bits
from qlimits.constants import H, HBAR, K_B
from qlimits.keylength import (
    classical_keylength,
    equivalent_quantum_keylength,
    max_deterministic_keylength,
    max_recoverable_keylength,
)

CASES = 300
SNAP = mpmath.mpf("1e-9")


def snapped(n, rounding):
    """``ceil_tol`` or ``floor_tol`` on an mpmath value."""
    r = mpmath.nint(n)
    return int(r) if abs(n - r) <= SNAP else int(rounding(n))


def target(rng, top):
    """An n 1e-13 to 1e-7 bit above or below an integer in [2, top], as an
    mpmath value: a double near 4096 is 9e-13 apart from the next."""
    offset = mpmath.mpf(10.0 ** rng.uniform(-13.0, -7.0))
    return rng.randint(2, top) + rng.choice((-1, 1)) * offset


def split(rng, log2_product):
    """(a, b), doubles whose product is 2^log2_product (an mpmath value, up to
    the rounding of b), each within 2^±1000."""
    half = 0.5 * float(log2_product)
    lo, hi = max(-1000.0, 2.0 * half - 1000.0), min(1000.0, 2.0 * half + 1000.0)
    a = 2.0 ** min(max(half + rng.uniform(-200.0, 200.0), lo), hi)
    return a, float(mpmath.mpf(2) ** log2_product / a)


def e_landauer(temp):
    return mpmath.mpf(K_B) * temp * mpmath.log(2)


def bath(rng):
    """A temperature: absolute zero one time in five, else 1e-5 to 1e8 K."""
    return 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-5.0, 8.0)


def quantum_case(rng):
    """(W, t, P_s) and the exact n = log2(((W t / hbar)^2 + 1) / P_s)."""
    n = target(rng, 4095)
    p = 2.0 ** -rng.uniform(0.0, min(float(n) - 1.0, 1000.0))  # 2^n P_s >= 2
    log2_action = mpmath.log(mpmath.sqrt(mpmath.mpf(2) ** n * p - 1) * HBAR, 2)
    work, time = split(rng, log2_action)
    exact = mpmath.log(((mpmath.mpf(work) * time / HBAR) ** 2 + 1) / p, 2)
    return (work, time, p), exact


def deterministic_case(rng):
    """(W, t) and the exact n = 2 log2(2 W t / (pi hbar) - 1)."""
    n = target(rng, 4095)
    work, time = split(rng, mpmath.log((1 + mpmath.mpf(2) ** (n / 2)) * mpmath.pi * HBAR / 2, 2))
    exact = 2 * mpmath.log(2 * mpmath.mpf(work) * time / (mpmath.pi * HBAR) - 1, 2)
    return (work, time), exact


def classical_case(rng):
    """(W, t, T, P_s) and the exact root of 2^n P_s (E_L + h/4t) + 2n E_L = W,
    solved in log2.  The least per-guess cost and P_s reach n near 3000 at
    T = 0, and 2000 above."""
    while True:
        n = target(rng, 3000)
        time, temp = 10.0 ** rng.uniform(-30.0, 300.0), bath(rng)
        e_l = e_landauer(temp)
        per_guess = e_l + mpmath.mpf(H) / (4 * mpmath.mpf(time))
        # log2 W ~ n + log2 P_s + log2 per_guess, kept within 2^±1000
        rest = float(n + mpmath.log(per_guess, 2))
        lo, hi = max(-1022.0, -1000.0 - rest), min(0.0, 1000.0 - rest)
        if lo < hi:
            break
    p = 2.0 ** rng.uniform(lo, hi)
    work = float(mpmath.mpf(2) ** n * p * per_guess + 2 * n * e_l)

    def excess(m):
        return mpmath.log(mpmath.mpf(2) ** m * p * per_guess + 2 * m * e_l, 2) - mpmath.log(work, 2)

    return (work, time, temp, p), mpmath.findroot(excess, mpmath.mpf(n))


def image_case(rng):
    """(W, t, T, P_s) and the exact root of log2 W*(n) = log2 W, with
    W* = (2^n P_s x)^(1/3) 1.25 hbar / t and x = (n + 1) E_L 4t/hbar + 2 pi."""
    while True:
        n = target(rng, 4095)
        time, temp = 10.0 ** rng.uniform(-30.0, 300.0), bath(rng)
        e_l = e_landauer(temp)

        def log2_w(m, p):
            x = (m + 1) * e_l * 4 * time / mpmath.mpf(HBAR) + 2 * mpmath.pi
            return (m + mpmath.log(p * x, 2)) / 3 + mpmath.log(mpmath.mpf(1.25) * HBAR / time, 2)

        rest = float(log2_w(n, 1))  # log2 W at P_s = 1; P_s moves it by log2(P_s) / 3
        lo, hi = max(-1022.0, 3.0 * (-1000.0 - rest)), min(0.0, 3.0 * (1000.0 - rest))
        if lo < hi:
            break
    p = 2.0 ** rng.uniform(lo, hi)
    work = float(mpmath.mpf(2) ** log2_w(n, p))
    log2_work = mpmath.log(work, 2)
    return (work, time, temp, p), mpmath.findroot(lambda m: log2_w(m, p) - log2_work,
                                                  mpmath.mpf(n))


SOLVERS = {
    "equivalent_quantum_keylength": (equivalent_quantum_keylength, quantum_case, mpmath.ceil),
    "max_recoverable_keylength": (max_recoverable_keylength, quantum_case, mpmath.floor),
    "max_deterministic_keylength": (max_deterministic_keylength, deterministic_case,
                                    mpmath.floor),
    "classical_keylength": (classical_keylength, classical_case, mpmath.ceil),
    "bht_min_image_bits": (bht_min_image_bits, image_case, mpmath.ceil),
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_integer_is_the_snapped_sixty_digit_n(name):
    solver, case, rounding = SOLVERS[name]
    rng = random.Random(f"integer-boundaries-{name}")
    offsets = []
    with mpmath.workdps(60):
        for _ in range(CASES):
            args, exact = case(rng)
            offsets.append(float(exact - mpmath.nint(exact)))
            assert solver(*args) == snapped(exact, rounding), (args, float(exact))
    # the cases reach both sides of the integer, inside and outside the snap band
    bands = {(d > 0.0, abs(d) <= 1e-9) for d in offsets}
    assert len(bands) == 4 and all(1e-14 <= abs(d) <= 2e-7 for d in offsets)
