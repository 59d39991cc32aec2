import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlimits._num import bisect, ceil_tol, golden_min, log2_radical
from qlimits.bht import _closed_form_log2, bht_min_image_bits
from qlimits.bounds import landauer_energy, optimal_k, prefactor_b

LN2 = math.log(2.0)


def reference_log2_radical(x: float) -> Decimal:
    """log2(sqrt(2^x - 1)) to about 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        y = Decimal(x) * ln2
        if y < Decimal("1e-6"):
            em1 = y + y * y / 2 + y ** 3 / 6 + y ** 4 / 24 + y ** 5 / 120
        else:
            em1 = y.exp() - 1
        return em1.ln() / (2 * ln2)


def radical_rel_error(x: float) -> float:
    """Relative error of sqrt(2^x - 1) as 2^log2_radical(x)."""
    with localcontext() as ctx:
        ctx.prec = 60
        diff = Decimal(log2_radical(x)) - reference_log2_radical(x)
    return abs(float(diff)) * LN2


class TestRadical:
    def test_matches_decimal_reference_over_range(self):
        xs = [float(x) for x in np.logspace(-300, math.log10(2100.0), 1500)]
        xs += [float(x) for x in np.linspace(1e-3, 2100.0, 1500)]
        # where earlier forms of this helper switched formula
        xs += [59.0, 60.0, 61.0, 119.0, 120.0, 121.0, 2100.0]
        xs += [1.0 + i * 1e-4 for i in range(-200, 201)] + [math.nextafter(1.0, 0.0)]
        worst = max(radical_rel_error(x) for x in xs)
        assert worst <= 1e-13

    def test_zero_and_large(self):
        assert log2_radical(0.0) == -math.inf
        assert log2_radical(1.0) == 0.0
        assert log2_radical(4000.0) == 2000.0


class TestBisect:
    @given(
        root=st.floats(min_value=1e-3, max_value=1e3),
        below=st.floats(min_value=1e-6, max_value=0.999),
        above=st.floats(min_value=1e-6, max_value=1e3),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        shape=st.sampled_from(("linear", "cubic", "atan", "log")),
    )
    @settings(max_examples=300, deadline=None)
    def test_finds_root_of_monotone_function(self, root, below, above, scale, shape):
        lo, hi = root * (1.0 - below), root * (1.0 + above)
        forms = {
            "linear": lambda x: scale * (x - root),
            "cubic": lambda x: scale * (x - root) ** 3,
            "atan": lambda x: math.atan(scale * (x - root)),
            "log": lambda x: math.log(x / root),
        }
        found = bisect(forms[shape], lo, hi)
        assert abs(found - root) <= 1e-12 * root

    def test_root_at_lower_end(self):
        assert bisect(lambda x: x - 2.0, 2.0, 5.0) == pytest.approx(2.0, rel=1e-12)


class TestGoldenMin:
    @given(
        left=st.floats(min_value=-10.0, max_value=10.0),
        width=st.floats(min_value=1e-13, max_value=10.0),
        where=st.floats(min_value=0.0, max_value=1.0),
        shape=st.sampled_from(("abs", "square", "quartic")),
    )
    @settings(max_examples=300, deadline=None)
    def test_finds_minimum_of_unimodal_function(self, left, width, where, shape):
        a, b = left, left + width
        m = a + where * (b - a)
        forms = {
            "abs": lambda x: abs(x - m),
            "square": lambda x: (x - m) ** 2,
            "quartic": lambda x: (x - m) ** 4 + abs(x - m),
        }
        # the bracket ends 1e-14 wide; its midpoint is then within half of
        # that of m, plus a few ulps of m lost in comparing f near m
        assert abs(golden_min(forms[shape], a, b) - m) <= 0.5e-14 + 8 * math.ulp(20.0)


def old_optimal_k(n, bracket=(0.0, 1e-2), tol=1e-14):
    """optimal_k's golden-section loop as it was before the shared helper."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = bracket
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = prefactor_b(c, n), prefactor_b(d, n)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = prefactor_b(c, n)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = prefactor_b(d, n)
    return 0.5 * (a + b)


def old_min_image_bits(work_budget, t_total, temperature, p_success):
    """bht_min_image_bits's inline bisection as it was before the shared helper."""
    target = math.log2(work_budget)

    def excess(n):
        return _closed_form_log2(n, t_total, landauer_energy(temperature), p_success)[1] - target

    lo, hi = 1.0, 4096.0
    if excess(lo) > 0.0:
        return 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return ceil_tol(0.5 * (lo + hi))


class TestCallersMatchOldLoops:
    def test_optimal_k_is_unchanged(self):
        for n in [0.5 * i for i in range(1, 161)]:
            assert optimal_k(n) == old_optimal_k(n)

    def test_min_image_bits_is_unchanged(self):
        rng = random.Random(7)
        cases = [(1e16, 1.6e8, 300.0, 1e-2), (1.2e44, 3.2e17, 2.7, 1e-6)]
        for _ in range(400):
            cases.append((10.0 ** rng.uniform(-10.0, 200.0), 10.0 ** rng.uniform(-9.0, 22.0),
                          rng.choice((0.1, 2.7, 300.0)), 10.0 ** rng.uniform(-12.0, 0.0)))
        for work, t, temp, p in cases:
            assert bht_min_image_bits(work, t, temp, p) == old_min_image_bits(work, t, temp, p)
