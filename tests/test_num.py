import math
import random
import statistics
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlimits._num import N_BRACKET, ceil_tol, find_root, golden_min, log2_radical
from qlimits.bht import _closed_form_log2, bht_min_image_bits
from qlimits.bounds import (
    BoundQuery,
    _classical_requirement_log2,
    classical_bound,
    landauer_energy,
    optimal_k,
    prefactor_b,
)
from qlimits.constants import H, HBAR, K_B
from qlimits.keylength import classical_keylength

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


def solve(f, lo=N_BRACKET[0], hi=N_BRACKET[1]):
    """find_root on [lo, hi], with the end values taken through f itself."""
    return find_root(f, lo, hi, f(lo), f(hi))


def counted(f):
    """f that keeps its (x, f(x)) calls in ``.seen``."""
    def g(x):
        y = f(x)
        g.seen.append((x, y))
        return y
    g.seen = []
    return g


def assert_final_bracket(f, found):
    """The closest sign change f was seen to make has both ends within
    1e-12 |found| of found, unless found is an exact zero."""
    if dict(f.seen)[found] == 0.0:
        return
    below = max(x for x, y in f.seen if y <= 0.0)
    above = min(x for x, y in f.seen if y > 0.0)
    assert max(abs(below - found), abs(above - found)) <= 1e-12 * abs(found)


# monotone shapes that defeat interpolation, each with its root r
HARD_SHAPES = {
    "step": lambda r: lambda x: -1.0 if x < r else 1.0,
    "-inf left": lambda r: lambda x: -math.inf if x < 0.5 * r else x - r,
    "ninth power": lambda r: lambda x: (x - r) ** 9,
    "power 0.01": lambda r: lambda x: math.copysign(abs(x - r) ** 0.01, x - r),
    "slope 1e-300": lambda r: lambda x: 1e-300 * (x - r),
}


class TestFindRoot:
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
        found = solve(forms[shape], lo, hi)
        assert abs(found - root) <= 1e-12 * root

    def test_root_at_lower_end(self):
        assert solve(lambda x: x - 2.0, 2.0, 5.0) == pytest.approx(2.0, rel=1e-12)
        f = counted(lambda x: x - 1.0)  # f(lo) == 0 on the solvers' bracket
        assert solve(f) == 1.0
        assert len(f.seen) <= 150

    @pytest.mark.parametrize("shape", sorted(HARD_SHAPES))
    @pytest.mark.parametrize("root", [1.0001, 3.3, 77.7, 1234.5678901, 4095.9])
    def test_hard_shapes_converge_within_150_evaluations(self, shape, root):
        f = counted(HARD_SHAPES[shape](root))
        found = solve(f)
        assert len(f.seen) <= 150
        assert abs(found - root) <= 1e-12 * abs(found)
        assert_final_bracket(f, found)

    def test_final_bracket_of_step_functions(self):
        # a bisection step that halves the bracket to just past 1e-12 |x|
        # is rare; thousands of roots make it likely to show
        rng = random.Random(5)
        for _ in range(4000):
            f = counted(HARD_SHAPES["step"](10.0 ** rng.uniform(0.0, 3.6)))
            assert_final_bracket(f, solve(f))


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


def old_bisect(f, lo, hi):
    """_num's root-finder as it was before Brent's method: plain bisection."""
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


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


# (W, t, T, P_s) over the solve benchmark's ranges, drawn with a fixed seed
SOLVER_CASES = [
    (10.0 ** rng.uniform(0.0, 70.0), 10.0 ** rng.uniform(0.0, 22.0),
     rng.choice((2.7, 300.0)), 10.0 ** rng.uniform(-12.0, 0.0))
    for rng in [random.Random(17)] for _ in range(600)
]


def classical_excess(work, t, temp, p):
    """classical_bound(unknown="n")'s excess: log2 requirement minus log2 budget."""
    e_l, target = landauer_energy(temp), math.log2(work)
    return lambda n: _classical_requirement_log2(n, t, e_l, p) - target


def image_excess(work, t, temp, p):
    """bht_min_image_bits's excess: log2 closed-form work minus log2 budget."""
    e_l, target = landauer_energy(temp), math.log2(work)
    return lambda n: _closed_form_log2(n, t, e_l, p)[1] - target


def mp_classical_excess(work, t, temp, p):
    """classical_excess at mpmath's working precision:
    log2((2^n P_s (E_L + h/4t) + 2n E_L) / W)."""
    def excess(n):
        e_l = mpmath.mpf(K_B) * temp * mpmath.log(2)
        per_guess = e_l + mpmath.mpf(H) / (4 * mpmath.mpf(t))
        return mpmath.log((mpmath.mpf(2) ** n * p * per_guess + 2 * n * e_l) / work, 2)
    return excess


def mp_image_excess(work, t, temp, p):
    """image_excess at mpmath's working precision: log2 of
    (2^n P_s x)^(1/3) 1.25 hbar / (t W), x = (n + 1) E_L 4t/hbar + 2 pi."""
    def excess(n):
        e_l = mpmath.mpf(K_B) * temp * mpmath.log(2)
        x = (n + 1) * e_l * 4 * t / mpmath.mpf(HBAR) + 2 * mpmath.pi
        w = mpmath.cbrt(mpmath.mpf(2) ** n * p * x) * mpmath.mpf(1.25) * mpmath.mpf(HBAR) / t
        return mpmath.log(w / work, 2)
    return excess


def bracketed(excess):
    lo, hi = N_BRACKET
    return excess(lo) <= 0.0 < excess(hi)


SOLVES = [
    (form(*case), mp_form(*case))
    for case in SOLVER_CASES
    for form, mp_form in ((classical_excess, mp_classical_excess),
                          (image_excess, mp_image_excess))
    if bracketed(form(*case))
]


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
        for work, t, temp, p in cases + SOLVER_CASES:
            assert bht_min_image_bits(work, t, temp, p) == old_min_image_bits(work, t, temp, p)

    def test_classical_key_lengths_are_unchanged(self):
        for work, t, temp, p in SOLVER_CASES:
            excess = classical_excess(work, t, temp, p)
            if not bracketed(excess):
                continue
            old = ceil_tol(old_bisect(excess, *N_BRACKET))
            query = BoundQuery("n", work=work, time=t, temperature=temp, success_probability=p)
            n = classical_bound(query).value
            assert n == solve(excess)
            assert ceil_tol(n) == old
            assert classical_keylength(work, t, temp, p) == old


class TestRootFinderOnSolvers:
    def test_root_within_1e_12_of_50_digit_root(self):
        assert len(SOLVES) >= 1000  # most cases reach the root-finder
        worst = 0.0
        with mpmath.workdps(50):
            for excess, mp_excess in SOLVES:
                found = solve(excess)
                exact = mpmath.findroot(mp_excess, N_BRACKET, solver="anderson")
                worst = max(worst, float(abs(found - exact) / exact))
        assert worst <= 1e-12

    def test_evaluation_budget_and_final_bracket(self):
        calls = []
        for excess, _ in SOLVES:
            f = counted(excess)
            assert_final_bracket(f, solve(f))
            calls.append(len(f.seen))
        assert statistics.median(calls) <= 7
        assert max(calls) <= 10
