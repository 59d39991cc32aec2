import contextlib
import math
import random
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlimits import bht, bounds
from qlimits._num import (_NEWTON_STEPS, N_BRACKET, ceil_tol, exp2, golden_min, log2_radical,
                          newton)
from qlimits.bht import (
    _closed_form_log2,
    _image_bits_root,
    bht_min_image_bits,
    bht_optimal,
    bht_work_closed_form,
)
from qlimits.bounds import (
    BoundQuery,
    _classical_requirement_log2,
    classical_bound,
    landauer_energy,
    optimal_k,
    prefactor_b,
)
from qlimits.constants import H, HBAR, K_B
from qlimits.errors import DomainError, InfeasibleError
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


def counted(g):
    """g that keeps its (x, g(x)) calls in ``.seen``."""
    def wrapped(x):
        y = g(x)
        wrapped.seen.append((x, y))
        return y
    wrapped.seen = []
    return wrapped


# increasing shapes that stress Newton's steps, each as a (value, slope)
# form of its root r, with the bracket end the steps start from: above the
# root where the shape is convex, below it where concave (a line is both)
HARD_SHAPES = {
    "slope 1e-300": (lambda r: lambda x: (1e-300 * (x - r), 1e-300), N_BRACKET[1]),
    "slope 1e300": (lambda r: lambda x: (1e300 * (x - r), 1e300), N_BRACKET[0]),
    "square": (lambda r: lambda x: (x * x - r * r, 2.0 * x), N_BRACKET[1]),
    "log": (lambda r: lambda x: (math.log(x / r), 1.0 / x), N_BRACKET[0]),
}


class TestFindRoot:
    """``_num.newton``, the root-finder both key-length inversions share."""

    @given(
        root=st.floats(min_value=1e-3, max_value=1e3),
        below=st.floats(min_value=1e-6, max_value=0.999),
        above=st.floats(min_value=1e-6, max_value=1e3),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        shape=st.sampled_from(("linear", "square", "log", "sqrt")),
    )
    @settings(max_examples=300, deadline=None)
    def test_finds_root_of_monotone_function(self, root, below, above, scale, shape):
        lo, hi = root * (1.0 - below), root * (1.0 + above)
        # convex shapes start above the root, concave ones below it
        forms = {
            "linear": (lambda x: (scale * (x - root), scale), hi),
            "square": (lambda x: (scale * (x * x - root * root), 2.0 * scale * x), hi),
            "log": (lambda x: (math.log(x / root), 1.0 / x), lo),
            "sqrt": (lambda x: (scale * (math.sqrt(x) - math.sqrt(root)),
                                0.5 * scale / math.sqrt(x)), lo),
        }
        g, start = forms[shape]
        assert abs(newton(g, start) - root) <= 1e-15 * root

    def test_root_at_lower_end(self):
        g = counted(lambda x: (x - 1.0, 1.0))  # g(lo) == 0 on the solvers' bracket
        assert newton(g, N_BRACKET[0]) == 1.0
        assert len(g.seen) == 1
        # a budget of exactly W*(1): the image-bit root sits on the bracket's lower end
        t, temp, p = 1e3, 300.0, 1e-3
        work = 2.0 ** _closed_form_log2(1.0, t, landauer_energy(temp), p)[1]
        assert image_root(work, t, temp, p) == pytest.approx(1.0, rel=1e-12)
        assert bht_min_image_bits(work, t, temp, p) == 1

    @pytest.mark.parametrize("shape", sorted(HARD_SHAPES))
    @pytest.mark.parametrize("root", [1.0001, 3.3, 77.7, 1234.5678901, 4095.9])
    def test_hard_shapes_converge_within_150_evaluations(self, shape, root):
        form, start = HARD_SHAPES[shape]
        g = counted(form(root))
        found = newton(g, start)
        assert len(g.seen) < _NEWTON_STEPS <= 150  # stopped on its own test
        assert abs(found - root) <= 1e-12 * abs(found)
        # every step stays on the start's side of the root, to rounding
        side = math.copysign(1.0, start - root)
        assert all(side * (x - root) >= -1e-12 * root for x, _ in g.seen)


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


def mp_prefactor(k, n):
    """prefactor_b at mpmath's working precision."""
    g = mpmath.mpf(2) ** -n
    return (1 + k) / (1 + mpmath.sqrt(k * k + g * (1 - k * k))) ** 2


def mp_argmax_prefactor(n, hi=mpmath.mpf(1e-2)):
    """argmax of the prefactor on [0, hi] at 50 digits, by bisection on the
    sign of its slope, 1 + r - 2 (1+k) k (1 - 2^-n) / r with r the root."""
    with mpmath.workdps(50):
        g = mpmath.mpf(2) ** -n

        def rising(k):
            r = mpmath.sqrt(k * k + g * (1 - k * k))
            return 1 + r - 2 * (1 + k) * k * (1 - g) / r > 0

        if rising(hi):
            return hi
        lo = mpmath.mpf(0)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if rising(mid) else (lo, mid)
        return lo


class TestGoldenMinAccuracy:
    """golden_min stops at a 1e-14 bracket, but where the extremum is flat its
    comparisons cannot tell points apart over a wider span; what it holds is
    the extreme value, to a few ulps, more than the argument."""

    def test_optimal_k_against_fifty_digit_argmax(self):
        # measured: the prefactor within 3.7e-15 relative (n = 1, at the
        # bracket's edge), k within 9.0e-4 relative (n = 64) and 1.23e-9
        # absolute (n = 14)
        for n in range(1, 65):
            k, k_star = optimal_k(n), mp_argmax_prefactor(n)
            with mpmath.workdps(50):
                peak = mp_prefactor(k_star, n)
                assert abs(mp_prefactor(mpmath.mpf(k), n) / peak - 1) <= 4e-15, n
                assert abs(k - k_star) <= 1e-3 * k_star and abs(k - k_star) <= 2e-9, n


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


def classical_root(work, t, temp, p):
    """classical_bound(unknown="n")'s real n."""
    query = BoundQuery("n", work=work, time=t, temperature=temp, success_probability=p)
    return classical_bound(query).value


def image_root(work, t, temp, p):
    """bht_min_image_bits's real n, before rounding up."""
    return _image_bits_root(math.log2(work), t, landauer_energy(temp), p)


def mp_root(mp_excess):
    """The root of an mpmath excess on the n bracket, to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.findroot(mp_excess, N_BRACKET, solver="anderson", maxsteps=200)


def rel_error(found, exact):
    return float(abs(found - exact) / exact)


@contextlib.contextmanager
def newton_steps():
    """Counts the Newton steps of each solve in both solvers: yields a list
    that gets one count per call of ``newton``."""
    counts = []

    def counting(g, x):
        counts.append(0)

        def step(v):
            counts[-1] += 1
            return g(v)
        return newton(step, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "newton", counting)
        patch.setattr(bht, "newton", counting)
        yield counts


SOLVERS = ((classical_excess, classical_root, mp_classical_excess),
           (image_excess, image_root, mp_image_excess))

SOLVES = [
    (root, case, mp_form)
    for case in SOLVER_CASES
    for form, root, mp_form in SOLVERS
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
            n = classical_root(work, t, temp, p)
            assert rel_error(n, mp_root(mp_classical_excess(work, t, temp, p))) <= 1e-12
            assert ceil_tol(n) == old
            assert classical_keylength(work, t, temp, p) == old


class TestRootFinderOnSolvers:
    def test_root_within_1e_12_of_50_digit_root(self):
        assert len(SOLVES) >= 1000  # most cases reach the inversion
        worst = max(rel_error(root(*case), mp_root(mp_form(*case)))
                    for root, case, mp_form in SOLVES)
        assert worst <= 1e-12

    def test_evaluation_budget_and_final_bracket(self):
        with newton_steps() as counts:
            for root, case, _ in SOLVES:
                found = root(*case)
                # the double-precision excess, which ceil_tol rounds by,
                # changes sign within 1e-12 |found| of found
                excess = (classical_excess if root is classical_root else image_excess)(*case)
                assert excess(found * (1.0 - 1e-12)) <= 0.0 < excess(found * (1.0 + 1e-12))
        # every classical case here has W/(2 E_L) >= 2^60 and takes no step
        assert len(counts) == sum(root is image_root for root, _, _ in SOLVES)
        assert max(counts) <= 8


class TestHotBathOverflow:
    """From about T = 1e293 K down, x = (n+1) 4 E_L t/hbar + 2 pi and its
    Landauer term (n+1) 4 E_L/hbar both overflow; the closed forms must
    still follow the 50-digit W*(n)."""

    @staticmethod
    def mp_closed_form_work(n, t, temp, p):
        with mpmath.workdps(50):
            return mpmath.mpf(2) ** mp_image_excess(1.0, t, temp, p)(n)

    def test_closed_form_work(self):
        exact = self.mp_closed_form_work(500.0, 1e10, 1e300, 1.0)
        assert rel_error(bht_work_closed_form(500.0, 1e10, 1e300, 1.0), exact) <= 1e-12
        plan = bht_optimal(1000.0, 1e10, 1e300, 1.0)
        exact = self.mp_closed_form_work(1000.0, 1e10, 1e300, 1.0)
        assert rel_error(plan.closed_form_work, exact) <= 1e-12

    def test_min_image_bits(self):
        case = (309572.29, 3.4885e172, 1.0571e294, 4.0861e-271)
        exact = mp_root(mp_image_excess(*case))
        assert rel_error(image_root(*case), exact) <= 1e-12
        assert bht_min_image_bits(*case) == math.ceil(exact) == 1412


class TestWholeBracket:
    """Both inversions over the whole n bracket, with budgets below
    2^60 2 E_L so that the classical one takes its Lambert W branch."""

    @given(
        log10_temp=st.one_of(st.just(None), st.floats(min_value=-3.0, max_value=9.0)),
        log2_scale=st.floats(min_value=-4.0, max_value=60.0),
        log10_t=st.floats(min_value=-20.0, max_value=300.0),
        log10_p=st.floats(min_value=-300.0, max_value=0.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_roots_and_bracket_ends(self, log10_temp, log2_scale, log10_t, log10_p):
        # W is 2^scale 2 E_L, or 2^scale J at T = 0
        temp = 0.0 if log10_temp is None else 10.0 ** log10_temp
        e_l = landauer_energy(temp)
        work = 2.0 ** log2_scale * (2.0 * e_l if e_l > 0.0 else 1.0)
        case = (work, 10.0 ** log10_t, temp, 10.0 ** log10_p)
        lo, hi = N_BRACKET
        query = BoundQuery("n", work=work, time=case[1], temperature=temp,
                           success_probability=case[3])
        with newton_steps() as counts:
            for form, root, mp_form in SOLVERS:
                excess = form(*case)
                f_lo, f_hi = excess(lo), excess(hi)
                if form is classical_excess and f_lo >= 0.0:
                    with pytest.raises(InfeasibleError, match="already at n = 1"):
                        classical_bound(query)
                elif form is image_excess and f_lo > 0.0:
                    assert bht_min_image_bits(*case) == 1
                elif f_hi <= 0.0:  # no budget meets the classical requirement at n = 4096
                    assert form is image_excess
                    with pytest.raises(DomainError, match="at the n = 4096 bracket"):
                        bht_min_image_bits(*case)
                else:
                    assert rel_error(root(*case), mp_root(mp_form(*case))) <= 1e-12
        assert all(c <= 8 for c in counts)


def test_exp2_at_the_first_power_past_double_range_is_inf():
    # 2.0 ** 1024.0 raises OverflowError; the cut-over above it does not see it
    assert exp2(1024.0) == math.inf
    assert exp2(1023.0) == 2.0 ** 1023
