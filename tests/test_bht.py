import math
import random
import re
from decimal import Decimal, localcontext

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlimits.bht import (
    REFERENCE_IMAGE_BITS,
    _closed_form_log2,
    bht_fixed_samples,
    bht_min_image_bits,
    bht_optimal,
    bht_sweep_minimum,
    bht_work,
    bht_work_closed_form,
    optimal_quantum_time,
)
from qlimits._num import exp2, golden_min
from qlimits.bounds import landauer_energy, quantum_work_requirement
from qlimits.constants import H, HBAR
from qlimits.errors import DomainError, InfeasibleError
from qlimits.scenarios import SCENARIOS


class TestBhtWork:
    def test_saturated_sampling_has_no_quantum_term(self):
        n, p = 20, 0.5
        k = 2.0**n * p
        t_total, temp = 2.0, 300.0
        value = bht_work(n, k, t_total, temp, p)
        oracle = k * 21 * landauer_energy(temp) + k * H / (4 * t_total)
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_zero_temperature_single_sample(self):
        n, t_total, p = 30, 1.5, 1.0
        value = bht_work(n, 1.0, t_total, 0.0, p)
        oracle = H / (4 * t_total) + math.sqrt(2.0**n - 1.0) * HBAR / t_total
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_rejects_oversampling(self):
        with pytest.raises(DomainError):
            bht_work(10, 2.0**11, 1.0, 300.0, 1.0)

    def test_rejects_fractional_sample_below_one(self):
        with pytest.raises(DomainError):
            bht_work(10, 0.5, 1.0, 300.0, 1.0)


class TestTimeSplit:
    def test_formula_matches_bisection_oracle(self):
        # independent re-derivation: bisect on t_s for equal phase work
        n, k, t_total, p = 36, 12.0, 2.0, 1.0
        root = math.sqrt(2.0**n * p / k - 1.0)

        def imbalance(t_s):
            classical = H * k / (4.0 * (t_total - t_s))
            quantum = root * HBAR / t_s
            return classical - quantum

        lo, hi = 1e-12 * t_total, t_total * (1 - 1e-12)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if imbalance(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert optimal_quantum_time(n, k, t_total, p) == pytest.approx(oracle, rel=1e-10)

    def test_split_within_total(self):
        t_s = optimal_quantum_time(30, 5.0, 3.0, 1.0)
        assert 0.0 < t_s < 3.0


class TestBhtOptimal:
    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_tabulated_regime_matches_sweep(self, n):
        # at 300 K the Landauer term dominates and the optimum clamps to k=1
        plan = bht_optimal(n, 1.0, 300.0, 1.0)
        k_min, w_min = bht_sweep_minimum(n, 1.0, 300.0, 1.0, points=3000)
        assert plan.clamped and plan.samples == 1.0
        assert abs(plan.samples - k_min) <= 0.05 * k_min
        assert abs(plan.work - w_min) <= 1e-3 * w_min

    def test_interior_regime_closed_form_within_five_percent(self):
        # cold, fast regime where the continuous optimizer is interior
        n, t_total, temp = 36, 1e-6, 1e-3
        plan = bht_optimal(n, t_total, temp, 1.0)
        assert not plan.clamped and plan.samples > 1.0
        k_min, w_min = bht_sweep_minimum(n, t_total, temp, 1.0, points=3000)
        # the closed form never exceeds the sweep optimum by more than ~5%
        assert w_min >= plan.closed_form_work * (1.0 - 0.05)
        assert plan.closed_form_work >= w_min
        assert plan.work <= w_min * 1.05
        print(
            f"interior plan: k={plan.samples:.4g} sweep k={k_min:.4g} "
            f"W*/min={plan.closed_form_work / w_min:.5f}"
        )

    def test_local_minimality_where_plan_is_the_minimizer(self):
        # clamped regime: the plan's k=1 is the true argmin
        n, t_total, temp = 30, 1.0, 300.0
        plan = bht_optimal(n, t_total, temp, 1.0)
        w = bht_work(n, plan.samples, t_total, temp, 1.0)
        assert w <= bht_work(n, plan.samples * 2.0, t_total, temp, 1.0)
        # interior regime: the closed-form k sits below the true argmin by a
        # constant factor; doubling it can therefore still descend slightly,
        # but the work stays within the documented 5% of the optimum
        n, t_total, temp = 36, 1e-6, 1e-3
        plan = bht_optimal(n, t_total, temp, 1.0)
        _, w_min = bht_sweep_minimum(n, t_total, temp, 1.0, points=2000)
        for factor in (0.5, 1.0, 2.0):
            k = max(plan.samples * factor, 1.0)
            assert bht_work(n, k, t_total, temp, 1.0) >= w_min * (1.0 - 1e-9)
        assert plan.work <= w_min * 1.05

    def test_sample_count_far_below_cube_root_scale(self):
        # with E_L >> hbar/t the optimizer sits far below 2^(n/3) P^(1/3)
        plan = bht_optimal(40, 1.0, 300.0, 1.0)
        assert plan.log2_samples < 40.0 / 3.0 - 10.0

    def test_large_n_log_space(self):
        # n=800: values still fit in doubles; log2 fields stay consistent
        plan = bht_optimal(800, 1.0, 2.7, 1e-12)
        assert math.isfinite(plan.work)
        assert plan.work == pytest.approx(2.0**plan.log2_work, rel=1e-9)
        assert 0.0 < plan.quantum_time <= 1.0
        # n=3000: k lies past 2^53, so the plan is taken in log2 space
        plan = bht_optimal(3000, 1.0, 300.0, 1.0)
        assert plan.samples_rounded == -1 and 2.0**53 < plan.samples < math.inf
        assert plan.work == pytest.approx(2.0**plan.log2_work, rel=1e-9)
        assert 0.0 < plan.quantum_time <= 1.0
        # n=3500: work and k overflow doubles, which no plan can report
        with pytest.raises(InfeasibleError):
            bht_optimal(3500, 1.0, 2.7, 1e-12)

    def test_plan_invariants(self):
        plan = bht_optimal(44, 10.0, 300.0, 0.25)
        assert plan.work >= plan.samples * 45 * landauer_energy(300.0)
        assert 0.0 < plan.quantum_time <= plan.total_time


# ------------------------------------------------ 50-digit reference

PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _log2(x: Decimal) -> Decimal:
    return x.ln() / Decimal(2).ln()


def reference_plan(n, k, t_total, temperature, p_success):
    """(W, t_s) at k samples, to 50 digits from the exact double inputs:
    W = k (n+1) E_L + k h/(4t) + sqrt(2^n P_s / k - 1) hbar/t and
    t_s = t / (k 2 pi / (4 sqrt(2^n P_s / k - 1)) + 1)."""
    with localcontext() as ctx:
        ctx.prec = 50
        n, k, t, p = Decimal(n), Decimal(k), Decimal(t_total), Decimal(p_success)
        root = (Decimal(2) ** n * p / k - 1).sqrt()
        work = (k * (n + 1) * Decimal(landauer_energy(temperature)) + k * Decimal(H) / (4 * t)
                + root * Decimal(HBAR) / t)
        t_s = t / (k * 2 * PI / (4 * root) + 1) if root else Decimal(0)
        return +work, +t_s


def reference_closed_form(n, t_total, temperature, p_success):
    """(log2 k*, log2 W*) of the budget-only closed forms, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(t_total)
        x = (Decimal(n) + 1) * Decimal(landauer_energy(temperature)) * 4 * t / Decimal(HBAR) + 2 * PI
        base = (Decimal(n) + _log2(Decimal(p_success))) / 3
        log2_x = _log2(x)
        return base - 2 * log2_x / 3, base + log2_x / 3 + _log2(Decimal(1.25) * Decimal(HBAR) / t)


_NORMAL = Decimal(2) ** -1022
_OVERFLOW = Decimal(2) ** 1024


def assert_rel(got, want: Decimal, rel=1e-12):
    """got within rel of want, where want is a normal double; below that
    range a double holds too few digits for a relative bound."""
    if want >= _NORMAL:
        assert abs(Decimal(got) / want - 1) <= Decimal(rel), (got, want)


def draw(rng, n_max):
    """(n, t, T, P_s): n in [1, n_max], t log-uniform on [1e-300, 1.7e308] s,
    T in {0, 2.7, 300, 1e16} K and P_s log-uniform on [1e-300, 1] with
    2^n P_s >= 2.  Closer to 2^n P_s = 1, sqrt(2^(n + log2 P_s) - 1) turns
    the rounding of log2 P_s into a relative error past any fixed bound."""
    n = rng.uniform(1.0, n_max)
    t = 10.0 ** rng.uniform(-300.0, 308.23)
    temp = rng.choice((0.0, 2.7, 300.0, 1e16))
    p = 2.0 ** -rng.uniform(0.0, min(n - 1.0, 300.0 * math.log2(10.0)))
    return n, t, temp, p


class TestFiftyDigitReference:
    """W, t_s and k* within 1e-12 relative, log2 W and log2 k* within 1e-12
    absolute, over n in [1, 4096] and every t, T and P_s drawn above."""

    def test_fixed_sample_plans(self):
        rng = random.Random(14)
        for _ in range(800):
            n, t, temp, p = draw(rng, 4096.0)
            # k at least one bit below 2^n P_s, where the root is well conditioned
            top = n + math.log2(p)
            k = exp2(min(rng.uniform(0.0, top - 1.0), 1023.0))
            work, t_s = reference_plan(n, k, t, temp, p)
            if work >= _OVERFLOW:
                with pytest.raises(InfeasibleError):
                    bht_fixed_samples(n, k, t, temp, p)
                continue
            plan = bht_fixed_samples(n, k, t, temp, p)
            assert abs(Decimal(plan["log2_work_J"]) - _log2(work)) <= Decimal(1e-12)
            assert_rel(plan["work_J"], work)
            assert_rel(plan["t_s_s"], t_s)
            assert plan["work_J"] == bht_work(n, k, t, temp, p)
            assert plan["t_s_s"] == optimal_quantum_time(n, k, t, p)

    def test_optimal_plans(self):
        rng = random.Random(15)
        for _ in range(600):
            n, t, temp, p = draw(rng, 4096.0)
            log2_k_star, log2_w_star = reference_closed_form(n, t, temp, p)
            log2_k = min(max(log2_k_star, Decimal(0)), Decimal(n) + _log2(Decimal(p)))
            try:
                plan = bht_optimal(n, t, temp, p)
            except InfeasibleError as exc:
                if exc.floor == 0.0:
                    # the work lies below double range at the better integer k by k*
                    k = Decimal(2) ** log2_k
                    top = Decimal(n) + _log2(Decimal(p))
                    counts = ([kk for kk in {max(1, math.floor(k)), max(1, math.ceil(k))}
                               if _log2(Decimal(kk)) <= top] if k < 2 ** 53 else [k])
                    assert float(min(reference_plan(n, kk, t, temp, p)[0] for kk in counts)) == 0.0
                    continue
                # W(k) <= 1.05 W*, so k, W* or the work overflows only where W* nearly does
                assert max(log2_k, log2_w_star) >= 1023
                continue
            assert abs(Decimal(plan.log2_samples) - log2_k) <= Decimal(1e-12)
            assert_rel(plan.samples, Decimal(2) ** log2_k)
            assert abs(Decimal(plan.log2_closed_form_work) - log2_w_star) <= Decimal(1e-12)
            assert_rel(plan.closed_form_work, Decimal(2) ** log2_w_star)
            k = plan.samples_rounded if plan.samples_rounded != -1 else plan.samples
            work, t_s = reference_plan(n, k, t, temp, p)
            assert abs(Decimal(plan.log2_work) - _log2(work)) <= Decimal(1e-12)
            assert_rel(plan.work, work)
            assert_rel(plan.quantum_time, t_s)

    def test_overflowing_root_times_a_small_scale_is_finite(self):
        # sqrt(2^n P_s / k - 1) is about 2^2002, past double range, and
        # hbar/t brings the work back into it
        work = bht_work(5000.0, 1000.0, 1e300, 1e16, 1e-300)
        assert work == pytest.approx(1.25332967060200696e267, rel=1e-12)
        assert_rel(work, reference_plan(5000.0, 1000.0, 1e300, 1e16, 1e-300)[0])


def reference_sweep_minimum(n, t_total, temperature, p_success):
    """The least W over the sample counts the sweep may return, to 50 digits.

    k runs over the doubles in [1, 2^n P_s] under libm log2; its log2 u
    over [0, u_top], u_top the log2 of the largest of them.  W(u) takes the
    radicand 2^(top - u) - 1 with top = n + log2 P_s as the library rounds
    it: the fixed-sample reference above holds W itself to the inputs.
    """
    top = n + math.log2(p_success)
    k_top = exp2(top)
    while math.log2(k_top) > top:
        k_top = math.nextafter(k_top, 0.0)
    u_top = math.log2(k_top)
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(t_total)
        per_sample = (Decimal(n) + 1) * Decimal(landauer_energy(temperature)) + Decimal(H) / (4 * t)
        quantum = Decimal(HBAR) / t

        def w(u):
            return (Decimal(2) ** Decimal(u) * per_sample
                    + (Decimal(2) ** (Decimal(top) - Decimal(u)) - 1).sqrt() * quantum)

        grid = [u_top * i / 32 for i in range(33)]
        j = min(range(33), key=lambda i: w(grid[i]))
        u = golden_min(w, grid[max(j - 1, 0)], grid[min(j + 1, 32)])
        return min(w(u), w(grid[j]), w(u_top))


def mp_sweep_minimum(n, t_total, temperature, p_success):
    """The least W over u = log2 k in [0, u_top] at 50 digits, with the
    radicand as the library rounds it (see reference_sweep_minimum), found
    without golden_min: W may fall again towards the top, where its slope
    tends to -inf, so every interior minimum is found by bisection on the
    sign of dW/du over a 128-cell grid, and the ends are candidates too."""
    top = n + math.log2(p_success)
    k_top = exp2(top)
    while math.log2(k_top) > top:
        k_top = math.nextafter(k_top, 0.0)
    with mpmath.workdps(50):
        u_top, top, t = mpmath.mpf(math.log2(k_top)), mpmath.mpf(top), mpmath.mpf(t_total)
        per_sample = ((mpmath.mpf(n) + 1) * mpmath.mpf(landauer_energy(temperature))
                      + mpmath.mpf(H) / (4 * t))
        quantum = mpmath.mpf(HBAR) / t

        def w(u):
            return 2 ** u * per_sample + mpmath.sqrt(2 ** (top - u) - 1) * quantum

        def falling(u):  # dW/du < 0, divided by ln 2
            radicand = 2 ** (top - u) - 1
            return 2 ** u * per_sample < quantum * (radicand + 1) / (2 * mpmath.sqrt(radicand))

        grid = [u_top * i / 128 for i in range(129)]
        ends = [mpmath.mpf(0), u_top]
        for lo, hi in zip(grid, grid[1:-1]):
            if falling(lo) and not falling(hi):
                for _ in range(64):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if falling(mid) else (lo, mid)
                ends.append(lo)
        return min(w(u) for u in ends)


def assert_sweep_contract(n, t_total, temperature, p_success, points):
    """1 <= k_min <= 2^n P_s under libm log2, W_min = bht_work at k_min, both
    Python floats, and W_min within 1e-12 of the reference minimum."""
    k_min, w_min = bht_sweep_minimum(n, t_total, temperature, p_success, points=points)
    assert type(k_min) is float and type(w_min) is float
    assert 1.0 <= k_min and math.log2(k_min) <= n + math.log2(p_success)
    assert w_min == bht_work(n, k_min, t_total, temperature, p_success)
    assert_rel(w_min, reference_sweep_minimum(n, t_total, temperature, p_success))


class TestSweepMinimum:
    @given(
        n=st.floats(min_value=0.5, max_value=48.0).filter(lambda n: not n.is_integer()),
        p=st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
        points=st.sampled_from([2, 64, 3000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_non_integer_n_stays_within_admissible_k(self, n, p, points):
        # the top of the log grid used to round above 2^n * P_s and raise
        top = n + math.log2(p)
        assume(top >= 0.0)
        k_min, w_min = bht_sweep_minimum(n, 1.0, 300.0, p, points=points)
        assert 1.0 <= k_min and math.log2(k_min) <= top  # 1 <= k <= 2^n P_s
        assert math.isfinite(w_min) and w_min == bht_work(n, k_min, 1.0, 300.0, p)
        assert w_min <= bht_work(n, 1.0, 1.0, 300.0, p) * (1.0 + 1e-12)

    def test_matches_the_reference_minimum(self):
        rng = random.Random(16)
        for _ in range(40):
            n, t, temp, _ = draw(rng, 48.0)
            # any 2^n P_s >= 1: the sweep's reference carries the library's top
            p = 2.0 ** -rng.uniform(0.0, n)
            assert_sweep_contract(n, t, temp, p, rng.choice((2, 64, 3000)))

    def test_w_min_against_a_fifty_digit_minimum(self):
        # measured: within 5.8e-14 relative.  W = 2^(log2 W) is rounded by up
        # to 9e-14 relative at the returned k, and golden_min places k only as
        # well as such rounded values compare: the exact W there lies up to
        # 6e-14 above the minimum
        rng = random.Random(16)
        for _ in range(40):
            n, t, temp, _ = draw(rng, 48.0)
            p = 2.0 ** -rng.uniform(0.0, n)
            _, w_min = bht_sweep_minimum(n, t, temp, p, points=rng.choice((2, 64, 3000)))
            want = mp_sweep_minimum(n, t, temp, p)
            if want >= 2.0 ** -1022:  # a normal double
                assert abs(w_min / want - 1) <= 6e-14, (n, t, temp, p)

    @pytest.mark.parametrize("n, p", [(1.0, 0.6), (0.5, 0.9), (2.0, 0.3)])
    def test_minimum_at_the_top_of_the_grid(self, n, p):
        # at T = 0 and 2^n P_s < 1.4 the saturated plan k = 2^n P_s beats k = 1;
        # W falls steeply just below the top, where no double k reaches
        for t_total in (1e-9, 1.0):
            assert_sweep_contract(n, t_total, 0.0, p, 3000)


class TestSweepMatchesScalarGrid:
    """The sweep's refusals, and its minimum where the grid is nearly flat or
    exp2 of its top rounds past 2^n P_s."""

    @pytest.mark.parametrize("n, p, eps", [(1, 0.5, 1e-9), (2, 0.25, 1e-12), (3, 0.125, 1e-6)])
    def test_within_reference_where_the_grid_is_nearly_flat(self, n, p, eps):
        # 2^n P_s just above 1: an interior minimum whose neighbours differ
        # by about one ulp, where the argmin is most fragile
        for t_total in (1e-9, 1e-6, 1.0):
            assert_sweep_contract(n, t_total, 300.0, p * (1.0 + eps), 3000)

    @pytest.mark.parametrize("n, t_total, temp, p, message", [
        (48.5, 1.0, 300.0, 1.0, "sweep oracle n must lie in (-inf, 48]"),
        (20, 0.0, 300.0, 0.5, "total time must be finite and > 0"),
        (20, -1.0, 300.0, 0.5, "total time must be finite and > 0"),
        (20, 1.0, 300.0, 1.5, "success probability must lie in (0, 1]"),
        (20, 1.0, 300.0, 0.0, "success probability must lie in (0, 1]"),
        (20, 1.0, 300.0, -0.5, "success probability must lie in (0, 1]"),
        (20, 1.0, -1.0, 0.5, "temperature must be finite and >= 0"),
        (3, 1.0, 300.0, 0.1, "sample count exceeds 2^n * P_s"),
        (-2000, 1.0, 300.0, 1.0, "sample count exceeds 2^n * P_s"),
    ])
    def test_rejected_inputs(self, n, t_total, temp, p, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            bht_sweep_minimum(n, t_total, temp, p, points=3000)

    @pytest.mark.parametrize("n, p", [(5.453062405694146, 0.04874642061094148),
                                      (2.4011180022828227, 0.24723703121883422),
                                      (2.091481196530853, 0.6387684804534405),
                                      (1.7962314534121646, 0.5270417806967417)])
    def test_admissible_where_exp2_of_the_top_rounds_past_it(self, n, p):
        # log2 of exp2(n + log2 P_s) rounds one ulp above the exponent, so
        # that k has a negative radicand; the sweep never returns it
        top = n + math.log2(p)
        assert math.log2(exp2(top)) > top
        for temp in (0.0, 300.0):
            assert_sweep_contract(n, 1.0, temp, p, 3000)
class TestImageBits:
    def test_monotone_in_budget(self):
        t_total, temp, p = 1.0, 300.0, 1e-2
        bits = [bht_min_image_bits(10.0**e, t_total, temp, p) for e in range(3, 30, 3)]
        assert bits == sorted(bits)

    def test_closed_form_strictly_increasing_in_n(self):
        values = [bht_work_closed_form(n, 1.0, 300.0, 1e-2) for n in range(10, 200, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_inversion_sandwich(self):
        budget = 1e16
        bits = bht_min_image_bits(budget, 1.0, 300.0, 1e-2)
        assert bht_work_closed_form(bits, 1.0, 300.0, 1e-2) > budget
        assert bht_work_closed_form(bits - 1, 1.0, 300.0, 1e-2) <= budget

    def test_scenario_comparison_report(self):
        # solver output vs externally tabulated targets; the offset is a
        # known systematic and is reported, not asserted away
        rows = []
        for name, sc in SCENARIOS.items():
            bits = bht_min_image_bits(
                sc.work, sc.duration, sc.temperature, sc.success_probability
            )
            rows.append((name, bits, REFERENCE_IMAGE_BITS[name]))
        for name, bits, ref in rows:
            agree = "agrees" if bits == ref else f"differs by {bits - ref:+d}"
            print(f"min image bits [{name}]: solver {bits}, reference {ref} ({agree})")
        # the solver is self-consistent: each output is a true crossing point
        for name, bits, _ in rows:
            sc = SCENARIOS[name]
            assert bht_work_closed_form(
                bits, sc.duration, sc.temperature, sc.success_probability
            ) > sc.work

    def test_cross_check_against_quantum_bound(self):
        # a pure quantum search over the same image would need at least as
        # much work as the k=1 hybrid's quantum phase alone
        n, t_total, temp, p = 40, 1.0, 300.0, 1.0
        hybrid = bht_work(n, 1.0, t_total, temp, p)
        quantum_only, _ = quantum_work_requirement(n, t_total, p)
        assert hybrid >= quantum_only


class TestClosedFormPastDoubleRange:
    """log2 k* and log2 W* on both sides of the point where the bracket
    (n+1) E_L 4 t/hbar + 2 pi overflows, and where 1.25 hbar/t underflows."""

    @pytest.mark.parametrize("n", [1.0, 40.0, 700.5, 4096.0])
    def test_matches_a_50_digit_reference(self, n):
        for t_total in [1e250, 5e273, 6e273, 1e285, 1e290, 1e292, 1e295, 1e300, 1.7e308]:
            for temp in (2.7, 300.0):
                got = _closed_form_log2(n, t_total, landauer_energy(temp), 0.25)
                want = tuple(map(float, reference_closed_form(n, t_total, temp, 0.25)))
                assert got == pytest.approx(want, rel=1e-13, abs=1e-12)


@pytest.mark.parametrize("n, t_total, temp, p", [
    (1e69, 1e300, 1000.0, 1.0),   # h/(4t) and hbar/t underflow to 0
    (300.0, 1e300, 5e-324, 1.0),
    (5e-324, 1e300, 5e-324, 1.0),  # every term of the work underflows
])
def test_plans_past_the_normal_range_are_finite_or_infeasible(n, t_total, temp, p):
    try:
        plan = bht_optimal(n, t_total, temp, p)
    except InfeasibleError:
        return
    assert all(math.isfinite(v) for v in plan.as_dict().values() if isinstance(v, float))


class TestWorkBelowDoubleRange:
    """A plan's work is positive whatever the inputs (k h/(4 t) > 0), so one
    below the least double is refused, as one past double range is."""

    MESSAGE = "^the solved work lies below double range$"

    def test_bht_work(self):
        with pytest.raises(InfeasibleError, match=self.MESSAGE) as exc:
            bht_work(10, 1.0, 1e308, 0.0, 1.0)
        assert exc.value.floor == 0.0

    def test_bht_fixed_samples(self):
        with pytest.raises(InfeasibleError, match=self.MESSAGE):
            bht_fixed_samples(10, 1.0, 1e308, 0.0, 1.0)

    def test_bht_optimal(self):
        # log2 W is -1131.5 here
        with pytest.raises(InfeasibleError, match=self.MESSAGE) as exc:
            bht_optimal(10, 1e308, 0.0, 1.0)
        assert exc.value.floor == 0.0

    def test_least_positive_work_is_kept(self):
        # hbar/t near the least double: W is subnormal, not zero
        work = bht_work(1.0, 1.0, 1e-3 * HBAR / 5e-324, 0.0, 1.0)
        assert 0.0 < work < 2.3e-308


@pytest.mark.parametrize("n, k, t_total, temp, p, error", [
    (math.nan, 1000.0, 1.0, 300.0, 1.0, DomainError),
    (5000.0, 1000.0, 1e-300, 1e16, 1e-300, InfeasibleError),  # the work overflows
    (1e308, 1e308, 0.5, 1e-320, 1.0, InfeasibleError),  # k (n + 1) overflows, E_L = 0
])
def test_fixed_sample_work_is_finite_or_refused(n, k, t_total, temp, p, error):
    with pytest.raises(error):
        bht_work(n, k, t_total, temp, p)


def test_optimal_plan_needs_one_admissible_sample():
    with pytest.raises(DomainError, match="no sample count is admissible") as raised:
        bht_optimal(1.0, 1.0, 300.0, 0.1)
    assert raised.value.offending_input == (1.0, 0.1)

