import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlimits.bht import (
    REFERENCE_IMAGE_BITS,
    _closed_form_log2,
    _log2_work_terms,
    bht_min_image_bits,
    bht_optimal,
    bht_sweep_minimum,
    bht_work,
    bht_work_closed_form,
    optimal_quantum_time,
)
from qlimits._num import exp2, golden_min, log2_add, log2_radical
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


def scalar_grid_sweep(n, t_total, temperature, p_success, points, admissible_top=True):
    """The sweep with one scalar bht_work call per grid point.

    With ``admissible_top`` the grid tops out at the largest k whose libm
    log2 stays within n + log2 P_s and the golden section stays below it;
    without, the grid tops out at exp2(n + log2 P_s), whose log2 can round
    one ulp above, and the golden section is not clamped.
    """
    top = n + math.log2(p_success)
    k_hi = exp2(top)
    while admissible_top and math.log2(k_hi) > top:
        k_hi = math.nextafter(k_hi, 0.0)
    grid = np.exp(np.linspace(0.0, math.log(k_hi), points))
    grid[-1] = k_hi
    works = np.array([bht_work(n, float(k), t_total, temperature, p_success) for k in grid])
    j = int(np.argmin(works))
    lo = math.log(grid[max(j - 1, 0)])
    hi = math.log(grid[min(j + 1, points - 1)])

    def k_at(u):
        k = max(math.exp(u), 1.0)
        return min(k, k_hi) if admissible_top else k

    u = golden_min(lambda u: bht_work(n, k_at(u), t_total, temperature, p_success), lo, hi)
    return k_at(u), bht_work(n, k_at(u), t_total, temperature, p_success)


class TestSweepMatchesScalarGrid:
    @given(
        n=st.one_of(st.integers(min_value=1, max_value=48),
                    st.floats(min_value=0.5, max_value=48.0)),
        p=st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
        temp=st.sampled_from([0.1, 2.7, 300.0]),
        log10_t=st.floats(min_value=-9.0, max_value=3.0),
        points=st.sampled_from([2, 64, 3000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_identical_minimum(self, n, p, temp, log10_t, points):
        t_total = 10.0 ** log10_t
        try:
            want = scalar_grid_sweep(n, t_total, temp, p, points)
        except DomainError as exc:  # 2^n P_s < 1
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                bht_sweep_minimum(n, t_total, temp, p, points=points)
            return
        assert bht_sweep_minimum(n, t_total, temp, p, points=points) == want

    @pytest.mark.parametrize("n, p, eps", [(1, 0.5, 1e-9), (2, 0.25, 1e-12), (3, 0.125, 1e-6)])
    def test_identical_where_the_grid_is_nearly_flat(self, n, p, eps):
        # 2^n P_s just above 1: an interior minimum whose neighbours differ
        # by about one ulp, where the argmin is most fragile
        for t_total in (1e-9, 1e-6, 1.0):
            args = (n, t_total, 300.0, p * (1.0 + eps))
            assert bht_sweep_minimum(*args, points=3000) == scalar_grid_sweep(*args, 3000)

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
                                      # numpy's log2 of the top point rounds down here
                                      (2.091481196530853, 0.6387684804534405),
                                      (1.7962314534121646, 0.5270417806967417)])
    def test_admissible_where_exp2_of_the_top_rounds_past_it(self, n, p):
        # log2 of exp2(n + log2 P_s) rounds one ulp above the exponent, so
        # that k has a negative radicand; the grid tops out one ulp lower
        top = n + math.log2(p)
        assert math.log2(exp2(top)) > top
        k_min, w_min = bht_sweep_minimum(n, 1.0, 300.0, p, points=3000)
        assert 1.0 <= k_min and math.log2(k_min) <= top
        assert math.isfinite(w_min)
        assert (k_min, w_min) == scalar_grid_sweep(n, 1.0, 300.0, p, 3000)

    @given(n=st.integers(min_value=1, max_value=48),
           log10_t=st.floats(min_value=-9.0, max_value=3.0),
           points=st.sampled_from([2, 64, 3000]))
    @settings(max_examples=60, deadline=None)
    def test_integer_n_at_certainty_keeps_the_exp2_top(self, n, log10_t, points):
        # 2^n is exact, so the admissible top is exp2(n) and nothing moves
        assert math.log2(exp2(float(n))) == n
        args = (n, 10.0 ** log10_t, 300.0, 1.0)
        assert bht_sweep_minimum(*args, points=points) == \
            scalar_grid_sweep(*args, points, admissible_top=False)


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
    """log2 k* and log2 W* on both sides of the cut-overs where the bracket
    (n+1) E_L 4 t/hbar + 2 pi overflows and 1.25 hbar/t underflows."""

    @staticmethod
    def reference(n, t_total, temp, p):
        with localcontext() as ctx:
            ctx.prec = 50
            ln2 = Decimal(2).ln()
            e_l, hbar, t = Decimal(landauer_energy(temp)), Decimal(HBAR), Decimal(t_total)
            x = (Decimal(n) + 1) * e_l * 4 * t / hbar + Decimal(2.0 * math.pi)
            log2_x = x.ln() / ln2
            base = (Decimal(n) + Decimal(p).ln() / ln2) / 3
            log2_w = base + log2_x / 3 + (Decimal(1.25) * hbar / t).ln() / ln2
            return float(base - 2 * log2_x / 3), float(log2_w)

    @pytest.mark.parametrize("n", [1.0, 40.0, 700.5, 4096.0])
    def test_matches_a_50_digit_reference(self, n):
        for t_total in [1e250, 5e273, 6e273, 1e285, 1e290, 1e292, 1e295, 1e300, 1.7e308]:
            for temp in (2.7, 300.0):
                got = _closed_form_log2(n, t_total, landauer_energy(temp), 0.25)
                want = self.reference(n, t_total, temp, 0.25)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-12)

    def test_in_range_values_unchanged(self):
        # the direct form, as the closed form was computed before the cut-overs
        for n, t_total, temp, p in [(128, 1.6e8, 300.0, 1e-2), (40, 1.0, 2.7, 1.0),
                                    (1000, 1e22, 300.0, 1e-12)]:
            x = (n + 1.0) * landauer_energy(temp) * 4.0 * t_total / HBAR + 2.0 * math.pi
            base = (n + math.log2(p)) / 3.0
            want = (base - (2.0 / 3.0) * math.log2(x),
                    base + math.log2(x) / 3.0 + math.log2(1.25 * HBAR / t_total))
            assert _closed_form_log2(n, t_total, landauer_energy(temp), p) == want


def _old_log2_work_terms(n, log2_k, t_total, temperature, p_success):
    """The log-space work before h/(4t) and hbar/t could leave the normal range."""
    e_l = landauer_energy(temperature)
    landauer_log2 = math.log2((n + 1.0) * e_l) if e_l > 0.0 else -math.inf
    classical_log2 = log2_add(log2_k + landauer_log2, log2_k + math.log2(H / (4.0 * t_total)))
    r_log2 = n + math.log2(p_success) - log2_k
    return log2_add(classical_log2, log2_radical(r_log2) + math.log2(HBAR / t_total))


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 4000.0), st.floats(1e-300, HBAR / sys.float_info.min), st.floats(0.0, 1e30),
       st.floats(1e-300, 1.0), st.floats(0.0, 1.0))
def test_log_space_work_keeps_every_normal_case_to_the_bit(n, t_total, temp, p, share):
    # while h/(4t) and hbar/t are normal doubles (t up to 4.7e273 s) the
    # quotients are taken as before; past that the split log is the more exact
    top = n + math.log2(p)
    assume(top >= 0.0)
    log2_k = share * top
    assert (_log2_work_terms(n, log2_k, t_total, landauer_energy(temp), p)
            == _old_log2_work_terms(n, log2_k, t_total, temp, p))


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


@pytest.mark.parametrize("n, k, t_total, temp, p, error", [
    (math.nan, 1000.0, 1.0, 300.0, 1.0, DomainError),
    (5000.0, 1000.0, 1e300, 1e16, 1e-300, InfeasibleError),  # the work overflows
    (1e308, 1e308, 0.5, 1e-320, 1.0, InfeasibleError),  # k (n + 1) overflows, E_L = 0
])
def test_fixed_sample_work_is_finite_or_refused(n, k, t_total, temp, p, error):
    with pytest.raises(error):
        bht_work(n, k, t_total, temp, p)
