import math

import numpy as np
import pytest

from qlimits.dynamics import (
    ControlSchedule,
    EffectiveState,
    SearchSpace,
    Segment,
    analytic_rates,
    averaged_overlap,
    control_bandwidth,
    equator_state,
    evolve,
    final_state,
    measure_modulated_suppression,
    modulated_detuning_suppression,
    optimal_detuning,
)
from qlimits.dynamics import control
from qlimits.errors import DomainError
from reduced_state import observables_of

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # np.trapezoid is new in numpy 2.0


def observables_after(space, omega_i, omega_s, t):
    state = final_state(
        EffectiveState.initial(space), ControlSchedule((Segment(t, omega_i, omega_s),))
    )
    return observables_of(state)


class TestAnalyticRates:
    def test_zero_phase_means_zero_gain(self):
        space = SearchSpace(6)
        obs = observables_of(EffectiveState.initial(space))
        assert obs.alpha_ab == 0.0
        dps, _ = analytic_rates(obs.p_s, obs.p_i, obs.a, 1.0, 0.5, space)
        assert dps == 0.0

    def test_balanced_resonant_state_is_stationary_in_a(self):
        # delta = 0 and P_i = P_s: both terms of dA/dt vanish
        space = SearchSpace(8)
        state = equator_state(space, omega=1.0)
        obs = observables_of(state)
        assert obs.p_i == pytest.approx(obs.p_s, abs=1e-9)
        _, da = analytic_rates(obs.p_s, obs.p_i, obs.a, 1.0, 1.0, space)
        assert abs(da) < 1e-9

    def test_matches_finite_difference_ballistic(self):
        space = SearchSpace(10)
        omega = 2.0 ** (space.n / 2.0)  # g*omega = 1
        t_mid = (math.pi / 4.0) / 1.0   # half way to the peak
        obs = observables_after(space, omega, omega, t_mid)
        dps, _ = analytic_rates(obs.p_s, obs.p_i, obs.a, omega, omega, space)
        h = 1e-4 / omega
        fd = (
            observables_after(space, omega, omega, t_mid + h).p_s
            - observables_after(space, omega, omega, t_mid - h).p_s
        ) / (2.0 * h)
        assert dps == pytest.approx(fd, rel=1e-6)

    def test_second_order_convergence_with_detuning(self):
        space = SearchSpace(6)
        omega_i, omega_s = 1.3, 0.4
        t0 = 0.7
        obs = observables_after(space, omega_i, omega_s, t0)
        dps, da = analytic_rates(obs.p_s, obs.p_i, obs.a, omega_i, omega_s, space)
        errors_ps, errors_a = [], []
        steps = [1e-2, 5e-3, 2.5e-3]
        for h in steps:
            plus = observables_after(space, omega_i, omega_s, t0 + h)
            minus = observables_after(space, omega_i, omega_s, t0 - h)
            errors_ps.append(abs((plus.p_s - minus.p_s) / (2 * h) - dps))
            errors_a.append(abs((plus.a - minus.a) / (2 * h) - da))
        for errs in (errors_ps, errors_a):
            order = math.log(errs[0] / errs[1]) / math.log(steps[0] / steps[1])
            assert order >= 1.9


    def test_trace_columns_give_the_per_row_rates(self):
        space = SearchSpace(6)
        omega_i, omega_s = 1.3, 0.4
        trace = evolve(EffectiveState.initial(space),
                       ControlSchedule((Segment(2.0, omega_i, omega_s),)), 0.05)
        a = trace.a()
        dps, da = analytic_rates(trace.prob_s, trace.prob_i, a, omega_i, omega_s, space)
        rows = [analytic_rates(p_s, p_i, a_k, omega_i, omega_s, space) for p_s, p_i, a_k
                in zip(trace.prob_s.tolist(), trace.prob_i.tolist(), a.tolist())]
        assert dps.tolist() == [row[0] for row in rows]
        assert da.tolist() == [row[1] for row in rows]


class TestPhaseVelocity:
    def test_proportional_to_detuning(self):
        # measure d(alpha_ab)/dt at the equator for several detunings; the
        # rate must scale linearly with delta.  The fitted coefficient is
        # printed, not pinned: quoted values for it disagree by a factor of
        # two between sources, so only the proportionality is asserted.
        space = SearchSpace(18)
        omega = 1.0
        state = equator_state(space, omega)
        coefficients = []
        for delta in (1e-4, 2e-4, 4e-4):
            h = 0.05 / omega
            seg = Segment(h, omega + delta, omega - delta)
            end = final_state(state, ControlSchedule((seg,)))
            alpha0 = observables_of(state).alpha_ab
            alpha1 = observables_of(end).alpha_ab
            coefficients.append((alpha1 - alpha0) / h / delta)
        for c in coefficients[1:]:
            assert c == pytest.approx(coefficients[0], rel=5e-2)
        print(f"phase-velocity coefficient d(alpha)/dt / delta ~ {coefficients[0]:.4f}")


class TestAveragedOverlap:
    def test_zero_detuning_zero_population_diff_is_identity(self):
        space = SearchSpace(16)
        a0 = 0.2 + 0.3j
        assert averaged_overlap(a0, 0.0, 1.5, 0.0, 2.0, space) == a0

    def test_sinc_zero_kills_initial_term(self):
        space = SearchSpace(16)
        window = 1.7
        delta = 2.0 * math.pi / window
        out = averaged_overlap(1.0 + 0.0j, delta, 0.0, 0.0, window, space)
        # only the small fixed-point correction of order g/2 survives
        assert abs(out) <= space.overlap
        out0 = averaged_overlap(0.0j, delta, 0.0, 0.0, window, space)
        assert out - out0 == pytest.approx(0.0, abs=1e-15)

    def test_matches_frozen_population_quadrature(self):
        # independent oracle: RK integration of dA/dt with frozen populations
        from scipy.integrate import solve_ivp

        space = SearchSpace(16)
        g = space.overlap
        omega, window = 2.0, 1.5
        delta = 0.3 / window
        p_i, p_s = 0.7, 0.3
        a0 = 0.1 + 0.45j

        def rhs(_t, y):
            a = y[0] + 1j * y[1]
            da = -1j * delta * (2 * a - g * (p_i + p_s)) + 1j * g * omega * (p_i - p_s)
            return [da.real, da.imag]

        sol = solve_ivp(
            rhs, (0.0, window), [a0.real, a0.imag],
            rtol=1e-12, atol=1e-14, dense_output=True,
        )
        ts = np.linspace(0.0, window, 20001)
        vals = sol.sol(ts)
        oracle = trapezoid(vals[0] + 1j * vals[1], ts) / window
        mine = averaged_overlap(a0, delta, omega, p_i - p_s, window, space)
        assert abs(mine - oracle) <= 1e-6 * abs(oracle)

    def test_series_branch_continuous(self):
        # straddle the series/direct switch at |x| = 1e-4: the jump must be
        # consistent with the smooth slope (~|A0| per unit x), not a branch gap
        space = SearchSpace(12)
        a0 = 0.3 + 0.1j
        lo = averaged_overlap(a0, 9.9999e-5, 1.0, 0.4, 1.0, space)
        hi = averaged_overlap(a0, 1.00001e-4, 1.0, 0.4, 1.0, space)
        # smooth slope is ~|A0|*window, so 2e-9 of detuning moves ~6e-10
        assert abs(lo - hi) < 2e-9


class TestControlBandwidth:
    def test_whole_run_window_needs_nothing(self):
        assert control_bandwidth(None, 10.0, 10.0) == 0.0

    def test_half_window(self):
        assert control_bandwidth(None, 10.0, 5.0) == pytest.approx(3.79 / 10.0, rel=1e-12)

    def test_ballistic_single_segment_is_free(self):
        space = SearchSpace(8)
        from qlimits.dynamics import ballistic_schedule
        from qlimits.constants import HBAR

        schedule = ballistic_schedule(space, HBAR * 10.0)
        total = schedule.total_duration
        assert control_bandwidth(schedule, total, total) == 0.0

    def test_one_segment_schedule_is_free_in_any_window(self):
        # max(3.79/1 - 3.79/10, 0) = 3.411 without the schedule
        schedule = ControlSchedule(((10.0, 1.0, 1.0),))
        assert control_bandwidth(schedule, 10.0, 1.0) == 0.0
        assert control_bandwidth(None, 10.0, 1.0) == pytest.approx(3.411, rel=1e-12)

    def test_rejects_oversized_window(self):
        with pytest.raises(DomainError):
            control_bandwidth(None, 1.0, 2.0)


class TestOptimalDetuning:
    def test_boundary_value(self):
        space = SearchSpace(20)
        g = space.overlap
        assert optimal_detuning(g + 0j, 100.0, 1.0, 1.0, g * g, space, "boundary") == (
            pytest.approx(3.0 / 100.0, rel=1e-12)
        )

    def test_bulk_reduces_to_boundary_without_real_offset(self):
        space = SearchSpace(20)
        g = space.overlap
        value = optimal_detuning(g + 0.4j, 100.0, 0.0, 0.5, 0.5, space, "bulk")
        assert value == pytest.approx(3.0 / 100.0, rel=1e-12)

    def test_bulk_clamped_at_four_over_c(self):
        space = SearchSpace(20)
        g = space.overlap
        value = optimal_detuning(
            (g - 0.3) + 0.1j, 100.0, 0.0, 0.5, 0.5, space, "bulk"
        )
        assert value == pytest.approx(4.0 / 100.0, rel=1e-12)

    def test_preconditions_enforced(self):
        space = SearchSpace(20)
        with pytest.raises(DomainError):
            optimal_detuning(0.1j, 5.0, 0.0, 0.5, 0.5, space, "bulk")  # C < 10
        with pytest.raises(DomainError):
            optimal_detuning(0.1j, 200.0, 0.0, 0.5, 0.5, space, "bulk")  # C > 2^(n/2)/10
        with pytest.raises(DomainError):
            optimal_detuning(0.1j, 100.0, 0.0, 1e-3, 0.5, space, "bulk")  # P_i too small

    def test_sweep_characterization(self):
        # Brute-force argmax of the window-averaged gain over constant
        # detunings, from the equator state.  The closed-form estimate is a
        # second-order expansion; the simulated optimum sits far below it,
        # so this test records the comparison and asserts only the cap.
        space = SearchSpace(20)
        omega = 1.0
        c_window = 100.0
        window = 2.0 * c_window / omega
        state = equator_state(space, omega)
        obs0 = observables_of(state)
        estimate = optimal_detuning(
            obs0.a, c_window, obs0.p_i - obs0.p_s, obs0.p_i, obs0.p_s, space, "bulk"
        )
        assert estimate <= 4.0 / c_window + 1e-15

        deltas = np.linspace(0.0, 2.0 * estimate / window * 2.0, 1001)
        gains = []
        for delta in deltas:
            seg = Segment(window, omega + delta, omega - delta)
            end = final_state(state, ControlSchedule((seg,)))
            p_end = observables_of(end).p_s
            gains.append((p_end - obs0.p_s) / window)
        best = float(deltas[int(np.argmax(gains))]) * window / 2.0
        assert best <= 4.0 / c_window + 1e-15
        print(
            f"optimal-detuning sweep: closed-form {estimate:.4g}, "
            f"simulated argmax {best:.4g} (delta*window/2 units)"
        )


class TestModulatedDetuning:
    @pytest.mark.parametrize("r,expected", [(0.0, 1.0), (0.1, 0.9975), (0.5, 0.9375)])
    def test_formula(self, r, expected):
        assert modulated_detuning_suppression(r) == pytest.approx(expected, rel=1e-12)

    def test_rejects_large_ratio(self):
        with pytest.raises(DomainError):
            modulated_detuning_suppression(0.6)

    def test_simulation_close_to_estimate(self):
        space = SearchSpace(16)
        measured = abs(measure_modulated_suppression(space, 0.1))
        assert measured == pytest.approx(modulated_detuning_suppression(0.1), rel=0.10)

    def test_window_average_is_numpys_trapezoid_rule(self, monkeypatch):
        traces = []

        def recording_evolve(*args):
            traces.append(evolve(*args))
            return traces[-1]

        monkeypatch.setattr(control, "evolve", recording_evolve)
        measured = measure_modulated_suppression(SearchSpace(16), 0.15, cycles=3)
        t, a = traces[0].t, traces[0].a()
        assert a.dtype == complex and len(set(np.diff(t).tolist())) > 1
        expected = complex(trapezoid(a, t) / (t[-1] - t[0])) / a[0]
        assert (measured.real, measured.imag) == (expected.real, expected.imag)


def test_optimal_detuning_refuses_an_unknown_regime():
    with pytest.raises(DomainError, match="regime must be 'boundary' or 'bulk'"):
        optimal_detuning(0.5 + 0.5j, 20.0, 0.0, 0.5, 0.5, SearchSpace(20), "edge")
