import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from qlimits.constants import HBAR
from qlimits.dynamics import (
    ControlSchedule,
    EffectiveState,
    SearchSpace,
    Segment,
    adiabatic_gap,
    adiabatic_schedule,
    adiabatic_total_time,
    ballistic_schedule,
    effective_hamiltonian,
    eigenenergies,
    evolve,
    final_state,
    first_peak_iterations,
    grover_pulsed_schedule,
    propagate,
    runtime_to_infidelity,
    schedule_infidelity,
    standard_grover_iterations,
)
from qlimits.dynamics.core import (BLOCK_ELEMENTS, MAX_TRACE_SAMPLES, _bit_reversed,
                                   _block_segments, _pairwise_product, _pauli_components, _su2)
from qlimits.dynamics.schedules import _mirrored_sweep_infidelity
from qlimits.errors import CapacityError, ConsistencyError, DomainError, InfeasibleError


def ballistic_oracle(n, omega, t):
    """Independent closed form: P_s = 2^-n + (1 - 2^-n) sin^2(omega t / 2^(n/2))."""
    p0 = 2.0 ** (-n)
    return p0 + (1.0 - p0) * np.sin(omega * t * 2.0 ** (-n / 2.0)) ** 2


class TestSearchSpace:
    def test_overlap_dimension_identity(self):
        for n in (1, 2, 17, 100, 511, 1024):
            space = SearchSpace(n)
            assert abs(2.0 * math.log2(space.overlap) + n) < 1e-9 * max(n, 1)

    def test_dimension_exact(self):
        assert SearchSpace(10).dimension == 1024
        assert SearchSpace(1024).dimension == 2**1024

    @pytest.mark.parametrize("bad", [0, -1, 1025, 2.5])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(DomainError):
            SearchSpace(bad)


class TestEffectiveHamiltonian:
    def test_zero_frequencies_vanish(self):
        h = effective_hamiltonian(SearchSpace(1), 0.0, 0.0)
        assert np.all(h == 0.0)

    def test_equal_frequencies_eigenvalues(self):
        # omega (|i><i| + |s><s|) has eigenvalues omega (1 +- g); n=2 -> g=1/2
        omega = 1.7
        h = effective_hamiltonian(SearchSpace(2), omega, omega)
        evals = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(evals, [omega * 0.5, omega * 1.5], rtol=1e-12)

    def test_trace_is_frequency_sum(self):
        h = effective_hamiltonian(SearchSpace(8), 1.0, 0.0)
        assert abs(np.trace(h) - 1.0) < 1e-15

    def test_rejects_negative_frequency(self):
        with pytest.raises(DomainError):
            effective_hamiltonian(SearchSpace(4), -1.0, 0.0)


class TestEigenenergies:
    def test_zero_detuning_form(self):
        for n in (4, 9, 30):
            omega = 2.2
            e_plus, e_minus = eigenenergies(SearchSpace(n), omega, 0.0)
            g = 2.0 ** (-n / 2.0)
            assert e_plus == pytest.approx(HBAR * omega * (1 + g), rel=1e-14)
            assert e_minus == pytest.approx(HBAR * omega * (1 - g), rel=1e-14)

    def test_full_detuning_limit(self):
        e_plus, e_minus = eigenenergies(SearchSpace(400), 3.0, 3.0)
        assert e_plus == pytest.approx(2.0 * HBAR * 3.0, rel=1e-12)
        assert abs(e_minus) < 1e-45

    def test_matches_numeric_diagonalization(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            omega = float(rng.uniform(0.01, 10.0))
            delta = float(rng.uniform(-omega, omega))
            space = SearchSpace(n)
            h = effective_hamiltonian(space, omega + delta, omega - delta)
            evals = np.sort(np.linalg.eigvalsh(h))[::-1] * HBAR
            e_plus, e_minus = eigenenergies(space, omega, delta)
            assert abs(e_plus - evals[0]) <= 1e-12 * abs(evals[0])
            assert abs(e_minus - evals[1]) <= 1e-12 * max(abs(evals[1]), 1e-60)

    def test_rejects_detuning_beyond_mean(self):
        with pytest.raises(DomainError):
            eigenenergies(SearchSpace(10), 1.0, 1.5)


class TestEvolve:
    def test_zero_schedule_leaves_state(self):
        space = SearchSpace(6)
        trace = evolve(
            EffectiveState.initial(space),
            ControlSchedule((Segment(3.0, 0.0, 0.0),)),
            0.1,
        )
        ps = trace.prob_s
        assert np.allclose(ps, 2.0**-6, atol=1e-15)
        assert trace.points[-1].obs.p_i == pytest.approx(1.0, abs=1e-15)

    def test_ballistic_matches_closed_form(self):
        space = SearchSpace(12)
        omega = 1000.0
        work = HBAR * omega * (1.0 + 2.0**-6)
        schedule = ballistic_schedule(space, work)
        trace = evolve(EffectiveState.initial(space), schedule, schedule.total_duration / 777)
        t = trace.t
        assert np.max(np.abs(trace.prob_s - ballistic_oracle(12, omega, t))) <= 1e-9
        assert trace.points[-1].obs.p_s >= 1.0 - 1e-9

    def test_norm_error_tiny_over_long_trace(self):
        space = SearchSpace(16)
        schedule = ballistic_schedule(space, HBAR * 100.0)
        trace = evolve(
            EffectiveState.initial(space), schedule, schedule.total_duration / 10001
        )
        assert len(trace.points) >= 10000
        assert max(p.norm_error for p in trace.points) <= 1e-9
        t = trace.t
        assert np.all(np.diff(t) > 0.0)

    def test_coarse_sampling_keeps_boundaries_only(self):
        space = SearchSpace(4)
        schedule = ControlSchedule((Segment(0.3, 1.0, 0.0), Segment(0.2, 0.0, 1.0)))
        trace = evolve(EffectiveState.initial(space), schedule, 10.0)
        assert [p.t for p in trace.points] == pytest.approx([0.0, 0.3, 0.5])

    def test_samples_include_boundaries(self):
        space = SearchSpace(4)
        schedule = ControlSchedule(
            (Segment(0.31, 1.0, 0.2), Segment(0.53, 0.1, 0.9), Segment(0.16, 0.0, 0.0))
        )
        trace = evolve(EffectiveState.initial(space), schedule, 0.1)
        t = trace.t
        for boundary in (0.0, 0.31, 0.84, 1.0):
            assert np.min(np.abs(t - boundary)) < 1e-12
        assert t[-1] == pytest.approx(1.0, rel=1e-12)

    def test_overlap_product_consistency(self):
        # |A|^2 = P_i * P_s for a pure state
        space = SearchSpace(5)
        schedule = ControlSchedule((Segment(2.0, 1.3, 0.8),))
        trace = evolve(EffectiveState.initial(space), schedule, 0.05)
        for p in trace.points:
            assert abs(p.obs.a) ** 2 <= p.obs.p_i * p.obs.p_s + 1e-12

    def test_envelope_bound(self):
        # P_s(t) - P_s(0) <= b * E_plus^2 t^2 / (hbar^2 2^n) along ballistic runs
        from qlimits.bounds import prefactor_b

        space = SearchSpace(10)
        schedule = ballistic_schedule(space, HBAR * 50.0)
        trace = evolve(EffectiveState.initial(space), schedule, schedule.total_duration / 400)
        b = prefactor_b(0.0, 10)
        omega = float(schedule.omega_i[0])  # one constant segment: one E_plus
        e_plus, _ = eigenenergies(space, omega, 0.0)
        bound = b * (e_plus / HBAR) ** 2 * trace.t**2 / 2**10
        assert np.all(trace.prob_s - trace.prob_s[0] <= bound + 1e-12)

    def test_eigenstates_have_zero_phase(self):
        space = SearchSpace(9)
        h = effective_hamiltonian(space, 1.4, 0.7)
        _, vecs = np.linalg.eigh(h)
        for k in range(2):
            state = EffectiveState(complex(vecs[0, k]), complex(vecs[1, k]), space)
            alpha_ab = cmath.phase(state.solution_amplitude().conjugate() * state.c1)
            assert abs(math.sin(alpha_ab)) <= 1e-9

    def test_norm_drift_raises(self):
        space = SearchSpace(3)
        bad = EffectiveState.__new__(EffectiveState)
        object.__setattr__(bad, "c1", 1.0 + 5e-8j)
        object.__setattr__(bad, "c2", 1e-4 + 0.0j)
        object.__setattr__(bad, "space", space)
        with pytest.raises(ConsistencyError):
            evolve(bad, ControlSchedule((Segment(1.0, 1.0, 1.0),)), 0.5)


class TestBallisticSchedule:
    def test_unit_substitution(self):
        # n=2, W = hbar * 1.5 -> omega = 1, t_F = pi
        space = SearchSpace(2)
        schedule = ballistic_schedule(space, HBAR * 1.5)
        seg = schedule.segments[0]
        assert seg.omega_i == pytest.approx(1.0, rel=1e-12)
        assert seg.omega_s == pytest.approx(1.0, rel=1e-12)
        assert schedule.total_duration == pytest.approx(math.pi, rel=1e-12)

    def test_deterministic_endpoint(self):
        space = SearchSpace(12)
        schedule = ballistic_schedule(space, HBAR * 2000.0)
        state = final_state(EffectiveState.initial(space), schedule)
        assert abs(state.solution_amplitude()) ** 2 >= 1.0 - 1e-9

    def test_128_bit_nanosecond_budget(self):
        # t_F <= 1 ns iff W >= (pi/2) 2^64 hbar / 1e-9 ~ 3.06e-6 J
        space = SearchSpace(128)
        threshold = math.pi / 2.0 * (2.0**64 + 1.0) * HBAR / 1e-9
        assert threshold == pytest.approx(3.056e-6, rel=1e-3)
        schedule = ballistic_schedule(space, 6.5e-6)
        assert schedule.total_duration <= 1e-9
        schedule = ballistic_schedule(space, threshold * 0.99)
        assert schedule.total_duration > 1e-9


class TestGroverPulsed:
    def test_schedule_shape(self):
        space = SearchSpace(8)
        schedule = grover_pulsed_schedule(space, 2.0 * HBAR, math.pi, 3)
        assert len(schedule.segments) == 6
        first, second = schedule.segments[:2]
        assert (first.omega_i, first.omega_s) == (0.0, 2.0)
        assert (second.omega_i, second.omega_s) == (2.0, 0.0)
        assert first.duration == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_single_pulse_pair_small_spaces(self):
        # hand rotation: P_s after one pair is sin^2(3*asin(2^(-n/2))),
        # so n=2 lands exactly on the solution while n=1 stalls at 1/2
        for n, expected in ((1, 0.5), (2, 1.0)):
            space = SearchSpace(n)
            schedule = grover_pulsed_schedule(space, HBAR, math.pi, 1)
            state = final_state(EffectiveState.initial(space), schedule)
            p_s = abs(state.solution_amplitude()) ** 2
            assert p_s == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_standard_iterations_reach_target(self, n):
        space = SearchSpace(n)
        iters = standard_grover_iterations(space)
        assert iters == round(math.pi * 2.0 ** (n / 2.0) / 4.0)
        schedule = grover_pulsed_schedule(space, HBAR, math.pi, iters)
        state = final_state(EffectiveState.initial(space), schedule)
        p_s = abs(state.solution_amplitude()) ** 2
        # rotation-composition oracle: P_s = sin^2((2j+1) asin(2^(-n/2)))
        theta = math.asin(2.0 ** (-n / 2.0))
        assert p_s == pytest.approx(math.sin((2 * iters + 1) * theta) ** 2, abs=1e-12)
        assert p_s >= 1.0 - 2.0 ** (2 - n)

    def test_first_peak_reported_for_both_phases(self):
        space = SearchSpace(8)
        pairs_pi, p_pi = first_peak_iterations(space, HBAR, math.pi)
        pairs_half, p_half = first_peak_iterations(space, HBAR, math.pi / 2.0)
        # phase pi peaks within one pair of the canonical count
        assert abs(pairs_pi - standard_grover_iterations(space)) <= 1
        assert p_pi > 0.99
        # the slower pi/2 pulses need more pairs; record the measured count
        assert pairs_half > pairs_pi
        assert p_half > 0.99
        print(f"first-peak pairs: phase pi -> {pairs_pi}, phase pi/2 -> {pairs_half}")


class TestScheduleCapacity:
    """Schedules longer than any trace raise before a segment is built."""

    @staticmethod
    def peak_bytes(build):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as exc:
                build()
            return exc.value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_grover_at_n_60(self):
        space = SearchSpace(60)
        iterations = standard_grover_iterations(space)
        error, peak = self.peak_bytes(
            lambda: grover_pulsed_schedule(space, 1e-30, math.pi, iterations))
        assert error.offending_input == 2 * iterations
        assert peak < 1 << 20

    def test_grover_one_pair_past_the_limit(self):
        space = SearchSpace(8)
        with pytest.raises(CapacityError):
            grover_pulsed_schedule(space, HBAR, math.pi, MAX_TRACE_SAMPLES // 2 + 1)

    def test_adiabatic_default_count_at_n_41(self):
        error, peak = self.peak_bytes(lambda: adiabatic_schedule(SearchSpace(41), 1.0, 0.1))
        assert error.offending_input == 16 * math.ceil(2.0 ** 20.5)
        assert peak < 1 << 20

    def test_adiabatic_explicit_count(self):
        with pytest.raises(CapacityError):
            adiabatic_schedule(SearchSpace(6), 1.0, 0.1, segments=MAX_TRACE_SAMPLES + 1)


class TestAdiabatic:
    def test_sweep_endpoints_and_segment_count(self):
        space = SearchSpace(6)
        schedule = adiabatic_schedule(space, 1.0, 0.1, kind="local")
        assert len(schedule.segments) >= 256
        first, last = schedule.segments[0], schedule.segments[-1]
        scale = 1.0 / HBAR
        assert first.omega_i > 0.9 * scale and first.omega_s < 0.1 * scale
        assert last.omega_s > 0.9 * scale and last.omega_i < 0.1 * scale

    def test_initial_state_is_top_eigenstate_at_c0(self):
        space = SearchSpace(8)
        h = effective_hamiltonian(space, 1.0, 0.0)
        evals, vecs = np.linalg.eigh(h)
        top = vecs[:, np.argmax(evals)]
        overlap = abs(top[0]) ** 2  # |<i|top>|^2
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_local_beats_linear_at_equal_time(self):
        for n in (8, 10):
            space = SearchSpace(n)
            local = adiabatic_schedule(space, 1.0, 0.08, kind="local")
            linear = adiabatic_schedule(space, 1.0, 0.08, kind="linear")
            assert linear.total_duration == pytest.approx(local.total_duration, rel=1e-9)
            p_local = 1.0 - schedule_infidelity(space, local)
            p_linear = 1.0 - schedule_infidelity(space, linear)
            assert p_linear < p_local

    def test_gap_matches_eigen_splitting(self):
        # oracle: E_plus - E_minus of the interpolated Hamiltonian
        space = SearchSpace(10)
        energy = 2.5
        for c in (0.0, 0.2, 0.5, 0.77, 1.0):
            h = effective_hamiltonian(
                space, (1.0 - c) * energy / HBAR, c * energy / HBAR
            )
            evals = np.linalg.eigvalsh(h)
            oracle = (evals[1] - evals[0]) * HBAR
            assert adiabatic_gap(space, energy, c) == pytest.approx(oracle, rel=1e-12)

    def test_total_time_scales_as_sqrt_dimension(self):
        t6 = adiabatic_total_time(SearchSpace(6), 1.0, 0.1)
        t14 = adiabatic_total_time(SearchSpace(14), 1.0, 0.1)
        assert t14 / t6 == pytest.approx(2.0**4, rel=0.1)

    def test_rejects_bad_budget(self):
        with pytest.raises(DomainError):
            adiabatic_schedule(SearchSpace(6), 1.0, 1.5)

    def test_sweep_time_past_double_range_is_infeasible(self):
        # epsilon * E underflows to 0, which once raised ZeroDivisionError
        with pytest.raises(InfeasibleError):
            adiabatic_total_time(SearchSpace(6), 48.5 * HBAR, 5e-324)

    def test_overflowing_frequencies_are_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="segment frequencies"):
                adiabatic_schedule(SearchSpace(4), 1e300, 1e-300)


class TestScheduleOps:
    def test_truncated_preserves_prefix(self):
        schedule = ControlSchedule((Segment(1.0, 1.0, 0.0), Segment(1.0, 0.0, 1.0)))
        cut = schedule.truncated(1.5)
        assert len(cut.segments) == 2
        assert cut.total_duration == pytest.approx(1.5, rel=1e-12)
        assert cut.segments[1].duration == pytest.approx(0.5, rel=1e-12)

    def test_declared_duration_mismatch_raises(self):
        with pytest.raises(ConsistencyError):
            ControlSchedule((Segment(1.0, 1.0, 1.0),), declared_duration=2.0)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(DomainError):
            ControlSchedule(())
        with pytest.raises(DomainError):
            Segment(0.0, 1.0, 1.0)


def segment_unitary(space, seg):
    """exp(-i (H/hbar) * duration) of one segment, by scipy's expm."""
    h = effective_hamiltonian(space, seg.omega_i, seg.omega_s)
    return scipy.linalg.expm(-1j * h * seg.duration)


def per_segment_amplitudes(state, schedule, factor):
    """Reference: the product of segment_unitary over the stretched schedule."""
    psi = np.array([state.c1, state.c2], dtype=complex)
    for seg in schedule.scaled(factor).segments:
        psi = segment_unitary(state.space, seg) @ psi
    return psi


def random_schedule(rng, count, zero_every=0):
    """Random segments with frequencies in [0, 2) and a total phase of order 100 rad."""
    segs = []
    for k in range(count):
        omega_i, omega_s = rng.uniform(0.0, 2.0, size=2)
        if zero_every and k % zero_every == 0:
            omega_i = omega_s = 0.0  # rabi == 0: a pure identity segment
        segs.append(Segment(float(rng.uniform(0.05, 1.0) * 50.0 / count), omega_i, omega_s))
    return ControlSchedule(tuple(segs))


def random_state(rng, space):
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    c /= np.linalg.norm(c)
    return EffectiveState(complex(c[0]), complex(c[1]), space)


class TestPropagateKernel:
    FACTORS = np.array([0.125, 0.7, 1.0, 2.5, 4.0])
    BLOCK = _block_segments(FACTORS.size)

    @pytest.mark.parametrize(
        "count",
        # 1, odd, padded last blocks, the edges of a five-factor block (a
        # last block of one segment after one and after two full blocks) and
        # a padded last block after one and after three full blocks
        [1, 2, 3, 7, 33, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 1639, 3313],
    )
    def test_batch_matches_per_segment_product(self, count):
        rng = np.random.default_rng(count)
        space = SearchSpace(int(rng.integers(1, 21)))
        schedule = random_schedule(rng, count, zero_every=5)
        state = random_state(rng, space)
        c1, c2 = propagate(state, schedule, self.FACTORS)
        for k, factor in enumerate(self.FACTORS):
            ref = per_segment_amplitudes(state, schedule, factor)
            assert abs(c1[k] - ref[0]) <= 1e-12
            assert abs(c2[k] - ref[1]) <= 1e-12

    # at one factor, 2^j + 1 segments pad the most; a full block and three more
    @pytest.mark.parametrize("count", [1, 5, 2 ** 10 + 1, _block_segments(1) + 3])
    def test_final_state_matches_per_segment_product(self, count):
        rng = np.random.default_rng(100 + count)
        space = SearchSpace(7)
        schedule = random_schedule(rng, count, zero_every=4)
        state = random_state(rng, space)
        end = final_state(state, schedule)
        ref = per_segment_amplitudes(state, schedule, 1.0)
        assert abs(end.c1 - ref[0]) <= 1e-12
        assert abs(end.c2 - ref[1]) <= 1e-12

    def test_all_zero_frequency_schedule_is_identity(self):
        space = SearchSpace(5)
        schedule = ControlSchedule((Segment(0.4, 0.0, 0.0),) * 9)
        c1, c2 = propagate(EffectiveState.initial(space), schedule, self.FACTORS)
        assert np.all(c1 == 1.0) and np.all(c2 == 0.0)

    def test_temporaries_do_not_grow_with_batch_times_segments(self):
        import tracemalloc

        rng = np.random.default_rng(3)
        count, batch = 8_000, 97
        schedule = random_schedule(rng, count)
        factors = np.linspace(0.5, 2.0, batch)
        tracemalloc.start()
        try:
            propagate(EffectiveState.initial(SearchSpace(9)), schedule, factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one complex per (factor, segment) would be 12 MB; per-segment
        # float arrays and a few blocks of complex temporaries stay far below
        assert peak < 6 * 8 * count + 16 * 16 * BLOCK_ELEMENTS
        assert peak < 16 * batch * count / 10

    def test_norm_drift_raises(self):
        space = SearchSpace(4)
        state = EffectiveState(1.0 + 1e-7 + 0.0j, 0.0j, space)  # within 1e-6, beyond 1e-9
        schedule = ControlSchedule((Segment(1.0, 1.0, 0.5),))
        with pytest.raises(ConsistencyError):
            propagate(state, schedule, self.FACTORS)
        with pytest.raises(ConsistencyError):
            final_state(state, schedule)

    def test_rejects_nonpositive_factor(self):
        schedule = ControlSchedule((Segment(1.0, 1.0, 0.5),))
        with pytest.raises(DomainError):
            propagate(EffectiveState.initial(SearchSpace(4)), schedule, np.array([1.0, 0.0]))

    def test_rejects_empty_factors(self):
        schedule = ControlSchedule((Segment(1.0, 1.0, 0.5),))
        with pytest.raises(DomainError, match="number of scale factors"):
            propagate(EffectiveState.initial(SearchSpace(4)), schedule, np.array([]))


def su2_by_expression(x, z, dt):
    """The segment kernel's specification: (alpha, beta) as the complex
    expressions cos - 1j (z sin/rabi) and -1j (x sin/rabi)."""
    rabi = np.hypot(x, z)
    angle = rabi * dt
    sin_over = np.sin(angle) / np.where(rabi > 0.0, rabi, 1.0)
    return np.cos(angle) - 1j * (z * sin_over), -1j * (x * sin_over)


def pairwise_product_by_expression(a, b):
    """The neighbour tree in time order, one expression per product: rows
    2j and 2j + 1 (later, on the left) each round; an odd last row waits."""
    while a.shape[0] > 1:
        m = a.shape[0] // 2 * 2
        a1, b1, a2, b2 = a[0:m:2], b[0:m:2], a[1:m:2], b[1:m:2]
        pa = a2 * a1 - b2.conj() * b1
        pb = b2 * a1 + a2.conj() * b1
        a, b = np.concatenate((pa, a[m:])), np.concatenate((pb, b[m:]))
    return a[0], b[0]


def halves_product_by_expression(a, b):
    """The kernel's reduction's specification, one expression per product:
    row i + m/2 (later, on the left) times row i, halving m each round."""
    while a.shape[0] > 1:
        h = a.shape[0] // 2
        a1, b1, a2, b2 = a[:h], b[:h], a[h:], b[h:]
        a, b = a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1
    return a[0], b[0]


def same_bits(got, want):
    """Equal shapes and bit patterns: signed zeros count, NaNs match themselves."""
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def random_pauli_columns(rng, count):
    """(x, z) with a fifth of the segments at rabi = 0 (+0 or -0 in z) and
    z of either sign elsewhere."""
    x = rng.uniform(0.0, 3.0, count)
    z = rng.uniform(-3.0, 3.0, count)
    zero = rng.random(count) < 0.2
    x[zero] = 0.0
    z[zero] = np.where(rng.random(count) < 0.5, 0.0, -0.0)[zero]
    return x, z


class TestKernelBits:
    @pytest.mark.parametrize("count", [1, 2, 7, 300])
    def test_su2_is_the_expression_on_one_dimension(self, count):
        rng = np.random.default_rng(count)
        for _ in range(50):
            x, z = random_pauli_columns(rng, count)
            dt = rng.uniform(0.0, 5.0, count)
            for got, want in zip(_su2(x, z, dt), su2_by_expression(x, z, dt)):
                assert same_bits(got, want)

    @pytest.mark.parametrize("batch, count", [(1, 1), (1, 40), (5, 1), (5, 33), (97, 84)])
    def test_su2_is_the_expression_on_a_batch(self, batch, count):
        rng = np.random.default_rng(batch * 1000 + count)
        for _ in range(50):
            x, z = random_pauli_columns(rng, count)
            dt = rng.uniform(0.125, 16.0, batch)[:, None] * rng.uniform(0.0, 1.0, count)
            for got, want in zip(_su2(x, z, dt), su2_by_expression(x, z, dt)):
                assert same_bits(got, want)
            # segment-major, as propagate takes it: (count, 1) columns against
            # a contiguous (count, batch) time array
            x, z, dt = x[:, None], z[:, None], np.ascontiguousarray(dt.T)
            for got, want in zip(_su2(x, z, dt), su2_by_expression(x, z, dt)):
                assert same_bits(got, want)

    def test_su2_signed_zeros_at_rabi_zero(self):
        alpha, beta = _su2(np.zeros(2), np.array([0.0, -0.0]), np.array([0.5, 2.0]))
        assert np.all(alpha == 1.0) and np.all(beta.real == 0.0)
        assert not np.any(np.signbit(alpha.imag))  # +0, as 0 - z sin/rabi
        assert np.all(np.signbit(beta.imag))  # -0, as -(x sin/rabi)

    @staticmethod
    def segment_major_parts(rng, batch, count):
        """(alpha, beta) of ``count`` random segments stretched by ``batch``
        factors, as (m, batch) arrays, m the power of two propagate pads
        ``count`` to with the parts of zero-duration, zero-frequency rows."""
        m = 1 << (count - 1).bit_length()
        x, z = np.zeros((2, m, 1))
        x[:count, 0], z[:count, 0] = random_pauli_columns(rng, count)
        dt = np.zeros((m, 1))
        dt[:count, 0] = rng.uniform(0.0, 1.0, count)
        return _su2(x, z, dt * rng.uniform(0.125, 16.0, batch))

    # one element is the case where a product written over its own operand
    # would take numpy's unfused scalar loop; counts off a power of two are
    # padded as propagate's last block is
    @pytest.mark.parametrize("batch", [1, 2, 97])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 64, 156, 256, 257, 8192])
    def test_pairwise_product_is_the_expression(self, batch, count):
        rng = np.random.default_rng(batch * 10000 + count)
        for _ in range(20 if count <= 257 else 2):
            a, b = self.segment_major_parts(rng, batch, count)
            for got, want in zip(_pairwise_product(a, b), halves_product_by_expression(a, b)):
                assert same_bits(got, want)

    def test_padding_is_an_exact_identity(self):
        alpha, beta = self.segment_major_parts(np.random.default_rng(0), 3, 5)
        assert np.all(alpha[5:] == 1.0) and not np.any(np.signbit(alpha[5:].imag))
        assert np.all(beta[5:] == 0.0) and np.all(np.signbit(beta[5:].imag))

    @pytest.mark.parametrize("batch, count",
                             [(1, 2), (1, 8), (1, 1024), (1, 8192), (97, 2), (97, 64), (97, 1024)])
    def test_bit_reversed_halves_are_the_neighbour_tree(self, batch, count):
        rng = np.random.default_rng(batch * 10000 + count)
        for _ in range(5):
            a, b = self.segment_major_parts(rng, batch, count)
            order = _bit_reversed(count)
            halves = _pairwise_product(a[order], b[order])
            for got, want in zip(halves, pairwise_product_by_expression(a, b)):
                assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("m", [2 ** j for j in range(14)])
    def test_bit_reversed_is_a_cached_read_only_permutation(self, m):
        order = _bit_reversed(m)
        assert order is _bit_reversed(m)
        assert not order.flags.writeable
        with pytest.raises(ValueError):
            order[0] = 0
        assert np.array_equal(np.sort(order), np.arange(m))
        bits = m.bit_length() - 1
        assert order.tolist() == [int(format(i, f"0{bits}b")[::-1], 2) for i in range(m)]
        if m > 1:  # row i + m/2 holds the time neighbour after row i's segment
            assert np.array_equal(order[m // 2:], order[:m // 2] + 1)


def stretched_amplitudes(state, arrays, factors):
    """Reference for a batch: each stretched segment's exp(-i (H/hbar) dt)
    from LAPACK's eigendecomposition of H/hbar, applied one after the other
    in Python scalars.  It is :func:`per_segment_amplitudes` for a whole
    batch at once, where scipy's expm would take seconds."""
    durations, omega_i, omega_s = arrays
    g = state.space.overlap
    gg = g * g
    h = np.empty((durations.size, 2, 2))
    h[:, 0, 0] = omega_i + omega_s * gg
    h[:, 0, 1] = h[:, 1, 0] = omega_s * g * math.sqrt(1.0 - gg)
    h[:, 1, 1] = omega_s * (1.0 - gg)
    energies, vectors = np.linalg.eigh(h)
    out = []
    for factor in factors.tolist():
        phases = np.exp(-1j * energies * (factor * durations)[:, None])
        u = np.einsum("sij,sj,skj->sik", vectors, phases, vectors)
        c1, c2 = state.c1, state.c2
        for u11, u12, u21, u22 in u.reshape(-1, 4).tolist():
            c1, c2 = u11 * c1 + u12 * c2, u21 * c1 + u22 * c2
        out.append((c1, c2))
    return np.array(out).T


@st.composite
def stretched_batches(draw):
    """(state, schedule, factors): 1-128 factors in [1/8, 16] and 1 to 3
    blocks of segments (block edges, a last block of one segment and the
    most padding, a power of two and one, drawn on purpose), a share of
    them at zero frequency."""
    batch = draw(st.integers(1, 128))
    block = _block_segments(batch)
    count = draw(st.integers(1, 3 * block)
                 | st.sampled_from([block - 1, block, block + 1, 2 * block + 1, 3 * block])
                 | st.integers(0, block.bit_length() - 1).map(lambda j: 2 ** j + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = SearchSpace(draw(st.integers(1, 20)))
    durations = rng.uniform(0.05, 1.0, count) * 50.0 / count
    omegas = rng.uniform(0.0, 2.0, (2, count))
    omegas[:, rng.random(count) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    factors = np.exp(rng.uniform(math.log(0.125), math.log(16.0), batch))
    return random_state(rng, space), ControlSchedule(np.column_stack((durations, *omegas))), factors


class TestPropagateProperty:
    def test_reference_is_the_per_segment_product(self):
        rng = np.random.default_rng(8)
        schedule = random_schedule(rng, 40, zero_every=3)
        state = random_state(rng, SearchSpace(6))
        factors = np.array([0.125, 1.0, 16.0])
        ref = stretched_amplitudes(state, schedule.arrays(), factors)
        for k, factor in enumerate(factors):
            want = per_segment_amplitudes(state, schedule, factor)
            assert np.abs(ref[:, k] - want).max() <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(stretched_batches())
    # one factor and a block plus one segment: the last block is one element
    @example((EffectiveState.initial(SearchSpace(9)),
              ControlSchedule(np.tile((1e-3, 1.0, 0.0), (_block_segments(1) + 1, 1))), np.ones(1)))
    # one factor and half a block plus one: the last block is most padding
    @example((EffectiveState.initial(SearchSpace(9)),
              ControlSchedule(np.tile((1e-3, 1.0, 0.0), (_block_segments(1) // 2 + 1, 1))),
              np.ones(1)))
    def test_batch_matches_per_segment_product(self, batch):
        state, schedule, factors = batch
        c1, c2 = propagate(state, schedule, factors)
        ref = stretched_amplitudes(state, schedule.arrays(), factors)
        assert np.abs(c1 - ref[0]).max() <= 1e-12
        assert np.abs(c2 - ref[1]).max() <= 1e-12


def runtime_to_infidelity_by_loop(space, energy_scale, error_budget, target_infidelity,
                                  scale_range=(0.125, 16.0), grid_points=97):
    """Reference: one schedule_infidelity per stretched copy of the base schedule."""
    base = adiabatic_schedule(space, energy_scale, error_budget, kind="local")
    factors = np.exp(
        np.linspace(math.log(scale_range[0]), math.log(scale_range[1]), grid_points)
    )
    infidelity = np.array([schedule_infidelity(space, base.scaled(f)) for f in factors])
    envelope = np.maximum.accumulate(infidelity[::-1])[::-1]
    k = int(np.nonzero(envelope <= target_infidelity)[0][0])
    t_total = base.total_duration
    if k == 0:
        return float(factors[0]) * t_total
    f_lo, f_hi = factors[k - 1], factors[k]
    e_lo, e_hi = envelope[k - 1], envelope[k]
    if e_lo <= target_infidelity or e_lo == e_hi:
        return float(f_hi) * t_total
    w = (math.log(e_lo) - math.log(target_infidelity)) / (
        math.log(e_lo) - math.log(max(e_hi, 1e-300))
    )
    w = min(max(w, 0.0), 1.0)
    return float(f_lo ** (1.0 - w) * f_hi ** w) * t_total


class TestBatchedRuntimeScan:
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 11])
    def test_matches_loop_over_stretched_schedules(self, n):
        space = SearchSpace(n)
        for eps in (0.08, 0.12, 0.2):
            got = runtime_to_infidelity(space, 1.0, eps, eps * eps)
            ref = runtime_to_infidelity_by_loop(space, 1.0, eps, eps * eps)
            assert got == pytest.approx(ref, rel=1e-9)


class TestMirroredSweep:
    """The runtime scan propagates half the local sweep and takes the rest
    from its |i> <-> |s> mirror image; these hold that shortcut's premises
    and its result against the whole schedule."""

    FACTORS = np.exp(np.linspace(math.log(0.125), math.log(16.0), 97))  # the scan's default grid

    @pytest.mark.parametrize("kind", ["local", "linear"])
    @pytest.mark.parametrize("n", range(1, 15))
    def test_second_half_mirrors_the_first(self, kind, n):
        for energy in (1e-30, 1.0, 3.7):
            for eps in (0.05, 0.1, 0.2):
                schedule = adiabatic_schedule(SearchSpace(n), energy, eps, kind=kind)
                assert schedule.durations.size % 2 == 0
                assert np.all(schedule.durations == schedule.durations[0])
                swap = np.abs(schedule.omega_i[::-1] - schedule.omega_s).max()
                assert swap <= 2e-15 * 2.0 ** (n / 2) * energy / HBAR

    @pytest.mark.parametrize("n", range(1, 15))
    def test_half_sweep_matches_the_whole_schedule(self, n):
        space = SearchSpace(n)
        g = space.overlap
        for eps in (0.05, 0.1, 0.2):
            base = adiabatic_schedule(space, 1.0, eps, kind="local")
            c1, c2 = propagate(EffectiveState.initial(space), base, self.FACTORS)
            whole = 1.0 - np.abs(g * c1 + math.sqrt(1.0 - g * g) * c2) ** 2
            half = _mirrored_sweep_infidelity(space, base, self.FACTORS)
            assert np.abs(half - whole).max() <= 1e-13


def scalar_segment_unitary(space, seg):
    """exp(-i (H/hbar) * duration) of one segment from its Pauli components,
    in scalar arithmetic.  At phase 2 pi, where the pair is the identity up
    to rounding, its product keeps the norm to the last bit; a product of
    expm's loses a few ulp, and the loop would see P_s fall by rounding."""
    mean, x, z = _pauli_components(space, seg.omega_i, seg.omega_s)
    rabi = math.hypot(x, z)
    sin_over = math.sin(rabi * seg.duration) / rabi if rabi > 0.0 else seg.duration
    cos_t = math.cos(rabi * seg.duration)
    return cmath.exp(-1j * mean * seg.duration) * np.array(
        [[cos_t - 1j * z * sin_over, -1j * x * sin_over],
         [-1j * x * sin_over, cos_t + 1j * z * sin_over]])


def first_peak_by_loop(space, pulse_energy, pulse_phase, max_pairs=None):
    """Reference: apply the pair unitary once per pair until P_s falls."""
    if max_pairs is None:
        max_pairs = int(math.ceil(4.0 * math.pi * 2.0 ** (space.n / 2.0))) + 2
    first, second = grover_pulsed_schedule(space, pulse_energy, pulse_phase, 1).segments
    u_pair = scalar_segment_unitary(space, second) @ scalar_segment_unitary(space, first)
    g = space.overlap
    root = math.sqrt(1.0 - g * g)
    psi = np.array([1.0 + 0.0j, 0.0j])
    best_p = g * g
    best_j = 0
    for j in range(1, max_pairs + 1):
        psi = u_pair @ psi
        p_s = abs(g * psi[0] + root * psi[1]) ** 2
        if p_s < best_p:
            return best_j, best_p
        best_p, best_j = p_s, j
    return best_j, best_p


def p_s_after_pairs_50_digits(space, pulse_energy, pulse_phase, pairs):
    """Reference: P_s after ``pairs`` pulse pairs, with the pair's 2x2
    exponentials and its power (by repeated squaring) in 50-digit mpmath."""
    with mpmath.workdps(50):
        g = mpmath.mpf(2) ** (-mpmath.mpf(space.n) / 2)
        root = mpmath.sqrt(1 - g * g)
        u = mpmath.eye(2)
        for seg in grover_pulsed_schedule(space, pulse_energy, pulse_phase, 1).segments:
            wi, ws, dt = map(mpmath.mpf, (seg.omega_i, seg.omega_s, seg.duration))
            h = mpmath.matrix([[wi + ws * g * g, ws * g * root],
                               [ws * g * root, ws * (1 - g * g)]])
            u = mpmath.expm(-1j * h * dt) * u
        psi = mpmath.matrix([[1], [0]])
        while pairs:
            if pairs & 1:
                psi = u * psi
            u = u * u
            pairs >>= 1
        return abs(g * psi[0] + root * psi[1]) ** 2


class TestFirstPeakClosedForm:
    PHASES = [2.0 * math.pi * k / 97 for k in range(1, 98)]  # (0, 2 pi], 2 pi included

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_per_pair_loop(self, n):
        space = SearchSpace(n)
        for phase in self.PHASES:
            pairs, p_s = first_peak_iterations(space, HBAR, phase)
            ref_pairs, ref_p_s = first_peak_by_loop(space, HBAR, phase)
            assert pairs == ref_pairs, phase
            assert type(pairs) is int and type(p_s) is float
            if pairs <= 1000:  # the loop itself drifts by about 1e-12 past 3,000 pairs
                assert abs(p_s - ref_p_s) <= 1e-12, phase

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 20, 24])
    def test_p_s_matches_a_50_digit_power(self, n):
        space = SearchSpace(n)
        for phase in (math.pi, math.pi / 2.0, 1.0, self.PHASES[12], self.PHASES[89],
                      2.0 * math.pi):
            pairs, p_s = first_peak_iterations(space, HBAR, phase)
            ref = p_s_after_pairs_50_digits(space, HBAR, phase, pairs)
            assert abs(p_s - ref) <= 1e-14, (phase, pairs)

    @pytest.mark.parametrize("n", [20, 32, 64])
    def test_phase_pi_at_large_n(self, n):
        space = SearchSpace(n)
        pairs, p_s = first_peak_iterations(space, HBAR, math.pi)
        assert abs(pairs - standard_grover_iterations(space)) <= 1
        assert p_s >= 1.0 - 2.0 ** (2 - n)

    @pytest.mark.parametrize("n", [136, 512, 1024])
    @pytest.mark.parametrize("phase", [math.pi / 2.0, 1.0, 2.5])
    def test_ideal_pulses_past_n_of_100(self, n, phase):
        # the amplitude on |s> turns by about 2^(1 - n/2) sin(phase/2) a pair
        pairs, p_s = first_peak_iterations(SearchSpace(n), HBAR, phase)
        assert p_s >= 1.0 - 1e-12
        quarter_turn = math.pi * 2.0 ** (n / 2.0) / (4.0 * math.sin(phase / 2.0))
        assert abs(pairs - quarter_turn) <= 1e-9 * quarter_turn

    @pytest.mark.parametrize("n", [64, 136, 1024])
    def test_small_phase_peaks_below_one(self, n):
        # at phase 0.1 the pair's rotation axis misses |s>: the peak is physics
        _, p_s = first_peak_iterations(SearchSpace(n), HBAR, 0.1)
        assert abs(p_s - 0.904200550) <= 1e-9

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("phase", [math.pi, math.pi / 2.0])
    def test_cost_does_not_grow_with_the_pair_count(self, n, phase):
        import time

        space = SearchSpace(n)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            first_peak_iterations(space, HBAR, phase)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.01

    @pytest.mark.parametrize("phase", [math.pi, math.pi + 1e-8, math.pi - 2e-8])
    def test_n_1_near_phase_pi_never_moves(self, phase):
        # theta = pi/2 and P_s = 1/2 after every pair: no rounding-noise peak
        pairs, p_s = first_peak_iterations(SearchSpace(1), HBAR, phase)
        assert pairs == 20  # the default max_pairs, ceil(4 pi sqrt(2)) + 2
        assert abs(p_s - 0.5) <= 1e-14

    @pytest.mark.parametrize("max_pairs", [0, 1, 5, 11])
    def test_max_pairs_caps_the_count(self, max_pairs):
        # phase pi at n = 8 peaks after 12 pairs
        space = SearchSpace(8)
        pairs, p_s = first_peak_iterations(space, HBAR, math.pi, max_pairs)
        ref_pairs, ref_p_s = first_peak_by_loop(space, HBAR, math.pi, max_pairs)
        assert pairs == ref_pairs == max_pairs
        assert abs(p_s - ref_p_s) <= 1e-12 and type(p_s) is float

    @pytest.mark.parametrize("cap", [False, True])
    def test_a_bool_cap_counts_as_its_integer(self, cap):
        # True once came back as the pair count itself, a bool
        pairs, p_s = first_peak_iterations(SearchSpace(6), 1e-34, 1.0, max_pairs=cap)
        assert type(pairs) is int
        assert (pairs, p_s) == first_peak_iterations(SearchSpace(6), 1e-34, 1.0, int(cap))

    def test_refuses_a_fractional_cap(self):
        with pytest.raises(DomainError, match="max_pairs must be an integer"):
            first_peak_iterations(SearchSpace(8), HBAR, math.pi, max_pairs=2.5)


class TestRefusalsAndScanEnds:
    SPACE = SearchSpace(4)

    def test_adiabatic_schedule_refuses_an_unknown_kind(self):
        with pytest.raises(DomainError, match="kind must be 'local' or 'linear'"):
            adiabatic_schedule(self.SPACE, 1e-30, 0.1, kind="cubic")

    def test_state_amplitudes_must_be_numbers(self):
        with pytest.raises(DomainError, match="state amplitudes must be complex numbers"):
            EffectiveState("1", 0.0, self.SPACE)

    def test_schedule_equals_no_other_type(self):
        schedule = adiabatic_schedule(self.SPACE, 1e-30, 0.1)
        assert schedule.__eq__(3) is NotImplemented
        assert schedule != 3

    def test_runtime_met_at_the_first_grid_point_is_the_shortest_scanned(self):
        base = adiabatic_schedule(self.SPACE, 1e-30, 0.1).total_duration
        # the grid's first factor is exp(log 0.125), within rounding of 0.125
        runtime = runtime_to_infidelity(self.SPACE, 1e-30, 0.1, 1.0)
        assert runtime == pytest.approx(0.125 * base, rel=1e-14)

    def test_runtime_never_reached_is_refused_with_the_least_envelope(self):
        with pytest.raises(DomainError, match="not reached within the scanned range") as raised:
            runtime_to_infidelity(self.SPACE, 1e-30, 0.1, 1e-300)
        target, least = raised.value.offending_input
        assert target == 1e-300 and 1e-300 < least < 1.0

    def test_ragged_schedule_rows_are_refused(self):
        rows = [(1.0, 1.0, 0.5), (1.0, 1.0)]
        with pytest.raises(DomainError, match="schedule rows must be real numbers") as raised:
            ControlSchedule(rows)
        assert raised.value.offending_input is rows
