"""Full-Hilbert-space oracle: the two-level reduction must be exact."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlimits.constants import HBAR
from qlimits.dynamics import (
    ControlSchedule,
    EffectiveState,
    SearchSpace,
    Segment,
    ballistic_schedule,
    evolve,
    full_space_reference,
)
from qlimits.errors import CapacityError, DomainError


def random_schedule(rng, segments=5):
    segs = tuple(
        Segment(float(d), float(wi), float(ws))
        for d, wi, ws in zip(
            rng.uniform(0.1, 1.0, segments),
            rng.uniform(0.0, 4.0, segments),
            rng.uniform(0.0, 4.0, segments),
        )
    )
    return ControlSchedule(segs)


def max_observable_gap(trace_a, trace_b):
    assert len(trace_a.points) == len(trace_b.points)
    gap = 0.0
    for p, q in zip(trace_a.points, trace_b.points):
        assert p.t == pytest.approx(q.t, rel=1e-12, abs=1e-15)
        gap = max(
            gap,
            abs(p.obs.p_s - q.obs.p_s),
            abs(p.obs.p_i - q.obs.p_i),
            abs(p.obs.a.real - q.obs.a.real),
            abs(p.obs.a.imag - q.obs.a.imag),
        )
    return gap


def test_zero_hamiltonian_uniform_probability():
    space = SearchSpace(4)
    schedule = ControlSchedule((Segment(2.0, 0.0, 0.0),))
    trace = full_space_reference(space, schedule, 0.25, solution_index=5)
    assert np.allclose(trace.p_s(), 1.0 / 16.0, atol=1e-15)


def test_ballistic_agrees_with_reduction():
    space = SearchSpace(8)
    schedule = ballistic_schedule(space, HBAR * 40.0)
    dt = schedule.total_duration / 50
    reduced = evolve(EffectiveState.initial(space), schedule, dt)
    full = full_space_reference(space, schedule, dt, solution_index=200)
    assert max_observable_gap(reduced, full) <= 1e-9


def test_solution_index_symmetry():
    space = SearchSpace(8)
    rng = np.random.default_rng(3)
    schedule = random_schedule(rng, 3)
    dt = schedule.total_duration / 20
    t_a = full_space_reference(space, schedule, dt, solution_index=0)
    t_b = full_space_reference(space, schedule, dt, solution_index=255)
    assert max_observable_gap(t_a, t_b) <= 1e-12


@pytest.mark.parametrize("n", [4, 8, 10])
def test_random_schedules_agree(n):
    space = SearchSpace(n)
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for trial in range(10):
        schedule = random_schedule(rng)
        dt = schedule.total_duration / 10
        reduced = evolve(EffectiveState.initial(space), schedule, dt)
        sol = int(rng.integers(0, space.dimension))
        full = full_space_reference(space, schedule, dt, solution_index=sol)
        worst = max(worst, max_observable_gap(reduced, full))
    assert worst <= 1e-9


def test_largest_supported_space():
    # n = 14 is the capacity limit: 16384 amplitudes, still exact
    space = SearchSpace(14)
    schedule = ControlSchedule((Segment(0.8, 2.0, 0.7),))
    full = full_space_reference(space, schedule, 0.4, solution_index=12345)
    reduced = evolve(EffectiveState.initial(space), schedule, 0.4)
    assert max_observable_gap(reduced, full) <= 1e-9


def test_capacity_guard():
    with pytest.raises(CapacityError):
        full_space_reference(
            SearchSpace(15), ControlSchedule((Segment(1.0, 1.0, 1.0),)), 0.5, 0
        )


def test_solution_index_validated():
    with pytest.raises(DomainError):
        full_space_reference(
            SearchSpace(4), ControlSchedule((Segment(1.0, 1.0, 1.0),)), 0.5, 16
        )


# --------------------------------------------------------------------------
# One Krylov decomposition per segment against the per-sample chain it
# replaced: there, every sample was a fresh Lanczos exponential applied to
# the previous sample's state.

def _chain_expm_apply(psi, dt, uniform, omega_i, omega_s, sol):
    beta0 = float(np.linalg.norm(psi))
    basis = [psi / beta0]
    alphas, betas = [], []
    scale = max(omega_i, omega_s, 1e-300)
    for j in range(8):
        w = (omega_i * np.vdot(uniform, basis[j])) * uniform
        w[sol] += omega_s * basis[j][sol]
        alpha = float(np.real(np.vdot(basis[j], w)))
        alphas.append(alpha)
        w -= alpha * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        for b in basis:
            w -= np.vdot(b, w) * b
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * scale:
            break
        betas.append(beta)
        basis.append(w / beta)
    tri = np.diag(np.array(alphas))
    for j, b in enumerate(betas):
        tri[j, j + 1] = tri[j + 1, j] = b
    evals, evecs = np.linalg.eigh(tri)
    small = evecs @ (np.exp(-1j * evals * dt) * evecs[0, :].conj())
    out = np.zeros_like(psi)
    for j in range(len(alphas)):
        out += small[j] * basis[j]
    return beta0 * out


def _segment_sample_offsets(t_start, duration, step):
    """Offsets within a segment hit by the global step grid, plus the end."""
    t_end = t_start + duration
    first = math.ceil(t_start / step - 1e-9)
    last = math.floor(t_end / step + 1e-9)
    offsets = np.arange(first, last + 1) * step - t_start
    inside = (1e-12 * max(duration, step) < offsets) & (offsets < duration * (1.0 - 1e-12))
    return np.append(offsets[inside], duration)


def chain_reference(space, schedule, step, sol):
    """(t, omega_i, omega_s, <s|psi>, <i|psi>) per sample, by the chain."""
    dim = space.dimension
    uniform = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    psi = uniform.copy()
    first = schedule.segments[0]
    rows = [(0.0, first.omega_i, first.omega_s, complex(psi[sol]), complex(np.vdot(uniform, psi)))]
    t_start = 0.0
    for seg in schedule.segments:
        prev = 0.0
        for off in _segment_sample_offsets(t_start, seg.duration, step):
            psi = _chain_expm_apply(psi, off - prev, uniform, seg.omega_i, seg.omega_s, sol)
            prev = float(off)
            rows.append((t_start + prev, seg.omega_i, seg.omega_s, complex(psi[sol]),
                         complex(np.vdot(uniform, psi))))
        t_start += seg.duration
    return [np.array(c) for c in zip(*rows)]


def assert_matches_chain(space, schedule, step, sol):
    trace = full_space_reference(space, schedule, step, sol)
    t, omega_i, omega_s, s_amp, i_amp = chain_reference(space, schedule, step, sol)
    assert np.array_equal(trace.t, t)
    assert np.array_equal(trace.omega_i, omega_i)
    assert np.array_equal(trace.omega_s, omega_s)
    a = s_amp.conj() * i_amp
    gap = max(np.max(np.abs(trace.prob_s - np.abs(s_amp) ** 2)),
              np.max(np.abs(trace.prob_i - np.abs(i_amp) ** 2)),
              np.max(np.abs(trace.re_a - a.real)), np.max(np.abs(trace.im_a - a.imag)))
    assert gap <= 1e-12
    assert np.all(trace.norm_error <= 1e-9)


frequency = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0))


@given(
    n=st.integers(min_value=1, max_value=12),
    segments=st.lists(st.tuples(st.floats(min_value=0.1, max_value=1.0), frequency, frequency),
                      min_size=1, max_size=8),
    samples=st.integers(min_value=1, max_value=400),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_matches_per_sample_chain(n, segments, samples, data):
    space = SearchSpace(n)
    schedule = ControlSchedule(tuple(Segment(*s) for s in segments))
    # the longest segment gets `samples` samples, every other one fewer
    step = max(s[0] for s in segments) / samples
    sol = data.draw(st.integers(min_value=0, max_value=space.dimension - 1))
    assert_matches_chain(space, schedule, step, sol)


@pytest.mark.parametrize("omegas", [(0.0, 0.0), (0.0, 2.5), (1.7, 0.0), (1.7, 2.5)])
def test_one_and_two_vector_krylov_spaces(omegas):
    # zero H closes at m = 1; a single projector, or |i> itself under
    # omega_i alone, at m = 2
    space = SearchSpace(9)
    schedule = ControlSchedule(tuple(Segment(0.7, *omegas) for _ in range(3)))
    assert_matches_chain(space, schedule, 0.05, 77)


def test_memory_stays_a_few_state_vectors():
    # 2000 samples in one segment at n = 14: one stored state per sample
    # would take 2000 * 256 KiB
    import tracemalloc

    space = SearchSpace(14)
    schedule = ControlSchedule((Segment(2.0, 1.3, 0.4),))
    full_space_reference(space, schedule, 2.0 / 1999.5, 3)  # warm-up
    tracemalloc.start()
    try:
        trace = full_space_reference(space, schedule, 2.0 / 1999.5, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.t.size == 2001
    assert peak < 24 * 16 * space.dimension
