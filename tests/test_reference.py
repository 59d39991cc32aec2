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
from qlimits.dynamics import reference
from qlimits.dynamics.core import _sample_grid
from qlimits.errors import CapacityError, ConsistencyError, DomainError


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
    assert np.allclose(trace.prob_s, 1.0 / 16.0, atol=1e-15)


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


def test_bool_solution_index_counts_as_its_integer():
    # numpy reads a bool scalar index as a mask: True once ended in a raw
    # ValueError from matmul
    space, schedule = SearchSpace(4), ControlSchedule(((0.5, 1.0, 2.0),))
    for flag in (False, True):
        got = full_space_reference(space, schedule, 0.1, flag).columns()
        want = full_space_reference(space, schedule, 0.1, int(flag)).columns()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_schedule_that_cannot_close_is_refused(monkeypatch):
    # the space of |i> and |s> needs two vectors; capped at one, it cannot close
    monkeypatch.setattr(reference, "_KRYLOV_MAX", 1)
    with pytest.raises(ConsistencyError, match="failed to close"):
        full_space_reference(SearchSpace(6), ControlSchedule((Segment(1.0, 1.0, 1.0),)), 0.5, 0)


def test_long_schedule_agrees_with_reduction():
    space = SearchSpace(12)
    schedule = random_schedule(np.random.default_rng(12), 2000)
    dt = schedule.total_duration / 3000
    reduced = evolve(EffectiveState.initial(space), schedule, dt)
    full = full_space_reference(space, schedule, dt, solution_index=1234)
    assert full.t.size == reduced.t.size > 4000
    for a, b in zip(full.columns()[3:7], reduced.columns()[3:7]):
        assert np.max(np.abs(a - b)) <= 1e-9


@pytest.mark.parametrize("segments", [1, 1000])
def test_memory_per_sample_within_evolve(segments):
    # 200,001 samples at n = 6: the subspace coordinates cost no more per
    # sample than the two-level state does in evolve
    import tracemalloc

    space = SearchSpace(6)
    schedule = ControlSchedule((Segment(1.0, 1.3, 0.4),) * segments)
    step = segments / 200_000
    peaks = []
    for run in (lambda: evolve(EffectiveState.initial(space), schedule, step),
                lambda: full_space_reference(space, schedule, step, 3)):
        run()  # warm-up
        tracemalloc.start()
        try:
            assert run().t.size == 200_001
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


# --------------------------------------------------------------------------
# One invariant subspace per call against a per-sample chain: there, every
# sample is a fresh Lanczos exponential applied to the previous sample's
# state.

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
    # the space is closed under each term of H, not under their sum, so
    # every schedule, zero H included, closes at m = 2: span{|i>, |s>}
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
    assert peak < 8 * 16 * space.dimension


# --------------------------------------------------------------------------
# The Krylov basis itself: two orthonormal vectors spanning |i> and |s>.

@pytest.mark.parametrize("n", range(1, 15))
def test_krylov_basis_contract(n):
    dim = 2 ** n
    uniform = np.full(dim, 1.0 / math.sqrt(dim))
    for sol in {0, dim - 1, int(np.random.default_rng(n).integers(dim))}:
        basis = reference._invariant_subspace(uniform, sol)
        assert basis.shape == (2, dim) and basis.dtype == np.float64
        # measured in complex arithmetic, as a real dgemm of the products
        # rounds to 1.4e-14 at n = 9 on a basis orthonormal to 2.2e-16
        basis = basis.astype(complex)
        assert np.max(np.abs(basis.conj() @ basis.T - np.eye(2))) <= 1e-14
        target = np.zeros(dim, dtype=complex)
        target[sol] = 1.0
        for vec in (uniform, target):  # |i> and |s>
            residual = vec - basis.T @ (basis.conj() @ vec)
            assert np.linalg.norm(residual) <= 1e-14, (sol, vec is uniform)


# --------------------------------------------------------------------------
# Whole-segment propagators against the per-segment chain they replace:
# there, each segment's samples are U exp(-i Lambda tau) U^H applied to the
# previous segment's last sample, one segment at a time, on the same basis.

def per_segment_reference(space, schedule, step, sol):
    """The trace columns P_s, P_i, Re A, Im A and norm error, by the chain."""
    t, all_offsets, edges = _sample_grid(schedule, step)
    uniform = np.full(space.dimension, 1.0 / math.sqrt(space.dimension))
    basis = reference._invariant_subspace(uniform, sol)
    i_v = np.array([np.vdot(v, uniform) for v in basis])
    s_v = basis[:, sol]
    gram = np.array([[np.vdot(v, w) for w in basis] for v in basis])
    hams = (schedule.omega_i[:, None, None] * np.outer(i_v, i_v)
            + schedule.omega_s[:, None, None] * np.outer(s_v, s_v))
    evals, evecs = np.linalg.eigh(hams)
    coords = np.zeros((t.size, len(basis)), dtype=complex)
    coords[0, 0] = np.linalg.norm(uniform)
    for lo, stop, lam, u in zip(edges, edges[1:], evals, evecs):
        start = coords[lo - 1] @ u.conj()
        coords[lo:stop] = (np.exp(-1j * np.outer(all_offsets[lo:stop], lam)) * start) @ u.T
    norm_sq = np.sum((coords.conj() @ gram) * coords, axis=1).real
    s_amp, i_amp = coords @ s_v, coords @ i_v.conj()
    a = s_amp.conj() * i_amp
    return (np.abs(s_amp) ** 2, np.abs(i_amp) ** 2, a.real, a.imag,
            np.abs(np.sqrt(norm_sq) - 1.0))


def test_whole_segment_propagators_match_the_per_segment_chain():
    rng = np.random.default_rng(28)
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(3, 11))
        count = int(rng.integers(1, 51))
        rows = np.column_stack((rng.uniform(0.05, 1.0, count), rng.uniform(0.0, 4.0, count),
                                rng.uniform(0.0, 4.0, count)))
        rows[rng.random(count) < 0.2, 1] = 0.0  # zero-frequency segments
        rows[rng.random(count) < 0.2, 2] = 0.0
        schedule = ControlSchedule(rows)
        # steps from a twentieth of the mean segment to five segments long
        step = float(rows[:, 0].mean() * 10.0 ** rng.uniform(-1.3, 0.7))
        sol = int(rng.integers(2 ** n))
        trace = full_space_reference(SearchSpace(n), schedule, step, sol)
        want = per_segment_reference(SearchSpace(n), schedule, step, sol)
        for got, ref in zip((trace.prob_s, trace.prob_i, trace.re_a, trace.im_a,
                             trace.norm_error), want):
            worst = max(worst, float(np.max(np.abs(got - ref))))
    # the two chains round apart by about an ulp a segment: 2.55e-15 is the
    # worst these 120 schedules show
    assert worst <= 3e-15
