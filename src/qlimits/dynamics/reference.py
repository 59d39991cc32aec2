"""Brute-force reference evolution over the full 2^n-dimensional space.

This module deliberately avoids the two-level reduction: the state vector
carries all 2^n amplitudes and the Hamiltonian

    H/hbar = omega_i |i><i| + omega_s |s><s|

is applied as an operator on that full vector (each application costs two
inner products and two rank-1 updates).  Per-segment propagation uses a
Lanczos matrix exponential: the Krylov space of this Hamiltonian closes
after at most three vectors, so the projected exponential reproduces
exp(-iHt/hbar)|psi> to machine rounding -- no step-size error.

Memory and time stay O(2^n); a hard guard rejects n > 14.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CapacityError, ConsistencyError, DomainError
from .core import (
    NORM_TOLERANCE,
    ControlSchedule,
    SearchSpace,
    Trace,
    _check_sample_count,
    _observable_columns,
    _segment_sample_offsets,
)

MAX_FULL_SPACE_BITS = 14

_KRYLOV_MAX = 8
_BREAKDOWN = 1e-12


def _apply_hamiltonian(
    psi: np.ndarray, uniform: np.ndarray, omega_i: float, omega_s: float, sol: int
) -> np.ndarray:
    out = (omega_i * np.vdot(uniform, psi)) * uniform
    out[sol] += omega_s * psi[sol]
    return out


def _lanczos_expm_apply(
    psi: np.ndarray,
    dt: float,
    uniform: np.ndarray,
    omega_i: float,
    omega_s: float,
    sol: int,
) -> np.ndarray:
    """exp(-i (H/hbar) dt) |psi> via a (tiny, exactly closing) Lanczos basis."""
    beta0 = float(np.linalg.norm(psi))
    basis = [psi / beta0]
    alphas: list[float] = []
    betas: list[float] = []
    scale = max(omega_i, omega_s, 1e-300)
    for j in range(_KRYLOV_MAX):
        w = _apply_hamiltonian(basis[j], uniform, omega_i, omega_s, sol)
        alpha = float(np.real(np.vdot(basis[j], w)))
        alphas.append(alpha)
        w -= alpha * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        # full reorthogonalization; the basis never exceeds a few vectors
        for b in basis:
            w -= np.vdot(b, w) * b
        beta = float(np.linalg.norm(w))
        if beta <= _BREAKDOWN * scale:
            break
        betas.append(beta)
        basis.append(w / beta)
    else:
        raise ConsistencyError(
            "Lanczos basis failed to close; Hamiltonian structure violated",
            (omega_i, omega_s),
        )
    m = len(alphas)
    tri = np.diag(np.array(alphas))
    for j, b in enumerate(betas):
        tri[j, j + 1] = b
        tri[j + 1, j] = b
    evals, evecs = np.linalg.eigh(tri)
    small = evecs @ (np.exp(-1j * evals * dt) * evecs[0, :].conj())
    out = np.zeros_like(psi)
    for j in range(m):
        out += small[j] * basis[j]
    return beta0 * out


def full_space_reference(
    space: SearchSpace,
    schedule: ControlSchedule,
    sample_step: float,
    solution_index: int,
) -> Trace:
    """Integrate the full 2^n-dimensional Schrodinger equation.

    Emits the same observables as :func:`qlimits.dynamics.core.evolve`;
    by the uniformity of |i> the result cannot depend on which basis state
    is marked, which makes ``solution_index`` a useful symmetry check.
    """
    if space.n > MAX_FULL_SPACE_BITS:
        raise CapacityError(
            f"full-space reference limited to n <= {MAX_FULL_SPACE_BITS}", space.n
        )
    dim = space.dimension
    if not (isinstance(solution_index, int) and 0 <= solution_index < dim):
        raise DomainError("solution index must lie in [0, 2^n)", solution_index)
    if not sample_step > 0.0:
        raise DomainError("sample_step must be > 0", sample_step)
    _check_sample_count(schedule, sample_step)

    uniform = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    psi = uniform.copy()
    rows: list[tuple] = []  # (t, omega_i, omega_s, <s|psi>, <i|psi>, norm error)

    def emit(t: float, vec: np.ndarray, omega_i: float, omega_s: float) -> None:
        err = abs(float(np.linalg.norm(vec)) - 1.0)
        if not err <= NORM_TOLERANCE:
            raise ConsistencyError("full-space norm drift exceeded tolerance", (t, err))
        rows.append((t, omega_i, omega_s, complex(vec[solution_index]),
                     complex(np.vdot(uniform, vec)), err))

    first = schedule.segments[0]
    emit(0.0, psi, first.omega_i, first.omega_s)
    t_start = 0.0
    for seg in schedule.segments:
        offsets = _segment_sample_offsets(t_start, seg.duration, sample_step)
        prev = 0.0
        for off in offsets:
            psi = _lanczos_expm_apply(
                psi, off - prev, uniform, seg.omega_i, seg.omega_s, solution_index
            )
            prev = float(off)
            emit(t_start + prev, psi, seg.omega_i, seg.omega_s)
        t_start += seg.duration

    t, omega_i, omega_s, s_amp, i_amp, err = (np.array(c) for c in zip(*rows))
    observables = _observable_columns(s_amp.real, s_amp.imag, i_amp.real, i_amp.imag)
    return Trace(t, omega_i, omega_s, *observables, err, space, space.p0_subnormal)
