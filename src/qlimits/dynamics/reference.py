"""Brute-force reference evolution over the full 2^n-dimensional space.

This module deliberately avoids the two-level reduction: the state vector
carries all 2^n amplitudes and the Hamiltonian

    H/hbar = omega_i |i><i| + omega_s |s><s|

is applied as an operator on that full vector (each application costs two
inner products and two rank-1 updates).  Each segment is propagated by a
Lanczos matrix exponential, built once at the segment's start state: the
Krylov space of this Hamiltonian closes after at most three vectors, so
for every offset tau inside the segment

    exp(-i (H/hbar) tau)|psi> = |psi| V^T E exp(-i Lambda tau) E^T e_1,

with V the Krylov basis and T = E Lambda E^T the tridiagonal projection,
holds to machine rounding -- no step-size error.  The samples are those of
:func:`qlimits.dynamics.core.evolve`, from the same grid: each is one
m x 2^n product, read off on the full vector, and the segment's last
sample starts the next segment.  The same assembly checks the norms and
builds the trace, so the two line up row for row.

The full vectors live in a few buffers allocated once per call and
overwritten in place: glibc's malloc maps blocks of 128 KiB and more
(n >= 13) afresh from the kernel, and faulting in a new temporary at every
vector operation costs more than the arithmetic.  Memory stays O(2^n)
whatever the sample count; a hard guard rejects n > 14.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CapacityError, ConsistencyError, DomainError
from .core import (
    ControlSchedule,
    SearchSpace,
    Trace,
    _observable_columns,
    _sample_grid,
    _sampled_trace,
)

MAX_FULL_SPACE_BITS = 14

_KRYLOV_MAX = 8
_BREAKDOWN = 1e-12


def _norm(vec: np.ndarray) -> float:
    """|vec|, from one complex inner product."""
    return math.sqrt(np.vdot(vec, vec).real)


def _subtract_scaled(w: np.ndarray, coef: complex, vec: np.ndarray, tmp: np.ndarray) -> None:
    """w -= coef * vec, with the product in the scratch vector ``tmp``."""
    np.multiply(vec, coef, out=tmp)
    w -= tmp


def _apply_hamiltonian(
    out: np.ndarray, psi: np.ndarray, uniform: np.ndarray, omega_i: float, omega_s: float,
    sol: int,
) -> None:
    """out = (H/hbar)|psi>."""
    np.multiply(uniform, omega_i * np.vdot(uniform, psi), out=out)
    out[sol] += omega_s * psi[sol]


def _krylov_decomposition(
    basis: np.ndarray,
    uniform: np.ndarray,
    omega_i: float,
    omega_s: float,
    sol: int,
    w: np.ndarray,
    tmp: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Lanczos decomposition of H/hbar from the unit vector ``basis[0]``.

    Returns (m, evals, evecs): rows 0..m-1 of ``basis`` then hold the
    orthonormal Krylov vectors, and T = evecs diag(evals) evecs^T is the
    tridiagonal projection of H/hbar on them.  ``w`` and ``tmp`` are
    scratch vectors.
    """
    alphas: list[float] = []
    betas: list[float] = []
    scale = max(omega_i, omega_s, 1e-300)
    for j in range(_KRYLOV_MAX):
        _apply_hamiltonian(w, basis[j], uniform, omega_i, omega_s, sol)
        alpha = float(np.vdot(basis[j], w).real)
        alphas.append(alpha)
        _subtract_scaled(w, alpha, basis[j], tmp)
        if j > 0:
            _subtract_scaled(w, betas[j - 1], basis[j - 1], tmp)
        # full reorthogonalization; the basis never exceeds a few vectors
        for b in basis[: j + 1]:
            _subtract_scaled(w, np.vdot(b, w), b, tmp)
        beta = _norm(w)
        if beta <= _BREAKDOWN * scale:
            break
        betas.append(beta)
        np.multiply(w, 1.0 / beta, out=basis[j + 1])
    else:
        raise ConsistencyError(
            "Lanczos basis failed to close; Hamiltonian structure violated",
            (omega_i, omega_s),
        )
    tri = np.diag(np.array(alphas))
    for j, b in enumerate(betas):
        tri[j, j + 1] = b
        tri[j + 1, j] = b
    evals, evecs = np.linalg.eigh(tri)
    return len(alphas), evals, evecs


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
    t, all_offsets, edges = _sample_grid(schedule, sample_step)

    uniform = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    psi = uniform.copy()
    # rows past the closing Krylov vector are never written, so never mapped
    basis = np.empty((_KRYLOV_MAX + 1, dim), dtype=complex)
    w, tmp = np.empty(dim, dtype=complex), np.empty(dim, dtype=complex)
    rows = np.empty((t.size, 3), dtype=complex)  # <s|psi>, <i|psi>, norm error
    rows[0] = psi[solution_index], np.vdot(uniform, psi), abs(_norm(psi) - 1.0)
    for lo, stop, omega_i, omega_s in zip(edges, edges[1:], schedule.omega_i.tolist(),
                                          schedule.omega_s.tolist()):
        beta0 = _norm(psi)
        np.multiply(psi, 1.0 / beta0, out=basis[0])
        m, evals, evecs = _krylov_decomposition(
            basis, uniform, omega_i, omega_s, solution_index, w, tmp
        )
        # row j: beta0 evecs exp(-i evals offset_j) evecs^T e_1, the Krylov
        # coordinates of the segment's sample j; the last is the segment's end
        offsets = all_offsets[lo:stop]
        coords = (beta0 * np.exp(-1j * np.outer(offsets, evals)) * evecs[0]) @ evecs.T
        for k, c in enumerate(coords, lo):
            np.matmul(c, basis[:m], out=psi)
            rows[k] = psi[solution_index], np.vdot(uniform, psi), abs(_norm(psi) - 1.0)

    s_amp, i_amp, norm_error = rows.T
    observables = _observable_columns(s_amp.real, s_amp.imag, i_amp.real, i_amp.imag)
    return _sampled_trace(space, schedule, t, edges, observables, norm_error.real,
                          "full-space norm drift exceeded tolerance")
