"""Brute-force reference evolution over the full 2^n-dimensional space.

This module deliberately avoids the two-level reduction: the state vector
carries all 2^n amplitudes and each term of the Hamiltonian

    H/hbar = omega_i |i><i| + omega_s |s><s|

is applied as an operator on full vectors.  Every segment's H is a
combination of the same two terms, so one subspace that holds the initial
state and is closed under both terms is invariant under every segment:
a block Krylov space over the two terms, found once per call from full
vectors (each term applied to each basis vector, the result orthogonalised
twice against the basis).  |s><s| maps a basis vector to a one-hot full
vector, so that image's norm and first projections are read from its one
entry.  The space's dimension m is discovered, not assumed; a space that fails to
close within a few vectors raises ConsistencyError.  |i> is uniform, |s> is
one-hot and both terms are real symmetric, so the basis is real: it, its
projections and the Gram matrix are held in float64, and every full-vector
pass moves half the bytes of a complex one.  Only the subspace coordinates,
the propagators and the samples are complex.

With V the basis, the projections A_i = V^T |i><i| V, A_s = V^T |s><s| V
and the Gram matrix G = V^T V come from full-space inner products.  Segment
k then evolves coordinates c under omega_i,k A_i + omega_s,k A_s, a real
symmetric matrix, all segments diagonalised in one batch, so for every
offset tau inside the segment, with U real orthogonal,

    c(tau) = U exp(-i Lambda tau) U^T c(0)

is the exact exponential -- no step-size error.  The samples are those of
:func:`qlimits.dynamics.core.evolve`, from the same grid.  Each segment's
start c(0) is the previous segment's whole propagator U exp(-i Lambda d) U^T
applied to that segment's start; the propagators are formed in one batch
and chained over lists of m numbers, and the samples are then evaluated
together, one column of U at a time.  <s|psi> and <i|psi> are read off the basis' own amplitudes <s|v_j>
and <i|v_j>, and |psi|^2 as c^H G c, so the norm check measures the
full-space basis.  The same assembly checks the norms and builds the
trace, so the two line up row for row.  Memory is O(2^n) for the basis
plus O(m) per sample; a hard guard rejects n > 14.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ..errors import CapacityError, ConsistencyError, checked_int
from .core import (
    ControlSchedule,
    SearchSpace,
    Trace,
    _sample_grid,
    _sampled_trace,
)

MAX_FULL_SPACE_BITS = 14

_KRYLOV_MAX = 8
_BREAKDOWN = 1e-12


def _norm(vec: np.ndarray) -> float:
    """|vec|, from one real inner product."""
    return math.sqrt(np.vdot(vec, vec))


def _subtract_projections(w: np.ndarray, basis: np.ndarray, tmp: np.ndarray) -> None:
    """One classical Gram-Schmidt pass: w -= sum_j <v_j|w> v_j, in place."""
    np.matmul([np.vdot(b, w) for b in basis], basis, out=tmp)
    w -= tmp


def _invariant_subspace(uniform: np.ndarray, sol: int) -> np.ndarray:
    """Orthonormal real rows v_j spanning the least space that holds |i> and
    is closed under |i><i| and |s><s|, applied as full-space operators.
    ``uniform`` is the real |i>; both terms are real, so every image and
    residual is real too.

    A term's image of a basis vector joins the basis when its residual,
    after two classical Gram-Schmidt passes, exceeds _BREAKDOWN of the
    image's norm.
    """
    # rows past the closing vector are never written, so never mapped
    basis = np.empty((_KRYLOV_MAX, uniform.size))
    np.multiply(uniform, 1.0 / _norm(uniform), out=basis[0])
    # scratch vectors, overwritten in place: from n = 13 on, glibc maps every
    # fresh full-vector temporary anew, and faulting it in costs more than
    # the arithmetic
    w, tmp = np.empty_like(uniform), np.empty_like(uniform)
    m, j = 1, 0
    while j < m:
        for term in ("|i><i|", "|s><s|"):
            if term == "|i><i|":
                np.multiply(uniform, np.vdot(uniform, basis[j]), out=w)
                size = _norm(w)
                _subtract_projections(w, basis[:m], tmp)
            else:
                # |s><s| v_j is v_j[sol] at entry sol and 0 elsewhere: its norm
                # and its projections <v_k|s> v_j[sol] are read from that entry
                entry = basis[j, sol]
                size = abs(entry)
                np.matmul(-entry * basis[:m, sol], basis[:m], out=w)
                w[sol] += entry
            _subtract_projections(w, basis[:m], tmp)
            residual = _norm(w)
            if residual > _BREAKDOWN * size:
                if m == _KRYLOV_MAX:
                    raise ConsistencyError(
                        "invariant subspace failed to close; Hamiltonian structure violated",
                        _KRYLOV_MAX,
                    )
                np.multiply(w, 1.0 / residual, out=basis[m])
                m += 1
        j += 1
    return basis[:m]


def _sample_coordinates(evals, evecs, adjoints, starts, offsets, seg) -> np.ndarray:
    """Row k: the coordinates U exp(-i Lambda tau) U^T c of sample k, with
    U, Lambda and the start c of its segment ``seg[k]`` and tau its
    ``offsets`` entry, both from :func:`_sample_grid`; row 0 is the first
    start.  With w = U^T c and u_j column j of U, a sample is
    sum_j exp(-i lambda_j tau) w_j u_j, summed one column at a time, so no
    (samples, m, m) array is made.
    """
    seg = seg[1:]
    scaled = evecs * (adjoints @ np.array(starts)[:, :, None]).transpose(0, 2, 1)  # w_j u_j
    phase = evals[seg]
    phase *= offsets[1:, None]
    phase = -1j * phase
    np.exp(phase, out=phase)
    coords = np.empty((offsets.size, len(starts[0])), dtype=complex)
    coords[0] = starts[0]
    np.multiply(scaled[seg, :, 0], phase[:, :1], out=coords[1:])
    for j in range(1, coords.shape[1]):
        term = scaled[seg, :, j]
        term *= phase[:, j:j + 1]
        coords[1:] += term
    return coords


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
    sol = checked_int("solution index", solution_index, 0, dim)
    t, all_offsets, seg = _sample_grid(schedule, sample_step)

    uniform = np.full(dim, 1.0 / math.sqrt(dim))
    basis = _invariant_subspace(uniform, sol)
    # vdot streams each pair; a 2 x 2 matmul product over 2^n entries costs
    # half as much again, as BLAS packs both operands first
    i_v = np.array([np.vdot(v, uniform) for v in basis])  # <v_j|i>
    s_v = basis[:, sol]  # <s|v_j>
    gram = np.array([[np.vdot(v, w) for w in basis] for v in basis])  # <v_j|v_k>
    hams = (schedule.omega_i[:, None, None] * np.outer(i_v, i_v)
            + schedule.omega_s[:, None, None] * np.outer(s_v, s_v))
    evals, evecs = np.linalg.eigh(hams)
    adjoints = evecs.transpose(0, 2, 1)

    # every segment's whole propagator U exp(-i Lambda d) U^T, then the chain
    # of segment starts over lists of m coordinates; the initial state is
    # |uniform| v_0
    whole = (evecs * np.exp(-1j * evals * schedule.durations[:, None])[:, None, :]) @ adjoints
    c = [_norm(uniform), *[0j] * (len(basis) - 1)]
    starts = [c]
    for prop in whole[:-1].tolist():
        c = [sum(map(operator.mul, row, c)) for row in prop]
        starts.append(c)

    coords = _sample_coordinates(evals, evecs, adjoints, starts, all_offsets, seg)
    norm_sq = np.sum((coords.conj() @ gram) * coords, axis=1).real
    return _sampled_trace(space, schedule, t, seg, coords @ s_v, coords @ i_v,
                          np.abs(np.sqrt(norm_sq) - 1.0),
                          "full-space norm drift exceeded tolerance")
