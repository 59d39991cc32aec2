"""Exact dynamics of work-limited search in the two-dimensional subspace.

The search Hamiltonian

    H = hbar*omega_i |i><i| + hbar*omega_s |s><s|

couples only the uniform initial state |i> and the marked solution state
|s>, whose overlap is g = <i|s> = 2**(-n/2) for an n-bit search space.  A
state prepared in |i> therefore never leaves span{|i>, |s>}, and the whole
evolution reduces to a two-level problem.

We work in the orthonormal basis {|i>, |s_perp>} with

    |s> = g |i> + sqrt(1 - g^2) |s_perp>,

where the reduced Hamiltonian (divided by hbar, units rad/s) reads

    H/hbar = [[omega_i + omega_s g^2,        omega_s g sqrt(1-g^2)],
              [omega_s g sqrt(1-g^2),        omega_s (1 - g^2)   ]].

Within each constant segment of a schedule the propagator is the exact
2x2 matrix exponential, evaluated analytically through the Pauli
decomposition; there is no step-size error anywhere, so oracle comparisons
may demand 1e-9 agreement.

Conventions: omega = (omega_i + omega_s)/2 is the mean frequency and
delta_omega = (omega_i - omega_s)/2 the detuning.  The eigenvalues of
H/hbar are omega +- Omega with Omega = sqrt(delta_omega^2 +
(omega^2 - delta_omega^2)/2^n).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from ..constants import HBAR
from ..errors import CapacityError, ConsistencyError, DomainError

NORM_TOLERANCE = 1e-9

# Most (scale factor, segment) propagators :func:`propagate` holds at once;
# its temporaries stay this size whatever the schedule length.
BLOCK_ELEMENTS = 4096

# Most samples one trace may hold; at about 233 bytes per CSV row this is
# some 3.9 GB of output.
MAX_TRACE_SAMPLES = 2 ** 24

# n beyond which 2^-n falls under the smallest normal double and the
# initial success probability loses precision.
_SUBNORMAL_BITS = 1022


@dataclass(frozen=True)
class SearchSpace:
    """An n-bit search space: dimension 2^n, overlap g = 2^(-n/2)."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and 1 <= self.n <= 1024):
            raise DomainError("key length n must be an integer in [1, 1024]", self.n)

    @property
    def dimension(self) -> int:
        return 2 ** self.n

    @property
    def overlap(self) -> float:
        """g = <i|s> = 2^(-n/2), computed in log2 space."""
        return 2.0 ** (-0.5 * self.n)

    @property
    def p0_subnormal(self) -> bool:
        """True when 2^-n is subnormal and loses mantissa precision."""
        return self.n > _SUBNORMAL_BITS


@dataclass(frozen=True)
class EffectiveState:
    """Amplitudes on |i> and |s_perp>."""

    c1: complex
    c2: complex
    space: SearchSpace

    def __post_init__(self):
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if abs(norm - 1.0) > 1e-6:
            raise DomainError("state amplitudes must be normalized", norm)

    @classmethod
    def initial(cls, space: SearchSpace) -> "EffectiveState":
        return cls(1.0 + 0.0j, 0.0 + 0.0j, space)

    def solution_amplitude(self) -> complex:
        """<s|psi> in the orthonormal basis."""
        g = self.space.overlap
        return g * self.c1 + math.sqrt(1.0 - g * g) * self.c2


class Segment(NamedTuple("Segment", [("duration", float), ("omega_i", float),
                                      ("omega_s", float)])):
    """One row of a control schedule: a constant-Hamiltonian interval of
    ``duration`` seconds under ``omega_i`` and ``omega_s`` (rad/s)."""

    __slots__ = ()

    def __new__(cls, duration: float, omega_i: float, omega_s: float):
        if not (duration > 0.0 and math.isfinite(duration)):
            raise DomainError("segment duration must be finite and > 0", duration)
        for w in (omega_i, omega_s):
            if not (math.isfinite(w) and w >= 0.0):
                raise DomainError("segment frequencies must be finite and >= 0", w)
        return super().__new__(cls, duration, omega_i, omega_s)


class ControlSchedule:
    """Piecewise-constant control: three read-only float columns
    ``durations``, ``omega_i`` and ``omega_s``, one entry per segment.

    ``rows`` is anything ``np.array`` reads as (k, 3) floats: a (k, 3)
    array, (duration, omega_i, omega_s) triples or :class:`Segment` rows.
    A duration must be finite and > 0 and a frequency finite and >= 0; the
    first value that is not raises :class:`DomainError`.
    ``declared_duration``, when given by a schedule constructor, must match
    the summed segment durations to 1e-12 relative.
    """

    def __init__(self, rows, declared_duration: float | None = None):
        table = np.array(rows, dtype=float)
        if table.ndim != 2 or table.shape[1] != 3 or table.size == 0:
            raise DomainError("schedule must contain at least one segment, as "
                              "(duration, omega_i, omega_s) rows", table.shape)
        valid = np.isfinite(table) & (table >= 0.0)
        valid[:, 0] &= table[:, 0] > 0.0
        if not valid.all():
            k = int(np.argmin(valid))  # row-major: the first offending value
            raise DomainError("segment duration must be finite and > 0" if k % 3 == 0
                              else "segment frequencies must be finite and >= 0",
                              table.flat[k].item())
        columns = np.ascontiguousarray(table.T)
        columns.flags.writeable = False
        self.durations, self.omega_i, self.omega_s = columns
        self.declared_duration = declared_duration
        try:
            self.total_duration = math.fsum(self.durations.tolist())
        except OverflowError:
            raise DomainError("segment durations add up past double range",
                              self.durations.size) from None
        if declared_duration is not None and abs(self.total_duration - declared_duration) \
                > 1e-12 * max(abs(declared_duration), 1e-300):
            raise ConsistencyError("segment durations do not add up to the declared runtime",
                                   (self.total_duration, declared_duration))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ControlSchedule):
            return NotImplemented
        return (self.declared_duration == other.declared_duration
                and all(map(np.array_equal, self.arrays(), other.arrays())))

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The rows as :class:`Segment` tuples, built on first use."""
        return tuple(map(Segment._make, zip(*(c.tolist() for c in self.arrays()))))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(durations, omega_i, omega_s), in segment order."""
        return self.durations, self.omega_i, self.omega_s

    def scaled(self, factor: float) -> "ControlSchedule":
        """Uniformly stretch every segment duration by ``factor``."""
        if not factor > 0.0:
            raise DomainError("scale factor must be > 0", factor)
        return ControlSchedule(np.column_stack((self.durations * factor, self.omega_i,
                                                self.omega_s)))

    def truncated(self, duration: float) -> "ControlSchedule":
        """The restriction of this schedule to [0, duration]."""
        if not 0.0 < duration <= self.total_duration * (1.0 + 1e-12):
            raise DomainError("truncation time must lie within the schedule", duration)
        # the time left before each segment, subtracted in segment order
        left = np.subtract.accumulate(np.append(duration, self.durations))[:-1]
        short = left < self.durations
        k = int(np.argmax(short)) if short.any() else left.size
        rows = np.column_stack(self.arrays())[:k + 1]
        if k < left.size:  # segment k is cut to the time left, if any is
            rows[k, 0] = left[k]
            if not left[k] > 0.0:
                rows = rows[:k]
        return ControlSchedule(rows)


@dataclass(frozen=True)
class Observables:
    """Instantaneous observables of the reduced state."""

    p_s: float            # |<s|psi>|^2
    p_i: float            # |<i|psi>|^2
    a: complex            # <psi|s><i|psi>
    alpha_ab: float       # arg(a), rad
    e_plus: float         # upper eigenenergy, J
    e_minus: float        # lower eigenenergy, J


@dataclass(frozen=True)
class TracePoint:
    t: float
    omega_i: float
    omega_s: float
    obs: Observables
    norm_error: float


@dataclass(frozen=True, eq=False)
class Trace:
    """Time series of observables along a schedule, one array per column.

    Row k is the sample at time ``t[k]``: the segment frequencies in force,
    P_s, P_i, A = <psi|s><i|psi> as (``re_a``, ``im_a``), alpha_ab = arg A
    and the norm drift.  Every entry is finite: a non-finite norm fails the
    norm check.
    """

    t: np.ndarray
    omega_i: np.ndarray
    omega_s: np.ndarray
    prob_s: np.ndarray
    prob_i: np.ndarray
    re_a: np.ndarray
    im_a: np.ndarray
    alpha_ab: np.ndarray
    norm_error: np.ndarray
    space: SearchSpace
    p0_subnormal: bool = field(default=False)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The nine columns in the order t, omega_i, omega_s, P_s, P_i,
        Re A, Im A, alpha_ab, norm error."""
        return (self.t, self.omega_i, self.omega_s, self.prob_s, self.prob_i,
                self.re_a, self.im_a, self.alpha_ab, self.norm_error)

    def _points(self, rows) -> Iterator[TracePoint]:
        energies: dict[tuple[float, float], tuple[float, float]] = {}
        for t, wi, ws, p_s, p_i, re_a, im_a, alpha, err in rows:
            e = energies.get((wi, ws))
            if e is None:
                e = energies[wi, ws] = eigenenergies(self.space, 0.5 * (wi + ws),
                                                     0.5 * (wi - ws))
            yield TracePoint(t, wi, ws, Observables(p_s, p_i, complex(re_a, im_a), alpha, *e),
                             err)

    @cached_property
    def points(self) -> tuple[TracePoint, ...]:
        """The rows as :class:`TracePoint` objects, built on first use."""
        return tuple(self._points(zip(*(c.tolist() for c in self.columns()))))

    @property
    def final(self) -> TracePoint:
        return next(self._points([[c[-1].item() for c in self.columns()]]))

    def times(self) -> np.ndarray:
        return self.t

    def p_s(self) -> np.ndarray:
        return self.prob_s

    def p_i(self) -> np.ndarray:
        return self.prob_i

    def a(self) -> np.ndarray:
        out = np.empty(self.t.size, dtype=complex)
        out.real, out.imag = self.re_a, self.im_a
        return out


def effective_hamiltonian(space: SearchSpace, omega_i: float, omega_s: float) -> np.ndarray:
    """H/hbar as a real symmetric 2x2 matrix in the {|i>, |s_perp>} basis."""
    for w in (omega_i, omega_s):
        if not (math.isfinite(w) and w >= 0.0):
            raise DomainError("frequencies must be finite and >= 0", w)
    g = space.overlap
    gg = g * g
    coupling = omega_s * g * math.sqrt(1.0 - gg)
    return np.array(
        [
            [omega_i + omega_s * gg, coupling],
            [coupling, omega_s * (1.0 - gg)],
        ]
    )


def eigenenergies(space: SearchSpace, omega: float, delta_omega: float) -> tuple[float, float]:
    """Closed-form eigenenergies (E_plus, E_minus) in joules.

    E_pm = hbar*omega +- hbar*sqrt(delta^2 + (omega^2 - delta^2)/2^n).
    """
    if abs(delta_omega) > omega:
        raise DomainError(
            "|delta_omega| must not exceed omega (negative frequencies)",
            (omega, delta_omega),
        )
    gg = space.overlap ** 2
    split = math.sqrt(delta_omega * delta_omega * (1.0 - gg) + omega * omega * gg)
    return (HBAR * (omega + split), HBAR * (omega - split))


def _pauli_components(space: SearchSpace, omega_i, omega_s):
    """(mean, x, z) with H/hbar = mean*I + x*sigma_x + z*sigma_z.

    Elementwise, with the same arithmetic for floats and arrays.
    """
    g = space.overlap
    gg = g * g
    x = omega_s * g * math.sqrt(1.0 - gg)
    z = 0.5 * (omega_i - omega_s) + omega_s * gg
    return 0.5 * (omega_i + omega_s), x, z


def segment_propagator(space: SearchSpace, seg: Segment, duration: float | None = None) -> np.ndarray:
    """Exact unitary exp(-i (H/hbar) * duration) for one segment."""
    dt = seg.duration if duration is None else duration
    mean, x, z = _pauli_components(space, seg.omega_i, seg.omega_s)
    rabi = math.hypot(x, z)
    phase = cmath.exp(-1j * mean * dt)
    cos_t = math.cos(rabi * dt)
    if rabi * dt < 1e-100:
        sin_over = dt
    else:
        sin_over = math.sin(rabi * dt) / rabi if rabi > 0.0 else dt
    return phase * np.array(
        [
            [cos_t - 1j * z * sin_over, -1j * x * sin_over],
            [-1j * x * sin_over, cos_t + 1j * z * sin_over],
        ]
    )


def observables_at(
    state: EffectiveState, omega_i: float, omega_s: float
) -> Observables:
    """Observables of ``state`` under the segment frequencies given."""
    s_amp = state.solution_amplitude()
    p_s = abs(s_amp) ** 2
    p_i = abs(state.c1) ** 2
    a = s_amp.conjugate() * state.c1
    omega = 0.5 * (omega_i + omega_s)
    delta = 0.5 * (omega_i - omega_s)
    e_plus, e_minus = eigenenergies(state.space, omega, delta)
    return Observables(
        p_s=p_s,
        p_i=p_i,
        a=a,
        alpha_ab=cmath.phase(a),
        e_plus=e_plus,
        e_minus=e_minus,
    )


# an infinite step puts 0 * inf among the candidates, which the filter drops
@np.errstate(invalid="ignore")
def _sample_grid(schedule: ControlSchedule, step: float):
    """(t, offsets, edges) of a trace: the initial sample at t = 0, then
    every multiple of ``step`` strictly inside a segment and each segment's
    end.  ``offsets`` count from each sample's segment start; segment k owns
    samples edges[k]:edges[k + 1] (``edges`` is a list).  A segment holds
    at most duration/step + 2 samples, so a trace past MAX_TRACE_SAMPLES
    raises :class:`CapacityError` before any array is made.
    """
    if not step > 0.0:
        raise DomainError("sample_step must be > 0", step)
    bound = schedule.total_duration / step + 2 * schedule.durations.size + 1
    if not bound <= MAX_TRACE_SAMPLES:
        raise CapacityError(f"a trace is limited to {MAX_TRACE_SAMPLES} samples; "
                            "raise the sample step", (bound, step))
    durations = schedule.durations
    ends = np.cumsum(durations)  # sequential, as a running t_start += duration
    starts = np.concatenate(([0.0], ends[:-1]))
    first = np.ceil(starts / step - 1e-9)
    # segment k's slots: grid points first[k]..last[k], then its end
    slots = (np.floor(ends / step + 1e-9) - first + 2).astype(np.intp)
    tail = np.cumsum(slots) - 1
    segment = np.repeat(np.arange(durations.size), slots)
    grid_index = (first - (tail - slots + 1))[segment] + np.arange(segment.size)
    offsets = grid_index * step - starts[segment]
    duration = durations[segment]
    keep = (1e-12 * np.maximum(duration, step) < offsets) & (offsets < duration * (1.0 - 1e-12))
    offsets[tail], keep[tail] = durations, True
    offsets = np.concatenate(([0.0], offsets[keep]))
    t = np.concatenate(([0.0], starts[segment[keep]] + offsets[1:]))
    return t, offsets, [1, *(np.cumsum(keep)[tail] + 1).tolist()]


def _libm_square(x: np.ndarray) -> np.ndarray:
    """x**2 through libm ``pow``, as Python's ``float ** 2`` computes it.

    ``x * x`` differs from it in the last bit for a few values in 10^4.
    """
    return np.fromiter(map(math.pow, x.tolist(), repeat(2.0)), float, x.size)


def _observable_columns(s_re, s_im, i_re, i_im):
    """(P_s, P_i, Re A, Im A, alpha_ab) from <s|psi> and <i|psi> per sample.

    A = conj(<s|psi>) <i|psi>, with Python's complex product written out in
    reals, |z| from hypot and the phase from atan2, so every entry equals
    the scalar complex expression bit for bit.
    """
    re_a = s_re * i_re - (-s_im) * i_im
    im_a = s_re * i_im + (-s_im) * i_re
    alpha = np.fromiter(map(math.atan2, im_a.tolist(), re_a.tolist()), float, re_a.size)
    return (_libm_square(np.hypot(s_re, s_im)), _libm_square(np.hypot(i_re, i_im)),
            re_a, im_a, alpha)


def _sampled_trace(space: SearchSpace, schedule: ControlSchedule, t: np.ndarray, edges,
                   observables, norm_error: np.ndarray, message: str) -> Trace:
    """The :class:`Trace` of (P_s, P_i, Re A, Im A, alpha_ab) ``observables``
    at the times ``t`` and segment ``edges`` of :func:`_sample_grid`, the
    initial sample under the first segment's frequencies.  The first
    ``norm_error`` beyond NORM_TOLERANCE (or not finite) raises
    :class:`ConsistencyError` with ``message`` and that sample's (t, error).
    """
    bad = ~(norm_error <= NORM_TOLERANCE)
    if bad.any():
        k = int(np.argmax(bad))
        raise ConsistencyError(message, (float(t[k]), float(norm_error[k])))
    counts = np.diff(edges[1:], prepend=0)
    return Trace(t, np.repeat(schedule.omega_i, counts), np.repeat(schedule.omega_s, counts),
                 *observables, norm_error, space, space.p0_subnormal)


# A frequency or time that overflows ends in a non-finite norm, which the
# norm check reports; numpy's warnings on the way would only add noise.
@np.errstate(over="ignore", invalid="ignore")
def evolve(state: EffectiveState, schedule: ControlSchedule, sample_step: float) -> Trace:
    """Integrate the state through a schedule, sampling observables.

    Within each constant segment the propagation is the exact 2x2 matrix
    exponential; samples fall on every multiple of ``sample_step`` plus all
    segment boundaries, ending exactly at the total duration.  The
    observables of all samples are then taken at once.  More than
    MAX_TRACE_SAMPLES samples raise :class:`CapacityError` before any
    propagation; a norm drift beyond 1e-9 (or a non-finite norm) raises
    :class:`ConsistencyError`.
    """
    t, all_offsets, edges = _sample_grid(schedule, sample_step)
    space = state.space
    psi = np.array([state.c1, state.c2], dtype=complex)
    c1s, c2s = np.empty(t.size, dtype=complex), np.empty(t.size, dtype=complex)
    c1s[0], c2s[0] = psi
    for lo, stop, omega_i, omega_s in zip(edges, edges[1:], schedule.omega_i.tolist(),
                                          schedule.omega_s.tolist()):
        mean, x, z = _pauli_components(space, omega_i, omega_s)
        rabi = math.hypot(x, z)
        offsets = all_offsets[lo:stop]
        angles = rabi * offsets
        cos_t = np.cos(angles)
        if rabi > 0.0:
            sin_over = np.sin(angles) / rabi
        else:
            sin_over = offsets.copy()
        # keep the operand order: from 16,384 samples numpy runs phases * (...)
        # in place as (...) *= phases, and x * y can differ from y * x in the
        # last bit
        phases = np.exp(-1j * mean * offsets)
        c1s[lo:stop] = phases * ((cos_t - 1j * z * sin_over) * psi[0] - 1j * x * sin_over * psi[1])
        c2s[lo:stop] = phases * (-1j * x * sin_over * psi[0] + (cos_t + 1j * z * sin_over) * psi[1])
        psi = np.array([c1s[stop - 1], c2s[stop - 1]])

    r1, i1, r2, i2 = c1s.real, c1s.imag, c2s.real, c2s.imag
    # <s|psi> = g c1 + sqrt(1 - g^2) c2, as Python's (real * complex) computes it
    g = space.overlap
    h = math.sqrt(1.0 - g * g)
    s_re = (g * r1 - 0.0 * i1) + (h * r2 - 0.0 * i2)
    s_im = (g * i1 + 0.0 * r1) + (h * i2 + 0.0 * r2)
    observables = _observable_columns(s_re, s_im, r1, i1)
    norm_error = np.abs(np.sqrt(observables[1] + _libm_square(np.hypot(r2, i2))) - 1.0)
    return _sampled_trace(space, schedule, t, edges, observables, norm_error,
                          "propagator norm drift exceeded tolerance")


def _pairwise_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time-ordered product of the matrices [[a, -b*], [b, a*]] along axis 1.

    Neighbours are multiplied pairwise, later on the left, halving the axis
    each round; an odd last matrix waits for the next round.
    """
    while a.shape[1] > 1:
        m = a.shape[1] // 2 * 2
        a1, b1, a2, b2 = a[:, 0:m:2], b[:, 0:m:2], a[:, 1:m:2], b[:, 1:m:2]
        pa = a2 * a1 - b2.conj() * b1
        pb = b2 * a1 + a2.conj() * b1
        if m < a.shape[1]:
            pa = np.concatenate((pa, a[:, m:]), axis=1)
            pb = np.concatenate((pb, b[:, m:]), axis=1)
        a, b = pa, pb
    return a[:, 0], b[:, 0]


@np.errstate(over="ignore", invalid="ignore")
def propagate(
    state: EffectiveState,
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    factors: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Final amplitudes (c1, c2) after a schedule stretched by each factor.

    ``arrays`` is a schedule's ``(durations, omega_i, omega_s)``; entry k of
    each result belongs to the schedule with every duration multiplied by
    ``factors[k]``.  Each segment propagator is the exact exponential
    exp(-i mean dt) [[alpha, -beta*], [beta, alpha*]].  The SU(2) parts are
    taken in blocks of at most BLOCK_ELEMENTS // len(factors) segments,
    reduced pairwise and applied to the whole batch; the phases add up to
    exp(-i factor * sum(mean * duration)), applied once at the end.  A norm
    drift beyond 1e-9 in any row raises :class:`ConsistencyError`.
    """
    durations, omega_i, omega_s = arrays
    factors = np.asarray(factors, dtype=float)
    if not np.all(factors > 0.0):
        raise DomainError("scale factors must be > 0", float(np.min(factors)))
    mean, x, z = _pauli_components(state.space, omega_i, omega_s)
    rabi = np.hypot(x, z)
    # where rabi == 0, x = z = 0 and sin(rabi dt)/rabi drops out
    rabi_or_one = np.where(rabi > 0.0, rabi, 1.0)
    c1 = np.full(factors.shape, state.c1, dtype=complex)
    c2 = np.full(factors.shape, state.c2, dtype=complex)
    block = max(1, BLOCK_ELEMENTS // factors.size)
    for lo in range(0, durations.size, block):
        part = slice(lo, lo + block)
        dt = factors[:, None] * durations[part]
        angle = rabi[part] * dt
        sin_over = np.sin(angle) / rabi_or_one[part]
        a, b = _pairwise_product(np.cos(angle) - 1j * (z[part] * sin_over),
                                 -1j * (x[part] * sin_over))
        c1, c2 = a * c1 - b.conj() * c2, b * c1 + a.conj() * c2
    phase = np.exp(-1j * factors * (mean * durations).sum())
    c1, c2 = phase * c1, phase * c2
    drift = float(np.max(np.abs(np.sqrt(np.abs(c1) ** 2 + np.abs(c2) ** 2) - 1.0)))
    if not drift <= NORM_TOLERANCE:
        raise ConsistencyError("propagator norm drift exceeded tolerance", drift)
    return c1, c2


def final_state(state: EffectiveState, schedule: ControlSchedule) -> EffectiveState:
    """The state after the full schedule (no sampling; exact propagators)."""
    c1, c2 = propagate(state, schedule.arrays(), np.ones(1))
    return EffectiveState(complex(c1[0]), complex(c2[0]), state.space)
