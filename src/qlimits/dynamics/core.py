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

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from ..constants import HBAR
from ..errors import (CapacityError, ConsistencyError, DomainError, checked, checked_int,
                      in_double_range)

NORM_TOLERANCE = 1e-9

# Most (scale factor, segment) propagators :func:`propagate` holds at once;
# its temporaries stay this size whatever the schedule length.
BLOCK_ELEMENTS = 8192

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
        checked_int("key length n", self.n, 1, 1024, "[]")

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
        try:
            norm = _abs2(self.c1) + _abs2(self.c2)
        except (AttributeError, TypeError):  # text, None, a list, a Decimal
            raise DomainError("state amplitudes must be complex numbers",
                              (self.c1, self.c2)) from None
        checked("squared state norm", norm, 1.0 - 1e-6, 1.0 + 1e-6, "[]")

    @classmethod
    def initial(cls, space: SearchSpace) -> "EffectiveState":
        return cls(1.0 + 0.0j, 0.0 + 0.0j, space)

    def solution_amplitude(self) -> complex:
        """<s|psi> in the orthonormal basis."""
        g = self.space.overlap
        return g * self.c1 + math.sqrt(1.0 - g * g) * self.c2


def _real_array(name: str, values) -> np.ndarray:
    """``values`` as a float array.  Text, None, complex numbers and ragged
    rows are refused as "<name> must be real numbers"; a bool counts as 0 or 1."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):  # ragged rows
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be real numbers", values)
    return array.astype(float, copy=False)


class Segment(NamedTuple("Segment", [("duration", float), ("omega_i", float),
                                      ("omega_s", float)])):
    """One row of a control schedule: a constant-Hamiltonian interval of
    ``duration`` seconds under ``omega_i`` and ``omega_s`` (rad/s)."""

    __slots__ = ()

    def __new__(cls, duration: float, omega_i: float, omega_s: float):
        checked("segment duration", duration)
        checked("segment frequencies", omega_i, ends="[)")
        checked("segment frequencies", omega_s, ends="[)")
        return super().__new__(cls, duration, omega_i, omega_s)


class ControlSchedule:
    """Piecewise-constant control: three read-only float columns
    ``durations``, ``omega_i`` and ``omega_s``, one entry per segment.

    ``rows`` is anything ``np.asarray`` reads as (k, 3) real numbers: a
    (k, 3) array, (duration, omega_i, omega_s) triples or :class:`Segment`
    rows.  Every row must pass :class:`Segment`'s check; the first value in
    row order that does not raises :class:`DomainError`.
    ``declared_duration``, when given by a schedule constructor, must match
    the summed segment durations to 1e-12 relative; it is checked, not kept,
    so two schedules are equal when their columns are.
    """

    def __init__(self, rows, declared_duration: float | None = None):
        table = _real_array("schedule rows", rows)
        if table.ndim != 2 or table.shape[1] != 3 or table.size == 0:
            raise DomainError("schedule must contain at least one segment, as "
                              "(duration, omega_i, omega_s) rows", table.shape)
        columns = table.T.copy()
        # every value lies in its column's interval if the column's least and
        # greatest do (NaN is both); else a row by row pass finds the first
        try:
            Segment(*columns.min(axis=1).tolist())
            Segment(*columns.max(axis=1).tolist())
        except DomainError:
            for row in table.tolist():
                Segment(*row)
        columns.flags.writeable = False
        self.durations, self.omega_i, self.omega_s = columns
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
        return all(map(np.array_equal, self.arrays(), other.arrays()))

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The rows as :class:`Segment` tuples, built on first use."""
        return tuple(map(Segment._make, zip(*(c.tolist() for c in self.arrays()))))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(durations, omega_i, omega_s), in segment order."""
        return self.durations, self.omega_i, self.omega_s

    def scaled(self, factor: float) -> "ControlSchedule":
        """Uniformly stretch every segment duration by ``factor``."""
        checked("scale factor", factor)
        with np.errstate(over="ignore"):  # ControlSchedule refuses an overflowed duration
            durations = self.durations * factor
        return ControlSchedule(np.column_stack((durations, self.omega_i, self.omega_s)))

    def truncated(self, duration: float) -> "ControlSchedule":
        """The restriction of this schedule to [0, duration]."""
        checked("truncation time", duration, 0.0, self.total_duration * (1.0 + 1e-12), "(]")
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

    @property
    def p0_subnormal(self) -> bool:
        """True when 2^-n is subnormal and P_s at t = 0 loses precision."""
        return self.space.p0_subnormal

    def columns(self) -> tuple[np.ndarray, ...]:
        """The nine columns in the order t, omega_i, omega_s, P_s, P_i,
        Re A, Im A, alpha_ab, norm error."""
        return (self.t, self.omega_i, self.omega_s, self.prob_s, self.prob_i,
                self.re_a, self.im_a, self.alpha_ab, self.norm_error)

    @cached_property
    def points(self) -> tuple[TracePoint, ...]:
        """The rows as :class:`TracePoint` objects, built on first use."""
        rows = zip(*(c.tolist() for c in self.columns()))
        return tuple(TracePoint(t, wi, ws, Observables(p_s, p_i, complex(re_a, im_a), alpha), err)
                     for t, wi, ws, p_s, p_i, re_a, im_a, alpha, err in rows)

    def a(self) -> np.ndarray:
        out = np.empty(self.t.size, dtype=complex)
        out.real, out.imag = self.re_a, self.im_a
        return out


def effective_hamiltonian(space: SearchSpace, omega_i: float, omega_s: float) -> np.ndarray:
    """H/hbar as a real symmetric 2x2 matrix in the {|i>, |s_perp>} basis."""
    checked("frequencies", omega_i, ends="[)")
    checked("frequencies", omega_s, ends="[)")
    g = space.overlap
    gg = g * g
    coupling = omega_s * g * math.sqrt(1.0 - gg)
    return np.array(
        [
            [omega_i + omega_s * gg, coupling],
            [coupling, omega_s * (1.0 - gg)],
        ]
    )


def _splitting(g: float, omega: float, delta_omega: float) -> float:
    """Omega = sqrt(delta^2 (1-g^2) + omega^2 g^2) as a hypot, which cannot cancel or overflow."""
    return math.hypot(delta_omega * math.sqrt(1.0 - g * g), omega * g)


def eigenenergies(space: SearchSpace, omega: float, delta_omega: float) -> tuple[float, float]:
    """Closed-form eigenenergies (E_plus, E_minus) in joules.

    E_pm = hbar*omega +- hbar*sqrt(delta^2 + (omega^2 - delta^2)/2^n).
    """
    checked("omega", omega, ends="[)")
    checked("delta_omega", delta_omega, -omega, omega, "[]")  # no negative frequency
    g = space.overlap
    split = _splitting(g, omega, delta_omega)
    upper = in_double_range(omega + split, "upper eigenfrequency", (omega, delta_omega))
    # omega - split as (omega^2 - split^2) / upper = (omega^2 - delta^2)(1 - g^2) / upper,
    # which rounding cannot take below zero
    detuned = abs(delta_omega)
    lower = (omega - detuned) * ((omega + detuned) / upper) * (1.0 - g * g) if upper else 0.0
    return (HBAR * upper, HBAR * lower)


def _pauli_components(space: SearchSpace, omega_i, omega_s):
    """(mean, x, z) with H/hbar = mean*I + x*sigma_x + z*sigma_z.

    Elementwise, with the same arithmetic for floats and arrays.
    """
    g = space.overlap
    gg = g * g
    x = omega_s * g * math.sqrt(1.0 - gg)
    z = 0.5 * (omega_i - omega_s) + omega_s * gg
    return 0.5 * (omega_i + omega_s), x, z


def _checked_schedule(schedule) -> ControlSchedule:
    """``schedule``, refused as :class:`DomainError` unless a :class:`ControlSchedule`,
    whose constructor has checked its columns."""
    if not isinstance(schedule, ControlSchedule):
        raise DomainError("schedule must be a ControlSchedule", schedule)
    return schedule


# an infinite step puts 0 * inf among the candidates, which the filter drops
@np.errstate(invalid="ignore")
def _sample_grid(schedule: ControlSchedule, step: float):
    """(t, offsets, seg) of a trace: the initial sample at t = 0, then
    every multiple of ``step`` strictly inside a segment and each segment's
    end, with ``offsets`` from its segment's start and ``seg`` that segment
    as intp (0 for the initial sample), so ``column[seg]`` gathers a segment
    column per sample.  A segment holds at most duration/step + 2 samples,
    so a trace past MAX_TRACE_SAMPLES raises :class:`CapacityError` before
    any array is made.  A schedule that is not a :class:`ControlSchedule`
    raises :class:`DomainError`.
    """
    durations = _checked_schedule(schedule).durations
    checked("sample_step", step, 0.0, math.inf, "(]")
    bound = schedule.total_duration / step + 2 * durations.size + 1
    if not bound <= MAX_TRACE_SAMPLES:
        raise CapacityError(f"a trace is limited to {MAX_TRACE_SAMPLES} samples; "
                            "raise the sample step", (bound, step))
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
    seg = np.concatenate(([0], segment[keep]))
    return starts[seg] + offsets, offsets, seg


def _abs2(z):
    """|z|^2, elementwise, from the real and imaginary parts."""
    return z.real * z.real + z.imag * z.imag


def _sampled_trace(space: SearchSpace, schedule: ControlSchedule, t: np.ndarray,
                   seg: np.ndarray, s_amp: np.ndarray, i_amp: np.ndarray,
                   norm_error: np.ndarray, message: str) -> Trace:
    """The :class:`Trace` of the amplitudes ``s_amp`` = <s|psi> and
    ``i_amp`` = <i|psi> at the times ``t`` and segments ``seg`` of
    :func:`_sample_grid`, each sample under its segment's frequencies.
    A = conj(<s|psi>) <i|psi>; P_s and P_i are clipped to [0, 1], which
    rounding can pass by an ulp.  The first ``norm_error`` beyond
    NORM_TOLERANCE (or not finite) raises :class:`ConsistencyError` with
    ``message`` and that sample's (t, error).
    """
    bad = ~(norm_error <= NORM_TOLERANCE)
    if bad.any():
        k = int(np.argmax(bad))
        raise ConsistencyError(message, (float(t[k]), float(norm_error[k])))
    a = s_amp.conj() * i_amp
    return Trace(t, schedule.omega_i[seg], schedule.omega_s[seg],
                 np.minimum(_abs2(s_amp), 1.0), np.minimum(_abs2(i_amp), 1.0),
                 a.real, a.imag, np.angle(a), norm_error, space)


def _su2(x, z, dt):
    """(alpha, beta), elementwise, with exp(-i (x sigma_x + z sigma_z) dt)
    = [[alpha, -beta*], [beta, alpha*]]."""
    rabi = np.hypot(x, z)
    angle = rabi * dt
    # where rabi == 0, x = z = 0 and sin(rabi dt)/rabi drops out
    sin_over = np.sin(angle)
    sin_over /= np.where(rabi > 0.0, rabi, 1.0)
    # the parts are written in place with the bits, signed zeros included, of
    # cos - 1j (z sin_over) and -1j (x sin_over)
    alpha = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=alpha.real)
    np.subtract(0.0, z * sin_over, out=alpha.imag)
    beta = np.zeros(angle.shape, dtype=complex)
    np.negative(x * sin_over, out=beta.imag)
    return alpha, beta


# A frequency or time that overflows ends in a non-finite norm, which the
# norm check reports; numpy's warnings on the way would only add noise.
@np.errstate(over="ignore", invalid="ignore")
def evolve(state: EffectiveState, schedule: ControlSchedule, sample_step: float) -> Trace:
    """Integrate the state through a schedule, sampling observables.

    Within each constant segment the propagation is the exact 2x2 matrix
    exponential; samples fall on every multiple of ``sample_step`` plus all
    segment boundaries, ending exactly at the total duration.  Only the
    segment start states are taken one after the other.  More than
    MAX_TRACE_SAMPLES samples raise :class:`CapacityError` before any
    propagation; a norm drift beyond 1e-9 (or a non-finite norm) raises
    :class:`ConsistencyError`.
    """
    t, offsets, seg = _sample_grid(schedule, sample_step)
    owner, offsets = seg[1:], offsets[1:]  # past the initial sample
    mean, x, z = _pauli_components(state.space, schedule.omega_i, schedule.omega_s)
    alpha, beta = _su2(x[owner], z[owner], offsets)
    phases = np.exp((-1j * mean)[owner] * offsets)
    # the chain of segment start states; a segment's last sample is its end,
    # the one whose successor lies in another segment
    last = np.flatnonzero(np.diff(owner, append=-1))
    starts = []
    c1, c2 = state.c1, state.c2
    for a, b, p in zip(alpha[last].tolist(), beta[last].tolist(), phases[last].tolist()):
        starts.append((c1, c2))
        c1, c2 = p * (a * c1 - b.conjugate() * c2), p * (b * c1 + a.conjugate() * c2)
    psi0, psi1 = np.array(starts, dtype=complex)[owner].T
    c1s = np.concatenate(([state.c1], phases * (alpha * psi0 - beta.conj() * psi1)))
    c2s = np.concatenate(([state.c2], phases * (beta * psi0 + alpha.conj() * psi1)))
    g = state.space.overlap
    s_amp = g * c1s + math.sqrt(1.0 - g * g) * c2s  # <s|psi>
    norm_error = np.abs(np.sqrt(_abs2(c1s) + _abs2(c2s)) - 1.0)
    return _sampled_trace(state.space, schedule, t, seg, s_amp, c1s, norm_error,
                          "propagator norm drift exceeded tolerance")


@cache
def _bit_reversed(m: int) -> np.ndarray:
    """The read-only bit-reversal permutation of range(m), m a power of two."""
    order = np.arange(m).reshape((2,) * (m.bit_length() - 1)).T.ravel()
    order.flags.writeable = False
    return order


def _pairwise_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time-ordered product of the matrices [[a, -b*], [b, a*]] along axis 0,
    whose power-of-two rows stand in bit-reversed time order.

    Each round multiplies row i + m/2 (later, on the left) by row i: the
    neighbour-pair tree of time order, taken on contiguous halves.
    """
    while a.shape[0] > 1:
        h = a.shape[0] // 2
        a1, b1, a2, b2 = a[:h], b[:h], a[h:], b[h:]
        # a2 a1 - conj(b2) b1 and b2 a1 + conj(a2) b1 through two scratches;
        # no product is written over its own operand, which at one element
        # takes numpy's unfused scalar loop and moves the last bit
        conj = np.conj(b2)
        tmp = np.multiply(conj, b1)
        pa = a2 * a1
        pa -= tmp
        np.multiply(np.conj(a2, out=conj), b1, out=tmp)
        pb = b2 * a1
        pb += tmp
        a, b = pa, pb
    return a[0], b[0]


def _block_segments(batch: int) -> int:
    """Segments in a full :func:`propagate` block: the largest power of two
    within BLOCK_ELEMENTS // batch, at least 1."""
    return 1 << (max(1, BLOCK_ELEMENTS // batch).bit_length() - 1)


@np.errstate(over="ignore", invalid="ignore")
def propagate(
    state: EffectiveState,
    schedule: ControlSchedule,
    factors: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Final amplitudes (c1, c2) after ``schedule`` stretched by each factor.

    Entry k of each result belongs to the schedule with every duration
    multiplied by ``factors[k]``.  Each segment propagator is the exact
    exponential exp(-i mean dt) [[alpha, -beta*], [beta, alpha*]].  The SU(2)
    parts are taken in (segments, factors) blocks of the largest power of two
    of segments within BLOCK_ELEMENTS // len(factors), the last padded to a
    power of two with a zero-duration, zero-frequency segment's part, exactly
    alpha = 1, beta = -0j; rows stand in bit-reversed time order, are reduced
    on contiguous halves and applied to the whole batch.  The phases add up
    to exp(-i factor * sum(mean * duration)), applied once at the end.  A
    schedule that is not a :class:`ControlSchedule`, or factors that are not
    a non-empty 1-D array of finite positive values, raise :class:`DomainError`
    before any propagation; a norm drift beyond 1e-9 in any row raises
    :class:`ConsistencyError`.
    """
    durations, omega_i, omega_s = _checked_schedule(schedule).arrays()
    factors = _real_array("scale factors", factors)
    if factors.ndim != 1:
        raise DomainError("scale factors must be a 1-D array", factors.shape)
    checked("number of scale factors", factors.size, 1.0, math.inf, "[)")
    checked("scale factor", float(factors.min()))  # NaN is the least too
    checked("scale factor", float(factors.max()))
    mean, x, z = _pauli_components(state.space, omega_i, omega_s)
    c1 = np.full(factors.shape, state.c1, dtype=complex)
    c2 = np.full(factors.shape, state.c2, dtype=complex)
    count, block = durations.size, _block_segments(factors.size)
    for lo in range(0, count, block):
        k = min(block, count - lo)
        m = 1 << (k - 1).bit_length()
        if k == m:  # the block's (x, z, duration) rows, in bit-reversed order
            rows = [c[lo:lo + m].take(_bit_reversed(m)) for c in (x, z, durations)]
        else:  # the last k rows and a zero row; the gather below copies the zero
            # row's part, exactly the identity, into the pads, which cost no _su2
            rows = np.zeros((3, k + 1))
            rows[:, :k] = x[lo:], z[lo:], durations[lo:]
        a, b = _su2(rows[0][:, None], rows[1][:, None], rows[2][:, None] * factors)
        if k < m:
            a, b = (c.take(np.minimum(_bit_reversed(m), k), axis=0) for c in (a, b))
        a, b = _pairwise_product(a, b)
        c1, c2 = a * c1 - b.conj() * c2, b * c1 + a.conj() * c2
    phase = np.exp(-1j * factors * (mean * durations).sum())
    c1, c2 = phase * c1, phase * c2
    drift = float(np.max(np.abs(np.sqrt(np.abs(c1) ** 2 + np.abs(c2) ** 2) - 1.0)))
    if not drift <= NORM_TOLERANCE:
        raise ConsistencyError("propagator norm drift exceeded tolerance", drift)
    return c1, c2


def final_state(state: EffectiveState, schedule: ControlSchedule) -> EffectiveState:
    """The state after the full schedule (no sampling; exact propagators)."""
    c1, c2 = propagate(state, schedule, np.ones(1))
    return EffectiveState(complex(c1[0]), complex(c2[0]), state.space)
