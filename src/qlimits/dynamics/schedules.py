"""Schedule constructors: ballistic, pulsed-oracle, and adiabatic sweeps.

All constructors return :class:`~qlimits.dynamics.core.ControlSchedule`
objects; the simulator itself never special-cases a protocol.
"""

from __future__ import annotations

import math

import numpy as np

from ..constants import HBAR
from ..errors import CapacityError, DomainError, checked, checked_int, in_double_range
from .core import (
    MAX_TRACE_SAMPLES,
    ControlSchedule,
    EffectiveState,
    SearchSpace,
    propagate,
)


def ballistic_schedule(space: SearchSpace, work: float) -> ControlSchedule:
    """Free evolution under constant omega_i = omega_s = omega.

    The work budget W fixes the frequency through the upper eigenenergy,
    omega = W / (hbar (1 + 2^(-n/2))), and the state rotates from |i> onto
    |s> deterministically at t_F = pi*sqrt(2^n)/(2 omega).
    """
    omega = ballistic_frequency(space, work)
    t_final = math.pi / (2.0 * omega * space.overlap)  # pi*sqrt(2^n)/(2 omega)
    return ControlSchedule(((t_final, omega, omega),), declared_duration=t_final)


def ballistic_frequency(space: SearchSpace, work: float) -> float:
    """omega implied by a work budget for the ballistic protocol."""
    checked("work", work)
    return in_double_range(work / (HBAR * (1.0 + space.overlap)), "ballistic frequency", work)


def _check_segment_count(count: int) -> None:
    """CapacityError before building a schedule too long to trace.

    ``evolve`` refuses a trace whose bound total/dt + 2*segments + 1 exceeds
    MAX_TRACE_SAMPLES, so a schedule of more than (MAX_TRACE_SAMPLES - 1)//2
    segments could never be simulated at any step.
    """
    limit = (MAX_TRACE_SAMPLES - 1) // 2
    if count > limit:
        raise CapacityError(f"a schedule is limited to {limit} segments", count)


def grover_pulsed_schedule(
    space: SearchSpace,
    pulse_energy: float,
    pulse_phase: float = math.pi,
    iterations: int = 1,
) -> ControlSchedule:
    """Alternating pulses (0, E/hbar) then (E/hbar, 0).

    Each pulse lasts hbar*phase/E, so it imprints exactly ``pulse_phase``
    on the projected state; a phase of pi makes each pulse a reflection and
    a pulse pair one amplitude-amplification iteration.
    """
    checked("pulse energy", pulse_energy)
    checked("pulse phase", pulse_phase, 0.0, 2.0 * math.pi, "(]")
    checked_int("iterations", iterations, 1)
    _check_segment_count(2 * iterations)
    omega_pulse = pulse_energy / HBAR
    tau = pulse_phase / omega_pulse
    pair = ((tau, 0.0, omega_pulse), (tau, omega_pulse, 0.0))
    return ControlSchedule(np.tile(pair, (iterations, 1)),
                           declared_duration=2 * iterations * tau)


def standard_grover_iterations(space: SearchSpace) -> int:
    """round(pi * 2^(n/2) / 4), the canonical phase-pi iteration count."""
    return int(round(math.pi * 2.0 ** (space.n / 2.0) / 4.0))


def first_peak_iterations(
    space: SearchSpace,
    pulse_energy: float,
    pulse_phase: float,
    max_pairs: int | None = None,
) -> tuple[int, float]:
    """Pulse pairs until the per-pair success probability first decreases.

    Returns ``(pairs, p_s)`` at the first local maximum of P_s measured
    after each pulse pair, or ``(max_pairs, p_s)`` if P_s has not fallen by
    then.  Used to characterize non-reflection pulse phases, where no
    closed-form iteration count exists.

    Each pulse is I + (e^(-i phase) - 1) P for its projector, |s><s| then
    |i><i|, so up to a phase a pair is [[a, -b*], [b, a*]] with
    a = 1 - (1 - e^(-i phase)) g^2, b = (1 - e^(i phase)) g sqrt(1 - g^2):
    a rotation V by theta <= pi/2 (Re a >= 1 - 2 g^2 >= 0).  So <s|V^j|i>
    = g cos(j theta) + w sin(j theta), P_s after j pairs is A + R cos(2 j
    theta - psi), and P_s(j + 1) < P_s(j) exactly when sin((2j + 1) theta
    - psi) > 0: the first peak in O(1), whatever the number of pairs.
    """
    checked("pulse energy", pulse_energy)
    checked("pulse phase", pulse_phase, 0.0, 2.0 * math.pi, "(]")
    if max_pairs is None:
        max_pairs = int(math.ceil(4.0 * math.pi * 2.0 ** (space.n / 2.0))) + 2
    max_pairs = checked_int("max_pairs", max_pairs, 0)
    g, gg = space.overlap, 2.0 ** -space.n
    root = math.sqrt(1.0 - gg)
    # 1 - e^(-i phase), with 1 - cos(phase) = 2 sin^2(phase/2) exact near phase 0
    kick = complex(2.0 * math.sin(0.5 * pulse_phase) ** 2, math.sin(pulse_phase))
    a, b = 1.0 - kick * gg, kick.conjugate() * g * root
    sin_theta = math.hypot(a.imag, abs(b))
    theta = math.atan2(sin_theta, a.real)  # exact where theta is near 2^(-n/2), unlike acos
    w = (1j * g * a.imag + root * b) / sin_theta if sin_theta else 0j
    r_cos, r_sin = 0.5 * (gg - abs(w) ** 2), g * w.real  # R cos(psi), R sin(psi)
    # Re a = 0 (n = 1, phase pi): P_s steps by 2 r_cos a pair, truly below rounding
    if theta > 0.0 and a.real and (r_cos or r_sin):
        # (2j + 1) theta - psi = 2 j theta - lag (mod 2 pi): its sine is > 0 at
        # j = 0 if lag > pi, else first where 2 j theta passes lag, since steps
        # of 2 theta <= pi cannot jump the half period where it is
        lag = (math.atan2(r_sin, r_cos) - theta) % (2.0 * math.pi)
        steps = min(lag / (2.0 * theta), max_pairs)  # the quotient may overflow
        pairs = min(0 if lag > math.pi else math.floor(steps) + 1, max_pairs)
    else:  # P_s never moves
        pairs = max_pairs
    s = g * math.cos(pairs * theta) + w * math.sin(pairs * theta)
    return pairs, min(s.real * s.real + s.imag * s.imag, 1.0)  # rounding can pass 1 by an ulp


def adiabatic_gap(space: SearchSpace, energy_scale: float, c: float) -> float:
    """Spectral gap E*sqrt(1 - 4c(1-c)(1 - 1/2^n)) of the interpolated H."""
    checked("energy scale", energy_scale)
    checked("sweep position c", c, 0.0, 1.0, "[]")
    gg = space.overlap ** 2
    return energy_scale * math.sqrt(1.0 - 4.0 * c * (1.0 - c) * (1.0 - gg))


def adiabatic_total_time(space: SearchSpace, energy_scale: float, error_budget: float) -> float:
    """Total sweep time of the locally paced schedule.

    Integrating dc/dt = eps * gap(c)^2 / (hbar E) from c=0 to 1 gives
    T = (hbar / (eps E)) * atan(sqrt(1-g^2)/g) / (g sqrt(1-g^2)),
    which scales as (pi/2) * 2^(n/2) * hbar/(eps E) for large n.
    """
    checked("energy scale", energy_scale)
    checked("error budget", error_budget, 0.0, 1.0)
    g = space.overlap
    root = math.sqrt(1.0 - g * g)
    scale = error_budget * energy_scale
    total = (HBAR / scale) * math.atan(root / g) / (g * root) if scale > 0.0 else math.inf
    return in_double_range(total, "sweep time", (energy_scale, error_budget))


def adiabatic_schedule(
    space: SearchSpace,
    energy_scale: float,
    error_budget: float,
    kind: str = "local",
    segments: int | None = None,
) -> ControlSchedule:
    """Discretized sweep (hbar*omega_i, hbar*omega_s) = ((1-c)E, cE), c: 0 -> 1.

    ``kind="local"`` paces c so that dc/dt is proportional to the squared
    gap (slow at the avoided crossing); ``kind="linear"`` sweeps c uniformly
    over the *same* total time, which is the natural like-for-like
    comparison.  Segments are equal-duration with c evaluated at the
    midpoint; the default count grows as 2^(n/2) so each segment sees only
    a small rotation of the instantaneous eigenbasis.
    """
    checked("energy scale", energy_scale)
    checked("error budget", error_budget, 0.0, 1.0)
    if kind not in ("local", "linear"):
        raise DomainError("kind must be 'local' or 'linear'", kind)
    if segments is None:
        segments = max(256, 16 * int(math.ceil(2.0 ** (space.n / 2.0))))
    checked_int("segments", segments, 256)
    _check_segment_count(segments)

    total = adiabatic_total_time(space, energy_scale, error_budget)
    h = total / segments
    t_mid = (np.arange(segments) + 0.5) * h
    if kind == "local":  # c(t) inverts the pacing; libm's tan, as numpy's SIMD tan varies by host
        g = space.overlap
        root = math.sqrt(1.0 - g * g)
        theta0 = math.atan(root / g)
        rate = 2.0 * g * root * error_budget * energy_scale / HBAR
        with np.errstate(invalid="ignore"):  # inf rate * 0 = NaN: ControlSchedule refuses it
            theta = np.clip(rate * t_mid - theta0, -theta0, theta0)
        c = 0.5 * (1.0 + (g / root) * np.fromiter(map(math.tan, theta.tolist()), float, segments))
    else:
        c = t_mid / total
    with np.errstate(over="ignore"):  # ControlSchedule refuses an overflowed E/hbar
        omegas = ((1.0 - c) * energy_scale / HBAR, c * energy_scale / HBAR)
    return ControlSchedule(np.column_stack((np.full(segments, h), *omegas)))


def schedule_infidelity(space: SearchSpace, schedule: ControlSchedule) -> float:
    """1 - P_s at the end of a schedule started from |i>."""
    from .core import final_state

    st = final_state(EffectiveState.initial(space), schedule)
    return 1.0 - abs(st.solution_amplitude()) ** 2


def _mirrored_sweep_infidelity(space: SearchSpace, sweep: ControlSchedule,
                               factors: np.ndarray) -> np.ndarray:
    """1 - P_s after ``sweep`` stretched by each factor, from |i>, for a sweep
    of an even number of segments whose second half mirrors its first with
    omega_i and omega_s swapped: only the first half is propagated, and
    <s|U|i> = phi^T R phi as derived in :func:`runtime_to_infidelity`."""
    half = ControlSchedule(np.column_stack(sweep.arrays())[:sweep.durations.size // 2])
    c1, c2 = propagate(EffectiveState.initial(space), half, factors)
    g = space.overlap
    amplitude = g * (c1 * c1 - c2 * c2) + 2.0 * math.sqrt(1.0 - g * g) * (c1 * c2)
    return 1.0 - np.abs(amplitude) ** 2


def runtime_to_infidelity(
    space: SearchSpace,
    energy_scale: float,
    error_budget: float,
    target_infidelity: float,
    scale_range: tuple[float, float] = (0.125, 16.0),
    grid_points: int = 97,
) -> float:
    """Shortest stretched local-schedule runtime whose infidelity stays at
    or below ``target_infidelity`` for every slower runtime as well.

    The final infidelity of an adiabatic sweep oscillates under a decaying
    envelope as the sweep slows, so the scan uses the envelope (a reversed
    running maximum over a log-spaced grid of time-scale factors) to get a
    monotone, well-defined crossing.

    Only the first half of the sweep is propagated, for all grid points in
    one batched :func:`~qlimits.dynamics.core.propagate` call.  The local
    pacing obeys c(T - t) = 1 - c(t), so segment K-1-k is segment k with
    omega_i and omega_s swapped.  That swap is conjugation by the real
    reflection R = [[g, r], [r, -g]] (r = sqrt(1 - g^2)) that exchanges
    |i> and |s>: U_{K-1-k} = R U_k R.  Each U_k = exp(-i H dt) is symmetric,
    as H is real symmetric, so the whole sweep is U = R P^T R P with P the
    first half's product, and <s|U|i> = <i|P^T R P|i> = phi^T R phi for
    phi = (c1, c2) = P|i>: g (c1^2 - c2^2) + 2 r c1 c2.  The scan thus
    evaluates the mirror image of the built first half; the built second
    half differs from it only by the construction's rounding of c, at most
    about 5e-16 * 2^(n/2) * E/hbar in a frequency.  Infidelities agree with
    a full propagation to about 1e-14, and runtimes to about 1e-13 relative
    at ordinary parameters; near a flat envelope (eps 1e-3, a range of
    1e-3 to 1e3) that rounding can move a runtime by up to order 1e-9.
    """
    checked("target infidelity", target_infidelity, 0.0, 1.0, "(]")
    try:
        start, end = scale_range
    except (TypeError, ValueError):
        raise DomainError("scale range must be a (start, end) pair", scale_range) from None
    checked("scale range end", end, checked("scale range start", start))
    checked_int("grid points", grid_points, 1)
    if grid_points > MAX_TRACE_SAMPLES:
        raise CapacityError(f"a scan is limited to {MAX_TRACE_SAMPLES} grid points", grid_points)
    base = adiabatic_schedule(space, energy_scale, error_budget, kind="local")
    factors = np.exp(np.linspace(math.log(start), math.log(end), grid_points))
    infidelity = _mirrored_sweep_infidelity(space, base, factors)
    envelope = np.maximum.accumulate(infidelity[::-1])[::-1]
    below = np.nonzero(envelope <= target_infidelity)[0]
    if len(below) == 0:
        raise DomainError(
            "target infidelity not reached within the scanned range",
            (target_infidelity, float(envelope.min())),
        )
    k = int(below[0])
    t_total = base.total_duration
    if k == 0:
        return float(factors[0]) * t_total
    # log-linear interpolation between the bracketing grid points
    f_lo, f_hi = factors[k - 1], factors[k]
    e_lo, e_hi = envelope[k - 1], envelope[k]  # e_lo > target >= e_hi: k is the first below
    w = (math.log(e_lo) - math.log(target_infidelity)) / (
        math.log(e_lo) - math.log(max(e_hi, 1e-300))
    )
    w = min(max(w, 0.0), 1.0)
    return float(f_lo ** (1.0 - w) * f_hi ** w) * t_total
