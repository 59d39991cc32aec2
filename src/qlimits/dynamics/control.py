"""Overlap-product analytics: rates, windowed averages, detuning policy.

The central object is the overlap product A = <psi|s><i|psi>.  Its phase
alpha_ab drives the information gain,

    dP_s/dt = 2 (omega + delta) g Im(A),        g = 2^(-n/2),

and A itself obeys the exact linear equation (from the Schrodinger
equation in the two-level subspace)

    dA/dt = -i delta (2A - g (P_i + P_s)) + i g omega (P_i - P_s),

so a constant detuning rotates A about its fixed point at angular rate
2*delta.  The windowed average of A under frozen populations follows in
closed form and quantifies how quickly detuning destroys the useful
imaginary part of A.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .._num import sinc
from ..errors import DomainError, checked, checked_int, in_double_range
from .core import (
    ControlSchedule,
    EffectiveState,
    Observables,
    SearchSpace,
    evolve,
    final_state,
)
from .schedules import _check_segment_count

# Half width at half maximum of a boxcar moving average, in units of 1/window.
HWHM_FACTOR = 3.79

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def analytic_rates(
    obs: Observables, omega_i: float, omega_s: float, space: SearchSpace
) -> tuple[float, complex]:
    """Closed-form (dP_s/dt, dA/dt) at the given observables.

    Both follow from the Schrodinger equation and are exact (no windowing
    or frozen-population approximation), so they match finite differences
    of the simulator to second order in the step.
    """
    checked("frequencies", omega_i, ends="[)")
    checked("frequencies", omega_s, ends="[)")
    g = space.overlap
    omega = 0.5 * (omega_i + omega_s)
    delta = 0.5 * (omega_i - omega_s)
    dps_dt = 2.0 * (omega + delta) * g * obs.a.imag
    da_dt = -1j * delta * (2.0 * obs.a - g * (obs.p_i + obs.p_s)) + 1j * g * omega * (
        obs.p_i - obs.p_s
    )
    return dps_dt, da_dt


def _decay_factor(x: float) -> complex:
    """exp(-ix) * sinc(x); equals 1 at x = 0 and vanishes at x = pi, 2*pi."""
    return cmath.exp(-1j * x) * sinc(x)


def _one_minus_decay_over_x(x: float) -> complex:
    """(1 - exp(-ix) sinc(x)) / x with its removable singularity filled in."""
    if abs(x) < 1e-4:
        return 1j + (2.0 / 3.0) * x - 1j * x * x / 3.0
    return (1.0 - _decay_factor(x)) / x


def averaged_overlap(
    a0: complex,
    delta_omega: float,
    omega: float,
    mean_population_diff: float,
    window: float,
    space: SearchSpace,
) -> complex:
    """Window average of A under frozen populations.

    Solving dA/dt with P_i + P_s frozen at 1 and P_i - P_s frozen at
    ``mean_population_diff`` gives A(t) = A_fix + (A0 - A_fix) e^(-2i delta t)
    with A_fix = (g/2)(1 + omega*(P_i-P_s)/delta); averaging over the window
    yields

        <A> = A0 F(x) + (g/2) [ (1 - F(x)) + omega*(P_i-P_s)*window*G(x) ]

    with x = delta*window, F(x) = e^(-ix) sinc(x) and G(x) = (1-F(x))/x.
    The removable singularity at x = 0 is handled by series expansion.
    """
    checked("delta_omega", delta_omega, -math.inf)
    checked("omega", omega, ends="[)")
    checked("P_i - P_s", mean_population_diff, -1.0, 1.0, "[]")
    checked("window", window)
    g = space.overlap
    x = delta_omega * window
    drive = omega * mean_population_diff * window
    in_double_range(max(abs(x), abs(drive)), "detuning or drive over the window", window)
    f = _decay_factor(x)
    gx = _one_minus_decay_over_x(x)
    return a0 * f + 0.5 * g * ((1.0 - f) + drive * gx)


def control_bandwidth(
    schedule: ControlSchedule | None, total_time: float, window: float
) -> float:
    """Bandwidth a control window demands beyond the whole-run cutoff.

    max(3.79/window - 3.79/total_time, 0): the HWHM of a boxcar average of
    width ``window``, less the cutoff for features as slow as the full run.
    A single-segment (time-independent) schedule has zero requirement.
    """
    checked("window", window, 0.0, checked("total time", total_time), "(]")
    if schedule is not None and schedule.durations.size == 1:
        return 0.0
    demand = in_double_range(HWHM_FACTOR / window, "bandwidth", window)
    return max(demand - HWHM_FACTOR / total_time, 0.0)


def optimal_detuning(
    a0: complex,
    c_window: float,
    mean_population_diff: float,
    p_i: float,
    p_s: float,
    space: SearchSpace,
    regime: str,
) -> float:
    """Estimated optimal detuning, returned as delta*window/2 (dimensionless).

    ``c_window`` is C = omega*window/2.  At the boundary of the run (state
    near |i> or |s>, A real) the estimate is 3/C; in the bulk it is

        3/C - Re(A0 - g) / (sqrt(P_i P_s) + C*(P_i - P_s)*g),

    clamped to at most 4/C.  These are second-order window expansions, not
    exact optimizers; see the characterization tests for how they compare
    with a brute-force sweep.
    """
    checked("window constant C", c_window, 10.0, 2.0 ** (space.n / 2.0) / 10.0, "[]")
    if regime == "boundary":
        return 3.0 / c_window
    if regime != "bulk":
        raise DomainError("regime must be 'boundary' or 'bulk'", regime)
    g = space.overlap
    checked("P_i", p_i, 4.0 * c_window * c_window / space.dimension, 1.0, "[]")
    checked("P_s", p_s, 0.0, 1.0, "[]")
    checked("P_i - P_s", mean_population_diff, -1.0, 1.0, "[]")
    denom = math.sqrt(p_i * p_s) + c_window * mean_population_diff * g
    value = 3.0 / c_window - (a0.real - g) / denom
    return min(value, 4.0 / c_window)


def modulated_detuning_suppression(r: float) -> float:
    """Overlap retention 1 - r^2/4 for a detuning modulated at ratio r.

    ``r`` is |delta_0 / omega_c| for delta(t) = delta_0 sin(omega_c t).
    This is the leading-order estimate; the companion experiment
    :func:`measure_modulated_suppression` provides the simulated value.
    """
    checked("modulation ratio", r, 0.0, 0.5, "[]")
    return 1.0 - r * r / 4.0


def equator_state(space: SearchSpace, omega: float = 1.0) -> EffectiveState:
    """Mid-run ballistic state with P_i = P_s and A almost purely imaginary."""
    rate = checked("omega", omega) * space.overlap
    t_eq = in_double_range((math.pi / 4.0) / rate if rate > 0.0 else math.inf, "equator time",
                           omega)
    sched = ControlSchedule(((t_eq, omega, omega),))
    return final_state(EffectiveState.initial(space), sched)


def measure_modulated_suppression(
    space: SearchSpace,
    r: float,
    omega: float = 1.0,
    cycles: int = 1,
    segments_per_cycle: int = 64,
    omega_c: float | None = None,
) -> complex:
    """Simulated window average <A>/A0 under a modulated detuning.

    Starting from the equator state, the schedule applies
    delta(t) = r*omega_c*sin(omega_c t) discretized into
    ``segments_per_cycle`` constant segments per modulation period, over an
    integer number of periods; the trace average of A is compared with its
    initial value.
    """
    checked("omega", omega)
    checked_int("cycles", cycles, 1)
    checked_int("segments per period", segments_per_cycle, 64)
    count = cycles * segments_per_cycle
    _check_segment_count(count)
    if omega_c is None:
        omega_c = 5.0 * omega
    delta0 = checked("r", r, -math.inf) * checked("omega_c", omega_c)
    # a larger amplitude would drive a frequency negative
    checked("modulation amplitude r*omega_c", delta0, -omega, omega, "[]")
    state = equator_state(space, omega)
    period = 2.0 * math.pi / omega_c
    tau = period / segments_per_cycle
    t_mid = (np.arange(count) + 0.5) * tau
    delta = delta0 * np.fromiter(map(math.sin, (omega_c * t_mid).tolist()), float, count)
    schedule = ControlSchedule(np.column_stack((np.full(count, tau), omega + delta,
                                                omega - delta)))
    trace = evolve(state, schedule, tau / 4.0)
    t = trace.t
    a = trace.a()
    mean_a = complex(_trapezoid(a, t) / (t[-1] - t[0]))
    return mean_a / a[0]
