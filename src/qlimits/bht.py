"""Thermodynamic limits of hybrid collision search.

The hybrid attack on an n-bit-image function samples k inputs classically,
stores them, then amplitude-searches the remaining domain.  Charging one
Landauer reset per stored (input, output) bit, the Margolus-Levitin energy
for the classical sampling clock, and the quantum work-time bound for the
search phase -- with the sampling work reusable by the quantum phase --
gives, after optimizing the time split,

    W(k) = k (n+1) E_L + k h/(4 t_T) + sqrt(2^n P_s / k - 1) hbar / t_T

over the total wall-clock time t_T.  The closed-form sample count

    k* = 2^(n/3) P_s^(1/3) / ((n+1) E_L 4 t_T / hbar + 2 pi)^(2/3)

balances the linear and k^(-1/2) terms; plans clamp it to [1, 2^n P_s]
(at room temperature and tractable n it sits below 1, meaning a single
sample plus pure quantum search is already optimal).  Plugging k* back in
gives the budget-only form

    W* = 2^(n/3) P_s^(1/3) ((n+1) E_L 4 t_T / hbar + 2 pi)^(1/3) (5/4) hbar / t_T,

used for image-size inversion.  W(k), the time split and both closed
forms are evaluated in log2 space from one expression each, so image
sizes beyond 600 bits and roots past double range are fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._num import LN2, N_BRACKET, ceil_tol, exp2, golden_min, log2_add, log2_radical, newton
from .constants import CONSTANTS_VERSION, H, HBAR
from .errors import (CapacityError, DomainError, InfeasibleError, checked, checked_int,
                     in_positive_double_range)
from .bounds import landauer_energy
from .dynamics.core import MAX_TRACE_SAMPLES

BHT_TAG = "bht-collision-v1"

# Externally tabulated image-size targets for the three named scenarios,
# kept for cross-checking only; the solver output is authoritative and a
# known systematic offset against these is reported by the test suite.
REFERENCE_IMAGE_BITS = {"datacenter": 415, "dyson": 788, "cosmic": 1077}


@dataclass(frozen=True)
class BhtPlan:
    """A resolved collision-search plan."""

    image_bits: float         # the n the plan was computed at
    samples: float            # continuous optimizer (clamped)
    samples_rounded: int
    quantum_time: float       # s
    total_time: float         # s
    work: float               # J
    log2_work: float
    log2_samples: float
    closed_form_work: float   # J, budget-only closed form
    log2_closed_form_work: float
    clamped: bool

    def as_dict(self) -> dict:
        return {
            "n": self.image_bits,
            "k": self.samples,
            "k_rounded": self.samples_rounded,
            "log2_k": self.log2_samples,
            "t_s_s": self.quantum_time,
            "t_total_s": self.total_time,
            "work_J": self.work,
            "log2_work_J": self.log2_work,
            "closed_form_work_J": self.closed_form_work,
            "log2_closed_form_work_J": self.log2_closed_form_work,
            "clamped": self.clamped,
            "formula_tag": BHT_TAG,
            "constants_version": CONSTANTS_VERSION,
        }


_LOG2_H_4 = math.log2(H / 4.0)
_LOG2_HBAR = math.log2(HBAR)
_LOG2_HALF_PI = math.log2(math.pi / 2.0)
_LOG2_4_HBAR = math.log2(4.0 / HBAR)
_LOG2_2PI = math.log2(2.0 * math.pi)
_LOG2_5HBAR_4 = math.log2(1.25 * HBAR)


def _check_plan(n: float, k: float, t_total: float, p_success: float) -> float:
    """log2 k, once n is finite, 1 <= k <= 2^n P_s, t_T is finite and > 0
    and P_s lies in (0, 1]."""
    checked("image size n", n, -math.inf)
    checked("sample count k", k, 1.0, math.inf, "[)")
    checked("total time", t_total)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    log2_k = math.log2(k)
    if n + math.log2(p_success) < log2_k:
        raise DomainError(
            "sample count exceeds 2^n * P_s (negative radicand)", (n, k, p_success)
        )
    return log2_k


def _log2_costs(n: float, t_total: float, e_l: float) -> tuple[float, float]:
    """log2 of the cost per sample, (n+1) E_L + h/(4 t_T), and of the
    quantum scale hbar/t_T."""
    log2_t = math.log2(t_total)
    landauer = math.log2(n + 1.0) + math.log2(e_l) if e_l > 0.0 else -math.inf
    return log2_add(landauer, _LOG2_H_4 - log2_t), _LOG2_HBAR - log2_t


def _log2_work(n: float, log2_k: float, t_total: float, e_l: float, p_success: float) -> float:
    """log2 W(k), every term in log2 space; 0 <= log2 k <= n + log2 P_s."""
    per_sample, quantum = _log2_costs(n, t_total, e_l)
    root = log2_radical(n + math.log2(p_success) - log2_k)
    return log2_add(log2_k + per_sample, root + quantum)


def _quantum_time(n: float, log2_k: float, t_total: float, p_success: float) -> float:
    """t_s = t_T / (k 2 pi / (4 sqrt(2^n P_s / k - 1)) + 1); 0 when k = 2^n P_s."""
    root = log2_radical(n + math.log2(p_success) - log2_k)
    return t_total / (exp2(log2_k + _LOG2_HALF_PI - root) + 1.0)


def bht_work(n: float, k: float, t_total: float, temperature: float, p_success: float) -> float:
    """Work floor for a plan with k classical samples, in joules."""
    log2_k = _check_plan(n, k, t_total, p_success)
    log2_w = _log2_work(n, log2_k, t_total, landauer_energy(temperature), p_success)
    return in_positive_double_range(exp2(log2_w), "solved work", (n, k))


def _closed_form_log2(n: float, t_total: float, e_l: float, p_success: float) -> tuple[float, float]:
    """(log2 k*, log2 W*) of the budget-only closed forms.

    x = (n+1) a + 2 pi, a = 4 E_L t/hbar, is taken directly while it is
    finite and from its log2 terms past that (near 1e290 s at 300 K, or
    1e293 K at 1 s).
    """
    x = (n + 1.0) * e_l * 4.0 * t_total / HBAR + 2.0 * math.pi
    if x < math.inf:
        log2_x = math.log2(x)
    else:
        log2_x = log2_add(math.log2(n + 1.0) + math.log2(e_l) + _LOG2_4_HBAR
                          + math.log2(t_total), _LOG2_2PI)
    base = (n + math.log2(p_success)) / 3.0
    log2_k = base - (2.0 / 3.0) * log2_x
    log2_w = base + log2_x / 3.0 + _LOG2_5HBAR_4 - math.log2(t_total)
    return log2_k, log2_w


def optimal_quantum_time(n: float, k: float, t_total: float, p_success: float) -> float:
    """Time split giving both phases equal speed-limit work.

    t_s = t_T / (k * 2 pi / (4 sqrt(2^n P_s / k - 1)) + 1); the classical
    phase takes the rest.
    """
    return _quantum_time(n, _check_plan(n, k, t_total, p_success), t_total, p_success)


def bht_fixed_samples(n: float, k: float, t_total: float, temperature: float,
                      p_success: float = 1.0) -> dict:
    """The plan at a given sample count k: time split and work floor."""
    log2_k = _check_plan(n, k, t_total, p_success)
    log2_w = _log2_work(n, log2_k, t_total, landauer_energy(temperature), p_success)
    return {
        "n": n,
        "k": k,
        "log2_k": log2_k,
        "t_s_s": _quantum_time(n, log2_k, t_total, p_success),
        "t_total_s": t_total,
        "work_J": in_positive_double_range(exp2(log2_w), "solved work", (n, k)),
        "log2_work_J": log2_w,
        "constants_version": CONSTANTS_VERSION,
    }


def bht_optimal(n: float, t_total: float, temperature: float, p_success: float = 1.0) -> BhtPlan:
    """The optimal plan: sample count, time split, and work floor.

    The continuous optimizer is clamped to [1, 2^n P_s]; the reported work
    is the exact three-term expression at the rounded sample count, while
    the budget-only closed form is carried alongside for inversion.  A
    sample count or work past double range raises :class:`InfeasibleError`.
    """
    checked("image size n", n, -math.inf)
    checked("total time", t_total)
    e_l = landauer_energy(temperature)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    log2_k_max = n + math.log2(p_success)
    if log2_k_max < 0.0:
        raise DomainError(
            "2^n * P_s < 1: no sample count is admissible", (n, p_success)
        )
    log2_k_star, log2_w_star = _closed_form_log2(n, t_total, e_l, p_success)
    log2_k = min(max(log2_k_star, 0.0), log2_k_max)
    k_cont = exp2(log2_k)
    if k_cont < 2**53:
        # the better of the two integer counts around k that stay admissible
        log2_work, k_round = min(
            (_log2_work(n, math.log2(kk), t_total, e_l, p_success), kk)
            for kk in {max(1, math.floor(k_cont)), max(1, math.ceil(k_cont))}
            if math.log2(kk) <= log2_k_max
        )
        log2_k_split = math.log2(k_round)
    else:
        k_round = -1  # beyond integer representation; report the continuous plan
        log2_work = _log2_work(n, log2_k, t_total, e_l, p_success)
        log2_k_split = log2_k
    work = exp2(log2_work)
    if math.inf in (k_cont, work, exp2(log2_w_star)):
        raise InfeasibleError("the plan's k or work lies past double range", math.inf, n)
    in_positive_double_range(work, "solved work", n)
    return BhtPlan(
        image_bits=n,
        samples=k_cont,
        samples_rounded=k_round,
        quantum_time=_quantum_time(n, log2_k_split, t_total, p_success),
        total_time=t_total,
        work=work,
        log2_work=log2_work,
        log2_samples=log2_k,
        closed_form_work=exp2(log2_w_star),
        log2_closed_form_work=log2_w_star,
        clamped=log2_k != log2_k_star,
    )


def bht_work_closed_form(n: float, t_total: float, temperature: float, p_success: float = 1.0) -> float:
    """Budget-only closed form W*(n), in joules: inf past double range, 0.0
    where it lies below the least double."""
    checked("image size n", n, ends="[)")
    checked("total time", t_total)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    _, log2_w = _closed_form_log2(n, t_total, landauer_energy(temperature), p_success)
    return exp2(log2_w)


def bht_min_image_bits(
    work_budget: float, t_total: float, temperature: float, p_success: float = 1.0
) -> int:
    """Smallest integer image size whose closed-form work floor exceeds the budget."""
    checked("work budget", work_budget)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    checked("total time", t_total)
    e_l = landauer_energy(temperature)
    target = math.log2(work_budget)

    def excess(n: float) -> float:
        _, log2_w = _closed_form_log2(n, t_total, e_l, p_success)
        return log2_w - target

    lo, hi = N_BRACKET
    if excess(lo) > 0.0:
        return 1
    if excess(hi) <= 0.0:
        raise DomainError("budget exceeds the bound at the n = 4096 bracket", work_budget)
    return ceil_tol(_image_bits_root(target, t_total, e_l, p_success))


def _image_bits_root(target: float, t_total: float, e_l: float, p_success: float) -> float:
    """The real n with log2 W*(n) = target: n + log2((n+1) a + 2 pi) = y.

    The left side is concave with slope in [1, 1 + 1/((n+1) ln 2)], so
    Newton steps from below the root stay below it.  As n < y, they start
    at y - log2((y+1) a + 2 pi).
    """
    log2_a = math.log2(e_l) + _LOG2_4_HBAR + math.log2(t_total) if e_l > 0.0 else -math.inf
    y = 3.0 * (target + math.log2(t_total) - _LOG2_5HBAR_4) - math.log2(p_success)

    def g(n: float) -> tuple[float, float]:
        reset = math.log2(n + 1.0) + log2_a
        log2_x = log2_add(reset, _LOG2_2PI)
        return n + log2_x - y, 1.0 + exp2(reset - log2_x) / ((n + 1.0) * LN2)

    return newton(g, max(N_BRACKET[0], y - g(y)[0]))


def bht_sweep_minimum(
    n: float,
    t_total: float,
    temperature: float,
    p_success: float = 1.0,
    points: int = 10_000,
) -> tuple[float, float]:
    """Brute-force (k_min, W_min) over a grid of ``points`` >= 2 values
    even in log2 k on [0, n + log2 P_s], refined by golden-section search.

    Independent check of the closed-form optimizer.  The grid only locates
    the cell of the minimum; the search then runs on the cells either side
    of it, and the better of its result and the two bracket ends is kept.
    W_min is ``bht_work`` at k_min, bit for bit.
    """
    checked("sweep oracle n", n, -math.inf, 48.0, "(]")
    checked_int("sweep points", points, 2)
    if points > MAX_TRACE_SAMPLES:
        raise CapacityError(f"a sweep is limited to {MAX_TRACE_SAMPLES} points", points)
    _check_plan(n, 1.0, t_total, p_success)  # the grid starts at k = 1
    e_l = landauer_energy(temperature)
    top = n + math.log2(p_success)
    log2_ks = np.linspace(0.0, top, points)
    per_sample, quantum = _log2_costs(n, t_total, e_l)
    r = top - log2_ks
    with np.errstate(divide="ignore"):  # log2 0 at the top, where the root vanishes
        roots = 0.5 * (r + np.log2(-np.expm1(-r * LN2)))
    j = int(np.argmin(np.logaddexp2(log2_ks + per_sample, roots + quantum)))
    lo, hi = float(log2_ks[max(j - 1, 0)]), float(log2_ks[min(j + 1, points - 1)])

    def f(u: float) -> float:
        return _log2_work(n, u, t_total, e_l, p_success)

    k_min = exp2(min((golden_min(f, lo, hi), lo, hi), key=f))
    while math.log2(k_min) > top:  # exp2 can round one ulp past 2^n P_s
        k_min = math.nextafter(k_min, 0.0)
    return k_min, in_positive_double_range(exp2(f(math.log2(k_min))), "solved work", (n, k_min))
