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

used for image-size inversion.  All 2^(n/3) factors are carried in log2
space, so image sizes beyond 600 bits are fine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._num import LN2, N_BRACKET, bisect, ceil_tol, exp2, golden_min, log2_add, log2_radical
from .constants import CONSTANTS_VERSION, H, HBAR
from .errors import DomainError, InfeasibleError, checked, in_double_range
from .bounds import landauer_energy

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


def _radicand_log2(n: float, p_success: float, k: float) -> float:
    """log2(2^n P_s / k); the quantum search covers 2^n/k candidates."""
    return n + math.log2(p_success) - math.log2(k)


def _quantum_root(n: float, p_success: float, k: float) -> float:
    """sqrt(2^n P_s / k - 1); DomainError when negative."""
    r_log2 = _radicand_log2(n, p_success, k)
    if r_log2 < 0.0:
        raise DomainError(
            "sample count exceeds 2^n * P_s (negative radicand)", (n, k, p_success)
        )
    return exp2(log2_radical(r_log2))


def _check_plan(n: float, k: float, t_total: float, p_success: float) -> None:
    """n finite, k >= 1, t_T finite and > 0 and P_s in (0, 1]."""
    checked("image size n", n, -math.inf)
    checked("sample count k", k, 1.0, math.inf, "[)")
    checked("total time", t_total)
    checked("success probability", p_success, 0.0, 1.0, "(]")


def bht_work(n: float, k: float, t_total: float, temperature: float, p_success: float) -> float:
    """Work floor for a plan with k classical samples, in joules."""
    _check_plan(n, k, t_total, p_success)
    e_l = landauer_energy(temperature)
    root = _quantum_root(n, p_success, k)
    landauer = k * (n + 1.0) * e_l if e_l > 0.0 else 0.0  # k (n + 1) may overflow
    work = landauer + k * H / (4.0 * t_total) + root * HBAR / t_total
    return in_double_range(work, "solved work", (n, k))


def _log2_over(numerator: float, t: float) -> float:
    """log2(numerator / t), from the quotient while it is a normal double,
    which keeps it to the last bit, and from log2 numerator - log2 t past that."""
    quotient = numerator / t
    if quotient >= sys.float_info.min:
        return math.log2(quotient)
    return math.log2(numerator) - math.log2(t)


def _log2_work_terms(n: float, log2_k: float, t_total: float, e_l: float,
                     p_success: float) -> float:
    """log2 of the three-term work expression, fully in log space."""
    landauer_log2 = math.log2((n + 1.0) * e_l) if e_l > 0.0 else -math.inf
    classical_log2 = log2_add(log2_k + landauer_log2, log2_k + _log2_over(H / 4.0, t_total))
    r_log2 = n + math.log2(p_success) - log2_k
    if r_log2 < 0.0:
        raise DomainError("sample count exceeds 2^n * P_s", (n, log2_k))
    return log2_add(classical_log2, log2_radical(r_log2) + _log2_over(HBAR, t_total))


def _log2_work(work: float, n: float, k: float, t_total: float, e_l: float,
               p_success: float) -> float:
    """log2 of ``work = bht_work(n, k, ...)``, from log space where it underflows to 0."""
    if work > 0.0:
        return math.log2(work)
    return _log2_work_terms(n, math.log2(k), t_total, e_l, p_success)


def _closed_form_log2(n: float, t_total: float, e_l: float, p_success: float) -> tuple[float, float]:
    """(log2 k*, log2 W*) of the budget-only closed forms.

    x = (n+1) E_L 4 t/hbar + 2 pi and 1.25 hbar/t are taken directly while
    they are finite normal doubles, which keeps every such value to the last
    bit, and from their log2 terms past that: 1.25 hbar/t leaves the normal
    range beyond t = 6e273 s, and x overflows near 1e290 s at 300 K.
    """
    x = (n + 1.0) * e_l * 4.0 * t_total / HBAR + 2.0 * math.pi
    if x < math.inf:
        log2_x = math.log2(x)
    else:
        log2_x = log2_add(math.log2((n + 1.0) * e_l * 4.0 / HBAR) + math.log2(t_total),
                          math.log2(2.0 * math.pi))
    log2_scale = _log2_over(1.25 * HBAR, t_total)
    base = (n + math.log2(p_success)) / 3.0
    log2_k = base - (2.0 / 3.0) * log2_x
    log2_w = base + log2_x / 3.0 + log2_scale
    return log2_k, log2_w


def optimal_quantum_time(n: float, k: float, t_total: float, p_success: float) -> float:
    """Time split giving both phases equal speed-limit work.

    t_s = t_T / (k * 2 pi / (4 sqrt(2^n P_s / k - 1)) + 1); the classical
    phase takes the rest.
    """
    _check_plan(n, k, t_total, p_success)
    root = _quantum_root(n, p_success, k)
    if root == 0.0:
        return 0.0
    ratio = k * 2.0 * math.pi / (4.0 * root)
    if not ratio < math.inf:  # k 2 pi or the root overflowed: take the ratio in log2
        ratio = exp2(math.log2(k) + math.log2(2.0 * math.pi / 4.0)
                     - log2_radical(_radicand_log2(n, p_success, k)))
    return t_total / (ratio + 1.0)


def bht_fixed_samples(n: float, k: float, t_total: float, temperature: float,
                      p_success: float = 1.0) -> dict:
    """The plan at a given sample count k: time split and work floor."""
    work = bht_work(n, k, t_total, temperature, p_success)
    return {
        "n": n,
        "k": k,
        "log2_k": math.log2(k),
        "t_s_s": optimal_quantum_time(n, k, t_total, p_success),
        "t_total_s": t_total,
        "work_J": work,
        "log2_work_J": _log2_work(work, n, k, t_total, landauer_energy(temperature), p_success),
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
    checked("temperature", temperature)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    if n + math.log2(p_success) < 0.0:
        raise DomainError(
            "2^n * P_s < 1: no sample count is admissible", (n, p_success)
        )
    e_l = landauer_energy(temperature)
    log2_k_star, log2_w_star = _closed_form_log2(n, t_total, e_l, p_success)

    log2_k_max = n + math.log2(p_success)
    clamped = False
    log2_k = log2_k_star
    if log2_k < 0.0:
        log2_k, clamped = 0.0, True
    elif log2_k > log2_k_max:
        log2_k, clamped = log2_k_max, True

    k_cont = exp2(log2_k)
    if math.isfinite(k_cont) and k_cont < 2**53:
        lo = max(1, math.floor(k_cont))
        hi = max(1, math.ceil(k_cont))
        candidates = []
        for kk in {lo, hi}:
            if kk >= 1.0 and _radicand_log2(n, p_success, kk) >= 0.0:
                candidates.append((bht_work(n, kk, t_total, temperature, p_success), kk))
        work, k_round = min(candidates)
        log2_work = _log2_work(work, n, k_round, t_total, e_l, p_success)
        t_s = optimal_quantum_time(n, k_round, t_total, p_success)
    else:
        k_round = -1  # beyond integer representation; report the continuous plan
        log2_work = _log2_work_terms(n, log2_k, t_total, e_l, p_success)
        work = exp2(log2_work)
        root_log2 = log2_radical(n + math.log2(p_success) - log2_k)
        ratio_log2 = log2_k + math.log2(2.0 * math.pi / 4.0) - root_log2
        t_s = t_total / (exp2(ratio_log2) + 1.0)

    if math.inf in (k_cont, work, exp2(log2_w_star)):
        raise InfeasibleError("the plan's k or work lies past double range", math.inf, n)
    return BhtPlan(
        image_bits=n,
        samples=k_cont,
        samples_rounded=int(k_round),
        quantum_time=t_s,
        total_time=t_total,
        work=work,
        log2_work=log2_work,
        log2_samples=log2_k,
        closed_form_work=exp2(log2_w_star),
        log2_closed_form_work=log2_w_star,
        clamped=clamped,
    )


def bht_work_closed_form(n: float, t_total: float, temperature: float, p_success: float = 1.0) -> float:
    """Budget-only closed form W*(n), in joules (inf when past float range)."""
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
    return ceil_tol(bisect(excess, lo, hi))


def bht_sweep_minimum(
    n: float,
    t_total: float,
    temperature: float,
    p_success: float = 1.0,
    points: int = 10_000,
) -> tuple[float, float]:
    """Brute-force (k_min, W_min) over a log-spaced k grid, refined by
    golden-section search.

    Independent check of the closed-form optimizer; the objective is
    strictly convex in log k, so the search converges inside the two grid
    cells around the grid minimum.
    """
    checked("sweep oracle n", n, -math.inf, 48.0, "(]")
    # the grid starts at k = 1: bht_work there checks every argument
    bht_work(n, 1.0, t_total, temperature, p_success)
    # the top of the grid is the largest k whose libm log2 stays within
    # n + log2 P_s, as bht_work demands; exp2 can round one ulp above it
    top = n + math.log2(p_success)
    k_hi = exp2(top)
    while math.log2(k_hi) > top:
        k_hi = math.nextafter(k_hi, 0.0)
    grid = np.exp(np.linspace(0.0, math.log(k_hi), points))
    grid[-1] = k_hi  # exp(log(k_hi)) can round above it too
    works = _work_grid(n, grid, t_total, temperature, p_success)
    # the array pass may differ from bht_work in the last bits, so bht_work
    # picks the grid minimum from the points within 1e-9 of the array's
    near = np.flatnonzero(~(works > works.min() * (1.0 + 1e-9)))
    j = int(near[np.argmin([bht_work(n, float(grid[i]), t_total, temperature, p_success)
                            for i in near])])
    lo = math.log(grid[max(j - 1, 0)])
    hi = math.log(grid[min(j + 1, points - 1)])

    def k_at(u: float) -> float:  # exp may round past either end of the grid
        return min(max(math.exp(u), 1.0), k_hi)

    def f(u: float) -> float:
        return bht_work(n, k_at(u), t_total, temperature, p_success)

    k_best = k_at(golden_min(f, lo, hi))
    return k_best, bht_work(n, k_best, t_total, temperature, p_success)


def _work_grid(n: float, ks: np.ndarray, t_total: float, temperature: float,
               p_success: float) -> np.ndarray:
    """The three-term W(k) of ``bht_work`` at every sample count in ``ks``.

    The arguments other than k must already have passed bht_work's
    checks.  log2 k comes from libm, as in bht_work, so the counts bht_work
    rejects are found exactly and the first of them raises its DomainError.
    The radical sqrt(2^r - 1) is taken directly: n <= 48 keeps 2^r finite.
    """
    r_log2 = n + math.log2(p_success) - np.fromiter(map(math.log2, ks.tolist()), float, ks.size)
    bad = ~(ks >= 1.0) | (r_log2 < 0.0)
    if bad.any():
        bht_work(n, float(ks[np.argmax(bad)]), t_total, temperature, p_success)
    roots = np.sqrt(np.expm1(r_log2 * LN2))
    e_l = landauer_energy(temperature)
    return ks * (n + 1.0) * e_l + ks * H / (4.0 * t_total) + roots * HBAR / t_total
