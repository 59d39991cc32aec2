"""Closed-form work/time/probability bounds for exhaustive search.

Classical (irreversible) search:

    E_c >= 2^n P_s (k_B T ln2 + h/(4t)) + 2n k_B T ln2

The per-guess cost combines one Landauer reset with the Margolus-Levitin
energy for stepping through 2^n P_s orthogonal states at constant speed;
the 2n E_L term initializes the guess and test registers.  The
Margolus-Levitin share could in principle be recovered afterwards but must
be supplied up front, so it counts toward the budget unconditionally.

Quantum (reversible, work-limited) search:

    W t >= sqrt(2^n P_s - 1) hbar

For P_s <= 2^-n the radicand is non-positive and the bound is vacuous
(the initial superposition already succeeds that often); results then
carry W = 0 and an offset-regime flag.

Gate-clocked search adds the control-signal bandwidth of a periodically
driven oracle/diffusion pair and an optional error-correction Landauer
charge:

    W_G t >= (2n + K) E_L t + hbar (sqrt(P_s 2^n) - 1)(pi - 2^(1-n/2))

Ballistic search saturates the quantum bound up to O(2^-n/2):

    P_s(t) = 1/2^n + (1 - 1/2^n) sin^2(W t / ((sqrt(2^n)+1) hbar))

All solvers invert these forms for whichever field is unknown.  Each form
is exp2 of one log2 expression, so a result is finite wherever its true
value is a finite double, n up to a few thousand bits included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._num import LN2, N_BRACKET, exp2, log2_add, log2_radical, newton
from .constants import CONSTANTS_VERSION, H, HBAR, K_B
from .errors import (DomainError, InfeasibleError, checked, checked_int, in_double_range,
                     in_positive_double_range)

CLASSICAL_TAG = "classical-exhaustive-v1"
QUANTUM_TAG = "quantum-work-time-v1(vacuous-below-Ps=2^-n)"
GATE_TAG = "gate-clocked-v1"
BALLISTIC_TAG = "ballistic-rotation-v1"
_QUANTUM_OFFSET_TAG = QUANTUM_TAG + "+offset-vacuous"

# A solved probability this close above 1 is rounding and snaps to 1.
_PSUCCESS_SNAP = 1e-9

_UNITS = {"work": "J", "time": "s", "psuccess": "probability", "n": "bits"}
# the BoundQuery field that holds each solvable quantity
_FIELDS = {"work": "work", "time": "time", "psuccess": "success_probability", "n": "n"}


@dataclass(frozen=True, init=False)
class BoundQuery:
    """A (W, t, T, P_s, n) tuple with exactly one unknown.

    ``power`` may replace ``work``; the budget is then power * time, and
    solving for time accounts for the budget growing with t.  The
    constructor checks every given field in one pass, and so does
    ``dataclasses.replace``; the solvers read them without checking again.
    """

    unknown: str
    n: float | None = None
    work: float | None = None
    time: float | None = None
    temperature: float | None = None
    success_probability: float | None = None
    power: float | None = None

    def __init__(self, unknown, n=None, work=None, time=None, temperature=None,
                 success_probability=None, power=None):
        # one dict update in place of a frozen __setattr__ per field
        self.__dict__.update(unknown=unknown, n=n, work=work, time=time,
                             temperature=temperature,
                             success_probability=success_probability, power=power)
        try:
            given = self.__dict__[_FIELDS[unknown]]
        except (KeyError, TypeError):  # not a name, or unhashable
            raise DomainError(f"unknown must be one of {sorted(_UNITS)}", unknown) from None
        if given is not None:
            raise DomainError(f"field {unknown!r} is the unknown and must be omitted", given)
        if work is not None and power is not None:
            raise DomainError("give either work or power, not both", self)
        if n is not None:
            checked("n", n)
        if work is not None:
            checked("work", work)
        if time is not None:
            checked("time", time)
        if power is not None:
            checked("power", power)
            if time is not None:
                checked("power * time", power * time)
        if temperature is not None:
            checked("temperature", temperature, ends="[)")
        if success_probability is not None:
            checked("success probability", success_probability, 0.0, 1.0, "(]")

    def budget(self) -> float:
        """The work budget, resolving the power form if used."""
        if self.work is not None:
            return self.work
        if self.power is not None and self.time is not None:
            return self.power * self.time
        raise DomainError("work (or power with time) is required", self)

    def as_dict(self) -> dict:
        out = {"unknown": self.unknown}
        for key, value in (
            ("n", self.n),
            ("work_J", self.work),
            ("time_s", self.time),
            ("temperature_K", self.temperature),
            ("p_success", self.success_probability),
            ("power_W", self.power),
        ):
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True, init=False)
class BoundResult:
    value: float
    bound_kind: str
    formula_tag: str
    inputs: BoundQuery
    unit: str
    offset_regime: bool = False

    def __init__(self, value, bound_kind, formula_tag, inputs, unit, offset_regime=False):
        self.__dict__.update(value=value, bound_kind=bound_kind, formula_tag=formula_tag,
                             inputs=inputs, unit=unit, offset_regime=offset_regime)

    def as_dict(self) -> dict:
        return {
            "bound_kind": self.bound_kind,
            "formula_tag": self.formula_tag,
            "inputs": self.inputs.as_dict(),
            "value": self.value,
            "unit": self.unit,
            "offset_regime": self.offset_regime,
            "constants_version": CONSTANTS_VERSION,
        }


def landauer_energy(temperature: float) -> float:
    """k_B T ln2, the minimum work per irreversible bit reset."""
    return _landauer(checked("temperature", temperature, ends="[)"))


def _landauer(temperature: float) -> float:
    """landauer_energy of a temperature already checked."""
    return K_B * temperature * LN2


def margolus_levitin_energy(orthogonalization_time: float) -> float:
    """h/(4 dt), the minimum mean energy to reach an orthogonal state."""
    return H / (4.0 * checked("orthogonalization time", orthogonalization_time))


def _classical_terms_log2(n: float, p_success: float, e_l: float) -> tuple[float, float]:
    """(log2 A, log2 B) of the classical requirement written as A + B/t.

    A = (2^n P_s + 2n) E_L is the Landauer part, B = 2^n P_s h/4 the
    Margolus-Levitin part.
    """
    guesses = n + math.log2(p_success)
    # a zero E_L clears A also where 2n overflows
    log2_a = log2_add(guesses, math.log2(2.0 * n)) + math.log2(e_l) if e_l > 0.0 else -math.inf
    return log2_a, guesses + math.log2(H / 4.0)


def _log2_per_guess(time: float, e_l: float) -> float:
    """log2(E_L + h/4t), the classical cost per guess; h/4t underflows for huge t."""
    return log2_add(math.log2(e_l) if e_l > 0.0 else -math.inf,
                    math.log2(H / 4.0) - math.log2(time))


def _classical_requirement_log2(n: float, time: float, e_l: float, p_success: float) -> float:
    """log2 of the classical work requirement; -inf when it vanishes."""
    log2_a, log2_b = _classical_terms_log2(n, p_success, e_l)
    return log2_add(log2_a, log2_b - math.log2(time))


def classical_work_requirement(
    n: float, time: float, temperature: float, p_success: float
) -> float:
    """E_c = 2^n P_s (E_L + h/4t) + 2n E_L in joules (inf past double range,
    0.0 below the least double)."""
    checked("n", n)
    checked("time", time)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    return exp2(_classical_requirement_log2(n, time, landauer_energy(temperature), p_success))


def classical_bound(query: BoundQuery) -> BoundResult:
    """Solve the classical search bound for the query's unknown, reading the
    fields the query's constructor checked through the unchecked log2 cores."""
    if query.temperature is None:
        raise DomainError("classical bound requires a temperature", query)
    e_l = _landauer(query.temperature)
    unknown = query.unknown

    if unknown == "work":
        _require(query, "n", "time", "psuccess")
        value = in_positive_double_range(exp2(_classical_requirement_log2(
            query.n, query.time, e_l, query.success_probability)), "solved work", query)

    elif unknown == "psuccess":
        _require(query, "n", "time", "work")
        budget = query.budget()
        floor = 2.0 * query.n * e_l if e_l > 0.0 else 0.0  # 2n may overflow
        if budget <= floor:
            raise InfeasibleError(
                "budget does not clear the 2n*E_L initialization floor",
                floor,
                query,
            )
        # (W - floor) / (2^n (E_L + h/4t))
        p = exp2(math.log2(budget - floor) - query.n - _log2_per_guess(query.time, e_l))
        value = _probability(p, query)

    elif unknown == "time":
        _require(query, "n", "psuccess", "work")
        if query.power is not None:
            value = _classical_time_from_power(query, e_l)
        else:
            log2_a, log2_b = _classical_terms_log2(query.n, query.success_probability, e_l)
            floor = exp2(log2_a)
            if query.work <= floor:
                raise InfeasibleError(
                    "budget does not clear the Landauer floor; no runtime helps",
                    floor,
                    query,
                )
            time = exp2(log2_b - math.log2(query.work - floor))  # B / (W - A)
            value = in_positive_double_range(time, "solved time", query)

    else:
        value = _classical_n(query, e_l)
    return BoundResult(value, "classical", CLASSICAL_TAG, query, _UNITS[unknown])


def _classical_n(query: BoundQuery, e_l: float) -> float:
    """The real n at which the classical requirement meets the budget.

    The n = 1 end decides feasibility, then 2^n c + b n = W, with
    c = P_s (E_L + h/4t) and b = 2 E_L, is inverted directly.
    """
    _require(query, "time", "psuccess", "work")
    time, p = query.time, query.success_probability
    budget = query.budget()
    budget_log2 = math.log2(budget)
    # Only the n = 1 end can refuse: at n = 4096 the requirement is at least 2^1885.8 J
    # (P_s = 5e-324, t the largest double, T = 0), and every budget lies below 2^1024.
    log2_floor = _classical_requirement_log2(N_BRACKET[0], time, e_l, p)
    if log2_floor >= budget_log2:
        raise InfeasibleError("budget is below the requirement already at n = 1",
                              exp2(log2_floor), query)
    log2_e_l = math.log2(e_l) if e_l > 0.0 else -math.inf
    log2_c = math.log2(p) + _log2_per_guess(time, e_l)
    if budget_log2 - 1.0 - log2_e_l >= 60.0:  # or E_L = 0: b n moves n by < 2^-48 relative
        return budget_log2 - log2_c
    # u = W/b - n and v = log2 u give v + 2^v = y, y = log2(c/b) + W/b, a
    # Lambert W form (Corless et al. 1996).  Newton steps on the convex,
    # increasing v + 2^v - y near v from above when started at log2 y
    # (y > 2) or y; n = v + log2(b/c) avoids the cancellation of W/b - u.
    log2_b_c = 1.0 + log2_e_l - log2_c
    y = budget / (2.0 * e_l) - log2_b_c

    def g(v: float) -> tuple[float, float]:
        u = exp2(v)
        return v + u - y, 1.0 + u * LN2

    return newton(g, math.log2(y) if y > 2.0 else y) + log2_b_c


def _classical_time_from_power(query: BoundQuery, e_l: float) -> float:
    """Solve P t = A + B/t for t: t = (A + sqrt(A^2 + 4 P B)) / (2 P), in log2."""
    log2_a, log2_b = _classical_terms_log2(query.n, query.success_probability, e_l)
    if log2_a == math.inf:  # 2n overflows: A, and t >= A/P with it, lie past double range
        return in_positive_double_range(math.inf, "solved time", query)
    log2_power = math.log2(query.power)
    log2_root = 0.5 * log2_add(2.0 * log2_a, 2.0 + log2_power + log2_b)
    time = exp2(log2_add(log2_a, log2_root) - 1.0 - log2_power)
    return in_positive_double_range(time, "solved time", query)


def quantum_work_requirement(n: float, time: float, p_success: float) -> tuple[float, bool]:
    """(W, offset_flag): W = sqrt(2^n P_s - 1) hbar / t, (0.0, True) if vacuous;
    inf past double range and 0.0 below the least double, flag False."""
    checked("n", n, -math.inf)
    checked("time", time)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    log2_action = _quantum_log2_action(n, p_success)
    if log2_action is None:
        return 0.0, True
    return exp2(log2_action - math.log2(time)), False


def _quantum_log2_action(n: float, p_success: float) -> float | None:
    """log2(W t) = log2(sqrt(2^n P_s - 1) hbar), or None where vacuous (P_s <= 2^-n)."""
    log2_np = n + math.log2(p_success)
    return log2_radical(log2_np) + math.log2(HBAR) if log2_np > 0.0 else None


def quantum_log2_ratio(work: float, time: float, p_success: float) -> float:
    """log2(((W t / hbar)^2 + 1) / P_s), the real n at which W and t meet the
    quantum bound.  W t is kept as log2 W + log2 t, so it never overflows."""
    checked("work", work)
    checked("time", time)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    return _quantum_log2_ratio(work, time, p_success)


def _quantum_log2_ratio(work: float, time: float, p_success: float) -> float:
    log2_x = math.log2(work) + math.log2(time) - math.log2(HBAR)
    return log2_add(2.0 * log2_x, 0.0) - math.log2(p_success)


def quantum_bound(query: BoundQuery) -> BoundResult:
    """Solve the quantum work-time bound for the query's unknown, reading the
    fields the query's constructor checked through the unchecked log2 cores."""
    unknown = query.unknown
    offset = False  # set where the bound is vacuous and W = 0 or t = 0 is exact

    if unknown in ("work", "time"):  # W t = sqrt(2^n P_s - 1) hbar
        _require(query, "n", *(["time"] if unknown == "work" else []), "psuccess")
        log2_action = _quantum_log2_action(query.n, query.success_probability)
        if log2_action is None:
            value, offset = 0.0, True
        elif unknown == "work":
            work = exp2(log2_action - math.log2(query.time))
            value = in_positive_double_range(work, "solved work", query)
        else:
            _require(query, "work")
            if query.power is not None:  # P t^2 = W t
                time = exp2(0.5 * (log2_action - math.log2(query.power)))
            else:
                time = exp2(log2_action - math.log2(query.work))
            value = in_positive_double_range(time, "solved time", query)

    elif unknown == "psuccess":
        _require(query, "n", "time", "work")
        ratio = _quantum_log2_ratio(query.budget(), query.time, 1.0)
        value = _probability(exp2(ratio - query.n), query)

    else:  # "n": largest real n satisfying the bound
        _require(query, "time", "psuccess", "work")
        value = _quantum_log2_ratio(query.budget(), query.time, query.success_probability)
    return BoundResult(value, "quantum", _QUANTUM_OFFSET_TAG if offset else QUANTUM_TAG,
                       query, _UNITS[unknown], offset)


def gate_bound(
    n: float,
    p_success: float,
    time: float,
    corrected_errors: int = 0,
    temperature: float = 0.0,
) -> float:
    """Work floor of a gate-clocked implementation, in joules.

    (2n + K) E_L + max(0, hbar (sqrt(P_s 2^n) - 1)(pi - 2^(1-n/2)) / t).
    """
    checked("time", time)
    checked("success probability", p_success, 0.0, 1.0, "(]")
    checked("corrected error count", corrected_errors, ends="[)")
    e_l = landauer_energy(temperature)
    checked("n", n)
    h = max(0.5 * (n + math.log2(p_success)), 0.0)  # sqrt(P_s 2^n) - 1 = 2^(2 log2_radical(h))
    dynamic = exp2(2.0 * log2_radical(h) + math.log2(HBAR * (math.pi - 2.0 ** (1.0 - n / 2.0)))
                   - math.log2(time))
    landauer = (2.0 * n + corrected_errors) * e_l if e_l > 0.0 else 0.0  # 2n may overflow
    if temperature == 0.0 and h == 0.0:  # no Landauer term and P_s 2^n <= 1: exactly 0
        return 0.0
    return in_positive_double_range(landauer + dynamic, "solved work", (n, p_success, time))


def ballistic_deterministic_time(n: float, work: float) -> float:
    """t_F = (pi/2)(sqrt(2^n) + 1) hbar / W."""
    checked("work", work)
    checked("n", n, -math.inf)
    t_final = exp2(log2_add(0.5 * n, 0.0) + math.log2(0.5 * math.pi * HBAR) - math.log2(work))
    return in_positive_double_range(t_final, "solved time", n)


def ballistic_success(n: float, work: float, time: float) -> float:
    """Success probability of ballistic search after ``time`` seconds.

    P_s(t) = 1/2^n + (1 - 1/2^n) sin^2(W t / ((sqrt(2^n) + 1) hbar)),
    valid for 0 <= t <= t_F.
    """
    checked("time", time, ends="[)")
    try:
        t_final = ballistic_deterministic_time(n, work)
    except InfeasibleError as exc:
        # t_F past double range bounds no finite time; below it, only t = 0
        if exc.floor == 0.0 and time > 0.0:
            raise
        t_final = exc.floor
    checked("time", time, 0.0, t_final * (1.0 + 1e-12), "[]")  # the form holds up to t_F
    checked("n", n, ends="[)")
    p0 = exp2(-float(n))
    log2_time = math.log2(time) if time > 0.0 else -math.inf
    angle = exp2(math.log2(work) + log2_time - log2_add(0.5 * n, 0.0) - math.log2(HBAR))
    return p0 + (1.0 - p0) * math.sin(angle) ** 2


def prefactor_b(k: float, n: float) -> float:
    """Short-time envelope prefactor (1+k) / (1 + sqrt(k^2 + 2^-n (1-k^2)))^2."""
    checked("relative detuning k", k, 0.0, 1.0, "[]")
    checked("n", n, ends="[)")
    gg = exp2(-float(n))
    root = math.sqrt(k * k + gg * (1.0 - k * k))
    return (1.0 + k) / (1.0 + root) ** 2


def optimal_k(n: float) -> float:
    """argmax of the envelope prefactor on [0, 1e-2], near 1/sqrt(3*2^n): the root
    of d ln B/dk = 0, G(x) = 2hx + s(hx^2 - 1) - sqrt(hx^2 + 1) in x = k/s ~ 0.58,
    s = 2^(-n/2), h = 1 - s^2.  While the root lies in the bracket (n > 11.741),
    G is concave and increasing on [0, root], so Newton steps from 0 near it from
    below.  Past the edge, G(1e-2/s) < 0, k is 1e-2; once s underflows, 0.0."""
    s = exp2(-0.5 * checked("n", n, ends="[)"))
    h = 1.0 - s * s

    def g(x: float) -> tuple[float, float]:
        r = math.sqrt(h * x * x + 1.0)
        return 2.0 * h * x + s * (h * x * x - 1.0) - r, 2.0 * h * (1.0 + s * x) - h * x / r

    if s > 1e-2 and g(1e-2 / s)[0] < 0.0:  # s <= 1e-2: G(1) > 0, and h x^2 may overflow
        return 1e-2
    return s * newton(g, 0.0)


def work_floor(spectrum: list[float], overlaps: list[complex], m: int) -> float:
    """Moment-based work floor hbar * (sum |a_j|^2 w_j^m)^(1/m).

    Conservation of the m-th energy moment forces any preparation to pay at
    least this much; as m grows it converges to hbar * w_M, the largest
    occupied eigenfrequency.  Evaluated in log space to survive large m.
    """
    if len(spectrum) != len(overlaps) or len(spectrum) == 0:
        raise DomainError("spectrum and overlaps must be equal-length, non-empty",
                          (len(spectrum), len(overlaps)))
    if not (isinstance(m, int) and m % 2 == 0):
        raise DomainError("moment order m must be an even integer", m)
    checked("moment order m", m, 2, math.inf, "[)")
    weights = [abs(a) ** 2 for a in overlaps]
    checked("squared overlap sum", math.fsum(weights), 1.0 - 1e-9, 1.0 + 1e-9, "[]")
    terms = []
    for w_j, wt in zip(spectrum, weights):
        checked("spectrum", w_j, -math.inf)
        if wt > 0.0 and w_j != 0.0:
            terms.append(math.log(wt) + m * math.log(abs(w_j)))
    if not terms:
        return 0.0
    peak = max(terms)
    log_sum = peak + math.log(math.fsum(math.exp(t - peak) for t in terms))
    return HBAR * math.exp(log_sum / m)


def init_readout_work(n: float, temperature: float, mode: str = "generic") -> float:
    """Initialization plus readout floor: 2n E_L, or 4n E_L with known plaintext."""
    if mode not in ("generic", "knownPlaintext"):
        raise DomainError("mode must be 'generic' or 'knownPlaintext'", mode)
    factor = 2.0 if mode == "generic" else 4.0
    checked("n", n, ends="[)")
    e_l = landauer_energy(temperature)
    # 2n may overflow, against a zero Landauer energy too
    return in_double_range(factor * n * e_l if e_l > 0.0 else 0.0, "readout work", n)


def battery_relative_uncertainty(
    n_dof: int, temperature: float, potential_energy: float = 0.0
) -> float:
    """Relative energy spread of a thermal-plus-potential energy store.

    Model: <E> = U + N k_B T / 2 and dE = sqrt(N/2) k_B T, so the ratio
    falls off as 1/sqrt(N) once U scales with N.
    """
    checked_int("degree-of-freedom count", n_dof, 1)
    kt = K_B * checked("temperature", temperature)
    mean = checked("potential energy", potential_energy, ends="[)") + 0.5 * n_dof * kt
    spread = math.sqrt(0.5 * n_dof) * kt
    # k_B T may underflow to 0, and the mean with it
    return in_double_range(spread / mean if mean > 0.0 else math.inf, "relative uncertainty",
                           (n_dof, temperature, potential_energy))


def _require(query: BoundQuery, *fields: str) -> None:
    for f in fields:
        if f == "work":
            if query.work is None and query.power is None:
                raise DomainError("work (or power) is required", query)
        elif query.__dict__[_FIELDS[f]] is None:
            raise DomainError(f"field {f!r} is required", query)


def _probability(p: float, query: BoundQuery) -> float:
    """A solved success probability; above 1 the budget buys more than certainty."""
    if p > 1.0 + _PSUCCESS_SNAP:
        raise DomainError("budget exceeds the requirement for P_s = 1", query)
    return min(p, 1.0)
