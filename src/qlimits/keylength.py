"""Security-margin solvers: key lengths and the cosmic energy budget.

A work budget W, wall-clock time t and acceptable success probability P_s
pin a key length through the quantum work-time bound W t >= sqrt(2^n P_s
- 1) hbar:

* secure length  -- smallest n whose requirement exceeds the budget:
  ceil(log2(((W t / hbar)^2 + 1) / P_s));
* recoverable length -- largest n still within the budget: floor of the
  same expression;
* deterministic length -- largest n whose full ballistic rotation fits:
  floor(2 log2(2 W t / (pi hbar) - 1)).

Classical lengths invert the irreversible-search bound in closed form
(``bounds.classical_bound``): n = log2 W - log2(P_s (E_L + h/4t)) where
W >= 2^61 E_L, and below that a Lambert W form solved by Newton steps
(two in the median, at most five over 2,963 random queries).

Initialization/readout work (2n E_L) is excluded from the quantum
inversions: for every scenario here it sits >= 20 orders of magnitude
below the budget and would not move any integer output.

The cosmic budget converts all matter inside the event horizon of an
exponentially expanding universe:

    W <= (4/3) pi (c / (sqrt(OmegaL) H0))^3 rho_m c^2
      = (1 - OmegaL) c^5 / (2 H0 OmegaL^(3/2) G),

the second form eliminating rho_m through the critical density
rho_c = 3 H0^2 / (8 pi G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._num import ceil_tol, floor_tol, log2_radical
from .bounds import (
    BoundQuery,
    CLASSICAL_TAG,
    QUANTUM_TAG,
    classical_bound,
    quantum_log2_ratio,
    quantum_work_requirement,
)
from .constants import (
    C_LIGHT,
    CONSTANTS_VERSION,
    G_NEWTON,
    HBAR,
    MEGAPARSEC,
    SOLAR_LUMINOSITY,
)
from .errors import DomainError, InfeasibleError, QlimitsError, checked, in_double_range
from .scenarios import Scenario

BALLISTIC_TIME_TAG = "ballistic-deterministic-time-v1"
COSMIC_TAG = "cosmic-horizon-budget-v1"


@dataclass(frozen=True)
class CosmologyParams:
    """Hubble rate (stored in 1/s), dark-energy fraction, matter density."""

    h0: float                       # 1/s
    omega_lambda: float
    rho_matter: float | None = None  # kg/m^3

    def __post_init__(self):
        checked("H0", self.h0)
        checked("Omega_Lambda", self.omega_lambda, 0.0, 1.0)
        if self.rho_matter is not None:
            checked("matter density", self.rho_matter)

    @classmethod
    def from_km_s_mpc(
        cls, h0_km_s_mpc: float, omega_lambda: float, rho_matter: float | None = None
    ) -> "CosmologyParams":
        return cls(checked("H0", h0_km_s_mpc) * 1e3 / MEGAPARSEC, omega_lambda, rho_matter)


# Planck-collaboration values used by the reference calculations.
PLANCK_PARAMS = CosmologyParams.from_km_s_mpc(67.36, 0.6847, 2.69e-27)


def equivalent_quantum_keylength(work: float, time: float, p_success: float) -> int:
    """Smallest key length whose quantum work requirement exceeds the budget."""
    return ceil_tol(quantum_log2_ratio(work, time, p_success))


def max_recoverable_keylength(work: float, time: float, p_success: float) -> int:
    """Largest key length recoverable with at least ``p_success``."""
    return floor_tol(quantum_log2_ratio(work, time, p_success))


def max_deterministic_keylength(work: float, time: float) -> int:
    """Largest key length whose deterministic ballistic rotation fits in t.

    Inverts t_F = (pi/2)(sqrt(2^n) + 1) hbar / W; returns 0 when even one
    bit does not fit.  y = 2 W t / (pi hbar) is kept as log2(y), so any
    finite W and t give a finite length, also where W t overflows.
    """
    checked("work", work)
    checked("time", time)
    log2_y = 1.0 + math.log2(work) + math.log2(time) - math.log2(math.pi * HBAR)
    if log2_y <= 1.0:  # sqrt(2^n) = y - 1 needs y > 2 for n >= 1
        return 0
    bits = 4.0 * log2_radical(log2_y)  # 2 log2(y - 1) = 4 log2(sqrt(2^log2_y - 1))
    return max(floor_tol(bits), 0)


def classical_keylength(
    work: float, time: float, temperature: float, p_success: float
) -> int:
    """Smallest key length whose classical requirement exceeds the budget.

    Returns 0 when the budget does not even clear the n = 1 floor.
    """
    query = BoundQuery("n", work=work, time=time, temperature=temperature,
                       success_probability=p_success)
    try:
        n_real = classical_bound(query).value
    except InfeasibleError:
        return 0
    return ceil_tol(n_real)


def cosmic_energy(params: CosmologyParams, form: str = "fromOmega") -> float:
    """Mass-energy inside the cosmic event horizon, in joules; DomainError
    where it lies outside the positive doubles."""
    try:
        if form == "fromDensity":
            if params.rho_matter is None:
                raise DomainError("fromDensity requires a matter density", params)
            radius = C_LIGHT / (math.sqrt(params.omega_lambda) * params.h0)
            energy = 4.0 / 3.0 * math.pi * radius**3 * params.rho_matter * C_LIGHT**2
        elif form == "fromOmega":
            energy = ((1.0 - params.omega_lambda) * C_LIGHT**5
                      / (2.0 * params.h0 * params.omega_lambda**1.5 * G_NEWTON))
        else:
            raise DomainError("form must be 'fromOmega' or 'fromDensity'", form)
    except (OverflowError, ZeroDivisionError):
        energy = math.inf
    if not 0.0 < energy < math.inf:
        raise DomainError("the horizon energy lies outside double range",
                          (params.h0, params.omega_lambda))
    return energy


@dataclass(frozen=True)
class KeylengthReport:
    """One scenario row of the security comparison table."""

    scenario: Scenario
    classical_bits: int | None          # tabulated pairing, if any
    quantum_secure_bits: int | None
    solved_classical_bits: int | None = None
    classical_match: bool | None = None
    bounds_used: tuple[str, ...] = field(default_factory=tuple)
    error: str | None = None

    def as_dict(self) -> dict:
        s = self.scenario
        return {
            "scenario": s.name,
            "classical_bits": self.classical_bits,
            "work_J": s.work,
            "time_s": s.duration,
            "p_success": s.success_probability,
            "temperature_K": s.temperature,
            "quantum_bits": self.quantum_secure_bits,
            "solved_classical_bits": self.solved_classical_bits,
            "classical_match": self.classical_match,
            "bounds_used": list(self.bounds_used),
            "error": self.error,
            "constants_version": CONSTANTS_VERSION,
        }


REPORT_CSV_COLUMNS = (
    "classical_bits",
    "work_J",
    "time_s",
    "p_success",
    "scenario",
    "quantum_bits",
)


def build_report(scenarios: list[Scenario]) -> list[KeylengthReport]:
    """Quantum-secure and classical key lengths for each scenario.

    Solver failures are captured per row; other rows are unaffected.
    """
    rows: list[KeylengthReport] = []
    for s in scenarios:
        try:
            quantum_bits = equivalent_quantum_keylength(
                s.work, s.duration, s.success_probability
            )
            solved_classical = classical_keylength(
                s.work, s.duration, s.temperature, s.success_probability
            )
            match = None
            if s.classical_key_bits is not None:
                match = abs(solved_classical - s.classical_key_bits) <= 1
            rows.append(
                KeylengthReport(
                    scenario=s,
                    classical_bits=s.classical_key_bits,
                    quantum_secure_bits=quantum_bits,
                    solved_classical_bits=solved_classical,
                    classical_match=match,
                    bounds_used=(QUANTUM_TAG, CLASSICAL_TAG),
                )
            )
        except QlimitsError as exc:  # propagate per row, keep the table going
            rows.append(
                KeylengthReport(
                    scenario=s,
                    classical_bits=s.classical_key_bits,
                    quantum_secure_bits=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows


def solar_budget(duration: float) -> float:
    """Alternative budget: nominal solar luminosity times a duration."""
    budget = SOLAR_LUMINOSITY * checked("duration", duration)
    return in_double_range(budget, "solar budget", duration)


def quantum_requirement_sandwich(scenario: Scenario) -> tuple[float, float]:
    """(requirement at n_secure, requirement at n_secure - 1), in joules.

    The secure length must be the first to exceed the budget; callers
    assert requirement(n) > budget >= requirement(n - 1).
    """
    n_secure = equivalent_quantum_keylength(
        scenario.work, scenario.duration, scenario.success_probability
    )
    w_at, _ = quantum_work_requirement(
        float(n_secure), scenario.duration, scenario.success_probability
    )
    w_below, _ = quantum_work_requirement(
        float(n_secure - 1), scenario.duration, scenario.success_probability
    )
    return w_at, w_below
