"""Named adversary scenarios.

Each scenario fixes the work budget, wall-clock time, bath temperature and
acceptable success probability of a hypothetical key-recovery attempt:

* ``datacenter`` -- a 65 MW-class terrestrial facility running for five
  years at 300 K, 1% success, paired with 128-bit classical keys.
* ``dyson`` -- the total radiative output of the sun over its remaining
  ~5 Ga lifetime, radiating against the 2.7 K microwave background,
  paired with 256-bit classical keys.
* ``cosmic`` -- the mass-energy inside the cosmic event horizon with time
  until star formation ceases (100 Ta); no classical pairing.

The registry values are fixed decimal literals; they are inputs, not
derived quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import JULIAN_YEAR
from .errors import ScenarioLookupError, checked


@dataclass(frozen=True)
class Scenario:
    """One adversary parameter set."""

    name: str
    work: float                 # J
    duration: float             # s
    temperature: float          # K
    success_probability: float  # (0, 1]
    classical_key_bits: int | None = None

    def __post_init__(self):
        checked("scenario work", self.work)
        checked("scenario duration", self.duration)
        checked("scenario temperature", self.temperature, ends="[)")
        checked("scenario success probability", self.success_probability, 0.0, 1.0, "(]")
        if self.classical_key_bits is not None:
            checked("classical key bits", self.classical_key_bits)


SCENARIOS: dict[str, Scenario] = {
    "datacenter": Scenario(
        name="datacenter",
        work=1e16,
        duration=5.0 * JULIAN_YEAR,
        temperature=300.0,
        success_probability=1e-2,
        classical_key_bits=128,
    ),
    "dyson": Scenario(
        name="dyson",
        work=8e43,
        duration=5e9 * JULIAN_YEAR,
        temperature=2.7,
        success_probability=3e-11,
        classical_key_bits=256,
    ),
    "cosmic": Scenario(
        name="cosmic",
        work=4.6e69,
        duration=1e14 * JULIAN_YEAR,
        temperature=2.7,
        success_probability=1e-12,
        classical_key_bits=None,
    ),
}


def scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return SCENARIOS[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be a key
        raise ScenarioLookupError(
            f"unknown scenario {name!r}; valid names: {sorted(SCENARIOS)}", name
        ) from None
