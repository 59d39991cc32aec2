"""Fundamental physical constants (CODATA 2018) and the exported table.

Source
------
CODATA Recommended Values of the Fundamental Physical Constants 2018.
Since the 2019 SI redefinition, h, k_B and c are exact; G is the
recommended measured value.

``hbar`` is stored as ``h / (2 pi)`` at full double precision, so the
identity ``h == 2*pi*hbar`` holds to machine rounding.  Printed to the ten
significant figures CODATA tabulates, it reads 1.054571817e-34 J s.

The astronomical helpers use the IAU definitions: one Julian year
(365.25 d = 3.15576e7 s), one megaparsec, and the nominal solar
luminosity 3.828e26 W.

The whole set is exported as a versioned, machine-readable JSON table
(:func:`constants_json`) so downstream results can be audited against the
exact constant set that produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, checked

CONSTANTS_VERSION = "codata-2018.qlimits-1"


@dataclass(frozen=True)
class PhysicalConstants:
    """SI values of every constant the package uses."""

    h: float = 6.62607015e-34            # Planck constant, J s (exact)
    hbar: float = 6.62607015e-34 / (2.0 * math.pi)  # reduced Planck, J s
    k_boltzmann: float = 1.380649e-23    # Boltzmann constant, J/K (exact)
    c: float = 2.99792458e8              # speed of light, m/s (exact)
    gravitational: float = 6.67430e-11   # Newtonian constant, m^3/(kg s^2)
    megaparsec: float = 3.0856775814913673e22  # m
    julian_year: float = 3.15576e7       # s (365.25 d)
    solar_luminosity: float = 3.828e26   # W (IAU nominal)

    def validate(self) -> None:
        for name, value in self.as_dict().items():
            checked(f"constant {name}", value)
        if abs(self.h - 2.0 * math.pi * self.hbar) > 1e-12 * self.h:
            raise DomainError("h and hbar are inconsistent", (self.h, self.hbar))

    def as_dict(self) -> dict:
        return {
            "h_J_s": self.h,
            "hbar_J_s": self.hbar,
            "k_B_J_per_K": self.k_boltzmann,
            "c_m_per_s": self.c,
            "G_m3_per_kg_s2": self.gravitational,
            "megaparsec_m": self.megaparsec,
            "julian_year_s": self.julian_year,
            "solar_luminosity_W": self.solar_luminosity,
        }


CODATA2018 = PhysicalConstants()
CODATA2018.validate()

# Short aliases used throughout the numerics.
H = CODATA2018.h
HBAR = CODATA2018.hbar
K_B = CODATA2018.k_boltzmann
C_LIGHT = CODATA2018.c
G_NEWTON = CODATA2018.gravitational
MEGAPARSEC = CODATA2018.megaparsec
JULIAN_YEAR = CODATA2018.julian_year
SOLAR_LUMINOSITY = CODATA2018.solar_luminosity


def constants_table(constants: PhysicalConstants = CODATA2018) -> dict:
    """Versioned, machine-readable constant table."""
    table = {"constants_version": CONSTANTS_VERSION}
    table.update(constants.as_dict())
    return table


def constants_json(constants: PhysicalConstants = CODATA2018) -> str:
    """The constant table as a JSON document (17 significant digits)."""
    from .serialize import dumps17

    return dumps17(constants_table(constants))
