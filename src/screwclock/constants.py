"""Physical constants and atomic-unit conversions.

All internal computation is in SI. Formulas quoted in Gaussian units are
translated once, here and in :mod:`screwclock.lattice`, so the conversion
boundary lives in a single place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class ConstantsTable:
    """Bundle of fundamental constants used throughout the package.

    Keeping the table explicit (instead of module-level constants read at
    each call site) makes unit-consistency tests possible: a rescaled
    table must leave all dimensionless outputs unchanged. The table holds
    only base constants; the atomic units derive from them (the atomic
    unit of length is ``bohr_radius``), so they rescale with the table.
    """

    planck_reduced: float      # J s
    speed_of_light: float      # m / s
    vacuum_permittivity: float  # F / m
    atomic_mass_unit: float    # kg
    bohr_radius: float         # m

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not value > 0.0:
                raise ParameterError(f"constant {name} must be positive, got {value}")

    @property
    def polarizability_au_in_si(self) -> float:
        """(C m^2 / V) per atomic unit of polarizability: 4 pi eps0 a0^3."""
        return 4.0 * math.pi * self.vacuum_permittivity * self.bohr_radius**3


def codata_table() -> ConstantsTable:
    """CODATA 2022 values (Mohr, Newell, Taylor and Tiesinga), pinned as literals
    so that output bytes do not depend on an installed library's constants
    table. h and c are exact in the SI."""
    return ConstantsTable(
        planck_reduced=6.62607015e-34 / (2.0 * math.pi),
        speed_of_light=299792458.0,
        vacuum_permittivity=8.8541878188e-12,
        atomic_mass_unit=1.66053906892e-27,
        bohr_radius=5.29177210544e-11,
    )


CODATA = codata_table()


def au_to_si_polarizability(alpha_au: float, table: ConstantsTable = CODATA) -> float:
    """Convert a polarizability from atomic units to SI (C m^2 / V).

    Sign is preserved; blue-detuned (negative) polarizabilities stay
    negative.
    """
    return alpha_au * table.polarizability_au_in_si


def au_to_si_length(length_au: float, table: ConstantsTable = CODATA) -> float:
    """Convert a length from atomic units (Bohr radii) to meters."""
    return length_au * table.bohr_radius
