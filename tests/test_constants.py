import importlib
import math

import pytest
from scipy import constants as sc

from screwclock import CODATA, ConstantsTable, ParameterError, au_to_si_polarizability
from screwclock.lattice import LatticeConfig, SpeciesOptics, recoil_energy

from conftest import well_depth


# CODATA 2022 (Mohr, Newell, Taylor, Tiesinga); h and c are exact.
CODATA_2022 = {
    "planck_reduced": 6.62607015e-34 / (2 * math.pi),
    "speed_of_light": 299792458.0,
    "vacuum_permittivity": 8.8541878188e-12,
    "atomic_mass_unit": 1.66053906892e-27,
    "bohr_radius": 5.29177210544e-11,
}

# Recent scipy releases ship CODATA 2022; older ones, such as 1.9, carry CODATA 2018.
SCIPY_HAS_CODATA_2022 = hasattr(importlib.import_module("scipy.constants._codata"), "txt2022")


def test_table_is_codata_2022():
    for name, value in CODATA_2022.items():
        assert getattr(CODATA, name) == value, name


@pytest.mark.skipif(not SCIPY_HAS_CODATA_2022, reason="the installed scipy predates CODATA 2022")
def test_table_equals_scipy_codata_2022():
    a0 = sc.physical_constants["Bohr radius"][0]
    assert CODATA == ConstantsTable(
        planck_reduced=sc.hbar,
        speed_of_light=sc.c,
        vacuum_permittivity=sc.epsilon_0,
        atomic_mass_unit=sc.atomic_mass,
        bohr_radius=a0,
    )


def test_table_entries_positive():
    for value in CODATA.__dict__.values():
        assert value > 0.0


def test_polarizability_unit_consistent_with_bohr_radius():
    derived = 4 * math.pi * CODATA.vacuum_permittivity * CODATA.bohr_radius**3
    assert CODATA.polarizability_au_in_si == pytest.approx(derived, rel=1e-12)


def test_polarizability_unit_matches_codata_listing():
    # Independent cross-check against the tabulated CODATA value.
    listed = sc.physical_constants["atomic unit of electric polarizability"][0]
    assert CODATA.polarizability_au_in_si == pytest.approx(listed, rel=1e-8)


def test_inconsistent_table_rejected():
    # The polarizability unit derives from eps0 and a0: a table cannot carry another value.
    with pytest.raises(TypeError):
        ConstantsTable(
            planck_reduced=sc.hbar,
            speed_of_light=sc.c,
            vacuum_permittivity=sc.epsilon_0,
            atomic_mass_unit=sc.atomic_mass,
            bohr_radius=sc.physical_constants["Bohr radius"][0],
            polarizability_au_in_si=1.0e-41,  # wrong on purpose
        )
    with pytest.raises(AttributeError):
        CODATA.polarizability_au_in_si = 1.0e-41


def test_nonpositive_entry_rejected():
    with pytest.raises(ParameterError):
        ConstantsTable(
            planck_reduced=-sc.hbar,
            speed_of_light=sc.c,
            vacuum_permittivity=sc.epsilon_0,
            atomic_mass_unit=sc.atomic_mass,
            bohr_radius=sc.physical_constants["Bohr radius"][0],
        )


def test_au_conversion_zero_maps_to_zero():
    assert au_to_si_polarizability(0.0) == 0.0


def test_au_conversion_preserves_sign_and_magnitude():
    value = au_to_si_polarizability(-470.0)
    assert value < 0.0
    assert abs(value) == pytest.approx(470.0 * CODATA.polarizability_au_in_si, rel=1e-15)


def test_one_au_equals_4pi_eps0_a0_cubed():
    a0 = CODATA_2022["bohr_radius"]
    oracle = 4 * math.pi * CODATA_2022["vacuum_permittivity"] * a0**3
    assert au_to_si_polarizability(1.0) == pytest.approx(oracle, rel=1e-12)


def _scaled_table(lam_l: float, lam_m: float, lam_t: float, lam_q: float) -> ConstantsTable:
    """Rescale every base constant by its dimensions in (length, mass, time, charge).

    The atomic units derive from these, so they rescale with them.
    """
    return ConstantsTable(
        planck_reduced=CODATA.planck_reduced * lam_m * lam_l**2 / lam_t,
        speed_of_light=CODATA.speed_of_light * lam_l / lam_t,
        vacuum_permittivity=CODATA.vacuum_permittivity
        * lam_q**2 * lam_t**2 / (lam_m * lam_l**3),
        atomic_mass_unit=CODATA.atomic_mass_unit * lam_m,
        bohr_radius=CODATA.bohr_radius * lam_l,
    )


@pytest.mark.parametrize("scales", [
    (100.0, 1000.0, 1.0, 1.0),     # meters/kilograms to centimeters/grams
    (3.7, 0.21, 12.0, 5.0),        # arbitrary base-unit rescaling
])
def test_depth_to_recoil_ratio_is_unit_invariant(scales):
    # dU / E_R is dimensionless, so recomputing with a rescaled constants
    # table and rescaled inputs must give the same number.
    lam_l, lam_m, lam_t, lam_q = scales
    table2 = _scaled_table(lam_l, lam_m, lam_t, lam_q)

    mass = 26.9815385 * CODATA.atomic_mass_unit
    config = LatticeConfig(lambda_m=389.9e-9, intensity=2.0e8, delta=0.25, phi=0.3)
    species = SpeciesOptics("head", mass=mass, alpha_scalar=-340.0, rho=-1.25, role="head_up")

    ratio1 = well_depth(config, species) / recoil_energy(mass, config.lambda_m)

    mass2 = mass * lam_m
    config2 = LatticeConfig(
        lambda_m=config.lambda_m * lam_l,
        intensity=config.intensity * lam_m / lam_t**3,
        delta=config.delta,
        phi=config.phi,
    )
    species2 = SpeciesOptics("head", mass=mass2, alpha_scalar=-340.0, rho=-1.25, role="head_up")
    ratio2 = well_depth(config2, species2, table2) / recoil_energy(mass2, config2.lambda_m, table2)

    assert ratio2 == pytest.approx(ratio1, rel=1e-9)
