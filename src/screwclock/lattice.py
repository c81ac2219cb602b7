"""Optical potentials for the two-sublattice transport lattice.

The lattice is a superposition of two standing waves of opposite circular
polarization, displaced by a winding phase ``phi``. An atom in a given
internal state sees

    U(z) = U0p * cos^2(k z) + U0m * cos^2(k z - phi),    k = 2 pi / lambda

with sublattice depths set by the scalar polarizability and the
vector-to-scalar ratio ``rho``:

    U0pm = -(E_pm / 2)^2 * alpha * (1 +- rho)

Field amplitudes are recovered from the total intensity and the fractional
misbalance ``delta = (E+^2 - E-^2) / (E+^2 + E-^2)`` through the SI
standing-wave convention ``I_L = (eps0 c / 2) (E+^2 + E-^2)``, the
translation of the Gaussian ``I_L = (c / 8 pi)(E+^2 + E-^2)``.

Scalar (J = 0) clock states have rho = 0 and stay pinned to the stationary
sigma+ sublattice; a J = 1/2 head atom with |rho| ~ 1 rides the moving
sigma- sublattice, which is what enables state-selective transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .constants import CODATA, ConstantsTable, au_to_si_polarizability
from .errors import InfeasibleTransportError, ParameterError, UntrappedError

ROLES = ("clock", "head_up", "head_down")


@dataclass(frozen=True)
class SpeciesOptics:
    """Optical response of one trapped species (or one head spin state).

    ``alpha_scalar`` is kept in atomic units, as tabulated; conversion to
    SI happens inside the operations. ``rho`` is the ratio of the vector
    (axial) to scalar polarizability, hyperfine weight included: the only
    way a state's hyperfine numbers reach the lattice.
    """

    name: str
    mass: float            # kg
    alpha_scalar: float    # atomic units, may be negative (blue detuned)
    rho: float = 0.0
    role: str = "clock"

    def __post_init__(self):
        if self.role not in ROLES:
            raise ParameterError(f"unknown role {self.role!r}, expected one of {ROLES}")
        if not self.mass > 0.0:
            raise ParameterError(f"species {self.name}: mass must be positive")
        if self.role == "clock" and self.rho != 0.0:
            raise ParameterError(
                f"species {self.name}: scalar clock states have no vector "
                f"polarizability, rho must be exactly 0 (got {self.rho})"
            )


@dataclass(frozen=True)
class LatticeConfig:
    """Transport-lattice parameters, all SI."""

    lambda_m: float              # m, magic wavelength
    intensity: float             # W / m^2, total transport-lattice intensity
    delta: float = 0.25          # fractional sublattice misbalance, |delta| <= 1
    phi: float = 0.0             # rad, displacement phase of the moving sublattice
    transverse_intensity: float = 0.0  # W / m^2, per transverse lattice

    def __post_init__(self):
        if not self.lambda_m > 0.0:
            raise ParameterError("lambda_m must be positive")
        if not self.intensity > 0.0:
            raise ParameterError("intensity must be positive")
        if abs(self.delta) > 1.0:
            raise ParameterError(f"|delta| <= 1 required, got {self.delta}")
        if self.transverse_intensity < 0.0:
            raise ParameterError("transverse_intensity must be >= 0")


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the four transport inequalities."""

    feasible: bool
    violated_constraints: tuple[str, ...]
    margin: float

    def __post_init__(self):
        consistent = self.feasible == (not self.violated_constraints) == (self.margin > 0)
        if not consistent:
            raise ParameterError("inconsistent feasibility report")


@dataclass(frozen=True)
class IntensityRequirement:
    """Minimum lattice intensity and which species forces it."""

    intensity: float                     # W / m^2
    binding_species: str | None
    per_species: dict[str, float] = field(default_factory=dict)
    feasibility: FeasibilityReport | None = None


def recoil_energy(mass: float, lambda_m: float, table: ConstantsTable = CODATA) -> float:
    """Photon recoil energy (2 pi hbar / lambda)^2 / (2 M) in joules."""
    if not mass > 0.0:
        raise ParameterError(f"mass must be positive, got {mass}")
    if not lambda_m > 0.0:
        raise ParameterError(f"lambda_m must be positive, got {lambda_m}")
    h_over_lambda = 2.0 * math.pi * table.planck_reduced / lambda_m
    return h_over_lambda**2 / (2.0 * mass)


def field_amplitudes_squared(
    config: LatticeConfig, table: ConstantsTable = CODATA
) -> tuple[float, float]:
    """(E+^2, E-^2) in SI (V/m)^2 from total intensity and misbalance."""
    total = 2.0 * config.intensity / (table.vacuum_permittivity * table.speed_of_light)
    return 0.5 * total * (1.0 + config.delta), 0.5 * total * (1.0 - config.delta)


def sublattice_depths(
    config: LatticeConfig, species: SpeciesOptics, table: ConstantsTable = CODATA
) -> tuple[float, float]:
    """Potential amplitudes (U0+, U0-) in joules.

    U0pm = -(E_pm/2)^2 alpha (1 +- rho). For rho = 0 the two amplitudes
    differ only through the field misbalance.
    """
    e2p, e2m = field_amplitudes_squared(config, table)
    alpha = au_to_si_polarizability(species.alpha_scalar, table)
    u0p = -0.25 * e2p * alpha * (1.0 + species.rho)
    u0m = -0.25 * e2m * alpha * (1.0 - species.rho)
    return u0p, u0m


def well_depth_closed_form(
    config: LatticeConfig,
    species: SpeciesOptics,
    phi: float | None = None,
    table: ConstantsTable = CODATA,
) -> float:
    """Exact depth of the combined potential at displacement phase ``phi``.

    The sum of two equal-period cos^2 waves is a single sinusoid of
    amplitude sqrt(a^2 + b^2 + 2 a b cos 2 phi), so the depth is that
    amplitude. At the maximum-overlap phase (phi = 0) it reduces to
    |U0+ + U0-| = I_L |alpha| (1 + delta rho) / (2 eps0 c).
    """
    if phi is None:
        phi = config.phi
    a, b = sublattice_depths(config, species, table)
    r2 = a * a + b * b + 2.0 * a * b * math.cos(2.0 * phi)
    return math.sqrt(max(r2, 0.0))


def overlap_depth(
    config: LatticeConfig, species: SpeciesOptics, table: ConstantsTable = CODATA
) -> float:
    """Closed-form depth at the maximum-overlap phase (phi = 0)."""
    return well_depth_closed_form(config, species, phi=0.0, table=table)


def transport_feasibility(rho_up: float, rho_down: float, delta: float) -> FeasibilityReport:
    """Check the four strict inequalities for state-selective transport.

    For a positive misbalance delta the moving state must satisfy
    -1/delta < rho_up < -delta and the pinned state delta < rho_down <
    1/delta. The report's margin is the smallest slack; all inequalities
    are strict, so a boundary value is infeasible.
    """
    if not delta > 0.0:
        raise ParameterError(
            f"transport criteria are defined only for delta > 0, got {delta}"
        )
    if delta > 1.0:
        raise ParameterError(f"|delta| <= 1 required, got {delta}")
    slacks = {
        "rho_up > -1/delta": rho_up + 1.0 / delta,
        "rho_up < -delta": -delta - rho_up,
        "rho_down < 1/delta": 1.0 / delta - rho_down,
        "rho_down > delta": rho_down - delta,
    }
    violated = tuple(name for name, slack in slacks.items() if slack <= 0.0)
    margin = min(slacks.values())
    return FeasibilityReport(feasible=not violated, violated_constraints=violated, margin=margin)


def worst_case_depth(
    config: LatticeConfig, species: SpeciesOptics, table: ConstantsTable = CODATA
) -> float:
    """Depth a species sees at its worst-case phase during transport.

    The head states matter at the maximum-overlap phase, where their depth
    is weakest; the pinned clock atoms matter at phi = pi/2, where their
    depth collapses to the misbalance fraction |delta| of the overlap value.
    """
    phi = math.pi / 2.0 if species.role == "clock" else 0.0
    return well_depth_closed_form(config, species, phi=phi, table=table)


def min_required_intensity(
    species_list: list[SpeciesOptics],
    config: LatticeConfig,
    depth_factor: float = 5.0,
    table: ConstantsTable = CODATA,
) -> IntensityRequirement:
    """Smallest I_L keeping every species' worst-case depth above depth_factor * E_R.

    Raises :class:`InfeasibleTransportError` when the head states cannot be
    transported at the configured misbalance at any intensity.
    """
    if depth_factor < 0.0:
        raise ParameterError(f"depth_factor must be >= 0, got {depth_factor}")
    if not species_list:
        raise ParameterError("species_list must be non-empty")

    rho_up = next((s.rho for s in species_list if s.role == "head_up"), None)
    rho_down = next((s.rho for s in species_list if s.role == "head_down"), None)
    report = None
    if rho_up is not None and rho_down is not None:
        report = transport_feasibility(rho_up, rho_down, config.delta)
        if not report.feasible:
            raise InfeasibleTransportError(
                "transport infeasible: " + ", ".join(report.violated_constraints),
                report=report,
            )

    per_species: dict[str, float] = {}
    for species in species_list:
        if depth_factor == 0.0:
            per_species[species.name] = 0.0
            continue
        coeff = worst_case_depth(replace(config, intensity=1.0), species, table)
        if coeff <= 0.0:
            raise UntrappedError(
                f"species {species.name} sees no confining potential at its "
                "worst-case phase; no intensity can satisfy the depth criterion"
            )
        target = depth_factor * recoil_energy(species.mass, config.lambda_m, table)
        per_species[species.name] = target / coeff

    binding = max(per_species, key=per_species.get) if depth_factor > 0.0 else None
    intensity = per_species[binding] if binding is not None else 0.0
    return IntensityRequirement(
        intensity=intensity,
        binding_species=binding,
        per_species=per_species,
        feasibility=report,
    )


def trap_frequencies(
    config: LatticeConfig, species: SpeciesOptics, table: ConstantsTable = CODATA
) -> tuple[float, float, float]:
    """(omega_axial, omega_radial_1, omega_radial_2) in rad/s.

    Harmonic expansion at the minimum of a cos^2-form well of depth dU
    gives omega = (2 pi / lambda) sqrt(2 dU / M). The axial depth is the
    closed-form well depth at the configured displacement phase; the radial
    depths come from the linearly polarized transverse lattices, which
    couple through the scalar polarizability only.
    """
    axial_depth = well_depth_closed_form(config, species, table=table)
    scale = sum(abs(u) for u in sublattice_depths(config, species, table))
    if axial_depth <= 1e-9 * scale or scale == 0.0:
        raise UntrappedError(
            f"species {species.name} is untrapped axially at phi={config.phi}"
        )
    k = 2.0 * math.pi / config.lambda_m
    omega_axial = k * math.sqrt(2.0 * axial_depth / species.mass)

    alpha = abs(au_to_si_polarizability(species.alpha_scalar, table))
    radial_depth = (
        alpha
        * config.transverse_intensity
        / (2.0 * table.vacuum_permittivity * table.speed_of_light)
    )
    if radial_depth <= 0.0:
        raise UntrappedError(
            f"species {species.name} is untrapped radially "
            "(zero transverse intensity or polarizability)"
        )
    omega_radial = k * math.sqrt(2.0 * radial_depth / species.mass)
    return omega_axial, omega_radial, omega_radial
