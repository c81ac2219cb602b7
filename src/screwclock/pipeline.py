"""Resolution of a parsed config into physics objects and derived quantities.

This is the single place where config units (nm, kW/cm^2, us, atomic
units) become SI, where "computed" placeholders (null intensity, null
lifetimes, null gate time) are filled in from the lattice physics, and
where the protocol schedule is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import KW_CM2_TO_W_M2, RunConfig, SpeciesEntry
from .constants import CODATA, ConstantsTable, au_to_si_length
from .errors import ConfigError, ParameterError
from .lattice import (
    IntensityRequirement,
    LatticeConfig,
    SpeciesOptics,
    min_required_intensity,
    overlap_depth,
    trap_frequencies,
)
from .rates import (
    DecoherenceParams,
    ProtocolSchedule,
    interaction_energy,
    phase_gate_duration,
    photon_scattering_time,
)


def species_optics(entry: SpeciesEntry, table: ConstantsTable = CODATA) -> SpeciesOptics:
    """The species' optics, with its mass in kg.

    A state's hyperfine numbers reach the lattice only through ``rho``, the
    vector-to-scalar polarizability ratio, which the entry gives directly.
    """
    return SpeciesOptics(
        name=entry.name,
        mass=entry.mass_amu * table.atomic_mass_unit,
        alpha_scalar=entry.alpha_scalar_au,
        rho=entry.rho,
        role=entry.role,
    )


@dataclass(frozen=True)
class PhysicsBundle:
    """Everything the commands need, derived once from a config.

    The schedule owns N and the step times (SI); ``gate_time`` reads it.
    """

    table: ConstantsTable
    clock: SpeciesOptics
    head_up: SpeciesOptics
    head_down: SpeciesOptics
    lattice: LatticeConfig               # intensity resolved, at phi = 0
    requirement: IntensityRequirement
    interaction: float                   # J
    decoherence: DecoherenceParams
    schedule: ProtocolSchedule

    @property
    def gate_time(self) -> float:
        return self.schedule.gate_time


def resolve_physics(cfg: RunConfig, table: ConstantsTable = CODATA) -> PhysicsBundle:
    clock = species_optics(cfg.species_by_role("clock"), table)
    head_up = species_optics(cfg.species_by_role("head_up"), table)
    head_down = species_optics(cfg.species_by_role("head_down"), table)
    all_species = [clock, head_up, head_down]

    lambda_m = cfg.lattice.lambda_m_nm * 1e-9
    probe = LatticeConfig(
        lambda_m=lambda_m,
        intensity=1.0,
        delta=cfg.lattice.delta,
        transverse_intensity=0.0,
    )
    requirement = min_required_intensity(
        all_species, probe, depth_factor=cfg.protocol.depth_factor, table=table
    )

    if cfg.lattice.intensity_kW_cm2 is not None:
        intensity = cfg.lattice.intensity_kW_cm2 * KW_CM2_TO_W_M2
    else:
        intensity = requirement.intensity
        if not intensity > 0.0:
            raise ParameterError(
                "lattice.intensity_kW_cm2 is null and the computed minimum is zero; "
                "set an explicit intensity"
            )
    if cfg.lattice.transverse_intensity_kW_cm2 is not None:
        transverse = cfg.lattice.transverse_intensity_kW_cm2 * KW_CM2_TO_W_M2
    else:
        transverse = intensity

    lattice = LatticeConfig(
        lambda_m=lambda_m,
        intensity=intensity,
        delta=cfg.lattice.delta,
        transverse_intensity=transverse,
    )

    # The lattice sits at the maximum-overlap phase (phi = 0), where the two
    # atoms share a well: trap frequencies and the collisional energy are
    # evaluated there.
    clock_freqs = trap_frequencies(lattice, clock, table)
    head_freqs = trap_frequencies(lattice, head_up, table)
    a_scatt = au_to_si_length(cfg.protocol.a_scatt_au, table)
    delta_e = interaction_energy(
        a_scatt, head_up.mass, clock.mass, head_freqs, clock_freqs, table
    )

    if cfg.protocol.gate_time_us is not None:
        gate_time = cfg.protocol.gate_time_us * 1e-6
    else:
        gate_time = phase_gate_duration(delta_e, math.pi, table)

    if cfg.noise.tau_scatter_clock_s is not None:
        tau_clock = cfg.noise.tau_scatter_clock_s
    else:
        tau_clock = photon_scattering_time(
            clock, intensity, overlap_depth(lattice, clock, table), lambda_m, table
        )
    if cfg.noise.tau_scatter_head_s is not None:
        tau_head = cfg.noise.tau_scatter_head_s
    else:
        tau_head = photon_scattering_time(
            head_up, intensity, overlap_depth(lattice, head_up, table), lambda_m, table
        )
    decoherence = DecoherenceParams(
        tau_scatter_clock=tau_clock,
        tau_scatter_head=tau_head,
        extra_loss_rate=cfg.noise.extra_loss_rate_per_s,
    )

    schedule = ProtocolSchedule(
        cfg.protocol.n_atoms, gate_time, cfg.protocol.transport_time_us * 1e-6,
        cfg.protocol.ramsey_time_s, cfg.protocol.pulse_time_us * 1e-6,
    )

    return PhysicsBundle(
        table=table,
        clock=clock,
        head_up=head_up,
        head_down=head_down,
        lattice=lattice,
        requirement=requirement,
        interaction=delta_e,
        decoherence=decoherence,
        schedule=schedule,
    )


def detuning_grid(cfg: RunConfig) -> list[float]:
    """Detuning grid for scans; defaults to two fringe periods from zero.

    A grid that overflows the float range is a config error: of the upper
    end of an explicit range, or of the Ramsey time of the default grid.
    """
    run = cfg.run
    if run.detuning_min_rad_s is not None and run.detuning_max_rad_s is not None:
        lo, hi = run.detuning_min_rad_s, run.detuning_max_rad_s
        field = "run.detuning_max_rad_s"
    else:
        t = cfg.protocol.ramsey_time_s
        if not t > 0.0:
            raise ParameterError(
                "protocol.ramsey_time_s must be positive for an automatic detuning grid"
            )
        hi = 2.0 * (2.0 * math.pi) / (cfg.protocol.n_atoms * t)
        lo = 0.0
        field = "protocol.ramsey_time_s"
    n = run.detuning_points
    step = (hi - lo) / (n - 1)
    grid = [lo + i * step for i in range(n)]
    if not all(map(math.isfinite, grid)):
        raise ConfigError(field, f"the detuning grid from {lo!r} to {hi!r} rad/s overflows the float range")
    return grid


def probe_detuning(cfg: RunConfig) -> float:
    """Detuning for single-shot simulation; default is the half-fringe point.

    A probe whose Ramsey phase chi = (N dw + dw') T overflows the float range
    is a config error: of an explicit detuning, or of the Ramsey time that
    places the default one.
    """
    run, protocol = cfg.run, cfg.protocol
    t = protocol.ramsey_time_s
    if run.delta_omega_rad_s is not None:
        delta_omega, field = run.delta_omega_rad_s, "run.delta_omega_rad_s"
    else:
        if not t > 0.0:
            raise ParameterError(
                "protocol.ramsey_time_s must be positive to place the default probe detuning"
            )
        chi_target = math.pi / 2.0
        delta_omega = (chi_target / t - run.delta_omega_head_rad_s) / protocol.n_atoms
        field = "protocol.ramsey_time_s"
    if not math.isfinite((protocol.n_atoms * delta_omega + run.delta_omega_head_rad_s) * t):
        raise ConfigError(field, f"the Ramsey phase of the probe detuning {delta_omega!r} rad/s "
                                 "overflows the float range")
    return delta_omega
