"""Resolution of a parsed config into physics objects and derived quantities.

This is the single place where config units (nm, kW/cm^2, us, atomic
units) become SI, where "computed" placeholders (null intensity, null
lifetimes, null gate time) are filled in from the lattice physics, and
where the protocol schedule is assembled.

:func:`resolve_physics` works in two halves. The trap half reads the
species, the ``lattice`` and ``noise`` sections, ``protocol.a_scatt_au``,
``protocol.gate_time_us``, ``protocol.depth_factor`` and the constants
table, and yields the species optics, the intensity requirement, the
resolved lattice, the interaction energy, the gate time and the
lifetimes. The schedule half adds N and the transport, Ramsey and pulse
times. A sweep passes one dict in which points with equal trap inputs
share one trap half; only this module knows which leaves form that key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import KW_CM2_TO_W_M2, RunConfig, SpeciesEntry
from .constants import CODATA, ConstantsTable, au_to_si_length
from .errors import ConfigError, ParameterError
from .lattice import (
    ROLES,
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


def _trap_physics(species, lattice_section, noise, a_scatt_au, gate_time_us, depth_factor,
                  table) -> tuple:
    """The trap half: everything the schedule half does not fix, from exactly these inputs.

    ``species`` holds the clock, head_up and head_down entries, in that
    order. Returns (clock, head_up, head_down, lattice, requirement,
    interaction, gate_time, decoherence) with the species as optics. N and
    the transport, Ramsey and pulse times enter none of it.
    """
    clock, head_up, head_down = (species_optics(entry, table) for entry in species)

    lambda_m = lattice_section.lambda_m_nm * 1e-9
    probe = LatticeConfig(
        lambda_m=lambda_m,
        intensity=1.0,
        delta=lattice_section.delta,
        transverse_intensity=0.0,
    )
    requirement = min_required_intensity(
        [clock, head_up, head_down], probe, depth_factor=depth_factor, table=table
    )

    if lattice_section.intensity_kW_cm2 is not None:
        intensity = lattice_section.intensity_kW_cm2 * KW_CM2_TO_W_M2
    else:
        intensity = requirement.intensity
        if not intensity > 0.0:
            raise ParameterError(
                "lattice.intensity_kW_cm2 is null and the computed minimum is zero; "
                "set an explicit intensity"
            )
    if lattice_section.transverse_intensity_kW_cm2 is not None:
        transverse = lattice_section.transverse_intensity_kW_cm2 * KW_CM2_TO_W_M2
    else:
        transverse = intensity

    lattice = LatticeConfig(
        lambda_m=lambda_m,
        intensity=intensity,
        delta=lattice_section.delta,
        transverse_intensity=transverse,
    )

    # The lattice sits at the maximum-overlap phase (phi = 0), where the two
    # atoms share a well: trap frequencies and the collisional energy are
    # evaluated there.
    clock_freqs = trap_frequencies(lattice, clock, table)
    head_freqs = trap_frequencies(lattice, head_up, table)
    a_scatt = au_to_si_length(a_scatt_au, table)
    delta_e = interaction_energy(
        a_scatt, head_up.mass, clock.mass, head_freqs, clock_freqs, table
    )

    if gate_time_us is not None:
        gate_time = gate_time_us * 1e-6
    else:
        gate_time = phase_gate_duration(delta_e, math.pi, table)

    if noise.tau_scatter_clock_s is not None:
        tau_clock = noise.tau_scatter_clock_s
    else:
        tau_clock = photon_scattering_time(
            clock, intensity, overlap_depth(lattice, clock, table), lambda_m, table
        )
    if noise.tau_scatter_head_s is not None:
        tau_head = noise.tau_scatter_head_s
    else:
        tau_head = photon_scattering_time(
            head_up, intensity, overlap_depth(lattice, head_up, table), lambda_m, table
        )
    decoherence = DecoherenceParams(
        tau_scatter_clock=tau_clock,
        tau_scatter_head=tau_head,
        extra_loss_rate=noise.extra_loss_rate_per_s,
    )
    return clock, head_up, head_down, lattice, requirement, delta_e, gate_time, decoherence


def _zero_signs(inputs: tuple) -> tuple:
    """The sign of every zero among the trap inputs' numbers.

    0.0 == -0.0, yet a gate time of -0.0 us writes apart from 0.0: two
    inputs share a trap only if their zeros carry the same signs.
    """
    species, lattice_section, noise, *scalars, table = inputs
    values = [*scalars, *vars(lattice_section).values(), *vars(noise).values(),
              *vars(table).values()]
    for entry in species:
        values.extend(vars(entry).values())
    return tuple(math.copysign(1.0, v) for v in values if v == 0.0)


def resolve_physics(cfg: RunConfig, table: ConstantsTable = CODATA, *,
                    traps: dict | None = None) -> PhysicsBundle:
    """The config's physics: its trap half, then its schedule half.

    ``traps``, a dict the caller owns, shares the trap half between calls
    whose trap inputs are equal, as a sweep's points often are; a trap half
    that raises stores nothing. A total duration beyond the float range is a
    config error of the leaf of its largest term.
    """
    protocol = cfg.protocol
    inputs = (tuple(map(cfg.species_by_role, ROLES)), cfg.lattice, cfg.noise,
              protocol.a_scatt_au, protocol.gate_time_us, protocol.depth_factor, table)
    if traps is None:
        trap = _trap_physics(*inputs)
    else:
        key = (inputs, _zero_signs(inputs))
        trap = traps.get(key)
        if trap is None:
            trap = traps[key] = _trap_physics(*inputs)
    clock, head_up, head_down, lattice, requirement, delta_e, gate_time, decoherence = trap

    schedule = ProtocolSchedule(
        protocol.n_atoms, gate_time, protocol.transport_time_us * 1e-6,
        protocol.ramsey_time_s, protocol.pulse_time_us * 1e-6,
    )
    if not math.isfinite(schedule.total_duration):  # 7 t_pulse, at most 1.3e303 s, is never the largest term
        terms = {"protocol.transport_time_us": 2 * protocol.n_atoms * schedule.transport_time,
                 "protocol.gate_time_us": 2 * protocol.n_atoms * schedule.gate_time,
                 "protocol.ramsey_time_s": schedule.ramsey_time}
        raise ConfigError(max(terms, key=terms.get),
                          "the schedule's total duration overflows the float range")

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

    A probe whose clock phase dw T, head phase dw' T or Ramsey phase
    chi = (N dw + dw') T overflows the float range, checked in that order, is
    a config error of dw' for the head phase and else of dw: of an explicit
    detuning, or of the Ramsey time that places the default one.
    """
    run, protocol = cfg.run, cfg.protocol
    t, dwh = protocol.ramsey_time_s, run.delta_omega_head_rad_s
    if run.delta_omega_rad_s is not None:
        delta_omega, field = run.delta_omega_rad_s, "run.delta_omega_rad_s"
    else:
        if not t > 0.0:
            raise ParameterError(
                "protocol.ramsey_time_s must be positive to place the default probe detuning"
            )
        delta_omega = (math.pi / 2.0 / t - dwh) / protocol.n_atoms  # chi = pi / 2
        field = "protocol.ramsey_time_s"
    phases = {"clock": (field, delta_omega * t), "head": ("run.delta_omega_head_rad_s", dwh * t),
              "Ramsey": (field, (protocol.n_atoms * delta_omega + dwh) * t)}
    for name, (leaf, phase) in phases.items():
        if not math.isfinite(phase):
            raise ConfigError(leaf, f"the {name} phase of the probe detunings (dw, dw') = "
                                    f"({delta_omega!r}, {dwh!r}) rad/s overflows the float range")
    return delta_omega
