"""Resolution of a parsed config into physics objects and derived quantities.

This is the single place where config units (nm, kW/cm^2, us, atomic
units) become SI, where "computed" placeholders (null intensity, null
lifetimes, null gate time) are filled in from the lattice physics, and
where the protocol schedule is assembled.

:func:`resolve_physics` works in two halves. The trap half reads the
species optics, the ``lattice`` section, ``protocol.a_scatt_au``,
``protocol.depth_factor``, whether each lifetime is null, and the
constants table, and yields the intensity requirement, the resolved
lattice, the interaction energy and the lifetimes it computes. Each point
then applies its own gate time (given, or pi hbar / dE), given lifetimes
and extra loss rate, and its schedule: N and the transport, Ramsey and
pulse times. A sweep passes one dict in which its points share one set of
species optics, and points with equal trap inputs one trap half; only
this module knows which leaves form those keys. No leaf in a key changes
an output through the sign of a zero, so 0.0 and -0.0 may share a trap.

Every float leaf the config accepts lies in its declared range, inside
which every quantity derived here is a finite float but two. The computed
minimum intensity is held to the upper end of the intensity leaf's range
where it sets the intensity, and beside an explicit one is held to be
finite; a computed scattering lifetime is held to be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import INTENSITY_KW_CM2_RANGE, KW_CM2_TO_W_M2, RunConfig, SpeciesEntry
from .constants import CODATA, ConstantsTable, au_to_si_length
from .errors import ConfigError
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


def _trap_physics(optics, lattice_section, a_scatt_au, depth_factor, clock_tau_null, head_tau_null,
                  table) -> tuple:
    """The trap half: what the species, the lattice and the collision length fix.

    ``optics`` holds the clock, head_up and head_down optics, in that
    order. Returns (lattice, requirement, interaction, tau_clock,
    tau_head), where a lifetime is computed only if its flag says the
    config leaves it null, and is None otherwise. Where the computed
    minimum intensity sets the intensity, one above the intensity leaf's
    range or of zero is a config error of ``protocol.depth_factor``; beside
    an explicit intensity only a non-finite one is. An infinite computed
    lifetime is a config error of its own leaf.
    """
    clock, head_up, _ = optics

    lambda_m = lattice_section.lambda_m_nm * 1e-9
    probe = LatticeConfig(
        lambda_m=lambda_m,
        intensity=1.0,
        delta=lattice_section.delta,
        transverse_intensity=0.0,
    )
    requirement = min_required_intensity(
        list(optics), probe, depth_factor=depth_factor, table=table
    )
    if lattice_section.intensity_kW_cm2 is not None:
        intensity = lattice_section.intensity_kW_cm2 * KW_CM2_TO_W_M2
        if not math.isfinite(requirement.intensity):
            raise ConfigError("protocol.depth_factor", "the computed minimum intensity overflows "
                                                       "the float range")
    elif requirement.intensity > INTENSITY_KW_CM2_RANGE[1] * KW_CM2_TO_W_M2:
        raise ConfigError("protocol.depth_factor", f"the minimum intensity {requirement.intensity!r} W/m^2 "
                                                   "lies above lattice.intensity_kW_cm2's range")
    elif requirement.intensity > 0.0:
        intensity = requirement.intensity
    else:
        raise ConfigError("protocol.depth_factor", "the computed minimum intensity is zero while "
                                                   "lattice.intensity_kW_cm2 is null; set an intensity")
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
    lifetimes = [photon_scattering_time(s, intensity, overlap_depth(lattice, s, table), lambda_m, table)
                 if null else None for s, null in ((clock, clock_tau_null), (head_up, head_tau_null))]
    for tau, leaf in zip(lifetimes, ("noise.tau_scatter_clock_s", "noise.tau_scatter_head_s")):
        if tau == math.inf:  # a scattering rate, as alpha^2, that underflows to 0
            raise ConfigError(leaf, "the computed photon-scattering lifetime is infinite; set a lifetime")
    return (lattice, requirement, delta_e, *lifetimes)


def resolve_physics(cfg: RunConfig, table: ConstantsTable = CODATA, *,
                    traps: dict | None = None) -> PhysicsBundle:
    """The config's physics: its trap half, then what each point sets itself.

    ``traps``, a dict the caller owns, shares the species optics between
    calls with equal species and constants, as all of a sweep's points
    have, and the trap half between those whose trap inputs are equal too,
    as a sweep's points often are; a trap half that raises stores nothing.
    Without one, the call uses a dict of its own. Each point then applies
    its own gate time, given or pi hbar / dE, its given lifetimes and its
    extra loss rate, and builds its schedule.
    """
    protocol, noise = cfg.protocol, cfg.noise
    if traps is None:
        traps = {}
    species = tuple(map(cfg.species_by_role, ROLES))
    group = (species, table)
    optics, halves = traps.get(group) or (tuple(species_optics(entry, table) for entry in species), {})
    key = (cfg.lattice, protocol.a_scatt_au, protocol.depth_factor,
           noise.tau_scatter_clock_s is None, noise.tau_scatter_head_s is None)
    trap = halves.get(key)
    if trap is None:
        trap = halves[key] = _trap_physics(optics, *key, table)
        traps[group] = optics, halves
    lattice, requirement, delta_e, tau_clock, tau_head = trap

    if protocol.gate_time_us is not None:
        gate_time = protocol.gate_time_us * 1e-6
    else:
        gate_time = phase_gate_duration(delta_e, math.pi, table)
    decoherence = DecoherenceParams(
        tau_scatter_clock=tau_clock if tau_clock is not None else noise.tau_scatter_clock_s,
        tau_scatter_head=tau_head if tau_head is not None else noise.tau_scatter_head_s,
        extra_loss_rate=noise.extra_loss_rate_per_s,
    )
    schedule = ProtocolSchedule(
        protocol.n_atoms, gate_time, protocol.transport_time_us * 1e-6,
        protocol.ramsey_time_s, protocol.pulse_time_us * 1e-6,
    )

    clock, head_up, head_down = optics
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

    The default grid needs a Ramsey time to place it: T = 0 is a config
    error of ``protocol.ramsey_time_s``.
    """
    run = cfg.run
    if run.detuning_min_rad_s is not None and run.detuning_max_rad_s is not None:
        lo, hi = run.detuning_min_rad_s, run.detuning_max_rad_s
    else:
        t = cfg.protocol.ramsey_time_s
        if not t > 0.0:
            raise ConfigError("protocol.ramsey_time_s", "must be positive for an automatic detuning grid")
        hi = 2.0 * (2.0 * math.pi) / (cfg.protocol.n_atoms * t)
        lo = 0.0
    n = run.detuning_points
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def probe_detuning(cfg: RunConfig) -> float:
    """Detuning for single-shot simulation; default is the half-fringe point.

    The default probe needs a Ramsey time to place it: T = 0 is a config
    error of ``protocol.ramsey_time_s``.
    """
    run, protocol = cfg.run, cfg.protocol
    if run.delta_omega_rad_s is not None:
        return run.delta_omega_rad_s
    t = protocol.ramsey_time_s
    if not t > 0.0:
        raise ConfigError("protocol.ramsey_time_s", "must be positive to place the default probe")
    return (math.pi / 2.0 / t - run.delta_omega_head_rad_s) / protocol.n_atoms  # chi = pi / 2
