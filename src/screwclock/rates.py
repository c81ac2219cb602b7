"""Decoherence timescales, gate durations, and the timed protocol schedule.

Rates are evaluated from the lattice parameters; the schedule is pure
bookkeeping that strings the per-site transport and collisional phase
gates into the two generalized pi/2 pulses around the Ramsey free
evolution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .constants import CODATA, ConstantsTable
from .errors import NoInteractionError, ParameterError, UntrappedError
from .lattice import SpeciesOptics, au_to_si_polarizability, recoil_energy

@dataclass(frozen=True)
class DecoherenceParams:
    """Per-atom scattering lifetimes plus an optional aggregate loss rate.

    ``extra_loss_rate`` is a proxy for unknown inelastic collision channels;
    it defaults to zero and simply adds to the total event rate.
    """

    tau_scatter_clock: float   # s, per clock atom
    tau_scatter_head: float    # s, head atom
    extra_loss_rate: float = 0.0  # 1/s

    def __post_init__(self):
        if not self.tau_scatter_clock > 0.0:
            raise ParameterError("tau_scatter_clock must be positive")
        if not self.tau_scatter_head > 0.0:
            raise ParameterError("tau_scatter_head must be positive")
        if self.extra_loss_rate < 0.0:
            raise ParameterError("extra_loss_rate must be >= 0")

    def total_rate(self, n_atoms: int) -> float:
        """Total scattering/loss event rate for n clock atoms plus the head."""
        return (
            n_atoms / self.tau_scatter_clock
            + 1.0 / self.tau_scatter_head
            + self.extra_loss_rate
        )


def schedule_duration(n_atoms, gate_time, transport_time, ramsey_time, pulse_time=0.0):
    """Total duration of one interrogation: 2N (t_transport + t_gate) + T + 7 t_pulse.

    Two passes of N transport and phase-gate steps around the Ramsey
    period, plus seven fixed pulse slots (four clock pulses, two head
    pulses and the readout). Every argument may be a numpy array.
    """
    return 2 * n_atoms * (transport_time + gate_time) + ramsey_time + 7 * pulse_time


@dataclass(frozen=True)
class ProtocolSchedule:
    """One full clock interrogation of N clock atoms, held as its five inputs.

    Pulse and readout slots default to zero time, negligible against the
    ms-scale transport stages; :func:`schedule_steps` lists the steps.
    """

    n_atoms: int
    gate_time: float        # s
    transport_time: float   # s
    ramsey_time: float      # s
    pulse_time: float = 0.0  # s

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ParameterError(f"n_atoms must be >= 1, got {self.n_atoms}")
        for label in ("gate_time", "transport_time", "ramsey_time", "pulse_time"):
            value = getattr(self, label)
            if not value >= 0.0:
                raise ParameterError(f"{label} must be >= 0, got {value}")

    @property
    def total_duration(self) -> float:
        return schedule_duration(
            self.n_atoms, self.gate_time, self.transport_time, self.ramsey_time, self.pulse_time
        )


def schedule_steps(schedule: ProtocolSchedule) -> tuple[list[str], list[float], list[int | None]]:
    """The steps of one interrogation, in order, as three columns: (kinds, durations, sites).

    The pattern :func:`schedule_duration` sums: clock and head pulses, a
    transport/phase-gate pass over sites 0..N-1, clock pulse, free
    evolution, clock pulse, the same pass, clock pulse, head pulse, readout.
    """
    def slots(*kinds):
        return kinds, [schedule.pulse_time] * len(kinds), [None] * len(kinds)

    n = schedule.n_atoms
    sites = [None] * (2 * n)
    sites[::2] = range(n)
    sites[1::2] = sites[::2]
    gate_pass = (["transport", "phase_gate"] * n,
                 [schedule.transport_time, schedule.gate_time] * n, sites)
    parts = (slots("hadamard_all", "head_pulse"), gate_pass, slots("hadamard_all"),
             (["free_evolution"], [schedule.ramsey_time], [None]), slots("hadamard_all"),
             gate_pass, slots("hadamard_all", "head_pulse", "readout"))
    return tuple(list(itertools.chain.from_iterable(column)) for column in zip(*parts))


def photon_scattering_time(
    species: SpeciesOptics,
    intensity: float,
    depth: float,
    lambda_m: float,
    table: ConstantsTable = CODATA,
) -> float:
    """Photon-scattering lifetime (seconds) of one trapped atom.

    Rayleigh rate for a polarizable particle, suppressed by
    eta = (1/2) sqrt(E_R / dU) because the wavefunction is centered on an
    intensity minimum of the blue-detuned lattice:

        1 / tau = eta * omega^3 * alpha^2 * I / (6 pi eps0^2 hbar c^4)

    Returns inf for vanishing polarizability.
    """
    if not depth > 0.0:
        raise UntrappedError(f"scattering suppression undefined for depth {depth} <= 0")
    if not intensity > 0.0:
        raise ParameterError("intensity must be positive")
    e_r = recoil_energy(species.mass, lambda_m, table)
    eta = 0.5 * math.sqrt(e_r / depth)
    alpha = au_to_si_polarizability(species.alpha_scalar, table)
    if alpha == 0.0:
        return math.inf
    omega = 2.0 * math.pi * table.speed_of_light / lambda_m
    rate = (
        eta
        * omega**3
        * alpha**2
        * intensity
        / (
            6.0
            * math.pi
            * table.vacuum_permittivity**2
            * table.planck_reduced
            * table.speed_of_light**4
        )
    )
    return 1.0 / rate


def interaction_energy(
    a_scatt: float,
    m1: float,
    m2: float,
    omegas1,
    omegas2,
    table: ConstantsTable = CODATA,
) -> float:
    """Mean-field energy of two particles overlapped in their trap ground states.

    dE = (2 a / mbar) sqrt(hbar / pi) * prod_i sqrt((m omega)bar_i), where
    mbar is the reduced mass and (m omega)bar_i the axis-wise reduced
    mass-frequency product. The sign follows the scattering length.
    """
    if not (m1 > 0.0 and m2 > 0.0):
        raise ParameterError("masses must be positive")
    omegas1 = tuple(float(w) for w in omegas1)
    omegas2 = tuple(float(w) for w in omegas2)
    if len(omegas1) != 3 or len(omegas2) != 3:
        raise ParameterError("three trap frequencies per particle are required")
    if any(w <= 0.0 for w in omegas1 + omegas2):
        raise ParameterError("trap frequencies must be positive")
    mbar = m1 * m2 / (m1 + m2)
    product = 1.0
    for w1, w2 in zip(omegas1, omegas2):
        reduced = (m1 * w1) * (m2 * w2) / (m1 * w1 + m2 * w2)
        product *= math.sqrt(reduced)
    return (2.0 * a_scatt / mbar) * math.sqrt(table.planck_reduced / math.pi) * product


def phase_gate_duration(
    delta_e: float, target_phase: float = math.pi, table: ConstantsTable = CODATA
) -> float:
    """Hold time for the collisional phase gate: target_phase * hbar / |dE|."""
    if delta_e == 0.0:
        raise NoInteractionError("zero interaction energy, phase gate impossible")
    if target_phase < 0.0:
        raise ParameterError("target_phase must be >= 0")
    return target_phase * table.planck_reduced / abs(delta_e)


def survival_probability(schedule: ProtocolSchedule, params: DecoherenceParams) -> float:
    """Probability that no scattering or loss event occurs during the schedule.

    Pessimistic model: a single event anywhere (any of the schedule's N
    clock atoms or the head) during the whole schedule destroys the fringe,
    so survival is exp(-duration * total_rate).
    """
    return math.exp(-schedule.total_duration * params.total_rate(schedule.n_atoms))


def scatter_probability(schedule: ProtocolSchedule, params: DecoherenceParams) -> float:
    """Probability of at least one event during the schedule: 1 - survival.

    Computed as -expm1(-duration * total_rate), which keeps its relative
    precision where the exponent is far below one ulp of 1.
    """
    return -math.expm1(-schedule.total_duration * params.total_rate(schedule.n_atoms))
