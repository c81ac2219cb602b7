"""Decoherence timescales, gate durations, and the timed protocol schedule.

Rates are evaluated from the lattice parameters; the schedule is pure
bookkeeping that strings the per-site transport and collisional phase
gates into the two generalized pi/2 pulses around the Ramsey free
evolution.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
    ms-scale transport stages. The steps are never held as objects:
    :func:`schedule_rows` writes them from the pattern as table text.
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
    def n_steps(self) -> int:
        """4N + 8: two passes of 2N transport and phase-gate steps, and eight slots."""
        return 4 * self.n_atoms + 8

    @property
    def total_duration(self) -> float:
        return schedule_duration(
            self.n_atoms, self.gate_time, self.transport_time, self.ramsey_time, self.pulse_time
        )


# Columns of the schedule table, and the sites whose rows are made at a time:
# 512 sites are 1024 rows, the chunk the writer uses for columns.
SCHEDULE_COLUMNS = ("step_index", "kind", "duration_s", "site")
_BLOCK_SITES = 512


def schedule_rows(schedule: ProtocolSchedule) -> Iterator[str]:
    """The schedule table's 4N + 8 rows as CSV text, in chunks of whole rows.

    The pattern :func:`schedule_duration` sums: clock and head pulses, a
    transport/phase-gate pass over sites 0..N-1, clock pulse, free
    evolution, clock pulse, the same pass, clock pulse, head pulse, readout.
    Each duration is ``str`` of its value, formatted once; the pulse,
    readout and free-evolution rows leave ``site`` empty. No cell needs CSV
    quoting: the kinds are fixed words, and ``str`` of an int or of a
    non-negative float holds no comma, quote or newline.
    """
    n = schedule.n_atoms
    pulse, ramsey = str(schedule.pulse_time), str(schedule.ramsey_time)
    transport = ",transport," + str(schedule.transport_time) + ","
    gate = ",phase_gate," + str(schedule.gate_time) + ","

    def gate_pass(first):  # rows first .. first + 2N - 1
        for start in range(0, n, _BLOCK_SITES):
            stop = min(start + _BLOCK_SITES, n)
            steps = range(first + 2 * start, first + 2 * stop, 2)
            yield "".join([f"{k}{transport}{s}\n{k + 1}{gate}{s}\n"
                           for s, k in zip(range(start, stop), steps)])

    yield f"0,hadamard_all,{pulse},\n1,head_pulse,{pulse},\n"
    yield from gate_pass(2)
    k = 2 * n + 2
    yield f"{k},hadamard_all,{pulse},\n{k + 1},free_evolution,{ramsey},\n{k + 2},hadamard_all,{pulse},\n"
    yield from gate_pass(k + 3)
    k += 2 * n + 3
    yield f"{k},hadamard_all,{pulse},\n{k + 1},head_pulse,{pulse},\n{k + 2},readout,{pulse},\n"


def _digits_below(m: int) -> int:
    """Decimal digits written by the integers 0..m-1 together."""
    return m + sum(m - 10**d for d in range(1, len(str(m))))


def schedule_table_bytes(n_atoms: int, gate_chars: int = 23, transport_chars: int = 23,
                         ramsey_chars: int = 23, pulse_chars: int = 23) -> int:
    """Bytes of the schedule table's CSV, header included, in closed form.

    Each ``*_chars`` is the length of that duration's text. The default 23
    is the longest ``str`` of a non-negative float: 17 significant digits,
    the point and an exponent such as ``e-308``.
    """
    rows = 4 * n_atoms + 8  # ProtocolSchedule.n_steps
    header = len(",".join(SCHEDULE_COLUMNS)) + 1
    kinds = 2 * n_atoms * len("transport" "phase_gate") + len(
        "hadamard_all" * 4 + "head_pulse" * 2 + "free_evolution" + "readout")
    durations = 2 * n_atoms * (gate_chars + transport_chars) + ramsey_chars + 7 * pulse_chars
    # Every site appears in four rows; three commas and a newline end each row.
    return header + _digits_below(rows) + 4 * _digits_below(n_atoms) + kinds + durations + 4 * rows


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
