"""Clock precision figures from simulated readout statistics.

Turns fringe scans into contrast and period estimates, propagates the
single-head-qubit projection noise into a detuning sensitivity, compares
against the unentangled square-root-of-N baseline, and finds the
decoherence-limited optimum atom number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.fft import rfft, rfftfreq

from .errors import DegenerateFringeError, ParameterError
from .rates import DecoherenceParams, ProtocolSchedule, schedule_duration
from .register import init_register, prepare_ghz
from .trajectories import scatter_counts

_FLAT_TOL = 1e-12
# Levenberg-Marquardt steps before the fit gives up. Most fits take under 50;
# a noisy fringe of a few points, where undamped Gauss-Newton steps overshoot
# and close in by as little as 0.4 % a step, has taken 76.
_FIT_MAX_ITERATIONS = 1000
_FIT_XTOL = 1e-10          # converged once a step moves the scaled parameters this little
_DAMPING_START = 1e-3      # Marquardt damping, relative to the normal-matrix diagonal
_DAMPING_MAX = 1e16        # no step lowers the cost even at this damping: a float-level minimum
_DAMPING_MIN = 1e-300      # the damping's floor: at 0, raising it tenfold would never reach _DAMPING_MAX
_GAIN_LOW = 0.25           # a step that gains less of its predicted cost drop raises the damping


@dataclass(frozen=True)
class FringeScan:
    """Readout probability versus probe detuning."""

    detunings: tuple[float, ...]       # rad/s
    p_up: tuple[float, ...]
    n_atoms: int
    ramsey_time: float                 # s
    trajectories_per_point: int        # 0 for a noiseless (exact) scan

    def __post_init__(self):
        if len(self.detunings) != len(self.p_up):
            raise ParameterError("detunings and p_up must have equal length")
        if len(self.detunings) == 0:
            raise ParameterError("scan must contain at least one point")
        if any(not 0.0 <= p <= 1.0 for p in self.p_up):
            raise ParameterError("probabilities must lie in [0, 1]")


class FringeFit(NamedTuple):
    contrast: float
    period: float   # rad/s; nan when the scan is flat


def fringe_scan(
    n_atoms: int,
    ramsey_time: float,
    detunings,
    *,
    delta_omega_head: float = 0.0,
    backend: str = "branch",
    trajectories: int = 0,
    scatter_probability: float = 0.0,
    seed: int = 0,
) -> FringeScan:
    """Scan the readout probability over a detuning grid.

    The GHZ state does not depend on the detuning, so
    :func:`~screwclock.register.prepare_ghz` runs once per scan, and the
    state's ``fringe_readout`` gives the whole fringe from it in closed form:
    the ``p_up`` read after ``evolve_and_disentangle`` at each point, to within
    2 eps (N + |N dw T| + |dw' T|), the rounding of the Ramsey phase chi.

    ``trajectories`` 0 gives the exact per-point probability and ignores
    ``scatter_probability``. Otherwise each point is the mean over
    ``trajectories`` Monte Carlo trajectories, each of which scatters, and
    reads 1/2, with probability ``scatter_probability`` (see
    :func:`~screwclock.rates.scatter_probability`): point i's scatter count
    is the draw of ``default_rng([seed, i])``, and one call to
    :func:`~screwclock.trajectories.scatter_counts` draws them all.
    """
    grid = np.asarray(detunings, dtype=float)
    if grid.size == 0:
        raise ParameterError("detuning grid must be non-empty")
    if not np.isfinite(grid).all():
        raise ParameterError("detuning grid must be finite")
    if trajectories < 0:
        raise ParameterError(f"trajectories must be >= 0, got {trajectories}")

    values = prepare_ghz(init_register(n_atoms, backend)).fringe_readout(grid, delta_omega_head, ramsey_time)
    if trajectories:
        # Mean of K halves and (n - K) noiseless values, K drawn per point.
        counts = scatter_counts(scatter_probability, trajectories, seed, grid.size)
        values = values + (0.5 - values) * np.array([k / trajectories for k in counts])
    return FringeScan(
        detunings=tuple(grid.tolist()),
        p_up=tuple(values.tolist()),
        n_atoms=n_atoms,
        ramsey_time=ramsey_time,
        trajectories_per_point=trajectories,
    )


def _initial_frequency(x: np.ndarray, y: np.ndarray) -> float:
    # Coarse angular frequency from a zero-padded periodogram on the
    # (assumed near-uniform) grid, ascending or descending.
    n = x.size
    detrended = y - y.mean()
    padded = np.zeros(8 * n)
    padded[:n] = detrended
    spectrum = np.abs(rfft(padded))
    spectrum[0] = 0.0
    dx = abs(x[-1] - x[0]) / (n - 1)
    freqs = 2.0 * math.pi * rfftfreq(padded.size, d=dx)
    return float(freqs[int(np.argmax(spectrum))])


def _fit_sinusoid(x: np.ndarray, y: np.ndarray, omega0: float) -> np.ndarray | None:
    """Least-squares (offset, a, b, omega) of offset + a cos(omega x) + b sin(omega x).

    The model is linear in (offset, a, b) and nonlinear in omega only
    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973): linear least
    squares at ``omega0`` starts Levenberg-Marquardt on all four parameters
    (Marquardt, SIAM J. Appl. Math. 11, 431, 1963), with the analytic
    Jacobian [1, cos, sin, x (b cos - a sin)]. After a step that lowers the
    residual sum of squares the damping drops tenfold, unless the step
    gained less than a quarter of what the linear model predicts: then it
    rises tenfold, so steps that overshoot the minimum to its far side get
    shorter (the gain ratio of Moré, Lecture Notes in Math. 630, 105, 1978).
    The damping never drops below _DAMPING_MIN, so a run of steps that fail
    after many that succeeded still raises it to _DAMPING_MAX.
    Iterates until a step moves the scaled parameters by less than
    _FIT_XTOL, or until no step lowers the residual sum of squares. Returns
    None on singular normal equations or after _FIT_MAX_ITERATIONS steps
    without converging.
    """
    ones = np.ones_like(x)

    def basis_at(omega):
        # [1, cos, sin]: the model's linear columns, and the first three of its Jacobian
        return np.stack([ones, np.cos(omega * x), np.sin(omega * x)], axis=1)

    basis = basis_at(omega0)
    try:
        params = np.append(np.linalg.solve(basis.T @ basis, basis.T @ y), omega0)
    except np.linalg.LinAlgError:
        return None
    residual = y - basis @ params[:3]
    cost = residual @ residual
    damping = _DAMPING_START
    for _ in range(_FIT_MAX_ITERATIONS):
        _, cos, sin = basis.T
        jacobian = np.column_stack([basis, x * (params[2] * cos - params[1] * sin)])
        normal = jacobian.T @ jacobian
        gradient = jacobian.T @ residual
        scale = np.diag(normal)
        while True:
            try:
                step = np.linalg.solve(normal + np.diag(damping * scale), gradient)
            except np.linalg.LinAlgError:
                return None
            trial = params + step
            trial_basis = basis_at(trial[3])
            trial_residual = y - trial_basis @ trial[:3]
            trial_cost = trial_residual @ trial_residual
            if trial_cost < cost:
                break
            damping *= 10.0
            if damping > _DAMPING_MAX:
                return params
        # the linear model's cost drop: step . (gradient + damping * scale * step)
        predicted = step @ gradient + damping * (step @ (scale * step))
        gain = (cost - trial_cost) / predicted
        params, basis, residual, cost = trial, trial_basis, trial_residual, trial_cost
        damping = damping * 10.0 if gain < _GAIN_LOW else max(damping / 10.0, _DAMPING_MIN)
        weights = np.sqrt(scale)
        if np.linalg.norm(weights * step) <= _FIT_XTOL * np.linalg.norm(weights * params):
            return params
    return None


def analyze_fringe(scan: FringeScan) -> FringeFit:
    """Least-squares sinusoid fit: (contrast, fringe period in rad/s).

    A scan that is flat to machine precision gets contrast 0 and a NaN
    period (undefined), as does a fit that fails (see :func:`_fit_sinusoid`).
    The scan should span at least one full period for the frequency to be
    identifiable.

    The fit runs on the detunings centred and scaled to [-1, 1], so it reads
    the same fringe whatever the grid's units: at a Ramsey time T of 1e-300 s
    the detunings are near 1e300 rad/s and at 1e300 s near 1e-300, where the
    normal equations would overflow or underflow. The fitted angular
    frequency is divided by the half span to give the period in rad/s.
    """
    x = np.asarray(scan.detunings)
    y = np.asarray(scan.p_up)
    if x.size < 4 or float(np.ptp(y)) < _FLAT_TOL:
        return FringeFit(contrast=0.0, period=math.nan)
    lo, hi = float(x.min()), float(x.max())
    centre, half_span = lo / 2.0 + hi / 2.0, hi / 2.0 - lo / 2.0
    if not half_span > 0.0:  # every point at one detuning: no period to read
        return FringeFit(contrast=0.0, period=math.nan)
    u = (x - centre) / half_span

    omega0 = _initial_frequency(u, y)
    if omega0 <= 0.0:
        return FringeFit(contrast=0.0, period=math.nan)

    params = _fit_sinusoid(u, y, omega0)
    if params is None or params[3] == 0.0:
        return FringeFit(contrast=0.0, period=math.nan)
    _, a, b, omega = (float(v) for v in params)
    contrast = min(2.0 * math.hypot(a, b), 1.0)
    return FringeFit(contrast=max(contrast, 0.0), period=2.0 * math.pi / (abs(omega) / half_span))


def phase_sensitivity(contrast: float, n_atoms: int, ramsey_time: float) -> float:
    """Detuning uncertainty of one shot at the half-fringe point.

    Binomial projection noise of a single head-qubit readout, N-enhanced by
    the entangled phase: sigma = 1 / (C N T), inf where C N T underflows to 0.
    """
    if not 0.0 < contrast <= 1.0:
        raise DegenerateFringeError(
            f"sensitivity undefined for contrast {contrast} outside (0, 1]"
        )
    if n_atoms < 1:
        raise ParameterError("n_atoms must be >= 1")
    if not ramsey_time > 0.0:
        raise ParameterError("ramsey_time must be positive")
    product = contrast * n_atoms * ramsey_time
    return 1.0 / product if product else math.inf


def sql_baseline(n_atoms: int, ramsey_time: float) -> float:
    """Projection-noise limit of N unentangled atoms in one shot: 1 / (sqrt(N) T)."""
    if n_atoms < 1:
        raise ParameterError("n_atoms must be >= 1")
    if not ramsey_time > 0.0:
        raise ParameterError("ramsey_time must be positive")
    return 1.0 / (math.sqrt(n_atoms) * ramsey_time)


@dataclass(frozen=True)
class AtomNumberCurve:
    """Survival-weighted gain versus atom number, for inspection and plotting."""

    n_atoms: tuple[int, ...]
    survival: tuple[float, ...]
    figure_of_merit: tuple[float, ...]   # C(N) * N
    gain_over_sql: tuple[float, ...]     # C(N) * sqrt(N)


def optimize_atom_number(
    schedule: ProtocolSchedule, params: DecoherenceParams, n_values
) -> tuple[int, AtomNumberCurve]:
    """Maximize the contrast-weighted Heisenberg gain C(N) * N over N.

    C(N) is the no-scattering survival of ``schedule``'s step times run at N
    atoms: :func:`~screwclock.rates.survival_probability` of that schedule,
    bit for bit. Returns the arg max (smallest N on ties) and the whole
    curve. A grid N whose mean event count overflows the float range has
    survival 0, as its limit, and no warning.
    """
    ns = sorted(dict.fromkeys(int(n) for n in n_values))  # in order, so an ascending grid sorts in O(n)
    if not ns:
        raise ParameterError("n_values must be non-empty")
    if ns[0] < 1:
        raise ParameterError(f"n_atoms must be >= 1, got {ns[0]}")
    gate, transport, ramsey, pulse = (
        schedule.gate_time, schedule.transport_time, schedule.ramsey_time, schedule.pulse_time)
    survival = [math.exp(-params.mean_events(n, schedule_duration(n, gate, transport, ramsey, pulse)))
                for n in ns]
    foms = [s * n for s, n in zip(survival, ns)]
    curve = AtomNumberCurve(
        n_atoms=tuple(ns),
        survival=tuple(survival),
        figure_of_merit=tuple(foms),
        gain_over_sql=tuple([s * math.sqrt(n) for s, n in zip(survival, ns)]),
    )
    return ns[foms.index(max(foms))], curve
