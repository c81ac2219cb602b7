"""Monte Carlo scattering trajectories under the pessimistic noise model.

A single scattering event anywhere in the register (any clock atom, the
head, or the aggregate extra-loss channel) during the schedule is assumed
to decohere the fringe completely, so a trajectory either reproduces the
noiseless readout probability or returns 1/2.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .rates import DecoherenceParams, ProtocolSchedule


def sample_trajectory_batch(
    n_atoms: int,
    schedule: ProtocolSchedule,
    params: DecoherenceParams,
    n_trajectories: int,
    seed,
    p_up_noiseless: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of trajectories: (p_up array, scattered bool array).

    A trajectory scatters when the first arrival of the total Poisson
    event process falls inside the schedule; all first-arrival times are
    drawn from one seeded stream. ``seed`` may be an int or a sequence of
    ints.
    """
    if n_trajectories < 1:
        raise ParameterError("n_trajectories must be >= 1")
    rng = np.random.default_rng(seed)
    rate = params.total_rate(n_atoms)
    if rate <= 0.0:
        scattered = np.zeros(n_trajectories, dtype=bool)
    else:
        times = rng.exponential(1.0 / rate, size=n_trajectories)
        scattered = times < schedule.total_duration
    p_up = np.where(scattered, 0.5, p_up_noiseless)
    return p_up, scattered
