"""Monte Carlo scattering trajectories under the pessimistic noise model.

A single scattering event anywhere in the register (any clock atom, the
head, or the aggregate extra-loss channel) during the schedule is assumed
to decohere the fringe completely, so a trajectory either reproduces the
noiseless readout probability or returns 1/2. Trajectories are independent
and scatter with the same probability, so a batch is summarized exactly by
its scatter count, one binomial draw.
"""

from __future__ import annotations

import math

from numpy.random import default_rng

from .errors import ParameterError
from .rates import DecoherenceParams, ProtocolSchedule


def sample_scatter_count(
    n_atoms: int,
    schedule: ProtocolSchedule,
    params: DecoherenceParams,
    n_trajectories: int,
    seed,
) -> int:
    """Number of ``n_trajectories`` trajectories that scatter during the schedule.

    A trajectory scatters when the first arrival of the total Poisson event
    process falls inside the schedule, with probability
    q = 1 - exp(-duration * rate); the count is one Binomial(n, q) draw from
    ``default_rng(seed)``. ``seed`` may be an int or a sequence of ints.
    """
    if n_trajectories < 1:
        raise ParameterError("n_trajectories must be >= 1")
    rate = params.total_rate(n_atoms)
    if rate <= 0.0:
        return 0
    q = -math.expm1(-schedule.total_duration * rate)
    return int(default_rng(seed).binomial(n_trajectories, q))
