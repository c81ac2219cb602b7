"""Monte Carlo scattering trajectories under the pessimistic noise model.

A single scattering event anywhere in the register (any clock atom, the
head, or the aggregate extra-loss channel) during the schedule is assumed
to decohere the fringe completely, so a trajectory either reproduces the
noiseless readout probability or returns 1/2. Trajectories are independent
and scatter with the same probability, which a scan computes once
(:func:`~screwclock.rates.scatter_probability`), so a batch is summarized
exactly by its scatter count, one binomial draw.
"""

from __future__ import annotations

from numpy.random import default_rng

from .errors import ParameterError


def sample_scatter_count(scatter_probability: float, n_trajectories: int, seed) -> int:
    """Number of ``n_trajectories`` trajectories that scatter during the schedule.

    A trajectory scatters when the first arrival of the total Poisson event
    process falls inside the schedule, which happens with probability
    ``scatter_probability`` (see :func:`~screwclock.rates.scatter_probability`);
    the count is one Binomial(n_trajectories, scatter_probability) draw from
    ``default_rng(seed)``. ``seed`` may be an int or a sequence of ints.
    """
    if n_trajectories < 1:
        raise ParameterError("n_trajectories must be >= 1")
    return int(default_rng(seed).binomial(n_trajectories, scatter_probability))
