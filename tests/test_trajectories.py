import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, SeedSequence

from screwclock.errors import ParameterError
from screwclock.estimator import fringe_scan
from screwclock.rates import (
    DecoherenceParams, ProtocolSchedule, scatter_probability, survival_probability,
)
from screwclock.trajectories import _pcg64_states, scatter_counts

from conftest import chi_rounding, reference_trajectory_batch, run_protocol, sample_scatter_count


def _schedule(n, ramsey=0.01):
    return ProtocolSchedule(n, gate_time=20e-6, transport_time=10e-6, ramsey_time=ramsey)


def test_zero_rates_never_scatter():
    params = DecoherenceParams(math.inf, math.inf, 0.0)
    schedule = _schedule(4, ramsey=1.0)
    exact = run_protocol(4, backend="branch", delta_omega=0.3, ramsey_time=1.0).p_up
    chi = 4 * 0.3 * 1.0
    assert exact == pytest.approx(math.sin(chi / 2) ** 2, abs=1e-10)
    q = scatter_probability(schedule, params)
    assert q == 0.0
    assert scatter_counts(q, 100, 99, 3) == [0, 0, 0]
    scan = fringe_scan(4, 1.0, [0.3], backend="branch", trajectories=100, scatter_probability=q,
                       seed=99)
    assert scan.p_up == fringe_scan(4, 1.0, [0.3], backend="branch").p_up
    assert abs(scan.p_up[0] - exact) <= chi_rounding(4, 0.3, 0.0, 1.0)


def test_same_seed_same_outcome():
    params = DecoherenceParams(0.5, 1.0, 0.2)
    schedule = _schedule(10, ramsey=0.05)
    q = scatter_probability(schedule, params)
    a = scatter_counts(q, 200, 1234, 20)
    b = scatter_counts(q, 200, 1234, 20)
    assert all(0 < k < 200 for k in a)
    assert a == b
    assert len(set(a)) > 1
    assert scatter_counts(q, 200, 1235, 20) != a


def test_scattered_trajectory_reads_half():
    params = DecoherenceParams(1e-6, 1e-6)  # certain scattering
    schedule = _schedule(5, ramsey=1.0)
    q = scatter_probability(schedule, params)
    assert scatter_counts(q, 100, 0, 3) == [100, 100, 100]
    scan = fringe_scan(5, 1.0, np.linspace(0.0, 1.0, 7), backend="dense", trajectories=100,
                       scatter_probability=q, seed=0)
    assert scan.p_up == (0.5,) * 7


def test_scattered_fraction_matches_survival_formula():
    n, ramsey = 50, 0.02
    params = DecoherenceParams(5.0, 8.0, 0.1)
    schedule = _schedule(n, ramsey)
    expected = 1.0 - survival_probability(schedule, params)
    observed = scatter_counts(scatter_probability(schedule, params), 10_000, 7, 1)[0] / 10_000
    sigma = math.sqrt(expected * (1 - expected) / 10_000)
    assert abs(observed - expected) < 3 * sigma


def test_batch_mixes_noiseless_and_half():
    # The scan's closed form p + (0.5 - p) K / n is the mean of the
    # expanded batch of K halves and n - K noiseless values.
    params = DecoherenceParams(1.0, 1.0)
    schedule = _schedule(3, ramsey=0.5)
    for p_up in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
        for n_trajectories in (1, 7, 1000):
            values, scattered = reference_trajectory_batch(3, schedule, params, n_trajectories,
                                                           seed=3, p_up_noiseless=p_up)
            k = int(np.count_nonzero(scattered))
            assert 0 < k < n_trajectories or n_trajectories == 1
            closed_form = p_up + (0.5 - p_up) * (k / n_trajectories)
            assert abs(closed_form - values.mean()) <= 1e-15


def test_batch_is_deterministic():
    params = DecoherenceParams(2.0, 3.0)
    schedule = _schedule(8, ramsey=0.1)
    q = scatter_probability(schedule, params)
    a = scatter_counts(q, 500, 5, 2)
    b = scatter_counts(q, 500, 5, 2)
    assert a == b
    scans = [fringe_scan(8, 0.1, np.linspace(0.0, 5.0, 11), backend="dense", trajectories=500,
                         scatter_probability=q, seed=5) for _ in range(2)]
    assert scans[0] == scans[1]


def test_rejects_empty_batch():
    q = scatter_probability(_schedule(3), DecoherenceParams(1.0, 1.0))
    with pytest.raises(ParameterError, match="n_trajectories"):
        scatter_counts(q, 0, 0, 1)


def test_rejects_a_negative_seed_and_a_point_past_one_entropy_word():
    q = scatter_probability(_schedule(3), DecoherenceParams(1.0, 1.0))
    with pytest.raises(ParameterError, match="seed"):
        scatter_counts(q, 10, -1, 1)
    # Point 2^32 would take a second entropy word; refused before any array is built.
    with pytest.raises(ParameterError, match="2\\^32"):
        scatter_counts(q, 10, 0, 2**32 + 1)


def test_a_numpy_integer_seed_draws_as_its_python_int():
    q = scatter_probability(_schedule(3), DecoherenceParams(1.0, 1.0))
    assert scatter_counts(q, 1000, np.uint64(2**64 - 1), 5) == scatter_counts(q, 1000, 2**64 - 1, 5)
    with pytest.raises(TypeError):
        scatter_counts(q, 1000, 7.0, 5)


def test_count_is_a_python_int_up_to_int64():
    n, n_trajectories = 20, 2**63 - 1
    params = DecoherenceParams(5.0, 8.0)
    schedule = _schedule(n, ramsey=0.02)
    q = scatter_probability(schedule, params)
    [k] = scatter_counts(q, n_trajectories, 11, 1)
    assert type(k) is int
    sigma = math.sqrt(q * (1.0 - q) / n_trajectories)
    assert abs(k / n_trajectories - q) < 5 * sigma + 1e-15


def test_binomial_count_matches_reference_sampler():
    # Over many seeds, the binomial count and the per-trajectory reference
    # count both have mean n q and variance n q (1 - q).
    n_atoms, n_trajectories, seeds = 30, 200, 2000
    params = DecoherenceParams(5.0, 8.0, 0.5)
    schedule = _schedule(n_atoms, ramsey=0.05)
    q = scatter_probability(schedule, params)
    mean, variance = n_trajectories * q, n_trajectories * q * (1.0 - q)
    assert 0.1 < q < 0.9
    binomial = np.array([scatter_counts(q, n_trajectories, s, 1)[0] for s in range(seeds)])
    reference = np.array([np.count_nonzero(reference_trajectory_batch(
        n_atoms, schedule, params, n_trajectories, seed=[s, 1], p_up_noiseless=0.0)[1])
        for s in range(seeds)])
    # Standard errors of the sample mean and (near-normal) sample variance.
    mean_sigma = math.sqrt(variance / seeds)
    variance_sigma = variance * math.sqrt(2.0 / (seeds - 1))
    for counts in (binomial, reference):
        assert abs(counts.mean() - mean) < 5 * mean_sigma
        assert abs(counts.var(ddof=1) - variance) < 5 * variance_sigma


def test_scan_point_i_draws_from_substream_seed_i():
    n, n_trajectories, seed = 4, 1000, 42
    params = DecoherenceParams(1.0, 1.0)
    q = scatter_probability(_schedule(n, ramsey=0.5), params)
    scan = fringe_scan(n, 0.5, np.zeros(12), backend="dense", trajectories=n_trajectories,
                       scatter_probability=q, seed=seed)
    counts = [sample_scatter_count(q, n_trajectories, seed=[seed, i]) for i in range(12)]
    # p = 0 at zero detuning, so each point is exactly K_i / (2 n).
    assert scan.p_up == tuple(0.5 * (k / n_trajectories) for k in counts)
    assert len(set(counts)) > 1


# Seeds of one to four 32-bit words and past: entropy within the pool's 4 words and beyond.
_SEEDS = st.integers(0, 2**32) | st.integers(0, 2**130) | st.sampled_from(
    [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**96 - 1, 2**96, 2**100 + 7])


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, count=st.integers(1, 300), n_trajectories=st.integers(1, 2**63 - 1),
       q=st.floats(0.0, 1.0))
@example(seed=12345, count=101, n_trajectories=10**6, q=0.3)
@example(seed=2**100 + 7, count=1, n_trajectories=2**63 - 1, q=1e-9)
def test_scatter_counts_equal_a_generator_per_point(seed, count, n_trajectories, q):
    expected = [sample_scatter_count(q, n_trajectories, seed=[seed, i]) for i in range(count)]
    assert scatter_counts(q, n_trajectories, seed, count) == expected


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, count=st.integers(1, 40))
@example(seed=0, count=3)
@example(seed=2**63 - 1, count=3)
@example(seed=2**64 + 3, count=3)
def test_derived_states_equal_seed_sequence_seeding(seed, count):
    for i, (state, inc) in enumerate(_pcg64_states(seed, count)):
        expected = PCG64(SeedSequence([seed, i])).state["state"]
        assert (state, inc) == (expected["state"], expected["inc"])
