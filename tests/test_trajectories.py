import math

import numpy as np
import pytest

from screwclock import (
    DecoherenceParams,
    build_schedule,
    run_protocol,
    sample_trajectory_batch,
    survival_probability,
)


def _schedule(n, ramsey=0.01):
    return build_schedule(n, gate_time=20e-6, transport_time=10e-6, ramsey_time=ramsey)


def test_zero_rates_never_scatter():
    params = DecoherenceParams(math.inf, math.inf, 0.0)
    schedule = _schedule(4, ramsey=1.0)
    exact = run_protocol(4, backend="branch", delta_omega=0.3, ramsey_time=1.0).p_up
    chi = 4 * 0.3 * 1.0
    assert exact == pytest.approx(math.sin(chi / 2) ** 2, abs=1e-10)
    p_up, scattered = sample_trajectory_batch(4, schedule, params, 100, seed=99, p_up_noiseless=exact)
    assert not scattered.any()
    assert np.all(p_up == exact)


def test_same_seed_same_outcome():
    params = DecoherenceParams(0.5, 1.0, 0.2)
    schedule = _schedule(10, ramsey=0.05)
    a = sample_trajectory_batch(10, schedule, params, 200, seed=1234, p_up_noiseless=0.3)
    b = sample_trajectory_batch(10, schedule, params, 200, seed=1234, p_up_noiseless=0.3)
    assert a[1].any() and not a[1].all()
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_scattered_trajectory_reads_half():
    params = DecoherenceParams(1e-6, 1e-6)  # certain scattering
    schedule = _schedule(5, ramsey=1.0)
    p_up, scattered = sample_trajectory_batch(5, schedule, params, 100, seed=0, p_up_noiseless=0.9)
    assert scattered.all()
    assert np.all(p_up == 0.5)


def test_scattered_fraction_matches_survival_formula():
    n, ramsey = 50, 0.02
    params = DecoherenceParams(5.0, 8.0, 0.1)
    schedule = _schedule(n, ramsey)
    expected = 1.0 - survival_probability(schedule, n, params)
    _, scattered = sample_trajectory_batch(n, schedule, params, 10_000, seed=7, p_up_noiseless=0.3)
    observed = scattered.mean()
    sigma = math.sqrt(expected * (1 - expected) / 10_000)
    assert abs(observed - expected) < 3 * sigma


def test_batch_mixes_noiseless_and_half():
    params = DecoherenceParams(1.0, 1.0)
    schedule = _schedule(3, ramsey=0.5)
    p_up, scattered = sample_trajectory_batch(3, schedule, params, 1000, seed=3, p_up_noiseless=0.9)
    assert set(np.unique(p_up)) == {0.5, 0.9}
    assert np.all(p_up[scattered] == 0.5)
    assert np.all(p_up[~scattered] == 0.9)


def test_batch_is_deterministic():
    params = DecoherenceParams(2.0, 3.0)
    schedule = _schedule(8, ramsey=0.1)
    a = sample_trajectory_batch(8, schedule, params, 500, seed=[5, 1], p_up_noiseless=0.4)
    b = sample_trajectory_batch(8, schedule, params, 500, seed=[5, 1], p_up_noiseless=0.4)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
