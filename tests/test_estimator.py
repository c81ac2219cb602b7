import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from screwclock import estimator
from screwclock.cli import run_command
from screwclock.config import parse_config
from screwclock.errors import DegenerateFringeError, ParameterError
from screwclock.estimator import (
    FringeScan, _fit_sinusoid, _initial_frequency, analyze_fringe, fringe_scan,
    optimize_atom_number, phase_sensitivity, sql_baseline,
)
from screwclock.pipeline import resolve_physics
from screwclock.rates import (
    DecoherenceParams, ProtocolSchedule, scatter_probability, survival_probability,
)
from screwclock.register import DenseState

from conftest import chi_rounding, reference_fringe_fit, run_protocol, sample_scatter_count


def _grid(n, t, periods=2.0, points=81):
    return np.linspace(0.0, periods * 2 * math.pi / (n * t), points)


def _synthetic_scan(seed):
    """(scan, contrast, omega): three periods of a random sinusoidal fringe in 120 points."""
    rng = np.random.default_rng(seed)
    omega = rng.uniform(2.0, 20.0)
    contrast = rng.uniform(0.2, 1.0)
    phase = rng.uniform(0, 2 * math.pi)
    x = np.linspace(0, 3 * 2 * math.pi / omega, 120)
    y = 0.5 - 0.5 * contrast * np.cos(omega * x + phase)
    return FringeScan(tuple(x), tuple(y), 3, 0.5, 0), contrast, omega


def _noisy_scan(n, t, points, trajectories, seed):
    """A dense Monte Carlo scan over two periods, scattering as loss rates (1, 2) /s give."""
    q = scatter_probability(ProtocolSchedule(n, 0.0, 0.0, t), DecoherenceParams(1.0, 2.0))
    return fringe_scan(n, t, _grid(n, t, points=points), backend="dense", trajectories=trajectories,
                       scatter_probability=q, seed=seed)


# The scans the fits below read, at one Ramsey time each for the closed form.
_FIT_CASES = {
    "clean": lambda: fringe_scan(4, 0.7, _grid(4, 0.7, points=101), backend="dense"),
    **{f"synthetic-{seed}": lambda seed=seed: _synthetic_scan(seed)[0] for seed in range(5)},
    **{f"noisy-{seed}": lambda seed=seed: _noisy_scan(5, 0.1, 41, 850, seed) for seed in range(12)},
    **{f"spread-{trajectories}": lambda trajectories=trajectories: _noisy_scan(4, 0.1, 25, trajectories, 100)
       for trajectories in (60, 960)},
    **{f"closed-form-{backend}-{n}": lambda backend=backend, n=n: fringe_scan(
           n, 1e-20, _grid(n, 1e-20, points=101), backend=backend)
       for backend, n in (("branch", 1), ("branch", 100), ("branch", 10**9), ("branch", 2**53),
                          ("dense", 1), ("dense", 5), ("dense", 12))},
}


class TestFringeScan:
    def test_noiseless_matches_analytic_pointwise(self):
        n, t, dwh = 4, 0.7, 0.1
        grid = _grid(n, t)
        scan = fringe_scan(n, t, grid, delta_omega_head=dwh, backend="dense")
        for dw, p in zip(scan.detunings, scan.p_up):
            expected = math.sin((n * dw + dwh) * t / 2) ** 2
            assert p == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("backend,n,bound", [("dense", 12, 8.5e-15), ("branch", 10**4, 6.1e-15)])
    def test_noiseless_scan_is_as_close_to_the_fringe_law_as_before(self, backend, n, bound):
        # Dense bound: the error of the H, pass, H pulse before the controlled flip replaced
        # it (8.4e-15); the flip measured 4.2e-15. Branch bound: 2 eps (1 + |chi|) at the
        # grid's largest chi, 4 pi + 0.0037, which the branch readout meets at any N
        # (measured 1.3e-15).
        t, dwh = 0.01, 0.37
        grid = np.linspace(0.0, 2.0 * 2.0 * math.pi / (n * t), 101)
        scan = fringe_scan(n, t, grid, delta_omega_head=dwh, backend=backend)
        chi = (n * grid + dwh) * t
        assert np.abs(np.array(scan.p_up) - np.sin(chi / 2) ** 2).max() <= bound

    def test_fringe_period_shrinks_with_atom_number(self):
        t = 0.5
        scan1 = fringe_scan(1, t, _grid(1, t), backend="dense")
        scan10 = fringe_scan(10, t, _grid(10, t), backend="dense")
        period1 = analyze_fringe(scan1).period
        period10 = analyze_fringe(scan10).period
        assert period1 / period10 == pytest.approx(10.0, rel=1e-6)

    def test_overwhelming_noise_flattens_to_half(self):
        n, t = 3, 0.4
        params = DecoherenceParams(1e-9, 1e-9)  # every trajectory scatters
        q = scatter_probability(ProtocolSchedule(n, 1e-5, 1e-5, t), params)
        scan = fringe_scan(n, t, _grid(n, t, points=21), backend="dense",
                           trajectories=10, scatter_probability=q, seed=5)
        assert all(p == 0.5 for p in scan.p_up)

    def test_negative_trajectories_rejected(self):
        with pytest.raises(ParameterError, match="trajectories must be >= 0"):
            fringe_scan(2, 0.1, [0.0, 0.1], trajectories=-1, scatter_probability=0.5)

    @pytest.mark.parametrize("grid", [[0.0, math.inf], [math.nan], [-math.inf, 0.0]])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ParameterError, match="detuning grid must be finite"):
            fringe_scan(2, 0.1, grid)

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_exact_scan_ignores_scatter_probability(self, backend):
        grid = _grid(5, 0.3, points=9)
        exact = fringe_scan(5, 0.3, grid, backend=backend)
        for q in (0.0, 0.3, 1.0):
            scan = fringe_scan(5, 0.3, grid, backend=backend, trajectories=0,
                               scatter_probability=q, seed=7)
            assert scan == exact
            assert scan.trajectories_per_point == 0

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    @pytest.mark.parametrize("trajectories", [1, 1000, 10**12])
    def test_zero_scatter_probability_equals_exact_scan(self, backend, trajectories):
        grid = _grid(5, 0.3, points=9)
        exact = fringe_scan(5, 0.3, grid, delta_omega_head=0.2, backend=backend)
        scan = fringe_scan(5, 0.3, grid, delta_omega_head=0.2, backend=backend,
                           trajectories=trajectories, scatter_probability=0.0, seed=3)
        assert [p.hex() for p in scan.p_up] == [p.hex() for p in exact.p_up]
        assert scan.trajectories_per_point == trajectories

    def test_scan_validation(self):
        with pytest.raises(ParameterError):
            FringeScan((0.0, 1.0), (0.5,), 1, 0.1, 0)
        with pytest.raises(ParameterError):
            FringeScan((0.0,), (1.5,), 1, 0.1, 0)


class TestScanPrefix:
    """The GHZ prefix runs once per scan; one closed-form readout gives every point."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scan_equals_per_point_protocol_to_chi_rounding(self, data):
        backend = data.draw(st.sampled_from(["dense", "branch"]), label="backend")
        n = data.draw(st.integers(1, 8 if backend == "dense" else 300), label="n_atoms")
        t = data.draw(st.floats(1e-3, 2.0), label="ramsey_time")
        grid = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12), label="grid")
        dwh = data.draw(st.floats(0.01, 5.0) | st.floats(-5.0, -0.01), label="delta_omega_head")
        scan = fringe_scan(n, t, grid, delta_omega_head=dwh, backend=backend)
        expected = [run_protocol(n, backend, dw, dwh, t).p_up for dw in grid]
        assert (np.abs(np.subtract(scan.p_up, expected)) <= chi_rounding(n, grid, dwh, t)).all()

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_one_point_scan_equals_protocol(self, backend):
        scan = fringe_scan(3, 0.5, [0.7], delta_omega_head=-0.2, backend=backend)
        expected = run_protocol(3, backend, 0.7, -0.2, 0.5).p_up
        assert abs(scan.p_up[0] - expected) <= chi_rounding(3, 0.7, -0.2, 0.5)

    @pytest.mark.parametrize("seed", [0, 12345])
    def test_noisy_dense_scan_mixes_exact_points_with_their_scatter_counts(self, seed):
        n, t, dwh, trajectories = 6, 0.3, 0.05, 1000
        params = DecoherenceParams(0.5, 1.0)
        q = scatter_probability(ProtocolSchedule(n, 1e-3, 1e-3, t), params)
        grid = _grid(n, t, points=15)
        scan = fringe_scan(n, t, grid, delta_omega_head=dwh, backend="dense",
                           trajectories=trajectories, scatter_probability=q, seed=seed)
        exact = fringe_scan(n, t, grid, delta_omega_head=dwh, backend="dense").p_up
        protocol = [run_protocol(n, "dense", float(dw), dwh, t).p_up for dw in grid]
        assert (np.abs(np.subtract(exact, protocol)) <= chi_rounding(n, grid, dwh, t)).all()
        counts = [sample_scatter_count(q, trajectories, seed=[seed, i]) for i in range(grid.size)]
        assert all(0 < k < trajectories for k in counts)
        expected = [p + (0.5 - p) * (k / trajectories) for p, k in zip(exact, counts)]
        assert list(scan.p_up) == expected

    @pytest.mark.parametrize("points", [1, 2, 11])
    def test_dense_scan_rotates_the_prefix_once(self, monkeypatch, points):
        calls = []

        def counted(name):
            gate = getattr(DenseState, name)

            def call(state, *args):
                calls.append(name)
                return gate(state, *args)
            return call

        for name in ("apply_clock_rotation", "apply_head_rotation", "apply_phase_pass",
                     "apply_controlled_flip", "apply_free_evolution"):
            monkeypatch.setattr(DenseState, name, counted(name))
        fringe_scan(5, 0.4, np.linspace(0.0, 1.0, points), backend="dense")
        # The GHZ prefix alone: no point evolves, flips or rotates the head.
        assert calls == ["apply_clock_rotation", "apply_head_rotation", "apply_phase_pass",
                         "apply_clock_rotation"]


class TestAnalyzeFringe:
    def test_clean_fringe_recovers_contrast_and_period(self):
        n, t = 4, 0.7
        scan = fringe_scan(n, t, _grid(n, t, points=101), backend="dense")
        fit = analyze_fringe(scan)
        assert fit.contrast == pytest.approx(1.0, abs=1e-6)
        assert fit.period == pytest.approx(2 * math.pi / (n * t), rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("backend,n", [("branch", 1), ("branch", 100), ("branch", 10**9),
                                           ("branch", 2**53), ("dense", 1), ("dense", 5), ("dense", 12)])
    def test_noiseless_fit_reads_the_closed_form_at_any_ramsey_time(self, backend, n):
        # The fit scales the grid to [-1, 1]. Unscaled, T <= 1e-155 s read contrast 0.9696
        # with an overflow in the normal equations, and T >= 1e170 s read no fringe at all.
        # Contrast 1 within 4 eps on the branch backend (measured 2 eps); the dense GHZ state
        # rounds its own norm, by up to 1.6 N eps at any T, so 4 N eps there. The period
        # 2 pi / (N T) within 4 eps (measured 1.5 eps).
        eps = np.finfo(float).eps
        contrast_tol = 4 * eps * (1 if backend == "branch" else n)
        read = 0
        for exponent in range(-300, 301, 20):
            t = 10.0 ** exponent
            if 4 * math.pi / (n * t) < 1e-290:  # the grid would be subnormal, with few bits
                continue
            fit = analyze_fringe(fringe_scan(n, t, _grid(n, t, points=101), backend=backend))
            assert abs(fit.contrast - 1.0) <= contrast_tol, t
            assert abs(fit.period / (2 * math.pi / (n * t)) - 1.0) <= 4 * eps, t
            read += 1
        assert read >= 26

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e-12, 1e6])  # the ends of the Ramsey time's declared range
    def test_cli_scan_reads_the_fringe_at_extreme_ramsey_times(self, tmp_path, t):
        run_command("scan", parse_config({"protocol": {"ramsey_time_s": t}}), tmp_path)
        meta = json.loads((tmp_path / "scan.meta.json").read_text())
        assert meta["contrast"] == pytest.approx(1.0, abs=1e-15)
        assert meta["fringe_period_rad_s"] == pytest.approx(2 * math.pi / (100 * t), rel=1e-15)

    @pytest.mark.parametrize("n,t,points,trajectories", [
        (1, 1e-3, 41, 850), (3, 1e-2, 101, 10**6), (5, 0.1, 41, 850), (5, 0.1, 25, 60),
        (12, 1e-2, 101, 10**6), (12, 1e-3, 101, 1000), (12, 0.1, 101, 1000),
    ])
    def test_noisy_fit_matches_the_unscaled_fit(self, n, t, points, trajectories):
        # At these Ramsey times the raw detunings (up to 4 pi / (N T) ~ 1e4 rad/s) keep the
        # normal equations well conditioned, so the fit on the grid scaled to [-1, 1] reads
        # the fringe the fit on the raw grid does. Each stops once a step moves its scaled
        # parameters by at most _FIT_XTOL = 1e-10 of their norm, so a noisy fit's last
        # digits follow its path: contrast within 1e-9 and period within 1e-8 relative
        # (measured at most 6.6e-11 and 3.3e-10 over these cases and seeds).
        for seed in range(5):
            scan = _noisy_scan(n, t, points, trajectories, seed)
            x, y = np.asarray(scan.detunings), np.asarray(scan.p_up)
            raw = _fit_sinusoid(x, y, _initial_frequency(x, y))
            assert raw is not None
            fit = analyze_fringe(scan)
            assert fit.contrast == pytest.approx(min(2.0 * math.hypot(raw[1], raw[2]), 1.0), abs=1e-9)
            assert fit.period == pytest.approx(2.0 * math.pi / abs(raw[3]), rel=1e-8)

    def test_flat_scan_is_degenerate(self):
        scan = FringeScan(tuple(np.linspace(0, 1, 30)), (0.5,) * 30, 2, 0.1, 0)
        fit = analyze_fringe(scan)
        assert fit.contrast == 0.0
        assert math.isnan(fit.period)

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_sinusoid_recovery(self, seed):
        scan, contrast, omega = _synthetic_scan(seed)
        fit = analyze_fringe(scan)
        assert fit.contrast == pytest.approx(contrast, abs=1e-6)
        assert fit.period == pytest.approx(2 * math.pi / omega, rel=1e-6)

    @pytest.mark.parametrize("case", _FIT_CASES)
    def test_a_descending_grid_reads_the_same_fringe(self, case):
        # The fit centres and scales the grid, and the periodogram's step is |dx|, so the
        # points in reverse order read the same contrast and period, bit for bit.
        scan = _FIT_CASES[case]()
        backward = dataclasses.replace(scan, detunings=scan.detunings[::-1], p_up=scan.p_up[::-1])
        forward = analyze_fringe(scan)
        assert forward.contrast > 0.0
        assert analyze_fringe(backward) == forward

    def test_monte_carlo_contrast_approaches_survival(self):
        # Pessimistic-noise fringe: mixture s * sin^2 + (1 - s) / 2, so the
        # fitted contrast estimates the survival s.
        n, t = 5, 0.1
        s = survival_probability(ProtocolSchedule(n, 0.0, 0.0, t), DecoherenceParams(1.0, 2.0))
        estimates = [analyze_fringe(_noisy_scan(n, t, 41, 850, seed)).contrast for seed in range(12)]
        mean = float(np.mean(estimates))
        sem = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - s) < 3 * sem

    def test_monte_carlo_error_shrinks_with_trajectories(self):
        # Statistical error of the fitted contrast falls like
        # 1/sqrt(trajectories); 16x the samples should shrink the spread
        # by roughly 4 (a loose band guards against flaky ratios).
        def spread(trajectories, base_seed):
            values = [analyze_fringe(_noisy_scan(4, 0.1, 25, trajectories, base_seed + k)).contrast
                      for k in range(16)]
            return float(np.std(values, ddof=1))

        sd_small = spread(60, base_seed=100)
        sd_large = spread(960, base_seed=900)
        assert sd_large < sd_small / 1.5
        assert 1.5 < sd_small / sd_large < 10.0


@st.composite
def _fringes(draw):
    """Ramsey fringe 0.5 - C/2 cos(chi) over a scan of the CLI's kind.

    1-4 periods of the N-atom fringe in 8-200 points, at least 4 points per
    period: undersampled scans (say 9 points over 4 periods) can land in
    different local minima of the two fitters, so they are left out.
    """
    n = draw(st.integers(1, 2000))
    t = draw(st.floats(1e-3, 0.1))
    contrast = draw(st.floats(0.3, 1.0))
    periods = draw(st.floats(1.0, 4.0))
    points = draw(st.integers(max(8, math.ceil(4.0 * periods) + 1), 200))
    delta_omega_head = draw(st.floats(-1e3, 1e3))
    return _fringe(n, t, contrast, periods, points, delta_omega_head)


def _fringe(n, t, contrast, periods, points, delta_omega_head):
    x = np.linspace(0.0, periods * 2.0 * math.pi / (n * t), points)
    y = 0.5 - 0.5 * contrast * np.cos((n * x + delta_omega_head) * t)
    return x, y, n * t


def _rss(params, x, y):
    offset, a, b, omega = params
    residual = y - (offset + a * np.cos(omega * x) + b * np.sin(omega * x))
    return float(residual @ residual)


class TestFitAgainstCurveFit:
    """The numpy Levenberg-Marquardt fit against scipy's curve_fit."""

    @settings(max_examples=150, deadline=None)
    @given(_fringes())
    def test_noiseless_contrast_and_frequency_agree(self, fringe):
        x, y, _ = fringe
        ours = _fit_sinusoid(x, y, _initial_frequency(x, y))
        reference = reference_fringe_fit(x, y)
        assert ours is not None and reference is not None
        assert math.hypot(ours[1], ours[2]) == pytest.approx(
            math.hypot(reference[1], reference[2]), rel=1e-12)
        assert abs(ours[3]) == pytest.approx(abs(reference[3]), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(_fringes(), st.integers(0, 2**32 - 1))
    # Noisy, 8 points over one period: Gauss-Newton steps overshoot the minimum
    # and close in on it by about 10 % per step, 140 steps in all, or 67 when
    # the damping rises after a step that gains too little of its prediction.
    @example(_fringe(1, 0.0625, 0.375, 1.0, 8, 0.0), 615)
    # Likewise, but undamped steps close in by 0.4 % each: 1710 steps, beyond
    # the iteration cap, where the gain rule takes 76.
    @example(_fringe(1, 0.04823399694795969, 1 / 3, 1.0, 8, 1 / 3), 982)
    def test_noisy_fit_reaches_curve_fit_minimum(self, fringe, seed):
        x, y, omega = fringe
        y = np.clip(y + 0.05 * np.random.default_rng(seed).normal(size=y.size), 0.0, 1.0)
        reference = reference_fringe_fit(x, y)
        # A few points of a low-contrast fringe can fit a parabola better than
        # any sinusoid: the optimum runs off to omega -> 0 with an amplitude
        # far above 1/2. curve_fit stops somewhere on that path, the numpy fit
        # at its iteration cap; there is no fringe to compare, so skip those.
        assume(reference is not None and 0.5 * omega < abs(reference[3]) < 2.0 * omega)
        ours = _fit_sinusoid(x, y, _initial_frequency(x, y))
        assert ours is not None
        # curve_fit stops at xtol 1.49e-8, so its sum of squares is never lower.
        assert _rss(ours, x, y) <= _rss(reference, x, y) * (1.0 + 1e-12)
        # On an ill-conditioned scan (8 points, one period) that stop can sit
        # 1e-4 away from the minimum, so the parameters are compared with
        # curve_fit run to convergence.
        converged = reference_fringe_fit(x, y, tol=1e-14)
        assert converged is not None
        assert ours[0] == pytest.approx(converged[0], abs=1e-6)
        assert math.hypot(ours[1], ours[2]) == pytest.approx(
            math.hypot(converged[1], converged[2]), rel=1e-6)
        assert abs(ours[3]) == pytest.approx(abs(converged[3]), rel=1e-6)

    def test_cli_scan_period_is_exact(self, tmp_path):
        # Default config: N = 100 and T = 10 ms, so the period is 2 pi / (N T) = 2 pi.
        run_command("scan", parse_config(None), tmp_path)
        meta = json.loads((tmp_path / "scan.meta.json").read_text())
        assert meta["fringe_period_rad_s"] == pytest.approx(2 * math.pi, rel=1e-14)
        assert meta["contrast"] == pytest.approx(1.0, rel=1e-12)


class TestFitFallbacks:
    """Each way the fit can fail returns contrast 0 and a NaN period."""

    @staticmethod
    def _clean_scan():
        # sin^2(pi x / 2): two periods of length 2
        x = np.linspace(0.0, 4.0, 41)
        return FringeScan(tuple(x), tuple(np.sin(math.pi * x / 2.0) ** 2), 1, 1.0, 0)

    def test_fewer_than_four_points(self):
        fit = analyze_fringe(FringeScan((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), 1, 1.0, 0))
        assert fit.contrast == 0.0 and math.isnan(fit.period)

    def test_singular_normal_equations(self, monkeypatch):
        # The fit runs on the grid scaled to [-1, 1]: 2 pi k for k < 8 becomes
        # (2k - 7) / 7, where omega = 7 pi puts every cosine at exactly -1. The
        # offset and cosine columns are opposite and the normal matrix is singular.
        x = 2.0 * math.pi * np.arange(8)
        monkeypatch.setattr(estimator, "_initial_frequency", lambda x, y: 7.0 * math.pi)
        fit = analyze_fringe(FringeScan(tuple(x), (0.0, 1.0) * 4, 1, 1.0, 0))
        assert fit.contrast == 0.0 and math.isnan(fit.period)

    def test_iteration_cap(self, monkeypatch):
        scan = self._clean_scan()
        assert analyze_fringe(scan).period == pytest.approx(2.0, rel=1e-12)
        monkeypatch.setattr(estimator, "_FIT_MAX_ITERATIONS", 1)
        fit = analyze_fringe(scan)
        assert fit.contrast == 0.0 and math.isnan(fit.period)

    def test_damping_floor_ends_a_fit_whose_steps_fail_late(self, monkeypatch):
        # Noisy, 8 points over one period. Without the gain rule (plain Marquardt) over 300
        # steps lower the cost, each cutting the damping tenfold, before one fails. Unfloored,
        # the damping had underflowed to 0 by then, never rose again, and the fit looped forever.
        x = 14.361566416410483 * np.arange(8)
        y = (0.3767678305731873, 0.3871861318748216, 0.5797344155869905, 0.6320424520280956,
             0.781684880961433, 0.5995797678586388, 0.3951048678329306, 0.15681296702193592)
        scan = FringeScan(tuple(x), y, 1, 1.0, 0)
        expected = analyze_fringe(scan)
        monkeypatch.setattr(estimator, "_GAIN_LOW", -math.inf)
        solve, calls = np.linalg.solve, []

        def counted_solve(a, b):
            calls.append(None)
            if len(calls) > 10_000:
                raise AssertionError("the fit does not stop")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        fit = analyze_fringe(scan)
        assert fit.contrast == pytest.approx(expected.contrast, rel=1e-6)
        assert fit.period == pytest.approx(expected.period, rel=1e-6)


class TestSensitivities:
    def test_single_atom_ramsey_limit(self):
        t = 0.3
        assert phase_sensitivity(1.0, 1, t) == pytest.approx(1 / t)

    def test_heisenberg_scaling(self):
        t = 0.2
        assert phase_sensitivity(1.0, 100, t) == pytest.approx(phase_sensitivity(1.0, 1, t) / 100)

    def test_half_contrast_doubles_uncertainty(self):
        assert phase_sensitivity(0.5, 10, 1.0) == pytest.approx(2 * phase_sensitivity(1.0, 10, 1.0))

    def test_zero_contrast_is_degenerate(self):
        with pytest.raises(DegenerateFringeError):
            phase_sensitivity(0.0, 10, 1.0)

    def test_sql_coincides_at_single_atom(self):
        assert sql_baseline(1, 0.7) == pytest.approx(phase_sensitivity(1.0, 1, 0.7))

    def test_sql_root_n_scaling(self):
        assert sql_baseline(100, 1.0) == pytest.approx(sql_baseline(1, 1.0) / 10)

    @pytest.mark.parametrize("n", [1, 4, 100, 1000])
    def test_full_contrast_gain_is_root_n(self, n):
        gain = sql_baseline(n, 1.0) / phase_sensitivity(1.0, n, 1.0)
        assert gain == pytest.approx(math.sqrt(n), rel=1e-9)


def _continuous_optimum(params, gate_time, transport_time, ramsey_time, pulse_time):
    """Where N C(N) peaks over real N: the positive root of 2ak N^2 + (ah + kD0) N - 1 = 0.

    The schedule lasts aN + D0 and events occur at rate kN + h, so
    ln(N C(N)) = ln N - (aN + D0)(kN + h), which is concave in N.
    """
    a = 2.0 * (transport_time + gate_time)
    d0 = ramsey_time + 7.0 * pulse_time
    k = 1.0 / params.tau_scatter_clock
    h = 1.0 / params.tau_scatter_head + params.extra_loss_rate
    b = a * h + k * d0
    return 2.0 / (b + math.sqrt(b * b + 8.0 * a * k))  # (-b + sqrt(b^2 + 8ak)) / 4ak, rationalized


def _grid_neighbours(grid, x):
    """The grid points next to x on either side, or the grid end x lies beyond."""
    lower = max((n for n in grid if n <= x), default=grid[0])
    upper = min((n for n in grid if n >= x), default=grid[-1])
    return lower, upper


class TestOptimizeAtomNumber:
    def test_no_decoherence_prefers_largest_register(self):
        params = DecoherenceParams(math.inf, math.inf)
        n_opt, curve = optimize_atom_number(ProtocolSchedule(1, 2e-5, 1e-5, 0.01), params,
                                            range(1, 200, 7))
        assert n_opt == max(curve.n_atoms)
        assert all(s == 1.0 for s in curve.survival)

    def test_reference_rates_peak_between_hundred_and_few_thousand(self):
        params = DecoherenceParams(9.586, 7.157)
        grid = sorted({int(round(x)) for x in np.geomspace(1, 10000, 80)})
        n_opt, curve = optimize_atom_number(ProtocolSchedule(1, 17.58e-6, 10e-6, 0.01), params, grid)
        assert 100 <= n_opt <= 1000
        imax = curve.figure_of_merit.index(max(curve.figure_of_merit))
        assert curve.n_atoms[imax] == n_opt

    def test_constant_survival_prefers_largest_register(self):
        # Zero per-atom step times and no scattering: only the fixed extra
        # loss acts, so survival is N-independent.
        params = DecoherenceParams(math.inf, math.inf, extra_loss_rate=3.0)
        n_opt, curve = optimize_atom_number(ProtocolSchedule(1, 0.0, 0.0, 0.05), params,
                                            range(1, 300, 11))
        assert len(set(curve.survival)) == 1
        assert n_opt == max(curve.n_atoms)

    def test_argmax_invariant_under_joint_time_rate_rescaling(self):
        params = DecoherenceParams(3.0, 5.0, 0.7)
        grid = range(1, 500, 13)
        n_opt_a, curve_a = optimize_atom_number(ProtocolSchedule(1, 2e-5, 1e-5, 0.02, 1e-6), params, grid)
        kappa = 37.0
        scaled = DecoherenceParams(3.0 * kappa, 5.0 * kappa, 0.7 / kappa)
        n_opt_b, curve_b = optimize_atom_number(
            ProtocolSchedule(1, 2e-5 * kappa, 1e-5 * kappa, 0.02 * kappa, 1e-6 * kappa), scaled, grid
        )
        assert n_opt_a == n_opt_b
        np.testing.assert_allclose(curve_a.survival, curve_b.survival, rtol=1e-12)

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            optimize_atom_number(ProtocolSchedule(1, 0.0, 0.0, 0.1), DecoherenceParams(1.0, 1.0), [])

    def test_grid_below_one_atom_rejected(self):
        with pytest.raises(ParameterError):
            optimize_atom_number(ProtocolSchedule(1, 0.0, 0.0, 0.1), DecoherenceParams(1.0, 1.0), [0, 5])

    def test_runs_without_numpy(self, monkeypatch):
        monkeypatch.setattr(estimator, "np", None)
        n_opt, curve = optimize_atom_number(ProtocolSchedule(1, 2e-5, 1e-5, 0.01),
                                            DecoherenceParams(9.586, 7.157), range(1, 2001, 10))
        assert 100 <= n_opt <= 1000
        assert {type(v) for v in curve.survival + curve.figure_of_merit + curve.gain_over_sql} == {float}

    _TIME = st.one_of(st.just(0.0), st.floats(5e-324, 1e300))
    _TAU = st.floats(5e-324, 1e300)

    @settings(max_examples=200, deadline=None)
    @given(times=st.tuples(_TIME, _TIME, _TIME, _TIME), tau_clock=_TAU, tau_head=_TAU,
           extra=st.floats(0.0, 1e300), grid=st.lists(st.integers(1, 2**53), min_size=1, max_size=20))
    # A zero duration at an overflowing rate (survival 1); durations past the float range from
    # N = 2^52 on, survival 0 throughout, so the smallest N wins the tie; a finite duration whose
    # product with the rate overflows.
    @example(times=(0.0, 0.0, 0.0, 0.0), tau_clock=5e-324, tau_head=1.0, extra=0.0, grid=[1, 7, 2**53])
    @example(times=(1e300, 0.0, 0.1, 0.0), tau_clock=1.0, tau_head=1.0, extra=0.0, grid=[2**53, 1, 2**52])
    @example(times=(1e-5, 1e-5, 1e300, 0.0), tau_clock=1e-300, tau_head=1.0, extra=0.0, grid=[1, 2**53])
    def test_survival_is_the_schedules_bit_for_bit(self, times, tau_clock, tau_head, extra, grid):
        params = DecoherenceParams(tau_clock, tau_head, extra)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n_opt, curve = optimize_atom_number(ProtocolSchedule(1, *times), params, grid)
        assert curve.n_atoms == tuple(sorted(set(grid)))
        for n, survival, fom, gain in zip(curve.n_atoms, curve.survival, curve.figure_of_merit,
                                          curve.gain_over_sql):
            assert survival.hex() == survival_probability(ProtocolSchedule(n, *times), params).hex()
            assert (fom, gain) == (survival * n, survival * math.sqrt(n))
        best = max(curve.figure_of_merit)
        assert n_opt == min(n for n, fom in zip(curve.n_atoms, curve.figure_of_merit) if fom == best)

    @settings(max_examples=100, deadline=None)
    @given(gate=st.floats(1e-7, 1e-3), transport=st.floats(1e-7, 1e-3),
           ramsey=st.floats(1e-4, 1.0), pulse=st.floats(0.0, 1e-3),
           tau_clock=st.floats(1e-2, 1e3), tau_head=st.floats(1e-2, 1e3),
           extra=st.floats(0.0, 10.0), n_max=st.integers(2, 10**5), points=st.integers(2, 200))
    def test_grid_argmax_brackets_the_continuous_optimum(self, gate, transport, ramsey, pulse,
                                                         tau_clock, tau_head, extra, n_max, points):
        params = DecoherenceParams(tau_clock, tau_head, extra)
        grid = sorted({int(round(n)) for n in np.geomspace(1, n_max, points)})
        n_opt, _ = optimize_atom_number(ProtocolSchedule(1, gate, transport, ramsey, pulse), params, grid)
        lower, upper = _grid_neighbours(grid, _continuous_optimum(params, gate, transport, ramsey, pulse))
        assert lower <= n_opt <= upper

    def test_default_optimum_matches_stationary_point(self, tmp_path):
        bundle = resolve_physics(parse_config(None))
        s = bundle.schedule
        root = _continuous_optimum(bundle.decoherence, s.gate_time, s.transport_time,
                                   s.ramsey_time, s.pulse_time)
        assert root == pytest.approx(252.6, abs=0.05)
        n_opt, _ = optimize_atom_number(s, bundle.decoherence, range(1, 2001))
        assert abs(n_opt - root) <= 1.0

        run_command("optimize", parse_config(None), tmp_path)
        meta = json.loads((tmp_path / "optimize.meta.json").read_text())
        grid = [int(row.split(",")[0]) for row in
                (tmp_path / "optimize.csv").read_text().splitlines()[1:]]
        assert meta["n_opt"] == 236
        assert _grid_neighbours(grid, root) == (236, 276)
