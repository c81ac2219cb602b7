"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest report.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from screwclock import (
    CODATA,
    DecoherenceParams,
    ProtocolSchedule,
    analyze_fringe,
    fringe_scan,
    ghz_reference,
    interaction_energy,
    min_required_intensity,
    overlap_depth,
    parse_config,
    phase_gate_duration,
    phase_sensitivity,
    photon_scattering_time,
    run_protocol,
    sample_scatter_count,
    scatter_probability,
    sql_baseline,
    state_fidelity,
    survival_probability,
    trap_frequencies,
    well_depth_closed_form,
)
from screwclock.cli import run_command
from screwclock.lattice import LatticeConfig, SpeciesOptics, sublattice_depths

from conftest import (
    AL_MASS_AMU,
    ALPHA_AL_AU,
    ALPHA_SR_AU,
    DELTA,
    LAMBDA_M,
    MIN_INTENSITY,
    RHO_DOWN,
    RHO_UP,
    SR_MASS_AMU,
    backend_crosscheck,
    dense_copy,
    optical_potential_curve,
    read_table,
    well_depth,
)

AMU = CODATA.atomic_mass_unit


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] {name}: FAIL")
        raise
    print(f"[criterion {number:2d}] {name}: PASS")


def _reference_species():
    sr = SpeciesOptics("Sr", SR_MASS_AMU * AMU, ALPHA_SR_AU, 0.0, "clock")
    al_up = SpeciesOptics("Al_up", AL_MASS_AMU * AMU, ALPHA_AL_AU, RHO_UP, "head_up")
    al_down = SpeciesOptics("Al_down", AL_MASS_AMU * AMU, ALPHA_AL_AU, RHO_DOWN, "head_down")
    return sr, al_up, al_down


def _reference_lattice(intensity):
    return LatticeConfig(lambda_m=LAMBDA_M, intensity=intensity, delta=DELTA,
                         phi=0.0, transverse_intensity=intensity)


def test_criterion_01_ghz_construction():
    with criterion(1, "GHZ construction, N = 2..12 dense"):
        start = time.perf_counter()
        for n in range(2, 13):
            result = run_protocol(n, backend="dense")
            fid = state_fidelity(result.checkpoints["ghz"], dense_copy(ghz_reference(n)))
            assert fid >= 1 - 1e-10, f"N={n}: fidelity {fid}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_02_fringe_law():
    with criterion(2, "fringe law, dense N in {1,5,10} and branch N = 1000"):
        delta_omega_head = 0.04
        for n in (1, 5, 10):
            t = 0.8
            grid = np.linspace(0.0, 2 * 2 * math.pi / (n * t), 60)
            scan = fringe_scan(n, t, grid, delta_omega_head=delta_omega_head,
                               backend="dense")
            for dw, p in zip(scan.detunings, scan.p_up):
                expected = math.sin(((n * dw + delta_omega_head) * t) / 2) ** 2
                assert abs(p - expected) < 1e-10, f"N={n}, dw={dw}"

        n, t = 1000, 0.01
        grid = np.linspace(0.0, 2 * 2 * math.pi / (n * t), 100)
        start = time.perf_counter()
        scan = fringe_scan(n, t, grid, backend="branch")
        elapsed = time.perf_counter() - start
        for dw, p in zip(scan.detunings, scan.p_up):
            expected = math.sin(n * dw * t / 2) ** 2
            assert abs(p - expected) < 1e-10
        assert elapsed < 60.0, f"1000-atom scan took {elapsed:.1f} s"


def test_criterion_03_backend_equivalence():
    with criterion(3, "dense vs branch on 200 random sequences, N = 8"):
        worst = 0.0
        for seed in range(200):
            worst = max(worst, backend_crosscheck(8, seed=seed))
        assert worst < 1e-9, f"worst deviation {worst:.3e}"


def test_criterion_04_minimum_intensity():
    with criterion(4, "minimum intensity near 20 kW/cm^2, binding Al"):
        species = list(_reference_species())
        req = min_required_intensity(species, _reference_lattice(1.0), depth_factor=5.0)
        kw_cm2 = req.intensity / 1e7
        assert 0.5 < kw_cm2 / 20.0 < 2.0, f"{kw_cm2:.2f} kW/cm^2"
        assert req.binding_species in ("Al_up", "Al_down")


def test_criterion_05_scattering_lifetimes():
    with criterion(5, "photon scattering lifetimes near 10 s (Sr) and 8 s (Al)"):
        sr, al_up, _ = _reference_species()
        lattice = _reference_lattice(MIN_INTENSITY)
        tau_sr = photon_scattering_time(sr, lattice.intensity,
                                        overlap_depth(lattice, sr), LAMBDA_M)
        tau_al = photon_scattering_time(al_up, lattice.intensity,
                                        overlap_depth(lattice, al_up), LAMBDA_M)
        assert 0.5 < tau_sr / 10.0 < 2.0, f"tau_Sr = {tau_sr:.2f} s"
        assert 0.5 < tau_al / 8.0 < 2.0, f"tau_Al = {tau_al:.2f} s"


def test_criterion_06_gate_time():
    with criterion(6, "collisional pi gate time near 20 us"):
        sr, al_up, _ = _reference_species()
        lattice = _reference_lattice(MIN_INTENSITY)
        w_sr = trap_frequencies(lattice, sr)
        w_al = trap_frequencies(lattice, al_up)
        delta_e = interaction_energy(100.0 * CODATA.bohr_radius,
                                     al_up.mass, sr.mass, w_al, w_sr)
        tau = phase_gate_duration(delta_e)
        assert 0.5 < tau / 20e-6 < 2.0, f"gate time {tau * 1e6:.2f} us"


def test_criterion_07_decoherence_consistency():
    with criterion(7, "Monte Carlo matches the survival formula at 3 sigma"):
        params = DecoherenceParams(9.586, 7.157)
        n_traj = 100_000
        for n, ramsey in ((10, 0.02), (100, 0.01), (1000, 0.001)):
            schedule = ProtocolSchedule(n, 17.58e-6, 10e-6, ramsey)
            expected = 1.0 - survival_probability(schedule, params)
            q = scatter_probability(schedule, params)
            observed = sample_scatter_count(q, n_traj, seed=[2718, n]) / n_traj
            sigma = math.sqrt(expected * (1 - expected) / n_traj)
            assert abs(observed - expected) < 3 * sigma, (
                f"N={n}: {observed:.5f} vs {expected:.5f} (sigma {sigma:.1e})"
            )

        # Fringe contrast under the pessimistic model estimates survival.
        n, t = 5, 0.1
        params = DecoherenceParams(1.0, 2.0)
        schedule = ProtocolSchedule(n, 0.0, 0.0, t)
        s = survival_probability(schedule, params)
        q = scatter_probability(schedule, params)
        grid = np.linspace(0.0, 2 * 2 * math.pi / (n * t), 33)
        estimates = []
        for seed in range(12):
            scan = fringe_scan(n, t, grid, backend="dense", trajectories=850,
                               scatter_probability=q, seed=seed)
            estimates.append(analyze_fringe(scan).contrast)
        mean = float(np.mean(estimates))
        sem = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - s) < 3 * sem, f"contrast {mean:.4f} vs survival {s:.4f}"


def test_criterion_08_metrological_gain(tmp_path):
    with criterion(8, "gain over the unentangled limit is sqrt(N); optimum in range"):
        for n in (1, 4, 100, 1000):
            gain = sql_baseline(n, 1.0) / phase_sensitivity(1.0, n, 1.0)
            assert abs(gain - math.sqrt(n)) < 1e-9 * math.sqrt(n)

        cfg = parse_config({"protocol": {"ramsey_time_s": 0.01}})
        run_command("optimize", cfg, tmp_path)
        meta = json.loads((tmp_path / "optimize.meta.json").read_text())
        assert meta["ramsey_time_s"] == 0.01  # assumed Ramsey time is recorded
        rows = read_table(tmp_path / "optimize.csv")
        foms = [float(r["figure_of_merit"]) for r in rows]
        n_best = int(rows[foms.index(max(foms))]["n_atoms"])
        assert n_best == meta["n_opt"]
        assert 100 <= n_best <= 10000, f"optimum N = {n_best}"
        # The maximum is interior to the scanned range, not a range edge.
        assert n_best < max(int(r["n_atoms"]) for r in rows)


def test_criterion_09_potential_correctness():
    with criterion(9, "numeric depth and curvature match closed forms"):
        rng = np.random.default_rng(90210)
        checked = 0
        while checked < 100:
            lam = rng.uniform(300e-9, 1500e-9)
            intensity = 10 ** rng.uniform(6, 9)
            delta = rng.uniform(0.0, 0.9)
            rho = rng.uniform(-2.0, 2.0)
            alpha = rng.choice([-1.0, 1.0]) * rng.uniform(50.0, 1000.0)
            config = LatticeConfig(lambda_m=lam, intensity=intensity, delta=delta,
                                   phi=rng.uniform(0, 2 * math.pi))
            species = SpeciesOptics("x", rng.uniform(5, 200) * AMU, alpha,
                                    rho, "head_up")
            closed = well_depth_closed_form(config, species)
            scale = sum(abs(u) for u in sublattice_depths(config, species))
            if closed < 1e-3 * scale:
                continue  # nearly washed-out well: not a meaningful relative check
            numeric = well_depth(config, species)
            assert abs(numeric - closed) <= 1e-9 * closed
            checked += 1

        # Trap frequency against finite-difference curvature.
        sr, al_up, _ = _reference_species()
        lattice = _reference_lattice(MIN_INTENSITY)
        for species in (sr, al_up):
            w_ax = trap_frequencies(lattice, species)[0]
            z = np.linspace(0, LAMBDA_M / 2, 20001)
            u = optical_potential_curve(lattice, species, z)
            i0 = int(np.argmin(u))
            h = z[1] - z[0]
            curvature = (u[i0 - 1] - 2 * u[i0] + u[i0 + 1]) / h**2
            w_fd = math.sqrt(curvature / species.mass)
            assert abs(w_ax - w_fd) <= 1e-6 * w_fd, species.name


def test_criterion_10_sweep_determinism(tmp_path):
    with criterion(10, "sweep reruns are byte-identical"):
        cfg = parse_config({
            "sweep": {"protocol.n_atoms": [10, 100], "protocol.ramsey_time_s": [0.005, 0.02]},
            "run": {"seed": 4242},
        })
        run_command("sweep", cfg, tmp_path / "a")
        run_command("sweep", cfg, tmp_path / "b", jobs=3)
        body_a = (tmp_path / "a" / "sweep.csv").read_bytes()
        body_b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert body_a == body_b
