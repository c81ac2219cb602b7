import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from screwclock.constants import CODATA
from screwclock.errors import InfeasibleTransportError, ParameterError, UntrappedError
from screwclock.lattice import (
    LatticeConfig, SpeciesOptics, min_required_intensity, overlap_depth, recoil_energy,
    sublattice_depths, transport_feasibility, trap_frequencies, well_depth_closed_form,
    worst_case_depth,
)

from conftest import (
    AL_MASS_AMU, DELTA, LAMBDA_M, MIN_INTENSITY, RHO_DOWN, RHO_UP, SR_MASS_AMU,
    optical_potential_curve, well_depth,
)

AMU = CODATA.atomic_mass_unit

# Frozen from a one-line evaluation of (2 pi hbar / lambda)^2 / (2 M) with
# scipy's CODATA constants, before wiring up the package.
E_R_AL_ORACLE = 3.222996137428783e-29  # J, 26.9815385 u at 389.9 nm


class TestRecoilEnergy:
    def test_inverse_mass_scaling(self):
        m = SR_MASS_AMU * AMU
        assert recoil_energy(2 * m, LAMBDA_M) == pytest.approx(
            recoil_energy(m, LAMBDA_M) / 2, rel=1e-14
        )

    def test_aluminum_matches_frozen_oracle(self):
        assert recoil_energy(AL_MASS_AMU * AMU, LAMBDA_M) == pytest.approx(
            E_R_AL_ORACLE, rel=1e-9
        )

    def test_strontium_from_mass_ratio(self):
        e_al = recoil_energy(AL_MASS_AMU * AMU, LAMBDA_M)
        e_sr = recoil_energy(SR_MASS_AMU * AMU, LAMBDA_M)
        assert e_sr == pytest.approx(e_al * AL_MASS_AMU / SR_MASS_AMU, rel=1e-12)

    @pytest.mark.parametrize("mass,lam", [(0.0, 1e-6), (-1.0, 1e-6), (1e-26, 0.0), (1e-26, -1e-9)])
    def test_nonpositive_inputs_rejected(self, mass, lam):
        with pytest.raises(ParameterError):
            recoil_energy(mass, lam)


class TestSublatticeDepths:
    def test_rho_minus_one_kills_stationary_sublattice(self, reference_lattice):
        species = SpeciesOptics("h", mass=AL_MASS_AMU * AMU, alpha_scalar=-340.0,
                                rho=-1.0, role="head_up")
        u0p, u0m = sublattice_depths(reference_lattice, species)
        assert u0p == 0.0
        assert u0m != 0.0

    def test_rho_plus_one_kills_moving_sublattice(self, reference_lattice):
        species = SpeciesOptics("h", mass=AL_MASS_AMU * AMU, alpha_scalar=-340.0,
                                rho=1.0, role="head_down")
        u0p, u0m = sublattice_depths(reference_lattice, species)
        assert u0m == 0.0
        assert u0p != 0.0

    def test_balanced_scalar_split_is_symmetric(self, sr):
        config = LatticeConfig(lambda_m=LAMBDA_M, intensity=2e8, delta=0.0)
        u0p, u0m = sublattice_depths(config, sr)
        assert u0p == u0m

    def test_relabeling_symmetry_against_depth_swap(self):
        # Swapping the circular polarizations (delta -> -delta) together
        # with rho -> -rho exchanges the two sublattice amplitudes.
        rng = np.random.default_rng(11)
        for _ in range(50):
            delta = rng.uniform(-0.9, 0.9)
            rho = rng.uniform(-2.0, 2.0)
            alpha = rng.uniform(-800.0, 800.0)
            config = LatticeConfig(lambda_m=LAMBDA_M, intensity=2e8, delta=delta)
            mirrored = replace(config, delta=-delta)
            s = SpeciesOptics("h", mass=AL_MASS_AMU * AMU, alpha_scalar=alpha,
                              rho=rho, role="head_up")
            s_m = SpeciesOptics("h", mass=AL_MASS_AMU * AMU, alpha_scalar=alpha,
                                rho=-rho, role="head_up")
            u0p, u0m = sublattice_depths(config, s)
            v0p, v0m = sublattice_depths(mirrored, s_m)
            assert v0p == pytest.approx(u0m, rel=1e-12, abs=1e-40)
            assert v0m == pytest.approx(u0p, rel=1e-12, abs=1e-40)


class TestPotentialCurve:
    def test_quarter_wavelength_node_at_overlap(self, sr, reference_lattice):
        u = optical_potential_curve(reference_lattice, sr, [LAMBDA_M / 4])
        scale = sum(abs(x) for x in sublattice_depths(reference_lattice, sr))
        assert abs(u[0]) < 1e-12 * scale

    def test_phase_pi_equals_phase_zero(self, sr, reference_lattice):
        z = np.linspace(0, LAMBDA_M, 200)
        u0 = optical_potential_curve(reference_lattice, sr, z)
        u_pi = optical_potential_curve(replace(reference_lattice, phi=math.pi), sr, z)
        np.testing.assert_allclose(u_pi, u0, rtol=0, atol=1e-12 * np.abs(u0).max())

    def test_clock_potential_washes_out_in_crossed_configuration(self, sr):
        # Balanced sublattices at quarter-period displacement: constant U.
        config = LatticeConfig(lambda_m=LAMBDA_M, intensity=2e8, delta=0.0, phi=math.pi / 2)
        z = np.linspace(0, LAMBDA_M, 4001)
        u = optical_potential_curve(config, sr, z)
        assert np.ptp(u) < 1e-12 * np.abs(u).max()

    def test_empty_grid_rejected(self, sr, reference_lattice):
        with pytest.raises(ParameterError):
            optical_potential_curve(reference_lattice, sr, [])


class TestWellDepth:
    def test_clock_overlap_depth_matches_closed_form(self, sr, reference_lattice):
        expected = (
            reference_lattice.intensity
            * abs(sr.alpha_scalar) * CODATA.polarizability_au_in_si
            / (2 * CODATA.vacuum_permittivity * CODATA.speed_of_light)
        )
        assert well_depth(reference_lattice, sr) == pytest.approx(expected, rel=1e-9)
        assert overlap_depth(reference_lattice, sr) == pytest.approx(expected, rel=1e-12)

    def test_washed_out_lattice_has_zero_depth(self, sr):
        config = LatticeConfig(lambda_m=LAMBDA_M, intensity=2e8, delta=0.0, phi=math.pi / 2)
        assert well_depth(config, sr) == 0.0

    def test_minimum_clock_depth_is_misbalance_fraction(self, sr, reference_lattice):
        # Depth at quarter-period displacement over depth at overlap = |delta|.
        shifted = replace(reference_lattice, phi=math.pi / 2)
        ratio = well_depth(shifted, sr) / well_depth(reference_lattice, sr)
        assert ratio == pytest.approx(abs(reference_lattice.delta), rel=1e-9)

    def test_numeric_matches_closed_form_on_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            lam = rng.uniform(300e-9, 1500e-9)
            intensity = 10 ** rng.uniform(6, 9)
            delta = rng.uniform(0.0, 0.9)
            rho = rng.uniform(-2.0, 2.0)
            if abs(1 + delta * rho) < 0.05:
                rho = 0.0
            alpha = rng.choice([-1.0, 1.0]) * rng.uniform(50.0, 1000.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            config = LatticeConfig(lambda_m=lam, intensity=intensity, delta=delta, phi=phi)
            species = SpeciesOptics("x", mass=50 * AMU, alpha_scalar=alpha,
                                    rho=rho, role="head_up")
            closed = well_depth_closed_form(config, species)
            if closed < 1e-6 * sum(abs(u) for u in sublattice_depths(config, species)):
                continue  # nearly degenerate well, relative comparison meaningless
            assert well_depth(config, species) == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("alpha_au", [-470.0, -1e-150])
    @pytest.mark.parametrize("delta", [10.0 ** -k for k in range(1, 16)])
    def test_depths_match_the_exact_sum_and_difference(self, alpha_au, delta):
        # |U0+ +- U0-| = I |alpha| |1 + delta rho| / (2 eps0 c) and I |alpha| |delta + rho| / (2 eps0 c),
        # in exact arithmetic on the same floats. The pinned clock's worst case, the
        # difference, once cancelled at small delta and underflowed for |alpha| ~ 1e-150.
        config = LatticeConfig(lambda_m=LAMBDA_M, intensity=2.2e8, delta=delta)
        per_unit = (Fraction(config.intensity) * abs(Fraction(alpha_au * CODATA.polarizability_au_in_si))
                    / (2 * Fraction(CODATA.vacuum_permittivity) * Fraction(CODATA.speed_of_light)))
        for rho, role in ((0.0, "clock"), (-1.25, "head_up"), (0.84, "head_down")):
            species = SpeciesOptics("x", mass=SR_MASS_AMU * AMU, alpha_scalar=alpha_au, rho=rho, role=role)
            overlap = float(per_unit * abs(1 + Fraction(delta) * Fraction(rho)))
            difference = float(per_unit * abs(Fraction(delta) + Fraction(rho)))
            assert overlap_depth(config, species) == pytest.approx(overlap, rel=1e-12, abs=0.0)
            worst = difference if role == "clock" else overlap
            assert worst_case_depth(config, species) == pytest.approx(worst, rel=1e-12, abs=0.0)

    def test_depth_is_nonnegative(self, al_up, reference_lattice):
        for phi in np.linspace(0, 2 * math.pi, 25):
            assert well_depth(replace(reference_lattice, phi=phi), al_up) >= 0.0


class TestTransportFeasibility:
    def test_reference_parameters_feasible(self):
        report = transport_feasibility(RHO_UP, RHO_DOWN, DELTA)
        assert report.feasible
        assert report.violated_constraints == ()
        assert report.margin > 0

    def test_boundary_value_is_infeasible(self):
        report = transport_feasibility(-0.25, 0.84, 0.25)
        assert not report.feasible
        assert "rho_up < -delta" in report.violated_constraints
        assert report.margin <= 0

    def test_lower_bound_violation(self):
        report = transport_feasibility(-5.0, 0.84, 0.25)
        assert not report.feasible
        assert "rho_up > -1/delta" in report.violated_constraints

    @pytest.mark.parametrize("delta", [0.0, -0.25])
    def test_nonpositive_delta_rejected(self, delta):
        with pytest.raises(ParameterError):
            transport_feasibility(RHO_UP, RHO_DOWN, delta)

    def test_exchange_symmetry(self):
        # (rho_up, rho_down) -> (-rho_down, -rho_up) relabels the two
        # circular polarizations and must leave the verdict unchanged.
        rng = np.random.default_rng(5)
        for _ in range(200):
            delta = rng.uniform(0.05, 1.0)
            rho_up = rng.uniform(-6.0, 2.0)
            rho_down = rng.uniform(-2.0, 6.0)
            a = transport_feasibility(rho_up, rho_down, delta)
            b = transport_feasibility(-rho_down, -rho_up, delta)
            assert a.feasible == b.feasible
            assert a.margin == pytest.approx(b.margin, rel=1e-12, abs=1e-12)


class TestMinRequiredIntensity:
    def _species(self, sr, al_up, al_down):
        return [sr, al_up, al_down]

    def test_zero_depth_factor_needs_no_intensity(self, sr, al_up, al_down, reference_lattice):
        req = min_required_intensity(self._species(sr, al_up, al_down), reference_lattice, 0.0)
        assert req.intensity == 0.0

    def test_reference_set_reproduces_frozen_value(self, sr, al_up, al_down, reference_lattice):
        req = min_required_intensity(self._species(sr, al_up, al_down), reference_lattice, 5.0)
        assert req.intensity == pytest.approx(MIN_INTENSITY, rel=1e-9)
        assert req.binding_species == "Al_up"

    def test_within_factor_two_of_twenty_kw_cm2(self, sr, al_up, al_down, reference_lattice):
        req = min_required_intensity(self._species(sr, al_up, al_down), reference_lattice, 5.0)
        assert 0.5 < req.intensity / 2.0e8 < 2.0

    def test_doubling_polarizabilities_halves_intensity(self, sr, al_up, al_down, reference_lattice):
        base = min_required_intensity(self._species(sr, al_up, al_down), reference_lattice, 5.0)
        doubled = [replace(s, alpha_scalar=2 * s.alpha_scalar) for s in (sr, al_up, al_down)]
        req = min_required_intensity(doubled, reference_lattice, 5.0)
        assert req.intensity == pytest.approx(base.intensity / 2, rel=1e-12)

    def test_infeasible_transport_propagates_report(self, sr, al_up, al_down, reference_lattice):
        bad_up = replace(al_up, rho=-0.1)  # violates rho_up < -delta
        with pytest.raises(InfeasibleTransportError) as excinfo:
            min_required_intensity([sr, bad_up, al_down], reference_lattice, 5.0)
        assert excinfo.value.report is not None
        assert not excinfo.value.report.feasible

    def test_unpinnable_clock_raises_untrapped(self, sr):
        # Balanced sublattices leave the clock with zero worst-case depth.
        config = LatticeConfig(lambda_m=LAMBDA_M, intensity=1.0, delta=0.0)
        with pytest.raises(UntrappedError):
            min_required_intensity([sr], config, 5.0)


class TestTrapFrequencies:
    def test_quadrupled_depth_doubles_frequency(self, sr, reference_lattice):
        quadrupled = replace(reference_lattice, intensity=4 * reference_lattice.intensity,
                             transverse_intensity=4 * reference_lattice.transverse_intensity)
        w1 = trap_frequencies(reference_lattice, sr)
        w4 = trap_frequencies(quadrupled, sr)
        for a, b in zip(w4, w1):
            assert a == pytest.approx(2 * b, rel=1e-12)

    def test_aluminum_axial_frequency_range_and_curvature(self, al_up, reference_lattice):
        w_ax, w_r1, w_r2 = trap_frequencies(reference_lattice, al_up)
        assert 1e5 < w_ax < 1e7
        assert w_r1 == w_r2

        # Independent finite-difference curvature at the potential minimum.
        z = np.linspace(0, LAMBDA_M / 2, 20001)
        u = optical_potential_curve(reference_lattice, al_up, z)
        i0 = int(np.argmin(u))
        h = z[1] - z[0]
        curvature = (u[i0 - 1] - 2 * u[i0] + u[i0 + 1]) / h**2
        w_fd = math.sqrt(curvature / al_up.mass)
        assert w_ax == pytest.approx(w_fd, rel=1e-6)

    def test_washed_out_clock_is_untrapped(self, sr):
        config = LatticeConfig(lambda_m=LAMBDA_M, intensity=2e8, delta=0.0,
                               phi=math.pi / 2, transverse_intensity=2e8)
        with pytest.raises(UntrappedError):
            trap_frequencies(config, sr)

    def test_zero_transverse_intensity_is_untrapped(self, sr, reference_lattice):
        config = replace(reference_lattice, transverse_intensity=0.0)
        with pytest.raises(UntrappedError):
            trap_frequencies(config, sr)
