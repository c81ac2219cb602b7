import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwclock.cli import SCHEDULE_MAX_ATOMS
from screwclock.constants import CODATA
from screwclock.errors import NoInteractionError, ParameterError, UntrappedError
from screwclock.lattice import overlap_depth, trap_frequencies
from screwclock.rates import (
    DecoherenceParams, ProtocolSchedule, interaction_energy, phase_gate_duration,
    photon_scattering_time, scatter_probability, schedule_duration, schedule_rows,
    survival_probability,
)

from conftest import (
    LAMBDA_M, reference_schedule_rows, reference_schedule_steps, streamed_schedule_steps,
)

AMU = CODATA.atomic_mass_unit

# Frozen from the pre-build constant evaluation at the minimum intensity
# (22.198 kW/cm^2): lifetimes and the collisional gate time.
TAU_SR_ORACLE = 9.586129126578006      # s
TAU_AL_ORACLE = 7.157034667636486      # s
DELTA_E_ORACLE = 1.884194248933155e-29  # J
GATE_TIME_ORACLE = 17.58329894529646e-6  # s


class TestPhotonScatteringTime:
    def test_strontium_lifetime_near_ten_seconds(self, sr, reference_lattice):
        depth = overlap_depth(reference_lattice, sr)
        tau = photon_scattering_time(sr, reference_lattice.intensity, depth, LAMBDA_M)
        assert tau == pytest.approx(TAU_SR_ORACLE, rel=1e-9)
        assert 0.5 < tau / 10.0 < 2.0

    def test_aluminum_lifetime_near_eight_seconds(self, al_up, reference_lattice):
        depth = overlap_depth(reference_lattice, al_up)
        tau = photon_scattering_time(al_up, reference_lattice.intensity, depth, LAMBDA_M)
        assert tau == pytest.approx(TAU_AL_ORACLE, rel=1e-9)
        assert 0.5 < tau / 8.0 < 2.0

    def test_zero_polarizability_never_scatters(self, sr, reference_lattice):
        from dataclasses import replace
        ghost = replace(sr, alpha_scalar=0.0)
        tau = photon_scattering_time(ghost, reference_lattice.intensity, 1e-28, LAMBDA_M)
        assert tau == math.inf

    def test_rate_that_underflows_never_scatters(self, sr, reference_lattice):
        # An infinite depth suppresses the rate to 0 through eta = sqrt(E_R / depth) / 2.
        assert photon_scattering_time(sr, reference_lattice.intensity, math.inf, LAMBDA_M) == math.inf

    def test_nonpositive_depth_rejected(self, sr, reference_lattice):
        with pytest.raises(UntrappedError):
            photon_scattering_time(sr, reference_lattice.intensity, 0.0, LAMBDA_M)

    def test_lifetime_scales_as_inverse_square_root_of_intensity(self, sr, reference_lattice):
        # With depth proportional to intensity the suppression factor
        # cancels half the linear dependence: tau ~ I^(-1/2).
        base_depth = overlap_depth(reference_lattice, sr)
        intensities = np.geomspace(reference_lattice.intensity, 10 * reference_lattice.intensity, 8)
        taus = [
            photon_scattering_time(
                sr, i, base_depth * i / reference_lattice.intensity, LAMBDA_M
            )
            for i in intensities
        ]
        slope = np.polyfit(np.log(intensities), np.log(taus), 1)[0]
        assert slope == pytest.approx(-0.5, abs=1e-9)


class TestInteractionEnergy:
    def test_zero_scattering_length_means_no_interaction(self):
        assert interaction_energy(0.0, 1e-26, 1e-25, (1e6,) * 3, (1e6,) * 3) == 0.0

    def test_equal_particles_isotropic_traps(self):
        # Both reduced quantities halve: dE = (4a/m) sqrt(hbar/pi) (m w / 2)^(3/2).
        m, w, a = 7.3e-26, 8.5e5, 3.0e-9
        expected = (2 * a / (m / 2)) * math.sqrt(CODATA.planck_reduced / math.pi) * (m * w / 2) ** 1.5
        assert interaction_energy(a, m, m, (w,) * 3, (w,) * 3) == pytest.approx(expected, rel=1e-12)

    def test_sign_follows_scattering_length(self):
        args = (1e-26, 1e-25, (1e6,) * 3, (2e6,) * 3)
        assert interaction_energy(5e-9, *args) > 0
        assert interaction_energy(-5e-9, *args) < 0

    def test_reference_gate_time_near_twenty_microseconds(self, sr, al_up, reference_lattice):
        w_sr = trap_frequencies(reference_lattice, sr)
        w_al = trap_frequencies(reference_lattice, al_up)
        a_scatt = 100.0 * CODATA.bohr_radius
        delta_e = interaction_energy(a_scatt, al_up.mass, sr.mass, w_al, w_sr)
        assert delta_e == pytest.approx(DELTA_E_ORACLE, rel=1e-9)
        tau = phase_gate_duration(delta_e)
        assert tau == pytest.approx(GATE_TIME_ORACLE, rel=1e-9)
        assert 0.5 < tau / 20e-6 < 2.0

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ParameterError):
            interaction_energy(1e-9, -1.0, 1e-25, (1e6,) * 3, (1e6,) * 3)
        with pytest.raises(ParameterError):
            interaction_energy(1e-9, 1e-26, 1e-25, (1e6, 0.0, 1e6), (1e6,) * 3)


class TestPhaseGateDuration:
    def test_zero_phase_needs_no_time(self):
        assert phase_gate_duration(1e-29, 0.0) == 0.0

    def test_doubling_energy_halves_duration(self):
        assert phase_gate_duration(2e-29) == pytest.approx(phase_gate_duration(1e-29) / 2)

    def test_zero_energy_rejected(self):
        with pytest.raises(NoInteractionError):
            phase_gate_duration(0.0)


class TestBuildSchedule:
    def test_single_atom_bookkeeping(self):
        schedule = ProtocolSchedule(1, gate_time=1.0, transport_time=1.0,
                                    ramsey_time=10.0, pulse_time=0.0)
        assert schedule.total_duration == pytest.approx(10.0 + 2 * (1.0 + 1.0))
        assert schedule.ramsey_time == 10.0

    def test_pulse_terms_enter_total(self):
        schedule = ProtocolSchedule(1, 1.0, 1.0, 10.0, pulse_time=0.5)
        # 4 clock pulses + 2 head pulses + readout = 7 fixed pulse slots.
        assert schedule.total_duration == pytest.approx(14.0 + 7 * 0.5)

    def test_thousand_atom_entanglement_stage(self):
        kinds, durations, _ = zip(*streamed_schedule_steps(ProtocolSchedule(1000, 20e-6, 10e-6, 0.0)))
        first_pass = [d for kind, d in zip(kinds, durations) if kind in ("transport", "phase_gate")]
        stage = sum(first_pass[: 2 * 1000])
        assert stage == pytest.approx(30e-3, rel=1e-12)

    def test_invalid_atom_number_rejected(self):
        with pytest.raises(ParameterError):
            ProtocolSchedule(0, 1.0, 1.0, 1.0)

    def test_duration_linear_in_atom_number(self):
        times = {n: ProtocolSchedule(n, 2e-5, 1e-5, 0.5, 1e-7).total_duration for n in (1, 10, 100)}
        slope_a = (times[10] - times[1]) / 9
        slope_b = (times[100] - times[10]) / 90
        assert slope_a == pytest.approx(2 * (2e-5 + 1e-5), rel=1e-12)
        assert slope_b == pytest.approx(slope_a, rel=1e-12)

    def test_structure_invariants(self):
        kinds, _, sites = zip(*streamed_schedule_steps(ProtocolSchedule(5, 1e-5, 1e-5, 0.1, 1e-6)))
        assert kinds.count("free_evolution") == 1
        assert kinds.count("hadamard_all") == 4
        assert kinds.count("head_pulse") == 2
        assert kinds[-1] == "readout"
        # transport/phase_gate alternate over sites 0..N-1 in each pass
        pairs = [(kind, site) for kind, site in zip(kinds, sites) if site is not None]
        expected = []
        for i in range(5):
            expected += [("transport", i), ("phase_gate", i)]
        assert pairs == expected + expected

    def test_single_atom_steps_match_reference(self):
        schedule = ProtocolSchedule(1, 2e-5, 1e-5, 0.5, 1e-7)
        assert streamed_schedule_steps(schedule) == list(reference_schedule_steps(schedule))


# Atom numbers where a site, or a step of either pass, gains a digit: pass 1
# starts at step 2 and pass 2 at the odd step 2N + 5, whose steps cross 10^j
# near N = 10^j / 2.
_DIGIT_EDGES = sorted([10**j + d for j in range(2, 6) for d in (-1, 0, 1)]
                      + [10**j // 2 + d for j in range(2, 6) for d in (-1, 1)])


def _assert_rows_match_reference(n):
    """Each chunk ``schedule_rows`` yields equals the reference rows it stands for.

    Both sides are read a chunk at a time, so no table is held whole.
    """
    schedule = ProtocolSchedule(n, 6.283185307179586e-05, 1e-05, 0.01, 2.5e-07)
    expected = reference_schedule_rows(schedule)
    for chunk in schedule_rows(schedule):
        assert chunk == "".join(islice(expected, chunk.count(b"\n"))).encode(), n
    assert next(expected, None) is None, n


class TestScheduleRowTemplates:
    def test_every_atom_number_to_260(self):
        for n in range(1, 261):
            _assert_rows_match_reference(n)

    @pytest.mark.parametrize("n", _DIGIT_EDGES)
    def test_where_a_step_or_site_gains_a_digit(self, n):
        _assert_rows_match_reference(n)

    def test_at_the_atom_bound(self):
        _assert_rows_match_reference(SCHEDULE_MAX_ATOMS)


_TIMES = st.floats(min_value=0.0, max_value=1e3, allow_subnormal=False)


class TestScheduleDuration:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2000), _TIMES, _TIMES, _TIMES, _TIMES)
    def test_closed_form_matches_summed_steps(self, n, gate, transport, ramsey, pulse):
        schedule = ProtocolSchedule(n, gate, transport, ramsey, pulse)
        kinds, durations, sites = zip(*streamed_schedule_steps(schedule))
        assert len(kinds) == len(durations) == len(sites) == 4 * n + 8 == schedule.n_steps
        summed = sum(durations)
        assert math.isclose(summed, schedule.total_duration, rel_tol=1e-12, abs_tol=0.0)

    def test_array_atom_numbers(self):
        ns = np.array([1, 10, 100])
        expected = [ProtocolSchedule(n, 2e-5, 1e-5, 0.5, 1e-7).total_duration for n in (1, 10, 100)]
        assert schedule_duration(ns, 2e-5, 1e-5, 0.5, 1e-7).tolist() == expected

    @pytest.mark.parametrize("field", ["gate_time", "transport_time", "ramsey_time", "pulse_time"])
    @pytest.mark.parametrize("value", [-1e-6, math.nan])
    def test_negative_or_nan_time_rejected(self, field, value):
        times = {"gate_time": 1e-5, "transport_time": 1e-5, "ramsey_time": 0.1, "pulse_time": 0.0}
        times[field] = value
        with pytest.raises(ParameterError):
            ProtocolSchedule(3, **times)


class TestSurvivalProbability:
    def _params(self, tau_c=1.0, tau_h=1.0, extra=0.0):
        return DecoherenceParams(tau_c, tau_h, extra)

    def test_zero_duration_survives(self):
        schedule = ProtocolSchedule(3, 0.0, 0.0, 0.0, 0.0)
        assert survival_probability(schedule, self._params()) == 1.0

    @pytest.mark.parametrize("params", [DecoherenceParams(5e-324, 1.0), DecoherenceParams(math.inf, math.inf)])
    def test_zero_duration_or_rate_has_no_event(self, params):
        # No time or no rate, no event: the mean count is 0 where the other factor is inf
        # (N / 5e-324 overflows) or the duration at N = 2^53 overflows, not 0 * inf = nan.
        assert params.mean_events(10, 0.0) == 0.0
        schedule = ProtocolSchedule(10, 0.0, 0.0, 0.0)
        assert survival_probability(schedule, params) == 1.0
        assert scatter_probability(schedule, params) == 0.0
        overflowing = ProtocolSchedule(2**53, 1e300, 0.0, 0.0)
        assert overflowing.total_duration == math.inf
        expected = 0.0 if params.total_rate(2**53) else 1.0
        assert survival_probability(overflowing, params) == expected

    def test_log_two_exponent_gives_half(self):
        # One atom, rates tuned so duration * rate = ln 2.
        schedule = ProtocolSchedule(1, 0.0, 0.0, math.log(2.0), 0.0)
        params = DecoherenceParams(tau_scatter_clock=2.0, tau_scatter_head=2.0)
        assert survival_probability(schedule, params) == pytest.approx(0.5, rel=1e-14)

    def test_monotone_in_atoms_duration_and_rates(self):
        params = self._params(10.0, 10.0, 0.0)
        s1 = ProtocolSchedule(10, 1e-5, 1e-5, 0.1)
        s2 = ProtocolSchedule(20, 1e-5, 1e-5, 0.1)
        s3 = ProtocolSchedule(10, 1e-5, 1e-5, 0.2)
        assert survival_probability(s2, params) < survival_probability(s1, params)
        assert survival_probability(s3, params) < survival_probability(s1, params)
        faster = self._params(5.0, 10.0, 0.0)
        assert survival_probability(s1, faster) < survival_probability(s1, params)
        lossy = self._params(10.0, 10.0, 1.0)
        assert survival_probability(s1, lossy) < survival_probability(s1, params)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            DecoherenceParams(0.0, 1.0)
        with pytest.raises(ParameterError):
            DecoherenceParams(1.0, 1.0, -0.1)


class TestScatterProbability:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10**6), ramsey=st.floats(0.0, 10.0),
           tau_c=st.floats(1e-3, 1e6), tau_h=st.floats(1e-3, 1e6), extra=st.floats(0.0, 1e3))
    def test_complements_survival_within_two_ulp(self, n, ramsey, tau_c, tau_h, extra):
        schedule = ProtocolSchedule(n, 2e-5, 1e-5, ramsey)
        params = DecoherenceParams(tau_c, tau_h, extra)
        total = scatter_probability(schedule, params) + survival_probability(schedule, params)
        assert abs(total - 1.0) <= 2 * math.ulp(1.0)

    def test_keeps_precision_where_one_minus_survival_is_zero(self):
        # Exponent 1e-20: duration 1 s, one clock atom and the head at 2e20 s each.
        schedule = ProtocolSchedule(1, 0.0, 0.0, 1.0)
        params = DecoherenceParams(2e20, 2e20)
        exponent = schedule.total_duration * params.total_rate(1)
        assert exponent == pytest.approx(1e-20, rel=1e-15, abs=0.0)
        assert 1.0 - survival_probability(schedule, params) == 0.0
        assert scatter_probability(schedule, params) == pytest.approx(exponent, rel=1e-15, abs=0.0)
