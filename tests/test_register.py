import cmath
import math
import sys
import timeit
from operator import methodcaller

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from screwclock.errors import CapacityError, ClockSimError, ParameterError
from screwclock.estimator import fringe_scan
from screwclock.register import (
    BACKENDS, DENSE_ATOM_CAP, HADAMARD,
    _branch_dense_overlap, _check_unitary, _clock_weights, _head_overlaps, _overlap_power,
    _overlap_power_array, _pair_overlap, evolve_and_disentangle, final_reference, ghz_reference,
    init_register, prepare_ghz, protocol_references, state_fidelity, state_overlap,
)

from conftest import (
    EXPAND_MAX_ATOMS, PHASE_PASS, ReferenceBranchState, backend_crosscheck, chi_rounding, copy_state,
    dense_copy, haar_unitary, protocol_sequence, random_gate_sequence, reference_axis_rotation,
    reference_branch_dense_overlap, reference_dense_clock_rotation, reference_dense_free_evolution,
    reference_dense_head_rotation, reference_dense_phase_pass, run_protocol, state_norm, to_vector,
)


def _superposed(n, backend):
    return init_register(n, backend).apply_clock_rotation(HADAMARD).apply_head_rotation(HADAMARD)


def _pairs(array) -> list[tuple[complex, complex]]:
    """The rows of an (r, 2) array as a branch state's list of Python complex pairs."""
    return [(complex(x0), complex(x1)) for x0, x1 in np.asarray(array, dtype=complex)]


def _head_probabilities(state) -> tuple[float, float]:
    """(p_down, p_up) of a branch state from its own overlaps, before any clamping."""
    p_down, p_up = _head_overlaps(state, state)
    return p_down.real, p_up.real


def _random_dense(n, rng):
    state = init_register(n, "dense")
    vector = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
    state.amplitudes = vector / np.linalg.norm(vector)
    return state


class TestInitRegister:
    def test_single_atom_dense(self):
        state = init_register(1, "dense")
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_three_atoms_start_all_zeros_head_down(self):
        state = init_register(3, "dense")
        assert state.amplitudes[0] == 1.0
        assert state.head_readout() == (1.0, 0.0)

    def test_dense_capacity_guard(self):
        with pytest.raises(CapacityError):
            init_register(20, "dense")
        init_register(20, "branch")  # fine

    def test_branch_starts_rank_one(self):
        assert init_register(4, "branch").rank == 1

    def test_unknown_backend(self):
        with pytest.raises(ParameterError):
            init_register(3, "tensor")


class TestClockRotation:
    def test_hadamard_gives_uniform_superposition(self):
        n = 5
        state = init_register(n, "dense").apply_clock_rotation(HADAMARD)
        expected = np.zeros(2 ** (n + 1), dtype=complex)
        expected[: 2**n] = 1.0 / math.sqrt(2**n)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_identity_leaves_state_unchanged(self):
        state = run_protocol(4, "dense", 0.2, 0.1, 1.0).final
        before = to_vector(state)
        state.apply_clock_rotation(np.eye(2))
        np.testing.assert_allclose(to_vector(state), before, atol=1e-14)

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_hadamard_is_an_involution(self, backend):
        state = init_register(6, backend)
        state.apply_clock_rotation(HADAMARD).apply_clock_rotation(HADAMARD)
        reference = init_register(6, backend)
        assert abs(state_overlap(state, reference)) ** 2 > 1 - 1e-10

    def test_nonunitary_rejected(self):
        with pytest.raises(ParameterError):
            init_register(2, "dense").apply_clock_rotation([[1.0, 0.0], [0.0, 1.1]])
        with pytest.raises(ParameterError):
            init_register(2, "branch").apply_clock_rotation([[1.0, 0.5], [0.0, 1.0]])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
    def test_dense_blocks_match_per_axis_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        m = haar_unitary(rng)
        state = _random_dense(n, rng)
        reference = copy_state(state)
        for axis in range(1, n + 1):
            reference_axis_rotation(reference, m, axis)
        state.apply_clock_rotation(m)
        assert state.amplitudes.flags.c_contiguous
        assert np.abs(state.amplitudes - reference.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_branch_matches_einsum_reference(self, seed):
        # Every site of the per-site reference, rotated by einsum, equals the one factor.
        rng = np.random.default_rng(seed)
        m, first = haar_unitary(rng), haar_unitary(rng)
        state, reference = init_register(50, "branch"), ReferenceBranchState(50)
        for each in (state, reference):
            each.apply_clock_rotation(HADAMARD).apply_head_rotation(HADAMARD)
            each.apply_phase_pass().apply_clock_rotation(first)
        expected = np.einsum("ab,rnb->rna", m, reference.clock)
        state.apply_clock_rotation(m)
        assert state.rank == reference.rank == 2
        assert all(type(x) is complex for pair in state.clock for x in pair)
        assert np.abs(np.array(state.clock)[:, None, :] - expected).max() <= 1e-12


class TestHeadRotation:
    def test_hadamard_on_down(self):
        state = init_register(1, "dense").apply_head_rotation(HADAMARD)
        np.testing.assert_allclose(
            state.amplitudes, [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0], atol=1e-14
        )

    def test_identity(self):
        state = init_register(3, "branch")
        state.apply_head_rotation(np.eye(2))
        assert state_fidelity(state, init_register(3, "branch")) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_backends_agree_on_random_states(self, seed):
        deviation = backend_crosscheck(6, seed=seed, n_gates=30)
        assert deviation < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 14])
    def test_dense_matches_per_axis_reference(self, n):
        rng = np.random.default_rng(n)
        m = haar_unitary(rng)
        state = _random_dense(n, rng)
        reference = reference_axis_rotation(copy_state(state), m, 0)
        state.apply_head_rotation(m)
        assert np.abs(state.amplitudes - reference.amplitudes).max() <= 1e-12


class TestDenseBuffers:
    """Each dense product writes the amplitudes or the spare, whichever the step before did not."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_rotations_match_allocating_reference_bit_for_bit(self, n):
        rng = np.random.default_rng(500 + n)
        state = _random_dense(n, rng)
        snapshot = copy_state(state)
        original = to_vector(state)
        reference = copy_state(state)
        for _ in range(3):
            clock, head = haar_unitary(rng), haar_unitary(rng)
            state.apply_clock_rotation(clock).apply_head_rotation(head)
            reference_dense_clock_rotation(reference, clock)
            reference_dense_head_rotation(reference, head)
            assert np.array_equal(state.amplitudes, reference.amplitudes)
            assert state.amplitudes.flags.c_contiguous
            assert not np.shares_memory(state.amplitudes, state._spare)
        assert np.array_equal(snapshot.amplitudes, original)  # a copy shares no array

    @pytest.mark.parametrize("n", [1, 4, 14])
    def test_amplitudes_bound_to_a_strided_or_real_array_rotate_alike(self, n):
        # Such an array is read, never written: a product into it would be lost or rejected.
        rng = np.random.default_rng(n)
        vector = _random_dense(n, rng).amplitudes
        gates = [("apply_clock_rotation", reference_dense_clock_rotation),
                 ("apply_head_rotation", reference_dense_head_rotation)]
        for bound in (np.concatenate([vector, vector])[::2], np.abs(vector)):
            for first in gates:  # each rotation meets the bound array first once
                state, reference = init_register(n, "dense"), init_register(n, "dense")
                state.amplitudes, reference.amplitudes = bound, bound.astype(complex)
                for method, reference_gate in [first, *gates]:
                    matrix = haar_unitary(rng)
                    getattr(state, method)(matrix)
                    reference_gate(reference, matrix)
                    assert np.array_equal(state.amplitudes, reference.amplitudes)


class TestDenseWeightTable:
    """Both diagonal dense gates read the per-N table of clock-index weights."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_weights_are_bit_counts(self, n):
        weights = _clock_weights(n)
        assert weights.dtype == np.uint8 and not weights.flags.writeable
        assert weights.tolist() == [bin(p).count("1") for p in range(2**n)]
        assert _clock_weights(n) is weights

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
    def test_phase_pass_matches_xor_reference_bit_for_bit(self, n, seed):
        state = _random_dense(n, np.random.default_rng(seed))
        reference = reference_dense_phase_pass(copy_state(state))
        state.apply_phase_pass()
        assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()

    @pytest.mark.parametrize("n", [1, 5, 14])
    @pytest.mark.parametrize("sites", [(), (0,), "last", "every"])
    def test_phase_pass_edge_cases_match_xor_reference(self, n, sites):
        # Edge cases of the sign table: the clock index whose raised sites are
        # none, the first, the last or all of them.
        sites = {"last": (n - 1,), "every": tuple(range(n))}.get(sites, sites)
        p = sum(2**site for site in sites)
        state = _random_dense(n, np.random.default_rng(n))
        before = to_vector(state)
        reference = reference_dense_phase_pass(copy_state(state))
        state.apply_phase_pass()
        assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()
        assert state.amplitudes[2**n + p] == (-1) ** len(sites) * before[2**n + p]
        assert state.amplitudes[p] == before[p]  # head down: untouched

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 14), seed=st.integers(0, 2**32 - 1),
           dw=st.floats(-5.0, 5.0), dwh=st.floats(-5.0, 5.0), t=st.floats(0.0, 1.0))
    def test_free_evolution_matches_per_axis_reference(self, n, seed, dw, dwh, t):
        state = _random_dense(n, np.random.default_rng(seed))
        reference = reference_dense_free_evolution(copy_state(state), dw, dwh, t)
        state.apply_free_evolution(dw, dwh, t)
        assert np.abs(state.amplitudes - reference.amplitudes).max() <= 2e-15


class TestGateCaches:
    """Every rotation checks its matrix; weight tables are built once per N."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", ["apply_clock_rotation", "apply_head_rotation"])
    def test_matrix_changed_in_place_is_used_or_rejected(self, backend, method):
        rng = np.random.default_rng(11)
        matrix = haar_unitary(rng)
        state = _superposed(4, backend)
        getattr(state, method)(matrix)
        matrix[:] = haar_unitary(rng)
        reference = copy_state(state)
        getattr(reference, method)(matrix.copy())
        getattr(state, method)(matrix)
        assert np.array_equal(to_vector(state), to_vector(reference))
        matrix[1, 1] *= 1.1
        with pytest.raises(ParameterError, match="not unitary"):
            getattr(state, method)(matrix)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nonunitary_rejected_after_hadamard(self, backend):
        state = _superposed(3, backend)
        for matrix in (HADAMARD * 1.0001, np.array([[1.0, 1.0], [1.0, -1.0]])):
            with pytest.raises(ParameterError, match="not unitary"):
                state.apply_clock_rotation(matrix)
            with pytest.raises(ParameterError, match="not unitary"):
                state.apply_head_rotation(matrix)

    def test_hadamard_is_a_read_only_unitary(self):
        np.testing.assert_array_equal(HADAMARD, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
        assert not HADAMARD.flags.writeable
        assert np.array_equal(np.reshape(_check_unitary(HADAMARD), (2, 2)), HADAMARD)

    def test_check_reads_the_entries_as_python_complexes(self):
        matrix = haar_unitary(np.random.default_rng(3))
        entries = _check_unitary(matrix)
        assert all(type(x) is complex for x in entries)
        assert list(entries) == matrix.ravel().tolist()
        assert _check_unitary(matrix.tolist()) == entries
        for wrong in (np.eye(3), np.eye(2)[:1]):
            with pytest.raises(ParameterError, match="2x2"):
                _check_unitary(wrong)
        for entry in (math.nan, math.inf):  # a non-finite entry is no unitary's
            broken = matrix.copy()
            broken[1, 0] = entry
            with pytest.raises(ParameterError, match="not unitary"):
                _check_unitary(broken)

    def test_cached_arrays_are_read_only(self):
        for array in (HADAMARD, _clock_weights(5)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0

    def test_caches_stay_within_their_bounds(self):
        rng = np.random.default_rng(2024)
        state = init_register(3, "dense")
        for _ in range(1000):
            state.apply_clock_rotation(haar_unitary(rng))
            state.apply_phase_pass()
        info = _clock_weights.cache_info()
        assert info.maxsize == DENSE_ATOM_CAP and info.currsize <= DENSE_ATOM_CAP
        assert state_norm(state) == pytest.approx(1.0, abs=1e-12)


class TestPhaseGate:
    def test_sign_flip_on_raised_bit_with_head_up(self):
        n = 3
        state = init_register(n, "dense")
        # Prepare (|010> - |011>)|up> / sqrt(2): p = 2 and 3, index = p + 2^3
        state.amplitudes[0] = 0.0
        state.amplitudes[2 + 2**n] = 1.0 / math.sqrt(2.0)
        state.amplitudes[3 + 2**n] = -1.0 / math.sqrt(2.0)
        state.apply_phase_pass()
        assert state.amplitudes[2 + 2**n] == -1.0 / math.sqrt(2.0)  # one bit raised: flipped
        assert state.amplitudes[3 + 2**n] == -1.0 / math.sqrt(2.0)  # two bits raised: kept

    def test_head_down_untouched(self):
        n = 2
        state = init_register(n, "dense")
        state.amplitudes[0] = 0.0
        state.amplitudes[1] = 1.0  # |01>|down>
        state.apply_phase_pass()
        assert state.amplitudes[1] == 1.0

    def test_parity_signs_after_full_pass(self):
        # Applying every P_i to the global superposition attaches (-1)^(number
        # of raised bits) to the head-up half.
        n = 4
        state = init_register(n, "dense")
        state.apply_clock_rotation(HADAMARD).apply_head_rotation(HADAMARD)
        state.apply_phase_pass()
        norm = 1.0 / math.sqrt(2 ** (n + 1))
        for p in range(2**n):
            k_p = bin(p).count("1")
            assert state.amplitudes[p] == pytest.approx(norm, rel=1e-12)
            assert state.amplitudes[p + 2**n] == pytest.approx((-1) ** k_p * norm, rel=1e-12)


class TestPhasePass:
    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_duplicate_sites_cancel(self, backend):
        # Two passes give every site its phase gate twice, and each gate squares to 1.
        twice = to_vector(_superposed(4, backend).apply_phase_pass().apply_phase_pass())
        np.testing.assert_allclose(twice, to_vector(_superposed(4, backend)), atol=1e-15)

    def test_protocol_applies_each_entangling_pass_as_one_gate(self, monkeypatch):
        # prepare_ghz's pass, then evolve_and_disentangle's flip, which stands for H, pass, H.
        calls = []
        for backend in BACKENDS:
            cls = type(init_register(1, backend))
            for name in ("apply_phase_pass", "apply_controlled_flip"):

                def counted(state, gate=getattr(cls, name), name=name):
                    calls.append((state.backend, name))
                    return gate(state)

                monkeypatch.setattr(cls, name, counted)
            run_protocol(5, backend, 0.3, 0.1, 1.0)
        assert calls == [(backend, name) for backend in BACKENDS
                         for name in ("apply_phase_pass", "apply_controlled_flip")]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pass_matches_sequential_reference_gates(self, data):
        n = data.draw(st.integers(1, 7), label="n_atoms")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        prefix = random_gate_sequence(n_gates=25, seed=seed)[: data.draw(st.integers(0, 25))]
        dense, branch, reference = init_register(n, "dense"), init_register(n, "branch"), ReferenceBranchState(n)
        for gate in [*prefix, PHASE_PASS]:  # the reference's pass is one phase gate per site
            gate(dense)
            gate(branch)
            gate(reference)
        assert np.abs(to_vector(branch) - to_vector(reference)).max() <= 1e-12
        assert np.abs(to_vector(dense) - to_vector(branch)).max() <= 1e-9

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_parts_with_one_clock_factor_stay_apart(self, n):
        # The protocol leaves two branches on |0...0>, each with a superposed head; a further
        # pass splits them into four parts on that one clock factor, and none merge.
        branch = run_protocol(n, "branch", 0.3, 0.1, 1.0).final.apply_phase_pass()
        dense = run_protocol(n, "dense", 0.3, 0.1, 1.0).final.apply_phase_pass()
        assert branch.rank == 4
        assert np.abs(to_vector(branch) - to_vector(dense)).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, DENSE_ATOM_CAP + 1))
    def test_whole_pass_matches_per_site_references(self, n):
        rng = np.random.default_rng(700 + n)
        dense = _random_dense(n, rng)
        reference = reference_dense_phase_pass(copy_state(dense))
        assert dense.apply_phase_pass().amplitudes.tobytes() == reference.amplitudes.tobytes()

        branch, reference = init_register(n, "branch"), ReferenceBranchState(n)
        for gate in [*random_gate_sequence(n_gates=25, seed=n), PHASE_PASS]:
            gate(branch)
            gate(reference)
        assert np.abs(to_vector(branch) - to_vector(reference)).max() <= 1e-12


def _disentangling_triple(state):
    """H on all clocks, the phase pass, H on all clocks: the gates a controlled flip stands for."""
    return state.apply_clock_rotation(HADAMARD).apply_phase_pass().apply_clock_rotation(HADAMARD)


def _random_branch(n, rank, rng):
    """A normalized branch state with some heads superposed, so that a controlled gate splits.

    Clock factors come from a pool holding |+> and |->, which the flip maps onto
    themselves up to sign: split parts then share a clock factor.
    """
    inv = 1.0 / math.sqrt(2.0)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pool = np.vstack([[[inv, inv], [inv, -inv]], z / np.linalg.norm(z, axis=1, keepdims=True)])
    state = init_register(n, "branch")
    state.clock = _pairs(pool[rng.integers(0, len(pool), rank)])
    head = rng.normal(size=(rank, 2)) + 1j * rng.normal(size=(rank, 2))
    single = np.nonzero(rng.random(rank) < 0.3)[0]
    head[single, rng.integers(0, 2, single.size)] = 0.0
    state.head = _pairs(head)
    state.head = _pairs(head / state_norm(state))
    return state


class TestControlledFlip:
    """The flip against the three gates it stands for, on both backends."""

    @pytest.mark.parametrize("n", range(1, DENSE_ATOM_CAP + 1))
    def test_dense_flip_matches_the_triple(self, n):
        state = _random_dense(n, np.random.default_rng(900 + n))
        flipped = copy_state(state).apply_controlled_flip()
        assert np.abs(to_vector(flipped) - to_vector(_disentangling_triple(state))).max() <= 1e-14

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 10), rank=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_branch_flip_matches_the_triple(self, n, rank, seed):
        state = _random_branch(n, rank, np.random.default_rng(seed))
        flipped = copy_state(state).apply_controlled_flip()
        tripled = _disentangling_triple(state)
        assert flipped.rank == tripled.rank
        assert np.abs(to_vector(flipped) - to_vector(tripled)).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_branch_flip_splits_as_the_pass_does(self, n):
        inv = 1.0 / math.sqrt(2.0)
        head = np.array([[0.6, 0.8j]])
        plus = init_register(n, "branch")  # |+...+> is flipped onto itself, in two parts
        plus.clock, plus.head = _pairs([[inv, inv]]), _pairs(head)
        flipped = copy_state(plus).apply_controlled_flip()
        assert flipped.rank == 2
        assert np.abs(to_vector(flipped) - to_vector(plus)).max() <= 1e-15
        zeros = init_register(n, "branch")  # |0...0> splits into |0...0>|down> + |1...1>|up>
        zeros.head = _pairs(head)
        flipped = zeros.apply_controlled_flip()
        assert flipped.rank == 2
        assert np.array_equal(flipped.clock, np.eye(2)) and np.array_equal(flipped.head, np.diag(head[0]))

    def test_parts_a_small_angle_apart_keep_their_branches(self):
        # Free evolution turns |+> by a phase of 1e-6 rad, so the flip's two parts overlap
        # by cos(1e-6) at each site and by 1 - 7e-11 over all 145, yet differ by the phase
        # N 1e-6: both stay.
        state = _superposed(145, "branch").apply_free_evolution(1e-3, 0.0, 1e-3)
        assert state.apply_controlled_flip().rank == 2

    def test_heads_with_one_component_keep_their_branches(self):
        # The GHZ state's heads are not superposed: no split, and each clock factor is swapped.
        flipped = ghz_reference(6).apply_controlled_flip()
        assert np.array_equal(flipped.clock, np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(flipped.head, ghz_reference(6).head)


class TestFreeEvolution:
    def test_zero_time_is_identity(self):
        state = dense_copy(ghz_reference(4))
        before = to_vector(state)
        state.apply_free_evolution(0.7, 0.3, 0.0)
        np.testing.assert_allclose(to_vector(state), before, atol=1e-15)

    def test_zero_detunings_are_identity(self):
        state = ghz_reference(4)
        state.apply_free_evolution(0.0, 0.0, 123.0)
        assert state_fidelity(state, ghz_reference(4)) == pytest.approx(1.0)

    def test_ghz_accumulates_enhanced_phase(self):
        # N = 5 with dw T = 0.1 and dw' T = 0.02: relative branch phase 0.52.
        n, t = 5, 1.0
        state = dense_copy(ghz_reference(n)).apply_free_evolution(0.1, 0.02, t)
        amp_down = state.amplitudes[0]
        amp_up = state.amplitudes[2 ** (n + 1) - 1]
        phase = np.angle(amp_up / amp_down)
        assert phase == pytest.approx(0.52, abs=1e-12)


class TestRunProtocol:
    def test_ghz_checkpoint_small(self):
        result = run_protocol(3, "dense")
        fid = state_fidelity(result.checkpoints["ghz"], dense_copy(ghz_reference(3)))
        assert fid >= 1 - 1e-10

    def test_zero_phase_returns_to_start(self):
        for backend in ("dense", "branch"):
            result = run_protocol(6, backend, 0.0, 0.0, 5.0)
            reference = init_register(6, backend)
            assert state_fidelity(result.final, reference) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("chi", [0.3, 1.1, 2.9])
    def test_clock_register_disentangles(self, chi):
        n = 8
        t = 1.0
        result = run_protocol(n, "dense", chi / (n * t), 0.0, t)
        vec = to_vector(result.final).reshape(2, 2**n)
        # All clock amplitude must sit on p = 0 for both head values.
        off = np.abs(vec[:, 1:]).max()
        assert off < 1e-12

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_checkpoints_match_ideal_references(self, backend):
        n, dw, dwh, t = 5, 0.21, 0.013, 1.7
        result = run_protocol(n, backend, dw, dwh, t)
        refs = protocol_references(n, dw, dwh, t)
        for name, reference in refs.items():
            fid = state_fidelity(result.checkpoints[name], reference)
            assert fid == pytest.approx(1.0, abs=1e-10), name

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoints_are_independent_copies(self, backend):
        result = run_protocol(4, backend, 0.3, 0.1, 1.0)
        assert list(result.checkpoints) == ["superposition", "entangled", "ghz", "evolved", "final"]
        states = [result.final, *result.checkpoints.values()]
        vectors = [to_vector(state) for state in states]
        rng = np.random.default_rng(7)
        for i, state in enumerate(states):
            state.apply_clock_rotation(haar_unitary(rng)).apply_head_rotation(haar_unitary(rng))
            vectors[i] = to_vector(state)
            for other, vector in zip(states, vectors):
                assert np.array_equal(to_vector(other), vector)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_halves_hand_each_checkpoint_the_state_itself(self, backend):
        n, dw, dwh, t = 4, 0.3, 0.1, 1.0
        state, passed = init_register(n, backend), []

        def check(label, passing):
            assert passing is state
            passed.append((label, to_vector(passing)))

        prepare_ghz(state, check)
        evolve_and_disentangle(state, dw, dwh, t, check)
        copies = run_protocol(n, backend, dw, dwh, t).checkpoints
        assert [label for label, _ in passed] == list(copies)
        for label, vector in passed:
            assert np.array_equal(vector, to_vector(copies[label])), label

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_halves_apply_the_nine_gates_bit_for_bit(self, backend):
        # The controlled flip is exact where the H, pass, H it replaces rounds, so the
        # halves agree with the nine gates to rounding (measured 6.7e-16), not bit for bit.
        n, dw, dwh, t = 5, 0.3, 0.1, 1.0
        state = init_register(n, backend)
        for gate in protocol_sequence(dw, dwh, t):
            gate(state)
        assert np.abs(to_vector(run_protocol(n, backend, dw, dwh, t).final) - to_vector(state)).max() <= 1e-15

    @pytest.mark.parametrize("backend,n", [("dense", 6), ("branch", 6), ("branch", 300)])
    def test_fringe_scan_equals_per_point_protocol(self, backend, n):
        t, dwh = 0.3, 0.05
        grid = np.linspace(-1.0, 3.0, 9) / n
        scan = fringe_scan(n, t, grid, delta_omega_head=dwh, backend=backend)
        expected = [run_protocol(n, backend, float(dw), dwh, t).p_up for dw in grid]
        assert (np.abs(np.subtract(scan.p_up, expected)) <= chi_rounding(n, grid, dwh, t)).all()

    @pytest.mark.parametrize("n", [1, 6, 145, 2**53])
    def test_rank_never_exceeds_two(self, n):
        # The entangling pass, the third gate, is the one gate to meet a superposed head.
        state = init_register(n, "branch")
        ranks = [gate(state).rank for gate in protocol_sequence(0.4, 0.1, 2.0)]
        assert ranks == [1, 1] + [2] * 7

    def test_norm_preserved_by_every_gate(self):
        for backend in ("dense", "branch"):
            state = init_register(5, backend)
            for gate in protocol_sequence(0.3, 0.07, 1.3):
                gate(state)
                assert state_norm(state) == pytest.approx(1.0, abs=1e-10)


class TestStateOverlap:
    """Dense/branch overlaps contract the branch factors into the dense tensor."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 10), rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_contraction_matches_expanded_vectors(self, n, rank, seed):
        rng = np.random.default_rng(seed)

        def unit_factors(*shape):
            z = rng.normal(size=(*shape, 2)) + 1j * rng.normal(size=(*shape, 2))
            return z / np.linalg.norm(z, axis=-1, keepdims=True)

        branch = init_register(n, "branch")
        amps = rng.normal(size=rank) + 1j * rng.normal(size=rank)
        branch.clock, branch.head = _pairs(unit_factors(rank)), _pairs(amps[:, None] * unit_factors(rank))
        dense = _random_dense(n, rng)
        expected = np.vdot(to_vector(dense), to_vector(branch))
        forward = state_overlap(dense, branch)
        backward = state_overlap(branch, dense)
        assert abs(forward - expected) <= 1e-12
        assert abs(backward - np.conj(expected)) <= 1e-12
        assert backward == forward.conjugate()

    @pytest.mark.parametrize("n", range(1, DENSE_ATOM_CAP + 1))
    def test_blocks_of_sites_match_the_per_site_reference(self, n):
        # Every N mod DENSE_BLOCK_BITS occurs. Each branch contracts unit clock factors
        # against a unit vector, so it rounds by a few eps per site times its head's norm:
        # the bound is (N + 2) eps sum_i |head_i| (at most 0.33 of it measured over 20000
        # such states, N = 1..14). Half the dense states are near the branch state, where
        # the overlap is near 1 and the rounding largest.
        rng = np.random.default_rng(n)
        for rank in (2, 3, 4):
            for near in (False, True):
                branch, dense = _random_branch(n, rank, rng), _random_dense(n, rng)
                if near:
                    vector = to_vector(branch)
                    dense.amplitudes = vector + 0.3 * np.linalg.norm(vector) * dense.amplitudes
                    dense.amplitudes /= np.linalg.norm(dense.amplitudes)
                bound = (n + 2) * np.finfo(float).eps * np.linalg.norm(branch.head, axis=1).sum()
                blocked = _branch_dense_overlap(branch, dense)
                assert abs(blocked - reference_branch_dense_overlap(branch, dense)) <= bound, (rank, near)


def _unit_pairs(rng, count):
    """``count`` random unit clock factors, as pairs of Python complexes."""
    z = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return _pairs(z / np.linalg.norm(z, axis=1, keepdims=True))


@pytest.mark.filterwarnings("error")
class TestOverlapPower:
    """<u|w>^N of two clock 2-vectors: the scalar pair overlap, and the array form a fringe uses."""

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
               lambda parts: math.hypot(*parts) > 1e-3),
           n=st.integers(1, 2**53))
    @example(parts=[1.0, 0.0, 0.0, 0.0], n=2**53)
    @example(parts=[0.6, 0.0, 0.0, -0.8], n=2**53)
    def test_a_factors_own_overlap_is_exactly_one(self, parts, n):
        norm = math.hypot(*parts)
        u = (complex(parts[0], parts[1]) / norm, complex(parts[2], parts[3]) / norm)
        assert _pair_overlap(u, u, n) == 1.0

    @pytest.mark.parametrize("n", [1, 10**3, 2**53])
    def test_identical_factors_give_exactly_one(self, n):
        # Through a state: its own overlap, and each head component of it, read exactly.
        for u in _unit_pairs(np.random.default_rng(n), 300):
            assert _pair_overlap(u, u, n) == 1.0
        state = init_register(n, "branch")
        state.clock = _unit_pairs(np.random.default_rng(n), 1)
        assert state_overlap(state, state) == 1.0 and state.head_readout() == (1.0, 0.0)

    @pytest.mark.parametrize("n", [1, 10**3, 2**53])
    def test_orthogonal_factors_give_exactly_zero(self, n):
        # The GHZ state's two factors, and random factors on one component each: z = 0.
        assert _pair_overlap((1 + 0j, 0j), (0j, 1 + 0j), n) == 0.0
        for u0, u1 in _unit_pairs(np.random.default_rng(n), 300):
            assert _pair_overlap((u0, 0j), (0j, u1), n) == 0.0
        assert _overlap_power(0j, 1.0, n) == 0.0
        assert _overlap_power_array(np.zeros(3, dtype=complex), np.ones(3), n).tolist() == [0, 0, 0]

    def test_one_atom_gives_the_plain_overlap(self):
        # Near-orthogonal pairs too, where a modulus taken as sqrt(1 - sine^2) cancels.
        # Both round their sums by a few eps: measured at most 3.05 eps over 1.8 million pairs.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(1)
        u, w = _unit_pairs(rng, 300), _unit_pairs(rng, 300)
        near = [(-u1.conjugate() + 1e-9 * w0, u0.conjugate() + 1e-9 * w1) for (u0, u1), (w0, w1) in zip(u, w)]
        for v in (w, _pairs(np.array(near) / np.linalg.norm(near, axis=1, keepdims=True))):
            for a0, a1 in u:
                for b0, b1 in v:
                    z = _pair_overlap((a0, a1), (b0, b1), 1)
                    assert abs(z - (a0.conjugate() * b0 + a1.conjugate() * b1)) <= 4 * eps

    @settings(max_examples=500, deadline=None)
    @given(z=st.complex_numbers(max_magnitude=1.0), sine=st.floats(0.0, 1.0), n=st.integers(1, 2**53))
    @example(z=1 - 1e-16j, sine=1e-16, n=2**53)
    @example(z=-1 + 0j, sine=0.0, n=3)
    @example(z=1e-200 + 0j, sine=1.0, n=1)
    @example(z=2.1e-161 + 0j, sine=1.0, n=1)  # sine^2 / |z|^2 overflows to inf
    def test_scalar_and_array_forms_agree(self, z, sine, n):
        # Both take exp(A + iB), A = -N log1p(sine^2 / |z|^2) / 2 and B = N arg z, from
        # libm's log1p and atan2 or numpy's, which differ by up to 1 ulp; that ulp is then
        # N times larger. So they agree within 4 ulp of each of A and B (measured at most
        # 2.1 over 200000 random draws), and within the smallest normal float where z^N
        # underflows.
        eps = np.finfo(float).eps
        scalar = _overlap_power(z, sine, n)
        array = _overlap_power_array(np.array([z]), np.array([sine]), n)[0]
        z2 = abs(z) ** 2
        a = n * math.log1p(sine * sine / z2 if z2 > 0 else math.inf) / 2
        if a == math.inf:  # |z|^2 underflows, or the ratio overflows: the modulus is 0
            assert scalar == array == 0
            return
        b = n * abs(cmath.phase(z))
        bound = 4 * eps * max(abs(scalar), abs(array)) * (1 + a + b) + sys.float_info.min
        assert abs(scalar - array) <= bound


class TestPerSiteReference:
    """The one clock factor per branch against the reference that keeps a factor per site."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 49), n_gates=st.integers(1, 11),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    def test_random_public_gates_match_per_site_reference(self, n, n_gates, seeds):
        # Up to 11 gates hold at most two phase passes, so the rank stays at most 4.
        # The two differ by rounding that grows with N: at most 1.8 N 1e-15 over
        # 20000 draws, so N 1e-15 would fail about one draw in a thousand.
        tol = n * 4e-15
        pairs = []
        for seed in seeds:
            branch, reference = init_register(n, "branch"), ReferenceBranchState(n)
            for gate in random_gate_sequence(n_gates=n_gates, seed=seed):
                gate(branch)
                gate(reference)
            assert branch.rank == reference.rank <= 4
            assert np.abs(np.subtract(branch.head_readout(), reference.head_readout())).max() <= tol
            assert abs(state_norm(branch) - reference.norm()) <= tol
            if n <= 10:
                assert np.abs(to_vector(branch) - to_vector(reference)).max() <= tol
            pairs.append((branch, reference))
        (a, a_ref), (b, b_ref) = pairs
        assert abs(state_overlap(a, b) - a_ref.overlap_with(b_ref)) <= tol
        assert abs(state_overlap(a, a) - a_ref.overlap_with(a_ref)) <= tol

    @pytest.mark.parametrize("n", [1, 50, 2000])
    def test_protocol_matches_per_site_reference(self, n):
        dw, dwh, t = 0.7 / n, 0.05, 1.3
        branch, reference = init_register(n, "branch"), ReferenceBranchState(n)
        for gate in protocol_sequence(dw, dwh, t):
            gate(branch)
            gate(reference)
        assert branch.rank == reference.rank
        assert np.abs(np.subtract(branch.head_readout(), reference.head_readout())).max() <= n * 4e-15
        assert branch.head_readout()[1] == pytest.approx(math.sin((n * dw + dwh) * t / 2) ** 2, abs=1e-12)

    def test_expansion_is_capped(self):
        for state in (init_register(EXPAND_MAX_ATOMS, "branch"), ReferenceBranchState(EXPAND_MAX_ATOMS)):
            assert to_vector(state)[0] == 1.0
        n = EXPAND_MAX_ATOMS + 1
        for state in (init_register(n, "branch"), ReferenceBranchState(n)):
            with pytest.raises(CapacityError, match="refusing to expand"):
                to_vector(state)


class TestHeadReadout:
    def test_chi_pi_reads_up(self):
        state = dense_copy(final_reference(4, math.pi))
        p_down, p_up = state.head_readout()
        assert p_up == pytest.approx(1.0, abs=1e-12)
        assert p_down == pytest.approx(0.0, abs=1e-12)

    def test_chi_half_pi_is_balanced(self):
        state = final_reference(4, math.pi / 2)
        _, p_up = state.head_readout()
        assert p_up == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_backends_agree_on_random_states(self, seed):
        n = 7
        dense = init_register(n, "dense")
        branch = init_register(n, "branch")
        for gate in random_gate_sequence(n_gates=25, seed=seed):
            gate(dense)
            gate(branch)
        pd_d, pu_d = dense.head_readout()
        pd_b, pu_b = branch.head_readout()
        assert pu_b == pytest.approx(pu_d, abs=1e-10)
        assert pd_b == pytest.approx(pd_d, abs=1e-10)

    # Scaled by 1.1: p_down = 1.21 outside [0, 1]; or 0.605 each, summing to 1.21.
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("make", [lambda n: init_register(n, "branch"), ghz_reference],
                             ids=["init_register", "ghz_reference"])
    def test_norm_drift_raises(self, make, backend):
        state = make(3)
        state.head = [(h0 * 1.1, h1 * 1.1) for h0, h1 in state.head]
        if backend == "dense":
            state = dense_copy(state)
        with pytest.raises(ClockSimError, match="drifted"):
            state.head_readout()
        with pytest.raises(ClockSimError, match="drifted"):
            state.fringe_readout([0.0, 0.5], 0.0, 1.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rounding_within_tolerance_is_clamped(self, backend):
        # Scaled by 1 + 1e-12: p_down = 1 + 2e-12, within READOUT_TOL of 1, reads 1.
        state = init_register(3, "branch")
        state.head = [(h0 * (1 + 1e-12), h1) for h0, h1 in state.head]
        if backend == "dense":
            state = dense_copy(state)
        assert state.head_readout() == (1.0, 0.0)

    @pytest.mark.parametrize("n", [10**3, 1_600_000, 10**9, 2**53])
    def test_readout_sums_to_one_at_any_atom_number(self, n):
        # Each clock factor's norm rounds to 1 - 4.4e-16; the Lagrange identity gives
        # a state's own gram a diagonal of exactly 1 instead of that to the N-th power.
        t = 0.01
        for chi in np.linspace(0.0, 2 * math.pi, 17):
            state = run_protocol(n, "branch", chi / (n * t), 0.0, t).final
            p_down, p_up = _head_probabilities(state)
            assert abs(p_down + p_up - 1.0) <= 1e-15, chi

    def test_parts_of_a_rounded_factor_read_as_a_probability(self):
        # H twice leaves |0> with norm^2 1 - 4.4e-16. A pass splits the superposed head
        # into two parts on that factor, and each part's own overlap is exactly 1.
        state = init_register(10**5, "branch").apply_clock_rotation(HADAMARD).apply_clock_rotation(HADAMARD)
        state.apply_head_rotation(HADAMARD).apply_phase_pass()
        assert state.rank == 2
        p_down, p_up = _head_probabilities(state)
        assert abs(p_down + p_up - 1.0) <= 1e-15

    def test_fringe_law_holds_to_rounding_at_any_atom_number(self):
        # p_up = sin^2(chi/2) moves by at most |d chi| / 2, and chi = N dw T rounds by a
        # few eps |chi| in the detuning chi / (N T) and its products; the clock overlaps'
        # N-th powers add nothing that grows with N (measured at most 0.49 of the bound).
        eps = np.finfo(float).eps
        chis = np.linspace(0.0, 4 * math.pi, 257)
        bound = 2 * eps * (1 + chis)
        for n in (10**3, 1_600_000, 10**9, 10**12, 2**53):
            for t in (0.01, 1.0):
                for chi, most in zip(chis, bound):
                    state = prepare_ghz(init_register(n, "branch"))
                    evolve_and_disentangle(state, chi / (n * t), 0.0, t)
                    assert abs(state.head_readout()[1] - math.sin(chi / 2) ** 2) <= most, (n, t, chi)
                scan = fringe_scan(n, t, chis / (n * t), backend="branch")
                assert (np.abs(np.subtract(scan.p_up, np.sin(chis / 2) ** 2)) <= bound).all(), (n, t)

    def test_large_register_reads_within_tolerance(self):
        n, dw, t = 10_000, 1e-2, 0.01  # chi = 1
        _, p_up = run_protocol(n, "branch", dw, 0.0, t).final.head_readout()
        assert p_up == pytest.approx(math.sin(0.5) ** 2, abs=1e-9)


_SHAPING_GATES = ("clock", "head", "hadamard", "pass", "flip")


@st.composite
def _shaped_states(draw):
    """A register after a few random rotations, phase passes and controlled flips.

    At most three passes and flips, so a branch state keeps at most 8 branches.
    """
    backend = draw(st.sampled_from(BACKENDS), label="backend")
    n = draw(st.integers(1, 8 if backend == "dense" else 300), label="n_atoms")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = draw(st.lists(st.sampled_from(_SHAPING_GATES), max_size=8).filter(
        lambda kinds: kinds.count("pass") + kinds.count("flip") <= 3), label="gates")
    state = init_register(n, backend)
    for kind in kinds:
        if kind == "clock":
            state.apply_clock_rotation(haar_unitary(rng))
        elif kind == "head":
            state.apply_head_rotation(haar_unitary(rng))
        elif kind == "hadamard":
            state.apply_clock_rotation(HADAMARD)
        elif kind == "pass":
            state.apply_phase_pass()
        else:
            state.apply_controlled_flip()
    return state


class TestFringeReadout:
    """The closed-form fringe against the second half of the protocol, point by point."""

    @settings(max_examples=150, deadline=None)
    @given(state=_shaped_states(), grid=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12),
           dwh=st.floats(-5.0, 5.0), t=st.floats(1e-3, 2.0))
    # The flip's two parts lie 1e-6 rad apart per site and overlap by 1 - 7e-11 over
    # N = 145, yet differ by the phase N 1e-6, which the readout must keep.
    @example(state=_superposed(145, "branch"), grid=[1e-3], dwh=0.0, t=1e-3)
    def test_equals_evolve_and_disentangle_on_any_state(self, state, grid, dwh, t):
        before = copy_state(state)
        p_up = state.fringe_readout(grid, dwh, t)
        expected = [evolve_and_disentangle(copy_state(state), dw, dwh, t).head_readout()[1] for dw in grid]
        # Beyond chi's rounding, an arbitrary state's p_up rounds in its own sums by a
        # few eps (measured 3 eps at N = 1 over 20000 states; a GHZ state stays within chi's).
        tol = chi_rounding(state.n_atoms, grid, dwh, t) + 4 * np.finfo(float).eps
        assert (np.abs(p_up - expected) <= tol).all()
        # Every attribute but the dense spare, whose contents are scratch.
        assert all(np.array_equal(value, vars(before)[key])
                   for key, value in vars(state).items() if key != "_spare")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rejects_what_free_evolution_rejects(self, backend):
        ghz = run_protocol(3, backend).checkpoints["ghz"]
        with pytest.raises(ParameterError, match=">= 0"):
            ghz.fringe_readout([0.1], 0.0, -1.0)
        for grid, dwh in (([math.inf], 0.0), ([1e300], 0.0), ([0.1], math.nan)):
            with pytest.raises(ParameterError, match="finite"):
                ghz.fringe_readout(grid, dwh, 1e10)


class TestFringeLaw:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_small_registers_dense(self, n):
        t = 0.8
        for dw in (0.0, 0.3, 1.7):
            result = run_protocol(n, "dense", dw, 0.05, t)
            chi = (n * dw + 0.05) * t
            assert result.p_up == pytest.approx(math.sin(chi / 2) ** 2, abs=1e-10)

    def test_large_register_branch(self):
        n, t = 1000, 0.01
        for dw in (0.0, 0.05, 0.21):
            result = run_protocol(n, "branch", dw, 0.0, t)
            chi = n * dw * t
            assert result.p_up == pytest.approx(math.sin(chi / 2) ** 2, abs=1e-10)


class TestBackendCrosscheck:
    def test_noiseless_protocol_small(self):
        dense = run_protocol(3, "dense", 0.5, 0.1, 1.0).final
        branch = run_protocol(3, "branch", 0.5, 0.1, 1.0).final
        deviation = np.abs(to_vector(dense) - to_vector(branch)).max()
        assert deviation < 1e-10

    def test_single_hadamard(self):
        deviation = backend_crosscheck(1, gates=[methodcaller("apply_clock_rotation", HADAMARD)])
        assert deviation < 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_random_sequences(self, seed):
        assert backend_crosscheck(8, seed=seed) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_random_sequences_with_phase_passes(self, seed):
        n = 8
        rng = np.random.default_rng(seed + 1000)
        gates = random_gate_sequence(seed=seed)
        for _ in range(4):
            gates.insert(int(rng.integers(len(gates) + 1)), PHASE_PASS)
        assert backend_crosscheck(n, gates=gates) < 1e-9

    def test_size_guard(self):
        with pytest.raises(CapacityError):
            backend_crosscheck(13, seed=0)


def test_branch_protocol_cost_scales_linearly():
    # At most linearly, and in fact not at all: with one clock factor per
    # branch a protocol run costs the same at any N.
    def best_time(n):
        # Best of 5 batches of 10 calls; timeit holds the garbage collector off meanwhile.
        return min(timeit.repeat(lambda: run_protocol(n, "branch", 1e-3, 0.0, 0.01),
                                 number=10, repeat=5))

    # 1000x the atoms: a cost linear in N would take about 1000x the time.
    ratio = best_time(10**5) / best_time(10**2)
    assert ratio < 4.0, ratio
