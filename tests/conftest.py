"""Shared fixtures: the Sr/Al parameter set used across the suite, the
random-gate-sequence helpers behind the backend differential tests, and the
slow reference paths the fast ones are tested against: the per-site phase
gate, the per-axis dense rotation and the per-trajectory sampler."""

import numpy as np
import pytest

from screwclock import (
    CODATA, CapacityError, LatticeConfig, ParameterError, SpeciesOptics, init_register,
)
from screwclock.register import BRANCH_ALIGN_TOL, _Branches, apply_gate

# Reference parameter set: Sr clock atoms with an Al head at the 389.9 nm
# blue magic wavelength, misbalance delta = 1/4.
LAMBDA_M = 389.9e-9
DELTA = 0.25
SR_MASS_AMU = 87.9056
AL_MASS_AMU = 26.9815385
ALPHA_SR_AU = -470.0
ALPHA_AL_AU = -340.0
RHO_UP = -1.25
RHO_DOWN = 0.84

# Minimum intensity for 5 E_R worst-case depths at the parameters above,
# frozen from an independent constant evaluation (see test_lattice).
MIN_INTENSITY = 2.2198089925017097e8  # W/m^2


@pytest.fixture
def sr():
    return SpeciesOptics("Sr", mass=SR_MASS_AMU * CODATA.atomic_mass_unit,
                         alpha_scalar=ALPHA_SR_AU, rho=0.0, role="clock")


@pytest.fixture
def al_up():
    return SpeciesOptics("Al_up", mass=AL_MASS_AMU * CODATA.atomic_mass_unit,
                         alpha_scalar=ALPHA_AL_AU, rho=RHO_UP, role="head_up",
                         F=3.0, M_F=-3.0)


@pytest.fixture
def al_down():
    return SpeciesOptics("Al_down", mass=AL_MASS_AMU * CODATA.atomic_mass_unit,
                         alpha_scalar=ALPHA_AL_AU, rho=RHO_DOWN, role="head_down",
                         F=2.0, M_F=-2.0)


@pytest.fixture
def reference_lattice():
    return LatticeConfig(lambda_m=LAMBDA_M, intensity=MIN_INTENSITY, delta=DELTA,
                         phi=0.0, transverse_intensity=MIN_INTENSITY)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_gate_sequence(n_atoms: int, n_gates: int = 50, seed: int | None = None) -> list[tuple]:
    """Random sequence from the supported gate set, for differential testing.

    The gate mix is a shuffled fixed multiset so the number of phase gates
    (which can split branches) is bounded and runtimes stay predictable.
    """
    rng = np.random.default_rng(seed)
    n_phase = min(12, max(1, n_gates // 4))
    n_free = max(1, n_gates // 8)
    n_rot = n_gates - n_phase - n_free
    kinds = ["phase_gate"] * n_phase + ["free_evolution"] * n_free
    kinds += [("clock_rotation" if rng.random() < 0.5 else "head_rotation") for _ in range(n_rot)]
    rng.shuffle(kinds)

    gates: list[tuple] = []
    for kind in kinds:
        if kind == "phase_gate":
            gates.append(("phase_gate", int(rng.integers(n_atoms))))
        elif kind == "free_evolution":
            gates.append(
                ("free_evolution", float(rng.normal()), float(rng.normal()), float(rng.random()))
            )
        else:
            gates.append((kind, haar_unitary(rng)))
    return gates


def backend_crosscheck(
    n_atoms: int,
    gates: list[tuple] | None = None,
    seed: int | None = None,
    n_gates: int = 50,
) -> float:
    """Run one gate sequence on both backends; max |amplitude difference|.

    Global phase is aligned on the largest dense amplitude before
    comparing. With ``gates=None`` a random sequence is drawn from ``seed``.
    """
    if n_atoms > 12:
        raise CapacityError("crosscheck is limited to dense-capable sizes (n_atoms <= 12)")
    if gates is None:
        gates = random_gate_sequence(n_atoms, n_gates=n_gates, seed=seed)
    dense = init_register(n_atoms, "dense")
    branch = init_register(n_atoms, "branch")
    for gate in gates:
        apply_gate(dense, gate)
        apply_gate(branch, gate)
    va = dense.to_vector()
    vb = branch.to_vector()
    ref = int(np.argmax(np.abs(va) + np.abs(vb)))
    phase_a = va[ref] / abs(va[ref]) if va[ref] != 0 else 1.0
    phase_b = vb[ref] / abs(vb[ref]) if vb[ref] != 0 else 1.0
    return float(np.max(np.abs(va / phase_a - vb / phase_b)))


def reference_phase_gate(state, site: int):
    """One phase gate P_site on a branch state, a branch at a time.

    The per-site reference for ``BranchState.apply_phase_pass``: a branch
    whose head is superposed splits into its head-down part and its head-up
    part (in that order), aligned heads are re-pinned to the basis axis, and
    head-up branches negate the |1> component of ``site``.
    """
    if not 0 <= site < state.n_atoms:
        raise ParameterError(f"site {site} out of range for {state.n_atoms} atoms")
    b = state._b
    w_down = np.abs(b.head[:, 0])
    w_up = np.abs(b.head[:, 1])

    aligned_down = w_up <= BRANCH_ALIGN_TOL
    aligned_up = w_down <= BRANCH_ALIGN_TOL
    if np.all(aligned_down | aligned_up):
        # No head superposition anywhere: apply Z in place, no splits.
        b.clock[aligned_up, site, 1] *= -1.0
        return state

    new_amps, new_clock, new_head = [], [], []
    for i in range(b.amps.shape[0]):
        if w_up[i] <= BRANCH_ALIGN_TOL:
            # Head is down: gate acts as identity. Re-pin the factor to
            # the basis axis so later gates see an aligned head.
            new_amps.append(b.amps[i] * b.head[i, 0])
            new_clock.append(b.clock[i])
            new_head.append([1.0, 0.0])
        elif w_down[i] <= BRANCH_ALIGN_TOL:
            clock = b.clock[i].copy()
            clock[site, 1] *= -1.0
            new_amps.append(b.amps[i] * b.head[i, 1])
            new_clock.append(clock)
            new_head.append([0.0, 1.0])
        else:
            # Superposed head: split into head-basis-aligned branches.
            new_amps.append(b.amps[i] * b.head[i, 0])
            new_clock.append(b.clock[i])
            new_head.append([1.0, 0.0])
            clock = b.clock[i].copy()
            clock[site, 1] *= -1.0
            new_amps.append(b.amps[i] * b.head[i, 1])
            new_clock.append(clock)
            new_head.append([0.0, 1.0])

    state._b = _Branches(
        np.array(new_amps, dtype=complex),
        np.array(new_clock, dtype=complex),
        np.array(new_head, dtype=complex),
    )
    state._prune_and_merge()
    return state


def reference_axis_rotation(state, matrix, axis: int):
    """Apply a 2x2 matrix to one axis of a dense state, one tensordot at a time.

    The per-axis reference for ``DenseState.apply_clock_rotation`` and
    ``apply_head_rotation``: axis 0 is the head, axis a in 1..N is clock
    bit N - a.
    """
    psi = np.tensordot(np.asarray(matrix, dtype=complex), state._tensor(), axes=([1], [axis]))
    state.amplitudes = np.ascontiguousarray(np.moveaxis(psi, 0, axis)).reshape(-1)
    return state


def reference_trajectory_batch(n_atoms, schedule, params, n_trajectories, seed, p_up_noiseless):
    """Per-trajectory Monte Carlo batch: (p_up array, scattered bool array).

    The reference for ``sample_scatter_count``: a trajectory scatters when
    the first arrival of the total Poisson event process, one exponential
    draw per trajectory, falls inside the schedule.
    """
    rng = np.random.default_rng(seed)
    rate = params.total_rate(n_atoms)
    if rate <= 0.0:
        scattered = np.zeros(n_trajectories, dtype=bool)
    else:
        scattered = rng.exponential(1.0 / rate, size=n_trajectories) < schedule.total_duration
    return np.where(scattered, 0.5, p_up_noiseless), scattered
