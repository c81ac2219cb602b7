"""Shared fixtures: the hypothesis ``ci`` profile, the Sr/Al parameter set
used across the suite, the random-gate-sequence helpers behind the backend
differential tests, the protocol run end to end with a copy of the state at
each checkpoint (``run_protocol``, on ``copy_state``) and the norm of a
state of either backend, the rounding bound of the Ramsey phase chi that two
evaluations of p_up share, the expansion of any register state to a dense
vector and a dense copy of a (branch) reference state, and the slow
reference paths the fast ones are tested against: the protocol gate by
gate, the branch state with one clock factor per site and its per-site
phase gate, the dense/branch overlap contracted one site per product, the
per-axis and the allocating dense rotations, the XOR-loop dense phase pass
and the per-axis dense free evolution, the per-trajectory sampler, scipy's
curve_fit fringe fit, the numeric well depth, the schedule steps and
rows expanded one at a time, the row-dict CSV writer and a CSV reader,
the config override as a whole-section re-parse;
the streamed schedule rows read back as steps; and a runner for fresh
interpreters."""

import csv
import json
import math
import os
from operator import methodcaller
import subprocess
import sys
import warnings
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import OptimizeWarning, curve_fit

import screwclock
from screwclock import (
    CODATA, BranchState, CapacityError, ConfigError, ConstantsTable, DenseState, LatticeConfig,
    ParameterError, SpeciesOptics, init_register, sublattice_depths,
)
from screwclock.config import _SECTIONS, _parse_section
from screwclock.estimator import _initial_frequency
from screwclock.register import (
    BRANCH_PRUNE_TOL, DENSE_BLOCK_BITS, HADAMARD, RegisterState, _head_overlaps, _unitary_array,
    evolve_and_disentangle, prepare_ghz,
)

# With CI set, as CI services do, a failing example also prints the blob that
# reproduces it (@reproduce_failure); example counts and bounds stay the tests' own.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

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
                         alpha_scalar=ALPHA_AL_AU, rho=RHO_UP, role="head_up")


@pytest.fixture
def al_down():
    return SpeciesOptics("Al_down", mass=AL_MASS_AMU * CODATA.atomic_mass_unit,
                         alpha_scalar=ALPHA_AL_AU, rho=RHO_DOWN, role="head_down")


@pytest.fixture
def reference_lattice():
    return LatticeConfig(lambda_m=LAMBDA_M, intensity=MIN_INTENSITY, delta=DELTA,
                         phi=0.0, transverse_intensity=MIN_INTENSITY)


def run_python(args: list[str], timeout: float, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` that imports this screwclock checkout.

    ``env`` adds variables to the inherited environment.
    """
    src = str(Path(screwclock.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


PHASE_PASS = methodcaller("apply_phase_pass")


def random_gate_sequence(n_gates: int = 50, seed: int | None = None) -> list:
    """Random sequence of four state methods (all but the controlled flip), for differential testing.

    Each gate is a ``methodcaller``: ``gate(state)`` applies it. The gate
    mix is a shuffled fixed multiset so the number of whole phase passes
    (which can split branches) is bounded and runtimes stay predictable.
    """
    rng = np.random.default_rng(seed)
    n_phase = min(12, max(1, n_gates // 4))
    n_free = max(1, n_gates // 8)
    n_rot = n_gates - n_phase - n_free
    kinds = ["apply_phase_pass"] * n_phase + ["apply_free_evolution"] * n_free
    kinds += [("apply_clock_rotation" if rng.random() < 0.5 else "apply_head_rotation")
              for _ in range(n_rot)]
    rng.shuffle(kinds)

    gates = []
    for kind in kinds:
        if kind == "apply_phase_pass":
            gates.append(PHASE_PASS)
        elif kind == "apply_free_evolution":
            gates.append(methodcaller(kind, float(rng.normal()), float(rng.normal()),
                                      float(rng.random())))
        else:
            gates.append(methodcaller(kind, haar_unitary(rng)))
    return gates


def protocol_sequence(delta_omega: float, delta_omega_head: float, ramsey_time: float) -> list:
    """The protocol's nine gates one by one, as ``methodcaller`` gates.

    The reference for ``register.prepare_ghz`` followed by
    ``register.evolve_and_disentangle``.
    """
    clock_h = methodcaller("apply_clock_rotation", HADAMARD)
    head_h = methodcaller("apply_head_rotation", HADAMARD)
    evolve = methodcaller("apply_free_evolution", delta_omega, delta_omega_head, ramsey_time)
    return [clock_h, head_h, PHASE_PASS, clock_h, evolve, clock_h, PHASE_PASS, clock_h, head_h]


def copy_state(state: RegisterState) -> RegisterState:
    """A new register state equal to ``state``, of either backend; it shares no array or list."""
    if isinstance(state, DenseState):
        new = DenseState(state.n_atoms)
        new.amplitudes = state.amplitudes.copy()
        return new
    new = BranchState(state.n_atoms)
    new.clock, new.head = list(state.clock), list(state.head)
    return new


def state_norm(state: RegisterState) -> float:
    """||state||, of either backend: a branch state's from its own overlaps per head component."""
    if isinstance(state, DenseState):
        return float(np.linalg.norm(state.amplitudes))
    p_down, p_up = _head_overlaps(state, state)
    return math.sqrt(max((p_down + p_up).real, 0.0))


@dataclass
class ProtocolResult:
    final: RegisterState
    checkpoints: dict[str, RegisterState]   # copies, in protocol order

    @property
    def p_up(self) -> float:
        return self.final.head_readout()[1]


def run_protocol(
    n_atoms: int,
    backend: str = "dense",
    delta_omega: float = 0.0,
    delta_omega_head: float = 0.0,
    ramsey_time: float = 0.0,
) -> ProtocolResult:
    """The noiseless protocol end to end, keeping a copy of the state at each checkpoint.

    The two halves, ``register.prepare_ghz`` then
    ``register.evolve_and_disentangle``, with a callback that copies the
    state it is handed: the reference the commands' in-passing checks and
    the closed-form fringe are tested against.
    """
    copies: dict[str, RegisterState] = {}

    def keep(label: str, state: RegisterState) -> None:
        copies[label] = copy_state(state)

    state = prepare_ghz(init_register(n_atoms, backend), keep)
    evolve_and_disentangle(state, delta_omega, delta_omega_head, ramsey_time, keep)
    return ProtocolResult(state, copies)


def chi_rounding(n_atoms, delta_omega, delta_omega_head, ramsey_time):
    """2 eps (N + |N dw T| + |dw' T|): how far two evaluations of one p_up may part.

    p_up = sin^2(chi / 2) moves by at most |d chi| / 2, and chi = (N dw + dw') T
    rounds in its parts: the per-site factor N, each site's dw T and the
    head's dw' T. The gate-by-gate protocol and a closed-form fringe readout
    round them differently. Takes arrays of detunings too.
    """
    eps = np.finfo(float).eps
    return 2.0 * eps * (n_atoms + np.abs(n_atoms * np.asarray(delta_omega) * ramsey_time)
                        + abs(delta_omega_head * ramsey_time))


def backend_crosscheck(
    n_atoms: int,
    gates: list | None = None,
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
        gates = random_gate_sequence(n_gates=n_gates, seed=seed)
    dense = init_register(n_atoms, "dense")
    branch = init_register(n_atoms, "branch")
    for gate in gates:
        gate(dense)
        gate(branch)
    va = to_vector(dense)
    vb = to_vector(branch)
    ref = int(np.argmax(np.abs(va) + np.abs(vb)))
    phase_a = va[ref] / abs(va[ref]) if va[ref] != 0 else 1.0
    phase_b = vb[ref] / abs(vb[ref]) if vb[ref] != 0 else 1.0
    return float(np.max(np.abs(va / phase_a - vb / phase_b)))


EXPAND_MAX_ATOMS = 20  # to_vector refuses larger branch registers


def to_vector(state) -> np.ndarray:
    """A register state as a new vector in the dense index convention, p + 2^N h.

    A dense state gives a copy of its amplitudes. A branch state, with one
    clock factor per branch or (``ReferenceBranchState``) one per site, is
    expanded to the sum over branches of head ⊗ clock bit N-1 ⊗ ... ⊗ clock
    bit 0, up to EXPAND_MAX_ATOMS atoms.
    """
    if isinstance(state, DenseState):
        return state.amplitudes.copy()
    n, rank = state.n_atoms, state.rank
    if n > EXPAND_MAX_ATOMS:
        raise CapacityError(f"refusing to expand a {n}-atom branch state (limit {EXPAND_MAX_ATOMS})")
    clock = np.asarray(state.clock, dtype=complex)
    if clock.ndim == 2:
        clock = np.broadcast_to(clock[:, None], (rank, n, 2))
    vec = np.ones((rank, 1), dtype=complex)
    for j in range(n - 1, -1, -1):  # most significant clock bit first
        vec = (vec[:, :, None] * clock[:, j, None, :]).reshape(rank, -1)
    return (np.asarray(state.head, dtype=complex).T @ vec).ravel()


def dense_copy(state) -> DenseState:
    """A dense register holding ``state``'s amplitudes, e.g. of a branch reference state."""
    dense = DenseState(state.n_atoms)
    dense.amplitudes = to_vector(state)
    return dense


class ReferenceBranchState:
    """Branch-product state that stores a clock factor for every site: (r, N, 2).

    The differential reference for ``BranchState``, which keeps one clock
    pair (c0, c1) per branch because every public gate acts alike on all N
    sites, in scalar arithmetic where this reference uses numpy. Same rules:
    the head carries the branch's amplitude, a head component at or below
    BRANCH_PRUNE_TOL is absent, and branches never merge, so both hold the
    same rank: it doubles at most at each pass that meets a superposed head.
    Readout, norm and overlap are computed over the N per-site factors.
    """

    backend = "branch"

    def __init__(self, n_atoms: int):
        self.n_atoms = n_atoms
        self.clock = np.zeros((1, n_atoms, 2), dtype=complex)
        self.clock[:, :, 0] = 1.0
        self.head = np.array([[1.0, 0.0]], dtype=complex)

    @property
    def rank(self) -> int:
        return self.head.shape[0]

    def copy(self) -> "ReferenceBranchState":
        new = ReferenceBranchState(self.n_atoms)
        new.clock, new.head = self.clock.copy(), self.head.copy()
        return new

    def apply_clock_rotation(self, matrix):
        self.clock = self.clock @ _unitary_array(matrix).T
        return self

    def apply_head_rotation(self, matrix):
        self.head = self.head @ _unitary_array(matrix).T
        return self

    def apply_phase_pass(self):
        # Splits happen at the first site that meets a superposed head.
        for site in range(self.n_atoms):
            reference_phase_gate(self, site)
        return self

    def apply_free_evolution(self, delta_omega, delta_omega_head, t):
        if t < 0.0:
            raise ParameterError("evolution time must be >= 0")
        self.clock[:, :, 1] *= np.exp(1j * delta_omega * t)
        self.head[:, 1] *= np.exp(1j * delta_omega_head * t)
        return self

    def _clock_gram(self, other) -> np.ndarray:
        return np.einsum("inc,jnc->ijn", self.clock.conj(), other.clock).prod(axis=2)

    def _overlaps(self, other) -> np.ndarray:
        # <self|other> per head component: sum_ij conj(h_ik) G_ij h'_jk, for k = down, up.
        return np.einsum("ik,ij,jk->k", self.head.conj(), self._clock_gram(other), other.head)

    def head_readout(self) -> tuple[float, float]:
        return tuple(float(p) for p in self._overlaps(self).real)

    def norm(self) -> float:
        return math.sqrt(max(float(self._overlaps(self).real.sum()), 0.0))

    def overlap_with(self, other) -> complex:
        return complex(self._overlaps(other).sum())


def reference_branch_dense_overlap(branch, dense: DenseState) -> complex:
    """<branch|dense>, contracted one clock site per product.

    The per-site reference for ``register._branch_dense_overlap``: per branch,
    the conjugated head factor contracts the head axis of the dense tensor,
    then the conjugated clock factor contracts clock bits 0, 1, ..., N - 1 in
    turn (bit 0 is the fastest index), each step halving the partial tensor,
    down to one scalar.
    """
    halves = dense.amplitudes.reshape(2, -1)  # (head, clock index)
    total = 0j
    for head, factor in zip(np.asarray(branch.head, dtype=complex).conj(),
                            np.asarray(branch.clock, dtype=complex).conj()):
        partial = head @ halves
        for _ in range(dense.n_atoms):
            partial = partial.reshape(-1, 2) @ factor
        total += partial[0]
    return complex(total)


def reference_phase_gate(state: ReferenceBranchState, site: int):
    """One phase gate P_site on a per-site branch state, a branch at a time.

    The per-site reference for ``BranchState.apply_phase_pass``: each branch
    gives its head-down part, then its head-up part, each keeping one head
    component; a part whose component is at or below BRANCH_PRUNE_TOL is not
    made; head-up parts negate the |1> component of ``site``.
    """
    if not 0 <= site < state.n_atoms:
        raise ParameterError(f"site {site} out of range for {state.n_atoms} atoms")
    new_clock, new_head = [], []
    for clock, (h0, h1) in zip(state.clock, state.head):
        if abs(h0) > BRANCH_PRUNE_TOL:
            new_clock.append(clock)
            new_head.append([h0, 0.0])
        if abs(h1) > BRANCH_PRUNE_TOL:
            clock = clock.copy()
            clock[site, 1] *= -1.0
            new_clock.append(clock)
            new_head.append([0.0, h1])
    state.clock = np.array(new_clock, dtype=complex).reshape(-1, state.n_atoms, 2)
    state.head = np.array(new_head, dtype=complex).reshape(-1, 2)


def _dense_tensor(state) -> np.ndarray:
    # Axis 0 is the head; axis a in 1..N is clock bit j = N - a.
    return state.amplitudes.reshape([2] * (state.n_atoms + 1))


def reference_axis_rotation(state, matrix, axis: int):
    """Apply a 2x2 matrix to one axis of a dense state, one tensordot at a time.

    The per-axis reference for ``DenseState.apply_clock_rotation`` and
    ``apply_head_rotation``: axis 0 is the head, axis a in 1..N is clock
    bit N - a.
    """
    psi = np.tensordot(np.asarray(matrix, dtype=complex), _dense_tensor(state), axes=([1], [axis]))
    state.amplitudes = np.ascontiguousarray(np.moveaxis(psi, 0, axis)).reshape(-1)
    return state


def reference_dense_phase_pass(state):
    """Phase pass as an XOR of the index bits, one site at a time over sites 0..N-1.

    The reference for the weight-table ``DenseState.apply_phase_pass``:
    both multiply by exact signs, so on states without zero amplitudes
    (where only the sign of a zero could differ) they agree bit for bit.
    """
    clock = np.arange(2 ** state.n_atoms)
    parity = np.zeros_like(clock)
    for site in range(state.n_atoms):
        parity ^= clock >> site
    state.amplitudes[2 ** state.n_atoms:][parity & 1 == 1] *= -1.0
    return state


def reference_dense_free_evolution(state, delta_omega, delta_omega_head, t):
    """Free evolution as one phase multiply per raised clock bit, axis by axis.

    The reference for the weight-table ``DenseState.apply_free_evolution``,
    which multiplies each amplitude by one phase instead of k of them.
    """
    psi = _dense_tensor(state)
    clock_phase = np.exp(1j * delta_omega * t)
    for axis in range(1, state.n_atoms + 1):
        index = [slice(None)] * (state.n_atoms + 1)
        index[axis] = 1
        psi[tuple(index)] *= clock_phase
    psi[1] *= np.exp(1j * delta_omega_head * t)
    return state


def reference_dense_clock_rotation(state, matrix):
    """Kronecker-block clock rotation with the blocks from ``np.kron``.

    The reference for ``DenseState.apply_clock_rotation``, which builds the
    blocks m, m⊗m and m⊗m⊗m by broadcasting: the same blocks and the same
    products in the same order, so the amplitudes must agree bit for bit.
    """
    m = _unitary_array(matrix)
    blocks = [m]
    while len(blocks) < min(DENSE_BLOCK_BITS, state.n_atoms):
        blocks.append(np.kron(blocks[-1], m))
    a = state.amplitudes
    for low in range(0, state.n_atoms, DENSE_BLOCK_BITS):
        k = min(DENSE_BLOCK_BITS, state.n_atoms - low)
        a = (blocks[k - 1] @ a.reshape(-1, 2 ** k).T).reshape(-1)
    state.amplitudes = a.reshape(-1, 2).T.reshape(-1)
    return state


def reference_dense_head_rotation(state, matrix):
    """Head rotation as one product; the reference for ``DenseState.apply_head_rotation``."""
    state.amplitudes = (_unitary_array(matrix) @ state.amplitudes.reshape(2, -1)).reshape(-1)
    return state


def reference_fringe_fit(x, y, *, tol=None):
    """scipy's curve_fit of offset + a cos(omega x) + b sin(omega x), or None.

    The reference for ``estimator._fit_sinusoid``: MINPACK Levenberg-Marquardt
    started, as the package fitted before, at the periodogram frequency with
    (offset, a, b) projected onto it. It gets the analytic Jacobian: with
    its own finite differences MINPACK stalls up to ~1e-9 away from an exact
    fringe sampled by a few points. ``tol`` replaces the default xtol, ftol
    and gtol (1.49e-8, 1.49e-8, 0).
    """
    omega0 = _initial_frequency(x, y)

    def model(t, offset, a, b, omega):
        return offset + a * np.cos(omega * t) + b * np.sin(omega * t)

    def jacobian(t, offset, a, b, omega):
        cos, sin = np.cos(omega * t), np.sin(omega * t)
        return np.column_stack([np.ones_like(t), cos, sin, t * (b * cos - a * sin)])

    centred = y - y.mean()
    p0 = (float(y.mean()), 2.0 * float(np.mean(centred * np.cos(omega0 * x))),
          2.0 * float(np.mean(centred * np.sin(omega0 * x))), omega0)
    tolerances = {} if tol is None else {"xtol": tol, "ftol": tol, "gtol": tol}
    try:
        with warnings.catch_warnings():
            # A noiseless fit leaves no residual to estimate a covariance from.
            warnings.simplefilter("ignore", OptimizeWarning)
            params, _ = curve_fit(model, x, y, p0=p0, jac=jacobian, maxfev=20000, **tolerances)
    except RuntimeError:
        return None
    return params


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


def _reference_format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def reference_apply_override(cfg, dotted_key: str, value):
    """``apply_override`` as a whole-section re-parse: the section goes through
    ``asdict`` with the one leaf replaced, and every leaf is parsed and checked again."""
    section, _, leaf = dotted_key.partition(".")
    cls = _SECTIONS.get(section)
    if cls is None or leaf not in cls.__dataclass_fields__:
        raise ConfigError(dotted_key, "unknown parameter path")
    data = asdict(getattr(cfg, section))
    data[leaf] = value
    return replace(cfg, **{section: _parse_section(cls, data, section)})


def reference_write_table(rows: list[dict], path, *, metadata: dict | None = None) -> Path:
    """Write rows (dicts with one shared key set) as CSV plus a sidecar.

    The reference for ``output.write_table``: one dict per row, each cell
    formatted on its own, and ``csv.writer`` for the quoting.
    """
    path = Path(path)
    columns = list(rows[0])
    assert all(row.keys() == rows[0].keys() for row in rows)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_reference_format_cell(row[c]) for c in columns] for row in rows)
    if metadata is not None:
        meta = {"rows": len(rows), "columns": columns, **metadata}
        text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False)
        path.with_name(path.stem + ".meta.json").write_text(text + "\n")
    return path


def read_table(path) -> list[dict[str, str]]:
    """Read a CSV written by ``output.write_table`` back as string-valued rows."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def reference_schedule_steps(schedule) -> Iterator[tuple]:
    """The schedule's steps expanded one at a time, as (kind, duration, site).

    The reference for ``rates.schedule_rows``: clock + head pi/2 pulses, a
    transport/phase-gate pass over sites 0..N-1, a clock pulse closing the
    entangling stage, free evolution, then the mirrored disentangling pass
    and readout. The steps are yielded lazily, so a table of any size can
    be checked without holding it.
    """
    pulse = schedule.pulse_time

    def gate_pass():
        for site in range(schedule.n_atoms):
            yield ("transport", schedule.transport_time, site)
            yield ("phase_gate", schedule.gate_time, site)

    yield ("hadamard_all", pulse, None)
    yield ("head_pulse", pulse, None)
    yield from gate_pass()
    yield ("hadamard_all", pulse, None)
    yield ("free_evolution", schedule.ramsey_time, None)
    yield ("hadamard_all", pulse, None)
    yield from gate_pass()
    yield ("hadamard_all", pulse, None)
    yield ("head_pulse", pulse, None)
    yield ("readout", pulse, None)


def reference_schedule_rows(schedule) -> Iterator[str]:
    """The reference steps as the schedule table's CSV rows, each ending in a newline.

    A kind has one duration in a schedule, so each kind's cells are
    formatted once: ``repr`` of a float costs more than the rest of a row.
    """
    texts = {}
    for index, (kind, duration, site) in enumerate(reference_schedule_steps(schedule)):
        text = texts.get(kind)
        if text is None:
            text = texts[kind] = f"{kind},{duration!r},"
        yield f"{index},{text}{'' if site is None else site}\n"


def streamed_schedule_steps(schedule) -> list[tuple]:
    """The rows ``rates.schedule_rows`` streams, read back as (kind, duration, site).

    Each row's ``step_index`` must be its position.
    """
    steps = []
    for index, row in enumerate("".join(screwclock.schedule_rows(schedule)).splitlines()):
        step_index, kind, duration, site = row.split(",")
        assert int(step_index) == index, row
        steps.append((kind, float(duration), int(site) if site else None))
    return steps


# Numeric depth extraction: grid resolution per lattice period and the
# absolute phase tolerance of the golden-section refinement.
DEPTH_GRID_POINTS = 4096
GOLDEN_TOL = 1e-12 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def optical_potential_curve(
    config: LatticeConfig,
    species: SpeciesOptics,
    z_grid,
    table: ConstantsTable = CODATA,
) -> np.ndarray:
    """Evaluate U(z) on the given grid of axial positions (meters)."""
    z = np.asarray(z_grid, dtype=float)
    if z.size == 0:
        raise ParameterError("z_grid must be non-empty")
    u0p, u0m = sublattice_depths(config, species, table)
    k = 2.0 * math.pi / config.lambda_m
    return u0p * np.cos(k * z) ** 2 + u0m * np.cos(k * z - config.phi) ** 2


def _golden_refine(func, a: float, b: float, tol: float = GOLDEN_TOL) -> float:
    # Golden-section minimum of func on [a, b]; assumes a bracket from a
    # dense grid. Deterministic, ~60 iterations for the default tol.
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = func(x1), func(x2)
    for _ in range(200):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = func(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = func(x2)
    return x1 if f1 <= f2 else x2


def _extremum(func, z_grid: np.ndarray, values: np.ndarray, sign: float) -> float:
    """Refine the min (sign=+1) or max (sign=-1) of a periodic sampled curve.

    The bracket comes from the dense grid; the golden tolerance is relative
    to the lattice period, in absolute position units.
    """
    idx = int(np.argmin(sign * values))
    step = z_grid[1] - z_grid[0]
    lo, hi = z_grid[idx] - step, z_grid[idx] + step
    tol = GOLDEN_TOL / math.pi * len(z_grid) * step
    z_star = _golden_refine(lambda z: sign * func(z), lo, hi, tol=tol)
    return func(z_star)


def well_depth(
    config: LatticeConfig, species: SpeciesOptics, table: ConstantsTable = CODATA
) -> float:
    """Peak-to-peak depth max U - min U over one lattice period, numerically.

    Samples the optical potential on a uniform 4096-point grid per period
    (half a wavelength) and refines the bracketed extrema by golden
    section. Returns 0 for a z-independent potential (washed-out lattice).
    """
    u0p, u0m = sublattice_depths(config, species, table)
    scale = abs(u0p) + abs(u0m)
    if scale == 0.0:
        return 0.0
    period = config.lambda_m / 2.0
    z_grid = np.linspace(0.0, period, DEPTH_GRID_POINTS, endpoint=False)
    values = optical_potential_curve(config, species, z_grid, table)
    if np.ptp(values) < 1e-14 * scale:
        return 0.0

    def u_of_z(z: float) -> float:
        return float(optical_potential_curve(config, species, [z], table)[0])

    u_min = _extremum(u_of_z, z_grid, values, +1.0)
    u_max = _extremum(u_of_z, z_grid, values, -1.0)
    return u_max - u_min
