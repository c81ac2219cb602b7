"""Simulation of the N-clock-qubit + head-qubit register.

Two interchangeable backends:

* :class:`DenseState` holds the full 2^(N+1) amplitude vector. Index
  convention: ``index = p + 2^N * h`` with ``p = sum_j p_j 2^j`` the
  binary value of the clock register and ``h`` in {0: down, 1: up} the
  head qubit. Exact, but capped at small N.

* :class:`BranchState` stores a sum of product states ("branches") as two
  (r, 2) arrays: ``clock``, one unit-norm clock 2-vector per branch that
  stands for all N clock sites (every public gate acts alike on them), and
  ``head``, the head 2-vector, which carries the branch's amplitude. One
  form gives every overlap, per head component k:
  <a|b>_k = sum_ij conj(a.head[i, k]) <a.clock[i]|b.clock[j]>^N b.head[j, k].
  A phase pass splits superposed heads; branches whose clock factors are
  colinear at each site, up to rounding, then merge into one, whatever
  their heads. The entangling protocol only ever needs two branches, so a
  full run costs O(1) in N at fixed rank.

Both backends offer the same five gates (``apply_clock_rotation``,
``apply_head_rotation``, ``apply_phase_pass``, ``apply_controlled_flip``,
``apply_free_evolution``), which mutate in place and return the state. The
protocol applies them in two halves: :func:`prepare_ghz`, then
:func:`evolve_and_disentangle`. The controlled flip equals H on all clocks,
the phase pass and H on all clocks again (H Z H = X at every site): it
flips every clock bit of the head-up part, exactly. Each half hands the
state itself to an optional ``checkpoint(label, state)`` callback as it
passes each checkpoint, so a caller checks the state in passing, with no
copy. A dense state's overlap with a branch state is contracted one block
of DENSE_BLOCK_BITS clock sites per product, against the Kronecker power
of each branch's clock factor, without expanding the branches.

Every gate of the second half is diagonal or a fixed permutation, so both
backends also read a whole fringe in closed form: ``fringe_readout`` gives
the ``p_up`` of that half and ``head_readout`` at each detuning of a grid,
from numbers the state fixes, without changing the state.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ClockSimError, ParameterError

BACKENDS = ("dense", "branch")
DENSE_ATOM_CAP = 14        # 2^15 amplitudes
DENSE_BLOCK_BITS = 3       # clock qubits per matrix product in a dense rotation
BRANCH_PRUNE_TOL = 1e-14   # a head component this small is absent: no branch part is made of it
BRANCH_MERGE_MAX_RANK = 64  # skip O(rank^2) merging above this rank
BRANCH_COLINEAR_TOL = 4 * np.finfo(float).eps  # unit clock factors this close to colinear merge
READOUT_TOL = 1e-9         # head probabilities may miss [0, 1] and sum 1 by this
_UNITARY_TOL = 1e-12
UNITARY_CACHE_SIZE = 32    # distinct rotation matrices kept checked

# Read-only; checked, like every matrix, by the first rotation that uses it. A check
# at import would be the first matrix product, whose BLAS set-up costs about 0.5 MB
# of resident memory in commands that never use the register.
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
HADAMARD.flags.writeable = False


def _check_unitary(matrix) -> np.ndarray:
    """The checked 2x2 unitary m, as the cache's own read-only copy.

    Every call checks the caller's matrix, through a cache keyed on its
    bytes: a matrix seen before costs one lookup, and a matrix changed in
    place since is a new key. The array returned is never the caller's.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ParameterError(f"expected a 2x2 matrix, got shape {m.shape}")
    return _checked_matrix(m.tobytes())


@functools.lru_cache(maxsize=UNITARY_CACHE_SIZE)
def _checked_matrix(key: bytes) -> np.ndarray:
    """The 2x2 complex matrix with these bytes, once it is checked unitary."""
    m = np.frombuffer(key, dtype=complex).reshape(2, 2)  # read-only: it views the key
    defect = np.abs(m.conj().T @ m - np.eye(2)).max()
    if defect > _UNITARY_TOL:
        raise ParameterError(f"matrix is not unitary (defect {defect:.3e})")
    return m


def _as_probabilities(p_down, p_up) -> tuple[np.ndarray, np.ndarray]:
    """Head readouts (p_down, p_up), scalars or arrays, clamped to [0, 1].

    Rounding may leave a probability just below 0 or a pair that sums just
    off 1; a pair more than READOUT_TOL away from a probability distribution
    means the register's norm drifted, and raises.
    """
    p_down, p_up = np.asarray(p_down), np.asarray(p_up)
    drift = np.maximum(np.maximum(-p_down, -p_up), np.abs(p_down + p_up - 1.0))
    worst = np.argmax(drift)  # a NaN counts as the largest
    if not drift.flat[worst] <= READOUT_TOL:
        raise ClockSimError(f"register norm drifted: head readout p_down={float(p_down.flat[worst])!r}, "
                            f"p_up={float(p_up.flat[worst])!r} is {float(drift.flat[worst]):.3e} "
                            "away from a probability distribution")
    return np.clip(p_down, 0.0, 1.0), np.clip(p_up, 0.0, 1.0)


def _ramsey_phases(delta_omegas, delta_omega_head: float, ramsey_time: float) -> tuple[np.ndarray, float]:
    """(theta, phi) = (dw T per detuning, dw' T): the phases free evolution gives a clock and the head."""
    if ramsey_time < 0.0:
        raise ParameterError("evolution time must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        theta = np.asarray(delta_omegas, dtype=float) * ramsey_time
    phi = delta_omega_head * ramsey_time
    if not (np.isfinite(theta).all() and math.isfinite(phi)):
        raise ParameterError("the Ramsey phases dw T and dw' T must be finite")
    return theta, phi


@functools.lru_cache(maxsize=DENSE_ATOM_CAP)
def _clock_weights(n_atoms: int) -> np.ndarray:
    """Hamming weight of every clock index p < 2^N: read-only uint8, built once per N."""
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(n_atoms):
        weights = np.concatenate([weights, weights + 1])  # raising the next bit adds 1
    weights.flags.writeable = False
    return weights


def _kron_powers(m: np.ndarray) -> list[np.ndarray]:
    """[m, m⊗m, ..., m^⊗DENSE_BLOCK_BITS] of a 2-D array m: one factor per site of a block.

    Each power is np.kron(previous, m), without its per-call overhead. A 2x2
    unitary gives the blocks of a dense rotation, a (1, 2) row the Kronecker
    power of a clock factor as a (1, 2^k) row.
    """
    powers = [m]
    while len(powers) < DENSE_BLOCK_BITS:
        last = powers[-1]
        shape = (last.shape[0] * m.shape[0], last.shape[1] * m.shape[1])
        powers.append((last[:, None, :, None] * m[None, :, None, :]).reshape(shape))
    return powers


class DenseState:
    """Full state vector of N clock qubits and the head qubit.

    Rotations bind ``amplitudes`` to the new array their matrix products
    return; keep ``amplitudes.copy()``, not a reference to ``amplitudes``.
    The two diagonal gates read the cached table of clock-index Hamming
    weights (:func:`_clock_weights`, 16 KiB at the cap): a phase pass takes
    its signs from the weight parity and free evolution its phases from
    the weight.
    """

    backend = "dense"

    def __init__(self, n_atoms: int):
        if n_atoms < 1:
            raise ParameterError(f"n_atoms must be >= 1, got {n_atoms}")
        if n_atoms > DENSE_ATOM_CAP:
            raise CapacityError(
                f"dense backend capped at {DENSE_ATOM_CAP} atoms "
                f"({2 ** (DENSE_ATOM_CAP + 1)} amplitudes); got n_atoms={n_atoms}"
            )
        self.n_atoms = n_atoms
        self.amplitudes = np.zeros(2 ** (n_atoms + 1), dtype=complex)
        self.amplitudes[0] = 1.0

    def copy(self) -> "DenseState":
        new = object.__new__(DenseState)
        new.n_atoms, new.amplitudes = self.n_atoms, self.amplitudes.copy()
        return new

    def apply_clock_rotation(self, matrix) -> "DenseState":
        """Rotate every clock qubit, up to DENSE_BLOCK_BITS at a time.

        Each step applies the k-fold Kronecker power of m to the k lowest
        index bits and cycles them to the top of the index, in one matrix
        product; once all N clock bits have cycled, the head bit is lowest
        and one transpose puts it back.
        """
        blocks = _kron_powers(_check_unitary(matrix))
        amplitudes = self.amplitudes
        for low in range(0, self.n_atoms, DENSE_BLOCK_BITS):
            k = min(DENSE_BLOCK_BITS, self.n_atoms - low)
            amplitudes = blocks[k - 1] @ amplitudes.reshape(-1, 2 ** k).T
        self.amplitudes = amplitudes.reshape(-1, 2).T.ravel()
        return self

    def apply_head_rotation(self, matrix) -> "DenseState":
        self.amplitudes = (_check_unitary(matrix) @ self.amplitudes.reshape(2, -1)).ravel()
        return self

    def apply_phase_pass(self) -> "DenseState":
        """Phase gates from the head onto every clock site, as one sign mask.

        The head-up amplitude of clock index p changes sign when p raises an
        odd number of clock bits: its factor is 1 - 2 (weight & 1), +1 or -1
        exactly.
        """
        self.amplitudes[2 ** self.n_atoms:] *= 1.0 - 2.0 * (_clock_weights(self.n_atoms) & 1)
        return self

    def apply_controlled_flip(self) -> "DenseState":
        """A CNOT from the head onto every clock site: the head-up half reversed.

        Flipping all N clock bits of index p gives 2^N - 1 - p, so the
        head-up amplitudes are read backwards, in one copy.
        """
        up = self.amplitudes[2 ** self.n_atoms:]
        up[:] = up[::-1]
        return self

    def apply_free_evolution(self, delta_omega: float, delta_omega_head: float, t: float) -> "DenseState":
        """Clock index p gains exp(i dw t k) with k its weight; the head-up half exp(i dw' t)."""
        if t < 0.0:
            raise ParameterError("evolution time must be >= 0")
        clock_phase = np.exp(1j * delta_omega * t * np.arange(self.n_atoms + 1))
        halves = self.amplitudes.reshape(2, -1)  # (head, clock index)
        halves *= clock_phase[_clock_weights(self.n_atoms)]
        halves[1] *= np.exp(1j * delta_omega_head * t)
        return self

    def fringe_readout(self, delta_omegas, delta_omega_head: float, ramsey_time: float) -> np.ndarray:
        """p_up after :func:`evolve_and_disentangle` at each detuning; the state is not changed.

        Free evolution gives clock index q the phase theta k (k its weight) and
        the head-up half phi more; the flip pairs up[q] with down[2^N - 1 - q],
        of weight N - k; H on the head then reads
        p_up = ||a||^2 / 2 - Re[e^{i phi} sum_k d_k e^{i theta (2k - N)}], where
        d_k sums conj(down[2^N - 1 - q]) up[q] over the q of weight k. The sum
        is a Horner polynomial in e^{2 i theta}, in O(points) memory.
        """
        theta, phi = _ramsey_phases(delta_omegas, delta_omega_head, ramsey_time)
        down, up = self.amplitudes.reshape(2, -1)
        pairs = down[::-1].conj() * up
        weights, levels = _clock_weights(self.n_atoms), self.n_atoms + 1
        d = np.bincount(weights, pairs.real, levels) + 1j * np.bincount(weights, pairs.imag, levels)
        step = np.exp(2j * theta)
        total = np.full(theta.shape, d[-1])
        for d_k in d[-2::-1]:
            total = total * step + d_k
        cross = (np.exp(1j * (phi - self.n_atoms * theta)) * total).real
        half_norm = np.vdot(self.amplitudes, self.amplitudes).real / 2.0
        return _as_probabilities(half_norm + cross, half_norm - cross)[1]

    def head_readout(self) -> tuple[float, float]:
        half = 2 ** self.n_atoms
        p_down = float(np.sum(np.abs(self.amplitudes[:half]) ** 2))
        p_up = float(np.sum(np.abs(self.amplitudes[half:]) ** 2))
        return p_down, p_up

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _clock_gram(a: "BranchState", b: "BranchState") -> np.ndarray:
    """G[i, j] = <a.clock[i] | b.clock[j]>^N: overlaps of the N clock sites alone.

    A state's own gram has its diagonal exactly 1, since every clock factor is
    unit-norm: the rounded norm raised to the N-th power would be drift alone.
    """
    overlaps = a.clock.conj() @ b.clock.T
    if a is b:
        overlaps.flat[:: len(overlaps) + 1] = 1.0  # the diagonal
    return overlaps ** a.n_atoms


def _head_overlaps(a: "BranchState", b: "BranchState") -> np.ndarray:
    """<a|b> restricted to each head component: (head down, head up)."""
    return (a.head.conj() * (_clock_gram(a, b) @ b.head)).sum(axis=0)


class BranchState:
    """Rank-bounded branch-product state; O(1) cost and memory in N at fixed rank.

    Branch i is ``clock[i]`` on every one of the N clock sites times
    ``head[i]`` on the head: ``clock`` is (r, 2) and unit-norm, ``head`` is
    (r, 2) and carries the branch's amplitude. Readout, norm and overlap all
    read :func:`_head_overlaps`. After a phase pass splits branches, those
    with colinear clock factors merge, whatever their heads.
    """

    backend = "branch"

    def __init__(self, n_atoms: int):
        if n_atoms < 1:
            raise ParameterError(f"n_atoms must be >= 1, got {n_atoms}")
        self.n_atoms = n_atoms
        self.clock = np.array([[1.0, 0.0]], dtype=complex)
        self.head = self.clock.copy()

    @property
    def rank(self) -> int:
        return self.head.shape[0]

    def copy(self) -> "BranchState":
        new = object.__new__(BranchState)
        new.n_atoms, new.clock, new.head = self.n_atoms, self.clock.copy(), self.head.copy()
        return new

    def apply_clock_rotation(self, matrix) -> "BranchState":
        self.clock = self.clock @ _check_unitary(matrix).T
        return self

    def apply_head_rotation(self, matrix) -> "BranchState":
        self.head = self.head @ _check_unitary(matrix).T
        return self

    def _split_heads(self) -> tuple[np.ndarray, bool]:
        """Split superposed heads for a head-controlled gate: (head-up rows, whether any split).

        A branch whose head has both components splits once into its
        head-down part and its head-up part, in branch order with the down
        part first; each part keeps one head component, and parts at or
        below BRANCH_PRUNE_TOL drop out. After a split the caller merges.
        """
        present = np.abs(self.head) > BRANCH_PRUNE_TOL
        if not present.all(axis=1).any():
            return present[:, 1], False
        rows, up = np.nonzero(present)
        self.clock, self.head = self.clock[rows], self.head[rows]
        self.head[np.arange(rows.size), 1 - up] = 0.0
        return up == 1, True

    def apply_phase_pass(self) -> "BranchState":
        """Phase gates from the head onto every clock site, as one operation.

        Superposed heads split (:meth:`_split_heads`); every head-up branch
        then negates the |1> component of its clock factor, which every
        site shares.
        """
        up, split = self._split_heads()
        self.clock[up, 1] *= -1.0
        if split:
            self._merge()
        return self

    def apply_controlled_flip(self) -> "BranchState":
        """A CNOT from the head onto every clock site, as one operation.

        Superposed heads split as for the phase pass; every head-up branch
        then swaps the two components of its clock factor.
        """
        up, split = self._split_heads()
        self.clock[up] = self.clock[up, ::-1]
        if split:
            self._merge()
        return self

    def apply_free_evolution(self, delta_omega: float, delta_omega_head: float, t: float) -> "BranchState":
        if t < 0.0:
            raise ParameterError("evolution time must be >= 0")
        self.clock[:, 1] *= np.exp(1j * delta_omega * t)
        self.head[:, 1] *= np.exp(1j * delta_omega_head * t)
        return self

    def _merge(self):
        """Fold branches with colinear clock factors, whatever their heads.

        c^⊗N ⊗ h_i + c^⊗N ⊗ h_j = c^⊗N ⊗ (h_i + h_j), so branch j joins
        branch i as head_i += (z / |z|) head_j with z = <c_i|c_j>^N: colinear
        unit factors differ by a phase alone. Colinear is judged per site,
        up to rounding: |det[c_i, c_j]|, the sine of the angle between the
        two factors, at most BRANCH_COLINEAR_TOL. Over all N sites, factors
        an angle theta apart overlap by cos(theta)^N, which is near 1 for a
        small theta, yet they differ by the phase N theta.
        """
        if not 1 < self.rank <= BRANCH_MERGE_MAX_RANK:
            return
        c0, c1 = self.clock.T
        sines = np.abs(np.outer(c0, c1) - np.outer(c1, c0))
        gram = _clock_gram(self, self)
        alive = np.ones(self.rank, dtype=bool)
        for i in range(self.rank):
            if not alive[i]:
                continue
            for j in range(i + 1, self.rank):
                if alive[j] and sines[i, j] <= BRANCH_COLINEAR_TOL:
                    z = gram[i, j]
                    self.head[i] += z / abs(z) * self.head[j]
                    alive[j] = False
        if not alive.all():
            self.clock, self.head = self.clock[alive], self.head[alive]

    def fringe_readout(self, delta_omegas, delta_omega_head: float, ramsey_time: float) -> np.ndarray:
        """p_up after :func:`evolve_and_disentangle` at each detuning; the state is not changed.

        Free evolution and the flip leave the head-down part of branch i on
        c_i' = (c_i0, c_i1 e^{i theta}) and the head-up part of branch j on
        (c_j1 e^{i theta}, c_j0), so H on the head reads
        p_up = ||psi||^2 / 2 - Re[e^{i phi} sum_ij conj(head[i, 0]) head[j, 1]
        (conj(c_i0) c_j1 e^{i theta} + conj(c_i1) c_j0 e^{-i theta})^N], one
        term per pair of branches whose head product is not zero.
        """
        theta, phi = _ramsey_phases(delta_omegas, delta_omega_head, ramsey_time)
        rotation = np.exp(1j * theta)
        heads = np.outer(self.head[:, 0].conj(), self.head[:, 1])
        down, up = self.clock.conj(), self.clock
        total = np.zeros(theta.shape, dtype=complex)
        for i, j in zip(*np.nonzero(heads)):
            factor = down[i, 0] * up[j, 1] * rotation + down[i, 1] * up[j, 0] * rotation.conj()
            total += heads[i, j] * factor ** self.n_atoms
        cross = (np.exp(1j * phi) * total).real
        half_norm = _head_overlaps(self, self).real.sum() / 2.0
        return _as_probabilities(half_norm + cross, half_norm - cross)[1]

    def head_readout(self) -> tuple[float, float]:
        """(p_down, p_up); rounding within READOUT_TOL is clamped, more raises."""
        p_down, p_up = _as_probabilities(*_head_overlaps(self, self).real)
        return float(p_down), float(p_up)

    def norm(self) -> float:
        return math.sqrt(max(float(_head_overlaps(self, self).real.sum()), 0.0))

    def overlap_with(self, other: "BranchState") -> complex:
        if other.n_atoms != self.n_atoms:
            raise ParameterError("states have different register sizes")
        return complex(_head_overlaps(self, other).sum())


RegisterState = DenseState | BranchState


def init_register(n_atoms: int, backend: str = "dense") -> RegisterState:
    """All-zeros clock register with the head down: |00...0>|down>."""
    if backend == "dense":
        return DenseState(n_atoms)
    if backend == "branch":
        return BranchState(n_atoms)
    raise ParameterError(f"unknown backend {backend!r}, expected one of {BACKENDS}")


Checkpoint = Callable[[str, RegisterState], None]


def _unchecked(label: str, state: RegisterState) -> None:
    """The checkpoint of a run that checks nothing."""


def prepare_ghz(state: RegisterState, checkpoint: Checkpoint | None = None) -> RegisterState:
    """The first generalized pi/2 pulse: |0...0>|down> to the GHZ state, in place.

    H on all clocks, H on the head, the phase pass P_0..P_{N-1}, H on all
    clocks. ``checkpoint(label, state)`` is called with the state itself as
    the protocol passes each checkpoint, so a caller checks it in passing;
    it must not change the state.
    """
    checkpoint = checkpoint or _unchecked
    checkpoint("superposition", state.apply_clock_rotation(HADAMARD).apply_head_rotation(HADAMARD))
    checkpoint("entangled", state.apply_phase_pass())
    checkpoint("ghz", state.apply_clock_rotation(HADAMARD))
    return state


def evolve_and_disentangle(state: RegisterState, delta_omega: float, delta_omega_head: float,
                           ramsey_time: float, checkpoint: Checkpoint | None = None) -> RegisterState:
    """Free evolution, then the second pi/2 pulse, in place.

    The pulse brings the Ramsey phase chi of the GHZ state back onto the
    head qubit alone. It is H on all clocks, the phase pass, H on all clocks
    and H on the head; the first three, with no checkpoint between them,
    are applied as the one controlled flip they equal. ``checkpoint`` is
    called as in :func:`prepare_ghz`.
    """
    checkpoint = checkpoint or _unchecked
    checkpoint("evolved", state.apply_free_evolution(delta_omega, delta_omega_head, ramsey_time))
    state.apply_controlled_flip()
    checkpoint("final", state.apply_head_rotation(HADAMARD))
    return state


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
    """Run the noiseless protocol end to end, keeping a copy of the state at each checkpoint."""
    copies: dict[str, RegisterState] = {}

    def keep(label: str, state: RegisterState) -> None:
        copies[label] = state.copy()

    state = prepare_ghz(init_register(n_atoms, backend), keep)
    evolve_and_disentangle(state, delta_omega, delta_omega_head, ramsey_time, keep)
    return ProtocolResult(state, copies)


def ghz_reference(n_atoms: int) -> BranchState:
    """(|0...0>|down> + |1...1>|up>) / sqrt(2)."""
    state = BranchState(n_atoms)
    state.clock = np.eye(2, dtype=complex)
    state.head = 1.0 / math.sqrt(2.0) * np.eye(2, dtype=complex)
    return state


def final_reference(n_atoms: int, chi: float) -> BranchState:
    """|0...0>{cos(chi/2)|down> - i sin(chi/2)|up>}, the ideal output."""
    state = BranchState(n_atoms)
    state.head = np.array([[math.cos(chi / 2.0), -1j * math.sin(chi / 2.0)]], dtype=complex)
    return state


def protocol_references(
    n_atoms: int,
    delta_omega: float,
    delta_omega_head: float,
    ramsey_time: float,
) -> dict[str, BranchState]:
    """Ideal checkpoint states of the noiseless protocol, as branch states.

    ``state_overlap`` contracts a branch state against a dense one without
    expanding it, so these serve as references for either backend: at
    dense-capable sizes for the dense one, and at any size for the branch one.
    """
    inv = 1.0 / math.sqrt(2.0)
    chi = (n_atoms * delta_omega + delta_omega_head) * ramsey_time

    superposition = BranchState(n_atoms)
    superposition.clock[:] = inv
    superposition.head[:] = inv

    entangled = ghz_reference(n_atoms)
    entangled.clock = np.array([[inv, inv], [inv, -inv]], dtype=complex)

    evolved = ghz_reference(n_atoms)
    evolved.head[1, 1] *= np.exp(1j * chi)

    return {
        "superposition": superposition,
        "entangled": entangled,
        "ghz": ghz_reference(n_atoms),
        "evolved": evolved,
        "final": final_reference(n_atoms, chi),
    }


def _branch_dense_overlap(branch: BranchState, dense: DenseState) -> complex:
    """<branch|dense>, contracted factor by factor instead of expanding the branches.

    Per branch, the Kronecker power of the conjugated clock factor contracts
    up to DENSE_BLOCK_BITS clock bits per product, lowest bits first, each
    product dividing the partial tensor by 2^k; every site carries the same
    factor, so the order of the bits in a block does not matter. The
    conjugated head factor then contracts the two numbers left.
    """
    total = 0j
    for head, factor in zip(branch.head.conj(), branch.clock.conj()):
        blocks = _kron_powers(factor[None, :])
        partial = dense.amplitudes
        for low in range(0, dense.n_atoms, DENSE_BLOCK_BITS):
            k = min(DENSE_BLOCK_BITS, dense.n_atoms - low)
            partial = partial.reshape(-1, 2 ** k) @ blocks[k - 1][0]
        total += head @ partial
    return complex(total)


def state_overlap(a: RegisterState, b: RegisterState) -> complex:
    """<a|b> for two states on registers of equal size."""
    if a.n_atoms != b.n_atoms:
        raise ParameterError("states have different register sizes")
    if isinstance(a, DenseState) and isinstance(b, DenseState):
        return complex(np.vdot(a.amplitudes, b.amplitudes))
    if isinstance(a, BranchState) and isinstance(b, BranchState):
        return a.overlap_with(b)
    if isinstance(a, BranchState):
        return _branch_dense_overlap(a, b)
    return _branch_dense_overlap(b, a).conjugate()


def state_fidelity(a: RegisterState, b: RegisterState) -> float:
    """|<a|b>|^2."""
    return abs(state_overlap(a, b)) ** 2
