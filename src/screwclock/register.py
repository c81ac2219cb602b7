"""Simulation of the N-clock-qubit + head-qubit register.

Two interchangeable backends:

* :class:`DenseState` holds the full 2^(N+1) amplitude vector. Index
  convention: ``index = p + 2^N * h`` with ``p = sum_j p_j 2^j`` the
  binary value of the clock register and ``h`` in {0: down, 1: up} the
  head qubit. Exact, but capped at small N.

* :class:`BranchState` stores a sum of product states ("branches") as two
  lists of Python complex pairs, one pair per branch: ``clock[i] = (c0, c1)``,
  one unit-norm clock 2-vector that stands for all N clock sites (every
  public gate acts alike on them), and ``head[i] = (h0, h1)``, the head
  2-vector, which carries the branch's amplitude. One form gives every
  overlap, per head component k:
  <a|b>_k = sum_ij conj(a.head[i][k]) <a.clock[i]|b.clock[j]>^N b.head[j][k].
  A phase pass or controlled flip splits a branch whose head is superposed
  into its head-down and head-up parts, and branches never merge: the rank
  doubles at most at each such gate. The protocol splits once, at its
  entangling pass, so it holds two branches at any N and a full run costs
  O(1) in N; its rounding does not grow with N either (:func:`_overlap_power`).
  At so few numbers, numpy's cost per call would outweigh the arithmetic, so
  gates, overlaps and the head readout run in plain scalar arithmetic; only a
  fringe over a detuning grid and the contraction against a dense state use arrays.

Both backends offer the same five gates (``apply_clock_rotation``,
``apply_head_rotation``, ``apply_phase_pass``, ``apply_controlled_flip``,
``apply_free_evolution``), which mutate in place and return the state. The
protocol applies them in two halves: :func:`prepare_ghz`, then
:func:`evolve_and_disentangle`. The controlled flip equals H on all clocks,
the phase pass and H on all clocks again (H Z H = X at every site): it
flips every clock bit of the head-up part, exactly. The two halves are the
one protocol driver: each hands the state itself to an optional
``checkpoint(label, state)`` callback at each checkpoint, where a caller
checks it with no ``copy``. A dense state's overlap with a branch state is
contracted DENSE_BLOCK_BITS clock sites per product against the Kronecker
power of each branch's clock factor, without expanding the branches.

Every gate of the second half is diagonal or a fixed permutation, so both
backends also read a whole fringe in closed form: ``fringe_readout`` gives
the ``p_up`` of that half and ``head_readout`` at each detuning of a grid,
from numbers the state fixes, without changing the state.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .config import BACKENDS
from .errors import CapacityError, ClockSimError, ParameterError

DENSE_ATOM_CAP = 14        # 2^15 amplitudes
DENSE_BLOCK_BITS = 3       # clock qubits per matrix product in a dense rotation
BRANCH_PRUNE_TOL = 1e-14   # a head component this small is absent: no branch part is made of it
READOUT_TOL = 1e-9         # head probabilities may miss [0, 1] and sum 1 by this
_UNITARY_TOL = 1e-12

# Read-only; checked, like every matrix, by each rotation that uses it.
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
HADAMARD.flags.writeable = False


def _check_unitary(matrix) -> tuple[complex, complex, complex, complex]:
    """The entries (a, b, c, d) of a 2x2 unitary [[a, b], [c, d]], read once as Python complexes.

    Unitary means m^H m = 1 within _UNITARY_TOL in each entry: unit columns,
    |a|^2 + |c|^2 = |b|^2 + |d|^2 = 1, that are orthogonal, conj(a) b +
    conj(c) d = 0. A NaN entry fails. Every call checks the caller's matrix,
    so one changed in place since an earlier call is checked again.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ParameterError(f"expected a 2x2 matrix, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    defects = (abs(a.conjugate() * b + c.conjugate() * d),
               abs(abs(a) ** 2 + abs(c) ** 2 - 1.0), abs(abs(b) ** 2 + abs(d) ** 2 - 1.0))
    if not all(defect <= _UNITARY_TOL for defect in defects):
        raise ParameterError(f"matrix is not unitary (defect {max(defects):.3e})")
    return a, b, c, d


def _unitary_array(matrix) -> np.ndarray:
    """The checked 2x2 unitary as a new complex array, for the dense backend."""
    return np.reshape(_check_unitary(matrix), (2, 2))


def _probability_pair(p_down: float, p_up: float) -> tuple[float, float]:
    """A head readout (p_down, p_up), clamped to [0, 1].

    Rounding may leave a probability just below 0 or a pair that sums just
    off 1; a pair more than READOUT_TOL away from a probability distribution
    means the register's norm drifted, and raises.
    """
    drift = max(abs(p_down + p_up - 1.0), -p_down, -p_up)  # the sum first: a NaN stays the max
    if not drift <= READOUT_TOL:
        raise ClockSimError(f"register norm drifted: head readout p_down={p_down!r}, p_up={p_up!r} "
                            f"is {drift:.3e} away from a probability distribution")
    return min(max(p_down, 0.0), 1.0), min(max(p_up, 0.0), 1.0)


def _fringe_probabilities(p_down: np.ndarray, p_up: np.ndarray) -> np.ndarray:
    """p_up at each point of a fringe, checked and clamped as :func:`_probability_pair` does."""
    drift = np.maximum(np.abs(p_down + p_up - 1.0), np.maximum(-p_down, -p_up))
    worst = np.argmax(drift)  # a NaN counts as the largest
    _probability_pair(float(p_down.flat[worst]), float(p_up.flat[worst]))
    return np.clip(p_up, 0.0, 1.0)


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

    A rotation writes each matrix product into the amplitudes or a spare
    array of the same size, whichever the step before did not, and binds
    ``amplitudes`` to the last one written: keep ``amplitudes.copy()``, not
    a reference to ``amplitudes``, which a later gate may overwrite. It
    first copies amplitudes bound from outside that are strided or not
    complex, which it could not write. The two diagonal gates read the
    cached table of clock-index Hamming weights (:func:`_clock_weights`,
    16 KiB at the cap): a phase pass takes its signs from the weight parity
    and free evolution its phases from the weight.
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
        self._spare = np.empty_like(self.amplitudes)

    def apply_clock_rotation(self, matrix) -> "DenseState":
        """Rotate every clock qubit, up to DENSE_BLOCK_BITS at a time.

        Each step applies the k-fold Kronecker power of m to the k lowest
        index bits and cycles them to the top of the index, in one matrix
        product; once all N clock bits have cycled, the head bit is lowest
        and one transposed copy puts it back. Each product and the copy
        write the array the step before did not.
        """
        blocks = _kron_powers(_unitary_array(matrix))
        source, target = np.ascontiguousarray(self.amplitudes, dtype=complex), self._spare
        for low in range(0, self.n_atoms, DENSE_BLOCK_BITS):
            k = min(DENSE_BLOCK_BITS, self.n_atoms - low)
            np.matmul(blocks[k - 1], source.reshape(-1, 2 ** k).T, out=target.reshape(2 ** k, -1))
            source, target = target, source
        np.copyto(target.reshape(2, -1), source.reshape(-1, 2).T)
        self.amplitudes, self._spare = target, source
        return self

    def apply_head_rotation(self, matrix) -> "DenseState":
        source = np.ascontiguousarray(self.amplitudes, dtype=complex)
        np.matmul(_unitary_array(matrix), source.reshape(2, -1), out=self._spare.reshape(2, -1))
        self.amplitudes, self._spare = self._spare, source
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
        return _fringe_probabilities(half_norm + cross, half_norm - cross)

    def head_readout(self) -> tuple[float, float]:
        """(p_down, p_up); rounding within READOUT_TOL is clamped, more raises."""
        half = 2 ** self.n_atoms
        p_down = float(np.sum(np.abs(self.amplitudes[:half]) ** 2))
        p_up = float(np.sum(np.abs(self.amplitudes[half:]) ** 2))
        return _probability_pair(p_down, p_up)


def _overlap_power(z: complex, sine: float, n_atoms: int) -> complex:
    """z^N for the overlap z = <u|w> of two clock 2-vectors whose sine is |det[u, w]|.

    The modulus comes from the Lagrange identity |z|^2 + det^2 = |u|^2 |w|^2, as
    log(|z| / (|u| |w|)) = -log1p(det^2 / |z|^2) / 2, and the phase as the angle
    N arg z: colinear factors give exactly 1 at any N, orthogonal ones exactly
    0, and no rounded norm is raised to the N-th power. :func:`_overlap_power_array`
    is the same formula over arrays.
    """
    z2 = abs(z) ** 2
    ratio = sine * sine / z2 if z2 > 0.0 else math.inf
    return _polar(math.exp(math.log1p(ratio) * (-0.5 * n_atoms)), math.atan2(z.imag, z.real) * n_atoms)


def _overlap_power_array(z: np.ndarray, sine: np.ndarray, n_atoms: int) -> np.ndarray:
    """:func:`_overlap_power` at each point of a grid: the same formula in numpy."""
    z2 = np.abs(z) ** 2
    with np.errstate(over="ignore"):  # a ratio past the float range is inf, as in the scalar form
        ratio = np.divide(sine * sine, z2, out=np.full_like(z2, np.inf), where=z2 > 0.0)
    return np.exp(np.log1p(ratio) * (-0.5 * n_atoms) + np.arctan2(z.imag, z.real) * (1j * n_atoms))


def _polar(modulus: float, angle: float) -> complex:
    """modulus e^{i angle}, rounded as cmath.exp rounds it, without cmath: a module to load at start-up."""
    return complex(modulus * math.cos(angle), modulus * math.sin(angle))


Pair = tuple[complex, complex]


def _pair_overlap(u: Pair, w: Pair, n_atoms: int) -> complex:
    """<u|w>^N: the overlap of two clock factors over the N sites.

    CPython's complex product rounds each real product once and fuses no
    multiply-add, so with u = w the imaginary part of each conj(u_k) u_k and the
    determinant u_0 u_1 - u_1 u_0 are exact zeros: a factor's overlap with
    itself is exactly 1 at any N.
    """
    (u0, u1), (w0, w1) = u, w
    return _overlap_power(u0.conjugate() * w0 + u1.conjugate() * w1, abs(u0 * w1 - u1 * w0), n_atoms)


def _head_overlaps(a: "BranchState", b: "BranchState") -> tuple[complex, complex]:
    """<a|b> restricted to each head component: (head down, head up)."""
    down = up = 0j
    for u, (g0, g1) in zip(a.clock, a.head):
        row0 = row1 = 0j
        for w, (h0, h1) in zip(b.clock, b.head):
            z = _pair_overlap(u, w, a.n_atoms)
            row0 += z * h0
            row1 += z * h1
        down += g0.conjugate() * row0
        up += g1.conjugate() * row1
    return down, up


def _rotated(pairs: list[Pair], matrix) -> list[Pair]:
    """Each 2-vector of ``pairs`` times the checked 2x2 unitary ``matrix``."""
    a, b, c, d = _check_unitary(matrix)
    return [(a * x0 + b * x1, c * x0 + d * x1) for x0, x1 in pairs]


class BranchState:
    """Branch-product state; O(1) cost and memory in N at fixed rank.

    Branch i is ``clock[i]`` on every one of the N clock sites times
    ``head[i]`` on the head. Both are lists of pairs of Python complexes, one
    pair per branch: ``clock[i] = (c0, c1)`` is unit-norm, and ``head[i] =
    (h0, h1)`` carries the branch's amplitude. Gates bind new lists. Readout,
    fringe and overlap all read :func:`_head_overlaps`. Branches never merge:
    the rank doubles at most at each phase pass or controlled flip that meets
    a superposed head, and the protocol holds rank 2 from its entangling pass
    on.
    """

    backend = "branch"

    def __init__(self, n_atoms: int):
        if n_atoms < 1:
            raise ParameterError(f"n_atoms must be >= 1, got {n_atoms}")
        self.n_atoms = n_atoms
        self.clock: list[Pair] = [(1 + 0j, 0j)]
        self.head: list[Pair] = [(1 + 0j, 0j)]

    @property
    def rank(self) -> int:
        return len(self.head)

    def apply_clock_rotation(self, matrix) -> "BranchState":
        self.clock = _rotated(self.clock, matrix)
        return self

    def apply_head_rotation(self, matrix) -> "BranchState":
        self.head = _rotated(self.head, matrix)
        return self

    def _head_controlled(self, on_up: Callable[[Pair], Pair]) -> "BranchState":
        """A gate from the head onto every clock site: ``on_up`` maps the clock factor of a head-up part.

        Each branch gives its head-down part, then its head-up part, in branch
        order; each part keeps one head component, and a part whose component
        is at or below BRANCH_PRUNE_TOL is not made. A branch with a
        superposed head thus splits in two.
        """
        clock, head = [], []
        for c, (h0, h1) in zip(self.clock, self.head):
            if abs(h0) > BRANCH_PRUNE_TOL:
                clock.append(c)
                head.append((h0, 0j))
            if abs(h1) > BRANCH_PRUNE_TOL:
                clock.append(on_up(c))
                head.append((0j, h1))
        self.clock, self.head = clock, head
        return self

    def apply_phase_pass(self) -> "BranchState":
        """Phase gates from the head onto every clock site, as one operation.

        Every head-up branch negates the |1> component of its clock factor,
        which every site shares (see :meth:`_head_controlled`).
        """
        return self._head_controlled(lambda c: (c[0], -c[1]))

    def apply_controlled_flip(self) -> "BranchState":
        """A CNOT from the head onto every clock site, as one operation.

        Every head-up branch swaps the two components of its clock factor
        (see :meth:`_head_controlled`).
        """
        return self._head_controlled(lambda c: (c[1], c[0]))

    def apply_free_evolution(self, delta_omega: float, delta_omega_head: float, t: float) -> "BranchState":
        if t < 0.0:
            raise ParameterError("evolution time must be >= 0")
        clock_phase, head_phase = _polar(1.0, delta_omega * t), _polar(1.0, delta_omega_head * t)
        self.clock = [(c0, c1 * clock_phase) for c0, c1 in self.clock]
        self.head = [(h0, h1 * head_phase) for h0, h1 in self.head]
        return self

    def fringe_readout(self, delta_omegas, delta_omega_head: float, ramsey_time: float) -> np.ndarray:
        """p_up after :func:`evolve_and_disentangle` at each detuning; the state is not changed.

        Free evolution and the flip leave the head-down part of branch i on
        c_i' = (c_i0, c_i1 e^{i theta}) and the head-up part of branch j on
        (c_j1 e^{i theta}, c_j0), so H on the head reads
        p_up = ||psi||^2 / 2 - Re[e^{i phi} sum_ij conj(head[i][0]) head[j][1]
        (conj(c_i0) c_j1 e^{i theta} + conj(c_i1) c_j0 e^{-i theta})^N], one
        term per pair of branches whose head product is not zero. The factor is
        e^{i theta} <c_i|(c_j1, c_j0 e^{-2i theta})>: the detuning enters as N theta.
        The grid is one numpy expression per term; the norm is the scalar one.
        """
        theta, phi = _ramsey_phases(delta_omegas, delta_omega_head, ramsey_time)
        back = np.exp(-2j * theta)
        total = np.zeros(theta.shape, dtype=complex)
        for (u0, u1), (g0, _) in zip(self.clock, self.head):
            for (c0, c1), (_, h1) in zip(self.clock, self.head):
                heads = g0.conjugate() * h1
                if heads:
                    z = u0.conjugate() * c1 + u1.conjugate() * c0 * back
                    sine = np.abs(u0 * c0 * back - u1 * c1)
                    total += heads * _overlap_power_array(z, sine, self.n_atoms)
        cross = (np.exp(1j * (phi + self.n_atoms * theta)) * total).real
        p_down, p_up = _head_overlaps(self, self)
        half_norm = (p_down + p_up).real / 2.0
        return _fringe_probabilities(half_norm + cross, half_norm - cross)

    def head_readout(self) -> tuple[float, float]:
        """(p_down, p_up); rounding within READOUT_TOL is clamped, more raises."""
        p_down, p_up = _head_overlaps(self, self)
        return _probability_pair(p_down.real, p_up.real)


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


def ghz_reference(n_atoms: int) -> BranchState:
    """(|0...0>|down> + |1...1>|up>) / sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    state = BranchState(n_atoms)
    state.clock = [(1 + 0j, 0j), (0j, 1 + 0j)]
    state.head = [(inv + 0j, 0j), (0j, inv + 0j)]
    return state


def final_reference(n_atoms: int, chi: float) -> BranchState:
    """|0...0>{cos(chi/2)|down> - i sin(chi/2)|up>}, the ideal output."""
    state = BranchState(n_atoms)
    state.head = [(complex(math.cos(chi / 2.0)), -1j * math.sin(chi / 2.0))]
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
    inv = 1.0 / math.sqrt(2.0) + 0j
    chi = (n_atoms * delta_omega + delta_omega_head) * ramsey_time

    superposition = BranchState(n_atoms)
    superposition.clock, superposition.head = [(inv, inv)], [(inv, inv)]

    entangled = ghz_reference(n_atoms)
    entangled.clock = [(inv, inv), (inv, -inv)]

    evolved = ghz_reference(n_atoms)
    evolved.head[1] = (0j, inv * _polar(1.0, chi))

    return {
        "superposition": superposition,
        "entangled": entangled,
        "ghz": ghz_reference(n_atoms),
        "evolved": evolved,
        "final": final_reference(n_atoms, chi),
    }


def _branch_dense_overlap(branch: BranchState, dense: DenseState) -> complex:
    """<branch|dense>, contracted factor by factor instead of expanding the branches.

    The branch's pairs become arrays here. Per branch, the Kronecker power of
    the conjugated clock factor contracts up to DENSE_BLOCK_BITS clock bits
    per product, lowest bits first, each product dividing the partial tensor
    by 2^k; every site carries the same factor, so the order of the bits in a
    block does not matter. The conjugated head factor then contracts the two
    numbers left.
    """
    total = 0j
    for head, factor in zip(np.array(branch.head, dtype=complex).conj(),
                            np.array(branch.clock, dtype=complex).conj()):
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
        down, up = _head_overlaps(a, b)
        return down + up
    if isinstance(a, BranchState):
        return _branch_dense_overlap(a, b)
    return _branch_dense_overlap(b, a).conjugate()


def state_fidelity(a: RegisterState, b: RegisterState) -> float:
    """|<a|b>|^2."""
    return abs(state_overlap(a, b)) ** 2
