"""Workload definitions: the CLI command sequence each workload runs.

Each workload is a list of ``(command, config overrides)`` pairs. Every
config starts from the package defaults; the benchmark's ``--seed`` is the
only value that varies between runs, and it goes into ``run.seed``.
"""

from __future__ import annotations

import copy

SWEEP_DELTAS = [0.15, 0.2, 0.25, 0.3, 0.35]
SWEEP_ATOMS = [10, 100, 1000, 10000]

# Why each workload exists, and which layers it isolates.
WHY = {
    # The branch register does >90 % of the work (about 222k per-site phase
    # gates); rates, lattice and trajectories are idle. Target of whole-pass
    # gates and detuning-batched scans.
    "spectroscopy": "branch scan at N=1000 and branch simulate at N=1e4; the register layer dominates",
    # Monte Carlo sampling (about 60 %) and the dense register (about 35 %).
    # A branch-only change should leave it unmoved; a binomial sampler
    # should move wall time and peak memory.
    "noisy_dense": "dense scan at N=12 with 1e6 trajectories per point and dense simulate at N=14",
    # No register code at all: schedule materialization, output, lattice,
    # pipeline and config do the work. Target of closed-form schedules and
    # the bypass for register changes.
    "design": "feasibility, schedule at N=1e4, optimize to N=1e4 and a 20-point sweep; no register code",
}

_SEQUENCES = {
    "spectroscopy": [
        ("scan", {"protocol": {"n_atoms": 1000}, "run": {"backend": "branch"}}),
        ("simulate", {"protocol": {"n_atoms": 10000}, "run": {"backend": "branch"}}),
    ],
    "noisy_dense": [
        ("scan", {"protocol": {"n_atoms": 12},
                  "run": {"backend": "dense", "trajectories": 1_000_000}}),
        ("simulate", {"protocol": {"n_atoms": 14}, "run": {"backend": "dense"}}),
    ],
    "design": [
        ("feasibility", {}),
        ("schedule", {"protocol": {"n_atoms": 10000}}),
        ("optimize", {}),
        ("sweep", {"sweep": {"lattice.delta": SWEEP_DELTAS, "protocol.n_atoms": SWEEP_ATOMS}}),
    ],
}

NAMES = tuple(_SEQUENCES)


def command_sequence(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (command, config document) pairs for one seed."""
    sequence = []
    for command, overrides in _SEQUENCES[workload]:
        doc = copy.deepcopy(overrides)
        doc.setdefault("run", {})["seed"] = seed
        sequence.append((command, doc))
    return sequence
