"""Monte Carlo scattering trajectories under the pessimistic noise model.

A single scattering event anywhere in the register (any clock atom, the
head, or the aggregate extra-loss channel) during the schedule is assumed
to decohere the fringe completely, so a trajectory either reproduces the
noiseless readout probability or returns 1/2. Trajectories are independent
and scatter with the same probability, which a scan computes once
(:func:`~screwclock.rates.scatter_probability`), so a batch is summarized
exactly by its scatter count, one binomial draw.

Point i of a scan draws its count as ``default_rng([seed, i])`` would, but
one generator serves the whole scan: the points' PCG64 states are derived
together, by numpy's own SeedSequence and PCG64 seeding, which NEP 19 keeps
stable, and set on it in turn.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import PCG64, Generator

from .errors import ParameterError

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, multiplier: int, calls: int) -> np.ndarray:
    """SeedSequence's running hash constant before and after each of ``calls`` calls, as a uint64 column."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * multiplier & _MASK32)
    return np.array(consts, dtype=np.uint64)[:, None]


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row j of ``words`` by constants j and j + 1.

    uint64 lanes wrap mod 2^64, so mod 2^32 too; the mask clears the high
    half before each shift (here and in :func:`_mix`).
    """
    words = (words ^ consts[:-1]) * consts[1:] & _MASK32
    return words ^ words >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two 32-bit words per lane."""
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


def _pcg64_states(seed: int, count: int) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence([seed, i]))`` for i < ``count``, one uint64 lane per i.

    The entropy is the seed's 32-bit words, low word first, then i. The
    first 4 words (zeros past the entropy) hash into a 4-word pool, whose
    words each hash into the other three, and any word past the first 4
    hashes into all four; the hash constant steps once per hash, so the
    hashes of one word into several are one array operation. Four 64-bit
    words v0..v3 drawn from the pool seed PCG64 with initstate = v0 v1 and
    initseq = v2 v3.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if count > 2**32:
        raise ParameterError(f"at most 2^32 scan points share a seed, got {count}")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, 4), count), dtype=np.uint64)
    entropy[:len(words)] = np.array(words, dtype=np.uint64)[:, None]
    entropy[len(words)] = np.arange(count)

    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * len(entropy))
    pool = _hash(entropy[:4], consts[:5])
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], consts[4 + 3 * src:8 + 3 * src]))
    for extra, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hash(word, consts[16 + 4 * extra:21 + 4 * extra]))

    out = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
    v0, v1, v2, v3 = (out[0::2] | out[1::2] << 32).tolist()
    states = []
    for initstate_high, initstate_low, initseq_high, initseq_low in zip(v0, v1, v2, v3):
        inc = ((initseq_high << 64 | initseq_low) << 1 | 1) & _MASK128
        initstate = initstate_high << 64 | initstate_low
        states.append((((inc + initstate) * _PCG64_MULTIPLIER + inc) & _MASK128, inc))
    return states


def scatter_counts(scatter_probability: float, n_trajectories: int, seed: int, count: int) -> list[int]:
    """Scatter counts of the ``count`` points of a scan of ``n_trajectories`` trajectories each.

    A trajectory scatters when the first arrival of the total Poisson event
    process falls inside the schedule, which happens with probability
    ``scatter_probability`` (see :func:`~screwclock.rates.scatter_probability`).
    Count i is the Binomial(n_trajectories, scatter_probability) draw of
    ``default_rng([seed, i])``, bit for bit, from one generator whose state is
    set for each point.
    """
    if n_trajectories < 1:
        raise ParameterError("n_trajectories must be >= 1")
    bit_generator = PCG64(0)
    generator = Generator(bit_generator)
    counts = []
    for state, inc in _pcg64_states(seed, count):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        counts.append(int(generator.binomial(n_trajectories, scatter_probability)))
    return counts
