"""Named, splittable random streams and counter-based keys.

Every stochastic choice in the package is a pure function of (seed, stream id,
counters). Splits, inits, dropout masks and synthesis draw from a
Philox4x32-10 generator keyed by (seed, stream id, substream id); feature
sampling instead gives each (node, bag slot) one 64-bit SplitMix64 key,
`counter_keys(seed, SAMPLE, node, slot)`. Both are seedable and splittable by
construction, so any implementation that reproduces the key derivation below
reproduces splits, samples, inits, and dropout masks exactly.
"""

from __future__ import annotations

import numpy as np

# Stream ids. Substream meaning depends on the stream: epoch index for DROPOUT,
# zero elsewhere; SAMPLE keys count nodes and bag slots instead (a per-epoch
# resample keys them with the seed `derive_cell_seed(seed, epoch)`).
SPLIT = 1
SAMPLE = 2
XAVIER = 3
DROPOUT = 4
SYNTH = 5

_MASK64 = (1 << 64) - 1
# SplitMix64 (Steele, Lea & Flood 2014): golden-ratio increment, then the
# variant-13 finalizer's two multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def stream_rng(seed: int, stream: int, substream: int = 0) -> np.random.Generator:
    """Generator for the (seed, stream, substream) Philox stream."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = [seed & _MASK64, ((stream << 48) | (substream & ((1 << 48) - 1))) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))


def splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64 output for each uint64 state: finalize(state + golden), wrapping.

    A bijection of uint64, so distinct states give distinct outputs.
    """
    x = np.asarray(state, dtype=np.uint64) + _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def counter_keys(seed: int, stream: int, node: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """uint64 key of each (seed, stream, node, slot), elementwise over node and slot.

    Chained SplitMix64: one key per (seed, stream, node), then one per slot.
    Keys of one node are distinct for distinct slots and never depend on
    another node's. `node` must be below 2**48.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    base = splitmix64(np.array([seed & _MASK64], dtype=np.uint64))
    node_key = splitmix64(base ^ (np.uint64(stream << 48) | np.asarray(node, dtype=np.uint64)))
    return splitmix64(node_key ^ np.asarray(slot, dtype=np.uint64))


def derive_cell_seed(base_seed: int, cell_index: int) -> int:
    """Deterministic per-cell seed for grid search, from (base seed, cell index).

    The SplitMix64 output for state cell_index * golden keeps cells
    statistically independent while remaining reproducible across platforms.
    """
    state = np.array([cell_index * int(_GOLDEN) & _MASK64], dtype=np.uint64)
    return (base_seed ^ int(splitmix64(state)[0])) & ((1 << 62) - 1)
