"""Counter-based random streams and inverse-CDF variates.

Streams are Philox keyed by the user seed with the 128-bit counter's high
word set per block of sample indices, so any partitioning of indices across
workers reproduces the same output ordering.
"""

from __future__ import annotations

import numpy as np

from . import backend

BLOCK = 4096


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """Independent substream for one block of sample indices."""
    return np.random.Generator(np.random.Philox(key=seed, counter=block_index << 64))


def normal_from_uniform(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF, elementwise (deterministic, no
    rejection): one call of the array kernel for the whole array."""
    return backend.normal_inv_cdf(u)


def block_rows(count: int):
    """Yield (block index, rows) per block of sample indices, rows being a
    slice of range(count)."""
    for b in range((count + BLOCK - 1) // BLOCK):
        lo = b * BLOCK
        yield b, slice(lo, min(lo + BLOCK, count))


def blocks(seed: int, count: int, per_sample: int):
    """Yield (rows, uniforms) per block of sample indices: a slice of
    range(count) and the block's (len(rows), per_sample) uniforms, so a
    caller can transform and reduce one block before drawing the next."""
    for b, rows in block_rows(count):
        yield rows, block_generator(seed, b).random((rows.stop - rows.start, per_sample))


def uniform_blocks(seed: int, count: int, per_sample: int) -> np.ndarray:
    """(count, per_sample) uniforms, reproducible independent of how blocks
    would be scheduled across workers."""
    out = np.empty((count, per_sample), dtype=float)
    for rows, u in blocks(seed, count, per_sample):
        out[rows] = u
    return out
