"""Counter-based random streams (Philox4x32-10).

Every draw is addressed by (seed, sample_index, draw_index, substream), so
sample i never depends on how many draws earlier samples consumed.  Workers
can generate disjoint index ranges with no coordination and the concatenated
output is identical to a serial run.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF

# substream tags: 0 = primary draws, 1 = redraw lane, 0xffffffff = subseed derivation
SUBSTREAM_MAIN = 0
SUBSTREAM_REDRAW = 1
_SUBSTREAM_SUBSEED = 0xFFFFFFFF

_INV_2_53 = 2.0 ** -53
_BELOW_ONE = 1.0 - _INV_2_53  # largest double below 1
# Philox blocks per row chunk of uniforms: few enough to stay in L2, enough
# that curve/radii query threads seldom hand the GIL over between numpy calls
_PHILOX_CHUNK_BLOCKS = 16384


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 on 32-bit words, one block per counter element.

    Counter words are Python ints or uint64 arrays holding 32-bit values,
    broadcast together; the keys are Python ints.  Returns the four output
    words in the same form.  Products of two 32-bit words are exact in both,
    so the two forms give the same bits.  Never pass numpy scalars or 0-d
    arrays: NumPy 1.x promotes them, mixed with Python ints, to float64.
    """
    for _ in range(10):
        p0 = c0 * 0xD2511F53
        p1 = c2 * 0xCD9E8D57
        c0, c1, c2, c3 = ((p1 >> 32) ^ c1 ^ k0, p1 & _MASK32,
                          (p0 >> 32) ^ c3 ^ k1, p0 & _MASK32)
        k0 = (k0 + 0x9E3779B9) & _MASK32
        k1 = (k1 + 0xBB67AE85) & _MASK32
    return c0, c1, c2, c3


def _u64(value) -> int:
    """value as a Python int, which must lie in [0, 2**64)."""
    value = operator.index(value)
    if not 0 <= value < 2**64:
        raise OverflowError(f"{value} is outside [0, 2**64)")
    return value


def _index_array(indices) -> np.ndarray:
    """indices as a uint64 array; each must be an integer in [0, 2**64)."""
    if not isinstance(indices, np.ndarray):
        return np.array([_u64(i) for i in indices], dtype=np.uint64)
    if indices.dtype.kind not in "iu":
        raise TypeError(f"sample indices must be integers, got dtype {indices.dtype}")
    if indices.dtype.kind == "i" and indices.size and indices.min() < 0:
        raise OverflowError(f"{indices.min()} is outside [0, 2**64)")
    return indices.astype(np.uint64, copy=False)


def uniforms(seed: int, indices, n_draws: int, substream: int = SUBSTREAM_MAIN) -> np.ndarray:
    """Uniform doubles strictly inside (0, 1), shape (len(indices), n_draws).

    Draw j of sample i is block ctr=(j//2, substream, i_lo, i_hi) under
    key=(seed_lo, seed_hi); each 128-bit block yields two 53-bit doubles.
    """
    seed = _u64(seed)
    indices = _index_array(indices)
    if n_draws == 0:
        return np.empty((indices.size, 0), dtype=np.float64)
    n_blocks = (n_draws + 1) // 2
    blocks = np.arange(n_blocks, dtype=np.uint64)
    out = np.empty((indices.size, 2 * n_blocks), dtype=np.float64)
    # rows of about _PHILOX_CHUNK_BLOCKS blocks at a time, so the words and
    # their temporaries stay in cache; every block is keyed on its own, so
    # any chunking gives the same words
    step = max(1, _PHILOX_CHUNK_BLOCKS // n_blocks)
    for r in range(0, indices.size, step):
        rows = indices[r:r + step, None]
        w0, w1, w2, w3 = philox4x32(blocks, substream, rows & _MASK32, rows >> 32,
                                    seed & _MASK32, seed >> 32)
        chunk = out[r:r + step]
        chunk[:, 0::2] = (((w0 << 32) | w1) >> 11) + 0.5
        chunk[:, 1::2] = (((w2 << 32) | w3) >> 11) + 0.5
        chunk *= _INV_2_53
        # from k = 2**52 on, k + 1/2 rounds half to even, so the top 53-bit
        # code k = 2**53 - 1 gives exactly 1.0; only that value moves, to
        # just below 1
        np.minimum(chunk, _BELOW_ONE, out=chunk)
    return out[:, :n_draws]


def derive_subseed(seed: int, k: int) -> int:
    """A 64-bit sub-seed for nested runs (per probe, per dataset point),
    taken from a substream no sampler ever touches."""
    seed, k = _u64(seed), _u64(k)
    w0, w1, _, _ = philox4x32(k & _MASK32, _SUBSTREAM_SUBSEED, k >> 32, 0,
                              seed & _MASK32, seed >> 32)
    return (w0 << 32) | w1
