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
# the round multipliers, the shift and the mask as 0-d uint64 arrays, for
# rounds on word buffers: numpy converts a Python int operand on every call
_ARRAY_OPERANDS = tuple(np.array(v, dtype=np.uint64)
                        for v in (0xD2511F53, 0xCD9E8D57, 32, _MASK32))

# substream tags: 0 = primary draws, 1 = redraw lane, 0xffffffff = subseed derivation
SUBSTREAM_MAIN = 0
SUBSTREAM_REDRAW = 1
_SUBSTREAM_SUBSEED = 0xFFFFFFFF

_INV_2_53 = 2.0 ** -53
_INV_2_54 = 2.0 ** -54
_BELOW_ONE = 1.0 - _INV_2_53  # largest double below 1
# Philox blocks per row chunk of uniforms: few enough to stay in L2, and the
# fastest chunk size measured for a single thread
_PHILOX_CHUNK_BLOCKS = 16384


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 on 32-bit words, one block per counter element.

    Counter words are Python ints or uint64 arrays holding 32-bit values,
    broadcast together; the keys are Python ints.  Returns the four output
    words in the same form.  Products of two 32-bit words are exact in both,
    so the two forms give the same bits.  Never pass numpy scalars or 0-d
    arrays: NumPy 1.x promotes them, mixed with Python ints, to float64.

    Round 1 runs on the words' own shapes (for uniforms, a row of blocks and
    a column of samples).  When its words are arrays, rounds 2-10 write into
    four new C-ordered buffers of their broadcast shape, which are returned;
    the same statements run on Python ints, which they rebind.
    """
    # literals, one constant tuple: derive_subseed's Python ints load no globals
    m0, m1, shift, mask = 0xD2511F53, 0xCD9E8D57, 32, 0xFFFFFFFF
    p0 = c0 * m0
    p1 = c2 * m1
    c0, c1, c2, c3 = (p1 >> shift) ^ c1 ^ k0, p1 & mask, (p0 >> shift) ^ c3 ^ k1, p0 & mask
    # words 0 and 2 of round 1 read all four counter words, so they are
    # Python ints only when every word is; a type test keeps that path fast
    if type(c0) is not int or type(c2) is not int:
        words = c0, c1, c2, c3
        shape = np.broadcast_shapes(*map(np.shape, words))
        c0, c1, c2, c3 = buffers = [np.empty(shape, dtype=np.uint64) for _ in words]
        for buffer, w in zip(buffers, words):
            buffer[...] = w
        m0, m1, shift, mask = _ARRAY_OPERANDS
    for _ in range(9):
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
        c2 *= m1
        c0 *= m0
        c1 ^= k0
        c1 ^= c2 >> shift
        c2 &= mask
        c3 ^= k1
        c3 ^= c0 >> shift
        c0 &= mask
        c0, c1, c2, c3 = c1, c2, c3, c0
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
        # the top 53 bits k of each 64-bit word pair, in place, then
        # (k + 1/2) * 2**-53 as k * 2**-53 + 2**-54: scaling by a power of
        # two is exact, so both round alike
        for hi, lo, half in ((w0, w1, chunk[:, 0::2]), (w2, w3, chunk[:, 1::2])):
            hi <<= 32
            hi |= lo
            hi >>= 11
            np.multiply(hi, _INV_2_53, out=half)
        chunk += _INV_2_54
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
