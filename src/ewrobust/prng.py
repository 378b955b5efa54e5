"""Counter-based random streams (Philox4x32-10).

Every draw is addressed by (seed, sample_index, draw_index, substream), so
sample i never depends on how many draws earlier samples consumed.  Workers
can generate disjoint index ranges with no coordination and the concatenated
output is identical to a serial run.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)

_U32 = np.uint32
_U64 = np.uint64

# substream tags: 0 = primary draws, 1 = redraw lane, 0xffffffff = subseed derivation
SUBSTREAM_MAIN = 0
SUBSTREAM_REDRAW = 1
_SUBSTREAM_SUBSEED = 0xFFFFFFFF

_INV_2_53 = 2.0 ** -53
_BELOW_ONE = 1.0 - _INV_2_53  # largest double below 1


def philox4x32(c0, c1, c2, c3, k0, k1):
    """One Philox4x32-10 block per counter element; inputs are uint32 arrays
    (or scalars), broadcast together.  Returns the four output words."""
    c0 = np.asarray(c0, dtype=_U32)
    c1 = np.asarray(c1, dtype=_U32)
    c2 = np.asarray(c2, dtype=_U32)
    c3 = np.asarray(c3, dtype=_U32)
    k0 = int(k0) & 0xFFFFFFFF
    k1 = int(k1) & 0xFFFFFFFF
    for _ in range(10):
        p0 = c0.astype(_U64) * _M0
        p1 = c2.astype(_U64) * _M1
        hi0 = (p0 >> _U64(32)).astype(_U32)
        lo0 = p0.astype(_U32)
        hi1 = (p1 >> _U64(32)).astype(_U32)
        lo1 = p1.astype(_U32)
        c0, c1, c2, c3 = hi1 ^ c1 ^ _U32(k0), lo1, hi0 ^ c3 ^ _U32(k1), lo0
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return c0, c1, c2, c3


def _split64(v) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(v, dtype=_U64)
    return v.astype(_U32), (v >> _U64(32)).astype(_U32)


def uniforms(seed: int, indices, n_draws: int, substream: int = SUBSTREAM_MAIN) -> np.ndarray:
    """Uniform doubles strictly inside (0, 1), shape (len(indices), n_draws).

    Draw j of sample i is block ctr=(j//2, substream, i_lo, i_hi) under
    key=(seed_lo, seed_hi); each 128-bit block yields two 53-bit doubles.
    """
    indices = np.asarray(indices, dtype=_U64)
    if n_draws == 0:
        return np.empty((indices.size, 0), dtype=np.float64)
    n_blocks = (n_draws + 1) // 2
    i_lo, i_hi = _split64(indices)
    blocks = np.arange(n_blocks, dtype=_U32)
    c0 = np.broadcast_to(blocks, (indices.size, n_blocks))
    c1 = _U32(substream)
    c2 = i_lo[:, None]
    c3 = i_hi[:, None]
    k_lo, k_hi = _split64(np.uint64(seed) & _U64(0xFFFFFFFFFFFFFFFF))
    w0, w1, w2, w3 = philox4x32(c0, c1, c2, c3, int(k_lo), int(k_hi))
    d0 = (w0.astype(_U64) << _U64(32)) | w1.astype(_U64)
    d1 = (w2.astype(_U64) << _U64(32)) | w3.astype(_U64)
    out = np.empty((indices.size, 2 * n_blocks), dtype=np.float64)
    out[:, 0::2] = ((d0 >> _U64(11)).astype(np.float64) + 0.5) * _INV_2_53
    out[:, 1::2] = ((d1 >> _U64(11)).astype(np.float64) + 0.5) * _INV_2_53
    # from k = 2**52 on, k + 1/2 rounds half to even, so the top 53-bit code
    # k = 2**53 - 1 gives exactly 1.0; only that value moves, to just below 1
    np.minimum(out, _BELOW_ONE, out=out)
    return out[:, :n_draws]


def derive_subseed(seed: int, k: int) -> int:
    """A 64-bit sub-seed for nested runs (per probe, per dataset point),
    taken from a substream no sampler ever touches."""
    k_lo, k_hi = _split64(np.uint64(k))
    s_lo, s_hi = _split64(np.uint64(seed))
    w0, w1, _, _ = philox4x32(k_lo, _U32(_SUBSTREAM_SUBSEED), k_hi, _U32(0),
                              int(s_lo), int(s_hi))
    return int((np.uint64(w0) << _U64(32)) | np.uint64(w1))
