import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewrobust import prng
from ewrobust.prng import SUBSTREAM_REDRAW, derive_subseed, philox4x32, uniforms

# Known-answer vectors from the published Philox4x32-10 test suite.
KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2,
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("ctr,key,expected", KAT)
def test_known_answer_vectors(ctr, key, expected):
    out = philox4x32(*ctr, *key)  # Python ints in, Python ints out
    assert all(type(w) is int for w in out) and out == expected
    out = philox4x32(*(np.array([c], dtype=np.uint64) for c in ctr), *key)
    assert tuple(int(w[0]) for w in out) == expected


def _philox_reference(ctr, key):
    """Scalar reference implementation, independent of the numpy code path."""
    c = list(ctr)
    k = list(key)
    for _ in range(10):
        p0 = 0xD2511F53 * c[0]
        p1 = 0xCD9E8D57 * c[2]
        c = [(p1 >> 32) ^ c[1] ^ k[0], p1 & 0xFFFFFFFF,
             (p0 >> 32) ^ c[3] ^ k[1], p0 & 0xFFFFFFFF]
        k = [(k[0] + 0x9E3779B9) & 0xFFFFFFFF, (k[1] + 0xBB67AE85) & 0xFFFFFFFF]
    return tuple(c)


WORD = st.integers(0, 2**32 - 1)


@given(st.lists(st.tuples(WORD, WORD, WORD, WORD), min_size=1, max_size=8),
       st.tuples(WORD, WORD))
@settings(max_examples=50)
def test_vectorized_matches_scalar_reference(ctrs, key):
    words = np.array(ctrs, dtype=np.uint64).T  # one uint64 array per counter word
    out = philox4x32(*words, *key)
    assert all(w.dtype == np.uint64 for w in out)
    assert ([tuple(int(w[row]) for w in out) for row in range(len(ctrs))]
            == [_philox_reference(ctr, key) for ctr in ctrs])


def _uniforms_from_ints(seed, indices, n_draws, substream):
    """uniforms from Philox's Python-int path, one block at a time, and the
    conversion as documented: (k + 1/2) * 2**-53 for the top 53 bits k of
    each word pair, with 1.0 moved to the largest double below it."""
    rows = []
    for i in indices:
        row = []
        for block in range((n_draws + 1) // 2):
            w = philox4x32(block, substream, i & 0xFFFFFFFF, i >> 32,
                           seed & 0xFFFFFFFF, seed >> 32)
            for hi, lo in ((w[0], w[1]), (w[2], w[3])):
                k = ((hi << 32) | lo) >> 11
                row.append(min((k + 0.5) * 2.0**-53, 1.0 - 2.0**-53))
        rows.append(row[:n_draws])
    return np.array(rows, dtype=np.float64).reshape(len(indices), n_draws)


@pytest.mark.parametrize("first,rows,draws,budget,substream", [
    (0, 1, 1, None, 0),            # one row, one draw
    (7, 1, 7, None, 0),            # odd draw counts
    (3, 5, 3, None, 0),
    (0, 5, 6, 3, 0),               # chunks of one row
    (0, 5, 6, 6, 0),               # chunks of two rows, the last one partial
    (0, 6, 5, 9, 0),               # chunks of three rows, none partial
    (2**64 - 4, 4, 5, None, 0),    # indices up to 2**64 - 1
    (2**32 - 2, 4, 3, 2, 0),       # the low index word wraps inside a chunk
    (11, 4, 9, None, 1),           # the redraw substream
])
def test_buffered_rounds_match_python_int_path(monkeypatch, first, rows, draws, budget,
                                               substream):
    if budget is not None:
        monkeypatch.setattr(prng, "_PHILOX_CHUNK_BLOCKS", budget)
    indices = [first + k for k in range(rows)]
    seed = 0xFEEDFACE12345678
    got = uniforms(seed, np.array(indices, dtype=np.uint64), draws, substream=substream)
    assert np.array_equal(got, _uniforms_from_ints(seed, indices, draws, substream))


def test_broadcast_words_match_python_int_path():
    # a row of blocks against a column of samples, as uniforms calls it
    blocks = np.arange(3, dtype=np.uint64)
    rows = np.array([[5], [2**32 + 1]], dtype=np.uint64)
    out = philox4x32(blocks, 1, rows & 0xFFFFFFFF, rows >> 32, 0xABCDEF, 0x123)
    assert all(w.shape == (2, 3) and w.dtype == np.uint64 and w.flags.c_contiguous
               for w in out)
    for r, row in enumerate(rows[:, 0].tolist()):
        for b in range(3):
            want = philox4x32(b, 1, row & 0xFFFFFFFF, row >> 32, 0xABCDEF, 0x123)
            assert tuple(int(w[r, b]) for w in out) == want


def test_counter_words_left_unchanged():
    # rounds 2-10 write into buffers of their own, never into the arguments
    words = [np.arange(4, dtype=np.uint64) + k for k in range(4)]
    before = [w.copy() for w in words]
    philox4x32(*words, 1, 2)
    assert all(np.array_equal(w, b) for w, b in zip(words, before))


def test_uniforms_open_interval():
    u = uniforms(123, np.arange(1000), 8)
    assert u.shape == (1000, 8)
    assert (u > 0.0).all() and (u < 1.0).all()


def test_uniforms_at_edge_codes(monkeypatch):
    # a uniform is (k + 1/2) * 2**-53 for the top 53 bits k of a 64-bit word;
    # k = 2**53 - 1 used to round to exactly 1.0
    codes = np.array([[0, 2**52], [2**53 - 2, 2**53 - 1]], dtype=np.uint64)
    want = [[2.0**-54, 0.5], [1.0 - 2.0**-52, 1.0 - 2.0**-53]]
    for low in (0, 0x7FF):  # the 11 low bits are dropped
        words = (codes << np.uint64(11)) | np.uint64(low)
        hi, lo = words >> np.uint64(32), words & np.uint64(0xFFFFFFFF)
        monkeypatch.setattr(prng, "philox4x32",
                            lambda *args: (hi[:, :1], lo[:, :1], hi[:, 1:], lo[:, 1:]))
        assert uniforms(0, np.arange(2), 2).tolist() == want


def test_uniforms_partition_invariance():
    whole = uniforms(9, np.arange(0, 300), 5)
    parts = np.vstack([uniforms(9, np.arange(0, 120), 5),
                       uniforms(9, np.arange(120, 300), 5)])
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("budget", [1, 3, 7, 64])
@pytest.mark.parametrize("rows,draws", [(0, 5), (1, 9), (13, 5), (10, 16)])
def test_uniforms_row_chunks_bitwise_equal_one_pass(monkeypatch, budget, rows, draws):
    # budgets below, at and above one row's blocks, with a partial last chunk
    indices = np.arange(rows, dtype=np.uint64) + 2**33 - 5
    whole = uniforms(4, indices, draws)
    monkeypatch.setattr(prng, "_PHILOX_CHUNK_BLOCKS", budget)
    assert np.array_equal(uniforms(4, indices, draws), whole)


def test_uniforms_pure_function_of_seed_and_index():
    a = uniforms(77, np.array([5, 900, 2**40]), 4)
    b = uniforms(77, np.array([5, 900, 2**40]), 4)
    assert np.array_equal(a, b)
    c = uniforms(78, np.array([5, 900, 2**40]), 4)
    assert not np.array_equal(a, c)


def test_substreams_are_disjoint():
    main = uniforms(3, np.arange(10), 6)
    redraw = uniforms(3, np.arange(10), 6, substream=SUBSTREAM_REDRAW)
    assert not np.array_equal(main, redraw)


def test_draw_prefix_stability():
    # asking for fewer draws must not change the values of shared draws
    few = uniforms(11, np.arange(20), 3)
    many = uniforms(11, np.arange(20), 9)
    assert np.array_equal(few, many[:, :3])


def test_derive_subseed_deterministic_and_spread():
    seeds = {derive_subseed(42, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert derive_subseed(42, 7) == derive_subseed(42, 7)
    assert derive_subseed(42, 7) != derive_subseed(43, 7)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_seed_or_k_outside_64_bits_raises(bad):
    for call in (lambda: derive_subseed(bad, 0), lambda: derive_subseed(0, bad),
                 lambda: uniforms(bad, np.arange(2), 2)):
        with pytest.raises(OverflowError):
            call()


@pytest.mark.parametrize("bad,error", [
    (np.array([-1]), OverflowError), (np.array([0, -5], dtype=np.int32), OverflowError),
    ([2**64], OverflowError), ([-1], OverflowError),
    (np.array([1.7]), TypeError), (np.array([1.0]), TypeError), ([1.7], TypeError)])
def test_bad_index_raises(bad, error):
    # a numpy index must not wrap (-1 to 2**64 - 1) or truncate (1.7 to 1)
    with pytest.raises(error):
        uniforms(0, bad, 2)


def test_index_forms_agree():
    want = uniforms(5, np.array([0, 3, 2**64 - 1], dtype=np.uint64), 3)
    assert np.array_equal(uniforms(5, [0, 3, 2**64 - 1], 3), want)
    assert np.array_equal(uniforms(5, np.array([0, 3]), 3), want[:2])
