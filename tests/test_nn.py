import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dense_model, toy_conv_model
from ewrobust import nn
from ewrobust.gadgets import CnfFormula, build_gadget
from ewrobust.nn import (Conv2d, Dense, Flatten, MaxPool2d, ModelFormatError,
                         NetworkModel, Normalize, NumericOverflowError, Relu,
                         ShapeMismatchError, dump_model, forward, indicative,
                         label_mask, load_model, predict)
from oracles import threshold_classifier


def dense_model(weight, bias):
    w = np.asarray(weight, dtype=float)
    return NetworkModel((w.shape[1],), w.shape[0], (Dense(w, np.asarray(bias, dtype=float)),))


class TestForward:
    def test_identity_weights(self):
        model = dense_model([[1, 0], [0, 1]], [0, 0])
        logits = forward(model, np.array([3.0, -1.0]))
        assert np.array_equal(logits, [[3.0, -1.0]])

    def test_hand_matmul(self):
        model = dense_model([[1, 2], [3, 4]], [1, 1])
        logits = forward(model, np.array([1.0, 1.0]))
        assert np.array_equal(logits, [[4.0, 8.0]])

    def test_clause_arithmetic(self):
        # y = 1 - max(0, 1 - sum) built from dense/relu/dense; sum 0 -> y 0
        layers = (Dense(np.array([[-1.0]]), np.array([1.0])), Relu(),
                  Dense(np.array([[-1.0], [0.0]]), np.array([1.0, 0.5])))
        model = NetworkModel((1,), 2, layers)
        for total, y in [(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]:
            assert forward(model, np.array([total]))[0, 0] == y

    def test_shape_mismatch(self):
        model = dense_model([[1, 0], [0, 1]], [0, 0])
        with pytest.raises(ShapeMismatchError):
            forward(model, np.zeros((1, 3)))

    def test_overflow_reported(self):
        model = dense_model([[1e300, 0], [0, 1e300]], [0, 0])
        with pytest.raises(NumericOverflowError, match="layer 0"):
            forward(model, np.array([1e10, 1e10]))

    def test_batch_rows_bitwise_equal_single_rows(self, rng):
        model = random_dense_model(rng, 5, 3)
        batch = rng.normal(size=(17, 5))
        whole = forward(model, batch)
        for k in range(17):
            assert np.array_equal(whole[k], forward(model, batch[k])[0])

    def test_conv_model_batch_invariance(self, rng):
        model = toy_conv_model(rng)
        batch = rng.normal(size=(9, 1, 8, 8))
        whole = forward(model, batch)
        rows = np.vstack([forward(model, batch[k]) for k in range(9)])
        assert np.array_equal(whole, rows)

    def test_conv_model_logits_are_c_contiguous(self, rng):
        # conv layers return batch-first views of a rows-innermost array
        logits = forward(toy_conv_model(rng), rng.normal(size=(9, 1, 8, 8)))
        assert logits.shape == (9, 10) and logits.flags.c_contiguous


def _exact_dense(x, weight, bias):
    """x @ weight.T + bias, correctly rounded: math.fsum of each product as an
    exact pair (Dekker's split; no overflow for |values| below 2**996)."""
    def halves(a):
        c = 134217729.0 * a  # 2**27 + 1
        hi = c - (c - a)
        return hi, a - hi

    out = np.empty((x.shape[0], weight.shape[0]))
    for r, row in enumerate(x):
        for o, w in enumerate(weight):
            p = row * w
            (xh, xl), (wh, wl) = halves(row), halves(w)
            err = ((xh * wh - p) + xh * wl + xl * wh) + xl * wl
            out[r, o] = math.fsum([*p, *err, bias[o]])
    return out


def _dense_error_bound(x, weight, bias):
    """Two roundings (the pair sum, then the bias) of at most 2**-53 of
    sum|x w| + |b|, plus the dropped slices and pairs: at most 6 n 2**-3*bits
    units of max|x| max|w| scaled to (0.5, 1], bounded by 8 n 2**-3*bits."""
    n = x.shape[1]
    bits = nn._slice_bits(n)
    scale = np.abs(x) @ np.abs(weight).T + np.abs(bias)
    dropped = (8 * n * 2.0 ** (-3 * bits)
               * np.abs(x).max(axis=1)[:, None] * np.abs(weight).max(axis=1))
    return 2 * 2.0 ** -53 * scale + dropped


# forward of a 784-100-100-10 MLP on 300 rows, whole and in row partitions
# (the last partial), printed as one digest; run in a fresh process so that
# OpenBLAS reads its thread count and CPU set at start-up
_FORWARD_DIGEST = """
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from ewrobust.nn import Dense, NetworkModel, Relu, forward
rng = np.random.default_rng(7)
dims = (784, 100, 100, 10)
layers = []
for a, b in zip(dims, dims[1:]):
    layers += [Dense(rng.normal(size=(b, a)) / a ** 0.5, rng.normal(size=b)), Relu()]
model = NetworkModel((784,), 10, tuple(layers[:-1]))
x = rng.normal(size=(300, 784))
whole = forward(model, x)
for size in (1, 7, 31, 33, 72, 156):
    parts = np.vstack([forward(model, x[i:i + size]) for i in range(0, 300, size)])
    assert np.array_equal(parts, whole), size
print(hashlib.sha256(whole.tobytes()).hexdigest())
"""


# forward of a conv 2->4 on 7 rows of 2 x 20 x 9 in tiles of 2000 bytes: prints
# whether the set of live threads is the same after as before, and the bits
# of the conv's output
_CONV_THREADS = """
import threading
import numpy as np
from ewrobust import nn
rng = np.random.default_rng(11)
conv = nn.Conv2d(rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4), (1, 1), (1, 1))
x = rng.normal(size=(7, 2, 20, 9))
model = nn.NetworkModel((2, 20, 9), 3, (conv, nn.Flatten(),
                                         nn.Dense(rng.normal(size=(3, 720)), np.zeros(3))))
seen, apply = [], nn.Conv2d.apply
nn.Conv2d.apply = lambda layer, x: seen.append(apply(layer, x)) or seen[-1]
nn._CONV_TILE_BYTES = 2000
before = threading.enumerate()
nn.forward(model, x)
print("same" if threading.enumerate() == before else "changed", seen[0].tobytes().hex())
"""


class TestDenseSplitProduct:
    """Dense is an exact split product: every slice-pair sum is exact in
    float64, so an output row is a function of its input row alone."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 60),
           st.integers(1, 12), st.lists(st.integers(1, 40), max_size=6),
           st.sampled_from("CF"))
    @settings(max_examples=60, deadline=None)
    def test_any_partition_gives_the_same_bits(self, seed, rows, cols, outs, cuts, order):
        rng = np.random.default_rng(seed)
        layer = Dense(rng.normal(size=(outs, cols)), rng.normal(size=outs))
        x = np.asarray(rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, (rows, 1)),
                       order=order)
        whole = layer.apply(x)
        bounds = sorted({0, rows, *(c for c in cuts if c < rows)})
        parts = [layer.apply(x[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert whole.shape == (rows, outs)
        assert np.array_equal(np.vstack(parts) if parts else whole, whole)
        rowwise = [Dense(layer.weight, layer.bias).apply(x[k:k + 1]) for k in range(rows)]
        assert np.array_equal(np.vstack(rowwise) if rowwise else whole, whole)

    def test_whole_batch_of_an_mlp_equals_its_rows(self):
        # 300 rows of 784 inputs: more than one of the row blocks of 256 KiB of
        # slices (13 rows) or of input (41 rows) that dense layers once ran in
        rng = np.random.default_rng(3)
        dims = (784, 100, 100, 10)
        layers = []
        for a, b in zip(dims, dims[1:]):
            layers += [Dense(rng.normal(size=(b, a)) / a ** 0.5, rng.normal(size=b)), Relu()]
        model = NetworkModel((784,), 10, tuple(layers[:-1]))
        x = rng.normal(size=(300, 784))
        whole = forward(model, x)
        assert whole.tobytes() == np.vstack([forward(model, row) for row in x]).tobytes()
        mask = label_mask(model, {0, 3, 7})
        assert np.array_equal(indicative(model, x, mask), mask[predict(model, x)])

    def test_same_bits_at_any_blas_thread_count_and_cpu_set(self):
        src = os.path.dirname(os.path.dirname(nn.__file__))
        digests = set()
        for threads, cpus in (("1", "all"), ("2", "all"), ("2", "pinned")):
            if cpus == "pinned" and not hasattr(os, "sched_setaffinity"):
                continue
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", _FORWARD_DIGEST, cpus], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("rows,cols,outs", [(5, 784, 100), (2, 2304, 10), (36, 18, 10),
                                                (300, 40, 3), (4, 1, 6)])
    def test_accuracy_against_fsum(self, rng, rows, cols, outs):
        x = rng.normal(size=(rows, cols)) * rng.uniform(0.5, 4, size=(rows, 1))
        weight = rng.normal(size=(outs, cols)) / cols ** 0.5
        bias = rng.normal(size=outs)
        got = Dense(weight, bias).apply(x)
        err = np.abs(got - _exact_dense(x, weight, bias))
        assert (err <= _dense_error_bound(x, weight, bias)).all()

    def test_slice_pair_sums_are_exact_at_the_bound(self, rng):
        # positive entries just below 1: every slice-0 product is near 2**(2 bits)
        # units and the sums of n of them come within 2**53 units
        n = 1000
        x = 1.0 - rng.uniform(0, 2.0 ** -20, size=(4, n))
        weight = 1.0 - rng.uniform(0, 2.0 ** -20, size=(3, n))
        bits = nn._slice_bits(n)
        assert 2 * bits + math.ceil(math.log2(n)) <= 53
        xs, _ = nn._split(x, bits)
        ws, _ = nn._split(weight, bits)
        for i in range(3):
            for j in range(3 - i):
                exact = [[math.fsum(a * b) for b in ws[j]] for a in xs[i]]
                assert np.array_equal(xs[i] @ ws[j].T, exact), (i, j)

    def test_pairs_add_smallest_level_first(self, rng):
        # a reference from exact pair sums (math.fsum), added in the fixed
        # order (2,0) (1,1) (0,2) (1,0) (0,1) (0,0), scaled back, plus the bias.
        # In rows 10 to 15 against weight rows 0 to 5, the slice-0 products
        # cancel (1/2 times +1/2 and -1/2) and so nearly do the level-1 pairs,
        # so the order of every level-1 add shows in the bits
        n = 16
        bits = nn._slice_bits(n)
        x = rng.normal(size=(20, n)) * 10.0 ** rng.integers(-3, 4, (20, 1))
        fine = rng.uniform(0, 2.0 ** -(bits + 2), size=(6, n))
        x[10:16] = 0.5 + fine
        sign = np.where(np.arange(n) < n // 2, 1.0, -1.0)
        weight = sign * (0.5 - fine + rng.uniform(0, 2.0 ** -(2 * bits), size=(6, n)))
        bias = np.zeros(6)
        xs, ex = nn._split(x, bits)
        ws, ew = nn._split(weight, bits)
        want = np.empty((20, 6))
        for r in range(20):
            for o in range(6):
                pair = {(i, j): math.fsum(xs[i, r] * ws[j, o])
                        for i in range(3) for j in range(3 - i)}
                acc = pair[2, 0] + pair[1, 1]
                for key in ((0, 2), (1, 0), (0, 1), (0, 0)):
                    acc += pair[key]
                want[r, o] = math.ldexp(acc, int(ex[r] + ew[o])) + bias[o]
        assert np.array_equal(Dense(weight, bias).apply(x), want)

    def test_split_slices_are_exact_pieces_of_the_scaled_rows(self, rng):
        x = rng.normal(size=(6, 50)) * np.ldexp(1.0, rng.integers(-1000, 1000, (6, 1)))
        x[1] = 0.0
        bits = nn._slice_bits(50)
        slices, e = nn._split(x, bits)
        scaled = np.ldexp(x, -e[:, None])
        assert (np.abs(scaled) < 1).all()
        for i, s in enumerate(slices):
            unit = 2.0 ** (-(i + 1) * bits)
            assert np.array_equal(s / unit, np.round(s / unit))
            # slices 1 and 2 are at most half a unit of the slice before: so
            # the pairs (2,0), (1,1) and (0,2) are multiples of 2**-4bits
            # at most 2**52 of them, any two add exactly, and the order of the
            # first two adds in Dense.apply cannot show in the bits
            assert (np.abs(s) <= 2.0 ** (-i * bits) / (2 if i else 1)).all()
            # no slice is subnormal, so flush-to-zero in a BLAS cannot drop one
            assert (np.abs(s[s != 0]) >= 2.0 ** (-3 * bits)).all()
        rest = np.abs(scaled - slices[0] - slices[1] - slices[2])
        assert (rest <= 2.0 ** (-3 * bits - 1)).all()

    @pytest.mark.parametrize("k", [1000, -1000])
    def test_rows_near_two_to_the_1000(self, rng, k):
        # scaling a row by 2**k scales its output by 2**k exactly, at any k
        x = rng.normal(size=(5, 30))
        weight = rng.normal(size=(4, 30))
        zero = np.zeros(4)
        want = Dense(weight, zero).apply(x)
        big_x = Dense(np.ldexp(weight, -k), zero).apply(np.ldexp(x, k))
        big_w = Dense(np.ldexp(weight, k), zero).apply(np.ldexp(x, -k))
        assert np.array_equal(big_x, want) and np.array_equal(big_w, want)
        assert (np.abs(want - _exact_dense(x, weight, zero))
                <= _dense_error_bound(x, weight, zero)).all()

    def test_subnormal_rows(self):
        # rows whose largest entry is subnormal scale up exactly, so their
        # slices are normal and the few-bit products here sum exactly: the
        # output is the correctly rounded value, subnormal where it is
        tiny = 5e-324
        x = np.array([[tiny, 3 * tiny, -7 * tiny, 2.0 ** -1060],
                      [-2.0 ** -1040, 0.0, 2.0 ** -1050, tiny]])
        weight = np.array([[2.0 ** 1000, -2.0 ** 990, 3 * 2.0 ** 980, 2.0 ** 1010],
                           [0.5, 0.25, -1.0, 2.0]])
        bias = np.array([2.0 ** -60, 0.0])
        want = [[float(sum(Fraction(a) * Fraction(b) for a, b in zip(row, w)) + Fraction(c))
                 for w, c in zip(weight, bias)] for row in x]
        got = Dense(weight, bias).apply(x)
        assert np.array_equal(got, want)
        assert 0 < abs(got[1, 1]) < np.finfo(float).tiny

    def test_subnormals_beside_normal_values(self, rng):
        x = rng.normal(size=(3, 8))
        x[:, ::2] = 5e-324 * rng.integers(-9, 10, size=(3, 4))
        weight = np.ldexp(rng.normal(size=(4, 8)), rng.integers(-20, 20, size=(4, 8)))
        bias = rng.normal(size=4)
        got = Dense(weight, bias).apply(x)
        assert (np.abs(got - _exact_dense(x, weight, bias))
                <= _dense_error_bound(x, weight, bias)).all()

    def test_zero_rows_give_the_bias(self, rng):
        weight = rng.normal(size=(5, 9))
        weight[2] = 0.0
        bias = rng.normal(size=5)
        x = rng.normal(size=(4, 9))
        x[1], x[3] = 0.0, -0.0
        got = Dense(weight, bias).apply(x)
        for k in (1, 3):
            assert got[k].tobytes() == bias.tobytes()
        assert got[[0, 2], 2].tobytes() == bias[[2, 2]].tobytes()

    def test_empty_batch_and_one_column(self, rng):
        layer = Dense(rng.normal(size=(3, 7)), rng.normal(size=3))
        assert layer.apply(np.empty((0, 7))).shape == (0, 3)
        weight, bias = rng.normal(size=(3, 1)), rng.normal(size=3)
        x = rng.normal(size=(6, 1))
        got = Dense(weight, bias).apply(x)
        assert (np.abs(got - _exact_dense(x, weight, bias))
                <= _dense_error_bound(x, weight, bias)).all()
        assert np.array_equal(np.vstack([Dense(weight, bias).apply(r[None]) for r in x]), got)

    def test_weight_split_is_cached_on_first_apply_not_at_load(self, rng):
        model = load_model(dump_model(random_dense_model(rng, 6, 3)))
        dense = [layer for layer in model.layers if isinstance(layer, Dense)]
        assert all("_weight_split" not in vars(layer) for layer in dense)
        forward(model, rng.normal(size=(4, 6)))
        for layer in dense:
            wt, e, bits = vars(layer)["_weight_split"]
            fresh, fresh_e = nn._split(layer.weight, nn._slice_bits(layer.weight.shape[1]))
            assert bits == nn._slice_bits(layer.weight.shape[1])
            assert np.array_equal(wt, fresh.transpose(0, 2, 1)) and wt.flags.c_contiguous
            assert np.array_equal(e, fresh_e)
            assert layer._weight_split is vars(layer)["_weight_split"]
        # the fast path's bound terms: none at load or from forward, then a
        # few floats per dense layer, made on the first indicative call and
        # kept; indicative leaves no other attribute, so no array, on a layer
        assert all("_bound_terms" not in vars(layer) for layer in dense)
        before = [set(vars(layer)) for layer in dense]
        mask = label_mask(model, {0})
        indicative(model, rng.normal(size=(4, 6)), mask)
        terms = [vars(layer)["_bound_terms"] for layer in dense]
        for layer, kept, keys in zip(dense, terms, before):
            assert set(vars(layer)) - keys == {"_bound_terms"}
            assert all(type(v) is float for v in kept)
            assert kept[:2] == (np.abs(layer.weight).sum(axis=1).max(), np.abs(layer.bias).max())
        indicative(model, rng.normal(size=(5, 6)), mask)
        assert all(vars(layer)["_bound_terms"] is kept for layer, kept in zip(dense, terms))


class TestConvAndPoolSemantics:
    def _conv_reference(self, x, w, b, stride, pad):
        oc, ic, kh, kw = w.shape
        xp = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1])))
        oh = (xp.shape[1] - kh) // stride[0] + 1
        ow = (xp.shape[2] - kw) // stride[1] + 1
        out = np.zeros((oc, oh, ow))
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    window = xp[:, i * stride[0]:i * stride[0] + kh,
                                j * stride[1]:j * stride[1] + kw]
                    out[o, i, j] = (window * w[o]).sum() + b[o]
        return out

    def test_conv_against_naive_loops(self, rng):
        for stride, pad in [((1, 1), (0, 0)), ((2, 1), (1, 0)), ((2, 2), (1, 1))]:
            w = rng.normal(size=(3, 2, 3, 3))
            b = rng.normal(size=3)
            layer = Conv2d(w, b, stride, pad)
            x = rng.normal(size=(2, 7, 6))
            got = layer.apply(x[None])[0]
            want = self._conv_reference(x, w, b, stride, pad)
            assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def _broadcast_conv(layer, x):
        # the batch-first kernel Conv2d.apply replaced: bias, then + x*w for
        # (c, i, j) in lexicographic order, broadcast over rows and channels,
        # with the weight and bias cast to the dtype of x
        oc, ic, kh, kw = layer.weight.shape
        (ph, pw), (sh, sw) = layer.padding, layer.stride
        _, oh, ow = layer.out_shape(x.shape[1:])
        weight, bias = layer.weight.astype(x.dtype), layer.bias.astype(x.dtype)
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        out = np.broadcast_to(bias[None, :, None, None], (x.shape[0], oc, oh, ow)).copy()
        for c in range(ic):
            for i in range(kh):
                for j in range(kw):
                    patch = x[:, c, i:i + oh * sh:sh, j:j + ow * sw:sw]
                    out += patch[:, None, :, :] * weight[None, :, c, i, j, None, None]
        return out

    @pytest.mark.parametrize("stride,pad", [((1, 1), (0, 0)), ((2, 1), (1, 0)), ((2, 2), (1, 1))])
    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_conv_bitwise_equals_broadcast_kernel(self, rng, stride, pad, rows):
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), stride, pad)
        x = rng.normal(size=(rows, 2, 7, 6))
        assert np.array_equal(layer.apply(x), self._broadcast_conv(layer, x))

    @pytest.mark.parametrize("oc,side,rows", [
        # 14x14 output by 64 rows: 98 KiB a channel, tiles of 5 channels, last of 2
        (12, 16, 64),
        # 30x30 output by 80 rows: 563 KiB a channel, tiles of 27 output rows
        # of one channel, last of 3
        (2, 32, 80)])
    def test_conv_partial_tiles_bitwise_equal_broadcast_kernel(self, rng, oc, side, rows):
        layer = Conv2d(rng.normal(size=(oc, 2, 3, 3)), rng.normal(size=oc), (1, 1), (0, 0))
        x = rng.normal(size=(rows, 2, side, side))
        assert np.array_equal(layer.apply(x), self._broadcast_conv(layer, x))

    @pytest.mark.parametrize("stride,pad", [((1, 1), (0, 0)), ((2, 1), (1, 0)), ((2, 2), (1, 1))])
    @pytest.mark.parametrize("budget", [1, 2000])
    def test_conv_small_tiles_bitwise_equal_broadcast_kernel(self, rng, monkeypatch,
                                                            stride, pad, budget):
        # budget 1: one output row of one channel per tile; 2000 bytes: several
        # output rows of one channel, the last tile partial at strides (1, 1)
        # and (2, 1)
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", budget)
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), stride, pad)
        x = rng.normal(size=(7, 2, 11, 9))
        assert np.array_equal(layer.apply(x), self._broadcast_conv(layer, x))

    @staticmethod
    def _on_own_thread(fn):
        """fn() on a thread of its own, as a library caller might run it: a
        new thread starts from numpy's default errstate, not the caller's."""
        result, errors = [], []

        def target():
            try:
                result.append(fn())
            except BaseException as error:  # re-raised on the caller
                errors.append(error)

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "thread hung"
        if errors:
            raise errors[0]
        return result[0]

    @pytest.mark.parametrize("stride,pad", [((1, 1), (0, 0)), ((2, 1), (1, 0)), ((2, 2), (1, 1))])
    def test_multi_tile_conv_off_main_thread_bitwise_equal(self, rng, monkeypatch, stride, pad):
        # 2000 bytes: tiles of several output rows of one channel, the last
        # partial at strides (1, 1) and (2, 1)
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), stride, pad)
        x = rng.normal(size=(7, 2, 11, 9))
        got = self._on_own_thread(lambda: layer.apply(x))
        assert np.array_equal(got, layer.apply(x))
        assert np.array_equal(got, self._broadcast_conv(layer, x))

    def _float32_conv(self, monkeypatch, layer, x, budget, own_thread):
        """layer.apply(x) at a tile budget (None keeps the default), on the
        main thread or, with own_thread, on a thread of its own."""
        if budget is not None:
            monkeypatch.setattr(nn, "_CONV_TILE_BYTES", budget)
        got = self._on_own_thread(lambda: layer.apply(x)) if own_thread else layer.apply(x)
        assert got.dtype == np.float32
        return got

    @pytest.mark.parametrize("stride,pad", [((1, 1), (0, 0)), ((2, 1), (1, 0)), ((2, 2), (1, 1))])
    @pytest.mark.parametrize("budget,own_thread", [(1, False), (2000, False), (None, False),
                                                   (1, True), (2000, True)])
    def test_float32_conv_on_integers_equals_exact_conv(self, rng, monkeypatch,
                                                        stride, pad, budget, own_thread):
        # integers up to 8: every sum of 18 products and the bias is an
        # integer below 2**11, exact in float32 in any order.  3 rows of 2
        # channels of 11 x 4 make tiles of one output row at budget 1, of four
        # at 2000, the last partial, and of all at the default, so every tile
        # must write the exact values through its view of the output
        layer = Conv2d(rng.integers(-8, 9, size=(3, 2, 3, 3)).astype(float),
                       rng.integers(-8, 9, size=3).astype(float), stride, pad)
        x = rng.integers(-8, 9, size=(3, 2, 11, 4)).astype(np.float32)
        exact = layer.apply(x.astype(np.float64))
        assert np.array_equal(self._float32_conv(monkeypatch, layer, x, budget, own_thread),
                              exact)

    @pytest.mark.parametrize("stride,pad", [((1, 1), (0, 0)), ((2, 1), (1, 0)), ((2, 2), (1, 1))])
    @pytest.mark.parametrize("budget,own_thread", [(1, False), (2000, False), (None, False),
                                                   (1, True), (2000, True)])
    def test_float32_conv_within_its_bound(self, rng, monkeypatch, stride, pad, budget,
                                           own_thread):
        # the nn module docstring's conv term at d = 0: c S + under (1 + M),
        # S = max|b| + |W|_1 M, M = max|x|, k = 18
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), stride, pad)
        x = rng.normal(size=(3, 2, 11, 4)).astype(np.float32)
        exact = layer.apply(x.astype(np.float64))
        got = self._float32_conv(monkeypatch, layer, x, budget, own_thread)
        k, big = 18, float(np.abs(x).max())
        c = ((k + 2) * 2.0 ** -24 + (k + 1) * 2.0 ** -53) / (1 - (k + 1) * 2.0 ** -24)
        s = np.abs(layer.bias).max() + np.abs(layer.weight).sum(axis=(1, 2, 3)).max() * big
        assert np.abs(got - exact).max() <= c * s + (k + 1) * 2.0 ** -124 * (1 + big)

    def test_multi_tile_float64_conv_starts_no_thread(self):
        # a fresh interpreter, so no thread is left over from an earlier test;
        # tiles of 2000 bytes split the conv's output 20 x 9 by 7 rows
        src = os.path.dirname(os.path.dirname(nn.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _CONV_THREADS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        threads, bits = done.stdout.split()
        assert threads == "same"
        rng = np.random.default_rng(11)
        layer = Conv2d(rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4), (1, 1), (1, 1))
        x = rng.normal(size=(7, 2, 20, 9))
        assert bits == self._broadcast_conv(layer, x).tobytes().hex()

    def test_multi_tile_conv_overflow_raises_overflow_error(self, rng, monkeypatch):
        # every tile runs under forward's errstate(over="ignore"), or the
        # overflow surfaces as a RuntimeWarning turned error
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layers = (Conv2d(np.full((3, 1, 3, 3), 1e300), np.zeros(3), (1, 1), (0, 0)),
                  Flatten(), Dense(np.ones((2, 3 * 9 * 7)), np.zeros(2)))
        model = NetworkModel((1, 11, 9), 2, layers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="layer 0"):
                forward(model, np.full((7, 1, 11, 9), 1e10))

    def test_multi_tile_conv_overflow_off_main_thread_raises_overflow_error(self, monkeypatch):
        # forward sets its own errstate on whichever thread calls it
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layers = (Conv2d(np.full((3, 1, 3, 3), 1e300), np.zeros(3), (1, 1), (0, 0)),
                  Flatten(), Dense(np.ones((2, 3 * 9 * 7)), np.zeros(2)))
        model = NetworkModel((1, 11, 9), 2, layers)
        with pytest.raises(NumericOverflowError, match="layer 0"):
            self._on_own_thread(lambda: forward(model, np.full((7, 1, 11, 9), 1e10)))

    def test_multi_tile_conv_repeats_bitwise(self, rng, monkeypatch):
        # the tiles run in one fixed order: five runs give the same bits
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layer = Conv2d(rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4), (1, 1), (1, 1))
        x = rng.normal(size=(7, 2, 20, 9))
        want = self._broadcast_conv(layer, x)
        for _ in range(5):
            assert np.array_equal(layer.apply(x), want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with BLAS threads
    def test_convs_in_forked_child_equal_parents(self, rng, monkeypatch):
        # the parent has run both kernels, so the BLAS may hold threads the
        # child does not inherit; the child's float64 and float32 convs must
        # finish with the parent's bits
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), (1, 1), (0, 0))
        x = rng.normal(size=(7, 2, 11, 9))
        want, want32 = layer.apply(x), layer.apply(x.astype(np.float32))
        pid = os.fork()
        if pid == 0:  # child: exit without returning into pytest
            same = (np.array_equal(layer.apply(x), want)
                    and np.array_equal(layer.apply(x.astype(np.float32)), want32))
            os._exit(0 if same else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid, "child hung"
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_maxpool_values_come_from_window(self, rng):
        layer = MaxPool2d((2, 2), (2, 2))
        x = rng.normal(size=(1, 3, 6, 6))
        out = layer.apply(x)
        for i in range(3):
            for j in range(3):
                window = x[0, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert np.array_equal(out[0, :, i, j], window.max(axis=(1, 2)))

    def test_relu_semantics(self, rng):
        x = rng.normal(size=(4, 10))
        out = Relu().apply(x)
        assert (out >= 0).all()
        assert np.array_equal(out[x >= 0], x[x >= 0])

    def test_normalize_per_channel(self):
        layer = Normalize(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        x = np.ones((1, 2, 2, 2))
        out = layer.apply(x)
        assert np.array_equal(out[0, 0], np.full((2, 2), 0.0))
        assert np.array_equal(out[0, 1], np.full((2, 2), -0.25))


def first_label_indicator(model, batch):
    """indicative with omega = {0}: runs the fast pass."""
    return indicative(model, batch, label_mask(model, {0}))


def _first_layer_model(first: str) -> NetworkModel:
    """A model whose first layer is of the given kind, then a dense to 2 labels."""
    w = np.array([[1.0, -2.0, 0.5, 0.25], [-1.0, 0.5, 2.0, -0.75]])
    head = Dense(w, np.array([0.5, -0.5]))
    if first == "relu":
        return NetworkModel((4,), 2, (Relu(), head))
    if first == "maxpool2d":
        return NetworkModel((1, 4, 4), 2, (MaxPool2d((2, 2), (2, 2)), Flatten(), head))
    if first == "flatten":
        return NetworkModel((1, 2, 2), 2, (Flatten(), head))
    if first == "conv2d":
        conv = Conv2d(np.full((1, 1, 1, 1), 1.5), np.array([0.25]), (1, 1), (0, 0))
        return NetworkModel((1, 2, 2), 2, (conv, Flatten(), head))
    return NetworkModel((4,), 2, (Dense(np.eye(4), np.zeros(4)), head))


class TestForwardFiniteness:
    """Each case pins the layer that a check after every layer names."""

    @pytest.mark.parametrize("first,value,layer", [
        ("relu", math.inf, 0), ("relu", -math.inf, None), ("relu", math.nan, 0),
        ("maxpool2d", math.inf, 0), ("maxpool2d", -math.inf, None),
        ("maxpool2d", math.nan, 0),
        ("flatten", math.inf, 0), ("flatten", -math.inf, 0), ("flatten", math.nan, 0),
        ("dense", math.inf, 0), ("dense", -math.inf, 0), ("dense", math.nan, 0)])
    @pytest.mark.parametrize("where", [0, -1])
    def test_non_finite_input(self, first, value, layer, where):
        # one bad element among finite ones, in a 3-row batch; relu maps -inf
        # to 0 and a window's max passes over it, so those pass through
        model = _first_layer_model(first)
        x = np.linspace(-1.0, 1.0, 3 * math.prod(model.input_shape))
        x[where] = value
        x = x.reshape((3,) + model.input_shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if layer is None:
                assert np.isfinite(forward(model, x)).all()
            else:
                kind = model.layers[layer].kind
                with pytest.raises(NumericOverflowError,
                                   match=rf"after layer {layer} \({kind}\)"):
                    forward(model, x)

    def test_all_negative_infinity_window_is_reported(self):
        model = _first_layer_model("maxpool2d")
        x = np.zeros((2, 1, 4, 4))
        x[1, 0, :2, :2] = -math.inf
        with pytest.raises(NumericOverflowError, match=r"after layer 0 \(maxpool2d\)"):
            forward(model, x)

    @pytest.mark.parametrize("kind,run", [
        *(pytest.param(kind, forward, id=kind)
          for kind in ("dense", "conv2d", "normalize", "normalize-last")),
        *(pytest.param(kind, first_label_indicator, id=f"{kind}-indicative")
          for kind in ("dense", "conv2d", "normalize", "normalize-last"))])
    def test_overflow_inside_a_layer(self, kind, run):
        # finite input, relu first; the layer after it overflows
        if kind == "normalize-last":  # its output is the logits
            kind, shape = "normalize", (2,)
            layers = (Relu(), Normalize(np.zeros(2), np.array([1e-300, 1.0])))
        elif kind == "dense":
            layers = (Relu(), Dense(np.full((3, 4), 1e300), np.zeros(3)), Relu(),
                      Dense(np.ones((2, 3)), np.zeros(2)))
            shape = (4,)
        elif kind == "conv2d":
            layers = (Relu(), Conv2d(np.full((1, 1, 2, 2), 1e300), np.zeros(1), (1, 1), (0, 0)),
                      Flatten(), Dense(np.ones((2, 4)), np.zeros(2)))
            shape = (1, 3, 3)
        else:
            layers = (Relu(), Normalize(np.zeros(1), np.array([1e-300])), Flatten(),
                      Dense(np.ones((2, 4)), np.zeros(2)))
            shape = (1, 2, 2)
        model = NetworkModel(shape, 2, layers)
        x = np.full((3,) + shape, 1e10)
        x[0] = 1.0  # one finite row beside two that overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match=rf"after layer 1 \({kind}\)"):
                run(model, x)

    @pytest.mark.parametrize("run", [forward, first_label_indicator],
                             ids=["forward", "indicative"])
    def test_overflow_in_a_later_dense(self, run):
        # the first dense stays finite (1e160); the second overflows
        layers = (Dense(np.full((3, 4), 1e150), np.zeros(3)), Relu(), Flatten(),
                  Dense(np.full((2, 3), 1e200), np.zeros(2)))
        model = NetworkModel((4,), 2, layers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match=r"after layer 3 \(dense\)"):
                run(model, np.full((2, 4), 1e10))

    @pytest.mark.parametrize("rows_innermost", [False, True])
    def test_maxpool_is_the_max_over_window_offsets(self, rng, rows_innermost):
        # rows innermost: the batch-first view of (C, H, W, n) that conv2d returns
        layer = MaxPool2d((3, 2), (2, 1))
        x = rng.normal(size=(4, 2, 9, 7))
        if rows_innermost:
            x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        before = x.copy()
        want = np.max([x[:, :, i:i + 7:2, j:j + 6] for i in range(3) for j in range(2)], axis=0)
        assert np.array_equal(layer.apply(x), want)
        assert np.array_equal(x, before)  # the input is left as it was


class TestPredict:
    def test_argmax(self):
        model = dense_model([[1, 0], [0, 1]], [0, 0])
        assert predict(model, np.array([3.0, -1.0]))[0] == 0

    def test_tie_breaks_to_smallest_index(self):
        model = dense_model([[1, 0], [1, 0]], [0, 0])  # both logits equal x0
        assert predict(model, np.array([2.0, 5.0]))[0] == 0

    @given(st.floats(1e-6, 1e6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_invariant_under_positive_final_scaling(self, scale, seed):
        rng = np.random.default_rng(seed)
        model = random_dense_model(rng, 4, 3)
        final = model.layers[-1]
        scaled = NetworkModel(model.input_shape, model.num_labels,
                              model.layers[:-1] + (Dense(final.weight * scale,
                                                         final.bias * scale),))
        batch = rng.normal(size=(8, 4))
        assert np.array_equal(predict(model, batch), predict(scaled, batch))


class TestIndicative:
    model = dense_model(np.eye(4), np.zeros(4))

    def test_membership(self):
        x = np.array([0.0, 0.0, 0.0, 1.0])  # predicts 3
        for omega, want in (({3}, 1), ({1, 2}, 0), ({2, 3}, 1)):
            assert indicative(self.model, x, label_mask(self.model, omega))[0] == want

    # label_mask is the one omega validator; indicative takes its mask
    def test_empty_omega(self):
        with pytest.raises(ValueError, match="non-empty"):
            label_mask(self.model, set())

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="outside"):
            label_mask(self.model, {4})
        with pytest.raises(ValueError, match="outside"):
            label_mask(self.model, {-1})


def _spy_fallbacks(monkeypatch) -> list:
    """Batches that go through forward from now on: indicative's fall-backs."""
    batches = []
    whole = nn.forward

    def spy(model, batch):
        batches.append(np.array(batch))
        return whole(model, batch)

    monkeypatch.setattr(nn, "forward", spy)
    return batches


def _near_tie_model(rng, hidden=False, n=8) -> NetworkModel:
    """A dense over n integer inputs and one more input z: label 1 is label 0
    plus z, label 2 is label 0 minus 2**52.  With hidden, the dense makes
    s = w . x, z and -z, and a relu and a second dense make the labels of
    relu(s).  With inputs and weights below 2**24, every value is an integer
    below 2**53, so the logits are exact in any summation order."""
    weight = np.zeros((3, n + 1))
    weight[:, :n] = rng.integers(-2 ** 24, 2 ** 24, size=n)
    weight[1, n] = 1.0
    bias = np.array([0.0, 0.0, -2.0 ** 52])
    if not hidden:
        return NetworkModel((n + 1,), 3, (Dense(weight, bias),))
    weight[1:, :n], weight[2, n] = 0.0, -1.0
    head = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [1.0, 0.0, 0.0]])
    return NetworkModel((n + 1,), 3, (Dense(weight, np.zeros(3)), Relu(), Dense(head, bias)))


def _conv_near_tie_model(rng, convs, dense=True, n=8) -> NetworkModel:
    """A 1x1 conv from n integer inputs and one more input z to the channels
    s = w . x and z, with convs=2 then an identity 1x1 conv, and a head to
    label 0 = 2**10 s and label 1 = 2**10 s + 2**20 z: a dense after a
    flatten, or without dense a 1x1 conv before it.  With |x|, |w| below
    2**10 and z a multiple of 2**-8 below 2**7, every value is below 2**34
    and a multiple of 2**-8 or of 2**10 beyond 2**16, so it is exact in
    float32, in float64 and in forward, in any order."""
    weight = np.zeros((2, n + 1, 1, 1))
    weight[0, :n, 0, 0] = rng.integers(-2 ** 10, 2 ** 10, size=n)
    weight[1, n, 0, 0] = 1.0
    convs = [Conv2d(weight, np.zeros(2), (1, 1), (0, 0)),
             Conv2d(np.eye(2).reshape(2, 2, 1, 1), np.zeros(2), (1, 1), (0, 0))][:convs]
    head = np.array([[2.0 ** 10, 0.0], [2.0 ** 10, 2.0 ** 20]])
    if dense:
        return NetworkModel((n + 1, 1, 1), 2, (*convs, Flatten(), Dense(head, np.zeros(2))))
    head = Conv2d(head.reshape(2, 2, 1, 1), np.zeros(2), (1, 1), (0, 0))
    return NetworkModel((n + 1, 1, 1), 2, (*convs, head, Flatten()))


def _twice_the_bound(model, batch) -> Fraction:
    """2 d for a batch through a near-tie model, in exact rationals, by the nn
    module docstring.  From d = 0, per dense or 1x1 conv of k terms per
    output, M the batch's max|input|, |W|_1 its largest sum of |w| over an
    output and S = max|b| + |W|_1 (M + d), after d += u' M for the cast to
    float32 at the first conv, d += 2**-126 at every conv and d += 2**-1022
    at every dense,

        d <- |W|_1 d + c S + under (1 + M),

    with c = (k + 121) 2**-52 + 32 k 2**(-3 bits) and under = (3 k + 8) 2**-1022
    for a dense, c = ((k + 2) 2**-24 + (k + 1) 2**-53) / (1 - (k + 1) 2**-24)
    and under = (k + 1) 2**-124 for a conv.  Every value of these models is
    exact, so the fast values are forward's."""
    x = [[Fraction(v) for v in row.flat] for row in batch]
    d, float32 = Fraction(0), False
    for layer in model.layers:
        if layer.kind == "relu":
            x = [[max(v, 0) for v in row] for row in x]
        if layer.kind not in ("dense", "conv2d"):
            continue
        weight = [[Fraction(v) for v in w.flat] for w in layer.weight]
        bias = [Fraction(v) for v in layer.bias]
        k = len(weight[0])
        if layer.kind == "dense":
            c = Fraction(k + 121, 2 ** 52) + Fraction(32 * k, 2 ** (3 * nn._slice_bits(k)))
            under = Fraction(3 * k + 8, 2 ** 1022)
        else:
            c = (Fraction(k + 2, 2 ** 24) + Fraction(k + 1, 2 ** 53)) / (1 - Fraction(k + 1, 2 ** 24))
            under = Fraction(k + 1, 2 ** 124)
        big = max(abs(v) for row in x for v in row)
        if layer.kind == "conv2d":
            d += (0 if float32 else big / 2 ** 24) + Fraction(1, 2 ** 126)
            float32 = True
        else:
            d += Fraction(1, 2 ** 1022)
        wsum = max(sum(abs(v) for v in w) for w in weight)
        s = max(abs(b) for b in bias) + wsum * (big + d)
        d = wsum * d + c * s + under * (1 + big)
        x = [[sum(a * v for a, v in zip(row, w)) + b for w, b in zip(weight, bias)] for row in x]
    return 2 * d


class TestFastIndicative:
    """indicative takes labels from one fast pass and sends the rows its error
    bound cannot settle back through forward."""

    @pytest.mark.parametrize("ratio", [0.5, 0.98, 1.02, 1.5])
    @pytest.mark.parametrize("hidden", [False, True], ids=["dense", "dense-relu-dense"])
    def test_near_ties_fall_back_as_the_bound_says(self, rng, monkeypatch, hidden, ratio):
        # one batch, one d: the gap between labels 1 and 0 is |z| = ratio * 2 d,
        # a few hundred here
        model = _near_tie_model(rng, hidden)
        batch = np.zeros((12, 9))
        batch[:, :8] = rng.integers(-2 ** 24, 2 ** 24, size=(12, 8))
        z = ratio * _twice_the_bound(model, batch)
        batch[:, 8] = np.repeat([1, -1], 6) * (math.floor(z) if ratio < 1 else math.ceil(z))
        got_ratio = Fraction(batch[0, 8]) / _twice_the_bound(model, batch)
        assert abs(got_ratio - Fraction(ratio)) < Fraction(1, 100)
        assert (got_ratio < 1) == (ratio < 1)
        mask = label_mask(model, {1})
        fell_back = _spy_fallbacks(monkeypatch)
        got = indicative(model, batch, mask)
        monkeypatch.undo()
        assert np.array_equal(got, mask[np.argmax(forward(model, batch), axis=1)])
        assert np.array_equal(got, [1] * 6 + [0] * 6)
        if ratio < 1:  # inside the bound: every row re-runs through forward
            assert len(fell_back) == 1 and np.array_equal(fell_back[0], batch)
        else:
            assert fell_back == []

    @pytest.mark.parametrize("convs,dense", [(1, True), (2, True), (1, False)],
                             ids=["1", "2", "headless"])
    def test_conv_near_ties_fall_back_as_the_bound_says(self, rng, monkeypatch, convs, dense):
        # one batch, one d: the gap between labels 1 and 0 is 2**20 |z|,
        # z = ratio * 2 d / 2**20 (a few units here), rounded away from 1
        model = _conv_near_tie_model(rng, convs, dense)
        ratios = np.tile([0.5, 0.98, 1.02, 1.5], 6)
        signs = np.repeat([1, -1], 12)
        batch = np.zeros((24, 9, 1, 1))
        batch[:, :8, 0, 0] = rng.integers(-2 ** 10, 2 ** 10, size=(24, 8))
        limit = _twice_the_bound(model, batch)
        for r, ratio in enumerate(ratios):
            z = ratio * float(limit) / 2 ** 20 * 2 ** 8
            batch[r, 8] = signs[r] * (math.floor(z) if ratio < 1 else math.ceil(z)) / 2 ** 8
        limit = _twice_the_bound(model, batch)
        for r, ratio in enumerate(ratios):
            got_ratio = Fraction(abs(batch[r, 8, 0, 0])) * 2 ** 20 / limit
            assert abs(got_ratio - Fraction(ratio)) < Fraction(1, 100)
            assert (got_ratio < 1) == (ratio < 1)
        mask = label_mask(model, {1})
        fell_back = _spy_fallbacks(monkeypatch)
        got = indicative(model, batch, mask)
        monkeypatch.undo()
        assert np.array_equal(got, mask[np.argmax(forward(model, batch), axis=1)])
        assert np.array_equal(got, signs > 0)
        # inside the bound (ratio < 1): exactly those rows re-run through forward
        assert len(fell_back) == 1 and np.array_equal(fell_back[0], batch[ratios < 1])

    @pytest.mark.parametrize("w_scale,x_scale,whole", [
        (1.0, 1e39, True),  # finite, but beyond float32's range
        (1e30, 1.0, False),
        (1e30, 1e8, True),  # the conv's magnitude bound reaches 2**126
        (1.0, 1e-40, False),  # float32-subnormal inputs
        (1.0, 1e-46, False),  # inputs that flush to 0 in float32
        (1e-40, 1e30, False),  # weights float32-subnormal
        (1e-46, 1e30, False)])  # weights that flush to 0 in float32
    def test_conv_prefix_at_extreme_scales(self, rng, monkeypatch, w_scale, x_scale, whole):
        model = toy_conv_model(rng, num_labels=4)
        conv = model.layers[0]
        model = NetworkModel(model.input_shape, 4,
                             (Conv2d(conv.weight * w_scale, conv.bias, conv.stride, conv.padding),
                              *model.layers[1:]))
        batch = rng.normal(size=(40,) + model.input_shape) * x_scale
        mask = label_mask(model, {0, 2})
        fell_back = _spy_fallbacks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = indicative(model, batch, mask)
        monkeypatch.undo()
        assert np.array_equal(got, mask[predict(model, batch)])
        # the whole batch re-runs through forward, or no row does
        assert len(fell_back) == whole and all(np.array_equal(f, batch) for f in fell_back)

    def test_conv_prefix_runs_in_float32(self, rng, monkeypatch):
        # every array from the first conv to the first dense stays float32,
        # also after a normalize, which runs in float64; the cast weights are
        # made on the first fast call, not at load or by forward, and kept
        for lead in ((), (Normalize(np.array([0.5]), np.array([2.0])),)):
            layers = (*lead,
                      Conv2d(rng.normal(size=(3, 1, 3, 3)), rng.normal(size=3), (1, 1), (1, 1)),
                      Relu(),
                      Conv2d(rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2), (1, 1), (0, 0)),
                      Relu(), MaxPool2d((2, 2), (2, 2)), Flatten(),
                      Dense(rng.normal(size=(5, 18)), rng.normal(size=5)), Relu(),
                      Dense(rng.normal(size=(4, 5)), rng.normal(size=4)))
            model = load_model(dump_model(NetworkModel((1, 8, 8), 4, layers)))
            batch = rng.normal(size=(30, 1, 8, 8))
            mask = label_mask(model, {1, 2})
            forward(model, batch)
            convs = [layer for layer in model.layers if layer.kind == "conv2d"]
            assert not any("_float32_terms" in vars(conv) for conv in convs)
            seen = []
            for cls in (Conv2d, Relu, MaxPool2d, Flatten, Normalize):
                def spy(layer, x, apply=cls.apply):
                    out = apply(layer, x)
                    seen.append((layer.kind, x.dtype, out.dtype))
                    return out
                monkeypatch.setattr(cls, "apply", spy)
            got = indicative(model, batch, mask)
            monkeypatch.undo()
            assert np.array_equal(got, mask[predict(model, batch)])
            run = len(lead) + 6  # the layers before the first dense
            assert [kind for kind, _, _ in seen[:run]] == [layer.kind for layer in layers[:run]]
            want = [np.float64] * len(lead) + [np.float32] * 6
            assert [(x_dt, out_dt) for _, x_dt, out_dt in seen[:run]] == [(t, t) for t in want]
            kept = [vars(conv)["_float32_terms"] for conv in convs]
            indicative(model, batch, mask)
            assert all(vars(conv)["_float32_terms"] is terms for conv, terms in zip(convs, kept))

    def test_fast_pass_within_its_bound_of_forward(self, rng, monkeypatch):
        # tiles of 2000 bytes: the fast pass's sgemms and forward's float64
        # kernel each run several tiles
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layers = (Conv2d(rng.normal(size=(3, 1, 3, 3)), rng.normal(size=3), (1, 1), (1, 1)),
                  Relu(),
                  Conv2d(rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2), (1, 1), (0, 0)),
                  Relu(), MaxPool2d((2, 2), (2, 2)), Flatten(),
                  Dense(rng.normal(size=(4, 18)), rng.normal(size=4)))
        model = NetworkModel((1, 8, 8), 4, layers)
        batch = rng.normal(size=(30, 1, 8, 8))
        y, d = nn._fast(model, batch)
        assert np.abs(y - forward(model, batch)).max() <= d

    @pytest.mark.parametrize("kind", ["conv2d", "dense"])
    def test_normalize_after_a_weighted_layer_sends_the_batch_to_forward(
            self, rng, monkeypatch, kind):
        # normalize has no bound for d > 0
        if kind == "conv2d":
            layers = toy_conv_model(rng, num_labels=4).layers
            layers = layers[:1] + (Normalize(np.zeros(2), np.full(2, 0.5)),) + layers[1:]
            model = NetworkModel((1, 8, 8), 4, layers)
        else:
            model = random_dense_model(rng, 5, 4)
            model = NetworkModel((5,), 4, model.layers + (Normalize(np.zeros(4), np.ones(4)),))
        batch = rng.normal(size=(10,) + model.input_shape)
        mask = label_mask(model, {0, 3})
        fell_back = _spy_fallbacks(monkeypatch)
        got = indicative(model, batch, mask)
        monkeypatch.undo()
        assert np.array_equal(got, mask[predict(model, batch)])
        assert len(fell_back) == 1 and np.array_equal(fell_back[0], batch)

    def test_exact_ties_fall_back_to_the_first_label(self, rng, monkeypatch):
        model = _near_tie_model(rng)
        batch = np.column_stack([rng.integers(-2 ** 24, 2 ** 24, size=(5, 8)), np.zeros(5)])
        batch[1] = 0.0  # every logit but label 2's is 0
        fell_back = _spy_fallbacks(monkeypatch)
        got = indicative(model, batch, label_mask(model, {1}))
        assert np.array_equal(got, np.zeros(5)) and len(fell_back) == 1
        assert np.array_equal(fell_back[0], batch)

    def test_threshold_classifier_at_its_threshold(self, rng, monkeypatch):
        # 0 or a few ulps from the threshold: the logits tie or nearly tie
        model = threshold_classifier(6, 2, 0.3)
        batch = rng.normal(size=(9, 6))
        batch[:, 2] = 0.3 + np.arange(-4, 5) * 2.0 ** -54  # the ulp of 0.3
        mask = label_mask(model, {0})
        fell_back = _spy_fallbacks(monkeypatch)
        got = indicative(model, batch, mask)
        monkeypatch.undo()
        assert np.array_equal(got, mask[predict(model, batch)])
        assert np.array_equal(got, batch[:, 2] <= 0.3)
        # gaps of 2 k ulps, far inside the bound: every row re-runs
        assert len(fell_back) == 1 and np.array_equal(fell_back[0], batch)

    @given(seed=st.integers(0, 2 ** 32 - 1), vars_=st.integers(1, 5),
           clauses=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_gadget_at_its_threshold(self, seed, vars_, clauses):
        # inputs on a grid of quarters put the clause sum on m - 1/2, the
        # label boundary, for some rows
        rng = np.random.default_rng(seed)
        cnf = CnfFormula(vars_, tuple(
            tuple(int(v) * int(rng.choice([-1, 1]))
                  for v in rng.choice(np.arange(1, vars_ + 1), size=rng.integers(1, vars_ + 1),
                                      replace=False))
            for _ in range(clauses)))
        model = build_gadget(cnf)
        batch = rng.integers(0, 5, size=(64, vars_)) / 4.0
        mask = label_mask(model, {0})
        assert np.array_equal(indicative(model, batch, mask), mask[predict(model, batch)])

    @given(seed=st.integers(0, 2 ** 32 - 1),
           prefix=st.sampled_from(["", "conv", "normalize", "normalize-conv", "conv-normalize",
                                   "conv-only"]),
           rows=st.integers(0, 40), tie=st.booleans(), scale=st.sampled_from([1e-8, 1.0, 1e8]))
    @settings(max_examples=60, deadline=None)
    def test_equals_mask_of_predict(self, seed, prefix, rows, tie, scale):
        rng = np.random.default_rng(seed)
        if prefix == "normalize":
            layers = (Normalize(rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)),
                      Dense(rng.normal(size=(7, 5)), rng.normal(size=7)), Relu(), Flatten(),
                      Dense(rng.normal(size=(4, 7)), rng.normal(size=4)))
            model = NetworkModel((5,), 4, layers)
        elif prefix == "conv-only":  # the logits come from a conv
            layers = (Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), (1, 1), (0, 0)),
                      Relu(),
                      Conv2d(rng.normal(size=(4, 3, 2, 2)), rng.normal(size=4), (2, 2), (0, 0)),
                      Flatten())
            model = NetworkModel((2, 4, 4), 4, layers)
        elif prefix:
            layers = toy_conv_model(rng, num_labels=4).layers
            if prefix == "normalize-conv":
                layers = (Normalize(np.array([0.5]), np.array([2.0])),) + layers
            elif prefix == "conv-normalize":  # per channel
                channel = Normalize(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
                layers = layers[:1] + (channel,) + layers[1:]
            model = NetworkModel((1, 8, 8), 4, layers)
        else:
            model = random_dense_model(rng, 5, 4)
        if tie:  # labels 0 and 1 share their weights: forward ties them exactly
            idx = max(i for i, layer in enumerate(model.layers) if hasattr(layer, "weight"))
            last = model.layers[idx]
            weight, bias = last.weight.copy(), last.bias.copy()
            weight[1], bias[1] = weight[0], bias[0]
            layers = list(model.layers)
            layers[idx] = dataclasses.replace(last, weight=weight, bias=bias)
            model = NetworkModel(model.input_shape, 4, tuple(layers))
        batch = rng.normal(size=(rows,) + model.input_shape) * scale
        mask = label_mask(model, set(rng.choice(4, size=rng.integers(1, 4), replace=False)))
        got = indicative(model, batch, mask)
        assert got.dtype == mask.dtype
        assert np.array_equal(got, mask[predict(model, batch)])

    @pytest.mark.parametrize("conv", [False, True])
    def test_any_partition_gives_the_same_indicators(self, rng, conv):
        model = toy_conv_model(rng, 4) if conv else random_dense_model(rng, 6, 4)
        batch = rng.normal(size=(60,) + model.input_shape)
        mask = label_mask(model, {1, 3})
        whole = indicative(model, batch, mask)
        for _ in range(5):
            cuts = np.sort(rng.choice(np.arange(1, 60), size=rng.integers(1, 8), replace=False))
            parts = [indicative(model, part, mask) for part in np.split(batch, cuts)]
            assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("conv", [False, True])
    def test_empty_batch(self, rng, conv):
        model = toy_conv_model(rng, 4) if conv else random_dense_model(rng, 6, 4)
        mask = label_mask(model, {2})
        got = indicative(model, np.empty((0,) + model.input_shape), mask)
        assert got.shape == (0,) and got.dtype == mask.dtype

    @pytest.mark.parametrize("first", ["relu", "maxpool2d", "flatten", "dense", "conv2d"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_names_the_same_layer(self, first, value):
        model = _first_layer_model(first)
        x = np.linspace(-1.0, 1.0, 3 * math.prod(model.input_shape))
        x[1] = value
        x = x.reshape((3,) + model.input_shape)

        def outcome(run):
            try:
                return run(model, x), None
            except NumericOverflowError as exc:
                return None, str(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast, exact = outcome(first_label_indicator), outcome(forward)
        assert fast[1] == exact[1]
        if exact[1] is None:
            assert np.array_equal(fast[0], np.argmax(exact[0], axis=1) == 0)

    @pytest.mark.parametrize("first", ["maxpool2d", "flatten", "relu"])
    def test_non_finite_first_output_that_a_later_layer_drops(self, first):
        # forward refuses the first layer's -inf (or, for a model of one
        # relu, its inf) though a relu after it would map -inf to 0
        head = Dense(np.array([[1.0, -2.0, 0.5, 0.25], [-1.0, 0.5, 2.0, -0.75]]), np.zeros(2))
        if first == "maxpool2d":  # a whole window
            model = NetworkModel((1, 4, 4), 2,
                                 (MaxPool2d((2, 2), (2, 2)), Relu(), Flatten(), head))
            bad, value = (1, 0, slice(2), slice(2)), -math.inf
        elif first == "flatten":
            model = NetworkModel((1, 2, 2), 2, (Flatten(), Relu(), head))
            bad, value = (1, 0, 1, 0), -math.inf
        else:
            model = NetworkModel((2,), 2, (Relu(),))
            bad, value = (1, 0), math.inf
        x = np.ones((3,) + model.input_shape)
        x[bad] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match=rf"after layer 0 \({first}\)"):
                first_label_indicator(model, x)


W2 = np.eye(2)
W4 = np.ones((2, 1, 1, 1))


class TestLayerFields:
    """A layer built in code checks its fields as one read from a file does,
    and names the field at fault."""

    @pytest.mark.parametrize("build,field", [
        (lambda: Conv2d(W4, np.zeros(2), (0, 1)), "stride"),
        (lambda: Conv2d(W4, np.zeros(2), 1, -1), "padding"),
        (lambda: Conv2d(W4, np.zeros(2), True), "stride"),
        (lambda: Conv2d(W4, np.zeros(3)), "bias"),
        (lambda: Dense(np.ones(2), np.zeros(2)), "weight"),
        (lambda: Dense(W2, np.zeros(5)), "bias"),
        (lambda: Dense([[1.0, 0.0], [0.0]], [0.0, 0.0]), "weight"),
        (lambda: Dense(np.array([[1.0, math.nan], [0.0, 1.0]]), np.zeros(2)), "weight"),
        (lambda: MaxPool2d((0, 2)), "window"),
        (lambda: MaxPool2d((2, 2), (2, 1.5)), "stride"),
        (lambda: Normalize(np.zeros(2), np.array([1.0, 0.0])), "scale"),
        (lambda: Normalize(np.zeros((1, 2)), np.ones(2)), "mean"),
    ], ids=["conv stride 0", "conv padding -1", "conv stride True", "conv bias length",
            "1-D dense weight", "dense bias length", "ragged weight", "NaN weight",
            "pool window 0", "pool stride 1.5", "normalize scale 0", "2-D normalize mean"])
    def test_bad_field_raises_at_construction(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_list_weights_become_float64_arrays(self):
        layer = Dense([[1, 2], [3, 4]], [1, 1])
        assert layer.weight.dtype == np.float64 and layer.bias.dtype == np.float64
        assert np.array_equal(layer.apply(np.ones((1, 2))), [[4.0, 8.0]])

    def test_float64_arrays_are_kept_as_given(self):
        weight, bias = np.eye(3), np.zeros(3)
        layer = Dense(weight, bias)
        assert layer.weight is weight and layer.bias is bias

    def test_defaults_and_one_int_for_both(self):
        conv = Conv2d(W4, np.zeros(2))
        assert (conv.stride, conv.padding) == ((1, 1), (0, 0))
        conv = Conv2d(W4, np.zeros(2), 2, [1, 0])
        assert (conv.stride, conv.padding) == ((2, 2), (1, 0))
        assert MaxPool2d((3, 2)).stride == (3, 2)
        assert MaxPool2d(2, 1).window == (2, 2)

    def test_dump_writes_the_normalised_fields(self):
        model = NetworkModel((1, 4, 4), 2, (MaxPool2d(2), Flatten(), Dense(np.ones((2, 4)), [0, 0])))
        doc = json.loads(dump_model(model))
        assert doc["layers"][0] == {"kind": "maxpool2d", "window": [2, 2], "stride": [2, 2]}
        assert dump_model(load_model(dump_model(model))) == dump_model(model)


class TestNetworkModelFields:
    """A model built in code checks and normalises its own fields, so that
    forward and dump_model take it as they take one from a file."""

    @pytest.mark.parametrize("build,message", [
        (lambda: NetworkModel((2.0,), 2, (Dense(W2, np.zeros(2)),)), "input_shape"),
        (lambda: NetworkModel((True, 2), 2, (Flatten(), Dense(W2, np.zeros(2)))), "input_shape"),
        (lambda: NetworkModel((-2, -1), 2, (Flatten(), Dense(W2, np.zeros(2)))), "input_shape"),
        (lambda: NetworkModel(2, 2, (Dense(W2, np.zeros(2)),)), "input_shape"),
        (lambda: NetworkModel((), 2, (Dense(W2, np.zeros(2)),)), "input_shape"),
        (lambda: NetworkModel((2,), 2.0, (Dense(W2, np.zeros(2)),)), "num_labels"),
        (lambda: NetworkModel((2,), 2, Dense(W2, np.zeros(2))), "layers"),
        (lambda: NetworkModel((2,), 2, (None,)), "layers"),
    ], ids=["float dim", "bool dim", "negative dims", "int shape", "empty shape",
            "float labels", "bare layer", "None layer"])
    def test_bad_field_raises_at_construction(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_list_shape_and_layers_become_tuples(self):
        model = NetworkModel([2], 2, [Dense(W2, np.zeros(2))])
        assert model.input_shape == (2,) and type(model.input_shape) is tuple
        assert type(model.layers) is tuple
        assert np.array_equal(forward(model, [[3.0, -1.0]]), [[3.0, -1.0]])

    def test_numpy_integers_become_python_ints(self):
        model = NetworkModel((np.int64(2),), np.int64(2), (Dense(W2, np.zeros(2)),))
        assert [type(d) for d in model.input_shape] == [int] and type(model.num_labels) is int
        assert dump_model(load_model(dump_model(model))) == dump_model(model)


class TestModelFormat:
    def test_identity_file(self):
        doc = {"input_shape": [2], "num_labels": 2,
               "layers": [{"kind": "dense", "weight": [[1, 0], [0, 1]], "bias": [0, 0]}]}
        model = load_model(json.dumps(doc))
        assert model.num_labels == 2
        assert predict(model, np.array([1.0, -2.0]))[0] == 0

    def test_malformed_json(self):
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model("{not json")

    def test_layer_shape_mismatch_names_layer(self):
        doc = {"input_shape": [2], "num_labels": 2,
               "layers": [{"kind": "dense", "weight": [[1, 0], [0, 1], [1, 1]], "bias": [0, 0, 0]},
                          {"kind": "dense", "weight": [[1, 0], [0, 1]], "bias": [0, 0]}]}
        with pytest.raises(ShapeMismatchError, match="layer 1"):
            load_model(json.dumps(doc))

    def test_non_finite_weight(self):
        text = ('{"input_shape": [1], "num_labels": 2, "layers": '
                '[{"kind": "dense", "weight": [[1], [NaN]], "bias": [0, 0]}]}')
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(text)

    def test_negative_normalize_scale(self):
        doc = {"input_shape": [2], "num_labels": 2,
               "layers": [{"kind": "normalize", "mean": [0, 0], "scale": [1, -1]},
                          {"kind": "dense", "weight": [[1, 0], [0, 1]], "bias": [0, 0]}]}
        with pytest.raises(ModelFormatError, match="scale"):
            load_model(json.dumps(doc))

    def test_unknown_kind(self):
        doc = {"input_shape": [2], "num_labels": 2, "layers": [{"kind": "softmax"}]}
        with pytest.raises(ModelFormatError, match="unknown kind"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("shape,layers,key", [
        ([1, 1, 2], [{"kind": "conv2d", "weight": [[[[1.0]]], [[[1.0]]]], "bias": [0, 0],
                      "strides": 2}, {"kind": "flatten"},
                     {"kind": "dense", "weight": [[1, 0, 0, 0], [0, 0, 0, 1]], "bias": [0, 0]}],
         "strides"),
        ([2], [{"kind": "dense", "weight": [[1, 0], [0, 1]], "bias": [0, 0], "stride": -1}],
         "stride"),
        ([2], [{"kind": "relu", "Kind": "relu"},
               {"kind": "dense", "weight": [[1, 0], [0, 1]], "bias": [0, 0]}], "Kind"),
    ], ids=["conv strides", "dense stride", "relu Kind"])
    def test_unknown_layer_key_is_named(self, shape, layers, key):
        # once ignored: a conv with "strides": 2 loaded with stride 1
        doc = {"input_shape": shape, "num_labels": 2, "layers": layers}
        with pytest.raises(ModelFormatError, match=f"^layer 0: unknown field '{key}'$"):
            load_model(json.dumps(doc))
        # the same document without the key loads
        load_model(json.dumps({**doc, "layers": [{k: v for k, v in layers[0].items() if k != key},
                                                 *layers[1:]]}))

    def test_unknown_top_level_key_is_named(self):
        doc = {"input_shape": [2], "num_labels": 2, "extra": 1,
               "layers": [{"kind": "dense", "weight": [[1, 0], [0, 1]], "bias": [0, 0]}]}
        with pytest.raises(ModelFormatError, match="^top-level: unknown field 'extra'$"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("change,message", [
        ([1], "must be an object"),
        ({"input_shape": None}, "missing field 'input_shape'"),
        ({"num_labels": None}, "missing field 'num_labels'"),
        ({"layers": None}, "missing field 'layers'"),
        ({"extra": 1}, "unknown field 'extra'"),
        ({"input_shape": 2}, "input_shape must be a non-empty sequence of positive integers"),
        ({"input_shape": []}, "input_shape must be a non-empty sequence of positive integers"),
        ({"input_shape": [True, 2]},
         "input_shape must be a non-empty sequence of positive integers"),
        ({"input_shape": [2.0]}, "input_shape must be a non-empty sequence of positive integers"),
        ({"num_labels": True}, "num_labels must be an integer, got True"),
        ({"num_labels": 2.0}, "num_labels must be an integer, got 2.0"),
        ({"num_labels": 1}, "num_labels must be at least 2, got 1"),
        ({"layers": {}}, "layers must be a list"),
    ], ids=["not an object", "no input_shape", "no num_labels", "no layers", "unknown key",
            "int shape", "empty shape", "bool dim", "float dim", "bool labels",
            "float labels", "one label", "layers object"])
    def test_top_level_defect(self, change, message):
        doc = {"input_shape": [2], "num_labels": 2,
               "layers": [{"kind": "dense", "weight": [[1, 0], [0, 1]], "bias": [0, 0]}]}
        if isinstance(change, dict):  # None drops the key
            doc = {k: v for k, v in {**doc, **change}.items() if v is not None}
        else:
            doc = change
        with pytest.raises(ModelFormatError) as info:
            load_model(json.dumps(doc))
        assert isinstance(info.value, ValueError)
        assert str(info.value) == f"top-level: {message}"

    def test_bad_utf8_is_format_error(self):
        with pytest.raises(ModelFormatError) as info:
            load_model(b"\xff\xfe{}")
        assert str(info.value) == ("invalid JSON: 'utf-8' codec can't decode byte 0xff "
                                   "in position 0: invalid start byte")

    def test_leading_byte_order_mark_is_ignored(self, rng):
        text = dump_model(toy_conv_model(rng))
        assert dump_model(load_model(b"\xef\xbb\xbf" + text.encode())) == text
        assert dump_model(load_model(bytearray(b"\xef\xbb\xbf" + text.encode()))) == text

    def test_leading_byte_order_mark_in_a_str_is_ignored(self, rng):
        text = dump_model(toy_conv_model(rng))
        assert dump_model(load_model("\ufeff" + text)) == text
        # one mark, at the start only, as for bytes
        for prefix in (" \ufeff", "\ufeff\ufeff"):
            with pytest.raises(ModelFormatError, match="^invalid JSON: "):
                load_model(prefix + text)

    @pytest.mark.parametrize("prefix", [b" \xef\xbb\xbf", b"\xef\xbb\xbf\xef\xbb\xbf"],
                             ids=["after a space", "twice"])
    def test_byte_order_mark_after_the_start_is_format_error(self, prefix):
        with pytest.raises(ModelFormatError, match="^invalid JSON: "):
            load_model(prefix + b'{"input_shape": [1], "num_labels": 2, "layers": []}')

    def test_integer_too_long_to_read_is_format_error(self):
        # Python refuses to read an int of more than 4300 digits by default
        with pytest.raises(ModelFormatError, match="^invalid JSON: "):
            load_model('{"input_shape": [' + "1" * 5000 + '], "num_labels": 2, "layers": []}')

    @pytest.mark.parametrize("layer", [5, None, ["kind"]])
    def test_layer_must_be_object(self, layer):
        doc = {"input_shape": [2], "num_labels": 2, "layers": [layer]}
        with pytest.raises(ModelFormatError, match="layer 0: must be an object"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("field,doc", [
        ("input_shape", {"input_shape": [True, 2], "num_labels": 2,
                         "layers": [{"kind": "flatten"}]}),
        ("num_labels", {"input_shape": [2], "num_labels": True, "layers": []}),
        ("stride", {"input_shape": [1, 2, 2], "num_labels": 2,
                    "layers": [{"kind": "conv2d", "weight": [[[[1.0]]], [[[1.0]]]],
                                "bias": [0, 0], "stride": True}]}),
        ("padding", {"input_shape": [1, 2, 2], "num_labels": 2,
                     "layers": [{"kind": "conv2d", "weight": [[[[1.0]]], [[[1.0]]]],
                                 "bias": [0, 0], "padding": [0, False]}]}),
        ("window", {"input_shape": [1, 2, 2], "num_labels": 2,
                    "layers": [{"kind": "maxpool2d", "window": [True, 1]}]}),
    ])
    def test_boolean_is_not_an_integer(self, field, doc):
        with pytest.raises(ModelFormatError, match=field):
            load_model(json.dumps(doc))

    def test_deep_nesting_is_format_error(self):
        with pytest.raises(ModelFormatError, match="nested too deeply"):
            load_model("[" * 100_000 + "]" * 100_000)

    def test_min_two_labels(self):
        doc = {"input_shape": [1], "num_labels": 1,
               "layers": [{"kind": "dense", "weight": [[1]], "bias": [0]}]}
        with pytest.raises(ValueError, match="num_labels"):
            load_model(json.dumps(doc))

    def test_gadget_roundtrip(self):
        cnf = CnfFormula(3, ((1, -2), (2, 3), (-1, -3)))
        model = build_gadget(cnf)
        reloaded = load_model(dump_model(model))
        assert reloaded.input_shape == model.input_shape
        assert reloaded.num_labels == model.num_labels
        assert len(reloaded.layers) == len(model.layers)
        for a, b in zip(model.layers, reloaded.layers):
            assert type(a) is type(b)
            if isinstance(a, Dense):
                assert np.array_equal(a.weight, b.weight)
                assert np.array_equal(a.bias, b.bias)

    def test_conv_roundtrip(self, rng):
        model = toy_conv_model(rng)
        reloaded = load_model(dump_model(model))
        x = rng.normal(size=(2, 1, 8, 8))
        assert np.array_equal(forward(model, x), forward(reloaded, x))

    def test_flatten_and_pool_roundtrip_fields(self, rng):
        model = toy_conv_model(rng)
        doc = json.loads(dump_model(model))
        kinds = [layer["kind"] for layer in doc["layers"]]
        assert kinds == ["conv2d", "relu", "maxpool2d", "flatten", "dense"]
