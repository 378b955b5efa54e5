import json
import os
import signal
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

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

    @staticmethod
    def _column_dense(x, weight, bias):
        # the one-column-at-a-time kernel _dense_matmul replaced
        out = np.broadcast_to(bias, (x.shape[0], bias.size)).copy()
        for j in range(x.shape[1]):
            out += x[:, j, None] * weight[:, j]
        return out

    @pytest.mark.parametrize("rows,cols,outs", [(0, 5, 3), (1, 2304, 10), (7, 784, 100),
                                                (36, 18, 10), (300, 40, 120)])
    def test_blocked_dense_bitwise_equals_column_loop(self, rng, rows, cols, outs):
        x, w, b = rng.normal(size=(rows, cols)), rng.normal(size=(outs, cols)), rng.normal(size=outs)
        assert np.array_equal(nn._dense_matmul(x, w, b), self._column_dense(x, w, b))

    @pytest.mark.parametrize("budget", [1, 5 * 3 * 4 * 8])
    def test_dense_partial_last_block_bitwise_equals_column_loop(self, rng, monkeypatch, budget):
        # 3 rows by 4 outputs: one column a block, or blocks of 5, 5 and 3
        monkeypatch.setattr(nn, "_DENSE_BLOCK_BYTES", budget)
        x, w, b = rng.normal(size=(3, 13)), rng.normal(size=(4, 13)), rng.normal(size=4)
        # a transposed view, as a flatten of a rows-innermost conv output gives
        xf = np.asfortranarray(x)
        want = self._column_dense(x, w, b)
        assert np.array_equal(nn._dense_matmul(x, w, b), want)
        assert np.array_equal(nn._dense_matmul(xf, w, b), want)

    def test_conv_model_logits_are_c_contiguous(self, rng):
        # conv layers return batch-first views of a rows-innermost array
        logits = forward(toy_conv_model(rng), rng.normal(size=(9, 1, 8, 8)))
        assert logits.shape == (9, 10) and logits.flags.c_contiguous


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
        # (c, i, j) in lexicographic order, broadcast over rows and channels
        oc, ic, kh, kw = layer.weight.shape
        (ph, pw), (sh, sw) = layer.padding, layer.stride
        _, oh, ow = layer.out_shape(x.shape[1:])
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        out = np.broadcast_to(layer.bias[None, :, None, None], (x.shape[0], oc, oh, ow)).copy()
        for c in range(ic):
            for i in range(kh):
                for j in range(kw):
                    patch = x[:, c, i:i + oh * sh:sh, j:j + ow * sw:sw]
                    out += patch[:, None, :, :] * layer.weight[None, :, c, i, j, None, None]
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
    def _eager_pool(monkeypatch, cpus=2):
        # the pool's worker drains the shared tile iterator before submit
        # returns, so it computes every tile, under its own thread's errstate
        class EagerPool(ThreadPoolExecutor):
            submits = 0

            def submit(self, fn, /, *args, **kwargs):
                EagerPool.submits += 1
                future = super().submit(fn, *args, **kwargs)
                future.exception()  # waits for the share to finish
                return future

        pool = EagerPool(cpus - 1)
        monkeypatch.setattr(nn, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(nn, "_tile_pool", pool)
        return pool

    @pytest.mark.parametrize("stride,pad", [((1, 1), (0, 0)), ((2, 1), (1, 0)), ((2, 2), (1, 1))])
    def test_conv_tiles_on_pool_worker_bitwise_equal_inline(self, rng, monkeypatch, stride, pad):
        # 2000 bytes: tiles of several output rows of one channel, the last
        # partial at strides (1, 1) and (2, 1)
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), stride, pad)
        x = rng.normal(size=(7, 2, 11, 9))
        monkeypatch.setattr(nn, "_usable_cpus", lambda: 1)
        inline = layer.apply(x)
        pool = self._eager_pool(monkeypatch)
        try:
            pooled = layer.apply(x)
        finally:
            pool.shutdown()
        assert pool.submits == 1
        assert np.array_equal(pooled, inline)
        assert np.array_equal(pooled, self._broadcast_conv(layer, x))

    def test_conv_tiles_shared_by_main_thread_and_pool(self, rng, monkeypatch):
        # a real pool of two workers, created on first use; which thread takes
        # which tile varies from run to run, the bits do not
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        monkeypatch.setattr(nn, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(nn, "_tile_pool", None)
        layer = Conv2d(rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4), (1, 1), (1, 1))
        x = rng.normal(size=(7, 2, 20, 9))
        try:
            for _ in range(5):
                assert np.array_equal(layer.apply(x), self._broadcast_conv(layer, x))
        finally:
            nn._tile_pool.shutdown()

    def test_conv_overflow_on_pool_worker_raises_overflow_error(self, rng, monkeypatch):
        # the worker must run its tiles under forward's errstate(over="ignore"),
        # or the overflow surfaces as a RuntimeWarning turned error
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layers = (Conv2d(np.full((3, 1, 3, 3), 1e300), np.zeros(3), (1, 1), (0, 0)),
                  Flatten(), Dense(np.ones((2, 3 * 9 * 7)), np.zeros(2)))
        model = NetworkModel((1, 11, 9), 2, layers)
        pool = self._eager_pool(monkeypatch)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericOverflowError, match="layer 0"):
                    forward(model, np.full((7, 1, 11, 9), 1e10))
        finally:
            pool.shutdown()
        assert pool.submits == 1

    def test_conv_off_main_thread_runs_inline(self, rng, monkeypatch):
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), (2, 1), (1, 0))
        x = rng.normal(size=(7, 2, 11, 9))
        pool = self._eager_pool(monkeypatch)
        result = []
        thread = threading.Thread(target=lambda: result.append(layer.apply(x)))
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            pool.shutdown()
        assert not thread.is_alive() and len(result) == 1
        assert pool.submits == 0
        assert np.array_equal(result[0], self._broadcast_conv(layer, x))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads
    def test_conv_in_forked_child_does_not_wait_on_parents_pool(self, rng, monkeypatch):
        # the child inherits the pool object but none of its worker threads
        monkeypatch.setattr(nn, "_CONV_TILE_BYTES", 2000)
        monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(nn, "_tile_pool", None)
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), (1, 1), (0, 0))
        x = rng.normal(size=(7, 2, 11, 9))
        want = layer.apply(x)
        try:
            pid = os.fork()
            if pid == 0:  # child: exit without returning into pytest
                os._exit(0 if np.array_equal(layer.apply(x), want) else 1)
            deadline = time.monotonic() + 30
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            if done[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            nn._tile_pool.shutdown()
        assert done[0] == pid, "child hung"
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_run_tiles_runs_each_tile_once_under_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(nn, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(nn, "_tile_pool", None)
        seen, lock = [], threading.Lock()

        def run(tiles):
            for tile in tiles:
                time.sleep(0.001)
                with lock:
                    seen.append((tile, np.geterr()["over"]))

        try:
            with np.errstate(over="ignore"):
                nn._run_tiles(run, list(range(40)))
        finally:
            nn._tile_pool.shutdown()
        assert sorted(tile for tile, _ in seen) == list(range(40))
        assert {over for _, over in seen} == {"ignore"}

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


class TestMaddsPerRow:
    def test_dense_counts_weights(self, rng):
        # 5 -> 8 -> 3: 5*8 + 8*3 multiply-adds, relu none
        assert nn.madds_per_row(random_dense_model(rng, 5, 3)) == 64

    def test_conv_counts_weights_per_output_pixel(self, rng):
        # (2, 9, 7) -> conv 4x2x3x3, stride (2, 1), padding (1, 0) -> (4, 5, 5)
        # -> pool 2 -> (4, 2, 2) -> dense 16 -> 3
        conv = Conv2d(rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4), (2, 1), (1, 0))
        model = NetworkModel((2, 9, 7), 3, (
            conv, Relu(), MaxPool2d((2, 2), (2, 2)), Flatten(),
            Dense(rng.normal(size=(3, 16)), rng.normal(size=3))))
        assert conv.out_shape((2, 9, 7)) == (4, 5, 5)
        assert nn.madds_per_row(model) == 4 * 2 * 3 * 3 * 5 * 5 + 3 * 16


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
