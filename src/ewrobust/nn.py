"""Minimal deterministic feed-forward inference.

Six layer kinds (dense, relu, conv2d, maxpool2d, flatten, normalize) over
float64 numpy arrays, plus a JSON model format.  All affine reductions use an
explicit fixed accumulation order so a batch of k rows is bitwise identical
to k single-row passes regardless of how callers batch their inputs.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class ModelError(Exception):
    """Base class for model construction / execution failures."""


class ModelFormatError(ModelError):
    """Malformed model file."""


class ShapeMismatchError(ModelError):
    """Incompatible shapes between consecutive layers or model and input."""


class NumericOverflowError(ModelError):
    """A forward pass produced a non-finite intermediate value."""


def tensor(data, shape=None) -> np.ndarray:
    """Validated float64 tensor: finite everywhere, size matching shape."""
    arr = np.asarray(data, dtype=np.float64)
    if shape is not None:
        shape = tuple(int(d) for d in shape)
        if any(d <= 0 for d in shape):
            raise ValueError(f"dimensions must be positive, got {shape}")
        if arr.size != math.prod(shape):
            raise ValueError(f"data length {arr.size} does not match shape {shape}")
        arr = arr.reshape(shape)
    if not np.isfinite(arr).all():
        raise ValueError("tensor contains non-finite values")
    return arr


# bytes of the products of one block of dense input columns
_DENSE_BLOCK_BYTES = 256 * 1024


def _dense_matmul(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    # fixed left-to-right accumulation over the input dimension: bitwise
    # independent of batch size (BLAS kernels are not).  The products of a
    # block of input columns come from one multiply, with contiguous operand
    # rows; the sums stay in j order.
    rows, cols = x.shape
    out = np.broadcast_to(bias, (rows, bias.size)).copy()
    block = min(cols, max(1, _DENSE_BLOCK_BYTES // max(1, out.nbytes)))
    prod = np.empty((block, rows, bias.size))
    xt = np.ascontiguousarray(x.T)[:, :, None]
    wt = np.ascontiguousarray(weight.T)[:, None, :]
    for j0 in range(0, cols, block):
        p = prod[:min(block, cols - j0)]
        np.multiply(xt[j0:j0 + len(p)], wt[j0:j0 + len(p)], out=p)
        for pj in p:
            out += pj
    return out


@dataclass(frozen=True)
class Dense:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)
    kind = "dense"

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.weight.shape[1]:
            raise ShapeMismatchError(
                f"dense expects flat input of size {self.weight.shape[1]}, got {in_shape}")
        return (self.weight.shape[0],)

    def apply(self, x):
        return _dense_matmul(x, self.weight, self.bias)


@dataclass(frozen=True)
class Relu:
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def apply(self, x):
        return np.maximum(x, 0.0)


# bytes of one conv2d accumulator tile; large batches step fewer output
# channels and rows at a time so the tile and its temporary stay in cache
_CONV_TILE_BYTES = 512 * 1024

_tile_pool: ThreadPoolExecutor | None = None


def _forget_tile_pool() -> None:
    global _tile_pool
    _tile_pool = None  # a forked child has none of the parent's workers


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_tile_pool)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_tiles(run, tiles) -> None:
    """run(tiles) on the caller and the workers of one process-wide pool,
    created on first use with a worker per usable CPU but the caller's.  Each
    takes the next tile from one shared iterator until none is left.  A single
    tile, a single CPU or a caller other than the main thread (a query thread
    of curve/radii, or a tile worker) runs every tile inline, so pools never
    nest."""
    global _tile_pool
    cpus = _usable_cpus()
    helpers = min(len(tiles), cpus) - 1
    if helpers < 1 or threading.current_thread() is not threading.main_thread():
        run(tiles)
        return
    if _tile_pool is None:  # only the main thread gets here
        _tile_pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="conv-tile")
    errstate = np.geterr()  # thread-local: a worker starts from numpy's defaults
    shared = iter(tiles)  # next() on a list iterator is atomic under the GIL

    def helper():
        with np.errstate(**errstate):
            run(shared)

    futures = [_tile_pool.submit(helper) for _ in range(helpers)]
    try:
        run(shared)
    finally:
        for future in futures:
            future.result()


@dataclass(frozen=True)
class Conv2d:
    weight: np.ndarray  # (out_ch, in_ch, kh, kw)
    bias: np.ndarray    # (out_ch,)
    stride: tuple[int, int]
    padding: tuple[int, int]
    kind = "conv2d"

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.weight.shape[1]:
            raise ShapeMismatchError(
                f"conv2d expects (C={self.weight.shape[1]}, H, W) input, got {in_shape}")
        _, h, w = in_shape
        kh, kw = self.weight.shape[2:]
        ph, pw = self.padding
        sh, sw = self.stride
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        if oh <= 0 or ow <= 0:
            raise ShapeMismatchError(f"conv2d kernel does not fit input {in_shape}")
        return (self.weight.shape[0], oh, ow)

    def apply(self, x):
        # rows innermost: the input is laid out (C, H, W, n) and the output
        # (oc, oh, ow, n), returned as a batch-first transposed view.  Each
        # output element is bias, then + x*w for (c, i, j) in lexicographic
        # order, two roundings per step, as for any other batch size or tiling.
        oc, ic, kh, kw = self.weight.shape
        ph, pw = self.padding
        sh, sw = self.stride
        _, oh, ow = self.out_shape(x.shape[1:])
        n, _, h, w = x.shape
        if ph or pw:
            xt = np.zeros((ic, h + 2 * ph, w + 2 * pw, n))
            xt[:, ph:ph + h, pw:pw + w] = x.transpose(1, 2, 3, 0)
        else:  # no copy when x is the view a conv or relu returned
            xt = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
        weight = self.weight.transpose(1, 2, 3, 0)  # (ic, kh, kw, oc)
        # tiles of output rows and channels whose accumulator fits the cache
        # budget: all rows of as many channels as fit, else as many rows of one
        row_bytes = max(1, ow * n * 8)  # an empty batch takes one tile
        rows = min(oh, max(1, _CONV_TILE_BYTES // row_bytes))
        block = min(oc, max(1, _CONV_TILE_BYTES // (rows * row_bytes)))
        out = np.empty((oc, oh, ow, n))

        def run(tiles):  # disjoint tiles of out, one temporary per share
            tmp = np.empty((block, rows, ow, n))
            for o, r in tiles:
                acc = out[o:o + block, r:r + rows]
                prod = tmp[:acc.shape[0], :acc.shape[1]]
                acc[...] = self.bias[o:o + block, None, None, None]
                top, bottom = r * sh, (r + acc.shape[1]) * sh
                for c in range(ic):
                    for i in range(kh):
                        for j in range(kw):
                            slab = xt[c, top + i:bottom + i:sh, j:j + ow * sw:sw]
                            np.multiply(weight[c, i, j, o:o + block, None, None, None],
                                        slab, out=prod)
                            acc += prod

        _run_tiles(run, [(o, r) for o in range(0, oc, block) for r in range(0, oh, rows)])
        return out.transpose(3, 0, 1, 2)


@dataclass(frozen=True)
class MaxPool2d:
    window: tuple[int, int]
    stride: tuple[int, int]
    kind = "maxpool2d"

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError(f"maxpool2d expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        oh = (h - self.window[0]) // self.stride[0] + 1
        ow = (w - self.window[1]) // self.stride[1] + 1
        if oh <= 0 or ow <= 0:
            raise ShapeMismatchError(f"maxpool2d window does not fit input {in_shape}")
        return (c, oh, ow)

    def apply(self, x):
        _, oh, ow = self.out_shape(x.shape[1:])
        sh, sw = self.stride
        out = None
        for i in range(self.window[0]):
            for j in range(self.window[1]):
                patch = x[:, :, i:i + oh * sh:sh, j:j + ow * sw:sw]
                # order="K" keeps the memory layout of x (rows innermost after a conv)
                out = patch.copy(order="K") if out is None else np.maximum(out, patch)
        return out


@dataclass(frozen=True)
class Flatten:
    kind = "flatten"

    def out_shape(self, in_shape):
        return (math.prod(in_shape),)

    def apply(self, x):
        return x.reshape(x.shape[0], -1)


@dataclass(frozen=True)
class Normalize:
    mean: np.ndarray
    scale: np.ndarray
    kind = "normalize"

    def _broadcast(self, arr, in_shape):
        if arr.size == math.prod(in_shape):
            return arr.reshape(in_shape)
        if arr.size == in_shape[0]:  # per-channel
            return arr.reshape((in_shape[0],) + (1,) * (len(in_shape) - 1))
        raise ShapeMismatchError(
            f"normalize parameters of size {arr.size} do not fit input {in_shape}")

    def out_shape(self, in_shape):
        self._broadcast(self.mean, in_shape)
        self._broadcast(self.scale, in_shape)
        return in_shape

    def apply(self, x):
        in_shape = x.shape[1:]
        return (x - self._broadcast(self.mean, in_shape)) / self._broadcast(self.scale, in_shape)


LayerSpec = Dense | Relu | Conv2d | MaxPool2d | Flatten | Normalize


@dataclass(frozen=True)
class NetworkModel:
    """Immutable classifier: ordered layers mapping input_shape to num_labels
    logits.  Shape-checked at construction."""
    input_shape: tuple[int, ...]
    num_labels: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if self.num_labels < 2:
            raise ValueError(f"num_labels must be at least 2, got {self.num_labels}")
        shape = self.input_shape
        for idx, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except ShapeMismatchError as exc:
                raise ShapeMismatchError(f"layer {idx} ({layer.kind}): {exc}") from None
        if shape != (self.num_labels,):
            raise ShapeMismatchError(
                f"network output shape {shape} does not match num_labels={self.num_labels}")


def forward(model: NetworkModel, batch: np.ndarray) -> np.ndarray:
    """Logits of shape (batch, num_labels); raises on shape mismatch or
    non-finite intermediates."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == len(model.input_shape):  # single row convenience
        batch = batch[None]
    if batch.shape[1:] != model.input_shape:
        raise ShapeMismatchError(
            f"input shape {batch.shape[1:]} does not match model input {model.input_shape}")
    x = batch
    # overflow surfaces as the NumericOverflowError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, layer in enumerate(model.layers):
            x = layer.apply(x)
            if not np.isfinite(x).all():
                raise NumericOverflowError(
                    f"non-finite value after layer {idx} ({layer.kind})")
    return x


def predict(model: NetworkModel, batch: np.ndarray) -> np.ndarray:
    """Argmax labels per row; ties broken toward the smallest index."""
    return np.argmax(forward(model, batch), axis=1)


def indicative(model: NetworkModel, batch: np.ndarray, omega) -> np.ndarray:
    """1 where the predicted label lies in omega, else 0 (per row)."""
    omega = frozenset(int(l) for l in omega)
    if not omega:
        raise ValueError("omega must be non-empty")
    if any(l < 0 or l >= model.num_labels for l in omega):
        raise ValueError(f"omega {sorted(omega)} contains labels outside "
                         f"[0, {model.num_labels})")
    labels = predict(model, batch)
    mask = np.zeros(model.num_labels, dtype=np.int64)
    mask[list(omega)] = 1
    return mask[labels]


# --- JSON model format ------------------------------------------------------
#
# {"input_shape": [...], "num_labels": m,
#  "layers": [{"kind": "dense", "weight": [[...]], "bias": [...]}, ...]}
#
# Weights are nested row-major lists.  Intended for desk-scale models; the
# format is plain text and grows ~20 bytes per parameter.

def _req(obj, key, layer_idx):
    if key not in obj:
        raise ModelFormatError(f"layer {layer_idx}: missing field {key!r}")
    return obj[key]


def _finite_param(values, layer_idx, name, shape=None):
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ModelFormatError(f"layer {layer_idx}: field {name!r} is not numeric") from None
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"layer {layer_idx}: non-finite value in {name!r}")
    if shape is not None and arr.ndim != shape:
        raise ModelFormatError(
            f"layer {layer_idx}: field {name!r} must have {shape} dimensions")
    return arr


def _pair(values, layer_idx, name):
    if isinstance(values, int):
        return (values, values)
    if (not isinstance(values, (list, tuple)) or len(values) != 2
            or not all(isinstance(v, int) and v >= 0 for v in values)):
        raise ModelFormatError(f"layer {layer_idx}: field {name!r} must be two integers")
    return tuple(values)


def _layer_from_json(obj, idx) -> LayerSpec:
    kind = _req(obj, "kind", idx)
    if kind == "dense":
        w = _finite_param(_req(obj, "weight", idx), idx, "weight", shape=2)
        b = _finite_param(_req(obj, "bias", idx), idx, "bias", shape=1)
        if w.shape[0] != b.shape[0]:
            raise ModelFormatError(
                f"layer {idx}: bias length {b.shape[0]} != weight rows {w.shape[0]}")
        return Dense(w, b)
    if kind == "relu":
        return Relu()
    if kind == "conv2d":
        w = _finite_param(_req(obj, "weight", idx), idx, "weight", shape=4)
        b = _finite_param(_req(obj, "bias", idx), idx, "bias", shape=1)
        if w.shape[0] != b.shape[0]:
            raise ModelFormatError(
                f"layer {idx}: bias length {b.shape[0]} != out channels {w.shape[0]}")
        stride = _pair(obj.get("stride", 1), idx, "stride")
        padding = _pair(obj.get("padding", 0), idx, "padding")
        if min(stride) < 1:
            raise ModelFormatError(f"layer {idx}: stride must be >= 1")
        return Conv2d(w, b, stride, padding)
    if kind == "maxpool2d":
        window = _pair(_req(obj, "window", idx), idx, "window")
        stride = _pair(obj.get("stride", list(window)), idx, "stride")
        if min(window) < 1 or min(stride) < 1:
            raise ModelFormatError(f"layer {idx}: window and stride must be >= 1")
        return MaxPool2d(window, stride)
    if kind == "flatten":
        return Flatten()
    if kind == "normalize":
        mean = _finite_param(_req(obj, "mean", idx), idx, "mean", shape=1)
        scale = _finite_param(_req(obj, "scale", idx), idx, "scale", shape=1)
        if (scale <= 0).any():
            raise ModelFormatError(f"layer {idx}: normalize scale must be strictly positive")
        return Normalize(mean, scale)
    raise ModelFormatError(f"layer {idx}: unknown kind {kind!r}")


def _layer_to_json(layer: LayerSpec) -> dict:
    if isinstance(layer, Dense):
        return {"kind": "dense", "weight": layer.weight.tolist(), "bias": layer.bias.tolist()}
    if isinstance(layer, Relu):
        return {"kind": "relu"}
    if isinstance(layer, Conv2d):
        return {"kind": "conv2d", "weight": layer.weight.tolist(), "bias": layer.bias.tolist(),
                "stride": list(layer.stride), "padding": list(layer.padding)}
    if isinstance(layer, MaxPool2d):
        return {"kind": "maxpool2d", "window": list(layer.window), "stride": list(layer.stride)}
    if isinstance(layer, Flatten):
        return {"kind": "flatten"}
    if isinstance(layer, Normalize):
        return {"kind": "normalize", "mean": layer.mean.tolist(), "scale": layer.scale.tolist()}
    raise TypeError(f"unknown layer type {type(layer)!r}")


def load_model(text: str | bytes) -> NetworkModel:
    """Parse and shape-check a model document."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level value must be an object")
    for key in ("input_shape", "num_labels", "layers"):
        if key not in doc:
            raise ModelFormatError(f"missing top-level field {key!r}")
    shape = doc["input_shape"]
    if (not isinstance(shape, list) or not shape
            or not all(isinstance(d, int) and d > 0 for d in shape)):
        raise ModelFormatError("input_shape must be a non-empty list of positive integers")
    if not isinstance(doc["num_labels"], int):
        raise ModelFormatError("num_labels must be an integer")
    if not isinstance(doc["layers"], list):
        raise ModelFormatError("layers must be a list")
    layers = tuple(_layer_from_json(obj, idx) for idx, obj in enumerate(doc["layers"]))
    return NetworkModel(tuple(shape), doc["num_labels"], layers)


def dump_model(model: NetworkModel) -> str:
    return json.dumps({
        "input_shape": list(model.input_shape),
        "num_labels": model.num_labels,
        "layers": [_layer_to_json(l) for l in model.layers],
    })
