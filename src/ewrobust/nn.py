"""Minimal deterministic feed-forward inference.

Six layer kinds (dense, relu, conv2d, maxpool2d, flatten, normalize) over
float64 numpy arrays (conv2d, relu, maxpool2d and flatten also run in
float32 for `indicative`), plus a JSON model format.  Every output row of
`forward` is a function of its input row alone, so a batch of k rows is
bitwise identical to k single-row passes regardless of how callers batch
their inputs.

Dense is an exact split product through the BLAS (Ozaki, Ogita, Oishi &
Rump, Numer. Algorithms 2012): each row of the input and of the weight is
scaled by 2**-e, e its frexp exponent, and cut into three slices of
floor((53 - ceil(log2 n)) / 2) bits, so that every sum of n slice-pair
products is exact in float64 whatever the BLAS, its kernels or its thread
count.  The six pairs (i, j) with i + j < 3 are added in a fixed order,
smallest first, scaled back, and the bias is added.  With u = 2**-53 and
g_k = k u / (1 - k u), those six roundings err by at most
g_6 (20 sum|x w| + |b|), since a row's slices sum in magnitude to at most
4.25 times the row; the slices dropped add at most
8 n 2**(-3 bits) 2**(e_x + e_w).  A float64 conv keeps an explicit fixed
accumulation order: bias, then each input channel and kernel offset in turn.

`indicative` needs only each row's argmax, and takes it from one fast pass
over every layer with one bound d, |x^ - x| <= d elementwise between a fast
value x^ and forward's x, from d = 0.  While d = 0 the pass holds forward's
own values, so relu, maxpool2d, flatten and normalize run forward's ops, and
the output of the first layer and of each normalize must be finite, as
forward checks (a later relu or maxpool may drop a -inf there).  Normalize
has no bound for d > 0.  Relu and maxpool are 1-Lipschitz elementwise and
flatten is a reshape, so they keep d.  A dense runs as a plain float64 gemm,
a conv in float32 (u' = 2**-24, g'_k = k u' / (1 - k u')) as an sgemm over
the im2col of its input.  The BLAS may flush subnormal results and inputs to
0 (FTZ/DAZ), each off by less than 2**-126 in float32 and 2**-1022 in
float64.  A float64 input that meets a conv is cast to float32, which errs
by at most u' |x^| in float32's normal range and by less than 2**-126 below
it, flushed or not, so d grows by u' M there, M = max|x^| over the batch,
by 2**-126 wherever an input enters a conv and by 2**-1022 wherever one
enters a dense.

A dense or conv layer of k terms per output (k = n, the dense's input
width, or ic kh kw) computes W x + b.  Let M = max|x^| of its input over
the batch, |W|_1 the largest sum of |w| over an output, and
S = max|b| + |W|_1 (M + d), which bounds sum|x w| + |b| for x^ and x alike.
Its fast output is then off from forward's by at most

    |W|_1 d + c S + under (1 + M),

the next d: |W|_1 d from the input's error, c S from the roundings of both
sums in any order, with or without FMA (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., sections 3.1-3.5), and the last term from
underflow.  The terms pass through at most k + 9 float64 roundings, so d is
multiplied by 1 + (k + 11) 2**-52.  As g_a + g_b <= g_{a+b} <= (a + b) 2**-52:

- A dense's float64 sum errs by at most g_{n+1} S and forward's split
  product by at most 20 g_6 S + 8 n 2**(-3 bits) 2**(e_x + e_w) (above),
  where 2**(e_x + e_w) <= 4 max|x| max|w| <= 4 S: c = (n + 121) 2**-52
  + 32 n 2**(-3 bits).  under = (3 n + 8) 2**-1022 covers n M 2**-1022 from
  weights that the gemm may read as 0; the n products and at most n + 1
  additions (the bias is one) of the fast sum, each off by less than
  2**-1022 when it underflows, flushed or not, by a factor of at most
  1 + g_{n+1} <= 4/3 after later roundings (n < 2**51 for any weight in
  memory), so by (8 n + 4) 2**-1022 / 3 in all; and forward's scaling back
  and the bound's own products, off by at most 2**-1075 each.  A dense runs
  only if S < 2**1020 / (1 + c): its fast and forward's values are within
  c S of a value at most S, so they, the next d and a top-two gap stay below
  2**1022.
- A conv casts W and b to float32, each off by at most u' |w| + 2**-126, and
  sums in float32 where forward sums in float64: c = ((k + 2) u'
  + (k + 1) 2**-53) / (1 - (k + 1) u') >= u' + (1 + u') g'_{k+1} + g_{k+1},
  since the sgemm sums the k products in any order and the bias is added in
  one more rounding.  under = (k + 1) 2**-124 covers (k M + 1) 2**-126 from
  the casts of W and b, where a weight below float32's normal range may
  become subnormal or 0; the k products and at most k + 1 additions (the
  BLAS may start from 0, the bias is one more) of the fast sum, each off by
  less than 2**-126 when it underflows, by a factor of at most
  1 + g'_{k+1} <= 4/3 after later roundings; and forward's k products, off
  by at most 2**-1075 each.  A conv runs only if S < 2**126, k < 2**22 (so
  g'_{k+1} <= 1/3) and its weight is finite in float32: every float32 value
  of the fast conv and every float64 value of forward's is then below
  2**127, whatever the order.

A layer that may not run, such as one whose M is infinite or NaN, sends the
batch through `forward`, which raises as before.  A row keeps the fast
argmax t only when y^_t - max_{j != t} y^_j > 2 d in float64: then
y_t > y_j for every j != t, and forward's argmax is t.  Rounding is monotone
and 2 d is a float64 number, so a rounded gap above 2 d is an exact one; a
float32 gap could round up past a 2 d that float32 cannot hold.  Every
other row, an exact tie among them, re-runs through `forward`.
"""

from __future__ import annotations

import functools
import json
import math
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


# bytes of the three slices of one block of dense input rows
_DENSE_BLOCK_BYTES = 256 * 1024


def _slice_bits(n: int) -> int:
    """Bits per slice for dot products of length n: a sum of n products of
    two slices stays at or below 2**53 units of its level, so it is exact."""
    return (53 - math.ceil(math.log2(max(n, 1)))) // 2


def _split(a: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(slices, e): each row of a times 2**-e (so below 1 in magnitude), cut
    into three slices; slice i is a multiple of 2**-(i+1)*bits and at most
    2**-i*bits in magnitude, and the slices sum to the scaled row up to
    2**-(3*bits+1).  Every step is exact and elementwise."""
    e = np.frexp(np.maximum.reduce(np.abs(a), axis=1, initial=0.0))[1]
    r = np.ldexp(a, -e[:, None])
    slices = np.empty((3,) + a.shape)
    for i, s in enumerate(slices):
        # (r + sigma) - sigma rounds r to a multiple of sigma's ulp, and
        # r - s is then exact
        sigma = 1.5 * 2.0 ** (52 - (i + 1) * bits)
        np.add(r, sigma, out=s)
        s -= sigma
        if i < 2:
            r -= s
    return slices, e


def _dense_matmul(x: np.ndarray, wt: np.ndarray, ew: np.ndarray, bits: int,
                  bias: np.ndarray) -> np.ndarray:
    # every gemm output is a sum of n products of one slice pair, exact in
    # any order, so its bits do not depend on the block, the BLAS or its
    # threads
    rows, cols = x.shape
    out = np.empty((rows, bias.size))
    block = max(1, _DENSE_BLOCK_BYTES // (3 * 8 * cols))
    for r0 in range(0, rows, block):
        # a C-ordered block: after a conv, x is a transposed view, and a split
        # of its rows would run numpy's loops over a few elements at a time
        xs, ex = _split(np.ascontiguousarray(x[r0:r0 + block]), bits)
        # pj[i] is the pair (i, j): weight slice j against input slice i
        p0 = (xs.reshape(-1, cols) @ wt[0]).reshape(3, -1, bias.size)
        p1 = (xs[:2].reshape(-1, cols) @ wt[1]).reshape(2, -1, bias.size)
        p2 = xs[0] @ wt[2]
        # the pairs with i + j < 3 in a fixed order, smallest level first
        acc = p0[2] + p1[1]
        acc += p2
        acc += p0[1]
        acc += p1[0]
        acc += p0[0]
        block_out = out[r0:r0 + block]
        np.ldexp(acc, ex[:, None] + ew, out=block_out)
        block_out += bias
    return out


def _bound_scalars(weight: np.ndarray, bias: np.ndarray, c: float, under: float,
                   limit: float) -> tuple[float, ...]:
    """A dense or conv layer's terms of the fast path's bound (module
    docstring): |W|_1, max|b|, its kind's c and underflow term, the limit on
    S below which it may run, and the factor for the bound's own roundings.
    Made on the layer's first fast call and kept on it."""
    k = math.prod(weight.shape[1:])
    wsum = np.abs(weight).sum(axis=tuple(range(1, weight.ndim))).max(initial=0.0)
    return (float(wsum), float(np.abs(bias).max(initial=0.0)), c, under, limit,
            1 + (k + 11) * 2.0 ** -52)


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

    @functools.cached_property
    def _weight_split(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(slices as (3, in, out), row exponents, bits) of the weight, made
        on the first apply and kept on the layer."""
        bits = _slice_bits(self.weight.shape[1])
        slices, e = _split(self.weight, bits)
        return np.ascontiguousarray(slices.transpose(0, 2, 1)), e, bits

    @functools.cached_property
    def _bound_terms(self) -> tuple[float, ...]:
        n = self.weight.shape[1]
        c = (n + 121) * 2.0 ** -52 + 32 * n * 2.0 ** (-3 * _slice_bits(n))
        return _bound_scalars(self.weight, self.bias, c, (3 * n + 8) * 2.0 ** -1022,
                              2.0 ** 1020 / (1 + c))

    def apply(self, x):
        wt, ew, bits = self._weight_split
        return _dense_matmul(x, wt, ew, bits, self.bias)


@dataclass(frozen=True)
class Relu:
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def apply(self, x):
        return np.maximum(x, 0.0)


# bytes of one conv2d tile: the float64 kernel's accumulator, or the float32
# kernel's column buffer; large batches step fewer output channels and rows
# at a time so the tile stays in cache
_CONV_TILE_BYTES = 512 * 1024

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

    @functools.cached_property
    def _float32_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The weight as a contiguous (oc, ic kh kw) matrix and the bias in
        float32, made on the first float32 call and kept on the layer."""
        oc, k = self.weight.shape[0], math.prod(self.weight.shape[1:])
        with np.errstate(over="ignore"):
            weight, bias = self.weight.astype(np.float32), self.bias.astype(np.float32)
        return weight.reshape(oc, k), bias

    @functools.cached_property
    def _bound_terms(self) -> tuple[float, ...]:
        k = math.prod(self.weight.shape[1:])
        if k >= 2 ** 22 or np.isinf(self._float32_terms[0]).any():  # never runs fast
            return _bound_scalars(self.weight, self.bias, math.inf, math.inf, 0.0)
        c = ((k + 2) * 2.0 ** -24 + (k + 1) * 2.0 ** -53) / (1 - (k + 1) * 2.0 ** -24)
        return _bound_scalars(self.weight, self.bias, c, (k + 1) * 2.0 ** -124, 2.0 ** 126)

    def apply(self, x):
        # rows innermost: the input is laid out (C, H, W, n) and the output
        # (oc, oh, ow, n), returned as a batch-first transposed view.  A
        # float32 input runs in float32 through im2col and the BLAS, any
        # other in float64 through the fixed-order tile kernel.
        oc, ic, kh, kw = self.weight.shape
        ph, pw = self.padding
        _, oh, ow = self.out_shape(x.shape[1:])
        n, _, h, w = x.shape
        dtype = np.float32 if x.dtype == np.float32 else np.float64
        if ph or pw:
            xt = np.zeros((ic, h + 2 * ph, w + 2 * pw, n), dtype)
            xt[:, ph:ph + h, pw:pw + w] = x.transpose(1, 2, 3, 0)
        else:  # no copy when x is the view a conv or relu returned
            xt = np.ascontiguousarray(x.transpose(1, 2, 3, 0), dtype)
        out = np.empty((oc, oh, ow, n), dtype)
        if dtype == np.float32:
            self._im2col(xt, out)
        else:
            self._tiles(xt, out)
        return out.transpose(3, 0, 1, 2)

    def _im2col(self, xt, out):
        """out = W cols + b per tile of output rows, one sgemm a tile: cols
        holds the input slab under each (c, i, j) of the kernel, rows
        innermost, so each block is a plain strided copy of xt."""
        weight, bias = self._float32_terms
        oc, k = weight.shape
        ic, kh, kw = self.weight.shape[1:]
        sh, sw = self.stride
        _, oh, ow, n = out.shape
        row = ow * n  # output elements of one output row, per channel
        rows = min(oh, max(1, _CONV_TILE_BYTES // max(1, k * row * 4)))
        buf = np.empty(k * rows * row, np.float32)
        flat = out.reshape(oc, oh * row)
        for r in range(0, oh, rows):
            t = min(rows, oh - r)
            cols = buf[:k * t * row].reshape(ic, kh, kw, t, ow, n)
            top, bottom = r * sh, (r + t) * sh
            for i in range(kh):
                for j in range(kw):
                    cols[:, i, j] = xt[:, top + i:bottom + i:sh, j:j + ow * sw:sw]
            block = flat[:, r * row:(r + t) * row]
            np.matmul(weight, cols.reshape(k, t * row), out=block)
            block += bias[:, None]

    def _tiles(self, xt, out):
        """Each output element is bias, then + x*w for (c, i, j) in
        lexicographic order, two roundings per step, as for any other batch
        size or tiling; tiles of output rows and channels whose accumulator
        fits the cache budget run one after another on the caller."""
        weight, bias = self.weight.transpose(1, 2, 3, 0), self.bias  # (ic, kh, kw, oc)
        ic, kh, kw, oc = weight.shape
        sh, sw = self.stride
        _, oh, ow, n = out.shape
        # all rows of as many channels as fit, else as many rows of one
        row_bytes = max(1, ow * n * weight.itemsize)  # an empty batch takes one tile
        rows = min(oh, max(1, _CONV_TILE_BYTES // row_bytes))
        block = min(oc, max(1, _CONV_TILE_BYTES // (rows * row_bytes)))
        tmp = np.empty((block, rows, ow, n), weight.dtype)
        for o in range(0, oc, block):
            for r in range(0, oh, rows):  # disjoint tiles of out
                acc = out[o:o + block, r:r + rows]
                prod = tmp[:acc.shape[0], :acc.shape[1]]
                acc[...] = bias[o:o + block, None, None, None]
                top, bottom = r * sh, (r + acc.shape[1]) * sh
                for c in range(ic):
                    for i in range(kh):
                        for j in range(kw):
                            slab = xt[c, top + i:bottom + i:sh, j:j + ow * sw:sw]
                            np.multiply(weight[c, i, j, o:o + block, None, None, None],
                                        slab, out=prod)
                            acc += prod


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
                if out is None:
                    # order="K" keeps the memory layout of x (rows innermost after a conv)
                    out = patch.copy(order="K")
                else:
                    np.maximum(out, patch, out=out)
        return out


@dataclass(frozen=True)
class Flatten:
    kind = "flatten"

    def out_shape(self, in_shape):
        return (math.prod(in_shape),)

    def apply(self, x):
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # also for 0 rows


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


# layers whose output is finite wherever their input is: max, relu and
# reshape make no new values
_KEEPS_FINITE = frozenset({"relu", "maxpool2d", "flatten"})


def _as_rows(model: NetworkModel, batch) -> np.ndarray:
    """batch as float64 rows of the model's input shape; one input is one row."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == len(model.input_shape):  # single row convenience
        batch = batch[None]
    if batch.shape[1:] != model.input_shape:
        raise ShapeMismatchError(
            f"input shape {batch.shape[1:]} does not match model input {model.input_shape}")
    return batch


def forward(model: NetworkModel, batch: np.ndarray) -> np.ndarray:
    """Logits of shape (batch, num_labels); raises on shape mismatch or
    non-finite intermediates, naming the first layer with a non-finite
    output.  Once a layer's output is checked finite, relu, maxpool2d and
    flatten are not checked until the next dense, conv2d or normalize: the
    first non-finite output can only come from one of those."""
    x = _as_rows(model, batch)
    finite = False  # x is known to be finite
    # overflow surfaces as the NumericOverflowError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, layer in enumerate(model.layers):
            x = layer.apply(x)
            if finite and layer.kind in _KEEPS_FINITE:
                continue
            if not np.isfinite(x).all():
                raise NumericOverflowError(
                    f"non-finite value after layer {idx} ({layer.kind})")
            finite = True
    return x


def predict(model: NetworkModel, batch: np.ndarray) -> np.ndarray:
    """Argmax labels per row; ties broken toward the smallest index."""
    return np.argmax(forward(model, batch), axis=1)


def label_mask(model: NetworkModel, omega) -> np.ndarray:
    """0/1 per label of the model, 1 for the labels in omega; raises unless
    omega is a non-empty set of the model's labels."""
    omega = frozenset(int(l) for l in omega)
    if not omega:
        raise ValueError("omega must be non-empty")
    if any(l < 0 or l >= model.num_labels for l in omega):
        raise ValueError(f"omega {sorted(omega)} contains labels outside "
                         f"[0, {model.num_labels})")
    mask = np.zeros(model.num_labels, dtype=np.int64)
    mask[list(omega)] = 1
    return mask


def _fast(model: NetworkModel, batch: np.ndarray):
    """(y^, d): fast logits of the batch and their bound, |y^ - y| <= d for
    forward's y (module docstring); None when a layer may not run."""
    x, d = batch, 0.0
    for idx, layer in enumerate(model.layers):
        if layer.kind not in ("dense", "conv2d"):
            if layer.kind == "normalize" and d:
                return None
            x = layer.apply(x)
            # outputs that forward checks, which at d = 0 are its own values
            if (idx == 0 or layer.kind == "normalize") and not np.isfinite(x).all():
                return None
            continue
        cast = layer.kind == "conv2d" and x.dtype == np.float64
        x = x.astype(np.float32) if cast else x
        m = float(np.abs(x).max(initial=0.0))
        if layer.kind == "conv2d":  # the cast, then an input the BLAS may flush
            d += (m * 2.0 ** -24 if cast else 0.0) + 2.0 ** -126
        else:  # an input the BLAS may flush
            d += 2.0 ** -1022
        wsum, bmax, c, under, limit, grow = layer._bound_terms
        s = bmax + wsum * (m + d)
        if not s < limit:
            return None
        d = (wsum * d + c * s + under * (1 + m)) * grow
        if layer.kind == "conv2d":
            x = layer.apply(x)
            continue
        # row blocks as in the split product: one whole-batch gemm gave no
        # speed gain that held over 10 benchmark pairs of MLP and CNN decides,
        # and a higher peak RSS in every pair
        y = np.empty((len(x), layer.bias.size))
        block = max(1, _DENSE_BLOCK_BYTES // (8 * x.shape[1]))
        for r0 in range(0, len(x), block):
            np.matmul(np.ascontiguousarray(x[r0:r0 + block], np.float64), layer.weight.T,
                      out=y[r0:r0 + block])
        y += layer.bias
        x = y
    return x, d


def indicative(model: NetworkModel, batch: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """mask[predicted label] per row: with a label_mask, 1 where the
    prediction lies in omega, else 0.  Equal to mask[predict(model, batch)],
    by one fast pass and its error bound (module docstring)."""
    batch = _as_rows(model, batch)
    with np.errstate(over="ignore", invalid="ignore"):
        fast = _fast(model, batch)
        if fast is None:  # forward raises, or its labels are the answer
            return mask[predict(model, batch)]
        y, d = fast
        y = y.astype(np.float64, copy=False)  # the gap is taken in float64
        top2 = np.partition(y, -2, axis=1)
        labels = np.argmax(y, axis=1)
        redo = np.flatnonzero(~(top2[:, -1] - top2[:, -2] > 2 * d))
    if redo.size:
        labels[redo] = predict(model, batch[redo])
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
    if type(values) is int:  # a JSON boolean is not an integer
        return (values, values)
    if (not isinstance(values, (list, tuple)) or len(values) != 2
            or not all(type(v) is int and v >= 0 for v in values)):
        raise ModelFormatError(f"layer {layer_idx}: field {name!r} must be two integers")
    return tuple(values)


def _layer_from_json(obj, idx) -> LayerSpec:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"layer {idx}: must be an object")
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
    except RecursionError:
        raise ModelFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level value must be an object")
    for key in ("input_shape", "num_labels", "layers"):
        if key not in doc:
            raise ModelFormatError(f"missing top-level field {key!r}")
    shape = doc["input_shape"]
    if (not isinstance(shape, list) or not shape
            or not all(type(d) is int and d > 0 for d in shape)):
        raise ModelFormatError("input_shape must be a non-empty list of positive integers")
    if type(doc["num_labels"]) is not int:
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
