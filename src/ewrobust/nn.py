"""Minimal deterministic feed-forward inference.

Six layer kinds (dense, relu, conv2d, maxpool2d, flatten, normalize) over
float64 numpy arrays, plus a JSON model format.  Each layer's `apply` is its
exact op for any input dtype, and only the fast pass of `indicative` runs a
float32 conv.  Every output row of `forward` is a function of its input row
alone, so a batch of k rows is bitwise identical to k single-row passes
regardless of how callers batch their inputs.

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

`indicative` needs only each row's argmax, and takes it from a fast pass
over every layer, one per block of consecutive rows whose widest activation
fits a fixed byte budget, so its memory does not grow with the batch.  Each
block has its own bound d, |x^ - x| <= d elementwise between a fast value x^
and forward's x, from d = 0; the "batch" below is the block, whose M is at
most the whole batch's, so its d is too.  Each layer enters the pass
through its `_fast_apply`.  While d = 0 the pass holds forward's own values,
so relu, maxpool2d, flatten and normalize run forward's ops there.
`forward` checks every layer's output, but relu, maxpool2d and flatten make
no new values, so at d = 0 only the first layer's output and each
normalize's can be the first non-finite one, and the fast pass checks those
(a later relu or maxpool may drop a -inf there).  Normalize has no bound for
d > 0.  Relu and maxpool are 1-Lipschitz elementwise and flatten is a
reshape, so they keep d.  A dense runs as a plain float64 gemm, a conv
(`Conv2d._fast_apply`) in float32 (u' = 2**-24, g'_k = k u' / (1 - k u')) as
an sgemm over the im2col of its input.  The BLAS may flush subnormal results
and inputs to 0 (FTZ/DAZ), each off by less than 2**-126 in float32 and
2**-1022 in float64.  A float64 input that meets a conv is cast to float32,
which errs by at most u' |x^| in float32's normal range and by less than
2**-126 below it, flushed or not, so d grows by u' M there, M = max|x^| over
the batch, by 2**-126 wherever an input enters a conv and by 2**-1022
wherever one enters a dense.

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
whole batch through `forward`, which raises as before, naming the first bad
layer over the whole batch: a block that runs has finite forward values, so
the rows on which forward raises lie in a block that may not run.  A row keeps the fast
argmax t only when y^_t - max_{j != t} y^_j > 2 d in float64: then
y_t > y_j for every j != t, and forward's argmax is t.  Rounding is monotone
and 2 d is a float64 number, so a rounded gap above 2 d is an exact one; a
float32 gap could round up past a 2 d that float32 cannot hold.  Every
other row, an exact tie among them, re-runs through one `forward` call with
the other blocks' such rows.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np


class ModelError(ValueError):
    """Base class for model construction / execution failures."""


class ModelFormatError(ModelError):
    """Malformed model file."""


class ShapeMismatchError(ModelError):
    """Incompatible shapes between consecutive layers or model and input."""


class NumericOverflowError(ModelError):
    """A forward pass produced a non-finite intermediate value."""


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


# A layer checks and normalises its fields as it is built, from a file or in code.

def _float_array(value, name: str, ndim: int) -> np.ndarray:
    """value as a finite float64 array of ndim dimensions, converted once."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"field {name!r} is not numeric") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite value in {name!r}")
    if arr.ndim != ndim:
        raise ValueError(f"field {name!r} must have {ndim} dimensions")
    return arr


def _pair(value, name: str) -> tuple[int, int]:
    """value as two ints >= 0, or one int (not a bool) standing for both."""
    if type(value) is int:
        return (value, value)
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(type(v) is int and v >= 0 for v in value)):
        raise ValueError(f"field {name!r} must be two integers")
    return tuple(value)


def _weight_and_bias(layer, ndim: int, rows: str) -> None:
    """A dense or conv weight of ndim dimensions and one bias per weight row."""
    vars(layer).update(weight=_float_array(layer.weight, "weight", ndim),
                       bias=_float_array(layer.bias, "bias", 1))
    if len(layer.bias) != len(layer.weight):
        raise ValueError(f"bias length {len(layer.bias)} != {rows} {len(layer.weight)}")


@dataclass(frozen=True)
class Dense:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)
    kind = "dense"

    def __post_init__(self):
        _weight_and_bias(self, 2, "weight rows")

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
        # each gemm output is a sum of n products of one slice pair, exact in
        # any order, so no bit depends on the batch, the BLAS or its threads
        wt, ew, bits = self._weight_split
        (rows, cols), outs = x.shape, self.bias.size
        # a C-ordered copy: after a conv, x is a transposed view, and a split
        # of its rows would run numpy's loops over a few elements at a time
        xs, ex = _split(np.ascontiguousarray(x), bits)
        # pj[i] is the pair (i, j): weight slice j against input slice i
        p0 = (xs.reshape(3 * rows, cols) @ wt[0]).reshape(3, rows, outs)
        p1 = (xs[:2].reshape(2 * rows, cols) @ wt[1]).reshape(2, rows, outs)
        p2 = xs[0] @ wt[2]
        # the pairs with i + j < 3 in a fixed order, smallest level first
        acc = p0[2] + p1[1]
        acc += p2
        acc += p0[1]
        acc += p1[0]
        acc += p0[0]
        np.ldexp(acc, ex[:, None] + ew, out=acc)
        acc += self.bias
        return acc

    def _fast_apply(self, x):
        """The fast pass's dense: one float64 gemm, then the bias."""
        x = np.ascontiguousarray(x, np.float64) @ self.weight.T
        x += self.bias
        return x


@dataclass(frozen=True)
class Relu:
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def apply(self, x):
        return np.maximum(x, 0.0)

    _fast_apply = apply  # the fast pass's entry: a wrapper set on apply does not reach it


# bytes of one conv2d tile: the float64 kernel's accumulator, or the float32
# kernel's column buffer; large batches step fewer output channels and rows
# at a time so the tile stays in cache
_CONV_TILE_BYTES = 512 * 1024

@dataclass(frozen=True)
class Conv2d:
    weight: np.ndarray  # (out_ch, in_ch, kh, kw)
    bias: np.ndarray    # (out_ch,)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    kind = "conv2d"

    def __post_init__(self):
        _weight_and_bias(self, 4, "out channels")
        stride, padding = _pair(self.stride, "stride"), _pair(self.padding, "padding")
        if min(stride) < 1:
            raise ValueError("stride must be >= 1")
        if min(padding) < 0:
            raise ValueError("padding must be >= 0")
        vars(self).update(stride=stride, padding=padding)

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
        float32, made on the first fast call and kept on the layer."""
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
        # float64 through the fixed-order tile kernel, whatever the dtype of x
        return self._rows_innermost(x, np.float64, self._tiles)

    def _fast_apply(self, x):
        """The fast pass's conv: float32 through im2col and the BLAS."""
        return self._rows_innermost(x, np.float32, self._im2col)

    def _rows_innermost(self, x, dtype, kernel):
        """kernel(xt, out) with the input laid out (C, H, W, n) in dtype and
        padded, and the output (oc, oh, ow, n), returned as a batch-first
        transposed view."""
        oc, ic = self.weight.shape[:2]
        ph, pw = self.padding
        _, oh, ow = self.out_shape(x.shape[1:])
        n, _, h, w = x.shape
        if ph or pw:
            xt = np.zeros((ic, h + 2 * ph, w + 2 * pw, n), dtype)
            xt[:, ph:ph + h, pw:pw + w] = x.transpose(1, 2, 3, 0)
        else:  # no copy when x is the view a conv or relu returned
            xt = np.ascontiguousarray(x.transpose(1, 2, 3, 0), dtype)
        out = np.empty((oc, oh, ow, n), dtype)
        kernel(xt, out)
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
    stride: tuple[int, int] = ()  # () for the window
    kind = "maxpool2d"

    def __post_init__(self):
        window = _pair(self.window, "window")
        same = type(self.stride) is tuple and not self.stride
        stride = window if same else _pair(self.stride, "stride")
        if min(window) < 1 or min(stride) < 1:
            raise ValueError("window and stride must be >= 1")
        vars(self).update(window=window, stride=stride)

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

    _fast_apply = apply


@dataclass(frozen=True)
class Flatten:
    kind = "flatten"

    def out_shape(self, in_shape):
        return (math.prod(in_shape),)

    def apply(self, x):
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # also for 0 rows

    _fast_apply = apply


@dataclass(frozen=True)
class Normalize:
    mean: np.ndarray
    scale: np.ndarray
    kind = "normalize"

    def __post_init__(self):
        vars(self).update(mean=_float_array(self.mean, "mean", 1),
                          scale=_float_array(self.scale, "scale", 1))
        if (self.scale <= 0).any():
            raise ValueError("normalize scale must be strictly positive")

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

    _fast_apply = apply


LayerSpec = Dense | Relu | Conv2d | MaxPool2d | Flatten | Normalize

# bytes of the widest activation of one block of indicative's fast pass, in
# float64: a larger batch runs as more blocks, not as larger arrays
_FAST_BLOCK_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class NetworkModel:
    """Immutable classifier: ordered layers mapping input_shape to num_labels
    logits.  Fields checked and normalised, and shapes checked, when built."""
    input_shape: tuple[int, ...]
    num_labels: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        shape = tuple(self.input_shape) if isinstance(self.input_shape, (list, tuple)) else ()
        if not shape or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool)
                                and d > 0 for d in shape):
            raise ValueError("input_shape must be a non-empty sequence of positive integers")
        if not isinstance(self.num_labels, (int, np.integer)) or isinstance(self.num_labels, bool):
            raise ValueError(f"num_labels must be an integer, got {self.num_labels!r}")
        if self.num_labels < 2:
            raise ValueError(f"num_labels must be at least 2, got {self.num_labels}")
        if not isinstance(self.layers, (list, tuple)) or not all(
                isinstance(layer, LayerSpec) for layer in self.layers):
            raise ValueError("layers must be a sequence of layers")
        vars(self).update(input_shape=tuple(map(int, shape)), num_labels=int(self.num_labels),
                          layers=tuple(self.layers))
        shape = self.input_shape
        widest = math.prod(shape)
        for idx, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except ShapeMismatchError as exc:
                raise ShapeMismatchError(f"layer {idx} ({layer.kind}): {exc}") from None
            widest = max(widest, math.prod(shape))
        if shape != (self.num_labels,):
            raise ShapeMismatchError(
                f"network output shape {shape} does not match num_labels={self.num_labels}")
        # rows of one fast-pass block: its widest activation fits the budget
        vars(self)["_fast_rows"] = max(1, _FAST_BLOCK_BYTES // (8 * widest))


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
    output."""
    x = _as_rows(model, batch)
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
            x = layer._fast_apply(x)
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
        x = layer._fast_apply(x)
    return x, d


def indicative(model: NetworkModel, batch: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """mask[predicted label] per row: with a label_mask, 1 where the
    prediction lies in omega, else 0.  Equal to mask[predict(model, batch)],
    by one fast pass and its error bound per block of rows (module
    docstring), and one forward over the rows no block settles."""
    batch = _as_rows(model, batch)
    labels = np.empty(len(batch), np.intp)
    settled = np.empty(len(batch), bool)
    rows = model._fast_rows
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(batch), rows):
            block = slice(start, start + rows)
            fast = _fast(model, batch[block])
            if fast is None:  # forward raises, or its labels are the answer
                return mask[predict(model, batch)]
            y, d = fast
            y = y.astype(np.float64, copy=False)  # the gap is taken in float64
            top2 = np.partition(y, -2, axis=1)
            labels[block] = np.argmax(y, axis=1)
            settled[block] = top2[:, -1] - top2[:, -2] > 2 * d
    redo = np.flatnonzero(~settled)
    if redo.size:
        labels[redo] = predict(model, batch[redo])
    return mask[labels]


# --- JSON model format ------------------------------------------------------
#
# {"input_shape": [...], "num_labels": m,
#  "layers": [{"kind": "dense", "weight": [[...]], "bias": [...]}, ...]}
#
# A document, a str or UTF-8 bytes after at most one byte-order mark, holds
# NetworkModel's fields and a layer its kind and its class's fields, and no
# other key; a field with a default may be left out.  _from_json reads them
# and _to_json writes them.  Weights are nested row-major lists, for desk-scale
# models: the format is plain text and grows ~20 bytes per parameter.

_LAYER_KINDS = {cls.kind: cls for cls in LayerSpec.__args__}


def _from_json(obj, where: str, cls=None):
    """cls, or the layer of obj's kind when cls is None, built from the JSON
    object obj (see above); NetworkModel's layers are a list of layers.  A
    ValueError not yet a ModelError becomes a ModelFormatError at where."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: must be an object")
    if cls is None:
        if "kind" not in obj:
            raise ModelFormatError(f"{where}: missing field 'kind'")
        cls = _LAYER_KINDS.get(obj["kind"]) if isinstance(obj["kind"], str) else None
        if cls is None:
            raise ModelFormatError(f"{where}: unknown kind {obj['kind']!r}")
        obj = {key: value for key, value in obj.items() if key != "kind"}
    for f in fields(cls):
        if f.name not in obj and f.default is MISSING:
            raise ModelFormatError(f"{where}: missing field {f.name!r}")
    unknown = [key for key in obj if key not in cls.__dataclass_fields__]
    if unknown:
        raise ModelFormatError(f"{where}: unknown field {unknown[0]!r}")
    try:
        if cls is NetworkModel:
            if not isinstance(obj["layers"], list):
                raise ValueError("layers must be a list")
            obj = {**obj, "layers": [_from_json(layer, f"layer {idx}")
                                     for idx, layer in enumerate(obj["layers"])]}
        return cls(**obj)
    except ModelError:
        raise
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def _to_json(obj) -> dict:
    """obj's JSON object: a layer's kind, then each field in order, arrays and
    tuples as nested lists and a model's layers as layer objects."""
    doc = {} if isinstance(obj, NetworkModel) else {"kind": obj.kind}
    for f in fields(obj):
        value = getattr(obj, f.name)
        doc[f.name] = ([_to_json(layer) for layer in value] if f.name == "layers"
                       else np.asarray(value).tolist())
    return doc


def load_model(text: str | bytes) -> NetworkModel:
    """Parse and shape-check a model document (see above)."""
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")
        doc = json.loads(text.removeprefix("\ufeff"))
    except ValueError as exc:  # also bad UTF-8 and an integer too long to read
        raise ModelFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("invalid JSON: nested too deeply") from None
    return _from_json(doc, "top-level", NetworkModel)


def dump_model(model: NetworkModel) -> str:
    return json.dumps(_to_json(model))
