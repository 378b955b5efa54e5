"""Exact test oracles, independent of the code under test where they can be.

- `oracle_plan`: the sample-size and threshold formulas in arbitrary
  precision.
- `bernoulli_source`, `corner_source`: 0/1 sources whose success probability
  is known exactly, p for the first and the CNF's model count over 2^n for
  the second.
- `stub_oracle`: a noiseless decision oracle for the radius bisection.
- `satisfies`, `count_satisfying`: brute-force model counting for the CNF
  reduction of `ewrobust.gadgets`.
- `threshold_classifier`, `threshold_fraction`: a one-coordinate classifier
  and its closed-form success probability on an linf ball.
- `ball_box`, `certifies`, `certified_radius`: a sound interval certificate
  that every point of a ball keeps the center's label under `forward`.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from ewrobust import prng
from ewrobust.decision import SAT, UNSAT, IndicativeSource, Verdict
from ewrobust.gadgets import CnfFormula, build_gadget
from ewrobust.nn import Conv2d, Dense, NetworkModel, predict
from ewrobust.stats import TestPlan

ENUMERATION_LIMIT = 20


def oracle_plan(eps, alpha, beta, eps_prime=None):
    """Arbitrary-precision evaluation of the sample-size and threshold
    formulas, independent of the float64 implementation."""
    with mp.workdps(50):
        eps, alpha, beta = mp.mpf(eps), mp.mpf(alpha), mp.mpf(beta)
        if eps_prime is None:
            eps_prime = eps - min(eps * (1 - eps), mp.mpf("0.005"))
        else:
            eps_prime = mp.mpf(eps_prime)
        z_a = mp.sqrt(2) * mp.erfinv(2 * alpha - 1)
        z_b = mp.sqrt(2) * mp.erfinv(2 * (1 - beta) - 1)
        ratio = (eps * (1 - eps) * z_b - eps_prime * (1 - eps_prime) * z_a) / (eps - eps_prime)
        sqrt_n = max(ratio, 3 * mp.sqrt((1 - eps) / eps))
        n = int(mp.ceil(sqrt_n ** 2))
        c = eps * (1 - eps) * z_b / mp.sqrt(n) + (1 - eps)
        return n, float(c)


def bernoulli_source(p: float, seed: int):
    def source(indices):
        return (prng.uniforms(seed, indices, 1)[:, 0] < p).astype(np.int64)
    return source


def stub_oracle(r_true: float):
    """Noiseless oracle: SAT exactly below r_true."""
    plan = TestPlan(0.5, 0.25, 9, 0.6)
    def oracle(r: float) -> Verdict:
        d = SAT if r <= r_true else UNSAT
        return Verdict(d, 9, 9, plan, "early_accept" if d == SAT else "early_reject")
    return oracle


def _assignment_table(num_vars: int) -> np.ndarray:
    """All 2^n Boolean assignments, rows indexed by the binary value with
    variable 1 as the least significant bit."""
    if num_vars > ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at "
                         f"{ENUMERATION_LIMIT} variables, got {num_vars}")
    codes = np.arange(2 ** num_vars, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(num_vars, dtype=np.uint32)) & 1).astype(np.float64)


def satisfies(cnf: CnfFormula, assignments: np.ndarray) -> np.ndarray:
    """Boolean per row of a {0,1}-valued assignment matrix."""
    assignments = np.asarray(assignments, dtype=np.float64)
    ok = np.ones(assignments.shape[0], dtype=bool)
    for clause in cnf.clauses:
        clause_ok = np.zeros(assignments.shape[0], dtype=bool)
        for lit in clause:
            val = assignments[:, abs(lit) - 1] > 0.5
            clause_ok |= val if lit > 0 else ~val
        ok &= clause_ok
    return ok


def count_satisfying(cnf: CnfFormula) -> int:
    """Exact satisfying-assignment count by full enumeration (n <= 20)."""
    return int(satisfies(cnf, _assignment_table(cnf.num_vars)).sum())


def corner_source(target: CnfFormula | NetworkModel, seed: int) -> IndicativeSource:
    """0/1 source: sample index i maps to a uniform corner of {0,1}^n and
    the outcome is 1 iff the gadget network labels it satisfied."""
    model = build_gadget(target) if isinstance(target, CnfFormula) else target
    n = model.input_shape[0]

    def source(indices: np.ndarray) -> np.ndarray:
        corners = (prng.uniforms(seed, indices, n) >= 0.5).astype(np.float64)
        return (predict(model, corners) == 0).astype(np.int64)

    return source


def threshold_classifier(n: int, coordinate: int, threshold: float) -> NetworkModel:
    """2-label model predicting label 0 iff x[coordinate] <= threshold
    (label 0 at equality via the smallest-index tie break)."""
    if not 0 <= coordinate < n:
        raise ValueError(f"coordinate {coordinate} out of range for n={n}")
    w = np.zeros((2, n))
    w[0, coordinate] = -1.0
    w[1, coordinate] = 1.0
    b = np.array([threshold, -threshold])
    return NetworkModel((n,), 2, (Dense(w, b),))


def threshold_fraction(center_coord: float, radius: float, threshold: float) -> float:
    """Exact fraction of an linf ball (projected on one coordinate) with
    x <= threshold: the closed-form success probability of the threshold
    classifier."""
    if radius == 0.0:
        return 1.0 if center_coord <= threshold else 0.0
    return float(np.clip((threshold - (center_coord - radius)) / (2.0 * radius), 0.0, 1.0))


# --- a sound interval certificate ----------------------------------------------
#
# Interval bound propagation (Gowal et al., "On the Effectiveness of Interval
# Bound Propagation for Training Verifiably Robust Models", arXiv 2018) of a
# box [lo, hi] of input rows through forward.  Relu, maxpool2d, flatten and
# normalize are monotone in each input, also as rounded, so forward's own op
# at the two ends bounds its output for every input in between.  A dense or
# conv layer's exact W x + b lies in W m + b +- |W| r over the box of center
# m and half width r: W m + b through the layer's own apply, |W| r through a
# float64 gemm (dense) or Conv2d's float64 kernel on |W| (conv).  Each then
# widens by forward's proven rounding bound (nn's docstring), once at m and
# once at x, and by the bounds of this oracle's own roundings, and every end
# rounds outward.  The last layer must be a dense one: the certificate bounds
# each margin y_t - y_j through W_t - W_j, which is exact for a one-layer
# model, where bounding y_t and y_j apart is not.

_U = 2.0 ** -52       # g_k <= k _U for every k met here (Higham 2002, 3.1-3.5)
_TINY = 2.0 ** -1022  # an underflow or a flush to 0 errs by less than this


def _down(x):
    return np.nextafter(x, -np.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def _weighted(layer, lo, hi):
    """(y, |W| r, err, r): a dense or conv layer's output at the box's center
    m, its radius over the box of half width r, and a bound err on the
    roundings of forward at any input of the box and of this oracle."""
    m = lo / 2 + hi / 2
    r = _up(np.maximum(hi - m, m - lo))
    big = _up(np.max(np.abs(m) + r, axis=tuple(range(1, m.ndim)), keepdims=True))
    k = math.prod(layer.weight.shape[1:])
    wsum = np.abs(layer.weight).reshape(len(layer.weight), k).sum(axis=1)
    bias = np.abs(layer.bias)
    if layer.kind == "dense":  # nn's c and underflow term, which also cover the fast pass
        c = (k + 121) * _U + 32 * k * 2.0 ** (-3 * ((53 - math.ceil(math.log2(k))) // 2))
        under = (3 * k + 8) * _TINY
        g = r @ np.abs(layer.weight).T
    else:  # bias, then k products in turn: g_{k+1} S, and 2**-1075 per product
        c, under = (k + 2) * _U, (k + 1) * _TINY
        wsum, bias = wsum[:, None, None], bias[:, None, None]  # per output channel
        g = Conv2d(np.abs(layer.weight), np.zeros_like(layer.bias), layer.stride,
                   layer.padding).apply(r)
    s = (wsum * big + bias) * (1 + (k + 2) * _U)  # bounds sum|x w| + |b| over the box
    err = ((2 * c + (k + 2) * _U) * s
           + (2 * under + (2 * k + 2) * _TINY) * (1 + big + wsum)) * (1 + 2.0 ** -40)
    return layer.apply(m), g, err, r


def _last_layer_input(model: NetworkModel, lo, hi):
    lo, hi = lo.reshape((-1,) + model.input_shape), hi.reshape((-1,) + model.input_shape)
    for layer in model.layers[:-1]:
        if layer.kind in ("dense", "conv2d"):
            y, g, err, _ = _weighted(layer, lo, hi)
            lo, hi = _down(_down(y - g) - err), _up(_up(y + g) + err)
        else:
            lo, hi = layer.apply(lo), layer.apply(hi)
    return lo, hi


def certifies(model: NetworkModel, lo, hi, label: int) -> bool:
    """True only if forward labels every input row x with lo <= x <= hi
    elementwise `label`: the logit of `label` strictly beats every other."""
    last = model.layers[-1]
    if last.kind != "dense":
        raise ValueError("the certificate needs a model whose last layer is dense")
    x_lo, x_hi = _last_layer_input(model, np.asarray(lo, float), np.asarray(hi, float))
    y, _, err, r = _weighted(last, x_lo, x_hi)
    weight = last.weight[label] - last.weight  # W_t - W_j, off by U/2 |W_t - W_j| in err
    spread = _down(_down(y[:, [label]] - y) - r @ np.abs(weight).T)
    margin = _down(spread - (err[:, [label]] + err))
    return bool(np.delete(margin > 0, label, axis=1).all())


def ball_box(center, radius: float, clamp=None):
    """(lo, hi): a box holding every sample `sample_batch` draws from the l1,
    l2 or linf ball around center.  |x_i - c_i| <= radius for linf and l1;
    the l2 law's radius * kappa / sqrt(s) * y_i can round past it, by about
    n / 2 + 6 units of 2**-53 relative for the n terms of s, so the radius
    grows by (n + 8) 2**-52 of itself.
    The clamp's clip is monotone, so it clips the box's ends."""
    center = np.asarray(center, dtype=np.float64).ravel()
    grown = _up(radius * (1 + (center.size + 8) * _U))
    lo, hi = _down(center - grown), _up(center + grown)
    if clamp is not None:
        lo, hi = np.clip(lo, *clamp), np.clip(hi, *clamp)
    return lo, hi


def certified_radius(model: NetworkModel, center, label: int, cap: float,
                     clamp=None) -> float | None:
    """The largest radius found by bisection on [0, cap] at which the ball
    around center certifies `label` (cap itself if it does), or None when
    not even radius 0 does.  The result always certifies."""
    def holds(radius):
        return certifies(model, *ball_box(center, radius, clamp), label)

    if not holds(0.0):
        return None
    if holds(cap):
        return cap
    low, high = 0.0, cap
    for _ in range(40):
        mid = (low + high) / 2
        low, high = (mid, high) if holds(mid) else (low, mid)
    return low
