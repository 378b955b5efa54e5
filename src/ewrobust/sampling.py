"""Exact uniform sampling in l1 / l2 / linf balls.

Sample i is a pure function of (seed, i): the l1 sampler uses sorted
uniform spacings with random signs, the l2 sampler uses Gaussian directions
with the chi-square-CDF radius law, and the linf sampler draws per-coordinate
uniforms.  All randomness comes from the counter-based stream in prng.py, so
any partition of an index range across workers reproduces the serial output
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import prng
from .special import inv_norm_cdf_array, reg_lower_incomplete_gamma_array

L1 = "1"
L2 = "2"
LINF = "inf"
NORMS = (L1, L2, LINF)

@dataclass(frozen=True)
class BallSpec:
    """Sampled region: B_p(center, radius), with every coordinate clipped
    into [lo, hi] when clamp is set (which changes the sampled measure)."""
    center: np.ndarray
    radius: float
    norm: str
    clamp: tuple[float, float] | None = None

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).ravel()
        if not np.isfinite(center).all():
            raise ValueError("ball center must be finite")
        object.__setattr__(self, "center", center)
        _check_radius(self.radius)
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if self.clamp is not None:
            lo, hi = self.clamp
            if not lo < hi:
                raise ValueError(f"clamp lower bound must be below upper, got {self.clamp}")

    @property
    def dim(self) -> int:
        return self.center.size

    def at_radius(self, radius: float) -> BallSpec:
        """This ball at another radius.  Only the radius is checked: the
        center, norm and clamp are this ball's, checked when it was built."""
        _check_radius(radius)
        ball = object.__new__(BallSpec)
        ball.__dict__.update(self.__dict__, radius=radius)
        return ball


def _check_radius(radius: float) -> None:
    if not 0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and non-negative, got {radius}")


def _l1_batch(spec: BallSpec, seed: int, indices: np.ndarray) -> np.ndarray:
    n = spec.dim
    u = prng.uniforms(seed, indices, 2 * n)
    # in place: the sorted points, then their spacings from 0 (numpy buffers
    # the overlapping operands), negated where the sign uniform is below 1/2
    x = u[:, :n] * spec.radius
    x.sort(axis=1)
    x[:, 1:] -= x[:, :-1]
    np.negative(x, out=x, where=u[:, n:] < 0.5)
    x += spec.center
    return x


def _l2_batch(spec: BallSpec, seed: int, indices: np.ndarray) -> np.ndarray:
    n = spec.dim
    y = inv_norm_cdf_array(prng.uniforms(seed, indices, n))
    s = np.einsum("ij,ij->i", y, y)
    # s == 0 only when all n uniforms are exactly 0.5 (code k = 2**52, where
    # k + 1/2 rounds to k), so every Gaussian coordinate is 0: probability
    # 2**(-53 n) per sample
    zero = s == 0.0
    if zero.any():
        y[zero] = inv_norm_cdf_array(prng.uniforms(seed, indices[zero], n,
                                                   substream=prng.SUBSTREAM_REDRAW))
        s[zero] = np.einsum("ij,ij->i", y[zero], y[zero])
    # radius law: kappa = P(n/2, s/2)^(1/n) is uniform^(1/n) and independent
    # of the direction y/|y|
    kappa = reg_lower_incomplete_gamma_array(n / 2.0, s / 2.0) ** (1.0 / n)
    return spec.center + (spec.radius * kappa / np.sqrt(s))[:, None] * y


def _linf_batch(spec: BallSpec, seed: int, indices: np.ndarray) -> np.ndarray:
    u = prng.uniforms(seed, indices, spec.dim)
    return spec.center + (2.0 * u - 1.0) * spec.radius


_BATCHERS = {L1: _l1_batch, L2: _l2_batch, LINF: _linf_batch}


def sample_batch(spec: BallSpec, seed: int, start: int, count: int) -> np.ndarray:
    """Samples at indices start .. start+count-1 of the stream seed, shape
    (count, n), clipped into spec.clamp when it is set."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    indices = np.arange(start, start + count, dtype=np.uint64)
    if spec.radius == 0.0:
        out = np.tile(spec.center, (count, 1))
    else:
        out = _BATCHERS[spec.norm](spec, seed, indices)
    if spec.clamp is not None:
        np.clip(out, *spec.clamp, out=out)
    return out

