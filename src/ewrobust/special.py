"""Normal quantile and regularized incomplete gamma.

Self-contained implementations so the sampling and planning layers do not
depend on platform libm quirks for their core numerics.  The scalar quantile
adds one Halley refinement on top of Acklam's rational approximation; the
array version used inside the hot sampling path is the unrefined rational
form, which is pure IEEE arithmetic and therefore bit-stable everywhere
(absolute error below 1e-8 in z, far inside sampling noise).
"""

from __future__ import annotations

import math

import numpy as np

# Acklam's inverse normal CDF coefficients (central / tail rationals).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(z: float) -> float:
    """Standard normal CDF via erfc (double precision)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# Acklam's rationals, written once for Python floats and float64 arrays: both
# round each operation alike, so the scalar and array paths agree bit for bit.
# Each path keeps its own log (np.log and math.log can differ in the last bit).

def _acklam_central(u):
    """Acklam's central rational in u = q - 1/2, for 0.02425 <= q <= 0.97575."""
    t = u * u
    return (((((((_A[0] * t + _A[1]) * t + _A[2]) * t + _A[3]) * t + _A[4]) * t + _A[5]) * u)
            / (((((_B[0] * t + _B[1]) * t + _B[2]) * t + _B[3]) * t + _B[4]) * t + 1.0))


def _acklam_tail(t):
    """Acklam's lower-tail rational in t = sqrt(-2 log q), for q < 0.02425."""
    return ((((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5])
            / ((((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0))


def inv_norm_cdf(q: float) -> float:
    """z with Phi(z) = q, |Phi(z) - q| well below 1e-9.

    Acklam's approximation followed by one Halley step against an
    erfc-based Phi.  Below q of about 1e-310 the step's exp(z*z/2) would
    overflow, and the tail rational alone is returned.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {q!r}")
    if q < _P_LOW:
        z = _acklam_tail(math.sqrt(-2.0 * math.log(q)))
    elif q > 1.0 - _P_LOW:
        z = -_acklam_tail(math.sqrt(-2.0 * math.log(1.0 - q)))
    else:
        z = _acklam_central(q - 0.5)
    e = norm_cdf(z) - q
    try:
        u = e * _SQRT_2PI * math.exp(0.5 * z * z)
    except OverflowError:
        return z
    return z - u / (1.0 + 0.5 * z * u)


def inv_norm_cdf_array(q: np.ndarray) -> np.ndarray:
    """Vectorized unrefined Acklam approximation (bit-stable, |dz| < 1e-8)."""
    q = np.asarray(q, dtype=np.float64)
    # the central rational is finite on all of (0, 1) (its denominator stays
    # above 1e-4), so it runs on every element and the tails overwrite it
    z = np.asarray(_acklam_central(q - 0.5))
    lo = q < _P_LOW
    hi = q > 1.0 - _P_LOW
    z[lo] = _acklam_tail(np.sqrt(-2.0 * np.log(q[lo])))
    z[hi] = -_acklam_tail(np.sqrt(-2.0 * np.log(1.0 - q[hi])))
    return z


_GAMMA_ITMAX = 400
_GAMMA_EPS = 1e-16
_FPMIN = 1e-300


def _gamma_prefactor(a: float, x: float) -> float:
    return math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_prefactor_array(a: float, x: np.ndarray) -> np.ndarray:
    # per element through math: np.exp and np.log may differ in the last bit
    return np.array([_gamma_prefactor(a, v) for v in x.tolist()])


def _gamma_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * _gamma_prefactor(a, x)


def _gamma_cf(a: float, x: float) -> float:
    # modified Lentz continued fraction for Q(a, x)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * _gamma_prefactor(a, x)


def reg_lower_incomplete_gamma(a: float, x: float) -> float:
    """P(a, x), the regularized lower incomplete gamma function.

    Series expansion for x < a + 1, continued fraction for the complement
    otherwise; relative accuracy ~1e-14.  P(a, inf) = 1.
    """
    if not a > 0.0:
        raise ValueError(f"shape parameter must be positive, got {a!r}")
    if not x >= 0.0:
        raise ValueError(f"argument must be non-negative, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cf(a, x)


# The array paths run the scalar loops' statements, in the same order, on the
# elements whose loop has not yet broken (a is shared, so ap and an stay Python
# floats). An element leaves at the iteration where its scalar loop breaks,
# with that loop's value, so both paths agree bit for bit.
# below this many elements numpy's per-call overhead outweighs the scalar loop
_GAMMA_ARRAY_MIN = 64


def _gamma_series_array(a: float, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    live = np.arange(x.size)
    ap = a
    term = np.full(x.size, 1.0 / a)
    total = term.copy()
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        done = np.abs(term) < np.abs(total) * _GAMMA_EPS
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, x, term, total = live[keep], x[keep], term[keep], total[keep]
            if not live.size:
                return out
    out[live] = total
    return out


def _gamma_cf_array(a: float, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    live = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full(x.size, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = b + an / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _GAMMA_EPS
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
            if not live.size:
                return out
    out[live] = h
    return out


def reg_lower_incomplete_gamma_array(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) over an array of arguments with a common shape parameter,
    bit-identical to reg_lower_incomplete_gamma element by element."""
    if not a > 0.0:
        raise ValueError(f"shape parameter must be positive, got {a!r}")
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    if flat.size < _GAMMA_ARRAY_MIN:
        return np.array([reg_lower_incomplete_gamma(a, v) for v in flat.tolist()],
                        dtype=np.float64).reshape(x.shape)
    if not (flat >= 0.0).all():
        raise ValueError("argument must be non-negative")
    out = np.zeros_like(flat)
    below = flat < a + 1.0
    series = below & (flat != 0.0)
    if series.any():
        xs = flat[series]
        out[series] = _gamma_series_array(a, xs) * _gamma_prefactor_array(a, xs)
    out[flat == math.inf] = 1.0
    fraction = ~below & (flat < math.inf)
    if fraction.any():
        xs = flat[fraction]
        out[fraction] = 1.0 - _gamma_cf_array(a, xs) * _gamma_prefactor_array(a, xs)
    return out.reshape(x.shape)
