import math

import numpy as np
import pytest
import scipy.special as sps

from ewrobust import special
from ewrobust.special import (inv_norm_cdf, inv_norm_cdf_array, norm_cdf,
                              reg_lower_incomplete_gamma,
                              reg_lower_incomplete_gamma_array)


class TestInvNormCdf:
    def test_median_is_zero(self):
        assert inv_norm_cdf(0.5) == 0.0

    def test_reference_quantiles(self):
        assert abs(inv_norm_cdf(0.975) - 1.959964) < 1e-6
        assert abs(inv_norm_cdf(0.999) - 3.090232) < 1e-6

    def test_roundtrip_accuracy(self):
        qs = np.concatenate([np.logspace(-6, math.log10(0.5), 500),
                             1.0 - np.logspace(-6, math.log10(0.5), 500)])
        for q in qs:
            assert abs(norm_cdf(inv_norm_cdf(float(q))) - q) <= 1e-9

    def test_symmetry(self):
        for q in (0.001, 0.05, 0.3):
            assert inv_norm_cdf(q) == pytest.approx(-inv_norm_cdf(1.0 - q), abs=1e-12)

    @pytest.mark.parametrize("q", [5e-324, 1e-320, 1e-311])
    def test_deep_subnormal_tail_is_the_unrefined_rational(self, q):
        # the Halley step's exp(z*z/2) would overflow; the rational is kept
        z = inv_norm_cdf(q)
        assert z == special._acklam_tail(math.sqrt(-2.0 * math.log(q)))
        assert -39.0 < z < -37.0

    def test_refinement_kept_down_to_1e_310(self):
        # the smallest quantile of these whose Halley step still runs
        z = special._acklam_tail(math.sqrt(-2.0 * math.log(1e-310)))
        e = norm_cdf(z) - 1e-310
        u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
        assert inv_norm_cdf(1e-310) == z - u / (1.0 + 0.5 * z * u)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, q):
        with pytest.raises(ValueError):
            inv_norm_cdf(q)

    def test_array_version_is_the_branch_expressions(self):
        # the central rational runs on every element before the tails overwrite
        # it, so it must raise no floating-point error at either end of (0, 1)
        edges = [2.0 ** -53, 1.0 - 2.0 ** -53, 0.5]
        for bound in (special._P_LOW, 1.0 - special._P_LOW):
            edges += [np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0)]
        q = np.array(edges)
        with np.errstate(all="raise"):
            got = inv_norm_cdf_array(q)
        want = []
        for v in q:
            if v < special._P_LOW:
                want.append(special._acklam_tail(np.sqrt(-2.0 * np.log(v))))
            elif v > 1.0 - special._P_LOW:
                want.append(-special._acklam_tail(np.sqrt(-2.0 * np.log(1.0 - v))))
            else:
                want.append(special._acklam_central(v - 0.5))
        assert np.array_equal(got, np.array(want))

    def test_array_version_tracks_scipy(self):
        qs = np.concatenate([np.logspace(-6, -0.4, 200), 1.0 - np.logspace(-6, -0.4, 200)])
        assert np.abs(inv_norm_cdf_array(qs) - sps.ndtri(qs)).max() < 1e-8


class TestRegLowerIncompleteGamma:
    def test_zero(self):
        for a in (0.3, 1.0, 7.5, 200.0):
            assert reg_lower_incomplete_gamma(a, 0.0) == 0.0

    def test_chi_square_one_dof_identity(self):
        # P(1/2, 1/2) equals the probability mass of N(0,1) within one sigma
        assert reg_lower_incomplete_gamma(0.5, 0.5) == pytest.approx(0.682689, abs=1e-6)

    def test_exponential_closed_form(self):
        assert reg_lower_incomplete_gamma(1.0, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        for x in (0.1, 2.0, 30.0):
            assert reg_lower_incomplete_gamma(1.0, x) == pytest.approx(
                1 - math.exp(-x), rel=1e-12)

    def test_monotone_and_limits(self):
        for a in (0.5, 3.0, 50.0):
            xs = np.linspace(0.0, max(8 * a, 20.0), 60)
            vals = [reg_lower_incomplete_gamma(a, float(x)) for x in xs]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
            assert vals[-1] > 0.999
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_against_scipy(self):
        for a in (0.1, 0.5, 1.0, 5.0, 50.0, 500.0):
            for x in (1e-6, 0.3, a * 0.9, a + 1.5, a * 3.0):
                mine = reg_lower_incomplete_gamma(a, x)
                ref = float(sps.gammainc(a, x))
                assert mine == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(1.0, -0.5)

    def test_array_wrapper(self):
        xs = np.array([0.0, 0.5, 2.0, 10.0])
        out = reg_lower_incomplete_gamma_array(2.5, xs)
        assert out.shape == xs.shape
        assert out[0] == 0.0
        assert np.all(np.diff(out) > 0)


def scalar_gamma(a, x):
    return np.array([reg_lower_incomplete_gamma(a, float(v)) for v in x])


class TestRegLowerIncompleteGammaArray:
    """The array path must give the scalar function's bits, element by element."""

    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 5.0, 50.0, 392.0])
    def test_bits_equal_scalar(self, a):
        rng = np.random.default_rng(3)
        # x = 0; series elements breaking early (tiny x) and late (x near a);
        # continued-fraction elements breaking early (x far above a) and late
        # (x just above a + 1): both branches and both ends in one call
        x = np.concatenate([[0.0, 0.0, 5e-324, 1e-300, a + 1.0, np.nextafter(a + 1.0, 0.0)],
                            10.0 ** rng.uniform(-30, 0, 40) * a,
                            rng.uniform(0.5 * a, a + 1.0, 100),
                            rng.uniform(a + 1.0, 1.5 * a + 2.0, 100),
                            rng.uniform(10.0 * a + 10.0, 1e4, 40)])
        rng.shuffle(x)
        got = reg_lower_incomplete_gamma_array(a, x)
        assert np.array_equal(got, scalar_gamma(a, x))

    def test_bits_equal_scalar_on_sampler_inputs(self):
        # the l2 radius law calls it with a = n/2 on half the squared norm of
        # n Gaussian coordinates
        rng = np.random.default_rng(4)
        for n in (1, 2, 10, 100, 784):
            s = (rng.normal(size=(300, n)) ** 2).sum(axis=1) / 2.0
            assert np.array_equal(reg_lower_incomplete_gamma_array(n / 2.0, s),
                                  scalar_gamma(n / 2.0, s))

    def test_bits_equal_scalar_when_clamps_fire(self, monkeypatch):
        # a large floor makes the Lentz clamps fire often; both paths read it
        monkeypatch.setattr(special, "_FPMIN", 10.0)
        x = np.random.default_rng(5).uniform(4.0, 20.0, 200)
        assert np.array_equal(reg_lower_incomplete_gamma_array(3.0, x),
                              scalar_gamma(3.0, x))

    def test_bits_equal_scalar_when_loops_never_break(self, monkeypatch):
        # 20 iterations leave many elements unconverged at the last one,
        # and those keep their last value
        monkeypatch.setattr(special, "_GAMMA_ITMAX", 20)
        x = np.random.default_rng(6).uniform(0.0, 400.0, 300)
        assert np.array_equal(reg_lower_incomplete_gamma_array(200.0, x),
                              scalar_gamma(200.0, x))

    def test_small_arrays_and_shapes(self):
        x = np.linspace(0.0, 10.0, 130).reshape(10, 13)
        for part in (x[:1, :5], x[:3], x, np.zeros((2, 0))):
            got = reg_lower_incomplete_gamma_array(2.5, part)
            assert got.shape == part.shape
            assert np.array_equal(got.ravel(), scalar_gamma(2.5, part.ravel()))

    @pytest.mark.parametrize("size", [3, 200])
    def test_domain(self, size):
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma_array(0.0, np.ones(size))
        x = np.ones(size)
        x[-1] = -0.5
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma_array(1.0, x)

    @pytest.mark.parametrize("size", [1, 70])
    def test_infinite_argument_gives_one(self, size):
        assert reg_lower_incomplete_gamma(2.5, math.inf) == 1.0
        x = np.linspace(0.0, 10.0, size)
        x[-1] = np.inf
        with np.errstate(all="raise"):  # no invalid-value warning on the way
            got = reg_lower_incomplete_gamma_array(2.5, x)
        assert got[-1] == 1.0
        # finite elements keep their bits
        assert np.array_equal(got[:-1], scalar_gamma(2.5, x[:-1]))

    @pytest.mark.parametrize("size", [1, 70])
    def test_nan_argument_raises(self, size):
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(2.5, math.nan)
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(math.nan, 1.0)
        x = np.ones(size)
        x[-1] = np.nan
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma_array(2.5, x)
