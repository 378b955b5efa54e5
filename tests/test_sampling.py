import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_norm
from ewrobust import prng, sampling
from ewrobust.sampling import L1, L2, LINF, NORMS, BallSpec, sample_batch

SEED = 2024


def spec_for(norm, n=5, radius=1.0):
    return BallSpec(np.zeros(n), radius, norm)


class TestSpecs:
    def test_negative_radius(self):
        with pytest.raises(ValueError):
            BallSpec(np.zeros(3), -1.0, LINF)

    def test_unsupported_norm(self):
        with pytest.raises(ValueError):
            BallSpec(np.zeros(3), 1.0, "0")

    def test_non_finite_center(self):
        with pytest.raises(ValueError):
            BallSpec(np.array([0.0, float("nan")]), 1.0, L2)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius(self, radius):
        with pytest.raises(ValueError):
            BallSpec(np.zeros(3), radius, L2)

    @pytest.mark.parametrize("clamp", [(1.0, 0.0), (0.5, 0.5), (math.nan, 1.0),
                                       (0.0, math.nan)])
    def test_unordered_or_nan_clamp(self, clamp):
        with pytest.raises(ValueError, match="clamp lower bound must be below upper"):
            BallSpec(np.zeros(3), 1.0, LINF, clamp)


class TestDeterminism:
    @pytest.mark.parametrize("norm", NORMS)
    def test_zero_radius_returns_center(self, norm):
        center = np.array([1.5, -2.0, 0.25])
        out = sample_batch(BallSpec(center, 0.0, norm), SEED, 0, 10)
        assert np.array_equal(out, np.tile(center, (10, 1)))

    @pytest.mark.parametrize("norm", NORMS)
    def test_batch_equals_concatenated_singles(self, norm):
        spec = spec_for(norm)
        whole = sample_batch(spec, SEED, 100, 12)
        singles = np.vstack([sample_batch(spec, SEED, 100 + i, 1) for i in range(12)])
        assert np.array_equal(whole, singles)

    @pytest.mark.parametrize("norm", NORMS)
    def test_split_partition_invariance(self, norm):
        spec = spec_for(norm)
        whole = sample_batch(spec, SEED, 0, 40)
        parts = np.vstack([sample_batch(spec, SEED, 0, 13),
                           sample_batch(spec, SEED, 13, 27)])
        assert np.array_equal(whole, parts)

    def test_seed_changes_output(self):
        spec = spec_for(L2)
        a = sample_batch(spec, 1, 0, 5)
        b = sample_batch(spec, 2, 0, 5)
        assert not np.array_equal(a, b)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_batch(spec_for(L1), SEED, 0, 0)


class TestL2Redraw:
    def test_exact_half_row_is_redrawn(self, monkeypatch):
        # in 1-d a primary uniform of exactly 0.5 gives y = 0, so s = 0; the
        # row must come from the redraw lane instead of 0/0
        real = prng.uniforms

        def forced(seed, indices, n_draws, substream=prng.SUBSTREAM_MAIN):
            u = real(seed, indices, n_draws, substream)
            if substream == prng.SUBSTREAM_MAIN:
                u[1, 0] = 0.5
            return u

        spec = BallSpec(np.array([3.0]), 2.0, L2)
        plain = sample_batch(spec, SEED, 10, 3)
        monkeypatch.setattr(sampling.prng, "uniforms", forced)
        pts = sample_batch(spec, SEED, 10, 3)
        assert np.isfinite(pts).all()
        assert (ball_norm(spec, pts) <= 2.0).all()
        assert np.array_equal(pts[[0, 2]], plain[[0, 2]])
        assert pts[1, 0] != plain[1, 0]


class TestContainment:
    @given(st.sampled_from(NORMS), st.integers(1, 12),
           st.floats(1e-6, 1e4), st.integers(0, 2**31))
    @settings(max_examples=120)
    def test_samples_stay_inside_ball(self, norm, n, radius, start):
        center = np.linspace(-3.0, 4.0, n)
        spec = BallSpec(center, radius, norm)
        pts = sample_batch(spec, SEED, start, 16)
        assert (ball_norm(spec, pts) <= radius * (1.0 + 1e-9)).all()

    def test_l1_dim_one_is_uniform_interval(self):
        spec = BallSpec(np.array([2.0]), 0.5, L1)
        pts = sample_batch(spec, SEED, 0, 20000)[:, 0]
        assert pts.min() > 1.5 and pts.max() < 2.5
        assert pts.mean() == pytest.approx(2.0, abs=0.02)

    def test_clamp_restricts_coordinates(self):
        spec = BallSpec(np.full(4, 0.9), 0.5, LINF, clamp=(0.0, 1.0))
        pts = sample_batch(spec, SEED, 0, 5000)
        assert pts.max() <= 1.0
        assert (pts == 1.0).any()

    def test_clamp_noop_when_slack(self):
        spec = spec_for(L2, n=4, radius=0.5)
        free = sample_batch(spec, SEED, 0, 500)
        clamped = sample_batch(replace(spec, clamp=(-10.0, 10.0)), SEED, 0, 500)
        assert np.array_equal(free, clamped)


class TestUniformity:
    """Statistical checks at fixed seeds; bounds are ~4 sigma."""

    N_STAT = 100_000

    def test_l2_dim2_quarter_radius_mass(self):
        # P(|Y| <= r/2) in a 2-ball is (1/2)^2 = 1/4
        spec = spec_for(L2, n=2)
        r = ball_norm(spec, sample_batch(spec, SEED, 0, self.N_STAT))
        frac = (r <= 0.5).mean()
        assert frac == pytest.approx(0.25, abs=4 * math.sqrt(0.25 * 0.75 / self.N_STAT))

    @pytest.mark.parametrize("norm,n", [(L1, 3), (L2, 4), (LINF, 5)])
    def test_radial_law(self, norm, n):
        # fraction inside radius t is t^n for the uniform ball measure
        spec = spec_for(norm, n=n)
        r = ball_norm(spec, sample_batch(spec, SEED, 0, self.N_STAT))
        for t in (0.5, 0.8):
            p = t ** n
            tol = 4 * math.sqrt(p * (1 - p) / self.N_STAT)
            assert (r <= t).mean() == pytest.approx(p, abs=tol)

    def test_l2_direction_uniformity(self):
        # each half-space through the center holds half the mass
        spec = spec_for(L2, n=6)
        pts = sample_batch(spec, SEED, 0, self.N_STAT)
        for axis in range(6):
            frac = (pts[:, axis] > 0).mean()
            assert frac == pytest.approx(0.5, abs=4 * math.sqrt(0.25 / self.N_STAT))

    @pytest.mark.parametrize("norm", NORMS)
    def test_coordinate_sign_symmetry(self, norm):
        spec = spec_for(norm, n=4)
        pts = sample_batch(spec, SEED, 0, self.N_STAT)
        tol = 4 * math.sqrt(0.25 / self.N_STAT)
        for axis in range(4):
            assert (pts[:, axis] > 0).mean() == pytest.approx(0.5, abs=tol)

    @pytest.mark.parametrize("norm,n", [(L1, 2), (L2, 3), (LINF, 4)])
    def test_radial_ks_statistic(self, norm, n):
        m = 20_000
        spec = spec_for(norm, n=n)
        r = np.sort(ball_norm(spec, sample_batch(spec, SEED, 0, m)))
        cdf = r ** n
        ks = np.abs(cdf - np.arange(1, m + 1) / m).max()
        # KS 0.001 critical value ~ 1.95/sqrt(m)
        assert ks < 1.95 / math.sqrt(m)
