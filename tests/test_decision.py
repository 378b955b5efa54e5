import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_dense_model
from ewrobust import decision, nn, stats
from ewrobust.decision import (SAT, UNSAT, CenterMisclassifiedError,
                               RadiusResult, RobustnessQuery, decide,
                               decide_with_source, evaluate, model_source,
                               point_check)
from ewrobust.nn import Dense, NetworkModel, indicative, label_mask
from ewrobust.prng import derive_subseed
from ewrobust.sampling import BallSpec, sample_batch
from ewrobust.stats import ErrorBudget, TestPlan, plan_test
from oracles import bernoulli_source, stub_oracle, threshold_classifier

BUDGET = ErrorBudget(0.001, 0.001)
PLAN = plan_test(0.01, BUDGET)  # the CLI defaults: N = 891
SMALL_PLAN = plan_test(0.2, ErrorBudget(0.05, 0.05), 0.1)


def constant_model(label: int, num_labels: int = 2, n_in: int = 3) -> NetworkModel:
    bias = np.zeros(num_labels)
    bias[label] = 1.0
    return NetworkModel((n_in,), num_labels, (Dense(np.zeros((num_labels, n_in)), bias),))


def query_for(model, *, center=None, radius=0.5, norm="inf", clamp=None, omega=(0,),
              plan=PLAN, seed=7, **kw):
    """A query around center (default the origin) with the ball built here."""
    center = np.zeros(model.input_shape) if center is None else center
    return RobustnessQuery(model, BallSpec(center, radius, norm, clamp), frozenset(omega),
                           plan, seed, **kw)


class TestQueryValidation:
    def test_empty_omega(self):
        with pytest.raises(ValueError):
            query_for(constant_model(0), omega=())

    def test_omega_out_of_range(self):
        with pytest.raises(ValueError):
            query_for(constant_model(0), omega=(0, 2))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            query_for(constant_model(0), radius=-1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius(self, radius):
        with pytest.raises(ValueError):
            query_for(constant_model(0), radius=radius)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            query_for(constant_model(0), batch_size=0)

    @pytest.mark.parametrize("batch_size", [2.5, 3.0, True, np.float64(4.0)])
    def test_non_integer_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="^batch_size must be an integer >= 1"):
            query_for(constant_model(0), batch_size=batch_size)
        assert query_for(constant_model(0), batch_size=np.int64(3)).batch_size == 3

    @pytest.mark.parametrize("clamp", [(1.0, 0.0), (0.0, 0.0), (math.nan, 1.0),
                                       (0.0, math.nan)])
    def test_unordered_or_nan_clamp_raises_at_construction(self, clamp):
        with pytest.raises(ValueError, match="clamp lower bound must be below upper"):
            query_for(constant_model(0), clamp=clamp)

    def test_bad_norm_raises_at_construction(self):
        with pytest.raises(ValueError, match="norm must be one of"):
            query_for(constant_model(0), norm="3")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_center_raises_at_construction(self, value):
        with pytest.raises(ValueError, match="ball center must be finite"):
            query_for(constant_model(0), center=np.array([0.0, value, 0.0]))

    def test_ball_and_mask_built_with_the_query(self):
        model = constant_model(0, num_labels=3)
        q = query_for(model, omega=[0, 2], clamp=(-1.0, 1.0))
        assert (q.ball.radius, q.ball.norm, q.ball.clamp) == (0.5, "inf", (-1.0, 1.0))
        assert q.ball.center.shape == (3,)
        assert q.omega == frozenset({0, 2}) and np.array_equal(q.mask, [1, 0, 1])
        assert [f.name for f in fields(q)] == ["model", "ball", "omega", "plan", "seed",
                                               "batch_size", "mask"]
        moved = replace(q, ball=BallSpec(np.ones((1, 3)), 0.25, "inf"), omega={1})
        assert moved.plan is q.plan and moved.ball.radius == 0.25
        assert np.array_equal(moved.ball.center, np.ones(3))
        assert np.array_equal(moved.mask, [0, 1, 0])

    def test_at_radius_shares_all_but_ball_and_seed(self):
        q = query_for(constant_model(0, num_labels=3), omega=(0, 2), clamp=(-1.0, 1.0))
        probe = q.at_radius(0.25, 99)
        assert (probe.ball.radius, probe.seed) == (0.25, 99)
        assert (q.seed, q.ball.radius) == (7, 0.5)
        assert (probe.ball.radius, probe.ball.norm, probe.ball.clamp) == (0.25, "inf", (-1.0, 1.0))
        assert probe.ball.center is q.ball.center  # not checked or copied again
        for name in ("plan", "mask", "omega", "model", "batch_size"):
            assert getattr(probe, name) is getattr(q, name)

    @pytest.mark.parametrize("radius", [-0.1, math.inf, math.nan])
    def test_at_radius_checks_the_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be finite"):
            query_for(constant_model(0)).at_radius(radius, 1)

    @pytest.mark.parametrize("omega", [(), (0, 2), (-1,)])
    def test_omega_error_matches_indicative(self, omega):
        model = constant_model(0)
        with pytest.raises(ValueError) as from_query:
            query_for(model, omega=omega)
        with pytest.raises(ValueError) as from_mask:
            label_mask(model, omega)
        assert str(from_query.value) == str(from_mask.value)


class TestDecideWithSource:
    def test_always_correct_accepts_at_threshold(self):
        plan = plan_test(0.01, BUDGET)
        verdict = decide_with_source(plan, lambda idx: np.ones(idx.size, dtype=np.int64),
                                     batch_size=1)
        assert verdict.decision == SAT
        assert verdict.stop_reason == "early_accept"
        # with batch size 1 the accept fires exactly when S first reaches ceil(cN)
        assert verdict.samples_drawn == math.ceil(plan.c * plan.N)
        assert verdict.successes == verdict.samples_drawn

    def test_always_wrong_rejects_quickly(self):
        plan = plan_test(0.01, BUDGET)
        verdict = decide_with_source(plan, lambda idx: np.zeros(idx.size, dtype=np.int64),
                                     batch_size=1)
        assert verdict.decision == UNSAT
        assert verdict.stop_reason == "early_reject"
        # reject fires at the first i with 0 < (c-1)N + i
        assert verdict.samples_drawn == math.floor((1 - plan.c) * plan.N) + 1

    def test_drawn_never_exceeds_plan(self):
        plan = plan_test(0.2, ErrorBudget(0.05, 0.05), epsilon_prime=0.1)  # small N
        for p in (0.0, 0.5, 0.79, 0.81, 1.0):
            verdict = decide_with_source(plan, bernoulli_source(p, 3), batch_size=7)
            assert verdict.samples_drawn <= plan.N
            assert verdict.successes <= verdict.samples_drawn

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1024])
    def test_verdict_independent_of_batch_size(self, batch_size):
        plan = plan_test(0.2, ErrorBudget(0.05, 0.05), epsilon_prime=0.1)
        for k in range(20):
            source = bernoulli_source(0.7 + 0.02 * k % 0.3, 100 + k)
            base = decide_with_source(plan, source, batch_size=1)
            got = decide_with_source(plan, source, batch_size=batch_size)
            assert got.decision == base.decision

    def test_early_stop_matches_full_count(self):
        # the early-stopped verdict must equal comparing the full-N count to cN
        plan = plan_test(0.2, ErrorBudget(0.001, 0.001), epsilon_prime=0.1)  # N=60
        assert plan.N <= 2000
        for k in range(100):
            p = 0.5 + 0.005 * k
            source = bernoulli_source(p, 1000 + k)
            verdict = decide_with_source(plan, source, batch_size=1)
            full = int(source(np.arange(plan.N, dtype=np.uint64)).sum())
            expect = SAT if full >= plan.c * plan.N else UNSAT
            assert verdict.decision == expect

    @pytest.mark.parametrize("batch_size", [0, -3, 2.5, True])
    def test_bad_batch_size_is_refused(self, batch_size):
        # a bounded source: a batch size that loops forever fails, not hangs
        calls = []

        def source(indices):
            calls.append(indices.size)
            if len(calls) > 100:
                raise RuntimeError("source called more than 100 times")
            return np.ones(indices.size, dtype=np.int64)
        with pytest.raises(ValueError, match=f"^batch_size must be an integer >= 1, "
                                             f"got {batch_size!r}$"):
            decide_with_source(PLAN, source, batch_size=batch_size)
        assert not calls


def recording(source):
    """(source, sizes): the source, and the list of batch sizes it is asked for."""
    sizes = []

    def recorded(indices):
        sizes.append(indices.size)
        return source(indices)
    return recorded, sizes


def constant_source(value: int):
    return lambda idx: np.full(idx.size, value, dtype=np.int64)


def reject_failures(plan: TestPlan) -> int:
    """F, the fewest failures at which early_reject can fire."""
    return plan.N - math.ceil(plan.c * plan.N) + 1


class TestBatchSchedule:
    def test_defaults_sat_runs_short_then_partial_then_full(self):
        plan = plan_test(0.01, BUDGET)
        assert (plan.N, reject_failures(plan)) == (891, 8)
        source, sizes = recording(constant_source(1))
        verdict = decide_with_source(plan, source, batch_size=256)
        assert sizes == [32, 91, 256, 256, 256]
        assert (verdict.decision, verdict.samples_drawn) == (SAT, 891)

    def test_defaults_unsat_stops_in_first_batch(self):
        plan = plan_test(0.01, BUDGET)
        source, sizes = recording(constant_source(0))
        verdict = decide_with_source(plan, source, batch_size=256)
        assert sizes == [32]
        assert (verdict.decision, verdict.successes, verdict.samples_drawn) == (UNSAT, 0, 32)

    @pytest.mark.parametrize("epsilon, alpha, first", [
        (0.001, 0.001, 36),  # F = 9
        (0.1, 0.05, 256),    # F = 327: a full --batch, as before
    ])
    def test_first_batch_size(self, epsilon, alpha, first):
        plan = plan_test(epsilon, ErrorBudget(alpha, alpha))
        assert decision.first_batch_size(plan, 256) == first

    @pytest.mark.parametrize("value", [0, 1])
    def test_one_batch_of_n_when_it_fits(self, value):
        plan = plan_test(0.2, ErrorBudget(0.05, 0.05), epsilon_prime=0.1)
        for batch_size in (plan.N, plan.N + 1, 1024):
            source, sizes = recording(constant_source(value))
            decide_with_source(plan, source, batch_size=batch_size)
            assert sizes == [plan.N]

    def test_sat_draws_n_when_first_batch_could_reach_ceil_cn(self):
        # eps 0.5: N = 642 and F = 320, so a 400-row first batch could hold
        # the ceil(cN) = 323 successes early_accept needs; it ends at N - F
        plan = plan_test(0.5, ErrorBudget(0.4, 0.4))
        assert (plan.N, reject_failures(plan)) == (642, 320)
        source, sizes = recording(constant_source(1))
        verdict = decide_with_source(plan, source, batch_size=400)
        assert sizes == [322, 320]
        assert (verdict.decision, verdict.samples_drawn) == (SAT, 642)

    @given(st.floats(0.02, 0.9), st.floats(0.2, 0.9), st.floats(0.01, 0.45),
           st.floats(0.01, 0.45), st.floats(0.0, 1.2), st.floats(0.0, 1.0),
           st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_schedule_keeps_verdict(self, epsilon, prime_share, alpha, beta,
                                    batch_share, p, seed):
        plan = plan_test(epsilon, ErrorBudget(alpha, beta), epsilon * prime_share)
        assume(plan.N <= 3000)
        batch_size = 1 + int(batch_share * plan.N)
        # success rates near c, where most verdicts are decided late
        bernoulli = bernoulli_source(plan.c + (p - 0.5) * 0.1, seed)
        source, sizes = recording(bernoulli)
        verdict = decide_with_source(plan, source, batch_size=batch_size)
        assert verdict.decision == decide_with_source(plan, bernoulli, batch_size=1).decision
        assert verdict.samples_drawn == sum(sizes) <= plan.N
        assert max(sizes) <= batch_size
        if verdict.decision == SAT and reject_failures(plan) <= batch_size:
            assert verdict.samples_drawn == plan.N


class TestDecide:
    def test_constant_correct_model_sat(self):
        verdict = decide(query_for(constant_model(0)))
        assert verdict.decision == SAT

    def test_constant_wrong_model_unsat(self):
        verdict = decide(query_for(constant_model(1)))
        assert verdict.decision == UNSAT

    def test_deterministic(self):
        q = query_for(constant_model(0), plan=plan_test(0.2, BUDGET, 0.1))
        a, b = decide(q), decide(q)
        assert (a.decision, a.successes, a.samples_drawn) == \
               (b.decision, b.successes, b.samples_drawn)

    def test_omega_monotonicity(self):
        # enlarging omega can only help acceptance
        rng = np.random.default_rng(11)
        model = random_dense_model(rng, 4, 3)
        center = rng.normal(size=4)
        label = int(np.argmax(model.layers[-1].bias))  # arbitrary valid label
        for seed in range(5):
            q_small = query_for(model, center=center, radius=1.0, norm="2", omega={label},
                                plan=SMALL_PLAN, seed=seed)
            q_big = replace(q_small, omega={0, 1, 2})
            big = decide(q_big)
            assert big.decision == SAT  # omega = all labels always accepts
            small = decide(q_small)
            if small.decision == SAT:
                assert big.decision == SAT

    def test_threshold_model_against_known_fraction(self):
        # p_r = 0.9 > c ~ 0.8025 -> SAT; p_r = 0.6 < c -> UNSAT (at eps=0.2)
        model = threshold_classifier(1, 0, 0.0)
        for center, expect in [(-0.8, SAT), (-0.2, UNSAT)]:
            q = query_for(model, center=np.array([center]), radius=1.0,
                          plan=plan_test(0.2, BUDGET), seed=5)
            assert decide(q).decision == expect

    def test_model_source_matches_manual_pipeline(self):
        q = query_for(constant_model(0))
        source = model_source(q)
        out = source(np.arange(10, dtype=np.uint64))
        assert out.shape == (10,)
        assert set(np.unique(out)) <= {0, 1}
        manual = indicative(q.model, sample_batch(q.ball, q.seed, 0, 10), q.mask)
        assert np.array_equal(out, manual)

    def test_clamp_reaches_the_sampler(self):
        # label 0 iff x0 <= 0.5: about half of the box [-0.1, 0.9]^2 is
        # wrong, none of it once every coordinate is clipped to <= 0.5
        model = threshold_classifier(2, 0, 0.5)
        q = query_for(model, center=np.full(2, 0.4), seed=3)
        assert decide(q).decision == UNSAT
        clamped = BallSpec(q.ball.center, 0.5, "inf", (-1.0, 0.5))
        assert decide(replace(q, ball=clamped)).decision == SAT


class TestPointCheck:
    def test_accepts_and_rejects(self):
        model = constant_model(1, num_labels=3)
        assert point_check(query_for(model, omega={1}))
        assert point_check(query_for(model, omega={0, 1}))
        assert not point_check(query_for(model, omega={0, 2}))

    def test_checks_the_center_with_the_query_mask(self, monkeypatch):
        # label 0 iff x0 <= 0.5: the center 0.4 is accepted whatever the radius
        q = query_for(threshold_classifier(1, 0, 0.5), center=np.array([0.4]), radius=9.0)
        moved = replace(q, ball=BallSpec(np.array([0.6]), 0.0, "inf"))
        calls = []
        monkeypatch.setattr(decision, "label_mask", lambda *a: calls.append(a))
        monkeypatch.setattr(nn, "label_mask", lambda *a: calls.append(a))
        assert point_check(q) and not point_check(moved)
        assert calls == []


# (r_true, radius_max, precision) -> probe count, r_star, and a digest of
# stub_oracle's probe radii and r_star in hex.  The rows above 1e-300 were
# recorded before bisection stopped at a bracket with no float inside.  At
# 1e-300, below the float spacing, the midpoint comes to round to an end of
# the bracket, where the search must stop rather than probe that end again.
RECORDED_PROBES = {
    (0.3, 1.0, 0.01): (7, 0.296875, "6d3667d8f5ab68f2"),
    (0.3, 16.0, 1e-9): (34, 0.2999999998137355, "51c86cd8a2167a34"),
    (0.3, 16.0, 1e-14): (51, 0.29999999999999716, "c9a1d832725beb72"),
    (0.3, 1.0, 1e-16): (54, 0.3, "40df552bd23bd777"),
    (math.inf, 16.0, 1e-14): (51, 15.999999999999993, "aa502fd80912a9f5"),
    (-1.0, 16.0, 1e-9): (34, 0.0, "e6b747529c8eb342"),
    (0.3, 1.0, 1e-300): (54, 0.3, "40df552bd23bd777"),
    (0.7, 1.0, 1e-300): (53, 0.7, "7a78b0a472d95341"),
    (math.inf, 1.0, 1e-300): (53, 0.9999999999999999, "760f014ccc978074"),
}


class TestEvaluate:
    def query(self):
        return query_for(constant_model(0), radius=0.0)

    @pytest.mark.parametrize("r_true,radius_max,precision", list(RECORDED_PROBES))
    def test_recorded_probes(self, r_true, radius_max, precision):
        oracle, probes = stub_oracle(r_true), []

        def capped(r):
            probes.append(r)
            if len(probes) > 200:
                raise AssertionError(f"still probing r={r!r} after 200 probes")
            return oracle(r)

        res = evaluate(self.query(), radius_max, precision, oracle=capped)
        assert all(0.0 < r < radius_max for r in probes)  # never a bracket end
        lines = [r.hex() for r in probes] + [res.r_star.hex()]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert (len(probes), res.r_star, digest) == RECORDED_PROBES[
            r_true, radius_max, precision]

    def test_bisection_converges_to_true_radius(self):
        res = evaluate(self.query(), radius_max=16.0, precision=0.01,
                       oracle=stub_oracle(5.0))
        assert abs(res.r_star - 5.0) <= 0.01
        assert len(res.probes) == math.ceil(math.log2(16.0 / 0.01))  # 11 probes

    def test_always_sat_saturates_at_radius_max(self):
        res = evaluate(self.query(), radius_max=8.0, precision=0.125,
                       oracle=stub_oracle(float("inf")))
        assert res.r_star == 8.0 - 0.125
        assert all(v.decision == SAT for _, v in res.probes)

    def test_never_sat_stays_at_zero(self):
        res = evaluate(self.query(), radius_max=8.0, precision=0.125,
                       oracle=stub_oracle(-1.0))
        assert res.r_star == 0.0

    @given(st.floats(0.1, 15.9), st.floats(0.01, 0.5))
    @settings(max_examples=60)
    def test_error_bounded_by_precision(self, r_true, precision):
        res = evaluate(self.query(), radius_max=16.0, precision=precision,
                       oracle=stub_oracle(r_true))
        assert res.r_star <= r_true
        assert r_true - res.r_star <= max(precision, 16.0 - r_true) + 1e-12

    def test_threshold_model_end_to_end(self):
        # label flips at x0 = 0.5; at eps=0.2 the certified radius solves
        # p_r = 0.5 + 0.5/(2r) = c, i.e. r* = 0.25/(c - 0.5)
        plan = plan_test(0.2, BUDGET)
        q = query_for(threshold_classifier(1, 0, 0.5), radius=0.0, plan=plan, seed=20)
        r_expected = 0.25 / (plan.c - 0.5)
        res = evaluate(q, radius_max=4.0, precision=0.01)
        assert res.r_star == pytest.approx(r_expected, abs=0.05)

    def test_misclassified_center_raises(self):
        with pytest.raises(CenterMisclassifiedError):
            evaluate(query_for(constant_model(1), radius=0.0),
                     radius_max=1.0, precision=0.1)

    def test_stub_oracle_bypasses_center_check(self):
        res = evaluate(query_for(constant_model(1), radius=0.0),
                       radius_max=1.0, precision=0.5, oracle=stub_oracle(0.3))
        assert isinstance(res, RadiusResult)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            evaluate(self.query(), radius_max=0.0, precision=0.1)
        with pytest.raises(ValueError):
            evaluate(self.query(), radius_max=1.0, precision=0.0)
        with pytest.raises(ValueError):
            evaluate(self.query(), radius_max=math.nan, precision=0.1)
        with pytest.raises(ValueError):
            evaluate(self.query(), radius_max=1.0, precision=math.nan)

    def test_probe_seeds_follow_probe_index(self, monkeypatch):
        real, seeds = decision.decide, []
        monkeypatch.setattr(decision, "decide", lambda q: seeds.append(q.seed) or real(q))
        q = query_for(threshold_classifier(1, 0, 0.5), radius=0.0, plan=SMALL_PLAN, seed=20)
        for _ in range(2):  # a second run restarts at probe 0
            seeds.clear()
            res = evaluate(q, radius_max=4.0, precision=0.5)
            assert seeds == [derive_subseed(20, k) for k in range(len(res.probes))]

    def test_probes_reuse_the_plan_and_mask(self, monkeypatch):
        q = query_for(threshold_classifier(1, 0, 0.5), radius=0.0, plan=SMALL_PLAN, seed=20)
        calls = []
        for module, name in ((stats, "plan_test"), (decision, "label_mask"), (nn, "label_mask")):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        probes = []
        real_decide = decision.decide
        monkeypatch.setattr(decision, "decide", lambda p: probes.append(p) or real_decide(p))
        res = evaluate(q, radius_max=4.0, precision=0.5)
        assert calls == []  # the center check too uses the query's mask
        assert len(probes) == len(res.probes) > 1
        assert all(p.plan is q.plan and p.mask is q.mask for p in probes)
        assert [p.ball.radius for p in probes] == [r for r, _ in res.probes]

    def test_deterministic(self):
        q = query_for(threshold_classifier(1, 0, 0.5), radius=0.0, plan=SMALL_PLAN, seed=20)
        a = evaluate(q, radius_max=4.0, precision=0.05)
        b = evaluate(q, radius_max=4.0, precision=0.05)
        assert a.r_star == b.r_star
        assert [(r, v.successes) for r, v in a.probes] == \
               [(r, v.successes) for r, v in b.probes]
