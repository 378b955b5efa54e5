import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewrobust.stats import (ErrorBudget, TestPlan, choose_epsilon_prime, early_accept,
                            early_reject, plan_test, sat_probability)
from oracles import oracle_plan


class TestChooseEpsilonPrime:
    def test_large_eps_uses_cap(self):
        assert choose_epsilon_prime(0.2) == pytest.approx(0.195, abs=1e-15)

    def test_tiny_eps_uses_variance_term(self):
        assert choose_epsilon_prime(0.001) == pytest.approx(1e-6, abs=1e-12)

    def test_cap_boundary(self):
        # eps(1-eps) = 0.0099 > 0.005, so the 0.005 cap applies
        assert choose_epsilon_prime(0.01) == pytest.approx(0.005, abs=1e-15)

    @given(st.floats(1e-6, 1 - 1e-6))
    def test_always_inside_interval(self, eps):
        ep = choose_epsilon_prime(eps)
        assert 0.0 < ep < eps

    def test_domain(self):
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                choose_epsilon_prime(eps)


class TestPlanTest:
    # frozen from the arbitrary-precision oracle above
    FROZEN = {0.001: 8991, 0.01: 891, 0.2: 38379}

    @pytest.mark.parametrize("eps,expected_n", sorted(FROZEN.items()))
    def test_reference_sample_sizes(self, eps, expected_n):
        plan = plan_test(eps, ErrorBudget(0.001, 0.001))
        n_ref, c_ref = oracle_plan(eps, 0.001, 0.001)
        assert abs(plan.N - n_ref) <= 1
        assert plan.N == expected_n
        assert plan.c == pytest.approx(c_ref, abs=1e-12)

    def test_threshold_value_large_eps(self):
        plan = plan_test(0.2, ErrorBudget(0.001, 0.001))
        assert plan.c == pytest.approx(0.80252, abs=1e-5)

    def test_explicit_epsilon_prime(self):
        plan = plan_test(0.2, ErrorBudget(0.05, 0.05), epsilon_prime=0.1)
        n_ref, c_ref = oracle_plan(0.2, 0.05, 0.05, eps_prime=0.1)
        assert plan.N == n_ref
        assert plan.c == pytest.approx(c_ref, abs=1e-12)

    def test_large_sample_condition_always_holds(self):
        for eps in (0.001, 0.05, 0.3, 0.9):
            plan = plan_test(eps, ErrorBudget(0.01, 0.01))
            assert plan.N >= 9 * (1 - eps) / eps - 1e-9

    def test_sample_size_monotone_in_eps(self):
        budget = ErrorBudget(0.001, 0.001)
        sizes = [plan_test(k / 1000, budget).N for k in range(1, 21)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_invalid_inputs(self):
        budget = ErrorBudget(0.01, 0.01)
        for epsilon in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError):
                plan_test(epsilon, budget)
        with pytest.raises(ValueError):
            plan_test(0.1, budget, epsilon_prime=0.1)
        with pytest.raises(ValueError):
            plan_test(0.1, budget, epsilon_prime=0.0)
        with pytest.raises(ValueError):
            ErrorBudget(0.5, 0.01)
        with pytest.raises(ValueError):
            ErrorBudget(0.01, 0.0)


class TestEarlyStopping:
    plan = plan_test(0.001, ErrorBudget(0.001, 0.001))  # N=8991

    def test_accept_at_ceiled_threshold(self):
        bar = math.ceil(self.plan.c * self.plan.N)
        assert bar == 8983  # frozen: ceil(c*N) for the reference plan
        assert early_accept(self.plan, bar)
        assert not early_accept(self.plan, bar - 1)

    def test_nothing_fires_at_start(self):
        assert not early_accept(self.plan, 0)
        assert not early_reject(self.plan, 0, 0)

    def test_all_successes_never_reject(self):
        for i in (0, 1, 100, self.plan.N):
            assert not early_reject(self.plan, i, i)

    def test_reject_at_full_draw(self):
        bar = math.ceil(self.plan.c * self.plan.N)
        assert early_reject(self.plan, bar - 1, self.plan.N)

    @given(st.integers(9, 200), st.floats(0.55, 0.99))
    @settings(max_examples=200)
    def test_conclusive_and_terminating(self, n, c):
        plan = TestPlan(0.5, 0.25, n, c)
        for i in range(n + 1):
            for s in (0, i // 2, i):
                if early_accept(plan, s):
                    # all-failure completion: final count s passes the
                    # paper's full-N comparison
                    assert s >= plan.c * plan.N
                if early_reject(plan, s, i):
                    # all-success completion: final count s + (n-i) still rejects
                    assert early_reject(plan, s + (n - i), n)
        # at i == N exactly one rule fires
        for s in range(n + 1):
            assert early_accept(plan, s) != early_reject(plan, s, n)


def float_rule_plans():
    """Plans of plan_test over a grid of (eps, alpha, beta, eps'), and small
    hand-made plans with thresholds on and near integer boundaries of c*N."""
    plans = []
    for eps in (0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9):
        for a, b in ((0.001, 0.001), (0.05, 0.05), (0.01, 0.2), (0.4, 0.4)):
            for share in (None, 0.5, 0.9):
                plans.append(plan_test(eps, ErrorBudget(a, b),
                                       None if share is None else eps * share))
    for n in (9, 10, 25, 60, 100, 128):
        for k in range(1, n + 1):
            for c in (k / n, math.nextafter(k / n, 0.0), math.nextafter(k / n, 1.0)):
                if 0.0 < c < 1.0:
                    plans.append(TestPlan(0.5, 0.25, n, c))
    return plans


def test_integer_rules_match_float_rules():
    # the paper's form compares S with the float product c*N; the plan's
    # integer thresholds must give the same answer.  Every (S, i) with
    # S, i <= N for plans up to N = 1000; for larger plans every S at i = N
    # (both forms depend on S, and on i only through the failures i - S)
    checked = 0
    for plan in float_rule_plans():
        threshold = plan.c * plan.N
        s = np.arange(plan.N + 1)[:, None]
        i = np.arange(plan.N + 1)[None, :] if plan.N <= 1000 else np.array([[plan.N]])
        assert np.array_equal(early_accept(plan, s), s >= threshold), plan
        assert np.array_equal(early_reject(plan, s, i), s + plan.N - i < threshold), plan
        checked += s.size * i.size
    assert checked > 10_000_000


def test_plan_thresholds():
    plan = plan_test(0.01, ErrorBudget(0.001, 0.001))
    assert (plan.N, plan.accept_successes, plan.reject_failures) == (891, 884, 8)
    plan = TestPlan(0.5, 0.25, 10, 0.7)  # c*N = 7 up to rounding
    assert plan.accept_successes == math.ceil(0.7 * 10)
    assert plan.reject_failures == 10 - plan.accept_successes + 1
    # derived, not constructor arguments
    with pytest.raises(TypeError):
        TestPlan(0.5, 0.25, 10, 0.7, 7, 4)


class TestSatProbability:
    @pytest.mark.parametrize("eps,alpha,share", [
        (0.001, 0.001, None), (0.01, 0.001, None), (0.1, 0.05, None),
        (0.2, 0.01, 0.5), (0.5, 0.4, None), (0.9, 0.2, 0.9)])
    def test_matches_scipy_binomial_tail(self, eps, alpha, share):
        binom = pytest.importorskip("scipy.stats").binom
        plan = plan_test(eps, ErrorBudget(alpha, alpha),
                         None if share is None else eps * share)
        k = plan.accept_successes
        grid = (0.0, 1e-3, 0.3, 1 - eps, 1 - plan.epsilon_prime, k / plan.N,
                (k - 1) / plan.N, 1 - 1e-6, 1.0)
        for p in grid:
            assert sat_probability(plan, p) == pytest.approx(
                binom.sf(k - 1, plan.N, p), rel=1e-9, abs=1e-300), p
            # the UNSAT rate keeps its relative accuracy near P(SAT) = 1
            assert 1.0 - sat_probability(plan, p) == pytest.approx(
                binom.cdf(k - 1, plan.N, p), rel=1e-6, abs=1e-15), p

    def test_edges(self):
        plan = plan_test(0.01, ErrorBudget(0.001, 0.001))
        assert sat_probability(plan, 0.0) == 0.0
        assert sat_probability(plan, 1.0) == 1.0
        for p in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                sat_probability(plan, p)

    @pytest.mark.parametrize("eps,alpha,unsat,sat", [
        (0.1, 0.05, 0.3153, 0.3103),     # criterion 4's plan
        (0.01, 0.001, 0.0824, 0.3334)])  # the CLI defaults
    def test_operating_points(self, eps, alpha, unsat, sat):
        plan = plan_test(eps, ErrorBudget(alpha, alpha))
        assert 1.0 - sat_probability(plan, 1.0 - plan.epsilon_prime) == pytest.approx(
            unsat, abs=5e-5)
        assert sat_probability(plan, 1.0 - plan.epsilon) == pytest.approx(sat, abs=5e-5)


def test_test_plan_invariants():
    with pytest.raises(ValueError):
        TestPlan(0.5, 0.6, 100, 0.7)  # eps' >= eps
    with pytest.raises(ValueError):
        TestPlan(0.5, 0.25, 4, 0.7)  # violates large-sample bound


@pytest.mark.parametrize("epsilon,epsilon_prime", [(1.5, 1.2), (1.0, 0.5), (0.0, 0.0),
                                                   (math.nan, 0.5)])
def test_test_plan_epsilon_outside_unit_interval(epsilon, epsilon_prime):
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\), got "):
        TestPlan(epsilon, epsilon_prime, 10, 0.5)
