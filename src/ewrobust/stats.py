"""Test planning and early stopping for the robustness hypothesis test.

The sample size, acceptance threshold and relaxed boundary are computed
verbatim from the source formulas: with z_a = Phi^-1(alpha) and
z_b = Phi^-1(1-beta),

    eps' = eps - min(eps*(1-eps), 0.005)                      (default)
    sqrt(N) >= max{ (eps(1-eps) z_b - eps'(1-eps') z_a) / (eps - eps'),
                    3 sqrt((1-eps)/eps) }
    c = eps(1-eps) z_b / sqrt(N) + (1-eps)

The decision accepts (SAT) when the success count S reaches c*N and rejects
(UNSAT) as soon as even all-successes over the remaining draws could not
reach c*N; both rules are conclusive for the full-N comparison S/N >= c.
For an integer S, S >= c*N exactly when S >= K = ceil(c*N), so the plan
carries K and F = N - K + 1, the fewest failures that rule out K successes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .special import inv_norm_cdf


@dataclass(frozen=True)
class ErrorBudget:
    """Type I (false reject) and type II (false accept) error bounds."""
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must lie in (0, 0.5), got {self.beta}")


@dataclass(frozen=True)
class TestPlan:
    """Frozen statistical contract of one decision run."""
    epsilon: float
    epsilon_prime: float
    N: int
    c: float
    accept_successes: int = field(init=False)  # K = ceil(c*N)
    reject_failures: int = field(init=False)   # F = N - K + 1

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.epsilon_prime < self.epsilon:
            raise ValueError("epsilon_prime must lie in (0, epsilon)")
        if self.N < 9.0 * (1.0 - self.epsilon) / self.epsilon - 1e-9:
            raise ValueError("N violates the large-sample condition")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"threshold c must lie in (0, 1), got {self.c}")
        k = math.ceil(self.c * self.N)
        object.__setattr__(self, "accept_successes", k)
        object.__setattr__(self, "reject_failures", self.N - k + 1)


def choose_epsilon_prime(epsilon: float) -> float:
    """Default relaxed boundary eps - min(eps*(1-eps), 0.005)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return epsilon - min(epsilon * (1.0 - epsilon), 0.005)


def plan_test(epsilon: float, budget: ErrorBudget,
              epsilon_prime: float | None = None) -> TestPlan:
    """Sample size N and acceptance threshold c for one decision."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if epsilon_prime is None:
        epsilon_prime = choose_epsilon_prime(epsilon)
    if not 0.0 < epsilon_prime < epsilon:
        raise ValueError(f"epsilon_prime must lie in (0, epsilon), got {epsilon_prime}")
    z_alpha = inv_norm_cdf(budget.alpha)
    z_one_minus_beta = inv_norm_cdf(1.0 - budget.beta)
    ratio = ((epsilon * (1.0 - epsilon) * z_one_minus_beta
              - epsilon_prime * (1.0 - epsilon_prime) * z_alpha)
             / (epsilon - epsilon_prime))
    sqrt_n = max(ratio, 3.0 * math.sqrt((1.0 - epsilon) / epsilon))
    n = math.ceil(sqrt_n * sqrt_n)
    c = epsilon * (1.0 - epsilon) * z_one_minus_beta / math.sqrt(n) + (1.0 - epsilon)
    return TestPlan(epsilon, epsilon_prime, n, c)


def early_accept(plan: TestPlan, successes: int) -> bool:
    """True once S >= K: no completion of the run can flip the verdict."""
    return successes >= plan.accept_successes


def early_reject(plan: TestPlan, successes: int, drawn: int) -> bool:
    """True once the failures reach F: even all-successes over the remaining
    draws cannot reach K."""
    return drawn - successes >= plan.reject_failures


def sat_probability(plan: TestPlan, p: float) -> float:
    """P(SAT) when each sample succeeds with probability p: both stop rules
    are conclusive, so the verdict is SAT exactly when S_N >= K, and
    P(SAT) = P(Binom(N, p) >= K), summed from log-space terms."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must lie in [0, 1], got {p}")
    n, k = plan.N, plan.accept_successes
    if p == 0.0 or p == 1.0:
        return float(k <= n * p)
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)

    def term(j):
        return math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)
    # sum the smaller tail, so that a result near 0 or near 1 keeps the
    # relative accuracy of the tail beyond it
    if k > n * p:
        return math.fsum(term(j) for j in range(k, n + 1))
    return 1.0 - math.fsum(term(j) for j in range(k))
