"""Robustness decision (hypothesis test over ball samples) and radius
evaluation (bisection over the decision oracle).

The stopping loop is factored out into decide_with_source so synthetic 0/1
sources (calibration runs, Boolean-corner oracles) share the exact stopping
semantics of the full model+sampler pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import sampling
from .nn import NetworkModel, indicative, label_mask
from .prng import derive_subseed
from .stats import TestPlan, early_accept, early_reject

SAT = "SAT"
UNSAT = "UNSAT"

# source: maps an array of sample indices to 0/1 outcomes, deterministically
IndicativeSource = Callable[[np.ndarray], np.ndarray]


class CenterMisclassifiedError(ValueError):
    """Radius evaluation requires the center itself to be accepted."""


def _check_batch_size(batch_size) -> None:
    if (not isinstance(batch_size, (int, np.integer)) or isinstance(batch_size, bool)
            or batch_size < 1):
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")


@dataclass(frozen=True)
class RobustnessQuery:
    """One decision: sample the ball, accept a sample whose label lies in
    omega, and test with the plan.  The ball and plan come checked (see
    sampling.BallSpec and stats.plan_test); the label mask is built here."""
    model: NetworkModel
    ball: sampling.BallSpec
    omega: frozenset[int]
    plan: TestPlan
    seed: int
    batch_size: int = 256
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "omega", frozenset(int(l) for l in self.omega))
        object.__setattr__(self, "mask", label_mask(self.model, self.omega))
        _check_batch_size(self.batch_size)

    def at_radius(self, radius: float, seed: int) -> RobustnessQuery:
        """This query at another radius and seed, as a bisection probe: only
        the ball is built anew, with only the radius checked, and the plan,
        mask and omega are this query's."""
        probe = object.__new__(RobustnessQuery)
        probe.__dict__.update(self.__dict__, ball=self.ball.at_radius(radius), seed=seed)
        return probe


@dataclass(frozen=True)
class Verdict:
    decision: str  # SAT | UNSAT
    successes: int
    samples_drawn: int
    plan: TestPlan
    stop_reason: str  # "early_accept" | "early_reject"


@dataclass(frozen=True)
class RadiusResult:
    r_star: float
    probes: tuple[tuple[float, Verdict], ...]


# The first batch holds this many times the fewest failures at which
# early_reject can fire: a ball that misclassifies half its samples then
# rejects inside the first batch with probability 0.999 at the CLI defaults
# (8 failures, 32 rows), so an UNSAT query rarely forwards a full batch.
FIRST_BATCH_FAILURES = 4


def first_batch_size(plan: TestPlan, batch_size: int) -> int:
    """Rows of a query's first batch: all N when they fit in one batch,
    else min(batch_size, FIRST_BATCH_FAILURES * F), where F is the plan's
    reject_failures.  It also ends at or before N - F, below the K
    successes early_accept needs, but holds at least one row."""
    if plan.N <= batch_size:
        return plan.N
    failures = plan.reject_failures
    return max(1, min(batch_size, FIRST_BATCH_FAILURES * failures, plan.N - failures))


def decide_with_source(plan: TestPlan, source: IndicativeSource,
                       batch_size: int = 256) -> Verdict:
    """Run the stopping loop against an arbitrary deterministic 0/1 source.

    Early-stop rules are checked on prefix counts at batch boundaries; both
    rules are conclusive, so the verdict matches the full-N comparison for
    every batch schedule.  The schedule is a short first batch (see
    first_batch_size), then the partial batch, then full batches of
    batch_size.  The first batch ends at or before N - F and every later
    end before N lies at least batch_size below N, so a SAT verdict draws
    exactly N whenever F <= batch_size.
    """
    _check_batch_size(batch_size)
    successes = 0
    drawn = 0
    count = first_batch_size(plan, batch_size)
    while True:
        outcomes = source(np.arange(drawn, drawn + count, dtype=np.uint64))
        successes += int(np.sum(outcomes))
        drawn += count
        if early_accept(plan, successes):
            return Verdict(SAT, successes, drawn, plan, "early_accept")
        if early_reject(plan, successes, drawn):
            return Verdict(UNSAT, successes, drawn, plan, "early_reject")
        count = (plan.N - drawn - 1) % batch_size + 1
        # at drawn == N exactly one rule fires, so the loop always returns


def model_source(query: RobustnessQuery) -> IndicativeSource:
    """0/1 source that samples the query's ball and runs the classifier."""
    def source(indices: np.ndarray) -> np.ndarray:
        batch = sampling.sample_batch(query.ball, query.seed, int(indices[0]), indices.size)
        points = batch.reshape((indices.size,) + query.model.input_shape)
        return indicative(query.model, points, query.mask)

    return source


def decide(query: RobustnessQuery) -> Verdict:
    """SAT iff the sampled wrong-classification fraction stays below the
    epsilon budget, with the query's type I/II error contract."""
    return decide_with_source(query.plan, model_source(query), query.batch_size)


def point_check(query: RobustnessQuery) -> bool:
    """Degenerate radius-0 case: is the ball's center itself accepted?"""
    point = query.ball.center.reshape((1,) + query.model.input_shape)
    return bool(indicative(query.model, point, query.mask)[0] == 1)


def evaluate(query: RobustnessQuery, radius_max: float, precision: float,
             oracle: Callable[[float], Verdict] | None = None) -> RadiusResult:
    """Largest radius at which the decision oracle answers SAT, by midpoint
    bisection on [0, radius_max], until the bracket is within `precision` or
    no float lies strictly inside it.

    `oracle` overrides the per-radius decision procedure (stub oracles for
    tests); by default each probe runs decide() at that radius with a
    probe-specific sub-seed so the whole evaluation is reproducible.
    The radius of query.ball is ignored.
    """
    if not radius_max > 0:
        raise ValueError(f"radius_max must be positive, got {radius_max}")
    if not precision > 0:
        raise ValueError(f"precision must be positive, got {precision}")
    probes: list[tuple[float, Verdict]] = []
    if oracle is None:
        if not point_check(query):
            raise CenterMisclassifiedError(
                "center is not classified into omega; the bisection search does "
                "not apply to misclassified points -- run decide() at fixed, "
                "pre-chosen radii instead")

        def oracle(radius: float) -> Verdict:
            return decide(query.at_radius(radius, derive_subseed(query.seed, len(probes))))

    r_min = 0.0
    r_max = radius_max
    while r_max - r_min > precision:
        r = (r_min + r_max) / 2.0
        if not r_min < r < r_max:
            break  # a precision below the float spacing of the bracket
        verdict = oracle(r)
        probes.append((r, verdict))
        if verdict.decision == SAT:
            r_min = r
        else:
            r_max = r
    return RadiusResult(r_min, tuple(probes))
