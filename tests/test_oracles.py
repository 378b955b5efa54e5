"""The interval certificate of `oracles` against the sampler, the clamp,
`forward` and the fast pass together: every l1, l2 and linf sample of a
ball whose linf box the certificate proves keeps the center's label, so
`decide` at a certified radius counts no failure, whatever the seed, the
clamp and the batch size."""

import math

import numpy as np
import pytest

from conftest import random_dense_model, toy_conv_model
from ewrobust.decision import SAT, RobustnessQuery, decide
from ewrobust.nn import Dense, NetworkModel, predict
from ewrobust.sampling import NORMS, BallSpec, sample_batch
from ewrobust.stats import ErrorBudget, plan_test
from oracles import ball_box, certified_radius

PLAN = plan_test(0.01, ErrorBudget(0.001, 0.001))  # the CLI defaults: N = 891
CAP = 4.0
CLAMP = (0.0, 1.0)


def one_layer(rng, n_in: int, labels: int) -> NetworkModel:
    """A dense layer whose logits all meet at a point of [0, 1]^n_in, so the
    certificate of a center in that cube binds below CAP, clamped or not."""
    weight = rng.normal(size=(labels, n_in))
    return NetworkModel((n_in,), labels, (Dense(weight, -weight @ rng.uniform(0, 1, n_in)),))


# the certificate is exact for one-layer models: their cases are the ones a
# sampler that draws past the radius fails
MODELS = {
    "dense-1d": lambda rng: one_layer(rng, 1, 2),
    "dense-2d": lambda rng: one_layer(rng, 2, 3),
    "mlp": lambda rng: random_dense_model(rng, 3, 3),
    "conv": toy_conv_model,
}


def center_for(rng, model: NetworkModel) -> np.ndarray:
    """A point of [0, 1]^n with about a third of its coordinates at 0 or 1,
    where the clamp cuts the ball."""
    n = math.prod(model.input_shape)
    center = rng.uniform(0, 1, n)
    ends = rng.random(n) < 0.3
    center[ends] = rng.integers(0, 2, int(ends.sum()))
    return center


@pytest.mark.parametrize("batch", [1, 7, 256])
@pytest.mark.parametrize("clamp", [None, CLAMP], ids=["free", "clamp"])
@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_no_failure_at_the_certified_radius(name, norm, clamp, batch):
    rng = np.random.default_rng([sorted(MODELS).index(name), NORMS.index(norm),
                                 clamp is None, batch])
    model = MODELS[name](rng)
    center = center_for(rng, model)
    label = int(predict(model, center.reshape((1,) + model.input_shape))[0])
    radius = certified_radius(model, center, label, CAP, clamp)
    assert radius is not None and 0 < radius <= CAP
    if name.startswith("dense"):
        assert radius < CAP  # the certificate binds, so a wider ball fails
    query = RobustnessQuery(model, BallSpec(center, radius, norm, clamp), {label}, PLAN,
                            seed=int(rng.integers(2 ** 63)), batch_size=batch)
    verdict = decide(query)
    assert (verdict.decision, verdict.successes) == (SAT, verdict.samples_drawn), radius


@pytest.mark.parametrize("n_in", [1, 2, 4, 16])
def test_one_layer_certificate_is_the_exact_linf_radius(n_in):
    # two labels t, j: the linf ball keeps t up to (D c + db) / |D|_1, with
    # D = W_t - W_j and db = b_t - b_j
    rng = np.random.default_rng(n_in)
    for _ in range(10):
        model = one_layer(rng, n_in, 2)
        center = rng.uniform(0, 1, n_in)
        label = int(predict(model, center[None])[0])
        (dense,) = model.layers
        d = dense.weight[label] - dense.weight[1 - label]
        exact = (d @ center + dense.bias[label] - dense.bias[1 - label]) / np.abs(d).sum()
        radius = certified_radius(model, center, label, CAP)
        assert exact * (1 - 1e-9) < radius <= exact * (1 + 1e-12)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("n", [1, 3, 64, 784])
def test_ball_box_holds_every_sample(norm, n):
    rng = np.random.default_rng(n)
    center = rng.uniform(-1, 1, n)
    for radius in (1e-300, 3e-7, 0.1, 1.0, 1e300):
        lo, hi = ball_box(center, radius)
        points = sample_batch(BallSpec(center, radius, norm), 5, 0, 2000 if n < 784 else 200)
        assert ((lo <= points) & (points <= hi)).all()
