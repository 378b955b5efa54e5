import numpy as np
import pytest

from ewrobust.nn import Conv2d, Dense, Flatten, MaxPool2d, NetworkModel, Relu
from ewrobust.sampling import L1, L2, BallSpec
from ewrobust.stats import TestPlan

TestPlan.__test__ = False  # dataclass whose name looks like a test case


def random_dense_model(rng: np.random.Generator, n_in: int, n_out: int,
                       hidden: int = 8) -> NetworkModel:
    layers = (
        Dense(rng.normal(size=(hidden, n_in)), rng.normal(size=hidden)),
        Relu(),
        Dense(rng.normal(size=(n_out, hidden)), rng.normal(size=n_out)),
    )
    return NetworkModel((n_in,), n_out, layers)


def toy_conv_model(rng: np.random.Generator, num_labels: int = 10) -> NetworkModel:
    # (1, 8, 8) -> conv 3x3 -> (2, 6, 6) -> relu -> pool 2x2 -> (2, 3, 3) -> dense
    layers = (
        Conv2d(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2), (1, 1), (0, 0)),
        Relu(),
        MaxPool2d((2, 2), (2, 2)),
        Flatten(),
        Dense(rng.normal(size=(num_labels, 18)), rng.normal(size=num_labels)),
    )
    return NetworkModel((1, 8, 8), num_labels, layers)


def ball_norm(spec: BallSpec, points: np.ndarray) -> np.ndarray:
    """p-norm of each row's offset from the ball center."""
    delta = points - spec.center
    if spec.norm == L1:
        return np.abs(delta).sum(axis=1)
    if spec.norm == L2:
        return np.sqrt(np.einsum("ij,ij->i", delta, delta))
    return np.abs(delta).max(axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
