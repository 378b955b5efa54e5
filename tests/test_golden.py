"""Golden hashes of the two numeric kernels, ball sampling and the forward
pass, and golden sub-seeds.  A faster kernel must reproduce every bit of
these outputs.

Inputs and weights come from the package's own Philox stream (pinned by the
known-answer vectors in test_prng.py), so the hashes do not depend on numpy's
random generators.  The l1, linf and forward hashes involve only exactly
rounded IEEE operations; the l2 hashes also pin the platform's log, exp and
pow, and were recorded with numpy 2.4 on x86-64 Linux.  Dense layers multiply
through the BLAS, but every product and partial sum of the split product is
exact, so the forward bits do not depend on the BLAS build, its kernels or
its thread count.  The forward hashes were re-recorded once, when dense
moved from a fixed-order column loop to that split product.

To re-record after a deliberate, documented change, print ``golden_hashes()``,
``golden_probes()``, ``golden_sweeps()`` or ``golden_model_files()``.
"""

import hashlib
import pathlib
import tempfile

import numpy as np
import pytest

from ewrobust.cli import main
from ewrobust.decision import RobustnessQuery, evaluate
from ewrobust.nn import (Conv2d, Dense, Flatten, MaxPool2d, NetworkModel, Normalize,
                         Relu, dump_model, forward)
from ewrobust.prng import derive_subseed, uniforms
from ewrobust.sampling import NORMS, BallSpec, sample_batch
from ewrobust.stats import ErrorBudget, plan_test

BATCH_SIZES = (1, 7, 256)

GOLDEN = {  # samples: recorded before the uniforms top-code fix; no bit moved
    "sample-l1/1": "0c3c6582283e39c348ca5012eba4723f",
    "sample-l1/7": "8d9ca0f6c869c53615bdd32480f1d5c3",
    "sample-l1/256": "c9c911b4799f780bbc3343229c2c5b22",
    "sample-l2/1": "89b010c77f29d22b3b22969201b7e62a",
    "sample-l2/7": "7c5bea3bed5e411600f9a6f4cb4b4a27",
    "sample-l2/256": "37864a0ee463eb4a7c5bcb9452b0c207",
    "sample-linf/1": "013f514a5af486d93a531ac65bc531e2",
    "sample-linf/7": "797d00a8701f314ffd0aa81a6bc8258d",
    "sample-linf/256": "f771ae65cd0841d2fdb283dabf644a65",
    # forward: recorded with the exact split dense product
    "forward-mlp/1": "344b0d3e904c157783fba939ea78e51f",
    "forward-mlp/7": "f3ca508054e7d3f8c81b742093b9e626",
    "forward-mlp/256": "05faafa6515f1b2d22f006b43e3da903",
    "forward-cnn/1": "6496ec4ee1bfd584f1321f461ac516c4",
    "forward-cnn/7": "4fec8b946cb0f1ce7da0930d2d1325b1",
    "forward-cnn/256": "58445379e19e75e735414b53f984ff15",
}


# (seed, k) -> derive_subseed(seed, k), at the 32- and 64-bit word edges and
# for the query seed of the benchmark's toy_radii workload (seed 1); recorded
# with the numpy-scalar Philox, before the kernel took Python ints
TOY_RADII_SEED = 8251574580129559595
GOLDEN_SUBSEEDS = {
    (0, 0): 0xf633989d0f07f8d6,
    (0, 2**32 - 1): 0xf3ce744ddfb9980f,
    (0, 2**32): 0xfd013b3904cdd514,
    (0, 2**64 - 1): 0xafd52b10394d270f,
    (2**32 - 1, 0): 0x7dc63fe7082814e9,
    (2**32 - 1, 2**32 - 1): 0xd3e5cd1c4ab7051e,
    (2**32 - 1, 2**32): 0x537144276f47d204,
    (2**32 - 1, 2**64 - 1): 0x12a82b9c8b936cdf,
    (2**32, 0): 0x00e94a673524f44e,
    (2**32, 2**32 - 1): 0x48967459b1ba3645,
    (2**32, 2**32): 0x893b100371c647f7,
    (2**32, 2**64 - 1): 0x812f33804c18ba30,
    (2**64 - 1, 0): 0x69d460b8422820ce,
    (2**64 - 1, 2**32 - 1): 0x4d18d7d2430ac65a,
    (2**64 - 1, 2**32): 0x482eacfb65af4561,
    (2**64 - 1, 2**64 - 1): 0xeec03824e4c1e0f1,
    (TOY_RADII_SEED, 0): 0xcc6ce26b7f414a18,
    (TOY_RADII_SEED, 1): 0x442a08c61763ec2e,
    (TOY_RADII_SEED, 299): 0xbfcc58d3d493dee6,
}

# (norm, clamp) -> hash of evaluate()'s probes (radius, decision, successes,
# samples_drawn) and r_star on the toy CNN, at the toy demo's statistics
# (N = 36) and --batch 16, so that UNSAT probes stop early; recorded before
# probes reused their point's plan and label mask.  The clamp changes no
# count of these l1 probes, so the two l1 hashes agree.
GOLDEN_PROBES = {
    ("1", None): "a10d9fb10476f5d11b675926995f4e0d",
    ("1", (0.0, 1.0)): "a10d9fb10476f5d11b675926995f4e0d",
    ("2", None): "e7a9d8351924d870ee073cac266b63c7",
    ("2", (0.0, 1.0)): "9bed668ccda3c7effc2924517c9b69bf",
    ("inf", None): "93d229159839abe07458514e40b7d954",
    ("inf", (0.0, 1.0)): "8c185dee600b7cff81f28461ec43094a",
}

# report -> first 32 hex digits of the SHA-256 of the whole report file,
# metadata lines included, of a real curve or radii run on the toy CNN at the
# toy demo's statistics (N = 36) and --batch 16.  The centers are rows of
# 1,024 candidates drawn as _probes' are.  The first three succeed with
# probability about 0.78-0.90 at radius 0.05 and the next six at 0.2, so
# P(SAT) is about 0.2-0.85 there and the verdicts depend on each probe's
# seed.  The first is predicted 9, so --omega 3,5 rejects it.  The last has
# gold label 3 where the model predicts 5, so radii flags it and
# --correct-only drops it.
# Recorded before each point's query was built once per sweep.
GOLDEN_SWEEPS = {
    "curve": "685c9e63cb5dc821f83f92fbcbdd795a",
    "curve-omega-correct-only": "28b4a5babf1022f7a4018903584f125a",
    "radii": "380e1562e6cde9cb5a458d079882272c",
}
# model file -> first 32 hex digits of the SHA-256 of the bytes written: the
# model file of _cnn, whose layers are of all six kinds, by dump_model, and
# `ewrobust gadget` on GADGET_CNF.  Recorded before layers checked their own
# fields and the JSON reader and writer went generic.
GOLDEN_MODEL_FILES = {
    "dump-cnn": "9da8cfa1fd05bb9736a51e01e78547c3",
    "gadget": "24a1af4692b967fb2aff1be1c98458c4",
}
GADGET_CNF = "c three clauses\np cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"
SWEEP_ROWS = (108, 435, 984, 406, 502, 750, 808, 222, 581, 56)
SWEEP_LABELS = (9, 5, 5, 5, 5, 5, 5, 5, 5, 3)
SWEEP_ARGV = {
    "curve": ["curve", "--radius", "0,0.05,0.2"],
    "curve-omega-correct-only": ["curve", "--radius", "0,0.05,0.2", "--omega", "3,5",
                                 "--correct-only"],
    "radii": ["radii", "--radius-max", "1", "--precision", "0.05"],
}


def _digest(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:32]


def _values(seed: int, shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """Deterministic values in (-scale, scale) with the given shape."""
    rows, cols = shape[0], int(np.prod(shape[1:]))
    u = uniforms(seed, np.arange(rows), cols)
    return (scale * (2.0 * u - 1.0)).reshape(shape)


def _mlp() -> NetworkModel:
    return NetworkModel((64,), 10, (
        Dense(_values(11, (32, 64), 0.3), _values(12, (1, 32))[0]),
        Relu(),
        Dense(_values(13, (16, 32), 0.3), _values(14, (1, 16))[0]),
        Relu(),
        Dense(_values(15, (10, 16), 0.3), _values(16, (1, 10))[0]),
    ))


def _cnn() -> NetworkModel:
    # (1,12,12) -> normalize -> conv 1->4 pad 1 -> pool 2 -> conv 4->8 stride 2 -> dense
    return NetworkModel((1, 12, 12), 10, (
        Normalize(np.array([0.25]), np.array([0.5])),
        Conv2d(_values(21, (4, 1, 3, 3), 0.5), _values(22, (1, 4))[0], (1, 1), (1, 1)),
        Relu(),
        MaxPool2d((2, 2), (2, 2)),
        Conv2d(_values(23, (8, 4, 3, 3), 0.3), _values(24, (1, 8))[0], (2, 2), (0, 0)),
        Relu(),
        Flatten(),
        Dense(_values(25, (10, 32), 0.3), _values(26, (1, 10))[0]),
    ))


def _toy() -> NetworkModel:
    # the toy demo's architecture: (1,8,8) -> conv 1->2 -> pool 2 -> dense 18->10
    return NetworkModel((1, 8, 8), 10, (
        Conv2d(_values(61, (2, 1, 3, 3), 2.0), _values(62, (1, 2))[0], (1, 1), (0, 0)),
        Relu(),
        MaxPool2d((2, 2), (2, 2)),
        Flatten(),
        Dense(_values(63, (10, 18), 2.0), _values(64, (1, 10))[0]),
    ))


def _sample(norm: str, count: int) -> np.ndarray:
    spec = BallSpec(_values(31, (1, 24))[0], 0.3, norm)
    return sample_batch(spec, 2024, 1000, count)


def _forward(name: str, count: int) -> np.ndarray:
    model = _mlp() if name == "mlp" else _cnn()
    inputs = _values(41, (256,) + model.input_shape)
    return forward(model, inputs[:count])


CASES = ([(f"sample-l{norm}", size) for norm in NORMS for size in BATCH_SIZES]
         + [(f"forward-{name}", size) for name in ("mlp", "cnn") for size in BATCH_SIZES])


def _output(case: str, size: int) -> np.ndarray:
    kind, what = case.split("-", 1)
    return _sample(what[1:], size) if kind == "sample" else _forward(what, size)


def _probes(norm: str, clamp) -> str:
    # row 50 of these candidates has the smallest logit margin (0.26), so
    # the probes give both verdicts on every norm
    center = 0.5 + 0.5 * _values(65, (64, 64))[50]
    query = RobustnessQuery(_toy(), BallSpec(center, 0.0, norm, clamp), {9},
                            plan_test(0.2, ErrorBudget(0.05, 0.05), 0.1), 2025, batch_size=16)
    result = evaluate(query, 1.0, 0.01)
    lines = [f"{r.hex()} {v.decision} {v.successes} {v.samples_drawn}"
             for r, v in result.probes] + [result.r_star.hex()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


def _sweep(report: str, workdir: pathlib.Path) -> str:
    centers = (0.5 + 0.5 * _values(65, (1024, 64)))[list(SWEEP_ROWS)]
    (workdir / "toy.json").write_text(dump_model(_toy()))
    (workdir / "inputs.csv").write_text(
        "".join(",".join(repr(float(v)) for v in row) + "\n" for row in centers))
    (workdir / "labels.txt").write_text("".join(f"{l}\n" for l in SWEEP_LABELS))
    out = workdir / f"{report}.csv"
    assert main([*SWEEP_ARGV[report], "--model", str(workdir / "toy.json"),
                 "--dataset", str(workdir / "inputs.csv"),
                 "--labels", str(workdir / "labels.txt"), "--shape", "1,8,8",
                 "--eps", "0.2", "--eps-prime", "0.1", "--alpha", "0.05",
                 "--beta", "0.05", "--batch", "16", "--seed", "2025",
                 "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()[:32]


def _model_file(name: str, workdir: pathlib.Path) -> str:
    if name == "dump-cnn":
        data = dump_model(_cnn()).encode()
    else:
        (workdir / "gadget.cnf").write_text(GADGET_CNF)
        assert main(["gadget", "--cnf", str(workdir / "gadget.cnf"),
                     "--out", str(workdir / "gadget.json")]) == 0
        data = (workdir / "gadget.json").read_bytes()
    return hashlib.sha256(data).hexdigest()[:32]


def golden_hashes() -> dict:
    return {f"{case}/{size}": _digest(_output(case, size)) for case, size in CASES}


def golden_probes() -> dict:
    return {key: _probes(*key) for key in GOLDEN_PROBES}


def golden_sweeps() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        return {report: _sweep(report, pathlib.Path(workdir)) for report in GOLDEN_SWEEPS}


def golden_model_files() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        return {name: _model_file(name, pathlib.Path(workdir)) for name in GOLDEN_MODEL_FILES}


@pytest.mark.parametrize("case,size", CASES)
def test_golden_hash(case, size):
    assert _digest(_output(case, size)) == GOLDEN[f"{case}/{size}"]


@pytest.mark.parametrize("seed,k", list(GOLDEN_SUBSEEDS))
def test_golden_subseed(seed, k):
    value = derive_subseed(seed, k)
    assert type(value) is int and value == GOLDEN_SUBSEEDS[seed, k]


@pytest.mark.parametrize("norm,clamp", list(GOLDEN_PROBES))
def test_golden_probes(norm, clamp):
    assert _probes(norm, clamp) == GOLDEN_PROBES[norm, clamp]


@pytest.mark.parametrize("report", list(GOLDEN_SWEEPS))
def test_golden_sweep_report(report, tmp_path):
    assert _sweep(report, tmp_path) == GOLDEN_SWEEPS[report]


@pytest.mark.parametrize("name", list(GOLDEN_MODEL_FILES))
def test_golden_model_file(name, tmp_path):
    assert _model_file(name, tmp_path) == GOLDEN_MODEL_FILES[name]
