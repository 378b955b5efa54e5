#!/usr/bin/env python3
"""Seeded input generator for the benchmark workloads.

    python3 perfbench/gen.py --workload mlp_decide --seed 1 --out DIR [--size tiny]

Writes the workload's model (JSON model format), its centers, dataset and
labels (CSV / one label per line) into DIR, plus ``manifest.json``: the list
of ``ewrobust`` CLI calls one pass of the workload makes, each with the
report path it writes and, for ``decide`` calls, the verdict it must return.
The same (workload, seed, size) always writes the same files.

Verdicts are made independent of the CLI's sampling seed by construction:
a SAT radius is a quarter of the center's logit margin divided by a Lipschitz
bound of the network, so every point of the ball keeps the center's label;
an UNSAT radius is so large that a Monte Carlo estimate made here, with this
file's own reference forward pass, misclassifies at least 70 % of the ball.

This module uses numpy only and never imports ewrobust, so a defect in the
program cannot bend the inputs that check it.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

import numpy as np

WORKLOADS = ("mlp_decide", "cnn_decide", "toy_radii")

# statistics of the toy demo (scripts/run_toy_curve.py): N = 36
TOY_STATS = ["--eps", "0.2", "--eps-prime", "0.1", "--alpha", "0.05", "--beta", "0.05"]
SAT_MARGIN_SHARE = 0.25   # share of the logit margin a SAT ball may use up
UNSAT_SCALE = 4.0         # per-coordinate noise scale of an UNSAT ball
UNSAT_MIN_MISS = 0.7      # least estimated misclassified share of an UNSAT ball
MC_SAMPLES = 300
MAX_CANDIDATES = 400


# --- models ------------------------------------------------------------------

def dense(rng, n_in, n_out, scale=None):
    scale = math.sqrt(2.0 / n_in) if scale is None else scale
    return {"kind": "dense", "weight": rng.normal(size=(n_out, n_in)) * scale,
            "bias": rng.normal(size=n_out) * 0.1}


def conv(rng, c_in, c_out, scale=None):
    scale = math.sqrt(2.0 / (9 * c_in)) if scale is None else scale
    return {"kind": "conv2d", "weight": rng.normal(size=(c_out, c_in, 3, 3)) * scale,
            "bias": rng.normal(size=c_out) * 0.1, "stride": [1, 1], "padding": [0, 0]}


def mlp_model(rng, tiny):
    dims = (64, 16, 16, 10) if tiny else (784, 100, 100, 10)
    layers = []
    for a, b in zip(dims[:-1], dims[1:]):
        layers += [dense(rng, a, b), {"kind": "relu"}]
    return (dims[0],), layers[:-1]


def cnn_model(rng, tiny):
    side, c1, c2 = (10, 2, 4) if tiny else (28, 8, 16)
    pooled = (side - 4) // 2
    return (1, side, side), [
        conv(rng, 1, c1), {"kind": "relu"}, conv(rng, c1, c2), {"kind": "relu"},
        {"kind": "maxpool2d", "window": [2, 2], "stride": [2, 2]}, {"kind": "flatten"},
        dense(rng, c2 * pooled * pooled, 10)]


def toy_model(rng):
    # the architecture and unit-normal weights of scripts/run_toy_curve.py
    return (1, 8, 8), [
        conv(rng, 1, 2, scale=1.0), {"kind": "relu"},
        {"kind": "maxpool2d", "window": [2, 2], "stride": [2, 2]}, {"kind": "flatten"},
        dense(rng, 18, 10, scale=1.0)]


def balance_labels(rng, input_shape, layers):
    """Shift the output bias so every label is about equally likely on the
    input distribution; random networks otherwise send nearly all inputs to
    one label, and no center would have a misclassifiable ball."""
    calibration = rng.uniform(0.0, 1.0, size=(256,) + input_shape)
    layers[-1]["bias"] = layers[-1]["bias"] - forward(layers, calibration).mean(axis=0)


def model_json(input_shape, layers) -> str:
    def plain(layer):
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in layer.items()}
    return json.dumps({"input_shape": list(input_shape), "num_labels": 10,
                       "layers": [plain(l) for l in layers]})


# --- reference forward pass and Lipschitz bound ------------------------------

def forward(layers, x):
    """Logits of a batch (rows, *input_shape), with BLAS and einsum."""
    for layer in layers:
        kind = layer["kind"]
        if kind == "dense":
            x = x @ layer["weight"].T + layer["bias"]
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        elif kind == "conv2d":
            w = layer["weight"]
            win = np.lib.stride_tricks.sliding_window_view(x, w.shape[2:], axis=(2, 3))
            r, _, oh, ow = win.shape[:4]
            cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(r * oh * ow, -1)
            x = (cols @ w.reshape(w.shape[0], -1).T + layer["bias"])
            x = x.reshape(r, oh, ow, -1).transpose(0, 3, 1, 2)
        elif kind == "maxpool2d":
            r, c, h, w = x.shape
            x = x[:, :, :h // 2 * 2, :w // 2 * 2].reshape(r, c, h // 2, 2, w // 2, 2)
            x = x.max(axis=(3, 5))
        elif kind == "flatten":
            x = x.reshape(x.shape[0], -1)
    return x


def lipschitz_l2(layers) -> float:
    """Upper bound on the l2 Lipschitz constant of the logits."""
    bound = 1.0
    for layer in layers:
        if layer["kind"] == "dense":
            bound *= np.linalg.norm(layer["weight"], 2)
        elif layer["kind"] == "conv2d":
            w = layer["weight"]
            # each input pixel feeds at most kh*kw patches of a stride-1 conv
            patches = math.sqrt(w.shape[2] * w.shape[3])
            bound *= patches * np.linalg.norm(w.reshape(w.shape[0], -1), 2)
    return bound


def margins(logits):
    top2 = np.sort(logits, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


# --- ball samplers (own RNG; only used to estimate misclassified shares) -----

def ball(rng, center, radius, norm, count):
    n = center.size
    if norm == "inf":
        delta = rng.uniform(-1.0, 1.0, size=(count, n))
    elif norm == "2":
        g = rng.normal(size=(count, n))
        delta = g / np.linalg.norm(g, axis=1, keepdims=True)
        delta *= rng.uniform(size=(count, 1)) ** (1.0 / n)
    else:
        e = rng.exponential(size=(count, n + 1))
        delta = e[:, :n] / e.sum(axis=1, keepdims=True)
        delta *= rng.choice((-1.0, 1.0), size=(count, n))
    return center + radius * delta


def norm_factor(norm, n):
    """Largest l2 length of a point of the unit ball of the given norm."""
    return math.sqrt(n) if norm == "inf" else 1.0


def unsat_radius(norm, n):
    """Radius whose ball has per-coordinate spread about UNSAT_SCALE."""
    return UNSAT_SCALE * {"inf": 1.0, "2": math.sqrt(n), "1": float(n)}[norm]


def pick_center(rng, input_shape, layers, norms):
    """A center with a clear margin whose UNSAT balls misclassify at least
    UNSAT_MIN_MISS of their volume for every norm, plus its radii."""
    n = math.prod(input_shape)
    lip = lipschitz_l2(layers)
    for _ in range(MAX_CANDIDATES):
        center = rng.uniform(0.0, 1.0, size=n)
        logits = forward(layers, center.reshape((1,) + input_shape))
        margin = float(margins(logits)[0])
        if margin < 1e-3:
            continue
        label = int(np.argmax(logits[0]))
        radii = {}
        for norm in norms:
            r_unsat = unsat_radius(norm, n)
            points = ball(rng, center, r_unsat, norm, MC_SAMPLES)
            miss = np.mean(np.argmax(forward(layers, points.reshape((-1,) + input_shape)),
                                     axis=1) != label)
            if miss < UNSAT_MIN_MISS:
                break
            r_sat = SAT_MARGIN_SHARE * margin / (math.sqrt(2.0) * lip * norm_factor(norm, n))
            radii[norm] = (r_sat, r_unsat)
        else:
            return center, radii
    raise RuntimeError("no center met the margin and misclassification targets")


# --- workloads ---------------------------------------------------------------

def write_csv(path, rows):
    np.savetxt(path, np.atleast_2d(rows), delimiter=",", fmt="%.17g")


def decide_calls(out, model_path, center, radii, stats, query_seed, repeat=1):
    center_path = out / "query_center.csv"
    write_csv(center_path, center)
    calls = []
    for norm, (r_sat, r_unsat) in radii.items():
        for expect, radius in (("SAT", r_sat), ("UNSAT", r_unsat)):
            for k in range(repeat):
                report = out / f"query_{norm}_{expect.lower()}_{k}.csv"
                argv = ["decide", "--model", str(model_path), "--input", str(center_path),
                        "--radius", repr(float(radius)), "--norm", norm,
                        "--seed", str(query_seed), "--out", str(report)] + stats
                calls.append({"kind": "decide", "argv": argv, "out": str(report),
                              "expect": expect})
    return calls


def generate(workload: str, seed: int, out: pathlib.Path, tiny: bool = False) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    query_seed = int(rng.integers(0, 2 ** 63))
    if workload == "mlp_decide":
        shape, layers = mlp_model(rng, tiny)
        norms, stats = ("inf", "1", "2"), ["--eps", "0.01"]
    elif workload == "cnn_decide":
        shape, layers = cnn_model(rng, tiny)
        norms, stats = ("inf",), ["--eps", "0.01"]
    else:
        shape, layers = toy_model(rng)
        norms, stats = ("inf",), TOY_STATS
    balance_labels(rng, shape, layers)
    model_path = out / "model.json"
    model_path.write_text(model_json(shape, layers))
    center, radii = pick_center(rng, shape, layers, norms)
    manifest = {"workload": workload, "seed": seed, "size": "tiny" if tiny else "full",
                "models": [str(model_path)], "shape": list(shape),
                "centers": [str(out / "query_center.csv")], "datasets": []}
    if workload != "toy_radii":
        manifest["calls"] = decide_calls(out, model_path, center, radii,
                                         stats, query_seed)
        return manifest

    # toy_radii: a radii sweep over a generated dataset, plus a few short
    # decide queries whose verdict times show the per-call overhead
    points = 24 if tiny else 300
    inputs = rng.uniform(0.0, 1.0, size=(4 * points, 64))
    logits = forward(layers, inputs.reshape((-1,) + shape))
    keep = margins(logits) > 1e-6  # no near-ties, so every label is unambiguous
    inputs, labels = inputs[keep][:points], np.argmax(logits[keep], axis=1)[:points]
    data_path, labels_path = out / "inputs.csv", out / "labels.txt"
    write_csv(data_path, inputs)
    labels_path.write_text("".join(f"{l}\n" for l in labels))
    manifest["datasets"] = [[str(data_path), str(labels_path)]]
    radius_max, precision = ("1", "0.05") if tiny else ("1", "0.001")
    report = out / "radii.csv"
    calls = [{"kind": "radii", "out": str(report), "points": int(len(labels)),
              "radius_max": float(radius_max), "precision": float(precision),
              "argv": ["radii", "--model", str(model_path), "--dataset", str(data_path),
                       "--labels", str(labels_path), "--shape", "1,8,8", "--norm", "inf",
                       "--radius-max", radius_max, "--precision", precision,
                       "--seed", str(query_seed), "--workers", "2", "--out", str(report)]
              + TOY_STATS}]
    calls += decide_calls(out, model_path, center, radii, stats, query_seed,
                          repeat=2 if tiny else 5)
    manifest["calls"] = calls
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated files")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out).resolve()
    manifest = generate(args.workload, args.seed, out, tiny=args.size == "tiny")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
