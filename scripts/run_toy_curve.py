#!/usr/bin/env python3
"""End-to-end demo: build a small random convolutional classifier and a
synthetic dataset, then produce a fraction-SAT robustness curve with the CLI.

Writes model.json, inputs.csv, labels.txt and curve.csv into --workdir and
prints the curve.  Rerunning with the same seed reproduces every output file
byte for byte.
"""

import argparse
import pathlib
import sys

import numpy as np

from ewrobust.cli import main as cli_main
from ewrobust.nn import (Conv2d, Dense, Flatten, MaxPool2d, NetworkModel,
                         Relu, dump_model, predict)


def build_model(rng: np.random.Generator, num_labels: int = 10) -> NetworkModel:
    layers = (
        Conv2d(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2), (1, 1), (0, 0)),
        Relu(),
        MaxPool2d((2, 2), (2, 2)),
        Flatten(),
        Dense(rng.normal(size=(num_labels, 18)), rng.normal(size=num_labels)),
    )
    return NetworkModel((1, 8, 8), num_labels, layers)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="toy_curve_out")
    parser.add_argument("--points", type=int, default=100)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--radius-grid", default="0.0:0.3:0.05")
    parser.add_argument("--eps", type=float, default=0.2)
    args = parser.parse_args()

    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    model = build_model(rng)
    (workdir / "model.json").write_text(dump_model(model))

    inputs = rng.uniform(0.0, 1.0, size=(args.points, 64))
    labels = predict(model, inputs.reshape(args.points, 1, 8, 8))
    np.savetxt(workdir / "inputs.csv", inputs, delimiter=",")
    (workdir / "labels.txt").write_text("".join(f"{l}\n" for l in labels))

    curve_path = workdir / "curve.csv"
    rc = cli_main(["curve", "--model", str(workdir / "model.json"),
                   "--dataset", str(workdir / "inputs.csv"),
                   "--labels", str(workdir / "labels.txt"),
                   "--shape", "1,8,8", "--norm", "inf",
                   "--radius-grid", args.radius_grid,
                   "--eps", str(args.eps), "--eps-prime", str(args.eps / 2),
                   "--alpha", "0.05", "--beta", "0.05",
                   "--seed", str(args.seed),
                   "--out", str(curve_path)])
    if rc != 0:
        return rc
    print(curve_path.read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
