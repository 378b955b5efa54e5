"""Dataset loading and CSV report writing.

Datasets are desk-scale and inspectable: inputs as CSV (one flattened tensor
per row), labels as one integer per line, tensor shape declared by flag.  A
leading UTF-8 byte-order mark, which spreadsheet exports write, is ignored.
Reports are UTF-8 CSV with '#'-prefixed metadata lines on top; everything
below the metadata block (header plus data rows) is the reproducible body.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


def _load_rows(path: str, **loadtxt) -> np.ndarray:
    with warnings.catch_warnings():  # an empty file is reported below
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, encoding="utf-8-sig", **loadtxt)
    if rows.shape[0] == 0:
        raise ValueError(f"{path}: no rows")
    return rows


def load_inputs(path: str, shape: tuple[int, ...]) -> np.ndarray:
    rows = _load_rows(path, delimiter=",", dtype=np.float64, ndmin=2)
    width = math.prod(shape)
    if rows.shape[1] != width:
        raise ValueError(f"{path}: rows have {rows.shape[1]} values, "
                         f"shape {shape} needs {width}")
    if not np.isfinite(rows).all():
        raise ValueError(f"{path}: non-finite input value")
    return rows.reshape((rows.shape[0],) + shape)


def load_labels(path: str, count: int, num_labels: int) -> np.ndarray:
    labels = _load_rows(path, dtype=np.int64, ndmin=1)
    if labels.shape[0] != count:
        raise ValueError(f"{path}: {labels.shape[0]} labels for {count} inputs")
    if labels.min() < 0 or labels.max() >= num_labels:
        raise ValueError(f"{path}: label outside [0, {num_labels})")
    return labels


def load_dataset(inputs_path: str, labels_path: str, shape: tuple[int, ...],
                 num_labels: int) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, labels): inputs of the given shape, one gold label per row."""
    inputs = load_inputs(inputs_path, shape)
    return inputs, load_labels(labels_path, len(inputs), num_labels)


def fmt(value) -> str:
    """Canonical cell text: shortest round-trip float repr (np.float64 too),
    '' for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_report(path_or_file, metadata: list[str], header: list[str],
                 rows: list[list]) -> None:
    """Metadata comments, then header, then rows; newline-terminated."""
    lines = [f"# {m}" for m in metadata]
    lines.append(",".join(header))
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
