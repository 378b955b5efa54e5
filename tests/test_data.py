"""Input files of `ewrobust.data`: a leading UTF-8 byte-order mark, which
spreadsheet exports write, is ignored; one anywhere else is an error."""

import numpy as np
import pytest

from ewrobust.data import load_dataset, load_inputs, load_labels

INPUTS = "0.5,1\n-2,3e-5\n"
LABELS = "1\n0\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_leading_byte_order_mark_is_ignored(tmp_path):
    plain = load_dataset(write(tmp_path / "x.csv", INPUTS), write(tmp_path / "y.txt", LABELS),
                         (2,), 2)
    marked = load_dataset(write(tmp_path / "bx.csv", "\ufeff" + INPUTS),
                          write(tmp_path / "by.txt", "\ufeff" + LABELS), (2,), 2)
    for want, got in zip(plain, marked):
        assert want.dtype == got.dtype and np.array_equal(want, got)


def test_byte_order_mark_after_the_start_is_an_error(tmp_path):
    with pytest.raises(ValueError):
        load_inputs(write(tmp_path / "x.csv", "0.5,1\n\ufeff-2,3e-5\n"), (2,))
    with pytest.raises(ValueError):
        load_labels(write(tmp_path / "y.txt", "1\n\ufeff0\n"), 2, 2)
