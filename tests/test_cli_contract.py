"""The CLI's exit-code contract: every argv ends in 0 (success), 2 (usage
error) or 3 (runtime error), with no traceback and no warning.

The fuzz test starts from one valid argv per subcommand and applies a few
mutations: a flag dropped, or set to a value from a small list of valid,
invalid and non-finite candidates.  Worker counts, sample counts, grids and
datasets stay tiny, so no example starts many threads or allocates much.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewrobust import sampling
from ewrobust.cli import main
from ewrobust.gadgets import threshold_classifier
from ewrobust.nn import dump_model

# model documents that once crashed `decide` with a TypeError or RecursionError
BAD_MODELS = {
    "int_layer": '{"input_shape": [2], "num_labels": 2, "layers": [5]}',
    "null_layer": '{"input_shape": [2], "num_labels": 2, "layers": [null]}',
    "list_layer": '{"input_shape": [2], "num_labels": 2, "layers": [["kind"]]}',
    "bool_shape": ('{"input_shape": [true, 2], "num_labels": 2, "layers": [{"kind": "flatten"}, '
                   '{"kind": "dense", "weight": [[1, 0], [0, 1]], "bias": [0, 0]}]}'),
    "deep": "[" * 100_000 + "]" * 100_000,
}
DROP = object()    # mutation: leave the flag out
SWITCH = object()  # a flag that takes no value


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {
        "model": dump_model(threshold_classifier(2, 0, 0.5)),  # label 0 iff x0 <= 0.5
        "center": "0.0,0.0\n",
        "inputs": "0.0,0.0\n0.2,-0.3\n0.9,0.1\n-0.4,0.6\n",
        "labels": "0\n0\n1\n0\n",
        "cnf": "p cnf 2 1\n1 2 0\n",
        "bad_cnf": "p cnf 2 1\n1 2\n",
        "empty": "",
        **BAD_MODELS,
    }
    for name, text in paths.items():
        (root / name).write_text(text)
    out = {name: str(root / name) for name in paths}
    out["missing"] = str(root / "missing")
    out["dir"] = str(root)
    out["out"] = str(root / "report.csv")
    return out


def run(argv):
    """(exit code, stderr) of one in-process CLI call; a warning fails it."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, err.getvalue()


def values(f):
    """Candidate values of every flag: valid, invalid and non-finite ones."""
    return {
        "--model": (f["model"], f["empty"], f["missing"], f["cnf"],
                    *(f[name] for name in BAD_MODELS)),
        "--input": (f["center"], f["inputs"], f["empty"], f["missing"]),
        "--dataset": (f["inputs"], f["center"], f["empty"], f["missing"]),
        "--labels": (f["labels"], f["empty"], f["inputs"], f["missing"]),
        "--cnf": (f["cnf"], f["bad_cnf"], f["empty"], f["missing"], f["model"]),
        "--out": (f["out"], f["dir"]),
        "--shape": ("2", "1,2", "2,1", "3", "0", "-1", "x", ""),
        "--index": ("0", "3", "-1", "4", "x"),
        "--omega": ("0", "1", "0,1", "2", "-1", "x", ""),
        "--norm": ("inf", "1", "2", "3", "x"),
        "--seed": ("0", "7", "-1", str(2**64 - 1), str(2**64), "1.5", "x"),
        "--clamp": ("-1,1", "0,1", "1,0", "nan,1", "-inf,inf", "1", "x"),
        "--eps": ("0.2", "0.4", "0", "1", "-0.5", "nan", "inf", "x"),
        "--eps-prime": ("0.1", "0.3", "0", "0.5", "nan", "x"),
        "--alpha": ("0.05", "0.2", "0", "0.5", "nan", "x", "5e-324", "1e-320"),
        "--beta": ("0.05", "0.2", "0", "0.5", "-1", "nan", "x"),
        "--batch": ("7", "256", "0", "-3", "1.5", "x"),
        "--workers": ("1", "2", "0", "-1", "x"),
        "--timings": (SWITCH,),
        "--correct-only": (SWITCH,),
        "--radius": ("0", "0.2", "1e-3", "-1", "nan", "inf", "1e999", "x", ""),
        "--radius-list": ("0.1,0.3", "0", "0.2,-1", "nan", "inf", "x", ""),
        "--radius-grid": ("0:0.4:0.2", "0:inf:1", "0:nan:1", "inf:1:1", "1:0:0.5",
                          "0:1:0", "0:1:-1", "0:1e300:1e-300", "a:b:c", "0:1"),
        "--radius-max": ("1", "4", "0", "-1", "nan", "inf", "x"),
        "--precision": ("0.5", "0.25", "0", "-1", "nan", "inf", "x"),
        "--count": ("0", "3", "-1", "1.5", "x"),
        "--start": ("0", "5", "-1", str(2**64 - 2), str(2**64), "x"),
        "--bogus": ("1",),
    }


COMMON = ["--model", "--dataset", "--labels", "--shape", "--omega", "--norm", "--seed",
          "--clamp", "--out", "--bogus"]
POINT = ["--input", "--index"]
STATS = ["--eps", "--eps-prime", "--alpha", "--beta", "--batch"]
OPTIONS = {
    "decide": COMMON + POINT + STATS + ["--timings", "--radius"],
    "evaluate": COMMON + POINT + STATS + ["--radius-max", "--precision"],
    "curve": COMMON + STATS + ["--workers", "--radius-list", "--radius-grid",
                               "--correct-only"],
    "radii": COMMON + STATS + ["--workers", "--radius-max", "--precision"],
    "gadget": ["--cnf", "--out", "--bogus"],
    "sample": ["--norm", "--radius", "--count", "--seed", "--start", "--shape", "--input",
               "--clamp", "--out", "--bogus"],
}


def base(f, command):
    """A valid argv of each subcommand, as a flag -> value dict."""
    point = {"--model": f["model"], "--input": f["center"]}
    sweep = {"--model": f["model"], "--dataset": f["inputs"], "--labels": f["labels"],
             "--shape": "2", "--workers": "2"}
    stats = {"--eps": "0.2", "--eps-prime": "0.1", "--out": f["out"]}
    return {
        "decide": {**point, **stats, "--radius": "0.2"},
        "evaluate": {**point, **stats, "--radius-max": "1", "--precision": "0.25"},
        "curve": {**sweep, **stats, "--radius-list": "0.1,0.3"},
        "radii": {**sweep, **stats, "--radius-max": "1", "--precision": "0.25"},
        "gadget": {"--cnf": f["cnf"], "--out": f["out"]},
        "sample": {"--norm": "2", "--radius": "1", "--count": "3", "--shape": "2",
                   "--out": f["out"]},
    }[command]


def changed(files, flags, change):
    """flags with the flag, value pairs of change set: a value may name a
    file of files, or be DROP."""
    for flag, value in zip(change[::2], change[1::2]):
        flags[flag] = files.get(value, value) if isinstance(value, str) else value
    return flags


def to_argv(command, flags):
    argv = [command]
    for flag, value in flags.items():
        flag = flag.removesuffix("-list")  # curve's --radius takes a list
        if value is SWITCH:
            argv.append(flag)
        elif value is not DROP:
            argv.append(f"{flag}={value}")  # also for values that start with "-"
    return argv


@st.composite
def argvs(draw, f):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    flags = base(f, command)
    candidates = values(f)
    for flag in draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=4)):
        flags[flag] = draw(st.sampled_from((DROP,) + candidates[flag]))
    return to_argv(command, flags)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_base_argv_succeeds(files, command):
    rc, err = run(to_argv(command, base(files, command)))
    assert rc == 0, err


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_exits_0_2_or_3(files, data):
    argv = data.draw(argvs(files))
    rc, err = run(argv)
    assert rc in (0, 2, 3), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)


# the normal quantile of a deep-subnormal alpha once overflowed math.exp
@pytest.mark.parametrize("alpha", ["5e-324", "1e-320"])
@pytest.mark.parametrize("command", ["decide", "evaluate"])
def test_deep_subnormal_alpha_exits_0_or_2(files, command, alpha):
    argv = to_argv(command, {**base(files, command), "--eps": "0.5", "--alpha": alpha})
    rc, err = run(argv)
    assert rc in (0, 2), (argv, err)
    assert "Traceback" not in err


# one case per defect measured before the argument boundary existed
USAGE_ERRORS = {
    "seed -1": ["decide", "--seed", "-1"],
    "seed 2**64": ["decide", "--seed", str(2**64)],
    "radius nan": ["decide", "--radius", "nan"],
    "radius inf": ["decide", "--radius", "inf"],
    "eps nan": ["decide", "--eps", "nan"],
    "alpha nan": ["decide", "--alpha", "nan"],
    "batch 0": ["decide", "--batch", "0"],
    "omega outside the model": ["decide", "--omega", "5"],
    "evaluate omega outside the model": ["evaluate", "--omega", "5"],
    "curve omega outside the model": ["curve", "--omega", "0,5"],
    "radii omega outside the model": ["radii", "--omega", "5"],
    "clamp nan": ["decide", "--clamp", "nan,1"],
    "clamp empty": ["decide", "--clamp", ""],  # once read as no clamp
    "index -1": ["decide", "--input", DROP, "--dataset", "inputs", "--index", "-1"],
    "precision 0": ["evaluate", "--precision", "0"],
    "radius-max nan": ["evaluate", "--radius-max", "nan"],
    "grid 0:inf:1": ["curve", "--radius-grid", "0:inf:1"],
    "grid 0:nan:1": ["curve", "--radius-grid", "0:nan:1"],
    "grid of 10**18 radii": ["curve", "--radius-grid", "0:1e9:1e-9"],
    "grid below 0": ["curve", "--radius-grid", "-1:1:0.5"],
    "curve radius inf": ["curve", "--radius", "0.1,inf"],
    "workers 0": ["curve", "--workers", "0"],
    "radii workers 0": ["radii", "--workers", "0"],
    "sample past 2**64": ["sample", "--start", str(2**64 - 1), "--count", "2"],
    "sample radius nan": ["sample", "--radius", "nan"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_bad_value_is_usage_error(files, case, monkeypatch):
    command, *change = USAGE_ERRORS[case]
    argv = to_argv(command, changed(files, base(files, command), change))
    monkeypatch.setattr(sampling, "sample_batch", None)  # raised before any sampling
    rc, err = run(argv)
    assert rc == 2, (argv, err)
    assert err.startswith("usage error:") and "Traceback" not in err


# each is a usage error that needs no file: it is reported before the (here
# missing) model or center file is opened
BEFORE_FILES = {
    "decide shape": ["decide", "--shape", "x"],
    "decide omega": ["decide", "--omega", "x"],
    "decide clamp": ["decide", "--clamp", "1,0"],
    "decide eps": ["decide", "--eps", "2"],
    "decide eps-prime": ["decide", "--eps-prime", "0.5"],
    "decide alpha": ["decide", "--alpha", "0"],
    "decide beta": ["decide", "--beta", "nan"],
    "decide no center": ["decide", "--input", DROP],
    "decide dataset without index": ["decide", "--input", DROP, "--dataset", "inputs"],
    "decide index -1": ["decide", "--input", DROP, "--dataset", "inputs", "--index", "-1"],
    # a center from --input once silently overrode these three
    "decide input with dataset": ["decide", "--dataset", "inputs"],
    "decide input with index": ["decide", "--index", "0"],
    "decide input with labels": ["decide", "--labels", "labels"],
    "evaluate input with dataset and index": ["evaluate", "--dataset", "inputs", "--index", "0"],
    "evaluate clamp": ["evaluate", "--clamp", "nan,1"],
    "evaluate omega": ["evaluate", "--omega", ""],
    "evaluate no center": ["evaluate", "--input", DROP],
    "curve grid": ["curve", "--radius-grid", "a:b:c"],
    "curve radius list": ["curve", "--radius-list", "0.1,inf"],
    "curve no radius": ["curve", "--radius-list", DROP],
    # --radius-grid once silently replaced --radius
    "curve radius and grid": ["curve", "--radius-grid", "0:0.02:0.01"],
    "curve without labels": ["curve", "--labels", DROP],
    "curve shape": ["curve", "--shape", "0"],
    "curve omega": ["curve", "--omega", "x"],
    "curve clamp": ["curve", "--clamp", "1,0"],
    "curve eps": ["curve", "--eps", "1"],
    "radii without dataset": ["radii", "--dataset", DROP],
    "radii omega": ["radii", "--omega", "-x"],
    "radii clamp": ["radii", "--clamp", "x"],
    "radii beta": ["radii", "--beta", "0.5"],
    "sample clamp": ["sample", "--clamp", "1,0", "--input", "missing"],
}


@pytest.mark.parametrize("case", sorted(BEFORE_FILES))
def test_file_free_check_precedes_file_reads(files, case):
    command, *change = BEFORE_FILES[case]
    flags = {**base(files, command), "--model": files["missing"]}
    if command == "sample":
        flags.pop("--model")
    rc, err = run(to_argv(command, changed(files, flags, change)))
    assert rc == 2, (flags, err)
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_bad_model_file_is_runtime_error(files, name):
    rc, err = run(to_argv("decide", {**base(files, "decide"), "--model": files[name]}))
    assert rc == 3, err
    assert err.startswith("error:") and "Traceback" not in err


def test_sample_has_no_radial_flag(files):
    rc, err = run(to_argv("sample", base(files, "sample")) + ["--radial", "gamma"])
    assert rc == 2 and "unrecognized arguments: --radial gamma" in err, err


@pytest.mark.parametrize("command,flag", [
    ("evaluate", "--timings"), ("curve", "--timings"), ("radii", "--timings"),
    ("curve", "--input"), ("curve", "--index"), ("radii", "--input"), ("radii", "--index")])
def test_unread_flag_is_usage_error(files, command, flag):
    # a flag a subcommand would ignore is rejected, not accepted silently
    rc, err = run(to_argv(command, {**base(files, command), flag: values(files)[flag][0]}))
    assert rc == 2 and f"unrecognized arguments: {flag}" in err, err


@pytest.mark.parametrize("command,flag,prefix", [
    ("decide", "--model", "--mod"), ("decide", "--input", "--inp"),
    ("decide", "--radius", "--rad"), ("decide", "--out", "--ou"),
    ("radii", "--shape", "--sh"), ("radii", "--radius-max", "--radius-m"),
    ("radii", "--precision", "--prec"), ("radii", "--workers", "--w")])
def test_flag_prefix_is_usage_error(files, command, flag, prefix):
    # argparse takes an unambiguous prefix of a flag for the flag by default
    flags = base(files, command)
    value = flags.pop(flag)
    rc, err = run(to_argv(command, flags) + [prefix, value])
    assert rc == 2 and err.startswith("usage error:"), err


@pytest.mark.parametrize("flag", ["--input", "--dataset", "--labels"])
def test_empty_csv_says_no_rows(files, flag):
    command = "decide" if flag == "--input" else "curve"
    rc, err = run(to_argv(command, base(files, command)) + [flag, files["empty"]])
    assert rc == 3
    assert err == f"error: {files['empty']}: no rows\n"


def test_huge_grid_names_its_length(files):
    # refused before any list is built: 10**18 + 1 radii
    rc, err = run(to_argv("curve", base(files, "curve")) + ["--radius-grid", "0:1e9:1e-9"])
    assert rc == 2 and "has 1000000000000000001 radii" in err, err


def test_descending_grid_says_hi_is_below_lo(files):
    # not "no radii given", which names flags the call did pass
    rc, err = run(to_argv("curve", base(files, "curve")) + ["--radius-grid", "1:0:0.1"])
    assert (rc, err) == (2, "usage error: ewrobust curve: argument --radius-grid: "
                            "'1:0:0.1' has hi below lo\n"), err


@pytest.mark.parametrize("argv,printed", [
    (["--version"], "ewrobust 0.1.0\n"), (["decide", "--help"], "usage: ewrobust decide")],
    ids=["version", "decide help"])
def test_version_and_help_return_0(argv, printed):
    # main returns the exit code, as for every other argv, and raises nothing
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0
    assert out.getvalue().startswith(printed), out.getvalue()


def test_memory_error_without_message_says_out_of_memory(files, monkeypatch):
    # a failed Python allocation raises MemoryError() with an empty message
    def exhausted(path):
        raise MemoryError()
    monkeypatch.setattr("ewrobust.cli._load_model_file", exhausted)
    rc, err = run(to_argv("decide", base(files, "decide")))
    assert (rc, err) == (3, "error: out of memory\n")


def test_unallocatable_shape_is_runtime_error():
    # 2**50 doubles exceed any address space, so the allocation fails at once
    rc, err = run(["sample", "--norm", "2", "--radius", "1", "--count", "0",
                   "--shape", str(2**50)])
    assert rc == 3 and err.startswith("error: ")
