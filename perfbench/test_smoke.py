"""Smoke test of the benchmark itself:

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at the tiny size, untraced and traced, checks that each
run prints every metric of BENCHMARK.json with its unit, and checks that the
gate trips (and the exit code turns non-zero) on a wrong expected verdict.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for k in ("end_to_end", "per_layer") for m in SPEC[k])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_measure_every_per_layer_metric():
    """Each per-layer metric is measured (non-zero) on at least one workload."""
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    measured = set()
    for workload in run.WORKLOADS:
        result = bench(workload, 1)
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        measured |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    # the tracing overhead is a difference and may read 0 at this size
    assert set(expected) - measured <= {"trace.overhead_s"}


def test_gate_trips_on_wrong_expected_verdict(monkeypatch, capsys):
    generate = run.generate

    def wrong_verdict(*args):
        manifest = generate(*args)
        call = next(c for c in manifest["calls"] if c.get("expect") == "SAT")
        call["expect"] = "UNSAT"
        return manifest

    monkeypatch.setattr(run, "generate", wrong_verdict)
    rc = run.main(["--workload", "cnn_decide", "--seed", "5", "--seconds", "0.1",
                   "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert not result["correct"] and result["failed"] >= 1


def test_bare_directory_fails_without_result():
    """Without src/ next to it the benchmark exits non-zero and prints no result."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mlp_decide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
