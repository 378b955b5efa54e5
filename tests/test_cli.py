import json
import sys
import threading

import numpy as np
import pytest

from conftest import toy_conv_model
from ewrobust import cli, decision, sampling, stats
from ewrobust.cli import main
from ewrobust.decision import SAT, UNSAT, Verdict
from ewrobust.gadgets import CnfFormula, build_gadget, threshold_classifier
from ewrobust.nn import Dense, NetworkModel, Relu, dump_model, load_model, predict


@pytest.fixture
def threshold_model_file(tmp_path):
    # label 0 iff x0 <= 0.5 (2 inputs)
    path = tmp_path / "model.json"
    path.write_text(dump_model(threshold_classifier(2, 0, 0.5)))
    return str(path)


@pytest.fixture
def center_file(tmp_path):
    path = tmp_path / "center.csv"
    path.write_text("0.0,0.0\n")
    return str(path)


@pytest.fixture
def dataset_files(tmp_path):
    rng = np.random.default_rng(1)
    inputs = rng.uniform(-1.0, 1.0, size=(12, 2))
    labels = (inputs[:, 0] > 0.5).astype(int)  # matches the threshold model
    inp = tmp_path / "inputs.csv"
    lab = tmp_path / "labels.txt"
    np.savetxt(inp, inputs, delimiter=",")
    lab.write_text("".join(f"{l}\n" for l in labels))
    return str(inp), str(lab)


def fake_decide(monkeypatch, r_true):
    """Replace decision.decide by a noiseless oracle: SAT iff the probe radius
    is at most r_true(center)."""
    def decide(query):
        sat = query.ball.radius <= r_true(query.ball.center)
        return Verdict(SAT if sat else UNSAT, 0, 0, query.plan,
                       "early_accept" if sat else "early_reject")
    monkeypatch.setattr(decision, "decide", decide)


def spy(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name, also through each
    ewrobust module that imported it by name."""
    real, calls = getattr(owner, name), []

    def spied(*args):
        calls.append(args)
        return real(*args)
    for mod in [owner] + list(sys.modules.values()):
        if mod is owner or (getattr(mod, "__name__", "").startswith("ewrobust")
                            and vars(mod).get(name) is real):
            monkeypatch.setattr(mod, name, spied)
    return calls


def body_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


SEARCH = {"curve": ["--radius", "0.05,0.2,1.0"],
          "radii": ["--radius-max", "2", "--precision", "0.25"]}


def sweep(command, model, data, out, *extra):
    """curve (three radii) or radii over the 12 points of dataset_files."""
    inp, lab = data
    return main([command, "--model", model, "--dataset", inp, "--labels", lab,
                 "--shape", "2", *SEARCH[command], "--eps", "0.2",
                 "--eps-prime", "0.1", "--alpha", "0.05", "--beta", "0.05",
                 "--seed", "7", "--out", out, *extra])


class TestDecide:
    def test_sat_and_exit_zero(self, threshold_model_file, center_file, capsys):
        # p_r = (0.5 - (0 - 0.2)) / 0.4 = 1.0 -> SAT
        rc = main(["decide", "--model", threshold_model_file, "--input", center_file,
                   "--radius", "0.2", "--eps", "0.2", "--eps-prime", "0.1",
                   "--alpha", "0.05", "--beta", "0.05", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("SAT ")
        assert "N=" in out and "c=" in out

    def test_unsat(self, threshold_model_file, center_file, capsys):
        # p_r = (0.5 + 2) / 4 = 0.625 < c -> UNSAT at eps=0.2
        rc = main(["decide", "--model", threshold_model_file, "--input", center_file,
                   "--radius", "2.0", "--eps", "0.2", "--seed", "3"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("UNSAT ")

    @pytest.mark.parametrize("radius", ["1e39", "2e-5"])
    @pytest.mark.parametrize("conv", [True, False], ids=["conv", "mlp"])
    def test_conv_model_report_is_the_exact_paths(self, tmp_path, monkeypatch, conv, radius):
        # at 1e39 the samples are finite in float64 but not in float32, so the
        # float32 conv prefix falls back; either way, and for an MLP with two
        # hidden dense layers, the report is that of mask[predict(...)]
        rng = np.random.default_rng(3)
        model = tmp_path / "model.json"
        if conv:
            model.write_text(dump_model(toy_conv_model(rng, num_labels=4)))
        else:
            model.write_text(dump_model(NetworkModel((64,), 4, (
                Dense(rng.normal(size=(16, 64)), rng.normal(size=16)), Relu(),
                Dense(rng.normal(size=(16, 16)), rng.normal(size=16)), Relu(),
                Dense(rng.normal(size=(4, 16)), rng.normal(size=4))))))
        center = tmp_path / "center.csv"
        center.write_text(",".join(repr(float(v)) for v in rng.uniform(0, 1, 64)) + "\n")

        def run(name):
            out = tmp_path / name
            assert main(["decide", "--model", str(model), "--input", str(center),
                         "--radius", radius, "--norm", "inf", "--eps", "0.01", "--seed", "3",
                         "--out", str(out)]) == 0
            return out.read_bytes()

        fast = run("fast.csv")
        monkeypatch.setattr(decision, "indicative",
                            lambda model, batch, mask: mask[predict(model, batch)])
        assert fast == run("exact.csv")

    def test_zero_radius_point_check(self, threshold_model_file, center_file, capsys):
        rc = main(["decide", "--model", threshold_model_file, "--input", center_file,
                   "--radius", "0", "--eps", "0.2"])
        assert rc == 0
        assert "point check" in capsys.readouterr().out

    def test_unsat_point_check_reports_one_sample(self, threshold_model_file, tmp_path):
        # x0 = 1.0 > 0.5 is label 1, so omega {0} rejects the center itself
        center = tmp_path / "center.csv"
        center.write_text("1.0,0.0\n")
        out = tmp_path / "decide.csv"
        rc = main(["decide", "--model", threshold_model_file, "--input", str(center),
                   "--radius", "0", "--eps", "0.2", "--omega", "0", "--out", str(out)])
        assert rc == 0
        assert body_lines(out)[1].rstrip("\n").endswith(",UNSAT,0,1")

    def test_unsat_first_batch_is_four_times_the_reject_failures(
            self, threshold_model_file, tmp_path):
        # every sample of the ball has x0 > 0.5, so every sample fails; at
        # the defaults (eps 0.01, N = 891) early_reject fires at 8 failures
        # and the first batch holds 32 rows
        center = tmp_path / "center.csv"
        center.write_text("1.0,0.0\n")
        out = tmp_path / "decide.csv"
        rc = main(["decide", "--model", threshold_model_file, "--input", str(center),
                   "--radius", "0.1", "--eps", "0.01", "--omega", "0", "--out", str(out)])
        assert rc == 0
        row = body_lines(out)[1].rstrip("\n").split(",")
        assert row[3:] == ["UNSAT", "0", "32"]

    def test_missing_radius_is_usage_error(self, threshold_model_file, center_file,
                                           capsys):
        rc = main(["decide", "--model", threshold_model_file, "--input", center_file,
                   "--eps", "0.2"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_center_is_usage_error(self, threshold_model_file):
        rc = main(["decide", "--model", threshold_model_file,
                   "--radius", "1", "--eps", "0.2"])
        assert rc == 2

    def test_missing_model_file_is_runtime_error(self, center_file):
        rc = main(["decide", "--model", "/nonexistent.json", "--input", center_file,
                   "--radius", "1", "--eps", "0.2"])
        assert rc == 3

    def test_report_written(self, threshold_model_file, center_file, tmp_path):
        out = tmp_path / "decide.csv"
        rc = main(["decide", "--model", threshold_model_file, "--input", center_file,
                   "--radius", "0.2", "--eps", "0.2", "--eps-prime", "0.1",
                   "--alpha", "0.05", "--beta", "0.05", "--out", str(out)])
        assert rc == 0
        body = body_lines(out)
        assert body[0].startswith("id,gold,omega,decision")
        assert ",SAT," in body[1]
        assert "wall_time_s" not in body[0]  # timings are opt-in

    def test_timings_flag_adds_column(self, threshold_model_file, center_file, tmp_path):
        out = tmp_path / "decide.csv"
        main(["decide", "--model", threshold_model_file, "--input", center_file,
              "--radius", "0.2", "--eps", "0.2", "--eps-prime", "0.1",
              "--alpha", "0.05", "--beta", "0.05", "--timings", "--out", str(out)])
        assert "wall_time_s" in body_lines(out)[0]

    # in [0, 1], a quarter of the samples have x0 > 0.5; in [0, 0.4], none
    @pytest.mark.parametrize("clamp,bounds,expect", [
        ("0,1", (0.0, 1.0), UNSAT), ("0,0.4", (0.0, 0.4), SAT)], ids=["0,1", "0,0.4"])
    def test_clamp_matches_library(self, threshold_model_file, center_file, tmp_path,
                                   clamp, bounds, expect):
        out = tmp_path / "decide.csv"
        rc = main(["decide", "--model", threshold_model_file, "--input", center_file,
                   "--radius", "1", "--eps", "0.2", "--eps-prime", "0.1", "--alpha", "0.05",
                   "--beta", "0.05", "--seed", "3", "--clamp", clamp, "--out", str(out)])
        assert rc == 0
        with open(threshold_model_file, encoding="utf-8") as fh:
            model = load_model(fh.read())
        plan = stats.plan_test(0.2, stats.ErrorBudget(0.05, 0.05), 0.1)
        ball = sampling.BallSpec(np.zeros(2), 1.0, "inf", bounds)
        want = decision.decide(decision.RobustnessQuery(model, ball, {0}, plan, 3))
        assert want.decision == expect
        row = body_lines(out)[1].rstrip("\n").split(",")
        assert row[3:] == [want.decision, str(want.successes), str(want.samples_drawn)]
        assert f"# clamp={bounds[0]!r},{bounds[1]!r} batch=256\n" in out.read_text()


class TestEvaluate:
    def test_stub_oracle_converges(self, threshold_model_file, center_file, capsys,
                                   monkeypatch):
        fake_decide(monkeypatch, lambda center: 5.0)
        rc = main(["evaluate", "--model", threshold_model_file, "--input", center_file,
                   "--radius-max", "16", "--precision", "0.01", "--eps", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        r_star = float(out.splitlines()[0].split()[0].split("=")[1])
        assert abs(r_star - 5.0) <= 0.01

    def test_real_bisection_near_closed_form(self, threshold_model_file, center_file,
                                             capsys, tmp_path):
        out = tmp_path / "eval.csv"
        rc = main(["evaluate", "--model", threshold_model_file, "--input", center_file,
                   "--radius-max", "4", "--precision", "0.02", "--eps", "0.2",
                   "--seed", "11", "--out", str(out)])
        assert rc == 0
        r_star = float(capsys.readouterr().out.splitlines()[0].split()[0].split("=")[1])
        # boundary where p_r = c ~ 0.80252: r* = 0.25/(c - 0.5) ~ 0.826
        assert r_star == pytest.approx(0.826, abs=0.08)
        assert body_lines(out)[-1].startswith("r_star,")

    def test_misclassified_center(self, threshold_model_file, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("2.0,0.0\n")  # x0 > 0.5 -> predicted label 1, omega {0}
        rc = main(["evaluate", "--model", threshold_model_file, "--input", str(bad),
                   "--omega", "0", "--radius-max", "4", "--precision", "0.1",
                   "--eps", "0.2"])
        assert rc == 3
        assert "error" in capsys.readouterr().err


class TestCurve:
    # command -> report header and body rows (3 radii; 12 points and 2 classes)
    BODY = {"curve": (["radius", "n_points", "n_sat", "fraction_sat"], 3),
            "radii": (["kind", "id", "gold", "r_star", "misclassified", "mean", "std"], 14)}

    @pytest.mark.parametrize("command", list(BODY))
    def test_body_reproducible_across_worker_counts(self, threshold_model_file,
                                                    dataset_files, tmp_path, command):
        # --workers is ignored: the whole report, metadata too, is the same
        outs = []
        for workers in ("1", "8"):
            path = tmp_path / f"{command}_{workers}.csv"
            assert sweep(command, threshold_model_file, dataset_files, str(path),
                         "--workers", workers) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert b"workers=" not in outs[0]
        header, rows = self.BODY[command]
        body = body_lines(tmp_path / f"{command}_1.csv")
        assert body[0].strip().split(",") == header
        assert len(body) == 1 + rows

    def test_fraction_monotone_for_threshold_model(self, threshold_model_file,
                                                   dataset_files, tmp_path):
        path = tmp_path / "curve.csv"
        sweep("curve", threshold_model_file, dataset_files, str(path))
        fracs = [float(line.strip().split(",")[-1]) for line in body_lines(path)[1:]]
        assert fracs == sorted(fracs, reverse=True)

    def test_correct_only_drops_points(self, dataset_files, tmp_path):
        # model predicting label 0 iff x0 <= -2: most points are wrong
        model = tmp_path / "skew.json"
        model.write_text(dump_model(threshold_classifier(2, 0, -2.0)))
        path = tmp_path / "curve.csv"
        rc = sweep("curve", str(model), dataset_files, str(path), "--correct-only")
        assert rc == 0
        n_points = int(body_lines(path)[1].strip().split(",")[1])
        assert n_points < 12

    def test_correct_only_predicts_batch_rows_at_a_time(self, dataset_files, tmp_path,
                                                        monkeypatch):
        model = tmp_path / "skew.json"
        model.write_text(dump_model(threshold_classifier(2, 0, 0.0)))
        whole = tmp_path / "whole.csv"
        assert sweep("curve", str(model), dataset_files, str(whole), "--correct-only") == 0
        sizes = []

        def counting_predict(m, batch):
            sizes.append(len(batch))
            return predict(m, batch)

        monkeypatch.setattr(cli, "predict", counting_predict)
        chunked = tmp_path / "chunked.csv"
        assert sweep("curve", str(model), dataset_files, str(chunked),
                     "--correct-only", "--batch", "5") == 0
        assert sizes == [5, 5, 2]
        assert body_lines(chunked) == body_lines(whole)
        inputs = np.loadtxt(dataset_files[0], delimiter=",")
        labels = np.loadtxt(dataset_files[1], dtype=int)
        n_correct = int((predict(load_model(model.read_text()), inputs) == labels).sum())
        assert 0 < n_correct < 12
        assert int(body_lines(chunked)[1].split(",")[1]) == n_correct

    def test_empty_grid_is_usage_error(self, threshold_model_file, dataset_files,
                                       tmp_path):
        inp, lab = dataset_files
        rc = main(["curve", "--model", threshold_model_file, "--dataset", inp,
                   "--labels", lab, "--shape", "2", "--eps", "0.2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_missing_dataset_is_usage_error(self, threshold_model_file, tmp_path):
        rc = main(["curve", "--model", threshold_model_file, "--radius", "1",
                   "--eps", "0.2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestRadii:
    def test_stub_radii_summary(self, tmp_path, monkeypatch):
        # constant-label-0 model; point k has x0 = k and r* = 3 (k even) or 7
        # (k odd) -> mean 5, std 2
        fake_decide(monkeypatch, lambda center: 3.0 if center[0] % 2 == 0 else 7.0)
        model = tmp_path / "model.json"
        doc = {"input_shape": [2], "num_labels": 2,
               "layers": [{"kind": "dense", "weight": [[0, 0], [0, 0]],
                           "bias": [1, 0]}]}
        model.write_text(json.dumps(doc))
        inp = tmp_path / "inputs.csv"
        lab = tmp_path / "labels.txt"
        inp.write_text("".join(f"{k}.0,0.0\n" for k in range(6)))
        lab.write_text("0\n" * 6)
        out = tmp_path / "radii.csv"
        rc = main(["radii", "--model", str(model), "--dataset", str(inp),
                   "--labels", str(lab), "--shape", "2", "--radius-max", "16",
                   "--precision", "1e-9", "--eps", "0.2", "--out", str(out),
                   "--workers", "2"])
        assert rc == 0
        body = body_lines(out)
        summary = [l for l in body if l.startswith("class_summary")]
        assert len(summary) == 1
        parts = summary[0].strip().split(",")
        assert float(parts[5]) == pytest.approx(5.0, abs=1e-6)
        assert float(parts[6]) == pytest.approx(2.0, abs=1e-6)  # population std

    def test_misclassified_points_flagged(self, threshold_model_file, tmp_path):
        inp = tmp_path / "inputs.csv"
        lab = tmp_path / "labels.txt"
        inp.write_text("0.0,0.0\n2.0,0.0\n")  # second point predicts label 1
        lab.write_text("0\n0\n")
        out = tmp_path / "radii.csv"
        rc = main(["radii", "--model", threshold_model_file, "--dataset", str(inp),
                   "--labels", str(lab), "--shape", "2", "--radius-max", "2",
                   "--precision", "0.5", "--eps", "0.2", "--eps-prime", "0.1",
                   "--alpha", "0.05", "--beta", "0.05", "--out", str(out)])
        assert rc == 0
        points = [l.strip().split(",") for l in body_lines(out)
                  if l.startswith("point")]
        assert points[0][4] == "0" and points[0][3] != ""
        assert points[1][4] == "1" and points[1][3] == ""

    def test_missing_search_params_usage_error(self, threshold_model_file,
                                               dataset_files, tmp_path):
        inp, lab = dataset_files
        rc = main(["radii", "--model", threshold_model_file, "--dataset", inp,
                   "--labels", lab, "--shape", "2", "--eps", "0.2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestSweepThreads:
    QUERY = {"curve": "decide", "radii": "evaluate"}  # what each runs per point

    @pytest.mark.parametrize("command", ["curve", "radii"])
    def test_every_query_runs_on_main_thread(self, threshold_model_file, dataset_files,
                                             tmp_path, monkeypatch, command):
        # --workers 8: still one query at a time, in order, and one plan and
        # one query per point for the whole sweep
        threads, query = [], getattr(cli, self.QUERY[command])

        def recording(*args):
            threads.append(threading.current_thread())
            return query(*args)

        monkeypatch.setattr(cli, self.QUERY[command], recording)
        plans = spy(monkeypatch, stats, "plan_test")
        built = spy(monkeypatch, decision.RobustnessQuery, "__post_init__")
        assert sweep(command, threshold_model_file, dataset_files,
                     str(tmp_path / "out.csv"), "--workers", "8") == 0
        assert len(threads) == 12 * (3 if command == "curve" else 1)
        assert all(t is threading.main_thread() for t in threads)
        assert (len(plans), len(built)) == (1, 12)


class TestGadget:
    def test_roundtrip(self, tmp_path):
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text("p cnf 2 1\n1 2 0\n")
        out = tmp_path / "gadget.json"
        rc = main(["gadget", "--cnf", str(cnf_path), "--out", str(out)])
        assert rc == 0
        model = load_model(out.read_text())
        want = build_gadget(CnfFormula(2, ((1, 2),)))
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(predict(model, corners), predict(want, corners))

    def test_malformed_cnf(self, tmp_path, capsys):
        cnf_path = tmp_path / "bad.cnf"
        cnf_path.write_text("p cnf 2 1\n1 2\n")
        rc = main(["gadget", "--cnf", str(cnf_path)])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err


class TestSample:
    def test_deterministic_dump(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main(["sample", "--norm", "2", "--radius", "1.5", "--count", "20",
                       "--shape", "3", "--seed", "42", "--out", str(path)])
            assert rc == 0
        assert a.read_text() == b.read_text()
        body = body_lines(a)
        assert body[0].strip() == "index,x0,x1,x2"
        assert len(body) == 21

    def test_start_offset_matches_library(self, tmp_path):
        from ewrobust.sampling import BallSpec, sample_batch
        out = tmp_path / "s.csv"
        main(["sample", "--norm", "inf", "--radius", "2.0", "--count", "5",
              "--start", "100", "--shape", "2", "--seed", "9", "--out", str(out)])
        rows = [l.strip().split(",") for l in body_lines(out)[1:]]
        assert rows[0][0] == "100"
        want = sample_batch(BallSpec(np.zeros(2), 2.0, "inf"), 9, 100, 5)
        got = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.array_equal(got, want)  # repr round-trips exactly

    def test_clamp_matches_library(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sample", "--norm", "2", "--radius", "1", "--count", "8", "--shape", "3",
                   "--seed", "4", "--clamp=-0.5,0.25", "--out", str(out)])
        assert rc == 0
        want = sampling.sample_batch(sampling.BallSpec(np.zeros(3), 1.0, "2", (-0.5, 0.25)),
                                     4, 0, 8)
        got = np.array([[float(v) for v in l.split(",")[1:]] for l in body_lines(out)[1:]])
        assert np.array_equal(got, want) and (got == 0.25).any()  # some rows were clipped
        assert "# seed=4 norm=2 radius=1.0 clamp=-0.5,0.25\n" in out.read_text()

    def test_count_zero_header_only(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sample", "--norm", "1", "--radius", "1", "--count", "0",
                   "--shape", "4", "--out", str(out)])
        assert rc == 0
        assert body_lines(out) == ["index,x0,x1,x2,x3\n"]

    def test_bad_norm_usage_error(self, tmp_path):
        rc = main(["sample", "--norm", "3", "--radius", "1", "--count", "1",
                   "--shape", "2", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
