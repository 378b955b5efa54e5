#!/usr/bin/env python3
"""Benchmark of the ewrobust CLI: end-to-end metrics from untraced passes,
per-layer metrics from a traced run, and a correctness gate on every call.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload cnn_decide --seed 3 --seconds 20 --trace 1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Inputs come from ``perfbench/gen.py`` (a separate process, so
its memory stays out of ``peak_rss_mb``) and are written, with the reports
and a result file per run, under ``perfbench/_work/``.

Workloads (why each exists: see BENCHMARK.json):
  mlp_decide  six ``decide`` calls on an MLP 784-100-100-10: SAT and UNSAT for
              norms inf, 1 and 2 at CLI defaults (eps 0.01, N = 891).
  cnn_decide  ``decide --norm inf`` SAT and UNSAT on a CNN 1x28x28 with
              conv 1->8, conv 8->16, maxpool 2 and dense -> 10.
  toy_radii   ``radii --workers 2`` over 300 points on the toy 1x8x8 CNN with
              the toy demo's statistics (N = 36), then five SAT and five UNSAT
              ``decide`` calls on that model.

Every run reports every metric of BENCHMARK.json.  Where a workload lacks
what a metric measures, the benchmark says so by a rule, not a guess:
``points_per_s`` counts a ``decide`` call as one finished point and a
``radii`` call as one per dataset row; a per-layer metric of a layer, norm or
function the workload never runs reads 0 (the table marks it "absent").

The gate counts a CLI call as failed when it exits non-zero, when a
``decide`` call returns the wrong verdict, when a SAT verdict drew fewer
samples than the plan's N, or when its report body (the lines below the
``#`` metadata) differs from the first pass's.  With ``--trace 1`` traced
bodies must equal untraced ones and the traced sample count must equal the
count the reports give.  The exit code is 1 when any call failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("mlp_decide", "cnn_decide", "toy_radii")
SETUP_SHARE = 0.05  # share of a run's time spent repeating the set-up


def import_program():
    """Import ewrobust from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ewrobust.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ewrobust from {src}: {exc}")
    if pathlib.Path(ewrobust.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: ewrobust was imported from {ewrobust.cli.__file__}, not {src}")


# --- inputs ------------------------------------------------------------------

def generate(workload, seed, size, tag):
    out = WORK / f"{workload}-seed{seed}-{size}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out), "--size", size],
                   check=True, timeout=170)
    return json.loads((out / "manifest.json").read_text())


def flags(argv):
    return {argv[k]: argv[k + 1] for k in range(len(argv) - 1) if argv[k].startswith("--")}


def radii_samples_per_point(call):
    """Samples one correctly classified point costs in ``radii``: every
    bisection probe is one decide of the plan's N samples (N < --batch, so a
    probe is a single batch and never stops early)."""
    from ewrobust.stats import ErrorBudget, plan_test
    f = flags(call["argv"])
    plan = plan_test(float(f["--eps"]), ErrorBudget(float(f["--alpha"]), float(f["--beta"])),
                     float(f["--eps-prime"]))
    probes, width = 0, call["radius_max"]
    while width > call["precision"]:
        width /= 2.0
        probes += 1
    return probes * plan.N


def setup_seconds(manifest):
    """One set-up: parse the workload's model files and load its CSV inputs."""
    from ewrobust.data import load_dataset, load_inputs
    from ewrobust.nn import load_model
    shape = tuple(manifest["shape"])
    t0 = perf_counter()
    for path in manifest["models"]:
        model = load_model(pathlib.Path(path).read_bytes())
    for path in manifest["centers"]:
        load_inputs(path, shape)
    for inputs, labels in manifest["datasets"]:
        load_dataset(inputs, labels, shape, model.num_labels)
    return perf_counter() - t0


class SetupSampler:
    """Repeats the set-up between CLI calls, whenever the set-ups so far took
    less than SETUP_SHARE of the run, so that the samples spread over the
    whole run instead of one moment of a shared machine."""

    def __init__(self, manifest):
        self.manifest = manifest
        self.samples: list[float] = []
        self.start = perf_counter()

    def __call__(self):
        if sum(self.samples) <= SETUP_SHARE * (perf_counter() - self.start):
            self.samples.append(setup_seconds(self.manifest))


# --- passes and the gate -----------------------------------------------------

def run_call(argv):
    import ewrobust.cli
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ewrobust.cli.main(argv)
    except Exception:  # a crash is a failed call, and the run goes on
        traceback.print_exc()
        rc = None
    return rc, perf_counter() - t0


def split_report(text):
    lines = text.splitlines(keepends=True)
    meta = [l for l in lines if l.startswith("#")]
    return meta, "".join(lines[len(meta):])


def check_call(call, rc, bodies, index):
    """(problem or None, samples drawn, points finished) of one call."""
    if rc != 0:
        return f"exit code {rc}", 0, 0
    try:
        meta, body = split_report(pathlib.Path(call["out"]).read_text())
    except OSError as exc:
        return f"no report: {exc}", 0, 0
    if bodies.setdefault(index, body) != body:
        return "report body differs from the first pass", 0, 0
    rows = [line.split(",") for line in body.splitlines()[1:]]
    if call["kind"] == "decide":
        decision, drawn = rows[0][3], int(rows[0][5])
        if decision != call["expect"]:
            return f"verdict {decision}, expected {call['expect']}", drawn, 1
        plan_n = int(next(m for m in meta if m.startswith("# plan:")).split()[2][2:])
        if decision == "SAT" and drawn != plan_n:
            return f"SAT drew {drawn} samples, plan N is {plan_n}", drawn, 1
        return None, drawn, 1
    points = [r for r in rows if r[0] == "point"]
    if len(points) != call["points"]:
        return f"{len(points)} point rows for {call['points']} points", 0, 0
    correct = sum(r[4] == "0" for r in points)
    return None, correct * call["samples_per_point"], len(points)


def run_pass(calls, bodies, failures, between):
    """One pass of the workload; returns its per-call records."""
    records = []
    for call in calls:
        with contextlib.suppress(FileNotFoundError):
            os.remove(call["out"])
        rc, seconds = run_call(call["argv"])
        records.append((call, rc, seconds))
        between()
    for index, (call, rc, seconds) in enumerate(records):
        problem, drawn, points = check_call(call, rc, bodies, index)
        if problem:
            failures.append(f"{' '.join(call['argv'][:1])} #{index}: {problem}")
        records[index] = {"expect": call.get("expect"), "seconds": seconds,
                          "drawn": drawn, "points": points, "ok": problem is None}
    return records


def run_passes(calls, seconds, bodies, failures, between=lambda: None):
    """Passes until the time is up, at least two so that report bodies are
    always compared across passes."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < 2 or perf_counter() < deadline:
        passes.append(run_pass(calls, bodies, failures, between))
    return passes


# --- statistics --------------------------------------------------------------

def tail(values):
    """(percentile, value) of the highest integer percentile with at least ten
    samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    for p in range(99, 0, -1):
        value = ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
        if sum(v > value for v in ordered) >= 10:
            return p, value
    return None


def timing(values):
    """Median, tail and count; a failed run may leave no values (reads 0)."""
    return {"value": statistics.median(values) if values else 0.0, "n": len(values),
            "tail": tail(values)}


def end_to_end(passes, setup):
    walls = [sum(r["seconds"] for r in p) for p in passes]
    per_call = [r for p in passes for r in p]
    drawn = [sum(r["drawn"] for r in p) for p in passes]
    points = [sum(r["points"] for r in p) for p in passes]
    return {
        "wall_s": timing(walls),
        "sat_verdict_s": timing([r["seconds"] for r in per_call if r["expect"] == "SAT"]),
        "unsat_verdict_s": timing([r["seconds"] for r in per_call if r["expect"] == "UNSAT"]),
        "points_per_s": {"value": statistics.median(p / w for p, w in zip(points, walls))},
        "samples_per_s": {"value": statistics.median(d / w for d, w in zip(drawn, walls))},
        "samples_drawn": {"value": statistics.median(drawn)},
        "setup_s": timing(setup),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
    }


def per_layer(tracer, traced, untraced):
    from tracer import covered
    spans, counts, intervals, query_time, kernels = tracer.merged()
    n = len(traced)
    wall = sum(sum(r["seconds"] for r in p) for p in traced)
    zero = [0, 0.0, 0.0, 0]
    span = lambda key: spans.get(key, zero)  # noqa: E731
    per = lambda total, units, scale=1e6: total / units * scale if units else 0.0  # noqa: E731

    out = {}
    rows = span("nn.forward")[3]
    for key, (calls, total, _, units) in spans.items():
        if key.startswith("nn.") and key.count(".") == 2 and key != "nn.load_model":
            out[f"{key}.us_per_row"] = per(total, units)
    for kind in ("dense", "conv2d", "maxpool2d"):
        kind_total = sum(a[1] for k, a in spans.items()
                         if k.startswith("nn.") and k.endswith("." + kind))
        out[f"nn.{kind}.us_per_row"] = per(kind_total, rows)
    for key, (params, biases, in_shape, out_shape) in kernels.items():
        calls, _, _, units = span(key)
        madds = (params // out_shape[0]) * math.prod(out_shape) if len(out_shape) == 3 \
            else params
        # compulsory traffic: read the input row, write the output row, and
        # read the parameters once per call, shared by the call's rows
        moved = 8 * (math.prod(in_shape) + math.prod(out_shape)) \
            + 8 * (params + biases) * calls / units
        out[f"{key}.computed.madd_per_row"] = madds
        out[f"{key}.computed.bytes_per_row"] = moved
        out[f"{key}.computed.flop_per_byte"] = 2 * madds / moved
    out["nn.forward.us_per_row"] = per(span("nn.forward")[1], rows)
    out["nn.batch_rows"] = per(rows, span("nn.forward")[0], 1)

    uniforms = span("prng.uniforms")
    out["prng.uniforms.us_per_sample"] = per(uniforms[1], uniforms[3])
    out["prng.draws"] = counts.get("prng.draws", 0) / n
    subseed = span("prng.derive_subseed")
    out["prng.derive_subseed.calls"] = subseed[0] / n
    out["prng.derive_subseed.us_per_call"] = per(subseed[1], subseed[0])
    for name in ("gamma", "inv_norm"):
        agg = span(f"special.{name}")
        out[f"special.{name}.us_per_sample"] = per(agg[1], agg[3])
    for norm in ("inf", "1", "2"):
        agg = span(f"sampling.transform.{norm}")
        out[f"sampling.transform.{norm}.us_per_sample"] = per(agg[2], agg[3])

    out["stats.plan_test.calls"] = span("stats.plan_test")[0] / n
    out["stats.stop_checks"] = (span("stats.early_accept")[0]
                                + span("stats.early_reject")[0]) / n
    queries = counts.get("decision.queries", 0)
    samples = counts.get("decision.samples", 0)
    out["decision.self_s"] = sum(a[2] for k, a in spans.items()
                                 if k.startswith("decision.")) / n
    out["decision.probes_per_point"] = per(counts.get("decision.probes", 0),
                                           span("decision.evaluate")[0], 1)
    out["decision.samples_per_query"] = per(samples, queries, 1)
    out["decision.batches_per_query"] = per(counts.get("decision.batches", 0), queries, 1)
    out["decision.early_accept_share"] = per(counts.get("decision.early_accept", 0), queries, 1)
    out["decision.overshoot_ratio"] = per(counts.get("decision.overshoot", 0), samples, 1)
    inside = covered(intervals)
    out["cli.self_s"] = (span("cli.main")[1] - inside) / n
    out["cli.query_concurrency"] = query_time / wall
    out["nn.load_model.s"] = span("nn.load_model")[1] / n
    out["data.load.s"] = sum(span(f"data.{f}")[2]
                             for f in ("load_inputs", "load_labels", "load_dataset")) / n
    out["data.write_report.s"] = span("data.write_report")[1] / n

    traced_wall = statistics.median(sum(r["seconds"] for r in p) for p in traced)
    untraced_wall = statistics.median(sum(r["seconds"] for r in p) for p in untraced)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.uncovered_share"] = (wall - inside) / wall
    out["trace.samples_drawn"] = samples / n
    return {k: {"value": v} for k, v in out.items()}


# --- machine record ----------------------------------------------------------

def machine_record():
    import numpy as np
    record = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "numpy": np.__version__,
              "cpu": "unknown", "caches": {}, "blas": "unknown"}
    with contextlib.suppress(OSError):
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                record["caches"][f"L{level}"] = (index / "size").read_text().strip()
    with contextlib.suppress(Exception):  # show_config's layout varies by numpy build
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return record


def cpu_times():
    """(steal, total) jiffies of all CPUs: steal is time the hypervisor gave
    this machine's CPUs to others, the usual cause of run-to-run drift."""
    with contextlib.suppress(OSError, IndexError, ValueError):
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
        return fields[7], sum(fields)
    return 0, 0


# --- one workload ------------------------------------------------------------

def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_workload(workload, seed, seconds, trace, size):
    machine = machine_record()
    machine["loadavg_before"] = os.getloadavg()
    steal_before, total_before = cpu_times()
    manifest = generate(workload, seed, size, f"trace{trace}")
    calls = manifest["calls"]
    for call in calls:
        if call["kind"] == "radii":
            call["samples_per_point"] = radii_samples_per_point(call)
    failures: list[str] = []
    bodies: dict[int, str] = {}
    mismatch = 0  # the traced sample count disagrees with the reports
    e2e_specs, layer_specs = load_metric_specs()

    if not trace:
        setup = SetupSampler(manifest)
        passes = run_passes(calls, seconds, bodies, failures, setup)
        computed = end_to_end(passes, setup.samples)
        specs, all_passes = e2e_specs, passes
    else:
        from tracer import Tracer
        untraced = run_passes(calls, seconds / 2, bodies, failures)
        tracer = Tracer().install()
        try:
            traced = run_passes(calls, seconds / 2, bodies, failures)
        finally:
            tracer.remove()
        computed = per_layer(tracer, traced, untraced)
        reported = statistics.median(sum(r["drawn"] for r in p) for p in traced)
        if computed["trace.samples_drawn"]["value"] != reported:
            failures.append(f"traced runs drew {computed['trace.samples_drawn']['value']} "
                            f"samples per pass, the reports give {reported}")
            mismatch = 1
        specs, all_passes = layer_specs, untraced + traced
    machine["loadavg_after"] = os.getloadavg()
    steal_after, total_after = cpu_times()
    machine["cpu_steal_share"] = (steal_after - steal_before) / max(total_after - total_before, 1)

    attempted = sum(len(p) for p in all_passes)
    failed = sum(not r["ok"] for p in all_passes for r in p) + mismatch
    metrics = {s["name"]: {"value": computed[s["name"]]["value"] if s["name"] in computed
                           else 0.0, "unit": s["unit"]} for s in specs}
    print_table(workload, seed, trace, machine, len(all_passes), attempted, failed,
                failures, specs, computed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, trace=trace, size=size,
                  seconds=seconds, machine=machine, failures=failures,
                  detail=computed)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}-{size}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result


def print_table(workload, seed, trace, machine, passes, attempted, failed, failures,
                specs, computed):
    print(f"# machine: {json.dumps(machine)}")
    print(f"# {workload} seed={seed} trace={trace}: {passes} passes, {attempted} CLI calls, "
          f"{failed} failed (failed_ops {failed / max(attempted, 1):.4f})")
    for problem in failures[:20]:
        print(f"#   FAIL {problem}")
    for s in specs:
        name = s["name"]
        if name not in computed:
            print(f"  {name:48s} {'absent':>14s} {s['unit']}")
            continue
        entry = computed[name]
        line = f"  {name:48s} {entry['value']:14.6g} {s['unit']}"
        if "n" in entry:
            t = entry["tail"]
            line += (f"   p{t[0]}={t[1]:.6g}" if t else "   no tail (<11 samples)") \
                + f" n={entry['n']}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one run; a pass in progress finishes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    results = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        results[workload] = run_workload(workload, args.seed, args.seconds, args.trace,
                                            args.size)
        if not args.workload:
            print(json.dumps(results[workload]))
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{w}.{k}": v for w, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
